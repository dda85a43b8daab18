//! The `clop-trace` binary: offline CLTC container maintenance.
//!
//! ```text
//! clop-trace pack <in.cltc> <out.cltc>     re-encode as columnar (CLTC v2)
//! clop-trace info <in.cltc>                print container version + event count
//! ```
//!
//! `pack` accepts any readable container version on input (including the
//! v0 legacy "CLT1" format), so it migrates an archive of older files to
//! the only format the library writes.
//!
//! `pack` finishes with a built-in round-trip check before the output is
//! atomically installed: the freshly encoded container is decoded again
//! and (a) its event sequence must be identical to the input's, and (b)
//! re-encoding that decoded trace must reproduce the output byte for
//! byte. A conversion that cannot prove both properties exits nonzero and
//! leaves no output file behind.

use clop_trace::{read_trace, write_trace, Trace};
use std::io::Write;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    if let Err(msg) = run(&strs) {
        eprintln!("clop-trace: {}", msg);
        std::process::exit(1);
    }
}

fn run(args: &[&str]) -> Result<(), String> {
    match args {
        ["pack", input, output] => cmd_pack(input, output),
        ["info", input] => cmd_info(input),
        _ => Err("usage: clop-trace pack <in.cltc> <out.cltc> | info <in.cltc>".to_string()),
    }
}

fn load(input: &str) -> Result<(Trace, Vec<u8>), String> {
    let bytes = std::fs::read(input).map_err(|e| format!("read {}: {}", input, e))?;
    let trace = read_trace(&mut bytes.as_slice()).map_err(|e| format!("{}: {}", input, e))?;
    Ok((trace, bytes))
}

fn cmd_pack(input: &str, output: &str) -> Result<(), String> {
    let (trace, in_bytes) = load(input)?;
    let mut out = Vec::new();
    write_trace(&mut out, &trace).map_err(|e| e.to_string())?;

    // Round-trip check: the output must decode to the exact input event
    // sequence, and re-encoding the decoded trace must be byte-identical.
    let back =
        read_trace(&mut out.as_slice()).map_err(|e| format!("round-trip decode failed: {}", e))?;
    if back.events() != trace.events() {
        return Err(format!(
            "round-trip mismatch: decoded {} events, input has {}",
            back.len(),
            trace.len()
        ));
    }
    let mut again = Vec::new();
    write_trace(&mut again, &back).map_err(|e| e.to_string())?;
    if again != out {
        return Err("round-trip re-encode is not byte-identical".to_string());
    }

    clop_util::atomic_write(Path::new(output), &out).map_err(|e| e.to_string())?;
    let stdout = std::io::stdout();
    writeln!(
        stdout.lock(),
        "{} -> {} (columnar): {} events, {} -> {} bytes",
        input,
        output,
        trace.len(),
        in_bytes.len(),
        out.len()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn cmd_info(input: &str) -> Result<(), String> {
    let (trace, bytes) = load(input)?;
    let version = match bytes.get(..4) {
        Some(b"CLT1") => "0 (legacy)".to_string(),
        Some(b"CLTC") => bytes.get(4).map(|v| v.to_string()).unwrap_or_default(),
        _ => "?".to_string(),
    };
    let stdout = std::io::stdout();
    writeln!(
        stdout.lock(),
        "{}: container version {}, {} events, {} bytes",
        input,
        version,
        trace.len(),
        bytes.len()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_oracle::legacy;

    fn sample_ids(len: usize, blocks: u64) -> Vec<u32> {
        let mut state = 0x5EED_u64 | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..len).map(|_| (next() % blocks) as u32).collect()
    }

    #[test]
    fn pack_rewrites_a_legacy_v1_file_as_v2() {
        let dir = std::env::temp_dir().join(format!("clop-trace-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let row = dir.join("row.cltc");
        let col = dir.join("col.cltc");

        let ids = sample_ids(9_000, 257);
        std::fs::write(&row, legacy::cltc_v1(&ids)).unwrap();
        run(&["pack", row.to_str().unwrap(), col.to_str().unwrap()]).unwrap();

        let col_bytes = std::fs::read(&col).unwrap();
        assert_eq!(&col_bytes[..4], b"CLTC");
        assert_eq!(col_bytes[4], 2, "pack must emit a v2 container");
        let back = read_trace(&mut col_bytes.as_slice()).unwrap();
        assert_eq!(back, Trace::from_indices(ids), "pack must keep every event");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pack_refuses_damaged_input_and_writes_nothing() {
        let dir = std::env::temp_dir().join(format!("clop-trace-cli-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let row = dir.join("row.cltc");
        let col = dir.join("col.cltc");

        let mut buf = legacy::cltc_v1(&sample_ids(500, 31));
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        std::fs::write(&row, &buf).unwrap();

        assert!(run(&["pack", row.to_str().unwrap(), col.to_str().unwrap()]).is_err());
        assert!(!col.exists(), "failed conversion must not leave output");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn usage_error_on_bad_args() {
        assert!(run(&["frobnicate"]).unwrap_err().contains("usage"));
        assert!(run(&["unpack", "a", "b"]).unwrap_err().contains("usage"));
    }
}
