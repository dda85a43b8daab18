//! The `clop-trace` binary: inspect a CLTC trace container.
//!
//! ```text
//! clop-trace info <in.cltc>                print container version + event count
//! ```
//!
//! `info` decodes the whole file, so a damaged container or one in a
//! format the readers do not accept exits nonzero with the decode error.

use clop_trace::read_trace;
use std::io::Write;

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
        ["info", input] => cmd_info(input),
        _ => Err("usage: clop-trace info <in.cltc>".to_string()),
    }
}

fn cmd_info(input: &str) -> Result<(), String> {
    let bytes = std::fs::read(input).map_err(|e| format!("read {}: {}", input, e))?;
    let trace = read_trace(&mut bytes.as_slice()).map_err(|e| format!("{}: {}", input, e))?;
    let stdout = std::io::stdout();
    // A container that decoded has its version byte at offset 4.
    writeln!(
        stdout.lock(),
        "{}: container version {}, {} events, {} bytes",
        input,
        bytes[4],
        trace.len(),
        bytes.len()
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_error_on_bad_args() {
        assert!(run(&["frobnicate"]).unwrap_err().contains("usage"));
        assert!(run(&["pack", "a", "b"]).unwrap_err().contains("usage"));
    }
}
