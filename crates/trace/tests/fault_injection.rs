//! Fault-injection suite for the trace container.
//!
//! The robustness contract: **no input, however mangled, makes a trace
//! decoder panic or allocate unboundedly** — every failure is a
//! structured [`clop_util::ClopError`]. This harness is deliberately
//! `catch_unwind`-free: a panic anywhere in a decoder fails the test
//! outright, so the guarantee is enforced by construction rather than
//! filtered after the fact.
//!
//! Coverage: >500 seeded corruptions (bit flips, byte rewrites, span
//! duplication/deletion/zeroing, garbage insertion/appends) plus
//! truncation at *every* byte boundary, applied to columnar-v2 containers
//! (the written format) and legacy v1 and v0 containers (read-only, from
//! `clop_oracle::legacy`) of representative traces, driven through
//! `read_trace`, `read_trimmed` and `read_trace_repaired`; hostile
//! handcrafted headers (astronomical counts, lying lengths) round it out.
//! A dedicated columnar storm additionally checks the salvage contract:
//! whatever survives is a clean prefix and the report accounts for every
//! dropped event.

use clop_oracle::legacy;
use clop_trace::io::{read_mapping, read_trace, read_trace_repaired, read_trimmed, write_trace};
use clop_trace::{BlockMap, Trace};
use clop_util::fault::{all_truncations, seeded_corruptions};
use clop_util::ClopError;

/// Representative traces: empty, single event, trimmed-run, mid-size
/// random-ish, and large sparse ids (multi-byte varints + zigzag deltas).
fn sample_traces() -> Vec<Trace> {
    let mut mid = Vec::new();
    let mut x = 7u32;
    for _ in 0..400 {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        mid.push(x % 97);
    }
    vec![
        Trace::new(),
        Trace::from_indices([0]),
        Trace::from_indices([5, 5, 5, 2, 2, 9]),
        Trace::from_indices(mid),
        Trace::from_indices([0, 1 << 30, 3, u32::MAX - 7, 1 << 20, 2]),
    ]
}

/// Drive one corrupted byte string through every read entry point. The
/// decoders may accept (a corruption can be a no-op for v0, which has no
/// checksum) or reject — but rejection must be a structured error, and
/// nothing may panic.
fn exercise(data: &[u8], what: &str) {
    if let Err(e) = read_trace(&mut &data[..]) {
        assert_structured(&e, what);
    }
    if let Err(e) = read_trimmed(&mut &data[..]) {
        assert_structured(&e, what);
    }
    match read_trace_repaired(&mut &data[..]) {
        Ok((trace, report)) => {
            // Salvage accounting must be internally consistent.
            assert_eq!(trace.len() as u64, report.decoded, "{}", what);
            assert_eq!(
                report.dropped,
                report.declared.saturating_sub(report.decoded),
                "{}",
                what
            );
        }
        Err(e) => assert_structured(&e, what),
    }
}

/// Every decoder failure must be a trace-decode ClopError, and its
/// rendering must be non-empty (the CLI prints these verbatim).
fn assert_structured(e: &ClopError, what: &str) {
    match e {
        ClopError::TraceDecode { detail, .. } => {
            assert!(!detail.is_empty(), "{}: empty error detail", what)
        }
        other => panic!("{}: unexpected error variant {:?}", what, other),
    }
}

#[test]
fn corruption_storm_returns_structured_errors_only() {
    let mut cases = 0usize;
    for (ti, trace) in sample_traces().into_iter().enumerate() {
        let ids: Vec<u32> = trace.events().iter().map(|b| b.0).collect();
        for version in [0u8, 1, 2] {
            let buf = match version {
                0 => legacy::cltc_v0(&ids),
                1 => legacy::cltc_v1(&ids),
                _ => {
                    let mut buf = Vec::new();
                    write_trace(&mut buf, &trace).unwrap();
                    buf
                }
            };
            let seed = 0xC10F_0000 + ti as u64 * 3 + version as u64;
            for c in seeded_corruptions(seed, &buf, 40) {
                exercise(&c.data, &c.description);
                cases += 1;
            }
            for c in all_truncations(&buf) {
                exercise(&c.data, &c.description);
                cases += 1;
            }
        }
    }
    assert!(
        cases >= 500,
        "fault matrix shrank to {} cases; keep it above the 500 floor",
        cases
    );
}

/// Columnar-specific storm: beyond "no panic, structured errors", the
/// block-granular salvage contract must hold under every single-point
/// fault — whatever `read_trace_repaired` returns is a clean prefix of
/// the original events, and the report accounts for the losses.
#[test]
fn columnar_storm_salvages_clean_prefixes_only() {
    // Three full blocks plus a partial one, mixed delta widths.
    let mut ids = Vec::new();
    let mut x = 11u32;
    for i in 0..14_000u32 {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        ids.push(if i % 64 == 0 { x % (1 << 20) } else { i % 700 });
    }
    let trace = Trace::from_indices(ids);
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).unwrap();

    let mut cases = 0usize;
    let mut salvaged_partial = 0usize;
    let mut check = |data: &[u8], what: &str| {
        exercise(data, what); // no-panic + structured-error + accounting
        if let Ok((salvage, report)) = read_trace_repaired(&mut &data[..]) {
            assert!(
                salvage.len() <= trace.len(),
                "{}: salvage longer than original",
                what
            );
            if report.dropped > 0 || report.crc_ok == Some(false) {
                assert_eq!(
                    salvage.events(),
                    &trace.events()[..salvage.len()],
                    "{}: salvage is not a clean prefix",
                    what
                );
                salvaged_partial += 1;
            }
        }
    };
    for c in all_truncations(&buf) {
        check(&c.data, &c.description);
        cases += 1;
    }
    for c in seeded_corruptions(0xC01_7EA5, &buf, 600) {
        check(&c.data, &c.description);
        cases += 1;
    }
    assert!(cases >= 500, "columnar fault matrix shrank to {}", cases);
    assert!(
        salvaged_partial > 0,
        "no fault ever exercised partial salvage — the matrix is too tame"
    );
}

#[test]
fn every_truncation_of_a_v1_container_is_rejected() {
    // Stronger than "no panic": a v1 container is length- and
    // checksum-framed, so *every* proper prefix must be rejected outright.
    let buf = legacy::cltc_v1(&[3, 1, 4, 1, 5, 9, 2, 6, 1 << 24]);
    for c in all_truncations(&buf) {
        let e = read_trace(&mut &c.data[..]).unwrap_err();
        assert_structured(&e, &c.description);
    }
}

#[test]
fn hostile_headers_fail_fast_without_allocation() {
    // A v0 header claiming 2^60 events over an empty body: the decoder
    // must fail at EOF, not preallocate. (Completing at all is the
    // allocation proof — 2^60 events would be an 8 EB Vec.)
    let mut hostile = b"CLT1".to_vec();
    hostile.extend([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x10]);
    let e = read_trace(&mut &hostile[..]).unwrap_err();
    assert_structured(&e, "v0 with 2^60 count");

    // A v1 header whose payload length lies (tiny payload, huge count).
    let mut lying = b"CLTC\x01".to_vec();
    lying.push(3); // payload_len = 3
    lying.extend([0, 0, 0, 0]); // crc
    lying.extend([0xFF, 0xFF, 0x40]); // count varint ≈ 2^20, payload is done
    let e = read_trace(&mut &lying[..]).unwrap_err();
    assert_structured(&e, "v1 count exceeding payload");
}

#[test]
fn garbage_magic_is_rejected_not_misparsed() {
    for garbage in [
        &b""[..],
        b"\x00\x00\x00\x00",
        b"CLT2\x01\x00",
        b"JSON{\"a\":1}",
        b"CLTC",             // magic only, no version
        b"CLTC\x07\x00\x00", // unknown version
    ] {
        let e = read_trace(&mut &garbage[..]).unwrap_err();
        assert_structured(&e, "garbage magic");
    }
}

#[test]
fn corrupted_mappings_return_line_errors() {
    let mut map = BlockMap::new();
    map.intern("main");
    map.intern("helper");
    let mut buf = Vec::new();
    clop_trace::io::write_mapping(&mut buf, &map).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let mut checked = 0usize;
    for (desc, corrupted) in clop_util::fault::corrupt_text(0xAB5E, &text, 60) {
        match read_mapping(&mut corrupted.as_bytes()) {
            Ok(_) => {} // some corruptions keep the mapping well-formed
            Err(ClopError::MappingParse { line, detail }) => {
                assert!(line >= 1, "{}", desc);
                assert!(!detail.is_empty(), "{}", desc);
                checked += 1;
            }
            Err(ClopError::Io { .. }) => {}
            Err(other) => panic!("{}: unexpected variant {:?}", desc, other),
        }
    }
    // The matrix must actually exercise the failure path, not just no-ops.
    assert!(checked > 0, "no corruption produced a mapping error");
}
