//! CLTC codec throughput: columnar (v2) payload encode/decode and the
//! container-level read.
//!
//! Two event streams bracket the codec's operating range:
//!
//! * `loopy` — nested loops over small block ranges with occasional far
//!   jumps, the shape instruction traces actually have (Definition 1
//!   traces are loop-dominated). Deltas are almost all one byte, so the
//!   decoder's 8-at-a-time run tier carries the load.
//! * `random` — uniformly random block ids, the adversarial case: every
//!   delta is a fresh two-byte varint and the run tier never engages.
//!
//! The `read_container_v2` row measures the full `read_trace` path
//! (container CRC + payload decode + trace construction) on the `loopy`
//! events, so ci/bench_gate.sh can ratio-guard its overhead over the bare
//! `columnar_decode` of the same events from one run.

use clop_trace::columnar::{self, DEFAULT_BLOCK_EVENTS};
use clop_trace::trace::BlockId;
use clop_trace::{read_trace, write_trace, Trace};
use clop_util::bench::{quick, Runner};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Loop-dominated stream: short bodies, realistic trip counts, far jumps
/// between "functions".
fn loopy_events(n: usize) -> Vec<BlockId> {
    let mut next = xorshift(0xA0761D6478BD642F);
    let mut events = Vec::with_capacity(n);
    let mut base = 0u32;
    while events.len() < n {
        let body = 4 + (next() % 24) as u32;
        let trips = 8 + (next() % 120) as usize;
        'l: for _ in 0..trips {
            for b in 0..body {
                if events.len() >= n {
                    break 'l;
                }
                events.push(BlockId(base + b));
            }
        }
        base = (next() % 2000) as u32;
    }
    events
}

fn random_events(n: usize) -> Vec<BlockId> {
    let mut next = xorshift(0x9E3779B97F4A7C15);
    (0..n).map(|_| BlockId((next() % 2048) as u32)).collect()
}

fn main() {
    let r = Runner::from_args();
    let scale = if quick() { 100 } else { 1 };
    let n = 4_000_000 / scale;

    for (tag, events) in [
        ("loopy_4m", loopy_events(n)),
        ("random_4m", random_events(n)),
    ] {
        let payload =
            columnar::encode(&events, DEFAULT_BLOCK_EVENTS).expect("encode benchmark payload");
        r.bench_with_elements(
            &format!("trace/columnar_decode/{}", tag),
            Some(n as u64),
            || columnar::decode_all(&payload).expect("decode benchmark payload"),
        );
        r.bench_with_elements(
            &format!("trace/columnar_encode/{}", tag),
            Some(n as u64),
            || columnar::encode(&events, DEFAULT_BLOCK_EVENTS).expect("encode benchmark payload"),
        );
    }

    // Container-level ingest of the `loopy` events.
    let trace: Trace = loopy_events(n).into_iter().collect();
    let mut v2 = Vec::new();
    write_trace(&mut v2, &trace).expect("write v2");
    r.bench_with_elements("trace/read_container_v2/loopy_4m", Some(n as u64), || {
        read_trace(&mut v2.as_slice()).expect("read v2")
    });
}
