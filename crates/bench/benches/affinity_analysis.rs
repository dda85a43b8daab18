//! Affinity analysis throughput: the efficient two-pass stack analyzer vs
//! the quadratic reference (Algorithm 1), across trace lengths and window
//! bounds. The paper's claim: the efficient method keeps whole-program
//! analysis within "a couple of times of original compilation time".

use clop_affinity::{affinity_layout, AffinityConfig, PairThresholds};
use clop_oracle::pair_threshold;
use clop_trace::{BlockId, TrimmedTrace};
use clop_util::bench::{quick, Runner};

/// A phase-structured synthetic trace over `blocks` blocks.
fn synthetic_trace(len: usize, blocks: u32) -> TrimmedTrace {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let ids: Vec<u32> = (0..len)
        .map(|i| {
            let phase = (i / 512) % 4;
            let base = (phase as u32) * (blocks / 4);
            base + (next() % (blocks / 4) as u64) as u32
        })
        .collect();
    TrimmedTrace::from_indices(ids)
}

fn main() {
    let r = Runner::from_args();
    // Smoke mode: tiny traces, every benchmark body still runs.
    let scale = if quick() { 50 } else { 1 };

    for len in [10_000usize, 50_000, 200_000] {
        let trace = synthetic_trace(len / scale, 256);
        r.bench_with_elements(
            &format!("affinity/efficient/{}", len),
            Some(trace.len() as u64),
            || PairThresholds::measure(&trace, 20),
        );
    }

    // Sharded measurement at explicit worker counts (bit-identical output
    // for any count; the speedup column is what varies).
    {
        let trace = synthetic_trace(200_000 / scale, 256);
        for jobs in [1usize, 2, 8] {
            r.bench_with_elements(
                &format!("affinity/sharded/200000/jobs{}", jobs),
                Some(trace.len() as u64),
                || PairThresholds::measure_jobs(&trace, 20, jobs),
            );
        }
    }

    // Quadratic reference, oracle-only: kept to small sizes and skipped in
    // smoke mode — `CLOP_BENCH_QUICK` CI runs should not pay tens of
    // ms/iter for a case the differential tests already cover.
    if !quick() {
        for len in [200usize, 500] {
            let trace = synthetic_trace(len, 16);
            r.bench(&format!("affinity/naive_pairs/{}", len), || {
                let mut total = 0usize;
                for x in 0..16u32 {
                    for y in (x + 1)..16u32 {
                        if pair_threshold(&trace, BlockId(x), BlockId(y)).is_some() {
                            total += 1;
                        }
                    }
                }
                total
            });
        }
    }

    let trace = synthetic_trace(50_000 / scale, 256);
    for w in [4u32, 10, 20, 40] {
        r.bench(&format!("affinity/w_max/{}", w), || {
            affinity_layout(&trace, AffinityConfig::up_to(w))
        });
    }
}
