//! Bulk differential suite for the sharded affinity analyzer: across
//! hundreds of random traces, `measure_jobs` must be bit-identical for
//! every worker count, and must agree exactly with the quadratic naive
//! oracle `clop_oracle::pair_threshold` (thresholds beyond `w_max`
//! reported as `None`).

use clop_affinity::PairThresholds;
use clop_oracle::pair_threshold;
use clop_trace::{BlockId, TrimmedTrace};

/// A deterministic random trace: length, universe and contents all derive
/// from the seed.
fn random_trace(seed: u64, max_extra_len: u64, max_extra_blocks: u64) -> (TrimmedTrace, u32) {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let len = 20 + (next() % max_extra_len) as usize;
    let blocks = 2 + (next() % max_extra_blocks) as u32;
    let ids: Vec<u32> = (0..len).map(|_| (next() % blocks as u64) as u32).collect();
    (TrimmedTrace::from_indices(ids), blocks)
}

fn sorted_pairs(t: &PairThresholds) -> Vec<(u32, u32, u32)> {
    let mut v: Vec<(u32, u32, u32)> = t.pairs().map(|(a, b, w)| (a.0, b.0, w)).collect();
    v.sort_unstable();
    v
}

/// 300 random traces × 3 worker counts: the sharded measurement is
/// bit-identical to the serial one (same pairs, same thresholds).
#[test]
fn sharded_thresholds_identical_for_any_jobs_bulk() {
    for seed in 0..300u64 {
        let (t, _) = random_trace(seed, 150, 20);
        let w_max = [3u32, 6, 10, 20][(seed % 4) as usize];
        let reference = sorted_pairs(&PairThresholds::measure(&t, w_max));
        for jobs in [2usize, 3, 8] {
            let sharded = sorted_pairs(&PairThresholds::measure_jobs(&t, w_max, jobs));
            assert_eq!(
                reference, sharded,
                "seed={} w_max={} jobs={}",
                seed, w_max, jobs
            );
        }
    }
}

/// 40 random traces: every pair's sharded threshold equals the exact
/// quadratic definition (Algorithm 1), independently per worker count.
#[test]
fn sharded_thresholds_agree_with_naive_oracle_bulk() {
    for seed in 0..40u64 {
        let (t, blocks) = random_trace(seed.wrapping_add(1000), 120, 9);
        let w_max = [4u32, 7, 12][(seed % 3) as usize];
        for jobs in [1usize, 3, 8] {
            let eff = PairThresholds::measure_jobs(&t, w_max, jobs);
            for x in 0..blocks {
                for y in (x + 1)..blocks {
                    let exact = pair_threshold(&t, BlockId(x), BlockId(y)).filter(|&v| v <= w_max);
                    assert_eq!(
                        eff.get(BlockId(x), BlockId(y)),
                        exact,
                        "seed={} jobs={} pair=({}, {})",
                        seed,
                        jobs,
                        x,
                        y
                    );
                }
            }
        }
    }
}
