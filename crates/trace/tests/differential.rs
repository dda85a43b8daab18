//! Differential tests: the Olken/Fenwick reuse-distance engine against the
//! naive walk-based oracle (`clop_oracle::NaiveLruStack`), over >1000
//! seeded random traces.
//!
//! The naive stack is the paper's literal stack-processing structure: the
//! distance of an access is found by walking the recency list from the
//! top. It is trivially correct and serves as the oracle here; the Fenwick
//! engine must agree *exactly* — distance by distance, including
//! first-access (infinite) handling, bounded-window (`w_max`) clipping,
//! and the resulting recency order — for every trace in every case.

use clop_oracle::{footprint_between, NaiveLruStack};
use clop_trace::footprint::FootprintCurve;
use clop_trace::{BlockId, LruStack, ReuseHistogram, TraceStats, TrimmedTrace};
use clop_util::check::{check_n, vec_of_indices};
use clop_util::Rng;

/// A random trimmed trace over `1..=max_blocks` distinct blocks with up to
/// `max_len` raw events (trimming may shorten it).
fn random_trace(rng: &mut Rng, max_len: usize, max_blocks: u32) -> (TrimmedTrace, usize) {
    let blocks = rng.gen_range_u32(0, max_blocks) + 1;
    let ids = vec_of_indices(rng, max_len, blocks);
    (TrimmedTrace::from_indices(ids), blocks as usize)
}

/// The distance sequence of a trace under any engine with an
/// `access(BlockId) -> usize` method.
macro_rules! distances {
    ($stack:expr, $trace:expr) => {{
        $trace.iter().map(|b| $stack.access(b)).collect::<Vec<_>>()
    }};
}

#[test]
fn unbounded_distances_match_naive() {
    check_n("diff/unbounded_distances", 400, |rng| {
        let (t, blocks) = random_trace(rng, 400, 64);
        let mut fast = LruStack::new(blocks);
        let mut slow = NaiveLruStack::new(blocks);
        let df = distances!(fast, t);
        let ds = distances!(slow, t);
        assert_eq!(df, ds);
        assert_eq!(fast.len(), slow.len());

        // First-access handling: the first occurrence of every block is
        // INFINITE, and the engines agree on which accesses those are.
        let mut seen = vec![false; blocks];
        for (i, b) in t.iter().enumerate() {
            if !seen[b.index()] {
                seen[b.index()] = true;
                assert_eq!(df[i], LruStack::INFINITE, "first access at {i}");
            } else {
                assert_ne!(df[i], LruStack::INFINITE, "reuse at {i}");
            }
        }

        // Identical recency order after the full trace.
        assert_eq!(fast.top(blocks), slow.top(blocks));
    });
}

#[test]
fn bounded_window_distances_match_naive() {
    check_n("diff/bounded_distances", 400, |rng| {
        let (t, blocks) = random_trace(rng, 400, 48);
        let w = rng.gen_index(40) + 1;
        let mut fast = LruStack::with_walk_bound(blocks, w);
        let mut slow = NaiveLruStack::with_walk_bound(blocks, w);
        let df = distances!(fast, t);
        let ds = distances!(slow, t);
        assert_eq!(df, ds, "w = {w}");

        // The bound clips reporting, not promotion: every finite distance
        // is within the bound, and the recency order matches the
        // unbounded engine's.
        assert!(df
            .iter()
            .all(|&d| d == LruStack::INFINITE || (1..=w).contains(&d)));
        let mut unbounded = LruStack::new(blocks);
        for b in t.iter() {
            unbounded.access(b);
        }
        assert_eq!(fast.top(blocks), unbounded.top(blocks), "w = {w}");
    });
}

#[test]
fn recency_tops_match_naive_mid_trace() {
    // `top(w)` probes interleaved with accesses: the engines must present
    // identical stack prefixes at every step, not just at the end.
    check_n("diff/mid_trace_tops", 100, |rng| {
        let (t, blocks) = random_trace(rng, 120, 16);
        let w = rng.gen_index(8) + 1;
        let mut fast = LruStack::new(blocks);
        let mut slow = NaiveLruStack::new(blocks);
        for b in t.iter() {
            assert_eq!(fast.access(b), slow.access(b));
            assert_eq!(fast.top(w), slow.top(w));
            assert_eq!(fast.depth(b), Some(0));
        }
    });
}

#[test]
fn histograms_match_naive_oracle() {
    check_n("diff/histograms", 200, |rng| {
        let (t, blocks) = random_trace(rng, 600, 96);
        let fast = ReuseHistogram::measure(&t);
        let mut slow = ReuseHistogram::default();
        let mut stack = NaiveLruStack::new(blocks);
        for b in t.iter() {
            slow.record(stack.access(b));
        }
        assert_eq!(fast, slow);
        assert_eq!(fast.total(), t.len() as u64);
        assert_eq!(fast.cold(), TraceStats::of(&t).num_distinct() as u64);
    });
}

/// Brute-force average footprint: enumerate every length-`w` window and
/// count its distinct blocks via the O(w log w) `footprint_between`.
fn brute_force_fp(t: &TrimmedTrace, w: usize) -> f64 {
    let n = t.len();
    let sum: usize = (0..=n - w)
        .map(|i| footprint_between(t, i, i + w - 1))
        .sum();
    sum as f64 / (n - w + 1) as f64
}

#[test]
fn footprint_curve_matches_brute_force() {
    check_n("diff/footprint_brute_force", 60, |rng| {
        let (t, _) = random_trace(rng, 60, 12);
        if t.is_empty() {
            return;
        }
        let mw = t.len();
        let c = FootprintCurve::measure(&t, mw);
        for w in 1..=mw {
            let expect = brute_force_fp(&t, w);
            assert!(
                (c.at(w) - expect).abs() < 1e-9,
                "fp({w}) = {} want {expect}",
                c.at(w)
            );
        }
    });
}

#[test]
fn footprint_sharding_is_bit_identical() {
    // The parallel shard merge must be *bit*-identical to the sequential
    // pass for every worker count — the miss model's golden outputs
    // depend on it.
    check_n("diff/footprint_sharding", 60, |rng| {
        let (t, _) = random_trace(rng, 300, 32);
        let mw = t.len().clamp(1, 48);
        let seq = FootprintCurve::measure_jobs(&t, mw, 1);
        for jobs in [2usize, 3, 8] {
            let par = FootprintCurve::measure_jobs(&t, mw, jobs);
            for w in 0..=mw {
                assert_eq!(
                    seq.at(w).to_bits(),
                    par.at(w).to_bits(),
                    "jobs = {jobs}, w = {w}"
                );
            }
        }
        let seq_s = FootprintCurve::measure_sampled_jobs(&t, mw, 1);
        let par_s = FootprintCurve::measure_sampled_jobs(&t, mw, 6);
        for w in 0..=mw {
            assert_eq!(
                seq_s.at(w).to_bits(),
                par_s.at(w).to_bits(),
                "sampled w = {w}"
            );
        }
    });
}

#[test]
fn compaction_stress_matches_naive() {
    // Tiny stamp space: capacity 2 forces a compaction roughly every
    // fourth access, so renumbering runs constantly. Distances must stay
    // exact throughout.
    check_n("diff/compaction_stress", 80, |rng| {
        let ids = vec_of_indices(rng, 2000, 2);
        let t = TrimmedTrace::from_indices(ids);
        let mut fast = LruStack::new(2);
        let mut slow = NaiveLruStack::new(2);
        for b in t.iter() {
            assert_eq!(fast.access(b), slow.access(b));
        }
    });
}

#[test]
fn compaction_at_capacity_four_matches_naive() {
    // Stamp space is 2 * capacity = 8: a long trace compacts thousands of
    // times, and distances and recency order must stay exact throughout.
    let mut fast = LruStack::new(4);
    let mut slow = NaiveLruStack::new(4);
    let mut state = 0x853C49E6748FEA9Bu64;
    for i in 0..10_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = BlockId((state >> 33) as u32 % 4);
        assert_eq!(fast.access(b), slow.access(b), "event {}", i);
    }
    assert_eq!(fast.top(4), slow.top(4));
}

/// A CLTC v2 container of 16-event blocks: salvage keeps a prefix cut at
/// any multiple of 16 events, so corrupted copies of a few hundred events
/// salvage to many different lengths.
fn small_block_container(ids: &[u32]) -> Vec<u8> {
    let events: Vec<BlockId> = ids.iter().copied().map(BlockId).collect();
    let payload = clop_trace::columnar::encode(&events, 16).unwrap();
    let mut buf = b"CLTC\x02".to_vec();
    let mut len = payload.len();
    while len >= 0x80 {
        buf.push((len & 0x7f) as u8 | 0x80);
        len >>= 7;
    }
    buf.push(len as u8);
    buf.extend_from_slice(&clop_util::crc32(&payload).to_le_bytes());
    buf.extend_from_slice(&payload);
    buf
}

/// Traces that survive container corruption (via the repair reader) are
/// ordinary traces: the Fenwick engine and the naive oracle must agree on
/// them exactly, just as they do on cleanly generated inputs. Corrupted
/// payloads can decode to arbitrary block ids, so salvaged traces whose
/// id space would blow up the engines' dense capacity are skipped.
#[test]
fn repaired_corrupted_traces_keep_engines_in_agreement() {
    use clop_trace::io;
    use clop_util::fault::seeded_corruptions;

    let mut exercised = 0usize;
    check_n("diff/repaired_corruption", 120, |rng| {
        let ids = vec_of_indices(rng, 250, 48);
        let buf = small_block_container(&ids);
        let seed = rng.next_u64();
        for c in seeded_corruptions(seed, &buf, 4) {
            let Ok((salvaged, report)) = io::read_trace_repaired(&mut c.data.as_slice()) else {
                continue; // header destroyed; nothing to salvage
            };
            assert_eq!(salvaged.len() as u64, report.decoded, "{}", c.description);
            let trimmed = salvaged.trim();
            let max_id = trimmed.iter().map(|b| b.0).max().unwrap_or(0);
            if max_id >= 1 << 20 {
                continue; // corrupted ids would demand a pathological capacity
            }
            let blocks = max_id as usize + 1;
            let mut fast = LruStack::new(blocks);
            let mut slow = NaiveLruStack::new(blocks);
            for b in trimmed.iter() {
                assert_eq!(fast.access(b), slow.access(b), "{}", c.description);
            }
            assert_eq!(fast.top(blocks), slow.top(blocks), "{}", c.description);
            exercised += 1;
        }
    });
    assert!(
        exercised >= 100,
        "only {} salvaged traces reached the engines",
        exercised
    );
}

#[test]
fn interleaved_clear_keeps_engines_in_lockstep() {
    check_n("diff/interleaved_clear", 60, |rng| {
        let blocks = 24usize;
        let mut fast = LruStack::new(blocks);
        let mut slow = NaiveLruStack::new(blocks);
        for _ in 0..3 {
            let ids = vec_of_indices(rng, 150, blocks as u32);
            for &i in &ids {
                if !slow.is_empty() && rng.gen_bool(0.01) {
                    fast.clear();
                    slow.clear();
                    continue;
                }
                let b = BlockId(i);
                assert_eq!(fast.access(b), slow.access(b));
            }
            assert_eq!(fast.top(blocks), slow.top(blocks));
        }
    });
}
