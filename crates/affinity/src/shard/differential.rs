//! Differential suite: the run-compressed kernel against the retired
//! per-occurrence engine ([`super::reference`]). Both must report the same
//! per-pair records — threshold and both credit counts, killed pairs'
//! partial credits included — and the same core counts, so every
//! `AffinityDelta` and every fold is bit-identical.

use super::{measure_region, reference, ShardPairs};
use crate::incremental::AffinityDelta;
use clop_trace::shard::{shards, Shard};
use clop_trace::{BlockId, TraceStats, TrimmedTrace};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// A phase-structured trace over `blocks` blocks: one sweep over every
/// block, then phases that each cycle or wander over a working set of 2 to
/// `3 * w_max` blocks at a random base, with a little noise from the whole
/// universe. Ids are a scrambled bijection of the block numbers, so id
/// order and heat order disagree.
fn phased_trace(rng: &mut Rng, len: usize, blocks: u32, w_max: u32) -> TrimmedTrace {
    let mut ids: Vec<u32> = (0..blocks).map(|b| b.wrapping_mul(0x9E37_79B1)).collect();
    while ids.len() < len {
        let ws = 2 + rng.below(u64::from(3 * w_max).min(u64::from(blocks) - 1)) as u32;
        let base = rng.below(u64::from(blocks - ws + 1)) as u32;
        let phase = 20 + rng.below(400) as usize;
        let cyclic = rng.below(2) == 0;
        for j in 0..phase {
            let b = if rng.below(50) == 0 {
                rng.below(u64::from(blocks)) as u32
            } else if cyclic {
                base + (j as u32 % ws)
            } else {
                base + rng.below(u64::from(ws)) as u32
            };
            ids.push(b.wrapping_mul(0x9E37_79B1));
        }
    }
    ids.truncate(len);
    TrimmedTrace::from_indices(ids)
}

fn sorted(mut pairs: ShardPairs) -> ShardPairs {
    pairs.sort_unstable();
    pairs
}

/// The retired engine's core counts: a recount of the core events.
fn recount(stats: &TraceStats, sh: Shard) -> Vec<u32> {
    let mut counts = vec![0u32; stats.num_distinct()];
    for &r in &stats.ranked_events()[sh.core_start..sh.core_end] {
        counts[r as usize] += 1;
    }
    counts
}

/// The delta the retired engine made of one region.
fn reference_delta(seq: u64, stats: &TraceStats, w_max: u32, sh: Shard) -> AffinityDelta {
    let ids = stats.heat_order();
    let pairs = reference::measure_region(stats, w_max, sh)
        .into_iter()
        .map(|((lo, hi), rec)| ((ids[lo as usize].0, ids[hi as usize].0), rec))
        .collect();
    let occ = ids
        .iter()
        .zip(recount(stats, sh))
        .filter(|&(_, c)| c > 0)
        .map(|(id, c)| (id.0, u64::from(c)))
        .collect();
    AffinityDelta::from_records(seq, w_max, pairs, occ)
}

/// Both engines over one region: equal records, equal core counts and
/// equal deltas. Returns the number of pairs reported.
fn check_region(stats: &TraceStats, w_max: u32, sh: Shard, what: &str) -> usize {
    let (pairs, counts) = measure_region(stats, w_max, sh);
    let expect = sorted(reference::measure_region(stats, w_max, sh));
    let n = pairs.len();
    assert_eq!(sorted(pairs), expect, "{what}: pair records");
    assert_eq!(counts, recount(stats, sh), "{what}: core counts");
    assert_eq!(
        AffinityDelta::of_region(7, stats, w_max, sh),
        reference_delta(7, stats, w_max, sh),
        "{what}: delta"
    );
    n
}

fn whole(stats: &TraceStats) -> Shard {
    let n = stats.ranked_events().len();
    Shard {
        start: 0,
        core_start: 0,
        core_end: n,
        end: n,
    }
}

/// The whole trace as one region, then a three-way cut: each region over
/// the trace's shared index, and again as a standalone segment with its
/// own index.
fn check_trace(t: &TrimmedTrace, w_max: u32, what: &str) -> usize {
    let stats = TraceStats::of(t);
    let mut reported = check_region(&stats, w_max, whole(&stats), &format!("{what} whole"));
    let w = w_max as usize;
    for (i, sh) in shards(t, 3, w + 1, w).into_iter().enumerate() {
        reported += check_region(&stats, w_max, sh, &format!("{what} cut {i}"));
        let seg = TrimmedTrace::from_events(t.events()[sh.start..sh.end].iter().copied());
        let local = Shard {
            start: 0,
            core_start: sh.core_start - sh.start,
            core_end: sh.core_end - sh.start,
            end: sh.end - sh.start,
        };
        reported += check_region(
            &TraceStats::of(&seg),
            w_max,
            local,
            &format!("{what} segment {i}"),
        );
    }
    reported
}

#[test]
fn random_traces_match_the_retired_engine() {
    let mut rng = Rng::new(29);
    for blocks in [9u32, 40, 300, 1100, 2000] {
        for w_max in [2u32, 3, 6, 20, 40] {
            let t = phased_trace(&mut rng, 4 * blocks as usize + 600, blocks, w_max);
            let what = format!("blocks {blocks} w_max {w_max}");
            // Above 1,024 distinct blocks the retired engine used its hash
            // table instead of its rank triangle.
            if blocks > 1024 {
                assert!(TraceStats::of(&t).num_distinct() > 1024, "{what}");
            }
            assert!(check_trace(&t, w_max, &what) > 0, "{what}: no pair");
        }
    }
}

#[test]
fn uniform_traces_match_the_retired_engine() {
    // Little locality: most pairs die, many of them with partial credits.
    let mut rng = Rng::new(7);
    for blocks in [9u32, 60, 1500] {
        for w_max in [2u32, 6, 20] {
            let ids: Vec<u32> = (0..4000)
                .map(|_| rng.below(u64::from(blocks)) as u32)
                .collect();
            let t = TrimmedTrace::from_indices(ids);
            check_trace(&t, w_max, &format!("uniform blocks {blocks} w_max {w_max}"));
        }
    }
}

/// One constructed trace per case of the run argument, each checked
/// against the retired engine and, for the named pair, against the
/// quadratic definition.
fn check_case(ids: &[u32], w_max: u32, pair: (u32, u32), threshold: Option<u32>) {
    let t = TrimmedTrace::from_indices(ids.iter().copied());
    check_trace(&t, w_max, &format!("{ids:?}"));
    let exact =
        clop_oracle::pair_threshold(&t, BlockId(pair.0), BlockId(pair.1)).filter(|&v| v <= w_max);
    assert_eq!(exact, threshold, "oracle on {ids:?}");
    let measured = crate::PairThresholds::measure(&t, w_max);
    assert_eq!(
        measured.get(BlockId(pair.0), BlockId(pair.1)),
        threshold,
        "{ids:?}"
    );
}

#[test]
fn x_sinking_through_several_depths_makes_one_run_per_depth() {
    // Between two accesses of x = 1, a = 2 recurs with x at depths 1..4:
    // four runs of witness 2, 3, 4, 5, examined at x's return, where the
    // forward footprints 5, 4, 3, 2 cross them at 3.
    check_case(&[1, 2, 3, 2, 4, 2, 5, 2, 1, 2, 1], 6, (1, 2), Some(3));
    // At w_max 4 the last occurrence of a finds x at depth 4, out of
    // reach: it is uncovered and credited forward only.
    check_case(&[1, 2, 3, 2, 4, 2, 5, 2, 1, 2, 1], 4, (1, 2), Some(3));
}

#[test]
fn a_repeating_at_one_depth_of_x_extends_one_run() {
    // x = 1 stays at depth 2 while a = 2 and c = 3 alternate above it.
    check_case(&[1, 3, 2, 3, 2, 3, 2, 3, 2, 1, 2], 4, (1, 2), Some(3));
}

#[test]
fn a_after_x_left_the_walk_is_credited_forward_only() {
    // x = 1 sinks out of the walk, so a = 2 at position 8 records no
    // pending; x's return credits it with its forward footprint, which is
    // x's depth + 1 because it is a's newest occurrence.
    check_case(&[1, 2, 3, 4, 5, 6, 7, 8, 2, 1], 4, (1, 2), Some(2));
    // Two occurrences of a without a pending: the first is credited with
    // a forward count over the walk (footprint 3).
    check_case(&[1, 2, 3, 4, 5, 6, 7, 8, 2, 9, 2, 1], 4, (1, 2), Some(3));
    // The first one has left the window by x's return: that examination
    // kills the pair, which still reports the credits it held.
    let ids = [1, 2, 3, 4, 5, 6, 7, 2, 8, 9, 10, 2, 1];
    check_case(&ids, 4, (1, 2), None);
    let t = TrimmedTrace::from_indices(ids);
    let stats = TraceStats::of(&t);
    let (pairs, _) = measure_region(&stats, 4, whole(&stats));
    let rank = |id| stats.rank(BlockId(id)).unwrap();
    let killed = pairs.iter().find(|(k, _)| *k == (rank(1), rank(2)));
    assert_eq!(killed, Some(&((rank(1), rank(2)), (2, 1, 1))));
}

#[test]
fn runs_are_carried_across_an_x_access_that_does_not_examine_a() {
    // a = 2 gets a witness-3 run, sinks below w_max, x = 1 returns without
    // examining it, then a starts a witness-2 run: x's next access credits
    // the carried run (out of window) with its witness.
    check_case(&[1, 3, 2, 4, 5, 6, 7, 1, 2, 1], 5, (1, 2), Some(3));
    check_case(&[1, 3, 2, 4, 5, 6, 7, 1, 2, 1, 2], 5, (1, 2), Some(3));
}

#[test]
fn an_uncovered_occurrence_followed_by_a_new_run_kills_the_pair() {
    // a = 2 has a pending, then an occurrence without one (x = 1 below the
    // walk), then x returns without examining a, then a starts a new run:
    // the uncovered occurrence is out of window at x's next access.
    check_case(
        &[1, 2, 3, 4, 5, 6, 2, 7, 8, 9, 10, 1, 2, 1],
        4,
        (1, 2),
        None,
    );
}

#[test]
fn a_saturated_threshold_only_advances_the_cursor() {
    // x = 1 at position 0 reaches a = 2 only at footprint 5 = w_max; every
    // later examination of the saturated pair just counts.
    let mut ids = vec![1, 3, 4, 5, 2];
    for _ in 0..20 {
        ids.extend_from_slice(&[1, 3, 2, 4]);
    }
    check_case(&ids, 5, (1, 2), Some(5));
}
