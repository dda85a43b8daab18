//! Efficient affinity analysis (the paper's stack method), exact up to the
//! window bound.
//!
//! For every pair of blocks we compute its *affinity threshold*: the
//! smallest `w ≤ w_max` at which the pair has w-window affinity
//! (Definition 3), i.e. the max over occurrences of either block of the
//! minimum footprint to the partner, where the minimum considers both the
//! nearest partner occurrence *before* (backward witness) and the first one
//! *after* (forward witness).
//!
//! The analysis is a single LRU-stack pass over the trace, following the
//! paper's §II-B recipe ("we run a stack simulation of the trace; at each
//! step we see all basic blocks that occur in a w-window with the accessed
//! block"). It keeps only the top of the stack, the *walk*: the
//! `w_max + 1` most recent distinct blocks with their last-access
//! positions, as two small arrays promoted in place (truncated LRU, which
//! is exact for the top entries; see [`crate::shard`]). Only partners
//! inside the walk can resolve or witness anything within the bound, so
//! all pair work is confined to `w_max - 1` partners per access:
//!
//! * an access of `a` credits each walk partner `x`'s uncovered
//!   occurrences, either with the forward footprint `fp<occurrence, now>`
//!   (entries of the walk at or after the occurrence) when the occurrence
//!   is still inside the window, or with its recorded backward witness
//!   when the window has already outgrown the bound (a window only grows,
//!   so the forward witness is infinite forever);
//! * the access itself is recorded as a *pending* on every pair it has a
//!   finite backward witness with (partner depth + 1), and in a per-block
//!   occurrence queue that later partner accesses resolve lazily.
//!
//! Occurrences whose partner never comes within the window are credited
//! nowhere; pairs survive only when the per-direction credit count equals
//! the block's trace-wide occurrence count (Definition 3 quantifies over
//! *every* occurrence). This counting formulation makes per-shard results
//! mergeable: [`PairThresholds::measure_jobs`] runs the engine of
//! [`crate::shard`] over one region, or over several in parallel.
//!
//! Cost is O(N·w_max) stack work plus one credit per (occurrence,
//! co-resident pair) — the paper's O(W·N·B) bound with the dense `B`
//! factor replaced by actual co-residence counts.

use crate::incremental::{AffinityDelta, AffinityState};
use crate::shard::measure_region;
use clop_trace::shard::shards_adaptive;
use clop_trace::{BlockId, TraceStats, TrimmedTrace};
use clop_util::pool::parallel_map;
use clop_util::FxHashMap;

/// Pairwise affinity thresholds up to a window bound.
#[derive(Clone, Debug)]
pub struct PairThresholds {
    map: FxHashMap<(u32, u32), u32>,
    w_max: u32,
}

impl PairThresholds {
    /// Run the one-pass analysis over a trimmed trace.
    pub fn measure(trace: &TrimmedTrace, w_max: u32) -> Self {
        Self::measure_jobs(trace, w_max, 1)
    }

    /// [`PairThresholds::measure`] with the trace split into adaptively
    /// sized shards (at most `jobs`) processed on the worker pool. The
    /// result is bit-identical for any `jobs` value (window-overlap
    /// sharding with an order-independent merge; see [`crate::shard`]).
    ///
    /// The multi-shard path is the incremental fold: each shard produces an
    /// [`AffinityDelta`], the deltas are absorbed into an [`AffinityState`],
    /// and `finalize` applies the Definition 3 coverage filter — the same
    /// machinery the streaming path uses. A single region (the sequential
    /// case, and any trace too small for adaptive sharding to split) applies
    /// the coverage filter directly against the trace index's occurrence
    /// counts, skipping the delta round trip; the fold's equivalence to this
    /// path is pinned by the property suites. Either way the trace is
    /// indexed once and every region reads the one index.
    pub fn measure_jobs(trace: &TrimmedTrace, w_max: u32, jobs: usize) -> Self {
        Self::measure_indexed(trace, &TraceStats::of(trace), w_max, jobs)
    }

    /// [`PairThresholds::measure_jobs`] over the trace's index, built once
    /// by a caller that reads it again (`analyze_jobs`).
    pub(crate) fn measure_indexed(
        trace: &TrimmedTrace,
        stats: &TraceStats,
        w_max: u32,
        jobs: usize,
    ) -> Self {
        let w_max = w_max.max(2);
        let regions = shards_adaptive(trace, jobs, w_max as usize + 1, w_max as usize);
        if let [sh] = regions.as_slice() {
            let (ids, counts) = (stats.heat_order(), stats.heat_counts());
            let mut map = FxHashMap::default();
            for ((lo, hi), (thr, fin_lo, fin_hi)) in measure_region(stats, w_max, *sh) {
                let (lo, hi) = (lo as usize, hi as usize);
                if thr >= 2 && fin_lo == counts[lo] && fin_hi == counts[hi] {
                    map.insert((ids[lo].0, ids[hi].0), thr);
                }
            }
            return PairThresholds { map, w_max };
        }
        let deltas = parallel_map(jobs, regions, |i, sh| {
            AffinityDelta::of_region(i as u64, stats, w_max, sh)
        });
        let mut state = AffinityState::new(w_max);
        for d in &deltas {
            // Cannot fail: the deltas share `w_max` and carry distinct seqs.
            let _ = state.absorb(d);
        }
        state.finalize()
    }

    /// Assemble from a measured map (crate-internal: the incremental fold
    /// builds the map).
    pub(crate) fn from_parts(map: FxHashMap<(u32, u32), u32>, w_max: u32) -> Self {
        PairThresholds { map, w_max }
    }

    /// The analysis window bound.
    pub fn w_max(&self) -> u32 {
        self.w_max
    }

    /// Threshold for a pair, or `None` when the pair has no affinity within
    /// the window bound.
    pub fn get(&self, x: BlockId, y: BlockId) -> Option<u32> {
        if x == y {
            return None;
        }
        self.map.get(&(x.0.min(y.0), x.0.max(y.0))).copied()
    }

    /// True iff the pair has w-window affinity for the given `w`.
    pub fn has_affinity(&self, x: BlockId, y: BlockId, w: u32) -> bool {
        self.get(x, y).is_some_and(|t| t <= w)
    }

    /// All surviving pairs with their thresholds.
    pub fn pairs(&self) -> impl Iterator<Item = (BlockId, BlockId, u32)> + '_ {
        self.map
            .iter()
            .map(|(&(x, y), &t)| (BlockId(x), BlockId(y), t))
    }

    /// Number of surviving pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no pair has affinity within the bound.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_oracle::pair_threshold;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    fn fig1() -> TrimmedTrace {
        TrimmedTrace::from_indices([1, 4, 2, 4, 2, 3, 5, 1, 4])
    }

    #[test]
    fn figure1_thresholds_match_naive() {
        let t = fig1();
        let eff = PairThresholds::measure(&t, 8);
        for x in 1..=5u32 {
            for y in (x + 1)..=5u32 {
                let exact = pair_threshold(&t, b(x), b(y));
                assert_eq!(eff.get(b(x), b(y)), exact, "pair ({}, {})", x, y);
            }
        }
    }

    #[test]
    fn random_traces_match_naive_exactly() {
        // Pseudo-random traces over 9 blocks: the stack analyzer must agree
        // with the exact quadratic definition for every pair, with
        // thresholds beyond w_max reported as None.
        for seed in 0..6u64 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let ids: Vec<u32> = (0..300).map(|_| (next() % 9) as u32).collect();
            let t = TrimmedTrace::from_indices(ids);
            let w_max = 6u32;
            let eff = PairThresholds::measure(&t, w_max);
            for x in 0..9u32 {
                for y in (x + 1)..9u32 {
                    let exact = pair_threshold(&t, b(x), b(y)).filter(|&v| v <= w_max);
                    assert_eq!(
                        eff.get(b(x), b(y)),
                        exact,
                        "seed {} pair ({}, {})",
                        seed,
                        x,
                        y
                    );
                }
            }
        }
    }

    #[test]
    fn adjacent_alternation_is_threshold_two() {
        let t = TrimmedTrace::from_indices([7, 8, 7, 8, 7, 8]);
        let eff = PairThresholds::measure(&t, 4);
        assert_eq!(eff.get(b(7), b(8)), Some(2));
    }

    #[test]
    fn unrelated_blocks_have_no_threshold() {
        let t = TrimmedTrace::from_indices([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5]);
        let eff = PairThresholds::measure(&t, 3);
        assert_eq!(eff.get(b(0), b(5)), None);
    }

    #[test]
    fn pair_killed_by_uncovered_occurrence() {
        // 1 and 2 adjacent once, but 1 re-occurs far from any 2.
        let t = TrimmedTrace::from_indices([1, 2, 3, 4, 5, 6, 1, 3, 4, 5, 6, 3]);
        let eff = PairThresholds::measure(&t, 4);
        assert_eq!(eff.get(b(1), b(2)), None);
    }

    #[test]
    fn shadowed_forward_witness_is_found() {
        // x a x y: occurrence x@0's only witness is forward to y@3 with
        // footprint 3, shadowed by x@2 on the stack. The exact analyzer
        // must still credit it.
        let t = TrimmedTrace::from_indices([0, 1, 0, 2]);
        let eff = PairThresholds::measure(&t, 5);
        assert_eq!(eff.get(b(0), b(2)), pair_threshold(&t, b(0), b(2)));
        assert_eq!(eff.get(b(0), b(2)), Some(3));
    }

    #[test]
    fn w_max_caps_thresholds() {
        let t = fig1();
        let eff = PairThresholds::measure(&t, 3);
        assert_eq!(eff.get(b(2), b(5)), None); // exact threshold 4
        assert_eq!(eff.get(b(2), b(4)), None); // exact threshold 5
        assert_eq!(eff.get(b(3), b(5)), Some(2));
        assert_eq!(eff.get(b(1), b(4)), Some(3));
    }

    #[test]
    fn self_pair_is_none() {
        let eff = PairThresholds::measure(&fig1(), 5);
        assert_eq!(eff.get(b(1), b(1)), None);
    }

    #[test]
    fn empty_trace_has_no_pairs() {
        let t = TrimmedTrace::from_indices(std::iter::empty::<u32>());
        let eff = PairThresholds::measure(&t, 5);
        assert!(eff.is_empty());
    }

    #[test]
    fn get_is_symmetric() {
        let eff = PairThresholds::measure(&fig1(), 5);
        for x in 1..=5u32 {
            for y in 1..=5u32 {
                assert_eq!(eff.get(b(x), b(y)), eff.get(b(y), b(x)));
            }
        }
    }

    #[test]
    fn pairs_iterator_consistent_with_get() {
        let eff = PairThresholds::measure(&fig1(), 5);
        for (x, y, thr) in eff.pairs() {
            assert_eq!(eff.get(x, y), Some(thr));
        }
        assert_eq!(eff.pairs().count(), eff.len());
    }

    #[test]
    fn long_periodic_trace_scales() {
        // Sanity: 100k events, 64 blocks, completes quickly and finds the
        // strictly alternating hot pair.
        let ids: Vec<u32> = (0..100_000)
            .map(|i| {
                if i % 4 < 2 {
                    (i % 2) as u32
                } else {
                    2 + ((i / 4) % 62) as u32
                }
            })
            .collect();
        let t = TrimmedTrace::from_indices(ids);
        let eff = PairThresholds::measure(&t, 8);
        assert!(eff.get(b(0), b(1)).is_some());
    }
}
