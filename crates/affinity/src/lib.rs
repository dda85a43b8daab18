//! w-window reference affinity for whole-program code layout (paper §II-B).
//!
//! Reference affinity finds code blocks that are used together in time and
//! places them together in memory. The paper extends Zhong et al.'s model
//! with the *w-window* variant: two blocks `x`, `y` have **w-window
//! affinity** when *every* occurrence of `x` has an occurrence of `y` within
//! a window of footprint at most `w`, and vice versa (Definition 3). As `w`
//! grows from 1 to ∞ the induced partitions coarsen monotonically, forming
//! the **affinity hierarchy** (Definition 5); the optimized code order is a
//! bottom-up traversal of that hierarchy.
//!
//! [`analyzer`] computes pairwise affinity with the efficient single-pass
//! stack method the paper describes in §II-B ("we run a stack simulation of
//! the trace; at each step we see all basic blocks that occur in a w-window
//! with the accessed block"), O(W·N) per trace with O(1) amortized work
//! per partner interaction (pendings are kept per run of equal witness,
//! not per occurrence), run shard-parallel by [`shard`]. It is exact up to
//! the window bound: every pair threshold
//! `≤ w_max` equals the literal quadratic reading of Definition 3, the
//! `clop_oracle::pair_threshold` test oracle (tested in `analyzer.rs` and
//! `tests/shard_identity.rs`).
//!
//! [`hierarchy`] turns pairwise thresholds into the level-by-level
//! partition with the paper's "lower-level group takes precedence" rule and
//! emits the final layout sequence.
//!
//! Panic discipline: library code returns errors or documents its
//! invariants instead of unwrapping; the lints below enforce
//! `clippy::unwrap_used`/`expect_used` on non-test code.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analyzer;
pub mod hierarchy;
pub mod incremental;
pub mod shard;

pub use analyzer::PairThresholds;
pub use hierarchy::{AffinityHierarchy, AffinityPartition};
pub use incremental::{AffinityDelta, AffinityState};

use clop_trace::{BlockId, TraceStats, TrimmedTrace};

/// Configuration of the affinity model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AffinityConfig {
    /// Smallest window examined. The paper uses 2 (a window of footprint 1
    /// can only hold one block, so w = 1 always yields singletons).
    pub w_min: u32,
    /// Largest window examined. The paper chooses w between 2 and 20 "to
    /// improve efficiency"; window sensitivity is Ablation A1.
    pub w_max: u32,
}

impl Default for AffinityConfig {
    fn default() -> Self {
        AffinityConfig {
            w_min: 2,
            w_max: 20,
        }
    }
}

impl AffinityConfig {
    /// A configuration spanning `2..=w_max`.
    pub fn up_to(w_max: u32) -> Self {
        AffinityConfig { w_min: 2, w_max }
    }
}

/// End-to-end affinity analysis: compute pairwise thresholds with the
/// efficient analyzer, build the hierarchy, and return it.
pub fn analyze(trace: &TrimmedTrace, config: AffinityConfig) -> AffinityHierarchy {
    analyze_jobs(trace, config, 1)
}

/// [`analyze`] with the threshold measurement sharded over up to `jobs`
/// workers. The hierarchy is bit-identical for any `jobs` value. Both
/// stages read one trace index.
pub fn analyze_jobs(
    trace: &TrimmedTrace,
    config: AffinityConfig,
    jobs: usize,
) -> AffinityHierarchy {
    let stats = TraceStats::of(trace);
    let thresholds = PairThresholds::measure_indexed(trace, &stats, config.w_max, jobs);
    AffinityHierarchy::build_from_stats(&stats, &thresholds, config)
}

/// Convenience: the affinity-optimized code-block order for a trace —
/// analyze and take the bottom-up traversal of the hierarchy.
pub fn affinity_layout(trace: &TrimmedTrace, config: AffinityConfig) -> Vec<BlockId> {
    analyze(trace, config).layout()
}

/// [`affinity_layout`] with the measurement sharded over up to `jobs`
/// workers; bit-identical for any `jobs` value.
pub fn affinity_layout_jobs(
    trace: &TrimmedTrace,
    config: AffinityConfig,
    jobs: usize,
) -> Vec<BlockId> {
    analyze_jobs(trace, config, jobs).layout()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1: trace B1 B4 B2 B4 B2 B3 B5 B1 B4 must produce
    /// the hierarchy of Figure 1(b) and the output sequence B1 B4 B2 B3 B5.
    #[test]
    fn paper_figure1() {
        let trace = TrimmedTrace::from_indices([1, 4, 2, 4, 2, 3, 5, 1, 4]);
        let h = analyze(&trace, AffinityConfig::up_to(5));

        let groups_at = |w: u32| -> Vec<Vec<u32>> {
            h.partition_at(w)
                .expect("level exists")
                .groups()
                .iter()
                .map(|g| {
                    let mut v: Vec<u32> = g.iter().map(|b| b.0).collect();
                    v.sort_unstable();
                    v
                })
                .collect()
        };

        // w = 2: (B1) (B4) (B2) (B3, B5)
        let mut w2 = groups_at(2);
        w2.sort();
        assert_eq!(w2, vec![vec![1], vec![2], vec![3, 5], vec![4]]);

        // w = 3: (B1, B4) (B2) (B3, B5)
        let mut w3 = groups_at(3);
        w3.sort();
        assert_eq!(w3, vec![vec![1, 4], vec![2], vec![3, 5]]);

        // w = 4: (B1, B4) (B2, B3, B5)
        let mut w4 = groups_at(4);
        w4.sort();
        assert_eq!(w4, vec![vec![1, 4], vec![2, 3, 5]]);

        // w = 5: all blocks in one group
        let w5 = groups_at(5);
        assert_eq!(w5.len(), 1);
        assert_eq!(w5[0], vec![1, 2, 3, 4, 5]);

        // Output sequence: B1 B4 B2 B3 B5.
        let layout: Vec<u32> = h.layout().iter().map(|b| b.0).collect();
        assert_eq!(layout, vec![1, 4, 2, 3, 5]);
    }

    #[test]
    fn layout_is_permutation_of_blocks() {
        let trace = TrimmedTrace::from_indices([0, 3, 1, 3, 0, 2, 1, 2, 0, 3]);
        let layout = affinity_layout(&trace, AffinityConfig::default());
        let mut sorted: Vec<u32> = layout.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_trace_yields_empty_layout() {
        let trace = TrimmedTrace::from_indices(std::iter::empty::<u32>());
        assert!(affinity_layout(&trace, AffinityConfig::default()).is_empty());
    }

    #[test]
    fn single_block_trace() {
        let trace = TrimmedTrace::from_indices([7]);
        let layout = affinity_layout(&trace, AffinityConfig::default());
        assert_eq!(layout, vec![BlockId(7)]);
    }

    #[test]
    fn strongly_affine_pairs_end_up_adjacent() {
        // Blocks 10/11 always adjacent, 20/21 always adjacent, separated by
        // varying filler: each pair must be contiguous in the layout.
        let mut ids = Vec::new();
        for i in 0..40u32 {
            ids.extend_from_slice(&[10, 11, 30 + (i % 5), 20, 21, 40 + (i % 7)]);
        }
        let trace = TrimmedTrace::from_indices(ids);
        let layout = affinity_layout(&trace, AffinityConfig::default());
        let pos = |x: u32| layout.iter().position(|b| b.0 == x).unwrap();
        assert_eq!((pos(10) as i64 - pos(11) as i64).abs(), 1, "{:?}", layout);
        assert_eq!((pos(20) as i64 - pos(21) as i64).abs(), 1, "{:?}", layout);
    }
}
