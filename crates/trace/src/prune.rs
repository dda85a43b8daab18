//! Trace pruning: keep only the hottest blocks.
//!
//! Basic-block traces can be enormous (the paper notes an 8 GB trace for
//! 403.gcc even on the *test* input), so the system "prunes the trace by
//! selecting the 10,000 most frequently executed basic blocks and keeping
//! only those occurrences in the trace" (§II-F), a hot-code selection in the
//! spirit of Hashemi et al.'s popular-procedure selection. Pruning typically
//! retains over 90% of the original occurrences.
//!
//! The hottest blocks are the lowest heat ranks of the trace index
//! ([`TraceStats`]), so pruning is one filter over its ranked events.

use crate::stats::TraceStats;
use crate::trace::{BlockId, TrimmedTrace};

/// Outcome of a pruning pass.
#[derive(Clone, Debug, PartialEq)]
pub struct PruneReport {
    /// The pruned (and re-trimmed) trace.
    pub trace: TrimmedTrace,
    /// Ids of the blocks that were kept, hottest first.
    pub kept: Vec<BlockId>,
    /// Fraction of original occurrences retained, in `[0, 1]`.
    pub retention: f64,
    /// Original trace length.
    pub original_len: usize,
}

/// Hot-block trace pruner.
#[derive(Clone, Copy, Debug)]
pub struct Pruner {
    /// Keep at most this many distinct blocks (the paper uses 10,000).
    pub max_blocks: usize,
}

impl Default for Pruner {
    fn default() -> Self {
        Pruner { max_blocks: 10_000 }
    }
}

impl Pruner {
    /// A pruner keeping the `max_blocks` most frequently executed blocks.
    pub fn new(max_blocks: usize) -> Self {
        Pruner { max_blocks }
    }

    /// Prune `trace`, keeping only occurrences of the hottest blocks, then
    /// re-trim (dropping a block can create new adjacent duplicates).
    ///
    /// The kept blocks are the first `max_blocks` heat ranks of the trace
    /// index: ties in occurrence counts break toward the smaller block id,
    /// so the result is deterministic.
    pub fn prune(&self, trace: &TrimmedTrace) -> PruneReport {
        let stats = TraceStats::of(trace);
        let keep = self.max_blocks.min(stats.num_distinct());
        let ids = stats.heat_order();
        let kept_occurrences: u64 = stats.heat_counts()[..keep].iter().sum();
        let pruned = if keep == ids.len() {
            trace.clone() // every block kept: the trace is already trimmed
        } else {
            TrimmedTrace::from_events(
                stats
                    .ranked_events()
                    .iter()
                    .filter(|&&r| (r as usize) < keep)
                    .map(|&r| ids[r as usize]),
            )
        };
        let original_len = trace.len();
        let retention = if original_len == 0 {
            1.0
        } else {
            kept_occurrences as f64 / original_len as f64
        };
        PruneReport {
            trace: pruned,
            kept: ids[..keep].to_vec(),
            retention,
            original_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    #[test]
    fn keeps_hottest_blocks() {
        // Block 1 occurs 4×, block 2 occurs 3×, block 3 occurs 1×.
        let t = TrimmedTrace::from_indices([1, 2, 1, 2, 1, 3, 2, 1]);
        let r = Pruner::new(2).prune(&t);
        assert_eq!(r.kept, vec![b(1), b(2)]);
        assert_eq!(
            r.trace.events(),
            &[b(1), b(2), b(1), b(2), b(1), b(2), b(1)]
        );
    }

    #[test]
    fn retention_fraction() {
        let t = TrimmedTrace::from_indices([1, 2, 1, 2, 1, 3, 2, 1]);
        let r = Pruner::new(2).prune(&t);
        assert!((r.retention - 7.0 / 8.0).abs() < 1e-12);
        assert_eq!(r.original_len, 8);
    }

    #[test]
    fn pruning_retrims() {
        // Dropping block 9 makes the two 1s adjacent; they must collapse.
        let t = TrimmedTrace::from_indices([1, 9, 1, 2]);
        let r = Pruner::new(2).prune(&t);
        assert_eq!(r.trace.events(), &[b(1), b(2)]);
    }

    #[test]
    fn keep_all_when_budget_large() {
        let t = TrimmedTrace::from_indices([5, 6, 7]);
        let r = Pruner::new(100).prune(&t);
        assert_eq!(r.trace, t);
        assert!((r.retention - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ties_break_to_smaller_id() {
        let t = TrimmedTrace::from_indices([4, 2, 4, 2]);
        let r = Pruner::new(1).prune(&t);
        assert_eq!(r.kept, vec![b(2)]);
    }

    #[test]
    fn empty_trace() {
        let t = TrimmedTrace::from_indices(std::iter::empty::<u32>());
        let r = Pruner::default().prune(&t);
        assert!(r.trace.is_empty());
        assert!((r.retention - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_budget_is_paper_value() {
        assert_eq!(Pruner::default().max_blocks, 10_000);
    }

    #[test]
    fn skewed_trace_retains_over_90_percent() {
        // A Zipf-ish trace: a handful of hot blocks dominate, mirroring the
        // paper's ">90% retained" observation.
        let mut ids = Vec::new();
        for i in 0..10_000u32 {
            let block = match i % 100 {
                0..=93 => i % 8,      // 94%: 8 hot blocks
                _ => 100 + (i % 500), // 6%: long cold tail
            };
            ids.push(block);
        }
        let t = TrimmedTrace::from_indices(ids);
        let r = Pruner::new(8).prune(&t);
        assert!(r.retention > 0.9, "retention = {}", r.retention);
    }
}
