//! Temporal relationship graph (TRG) analysis for code layout (paper §II-C).
//!
//! Gloy and Smith's temporal-relation graph models potential cache conflicts
//! between code blocks: nodes are blocks, and an edge's weight counts the
//! times two successive occurrences of one endpoint are interleaved with at
//! least one occurrence of the other (Definition 6). The paper adapts the
//! original method — which padded functions to cache-aligned addresses — to
//! instead produce a *new order* for functions or basic blocks:
//!
//! 1. [`graph`] builds the TRG from a trimmed trace, counting interleavings
//!    only within a bounded recency window (Gloy–Smith recommend twice the
//!    cache size; sensitivity to this constant is Ablation A2),
//! 2. [`reduce`] runs Algorithm 2: code blocks are greedily assigned to
//!    `K` *code slots* along the heaviest conflict edges — an unplaced
//!    block takes the first empty slot, else the slot whose merged
//!    supernode it conflicts with least; placed blocks merge into their
//!    slot's supernode and lose their edges to other slots — and the final
//!    sequence is emitted by round-robin draining of the slot lists.
//!
//! In co-occurrence information TRG is equivalent to a single layer of the
//! affinity hierarchy (one fixed window instead of a range); the
//! transformation uses that information completely differently, which is
//! why the paper finds TRG fragile where affinity is robust.
//!
//! Panic discipline: library code returns errors or documents its
//! invariants instead of unwrapping; the lints below enforce
//! `clippy::unwrap_used`/`expect_used` on non-test code.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod graph;
pub mod incremental;
pub mod placement;
pub mod reduce;

pub use graph::Trg;
pub use incremental::{TrgDelta, TrgState};
pub use placement::{place_with_padding, PaddedPlacement, PlacedBlock};
pub use reduce::{reduce, reduce_from_stats, SlotAssignment};

use clop_trace::{BlockId, TraceStats, TrimmedTrace};

/// Configuration of the TRG optimizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrgConfig {
    /// Recency window (in code blocks) within which interleavings count.
    /// Gloy–Smith recommend a window worth twice the cache capacity.
    pub window: usize,
    /// Number of code slots `K` for the reduction.
    pub slots: usize,
}

impl TrgConfig {
    /// Derive the configuration from cache geometry, following §II-C:
    /// with uniform code-block size `S`, a block occupies
    /// `ceil(S / (A·B))` cache sets of the `C/(A·B)` available, giving
    /// `K = (C/(A·B)) / ceil(S/(A·B))` slots; the window is the doubled
    /// cache capacity in blocks, `2C / S`.
    ///
    /// `cache_bytes` is the *actual* cache size `C`; the doubling advice is
    /// applied here.
    pub fn from_cache(
        cache_bytes: u64,
        associativity: u32,
        line_bytes: u64,
        block_bytes: u64,
    ) -> Self {
        let sets = cache_bytes / (associativity as u64 * line_bytes);
        let sets_per_block = block_bytes
            .div_ceil(associativity as u64 * line_bytes)
            .max(1);
        let slots = (sets / sets_per_block).max(1) as usize;
        let window = ((2 * cache_bytes) / block_bytes.max(1)).max(1) as usize;
        TrgConfig { window, slots }
    }
}

impl Default for TrgConfig {
    /// The paper's setting: 32 KB cache (doubled), 4-way, 64 B lines,
    /// uniform 256-byte code blocks.
    fn default() -> Self {
        TrgConfig::from_cache(32 * 1024, 4, 64, 256)
    }
}

/// End-to-end TRG optimization: build the graph over the trace and reduce
/// it to a code-block order.
pub fn trg_layout(trace: &TrimmedTrace, config: TrgConfig) -> Vec<BlockId> {
    trg_layout_jobs(trace, config, 1)
}

/// [`trg_layout`] with the graph construction sharded over up to `jobs`
/// workers; the layout is bit-identical for any `jobs` value. Both stages
/// read one trace index.
pub fn trg_layout_jobs(trace: &TrimmedTrace, config: TrgConfig, jobs: usize) -> Vec<BlockId> {
    let stats = TraceStats::of(trace);
    let trg = Trg::build_indexed(trace, &stats, config.window, jobs);
    reduce_from_stats(&trg, config.slots, &stats).sequence
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_geometry() {
        let c = TrgConfig::default();
        // 32 KB / (4 × 64 B) = 128 sets; a 256 B block covers 1 set → 128
        // slots; window = 64 KB / 256 B = 256 blocks.
        assert_eq!(c.slots, 128);
        assert_eq!(c.window, 256);
    }

    #[test]
    fn from_cache_big_blocks_reduce_slots() {
        // 1 KB blocks cover 4 sets each → 32 slots.
        let c = TrgConfig::from_cache(32 * 1024, 4, 64, 1024);
        assert_eq!(c.slots, 32);
        assert_eq!(c.window, 64);
    }

    #[test]
    fn layout_is_permutation() {
        let t = TrimmedTrace::from_indices([0, 1, 2, 0, 2, 1, 3, 0, 1, 2, 3, 0]);
        let layout = trg_layout(
            &t,
            TrgConfig {
                window: 8,
                slots: 3,
            },
        );
        let mut sorted: Vec<u32> = layout.iter().map(|b| b.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_trace_layout_is_empty() {
        let t = TrimmedTrace::from_indices(std::iter::empty::<u32>());
        assert!(trg_layout(&t, TrgConfig::default()).is_empty());
    }
}
