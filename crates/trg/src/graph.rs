//! TRG construction (Definition 6).
//!
//! On each access of block `A` that *reuses* `A` within the recency window,
//! every distinct block accessed since `A`'s previous occurrence conflicts
//! with `A` once: those are exactly the blocks above `A` on the LRU stack.
//! Reuses beyond the window are ignored — blocks that far apart in time do
//! not contend for the same cache residency (the Gloy–Smith windowing; the
//! paper notes the original uses a stack of size 2C).
//!
//! Because the window gates which reuses count, the construction only ever
//! needs the top `min(window, B)` stack entries. [`Trg::build_jobs`]
//! maintains exactly that prefix as a flat array of *heat ranks* — the
//! trace index's renumbering of blocks, hottest first
//! ([`clop_trace::TraceStats`]), so the dense edge matrix clusters hot
//! pairs and every table is sized by the distinct-block count, never by
//! the largest id: a membership bitset answers "in window?" in O(1), a
//! found block's walk index *is* its reuse distance, and the blocks above
//! it — `walk[0..d]` — are the conflict partners, accumulated into a
//! triangular `u32` matrix when the block universe is small (the common
//! case) or a hash map otherwise. Block ids appear only as output keys.
//! One position scan plus one `copy_within` per access replaces the
//! Fenwick-tree promotion and the per-edge list walk.
//!
//! A [`Trg`] is just its edges. The first-appearance order that the
//! reduction needs for tie-breaks and leftovers comes from the trace index
//! (or its fold, [`clop_trace::StatsState`]), not from the graph.
//!
//! The builder is sharded with [`clop_trace::shard::shards`]: each worker
//! replays a `window + 1`-deep distinct-block prefix to reconstruct the
//! exact top-of-stack state at its core boundary (the warm-up is *sorted
//! into place* from last-access positions instead of replayed step by
//! step), and attributes edge increments only to core events. A core reuse
//! with global distance `d < window` always has its previous occurrence
//! inside the shard: otherwise the overlap's `>= window + 1` distinct
//! blocks — at least `window` of them different from the reused block —
//! would sit between the two occurrences, forcing `d >= window`. And a
//! shard never over-counts, because the blocks seen since `start` ordered
//! by last access are a *prefix* of the global LRU stack (everything older
//! sits below them), so a block found in the shard walk is at its exact
//! global depth. Every increment therefore lands in exactly one shard, and
//! summing per-shard maps reproduces the sequential graph bit for bit, for
//! any shard count.

use crate::incremental::{TrgDelta, TrgState};
use clop_trace::shard::{shards_adaptive, Shard};
use clop_trace::{BlockId, TraceStats, TrimmedTrace};
use clop_util::pool::parallel_map;
use clop_util::FxHashMap;

/// Densest block universe for which per-shard edge accumulation uses a
/// triangular matrix instead of a hash map (≈ 2 MB of `u32` at the limit).
const DENSE_NODE_MAX: usize = 1024;

/// A temporal relationship graph: weighted undirected conflict edges over
/// code blocks.
#[derive(Clone, Debug, Default)]
pub struct Trg {
    edges: FxHashMap<(u32, u32), u64>,
}

impl Trg {
    /// Build the TRG of a trimmed trace with the given recency window
    /// (in code blocks).
    pub fn build(trace: &TrimmedTrace, window: usize) -> Self {
        Self::build_jobs(trace, window, 1)
    }

    /// [`Trg::build`] with the trace split into up to `jobs` shards
    /// processed on the worker pool. The result is bit-identical for any
    /// `jobs` value (window-overlap sharding with a sum merge; see the
    /// module docs).
    ///
    /// The trace is indexed once and every region reads that index. The
    /// multi-shard path is expressed as the incremental fold: per-shard
    /// [`TrgDelta`]s absorbed into a [`TrgState`], so the streaming and
    /// batch paths share one merge. A single region (the sequential case,
    /// and any trace too small for adaptive sharding to split) skips the
    /// delta round trip — the region's edge map *is* the graph, and the
    /// fold's equivalence to this path is pinned by the property suites,
    /// not by routing every build through it.
    pub fn build_jobs(trace: &TrimmedTrace, window: usize, jobs: usize) -> Self {
        Self::build_indexed(trace, &TraceStats::of(trace), window, jobs)
    }

    /// [`Trg::build_jobs`] over the trace's index, built once by a caller
    /// that reads it again (`trg_layout_jobs`).
    pub(crate) fn build_indexed(
        trace: &TrimmedTrace,
        stats: &TraceStats,
        window: usize,
        jobs: usize,
    ) -> Self {
        if stats.is_empty() {
            return Trg::default();
        }
        let regions = shards_adaptive(trace, jobs, window.saturating_add(1), 0);
        if let [sh] = regions.as_slice() {
            return Trg::from_parts(build_region(stats, window, *sh));
        }
        let deltas = parallel_map(jobs, regions, |i, sh| {
            TrgDelta::of_region(i as u64, stats, window, sh)
        });
        let mut state = TrgState::new(window);
        for d in &deltas {
            // Cannot fail: the deltas share `window` and carry distinct seqs.
            let _ = state.absorb(d);
        }
        state.into_graph()
    }

    /// Assemble a graph from already-merged edges (the incremental fold's
    /// [`TrgState::finalize`]).
    pub(crate) fn from_parts(edges: FxHashMap<(u32, u32), u64>) -> Self {
        Trg { edges }
    }

    /// Build directly from explicit edges (used by tests mirroring the
    /// paper's Figure 2, where the graph is given, not derived).
    pub fn from_edges(edges: &[(u32, u32, u64)]) -> Self {
        let mut map = FxHashMap::default();
        for &(x, y, w) in edges {
            assert_ne!(x, y, "self edges are meaningless in a TRG");
            *map.entry((x.min(y), x.max(y))).or_insert(0) += w;
        }
        Trg { edges: map }
    }

    /// Edge weight between two blocks (0 when absent).
    pub fn weight(&self, x: BlockId, y: BlockId) -> u64 {
        if x == y {
            return 0;
        }
        self.edges
            .get(&(x.0.min(y.0), x.0.max(y.0)))
            .copied()
            .unwrap_or(0)
    }

    /// All edges `(x, y, weight)` with `x < y`.
    pub fn edges(&self) -> impl Iterator<Item = (BlockId, BlockId, u64)> + '_ {
        self.edges
            .iter()
            .map(|(&(x, y), &w)| (BlockId(x), BlockId(y), w))
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// One shard's edge contributions, keyed by block-id pairs `(min, max)`.
///
/// `sh` indexes `stats.ranked_events()`. Maintains the top-`min(window,
/// nd)` LRU prefix over heat ranks: `walk` is MRU-first, `in_walk` is its
/// membership bitset. A found block's index is its reuse distance `d`; the
/// conflict partners are `walk[0..d]`, credited *before* the rotation that
/// promotes the block. Ranks only steer internal indexing; outputs are
/// keyed by block ids, which is what makes a delta measured with
/// *segment-local* ranks identical to one measured with global ranks.
pub(crate) fn build_region(
    stats: &TraceStats,
    window: usize,
    sh: Shard,
) -> FxHashMap<(u32, u32), u64> {
    let ev = stats.ranked_events();
    let by_heat = stats.heat_order();
    let nd = by_heat.len();
    let wcap = window.min(nd);
    let mut map: FxHashMap<(u32, u32), u64> = FxHashMap::default();
    if wcap == 0 {
        return map;
    }

    // Warm-up by sort: the replayed walk at `core_start` is the distinct
    // blocks of `[start, core_start)` ordered by last access, newest
    // first, truncated to capacity — reconstruct it directly from
    // last-access positions in O(overlap + distinct·log) instead of
    // rotating the walk once per overlap event.
    let mut last = vec![u32::MAX; nd];
    let mut touched: Vec<u32> = Vec::new();
    for (t, &r) in ev.iter().enumerate().take(sh.core_start).skip(sh.start) {
        let r = r as usize;
        if last[r] == u32::MAX {
            touched.push(r as u32);
        }
        last[r] = t as u32;
    }
    touched.sort_unstable_by_key(|&r| std::cmp::Reverse(last[r as usize]));
    touched.truncate(wcap);
    let mut walk: Vec<u32> = touched;
    let mut in_walk = vec![false; nd];
    for &r in &walk {
        in_walk[r as usize] = true;
    }

    let dense = nd <= DENSE_NODE_MAX;
    let tri = |ra: usize, rx: usize| {
        let (lo, hi) = if ra < rx { (ra, rx) } else { (rx, ra) };
        lo * nd - lo * (lo + 1) / 2 + hi
    };
    let mut mat: Vec<u32> = if dense {
        vec![0; nd * (nd + 1) / 2]
    } else {
        Vec::new()
    };

    for &ra in &ev[sh.core_start..sh.core_end] {
        if in_walk[ra as usize] {
            // Reuse within the window: the walk index is the reuse
            // distance (the walk is an exact LRU-stack prefix, and a block
            // truncated out of it would have distance >= wcap, hence
            // >= window or a first access).
            if let Some(d) = walk.iter().position(|&r| r == ra) {
                if d > 0 {
                    if dense {
                        let a = ra as usize;
                        for &rx in &walk[..d] {
                            mat[tri(a, rx as usize)] += 1;
                        }
                    } else {
                        let ia = by_heat[ra as usize].0;
                        for &rx in &walk[..d] {
                            let ix = by_heat[rx as usize].0;
                            *map.entry((ia.min(ix), ia.max(ix))).or_insert(0) += 1;
                        }
                    }
                    walk.copy_within(0..d, 1);
                    walk[0] = ra;
                }
            }
        } else {
            if walk.len() < wcap {
                walk.push(0);
            } else if let Some(&evicted) = walk.last() {
                in_walk[evicted as usize] = false;
            }
            let l = walk.len();
            walk.copy_within(0..l - 1, 1);
            walk[0] = ra;
            in_walk[ra as usize] = true;
        }
    }

    if dense {
        let mut idx = 0usize;
        for lo in 0..nd {
            for hi in lo..nd {
                let w = mat[idx];
                idx += 1;
                if w > 0 {
                    let (a, b) = (by_heat[lo].0, by_heat[hi].0);
                    map.insert((a.min(b), a.max(b)), u64::from(w));
                }
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_trace::LruStack;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// The original Olken/Fenwick-stack builder, kept as the differential
    /// oracle for the flat-walk shard engine.
    fn build_oracle(trace: &TrimmedTrace, window: usize) -> Trg {
        let cap = trace
            .events()
            .iter()
            .map(|x| x.index() + 1)
            .max()
            .unwrap_or(0);
        let mut stack = LruStack::new(cap);
        let mut edges: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for &a in trace.events() {
            let d = stack.access(a);
            if d != LruStack::INFINITE && d > 0 && d < window {
                let mut idx = 0usize;
                stack.for_each_top(d + 1, |x| {
                    if idx > 0 {
                        let key = (a.0.min(x.0), a.0.max(x.0));
                        *edges.entry(key).or_insert(0) += 1;
                    }
                    idx += 1;
                });
            }
        }
        Trg { edges }
    }

    fn random_trace(seed: u64, len: usize, blocks: u32) -> TrimmedTrace {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        TrimmedTrace::from_indices((0..len).map(|_| (next() % blocks as u64) as u32))
    }

    fn sorted_edges(g: &Trg) -> Vec<(u32, u32, u64)> {
        let mut v: Vec<(u32, u32, u64)> = g.edges().map(|(x, y, w)| (x.0, y.0, w)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn alternating_blocks_conflict_per_reuse() {
        // a b a b a: each reuse of one is interleaved by the other.
        // Reuses: a@2 (b above), b@3 (a above), a@4 (b above) → weight 3.
        let t = TrimmedTrace::from_indices([0, 1, 0, 1, 0]);
        let g = Trg::build(&t, 16);
        assert_eq!(g.weight(b(0), b(1)), 3);
    }

    #[test]
    fn no_reuse_no_edges() {
        let t = TrimmedTrace::from_indices([0, 1, 2, 3]);
        let g = Trg::build(&t, 16);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn window_bounds_conflict_counting() {
        // Reuse of 0 is 5 blocks apart; a window of 3 ignores it.
        let t = TrimmedTrace::from_indices([0, 1, 2, 3, 4, 5, 0]);
        let small = Trg::build(&t, 3);
        assert_eq!(small.num_edges(), 0);
        let large = Trg::build(&t, 10);
        assert_eq!(large.weight(b(0), b(3)), 1);
        assert_eq!(large.num_edges(), 5); // 0 conflicts with each of 1..=5
    }

    #[test]
    fn weights_accumulate_over_reuses() {
        // 0 x 0 x 0: each of the 2 reuses of 0 sees x above → 2; plus x's
        // reuses see 0 above → total 4.
        let t = TrimmedTrace::from_indices([0, 7, 0, 7, 0]);
        let g = Trg::build(&t, 8);
        assert_eq!(g.weight(b(0), b(7)), 3);
    }

    #[test]
    fn weight_is_symmetric_and_zero_for_self() {
        let t = TrimmedTrace::from_indices([0, 1, 0, 2, 1]);
        let g = Trg::build(&t, 8);
        assert_eq!(g.weight(b(0), b(1)), g.weight(b(1), b(0)));
        assert_eq!(g.weight(b(0), b(0)), 0);
    }

    #[test]
    fn from_edges_builds_expected_graph() {
        let g = Trg::from_edges(&[(1, 2, 40), (2, 3, 5), (1, 2, 2)]);
        assert_eq!(g.weight(b(1), b(2)), 42);
        assert_eq!(g.weight(b(2), b(3)), 5);
        assert_eq!(g.weight(b(1), b(3)), 0);
    }

    #[test]
    #[should_panic(expected = "self edges")]
    fn from_edges_rejects_self_loop() {
        Trg::from_edges(&[(1, 1, 3)]);
    }

    #[test]
    fn interleaved_triple() {
        // 0 1 2 0: reuse of 0 sees {1, 2} → one conflict each.
        let t = TrimmedTrace::from_indices([0, 1, 2, 0]);
        let g = Trg::build(&t, 8);
        assert_eq!(g.weight(b(0), b(1)), 1);
        assert_eq!(g.weight(b(0), b(2)), 1);
        assert_eq!(g.weight(b(1), b(2)), 0);
    }

    #[test]
    fn flat_walk_matches_stack_oracle() {
        for seed in 0..30u64 {
            let blocks = 3 + (seed % 17) as u32;
            let len = 200 + (seed as usize % 5) * 130;
            let t = random_trace(seed, len, blocks);
            for window in [1usize, 2, 3, 5, 9, 64] {
                let oracle = build_oracle(&t, window);
                let flat = Trg::build(&t, window);
                assert_eq!(
                    sorted_edges(&oracle),
                    sorted_edges(&flat),
                    "seed {} window {}",
                    seed,
                    window
                );
            }
        }
    }

    #[test]
    fn sharded_build_is_bit_identical_for_any_jobs() {
        for seed in 0..24u64 {
            let blocks = 4 + (seed % 13) as u32;
            let t = random_trace(seed.wrapping_add(1000), 700, blocks);
            for window in [2usize, 4, 8, 40] {
                let base = Trg::build_jobs(&t, window, 1);
                for jobs in [2usize, 3, 5, 8, 64] {
                    let sharded = Trg::build_jobs(&t, window, jobs);
                    assert_eq!(
                        sorted_edges(&base),
                        sorted_edges(&sharded),
                        "seed {} window {} jobs {}",
                        seed,
                        window,
                        jobs
                    );
                }
            }
        }
    }

    #[test]
    fn large_universe_uses_hash_accumulation() {
        // More distinct blocks than DENSE_NODE_MAX forces the hash-map
        // accumulation path: a cold prologue touches 1100 blocks once, then
        // a hot random tail over 30 blocks generates the actual edges.
        let mut ids: Vec<u32> = (100..1200u32).collect();
        let mut state = 0x1234_5678_9abc_def1u64;
        for _ in 0..1200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ids.push((state % 30) as u32);
        }
        let t = TrimmedTrace::from_indices(ids);
        assert!(TraceStats::of(&t).num_distinct() > DENSE_NODE_MAX);
        let oracle = build_oracle(&t, 12);
        for jobs in [1usize, 4] {
            let g = Trg::build_jobs(&t, 12, jobs);
            assert_eq!(sorted_edges(&oracle), sorted_edges(&g), "jobs {}", jobs);
        }
    }

    #[test]
    fn tiny_traces_shard_cleanly() {
        for ids in [vec![], vec![3], vec![3, 4], vec![1, 2, 1], vec![0, 1, 2]] {
            let t = TrimmedTrace::from_indices(ids.clone());
            for jobs in [1usize, 2, 8] {
                let g = Trg::build_jobs(&t, 4, jobs);
                let oracle = build_oracle(&t, 4);
                assert_eq!(sorted_edges(&oracle), sorted_edges(&g), "{:?}", ids);
            }
        }
    }

    #[test]
    fn zero_window_yields_no_edges() {
        let t = TrimmedTrace::from_indices([0, 1, 0, 1]);
        let g = Trg::build(&t, 0);
        assert_eq!(g.num_edges(), 0);
    }
}
