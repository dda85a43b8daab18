//! TRG reduction (Algorithm 2): greedy slot assignment along heaviest
//! conflict edges, then round-robin emission.
//!
//! The reduction keeps `K` slot lists, each backed by a *supernode* in the
//! working graph. Edges are processed heaviest first; each unplaced
//! endpoint picks the first empty slot, or — when none is empty — the slot
//! whose supernode it conflicts with least (only slots it actually has an
//! edge to are candidates; a block with a single conflict partner follows
//! that partner's slot, as `C` does in the paper's Figure 2 walk-through).
//! Placing a block merges it into the slot supernode (edge weights
//! combine) and deletes its edges to the other slots, because blocks in
//! different slots occupy different cache sets and no longer conflict.
//! Finally the slot lists are drained round-robin into the output order,
//! interleaving the slots so that consecutive output blocks land in
//! different cache-set regions.
//!
//! The working graph is never materialized. Edge-bearing blocks are
//! renumbered densely in first-appearance rank order, and the two kinds of
//! live edge are kept apart, each in the form its invariant allows:
//!
//! * A **static** block–block edge keeps its input weight for as long as it
//!   lives, and it lives exactly while both endpoints are unplaced. These
//!   edges are stored once: as a CSR adjacency (for the merge) and as one
//!   array of selection keys sorted once, walked heaviest first by a
//!   cursor that drops entries with a placed endpoint. Nothing is ever
//!   pushed back.
//! * A **slot** edge's weight (the merged supernode weight) only grows
//!   while its block is unplaced, and the edge dies with the placement.
//!   The weights sit in a dense `blocks × slots` table; each block's best
//!   slot key only grows, so it is raised with `max` in a tournament tree
//!   whose root is the heaviest live slot edge.
//!
//! The heaviest live edge is the larger of the cursor's entry and the
//! tree's root under one `(weight, lower rank, higher rank)` key, which
//! fixes every tie-break (see [`edge_key`]). Slots fill in index order, so
//! "first empty slot" is a counter and the least-conflict choice is one
//! scan of the block's table row. An unplaced edge-bearing block
//! always has a live edge, so the loop ends as soon as every edge-bearing
//! block is placed (DESIGN.md §16 argues each step).
//!
//! Blocks that never appear in any edge (no conflicts) are appended to the
//! shortest slot lists in first-appearance order before emission.

use crate::graph::Trg;
use clop_trace::{BlockId, TraceStats, TrimmedTrace};
use clop_util::FxHashMap;

/// Result of a TRG reduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotAssignment {
    /// Per-slot block lists, in placement order.
    pub slots: Vec<Vec<BlockId>>,
    /// The emitted code-block order (round-robin over slots).
    pub sequence: Vec<BlockId>,
}

/// Tag bit marking a slot endpoint in a selection key. Blocks carry their
/// dense index (tag 0), so block endpoints order before slot endpoints;
/// 2³¹ edge-bearing blocks would take at least 2³⁰ edges to reach it.
const SLOT_TAG: u32 = 1 << 31;

/// Selection key of a live edge, the whole heaviest-first order in one
/// integer: weight in the high 64 bits, then the *inverted* lower and
/// higher endpoint, so that among equal weights smaller ranks win. Blocks
/// are numbered in rank order, so comparing dense indexes compares ranks.
fn edge_key(w: u64, lo: u32, hi: u32) -> u128 {
    (u128::from(w) << 64) | (u128::from(!lo) << 32) | u128::from(!hi)
}

/// The endpoints `(lower, higher)` of a selection key.
fn key_ends(key: u128) -> (u32, u32) {
    (!((key >> 32) as u32), !(key as u32))
}

/// Run Algorithm 2 with `k` slots. The trace supplies the deterministic
/// first-appearance order used for conflict-free blocks and tie-breaks.
pub fn reduce(trg: &Trg, k: usize, trace: &TrimmedTrace) -> SlotAssignment {
    // Trimmed-trace ids are dense, so a bitmap replaces a hash set.
    let events = trace.events();
    let mut seen = vec![false; events.iter().map(|b| b.index() + 1).max().unwrap_or(0)];
    let mut order: Vec<BlockId> = Vec::new();
    for &b in events {
        if !seen[b.index()] {
            seen[b.index()] = true;
            order.push(b);
        }
    }
    reduce_ordered(trg, k, &order)
}

/// [`reduce`] from the trace's order statistics instead of the trace
/// itself — the incremental serving path folds [`clop_trace::StatsState`]
/// from shards and never materializes the full trace. Bit-identical to
/// [`reduce`], because the reduction consumes the trace only through its
/// first-appearance order.
pub fn reduce_from_stats(trg: &Trg, k: usize, stats: &TraceStats) -> SlotAssignment {
    reduce_ordered(trg, k, stats.first_appearance())
}

/// The reduction proper, over the distinct blocks of the trace in
/// first-appearance order.
fn reduce_ordered(trg: &Trg, k: usize, order: &[BlockId]) -> SlotAssignment {
    let (g, free) = DenseGraph::new(trg, order);
    let mut slots: Vec<Vec<BlockId>> = vec![Vec::new(); k.max(1)];
    Reduction::new(g, slots.len()).run(&mut slots);

    // Conflict-free blocks: append to the currently shortest slots in
    // first-appearance order.
    for b in free {
        let si = shortest(&slots);
        slots[si].push(b);
    }

    // Round-robin emission.
    let mut sequence = Vec::with_capacity(slots.iter().map(Vec::len).sum());
    let mut cursors = vec![0usize; slots.len()];
    loop {
        let mut emitted = false;
        for (s, cur) in cursors.iter_mut().enumerate() {
            if *cur < slots[s].len() {
                sequence.push(slots[s][*cur]);
                *cur += 1;
                emitted = true;
            }
        }
        if !emitted {
            break;
        }
    }

    SlotAssignment { slots, sequence }
}

/// Index of the shortest slot, the lowest index among equals.
fn shortest(slots: &[Vec<BlockId>]) -> usize {
    slots
        .iter()
        .enumerate()
        .min_by_key(|(i, s)| (s.len(), *i))
        .map_or(0, |(i, _)| i)
}

/// The TRG over dense indexes: edge-bearing blocks numbered in rank order.
struct DenseGraph {
    /// Block id of each dense index.
    ids: Vec<BlockId>,
    /// Selection keys of the block–block edges, sorted ascending; the
    /// cursor is the end of the vector.
    keys: Vec<u128>,
    /// CSR adjacency: the neighbors of `v`, each with the edge weight, are
    /// `adj[off[v]..off[v + 1]]`.
    off: Vec<usize>,
    adj: Vec<(u32, u64)>,
}

impl DenseGraph {
    /// Rank every block — first-appearance order, then graph nodes the
    /// order misses, then edge endpoints missing from both in ascending id
    /// order (a partial fold's edges can name blocks whose first
    /// appearance lies in a shard not yet absorbed) — and lay the edges
    /// out over the edge-bearing ones. Also returns the ranked blocks
    /// without any edge, in rank order.
    fn new(trg: &Trg, order: &[BlockId]) -> (DenseGraph, Vec<BlockId>) {
        let mut rank: FxHashMap<u32, u32> = FxHashMap::default();
        let mut by_rank: Vec<u32> = Vec::new();
        let mut rank_of = |id: u32, by_rank: &mut Vec<u32>| {
            *rank.entry(id).or_insert_with(|| {
                by_rank.push(id);
                (by_rank.len() - 1) as u32
            })
        };
        for b in order.iter().chain(trg.nodes()) {
            rank_of(b.0, &mut by_rank);
        }
        let ranked = by_rank.len();
        // Missing endpoints get provisional ranks in encounter order here;
        // the dense numbering below puts them in id order.
        let mut keys: Vec<u128> = trg
            .edges()
            .map(|(x, y, w)| {
                let (a, b) = (rank_of(x.0, &mut by_rank), rank_of(y.0, &mut by_rank));
                edge_key(w, a, b)
            })
            .collect();

        let mut has_edge = vec![false; by_rank.len()];
        for &key in &keys {
            let (a, b) = key_ends(key);
            has_edge[a as usize] = true;
            has_edge[b as usize] = true;
        }
        let mut missing: Vec<u32> = (ranked as u32..by_rank.len() as u32).collect();
        missing.sort_unstable_by_key(|&r| by_rank[r as usize]);
        let mut dense = vec![u32::MAX; by_rank.len()];
        let mut ids = Vec::new();
        let mut free = Vec::new();
        for r in (0..ranked as u32).chain(missing) {
            let id = BlockId(by_rank[r as usize]);
            if has_edge[r as usize] {
                dense[r as usize] = ids.len() as u32;
                ids.push(id);
            } else {
                free.push(id);
            }
        }

        let mut off = vec![0usize; ids.len() + 1];
        for key in &mut keys {
            let (a, b) = key_ends(*key);
            let (a, b) = (dense[a as usize], dense[b as usize]);
            *key = edge_key((*key >> 64) as u64, a.min(b), a.max(b));
            off[a as usize + 1] += 1;
            off[b as usize + 1] += 1;
        }
        for v in 1..off.len() {
            off[v] += off[v - 1];
        }
        let mut fill = off.clone();
        let mut adj = vec![(0u32, 0u64); 2 * keys.len()];
        for &key in &keys {
            let (a, b) = key_ends(key);
            for (v, p) in [(a, b), (b, a)] {
                let i = &mut fill[v as usize];
                adj[*i] = (p, (key >> 64) as u64);
                *i += 1;
            }
        }
        keys.sort_unstable();
        let g = DenseGraph {
            ids,
            keys,
            off,
            adj,
        };
        (g, free)
    }
}

/// Max tournament tree over per-block best slot keys (0 = no live slot
/// edge). Leaves only ever rise, except when a block is placed.
struct Tournament {
    leaves: usize,
    node: Vec<u128>,
}

impl Tournament {
    fn new(n: usize) -> Tournament {
        let leaves = n.next_power_of_two();
        Tournament {
            leaves,
            node: vec![0; 2 * leaves],
        }
    }

    /// The largest leaf.
    fn top(&self) -> u128 {
        self.node[1]
    }

    /// Raise leaf `v` to at least `key`: ancestors already at or above it
    /// stay, so the walk stops at the first one.
    fn raise(&mut self, v: usize, key: u128) {
        let mut i = self.leaves + v;
        while i > 0 && self.node[i] < key {
            self.node[i] = key;
            i /= 2;
        }
    }

    /// Clear leaf `v` and recompute its ancestors.
    fn clear(&mut self, v: usize) {
        let mut i = self.leaves + v;
        self.node[i] = 0;
        while i > 1 {
            i /= 2;
            self.node[i] = self.node[2 * i].max(self.node[2 * i + 1]);
        }
    }
}

/// The selection loop's state over a [`DenseGraph`].
struct Reduction {
    g: DenseGraph,
    /// Width of the slot-weight table: only the first `min(k, blocks)`
    /// slots can be filled while edges remain.
    width: usize,
    /// Merged slot weights plus one (0 = no edge), row `v`, column `s`.
    slot_w: Vec<u64>,
    best: Tournament,
    placed: Vec<bool>,
    unplaced: usize,
    /// Slots `0..filled` are nonempty, the rest empty.
    filled: usize,
}

impl Reduction {
    fn new(g: DenseGraph, k: usize) -> Reduction {
        let n = g.ids.len();
        let width = k.min(n);
        Reduction {
            g,
            width,
            slot_w: vec![0; n * width],
            best: Tournament::new(n),
            placed: vec![false; n],
            unplaced: n,
            filled: 0,
        }
    }

    /// Place every edge-bearing block, heaviest live edge first.
    fn run(mut self, slots: &mut [Vec<BlockId>]) {
        while self.unplaced > 0 {
            let key = self.heaviest();
            if key == 0 {
                // Unreachable: an unplaced edge-bearing block has a live
                // edge, to an unplaced neighbor or to a neighbor's slot.
                break;
            }
            // The key orders the endpoints by rank; a slot edge's block
            // endpoint always comes first.
            let (a, b) = key_ends(key);
            self.place(a as usize, slots);
            if b & SLOT_TAG == 0 {
                self.place(b as usize, slots);
            }
        }
    }

    /// The key of the heaviest live edge (0 when none). Dead static
    /// entries never revive, so the cursor drops them for good.
    fn heaviest(&mut self) -> u128 {
        while let Some(&top) = self.g.keys.last() {
            let (a, b) = key_ends(top);
            if !self.placed[a as usize] && !self.placed[b as usize] {
                return top.max(self.best.top());
            }
            self.g.keys.pop();
        }
        self.best.top()
    }

    /// Place one block per Algorithm 2 steps 4–22.
    fn place(&mut self, v: usize, slots: &mut [Vec<BlockId>]) {
        let si = if self.filled < slots.len() {
            self.filled += 1;
            self.filled - 1
        } else {
            // A block reached from an edge always conflicts with
            // something; if all its conflicts are still unplaced blocks,
            // fall back to the shortest slot.
            self.least_conflict(v).unwrap_or_else(|| shortest(slots))
        };
        slots[si].push(self.g.ids[v]);
        self.placed[v] = true;
        self.unplaced -= 1;
        self.best.clear(v);

        // Merge into the slot supernode: every edge to a still unplaced
        // neighbor now adds to that neighbor's edge to slot `si`. The
        // block's own slot edges die with its row.
        for &(p, w) in &self.g.adj[self.g.off[v]..self.g.off[v + 1]] {
            let p = p as usize;
            if self.placed[p] {
                continue;
            }
            let cell = &mut self.slot_w[p * self.width + si];
            *cell = (*cell).max(1) + w;
            let key = edge_key(*cell - 1, p as u32, SLOT_TAG | si as u32);
            self.best.raise(p, key);
        }
    }

    /// The slot block `v` conflicts with least among those it has an edge
    /// to, the lowest index among equals.
    fn least_conflict(&self, v: usize) -> Option<usize> {
        let row = &self.slot_w[v * self.width..(v + 1) * self.width];
        let mut best: Option<(usize, u64)> = None;
        for (s, &c) in row.iter().enumerate() {
            if c != 0 && best.is_none_or(|(_, b)| c < b) {
                best = Some((s, c));
            }
        }
        best.map(|(s, _)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_util::check::check_n;
    use clop_util::Rng;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    /// The paper's Figure 2 walk-through with 3 code slots. (The figure's
    /// weights are illegible in our source; these weights are chosen so
    /// the narrated reduction steps are forced: E<A,B> heaviest → A, B take
    /// slots 1 and 2; E<E,F> next → E takes slot 3, F joins A's slot as its
    /// least conflict; C's only edge is to E, so C joins E's slot. The
    /// emitted sequence must be A B E F C.)
    #[test]
    fn paper_figure2() {
        // A=1, B=2, C=3, E=4, F=5 (first-appearance order A B C E F).
        let trace = TrimmedTrace::from_indices([1, 2, 3, 4, 5]);
        let trg = Trg::from_edges(&[
            (1, 2, 40), // A-B, heaviest
            (4, 5, 30), // E-F
            (4, 3, 25), // E-C
            (5, 2, 15), // F-B
            (5, 1, 10), // F-A (F's least conflict → joins A)
        ]);
        let out = reduce(&trg, 3, &trace);
        assert_eq!(out.slots[0], vec![b(1), b(5)]); // A F
        assert_eq!(out.slots[1], vec![b(2)]); // B
        assert_eq!(out.slots[2], vec![b(4), b(3)]); // E C
        let seq: Vec<u32> = out.sequence.iter().map(|x| x.0).collect();
        assert_eq!(seq, vec![1, 2, 4, 5, 3]); // A B E F C
    }

    #[test]
    fn sequence_is_permutation_of_trace_blocks() {
        let trace = TrimmedTrace::from_indices([0, 1, 2, 0, 1, 3, 4, 2, 0]);
        let trg = Trg::build(&trace, 8);
        let out = reduce(&trg, 3, &trace);
        let mut seq: Vec<u32> = out.sequence.iter().map(|x| x.0).collect();
        seq.sort_unstable();
        assert_eq!(seq, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heavy_conflict_pair_separates_into_slots() {
        // 0 and 1 conflict heavily; with 2 slots they must not share one.
        let ids: Vec<u32> = (0..100).map(|i| (i % 2) as u32).collect();
        let trace = TrimmedTrace::from_indices(ids);
        let trg = Trg::build(&trace, 8);
        let out = reduce(&trg, 2, &trace);
        let slot_of = |x: u32| {
            out.slots
                .iter()
                .position(|s| s.contains(&b(x)))
                .expect("placed")
        };
        assert_ne!(slot_of(0), slot_of(1));
    }

    #[test]
    fn conflict_free_blocks_fill_shortest_slots() {
        let trace = TrimmedTrace::from_indices([0, 1, 2, 3]);
        let trg = Trg::build(&trace, 8); // no reuses → no edges
        let out = reduce(&trg, 2, &trace);
        // 4 blocks over 2 slots, 2 each, first-appearance order.
        assert_eq!(out.slots[0].len(), 2);
        assert_eq!(out.slots[1].len(), 2);
        let seq: Vec<u32> = out.sequence.iter().map(|x| x.0).collect();
        assert_eq!(seq, vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_slot_degenerates_to_placement_order() {
        let trace = TrimmedTrace::from_indices([2, 0, 2, 1, 2, 0]);
        let trg = Trg::build(&trace, 8);
        let out = reduce(&trg, 1, &trace);
        assert_eq!(out.slots.len(), 1);
        let mut seq: Vec<u32> = out.sequence.iter().map(|x| x.0).collect();
        seq.sort_unstable();
        assert_eq!(seq, vec![0, 1, 2]);
    }

    #[test]
    fn deterministic() {
        let ids: Vec<u32> = (0..500).map(|i| ((i * 13 + i / 7) % 12) as u32).collect();
        let trace = TrimmedTrace::from_indices(ids);
        let trg = Trg::build(&trace, 16);
        let a = reduce(&trg, 4, &trace);
        let c = reduce(&trg, 4, &trace);
        assert_eq!(a, c);
    }

    #[test]
    fn more_slots_than_blocks_is_fine() {
        let trace = TrimmedTrace::from_indices([0, 1, 0]);
        let trg = Trg::build(&trace, 8);
        let out = reduce(&trg, 10, &trace);
        assert_eq!(out.sequence.len(), 2);
    }

    /// Working-graph entity of the scan oracle: an unplaced block or a
    /// slot supernode.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
    enum Ent {
        Block(u32),
        Slot(u32),
    }

    fn key(a: Ent, b: Ent) -> (Ent, Ent) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// The scan comparator's tie-break key: blocks by rank, then slots.
    fn rank_of(e: Ent, rank: &FxHashMap<u32, usize>) -> (u8, usize) {
        match e {
            Ent::Block(x) => (0, rank[&x]),
            Ent::Slot(s) => (1, s as usize),
        }
    }

    /// Place one block on the oracle's explicit working graph.
    fn place_block(
        x: u32,
        weights: &mut FxHashMap<(Ent, Ent), u64>,
        adj: &mut FxHashMap<Ent, Vec<Ent>>,
        slots: &mut [Vec<BlockId>],
        placed: &mut FxHashMap<u32, u32>,
    ) {
        let e = Ent::Block(x);
        let mut chosen = slots.iter().position(|s| s.is_empty());
        if chosen.is_none() {
            let mut best_w = None;
            for i in 0..slots.len() {
                if let Some(&w) = weights.get(&key(e, Ent::Slot(i as u32))) {
                    if best_w.is_none_or(|b| w < b) {
                        best_w = Some(w);
                        chosen = Some(i);
                    }
                }
            }
        }
        let si = chosen.unwrap_or_else(|| shortest(slots));
        slots[si].push(BlockId(x));
        placed.insert(x, si as u32);
        let slot_ent = Ent::Slot(si as u32);
        for p in adj.remove(&e).unwrap_or_default() {
            let Some(w) = weights.remove(&key(e, p)) else {
                continue;
            };
            if let Ent::Block(_) = p {
                // Duplicate partners are harmless: the weight map is the
                // authority, so a repeated partner finds nothing to remove.
                *weights.entry(key(slot_ent, p)).or_insert(0) += w;
                adj.entry(p).or_default().push(slot_ent);
            }
        }
    }

    /// Scan-based selection oracle: the working graph as explicit hash
    /// maps, and every iteration scans all live edges for the maximum
    /// under the selection tie-breaks. The dense reduction must reproduce
    /// its output exactly.
    fn reduce_scan_oracle(trg: &Trg, k: usize, order: &[BlockId]) -> SlotAssignment {
        let k = k.max(1);
        let mut rank: FxHashMap<u32, usize> = FxHashMap::default();
        for x in order.iter().chain(trg.nodes()) {
            let next = rank.len();
            rank.entry(x.0).or_insert(next);
        }
        let mut missing: Vec<u32> = trg
            .edges()
            .flat_map(|(x, y, _)| [x.0, y.0])
            .filter(|x| !rank.contains_key(x))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        for x in missing {
            let next = rank.len();
            rank.insert(x, next);
        }
        let mut weights: FxHashMap<(Ent, Ent), u64> = FxHashMap::default();
        let mut adj: FxHashMap<Ent, Vec<Ent>> = FxHashMap::default();
        for (x, y, w) in trg.edges() {
            let (a, b) = (Ent::Block(x.0), Ent::Block(y.0));
            weights.insert(key(a, b), w);
            adj.entry(a).or_default().push(b);
            adj.entry(b).or_default().push(a);
        }
        let mut slots: Vec<Vec<BlockId>> = vec![Vec::new(); k];
        let mut placed: FxHashMap<u32, u32> = FxHashMap::default();
        loop {
            let best = weights
                .iter()
                .max_by(|((a1, b1), w1), ((a2, b2), w2)| {
                    let (r1, s1) = (rank_of(*a1, &rank), rank_of(*b1, &rank));
                    let (r2, s2) = (rank_of(*a2, &rank), rank_of(*b2, &rank));
                    w1.cmp(w2)
                        .then_with(|| (r2.min(s2)).cmp(&(r1.min(s1))))
                        .then_with(|| (r2.max(s2)).cmp(&(r1.max(s1))))
                })
                .map(|((a, b), _)| (*a, *b));
            let Some((a, b)) = best else { break };
            let mut endpoints = [a, b];
            endpoints.sort_by_key(|e| rank_of(*e, &rank));
            for e in endpoints {
                let Ent::Block(x) = e else { continue };
                if !placed.contains_key(&x) {
                    place_block(x, &mut weights, &mut adj, &mut slots, &mut placed);
                }
            }
        }
        let mut leftovers: Vec<BlockId> = order
            .iter()
            .chain(trg.nodes())
            .copied()
            .filter(|x| !placed.contains_key(&x.0))
            .collect();
        leftovers.sort_by_key(|x| rank[&x.0]);
        leftovers.dedup();
        for x in leftovers {
            let si = shortest(&slots);
            slots[si].push(x);
        }
        let mut sequence = Vec::new();
        for round in 0.. {
            let before = sequence.len();
            sequence.extend(slots.iter().filter_map(|s| s.get(round)));
            if sequence.len() == before {
                break;
            }
        }
        SlotAssignment { slots, sequence }
    }

    fn first_appearance(trace: &TrimmedTrace) -> Vec<BlockId> {
        let mut order = trace.distinct_blocks();
        order.sort_by_key(|&x| trace.iter().position(|y| y == x));
        order
    }

    /// A uniform random trace: over `blocks` blocks and a window near
    /// their count, the TRG is near-complete, like the reference profiles'.
    fn uniform_trace(rng: &mut Rng, len: usize, blocks: u32) -> TrimmedTrace {
        TrimmedTrace::from_indices((0..len).map(|_| rng.gen_range_u32(0, blocks)))
    }

    #[test]
    fn dense_reduction_matches_scan_oracle_on_small_traces() {
        check_n("trg-reduce-oracle-small", 24, |rng| {
            let blocks = rng.gen_range_u32(2, 20);
            let trace = uniform_trace(rng, 600, blocks);
            let order = first_appearance(&trace);
            let stats = TraceStats::of(&trace);
            for (window, k) in [(4usize, 2usize), (8, 3), (16, 5), (64, 1), (64, 40)] {
                let trg = Trg::build(&trace, window);
                let fast = reduce(&trg, k, &trace);
                assert_eq!(
                    fast,
                    reduce_scan_oracle(&trg, k, &order),
                    "w{} k{}",
                    window,
                    k
                );
                assert_eq!(
                    fast,
                    reduce_from_stats(&trg, k, &stats),
                    "w{} k{}",
                    window,
                    k
                );
            }
        });
    }

    #[test]
    fn dense_reduction_matches_scan_oracle_on_near_complete_graphs() {
        check_n("trg-reduce-oracle-dense", 2, |rng| {
            let trace = uniform_trace(rng, 2000, 200);
            let order = first_appearance(&trace);
            let trg = Trg::build(&trace, 256);
            assert!(trg.num_edges() > 15_000, "{} edges", trg.num_edges());
            for k in [1usize, 7, 128, 300] {
                let fast = reduce(&trg, k, &trace);
                assert_eq!(fast, reduce_scan_oracle(&trg, k, &order), "k{}", k);
            }
        });
    }

    #[test]
    fn dense_reduction_matches_scan_oracle_on_sparse_large_ids() {
        // Ids near u32::MAX and weights with many zeros: setup must size
        // by nodes and edges, never by the largest id.
        check_n("trg-reduce-oracle-sparse", 32, |rng| {
            let nodes: Vec<u32> = (0..rng.gen_range_u32(2, 40))
                .map(|_| u32::MAX - rng.gen_range_u32(0, 1 << 20))
                .collect();
            let mut edges = Vec::new();
            for _ in 0..rng.gen_index(120) {
                let x = nodes[rng.gen_index(nodes.len())];
                let y = nodes[rng.gen_index(nodes.len())];
                if x != y {
                    edges.push((x, y, rng.gen_below(4)));
                }
            }
            let mut trg = Trg::from_edges(&edges);
            if rng.gen_bool(0.5) {
                // A partial fold's shape: the node list misses endpoints.
                let map = trg.edges().map(|(x, y, w)| ((x.0, y.0), w)).collect();
                let kept = trg.nodes().iter().copied().filter(|_| rng.gen_bool(0.5));
                trg = Trg::from_parts(map, kept.collect());
            }
            // The order names some nodes, plus blocks without any edge.
            let mut order: Vec<BlockId> = nodes.iter().map(|&x| BlockId(x)).collect();
            order.extend((0..rng.gen_index(5) as u32).map(|x| BlockId(1000 + x)));
            rng.shuffle(&mut order);
            order.truncate(rng.gen_index(order.len() + 1));
            order.sort_unstable();
            order.dedup();
            rng.shuffle(&mut order);
            for k in [1usize, 3, 8, 64] {
                assert_eq!(
                    reduce_ordered(&trg, k, &order),
                    reduce_scan_oracle(&trg, k, &order),
                    "k{} edges {:?}",
                    k,
                    edges
                );
            }
        });
    }

    #[test]
    fn endpoints_missing_from_the_order_rank_after_it_by_id() {
        // A partial fold's graph: edge endpoints 9 and 5 are neither in
        // the order nor among the nodes. They rank after both, 5 before
        // 9; with one slot the placement order is the heaviest edge's
        // endpoints by rank, then the other edge's.
        let mut edges = FxHashMap::default();
        edges.insert((5, 9), 3);
        edges.insert((1, 2), 1);
        let trg = Trg::from_parts(edges, vec![BlockId(2), BlockId(1)]);
        let order = [BlockId(2), BlockId(1)];
        let out = reduce_ordered(&trg, 1, &order);
        assert_eq!(out, reduce_scan_oracle(&trg, 1, &order));
        let seq: Vec<u32> = out.sequence.iter().map(|x| x.0).collect();
        assert_eq!(seq, vec![5, 9, 2, 1]);
    }
}
