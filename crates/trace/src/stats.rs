//! The one trace index, and its fold over shards.
//!
//! Every analysis reads two statistics of a trimmed trace: block heat and
//! first appearance (paper §II-B, §II-C, §II-F). [`TraceStats`] computes
//! them once: the distinct blocks in heat order `(count desc, id asc)`
//! with their counts and an id → rank map, the ranks in first-appearance
//! order, and, when built from a trace, the events renumbered into
//! heat-rank space, which is all the kernels read. Its memory is
//! O(events + distinct blocks) whatever the id values.
//!
//! [`StatsState`] is the streaming accumulator: each shard contributes the
//! counts and the local first-appearance list of its **core** region, keyed
//! by the shard's sequence number. Because cores partition the trace, the
//! global first appearance of a block is its first appearance within the
//! earliest core containing it — so concatenating per-core first-appearance
//! lists in sequence order and deduplicating (keeping the first occurrence)
//! reconstructs the exact global order for any shard arrival order.
//! Duplicate sequence numbers are ignored, which makes re-streaming a shard
//! after a crash idempotent. [`StatsState::finalize`] builds the same index
//! as [`TraceStats::of`], without the event stream.

use crate::trace::{BlockId, TrimmedTrace};
use clop_util::bytes::{put_varint, ByteReader};
use clop_util::{ClopError, ClopResult, FxHashMap, FxHashSet};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The index of one trimmed trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Block ids by heat rank: most occurrences first, then smaller id.
    ids: Vec<BlockId>,
    /// Occurrence count by heat rank.
    counts: Vec<u64>,
    /// Heat rank of every distinct block, keyed by id.
    rank: FxHashMap<u32, u32>,
    /// Heat ranks in first-appearance order.
    first: Vec<u32>,
    /// The trace's events as heat ranks; empty when built from a fold.
    events: Vec<u32>,
}

impl TraceStats {
    /// Index a whole trace in one pass.
    pub fn of(trace: &TrimmedTrace) -> TraceStats {
        // Number blocks by first appearance; `rank_by_heat` renumbers.
        let mut slot: FxHashMap<u32, u32> = FxHashMap::default();
        let mut first = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut events = Vec::with_capacity(trace.len());
        for e in trace.iter() {
            let s = *slot.entry(e.0).or_insert_with(|| {
                first.push(e);
                counts.push(0);
                (first.len() - 1) as u32
            });
            counts[s as usize] += 1;
            events.push(s);
        }
        TraceStats::rank_by_heat(first, counts, slot, events)
    }

    /// The index of blocks given in first-appearance order with their
    /// counts. `slot` maps each id, and `events` each event, to
    /// a first-appearance index; both are renumbered into heat ranks.
    fn rank_by_heat(
        first: Vec<BlockId>,
        counts: Vec<u64>,
        mut slot: FxHashMap<u32, u32>,
        mut events: Vec<u32>,
    ) -> TraceStats {
        let mut by_heat: Vec<u32> = (0..first.len() as u32).collect();
        by_heat.sort_unstable_by_key(|&s| (Reverse(counts[s as usize]), first[s as usize]));
        let mut rank_of = vec![0u32; first.len()];
        for (r, &s) in by_heat.iter().enumerate() {
            rank_of[s as usize] = r as u32;
        }
        for r in slot.values_mut().chain(events.iter_mut()) {
            *r = rank_of[*r as usize];
        }
        TraceStats {
            ids: by_heat.iter().map(|&s| first[s as usize]).collect(),
            counts: by_heat.iter().map(|&s| counts[s as usize]).collect(),
            rank: slot,
            first: rank_of,
            events,
        }
    }

    /// Number of distinct blocks, the `B` of the paper's complexity
    /// analyses.
    pub fn num_distinct(&self) -> usize {
        self.ids.len()
    }

    /// True when the underlying trace held no event.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Block ids by heat rank.
    pub fn heat_order(&self) -> &[BlockId] {
        &self.ids
    }

    /// Occurrence counts by heat rank (non-increasing).
    pub fn heat_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Heat rank of `block`; `None` for a block the trace never names.
    pub fn rank(&self, block: BlockId) -> Option<u32> {
        self.rank.get(&block.0).copied()
    }

    /// Occurrence count of `block` (0 for blocks never seen).
    pub fn count(&self, block: BlockId) -> u64 {
        self.rank(block).map_or(0, |r| self.counts[r as usize])
    }

    /// Heat ranks in first-appearance order.
    pub fn first_ranks(&self) -> &[u32] {
        &self.first
    }

    /// Distinct blocks in global first-appearance order.
    pub fn first_appearance(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.first.iter().map(|&r| self.ids[r as usize])
    }

    /// The trace's events renumbered into heat ranks; empty when the index
    /// was built from a fold.
    pub fn ranked_events(&self) -> &[u32] {
        &self.events
    }
}

/// Snapshot format magic for [`StatsState::to_bytes`].
const STATE_MAGIC: &[u8; 4] = b"CLst";

/// Streaming accumulator for [`TraceStats`] over shard cores.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsState {
    /// Summed occurrence counts over absorbed cores.
    counts: BTreeMap<u32, u64>,
    /// Per-shard core first-appearance lists, keyed by shard sequence
    /// number (= core position in the original trace order).
    firsts: BTreeMap<u64, Vec<u32>>,
}

impl StatsState {
    /// An empty accumulator.
    pub fn new() -> StatsState {
        StatsState::default()
    }

    /// Absorb the core events of shard `seq`. Returns `false` (and changes
    /// nothing) when `seq` was already absorbed.
    pub fn absorb(&mut self, seq: u64, core: &[BlockId]) -> bool {
        if self.firsts.contains_key(&seq) {
            return false;
        }
        let mut seen = FxHashSet::default();
        let mut first = Vec::new();
        for e in core {
            *self.counts.entry(e.0).or_insert(0) += 1;
            if seen.insert(e.0) {
                first.push(e.0);
            }
        }
        self.firsts.insert(seq, first);
        true
    }

    /// True when shard `seq` has been absorbed.
    pub fn contains(&self, seq: u64) -> bool {
        self.firsts.contains_key(&seq)
    }

    /// Number of distinct shards absorbed.
    pub fn shards_absorbed(&self) -> u64 {
        self.firsts.len() as u64
    }

    /// The index of the absorbed cores: counts are the shard sums; the
    /// first-appearance order is the sequence-ordered concatenation of
    /// per-core lists with later duplicates dropped. Once every shard of a
    /// trace is absorbed it equals [`TraceStats::of`] on that trace, minus
    /// the event stream.
    pub fn finalize(&self) -> TraceStats {
        let mut slot = FxHashMap::default();
        let mut first = Vec::new();
        for &id in self.firsts.values().flatten() {
            slot.entry(id).or_insert_with(|| {
                first.push(BlockId(id));
                (first.len() - 1) as u32
            });
        }
        let mut counts = vec![0; first.len()];
        for (&id, &c) in &self.counts {
            if let Some(&s) = slot.get(&id) {
                counts[s as usize] = c;
            }
        }
        TraceStats::rank_by_heat(first, counts, slot, Vec::new())
    }

    /// Canonical binary snapshot (deterministic: `BTreeMap` iteration is
    /// key-ordered).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(STATE_MAGIC);
        put_varint(&mut buf, self.counts.len() as u64);
        for (&id, &c) in &self.counts {
            put_varint(&mut buf, u64::from(id));
            put_varint(&mut buf, c);
        }
        put_varint(&mut buf, self.firsts.len() as u64);
        for (&seq, ids) in &self.firsts {
            put_varint(&mut buf, seq);
            put_varint(&mut buf, ids.len() as u64);
            for &id in ids {
                put_varint(&mut buf, u64::from(id));
            }
        }
        buf
    }

    /// Decode a snapshot written by [`StatsState::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> ClopResult<StatsState> {
        let mut r = ByteReader::new(bytes);
        if r.bytes(4, "stats-state magic")? != STATE_MAGIC {
            return Err(ClopError::trace_format("not a stats-state snapshot"));
        }
        let ncounts = r.varint_usize("count entries")?;
        let mut counts = BTreeMap::new();
        for _ in 0..ncounts {
            let id = r.varint_u32("block id")?;
            let c = r.varint("occurrence count")?;
            counts.insert(id, c);
        }
        let nshards = r.varint_usize("shard entries")?;
        let mut firsts = BTreeMap::new();
        for _ in 0..nshards {
            let seq = r.varint("shard seq")?;
            let n = r.varint_usize("first-appearance length")?;
            let mut ids = Vec::new();
            for _ in 0..n {
                ids.push(r.varint_u32("block id")?);
            }
            firsts.insert(seq, ids);
        }
        if !r.is_empty() {
            return Err(ClopError::trace_decode(
                r.pos() as u64,
                "trailing bytes after stats-state snapshot",
            ));
        }
        Ok(StatsState { counts, firsts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shards;

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

    /// The fold's index: the batch index without its event stream.
    fn folded(mut s: TraceStats) -> TraceStats {
        s.events.clear();
        s
    }

    #[test]
    fn index_orders_blocks_by_heat_and_first_appearance() {
        // Counts: B4 3, B1 2, B2 2, B3 1, B5 1.
        let t = TrimmedTrace::from_indices([1, 4, 2, 4, 2, 3, 5, 1, 4]);
        let s = TraceStats::of(&t);
        let ids = |v: &[u32]| v.iter().map(|&i| BlockId(i)).collect::<Vec<_>>();
        assert_eq!(s.heat_order(), ids(&[4, 1, 2, 3, 5]).as_slice());
        assert_eq!(s.heat_counts(), &[3, 2, 2, 1, 1]);
        assert_eq!(
            s.first_appearance().collect::<Vec<_>>(),
            ids(&[1, 4, 2, 3, 5])
        );
        assert_eq!(s.first_ranks(), &[1, 0, 2, 3, 4]);
        assert_eq!(s.ranked_events(), &[1, 0, 2, 0, 2, 3, 4, 1, 0]);
        assert_eq!(s.rank(BlockId(2)), Some(2));
        assert_eq!(s.rank(BlockId(99)), None);
        assert_eq!(s.count(BlockId(4)), 3);
        assert_eq!(s.count(BlockId(99)), 0);
        assert_eq!(s.num_distinct(), 5);
    }

    #[test]
    fn index_is_sized_by_the_trace_not_its_largest_id() {
        let t = TrimmedTrace::from_indices([u32::MAX, 0, u32::MAX - 1, u32::MAX]);
        let s = TraceStats::of(&t);
        assert_eq!(
            s.heat_order(),
            &[BlockId(u32::MAX), BlockId(0), BlockId(u32::MAX - 1)]
        );
        assert_eq!(s.ranked_events(), &[0, 1, 2, 0]);
        let mut state = StatsState::new();
        state.absorb(0, t.events());
        assert_eq!(state.finalize(), folded(s));
    }

    #[test]
    fn ids_sharing_their_low_half_spread_over_the_low_bits() {
        let t = TrimmedTrace::from_indices((0..4096u32).map(|j| (j % 512) << 16 | 7));
        let s = TraceStats::of(&t);
        assert_eq!(s.num_distinct(), 512);
        assert_eq!(s.count(BlockId(5 << 16 | 7)), 8);
        assert_eq!(s.rank(BlockId(7)), Some(0));
    }

    #[test]
    fn empty_trace_stats() {
        let t = TrimmedTrace::from_indices(std::iter::empty::<u32>());
        let s = TraceStats::of(&t);
        assert!(s.is_empty());
        assert_eq!(s.num_distinct(), 0);
        assert_eq!(StatsState::new().finalize(), s);
    }

    #[test]
    fn shard_fold_matches_batch_for_any_order() {
        for seed in 0..6u64 {
            let t = random_trace(seed, 300, 23);
            let batch = TraceStats::of(&t);
            let order: Vec<BlockId> = batch.first_appearance().collect();
            let expect = folded(batch);
            for jobs in [1usize, 2, 3, 7] {
                let regions = shards(&t, jobs, 4, 0);
                // Reversed arrival plus a duplicate of every shard.
                let mut state = StatsState::new();
                for (i, sh) in regions.iter().enumerate().rev() {
                    let core = &t.events()[sh.core_start..sh.core_end];
                    assert!(state.absorb(i as u64, core));
                    assert!(!state.absorb(i as u64, core), "duplicate must be ignored");
                }
                let got = state.finalize();
                // The fold's first-appearance order is the batch order.
                assert_eq!(
                    got.first_appearance().collect::<Vec<_>>(),
                    order,
                    "seed {} jobs {}",
                    seed,
                    jobs
                );
                assert_eq!(got, expect, "seed {} jobs {}", seed, jobs);
                assert_eq!(state.shards_absorbed(), regions.len() as u64);
            }
        }
    }

    #[test]
    fn snapshot_round_trip() {
        let t = random_trace(9, 200, 17);
        let mut state = StatsState::new();
        for (i, sh) in shards(&t, 3, 4, 0).iter().enumerate() {
            state.absorb(i as u64, &t.events()[sh.core_start..sh.core_end]);
        }
        let bytes = state.to_bytes();
        let back = StatsState::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.finalize(), state.finalize());
        // Canonical: same state always serializes identically.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn snapshot_rejects_damage() {
        let mut state = StatsState::new();
        state.absorb(0, &[BlockId(1), BlockId(2)]);
        let bytes = state.to_bytes();
        assert!(StatsState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(StatsState::from_bytes(b"NOPE").is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(StatsState::from_bytes(&extra).is_err());
    }
}
