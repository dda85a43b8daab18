//! The TRG construction as a fold: shard deltas into incremental state.
//!
//! Mirrors `clop_affinity::incremental`: PR 5's shard engine already
//! produced per-shard edge maps merged by summation; this module makes the
//! accumulator explicit so the merge can run online over streamed shards.
//!
//! * [`TrgDelta`] — one shard's contribution: the conflict-edge increments
//!   its core attributes (sum-mergeable, Definition 6 counts one conflict
//!   per interleaved reuse), keyed by the shard's sequence number. A delta
//!   is computed from a standalone segment's own trace index — **local**
//!   heat ranks only steer internal table indexing and edges are keyed by
//!   block ids, so a delta measured from a CLSH shard file equals one
//!   measured in place.
//! * [`TrgState`] — the running fold. Edge absorption is a plain sum —
//!   commutative and associative, so arrival order is irrelevant — and a
//!   sequence-number set makes duplicate delivery idempotent.
//!
//! A graph is only its edges: the first-appearance order that the
//! reduction needs comes from the trace index, whose own fold
//! ([`clop_trace::StatsState`]) keeps the per-core first-appearance lists.
//!
//! The multi-region batch path ([`Trg::build_jobs`]) is itself expressed
//! as this fold, so batch/incremental equivalence is exercised by every
//! existing test.

use crate::graph::{build_region, Trg};
use clop_trace::shard::Shard;
use clop_trace::{TraceStats, TrimmedTrace};
use clop_util::bytes::{put_varint, ByteReader};
use clop_util::{ClopError, ClopResult, FxHashMap};
use std::collections::BTreeSet;

/// One shard's contribution to the TRG construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrgDelta {
    seq: u64,
    window: u64,
    /// Edge increments `((lo, hi), weight)`, sorted by pair key for
    /// canonical equality.
    edges: Vec<((u32, u32), u64)>,
}

impl TrgDelta {
    /// Measure the delta of a standalone shard segment.
    ///
    /// `segment` spans the shard's backward overlap, core, and forward
    /// extension; `core_start..core_end` (segment-local indices) is the
    /// attributed range. Heat ranks are segment-local, which is harmless
    /// (edges are keyed by block ids); a deeper-than-`window + 1` backward
    /// overlap is also harmless, because the blocks seen since the segment
    /// start ordered by last access form a prefix of the global LRU stack,
    /// so reuse distances come out exact either way.
    pub fn measure(
        seq: u64,
        segment: &TrimmedTrace,
        window: usize,
        core_start: usize,
        core_end: usize,
    ) -> TrgDelta {
        TrgDelta::measure_indexed(seq, &TraceStats::of(segment), window, core_start, core_end)
    }

    /// [`TrgDelta::measure`] over the segment's index (built by
    /// [`TraceStats::of`]), for a caller that measures the affinity delta
    /// of the same segment too.
    pub fn measure_indexed(
        seq: u64,
        segment: &TraceStats,
        window: usize,
        core_start: usize,
        core_end: usize,
    ) -> TrgDelta {
        let len = segment.ranked_events().len();
        let core_end = core_end.min(len);
        let sh = Shard {
            start: 0,
            core_start: core_start.min(core_end),
            core_end,
            end: len,
        };
        TrgDelta::of_region(seq, segment, window, sh)
    }

    /// Measure the delta of one region of an indexed trace (the batch path
    /// shares one index across its regions).
    pub(crate) fn of_region(seq: u64, stats: &TraceStats, window: usize, sh: Shard) -> TrgDelta {
        let mut edges: Vec<((u32, u32), u64)> =
            build_region(stats, window, sh).into_iter().collect();
        edges.sort_unstable_by_key(|&(k, _)| k);
        TrgDelta {
            seq,
            window: window as u64,
            edges,
        }
    }

    /// The shard sequence number this delta is keyed by.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The recency window the delta was measured at.
    pub fn window(&self) -> usize {
        self.window as usize
    }

    /// Number of distinct edges this shard credited.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// Snapshot format magic for [`TrgState::to_bytes`]. The snapshot holds
/// the edges and the absorbed sequence numbers; `CLtg`, the format that
/// also carried per-shard first-appearance lists, is refused.
const STATE_MAGIC: &[u8; 4] = b"CLt2";

/// The running TRG fold: absorbed deltas, mergeable in any order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrgState {
    window: u64,
    /// Summed conflict-edge weights.
    edges: FxHashMap<(u32, u32), u64>,
    /// Sequence numbers already absorbed (duplicate-delivery guard).
    seen: BTreeSet<u64>,
}

impl TrgState {
    /// An empty state at the given recency window.
    pub fn new(window: usize) -> TrgState {
        TrgState {
            window: window as u64,
            ..TrgState::default()
        }
    }

    /// The recency window every absorbed delta must match.
    pub fn window(&self) -> usize {
        self.window as usize
    }

    /// Absorb one delta. Returns `Ok(false)` (and changes nothing) when
    /// the delta's sequence number was already absorbed; errors when the
    /// delta was measured at a different window.
    pub fn absorb(&mut self, delta: &TrgDelta) -> ClopResult<bool> {
        if delta.window != self.window {
            return Err(ClopError::trace_format(format!(
                "TRG delta measured at window {} cannot fold into state at window {}",
                delta.window, self.window
            )));
        }
        if !self.seen.insert(delta.seq) {
            return Ok(false);
        }
        for &(k, w) in &delta.edges {
            *self.edges.entry(k).or_insert(0) += w;
        }
        Ok(true)
    }

    /// True when shard `seq` has been absorbed.
    pub fn contains(&self, seq: u64) -> bool {
        self.seen.contains(&seq)
    }

    /// Number of distinct shards absorbed.
    pub fn shards_absorbed(&self) -> u64 {
        self.seen.len() as u64
    }

    /// True when no shard has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// The graph of the fold so far. Once all shards of a trace are
    /// absorbed this equals the batch [`Trg::build`] exactly; on a partial
    /// fold it is the TRG of the absorbed cores.
    pub fn finalize(&self) -> Trg {
        Trg::from_parts(self.edges.clone())
    }

    /// [`TrgState::finalize`], consuming the state: moves the edge map
    /// into the graph instead of cloning it (the batch build's last step).
    pub fn into_graph(self) -> Trg {
        Trg::from_parts(self.edges)
    }

    /// Canonical binary snapshot: entries are emitted in sorted key order,
    /// so equal states serialize to identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(STATE_MAGIC);
        put_varint(&mut buf, self.window);
        let mut edges: Vec<(&(u32, u32), &u64)> = self.edges.iter().collect();
        edges.sort_unstable_by_key(|&(k, _)| k);
        put_varint(&mut buf, edges.len() as u64);
        for (&(lo, hi), &w) in edges {
            put_varint(&mut buf, u64::from(lo));
            put_varint(&mut buf, u64::from(hi));
            put_varint(&mut buf, w);
        }
        put_varint(&mut buf, self.seen.len() as u64);
        for &seq in &self.seen {
            put_varint(&mut buf, seq);
        }
        buf
    }

    /// Decode a snapshot written by [`TrgState::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> ClopResult<TrgState> {
        let mut r = ByteReader::new(bytes);
        if r.bytes(4, "TRG-state magic")? != STATE_MAGIC {
            return Err(ClopError::trace_format("not a TRG-state snapshot"));
        }
        let window = r.varint("window")?;
        let nedges = r.varint_usize("edge entries")?;
        let mut edges = FxHashMap::default();
        for _ in 0..nedges {
            let lo = r.varint_u32("edge lo")?;
            let hi = r.varint_u32("edge hi")?;
            let w = r.varint("edge weight")?;
            edges.insert((lo, hi), w);
        }
        let nseen = r.varint_usize("seq entries")?;
        let mut seen = BTreeSet::new();
        for _ in 0..nseen {
            seen.insert(r.varint("shard seq")?);
        }
        if !r.is_empty() {
            return Err(ClopError::trace_decode(
                r.pos() as u64,
                "trailing bytes after TRG-state snapshot",
            ));
        }
        Ok(TrgState {
            window,
            edges,
            seen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_trace::shard::shards;

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

    /// Cut the trace into explicit multi-shard regions (machine-independent:
    /// raw `shards`, not the adaptive variant) and measure each core's delta
    /// from an extracted standalone segment with local coordinates.
    fn segment_deltas(t: &TrimmedTrace, k: usize, window: usize) -> Vec<TrgDelta> {
        shards(t, k, window.saturating_add(1), 0)
            .iter()
            .enumerate()
            .map(|(i, sh)| {
                let seg = TrimmedTrace::from_events(t.events()[sh.start..sh.end].iter().copied());
                TrgDelta::measure(
                    i as u64,
                    &seg,
                    window,
                    sh.core_start - sh.start,
                    sh.core_end - sh.start,
                )
            })
            .collect()
    }

    #[test]
    fn standalone_segment_deltas_fold_to_batch() {
        for seed in 0..10u64 {
            let t = random_trace(seed, 500, 11);
            for window in [2usize, 5, 16] {
                let batch = Trg::build(&t, window);
                for k in [2usize, 3, 5, 9] {
                    let deltas = segment_deltas(&t, k, window);
                    let mut state = TrgState::new(window);
                    for d in &deltas {
                        assert!(state.absorb(d).unwrap());
                    }
                    let folded = state.finalize();
                    assert_eq!(
                        sorted_edges(&folded),
                        sorted_edges(&batch),
                        "seed {} window {} k {}",
                        seed,
                        window,
                        k
                    );
                }
            }
        }
    }

    #[test]
    fn absorb_rejects_mismatched_window() {
        let t = random_trace(1, 100, 7);
        let d = TrgDelta::measure(0, &t, 8, 0, t.len());
        let mut state = TrgState::new(6);
        assert!(state.absorb(&d).is_err());
        assert!(state.is_empty());
    }

    #[test]
    fn duplicate_deltas_are_idempotent() {
        let t = random_trace(2, 300, 9);
        let deltas = segment_deltas(&t, 4, 8);
        let mut once = TrgState::new(8);
        for d in &deltas {
            once.absorb(d).unwrap();
        }
        let mut twice = TrgState::new(8);
        for d in deltas.iter().chain(deltas.iter().rev()) {
            twice.absorb(d).unwrap();
        }
        assert_eq!(once, twice);
        assert_eq!(once.shards_absorbed(), deltas.len() as u64);
        assert!(once.contains(0));
        assert!(!once.contains(99));
    }

    #[test]
    fn single_segment_delta_equals_whole_trace() {
        let t = random_trace(3, 150, 8);
        let d = TrgDelta::measure(0, &t, 6, 0, t.len());
        let mut state = TrgState::new(6);
        state.absorb(&d).unwrap();
        let batch = Trg::build(&t, 6);
        assert_eq!(sorted_edges(&state.finalize()), sorted_edges(&batch));
    }

    #[test]
    fn zero_window_fold_is_edgeless() {
        let t = TrimmedTrace::from_indices([3, 1, 3, 2, 1]);
        let mut state = TrgState::new(0);
        state
            .absorb(&TrgDelta::measure(0, &t, 0, 0, t.len()))
            .unwrap();
        assert_eq!(state.finalize().num_edges(), 0);
        assert_eq!(state.shards_absorbed(), 1);
    }

    #[test]
    fn snapshot_round_trip_is_canonical() {
        let t = random_trace(4, 250, 10);
        let mut state = TrgState::new(6);
        for d in &segment_deltas(&t, 3, 6) {
            state.absorb(d).unwrap();
        }
        let bytes = state.to_bytes();
        let back = TrgState::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(
            sorted_edges(&back.finalize()),
            sorted_edges(&state.finalize())
        );
    }

    #[test]
    fn snapshot_rejects_damage() {
        let t = TrimmedTrace::from_indices([1, 2, 1, 2, 3]);
        let mut state = TrgState::new(4);
        state
            .absorb(&TrgDelta::measure(0, &t, 4, 0, t.len()))
            .unwrap();
        let bytes = state.to_bytes();
        assert!(TrgState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(TrgState::from_bytes(b"XXXX").is_err());
    }

    #[test]
    fn snapshot_with_first_appearance_lists_is_refused() {
        // The earlier format: window 4, edge (1, 2) of weight 2, then shard
        // 0 with its core's first-appearance list [1, 2].
        let old = [b'C', b'L', b't', b'g', 4, 1, 1, 2, 2, 1, 0, 2, 1, 2];
        let err = TrgState::from_bytes(&old).unwrap_err();
        assert!(
            err.to_string().contains("not a TRG-state snapshot"),
            "{}",
            err
        );
    }
}
