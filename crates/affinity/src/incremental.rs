//! The affinity analysis as a fold: shard deltas into incremental state.
//!
//! PR 5's shard engine already computed an implicit per-shard accumulator
//! and merged with order-independent reductions; this module makes that
//! split explicit so the merge can run *online*:
//!
//! * [`AffinityDelta`] — everything one shard contributes: per-pair
//!   `(max credited footprint, per-direction credit counts)` plus the
//!   core's per-block occurrence counts, keyed by the shard's sequence
//!   number. A delta is computed from a standalone segment (backward
//!   overlap + core + forward extension) with **local** coordinates: the
//!   segment's own trace index ([`clop_trace::TraceStats`]) supplies the
//!   heat ranks the kernel runs on and the core's counts. The analysis
//!   only ever compares positions within a shard and ranks only steer
//!   table indexing, so a delta measured from a CLSH shard file is
//!   bit-identical to one measured in place over the whole trace.
//! * [`AffinityState`] — the running fold. Absorbing a delta is `max` of
//!   thresholds and `sum` of credit and occurrence counts — commutative
//!   and associative, so any arrival order yields the same state; a
//!   sequence-number set makes duplicate delivery idempotent.
//!   [`AffinityState::finalize`] applies Definition 3's coverage filter
//!   (every occurrence of both blocks credited) and produces the exact
//!   [`PairThresholds`] the batch analyzer computes once every shard has
//!   been absorbed.
//!
//! The multi-region batch path (`PairThresholds::measure_jobs`) is itself
//! expressed as this fold over one shared trace index, so the equivalence
//! is exercised by every existing test, not just the dedicated property
//! suite.

use crate::analyzer::PairThresholds;
use crate::shard::measure_region;
use clop_trace::shard::Shard;
use clop_trace::{TraceStats, TrimmedTrace};
use clop_util::bytes::{put_varint, ByteReader};
use clop_util::{ClopError, ClopResult, FxHashMap};
use std::collections::BTreeSet;

/// One pair's merged record: `(max credited footprint, lo credits,
/// hi credits)`.
type PairRecord = (u32, u64, u64);

/// One shard's contribution to the affinity analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffinityDelta {
    seq: u64,
    w_max: u32,
    /// Per-pair `(max credited footprint, lo credits, hi credits)`, sorted
    /// by pair key for canonical equality.
    pairs: Vec<((u32, u32), PairRecord)>,
    /// Per-block occurrence counts over the shard's core, sorted by id.
    occ: Vec<(u32, u64)>,
}

impl AffinityDelta {
    /// Measure the delta of a standalone shard segment.
    ///
    /// `segment` spans the shard's backward overlap, core, and forward
    /// extension; `core_start..core_end` (segment-local indices) is the
    /// attributed range. Positions and heat ranks (the segment's own
    /// index) are segment-local — the analysis only compares positions
    /// intra-shard and ranks only steer internal table indexing, so the
    /// delta equals the one a whole-trace pass would attribute to this
    /// core.
    pub fn measure(
        seq: u64,
        segment: &TrimmedTrace,
        w_max: u32,
        core_start: usize,
        core_end: usize,
    ) -> AffinityDelta {
        AffinityDelta::measure_indexed(seq, &TraceStats::of(segment), w_max, core_start, core_end)
    }

    /// [`AffinityDelta::measure`] over the segment's index (built by
    /// [`TraceStats::of`]), for a caller that measures the TRG delta of the
    /// same segment too.
    pub fn measure_indexed(
        seq: u64,
        segment: &TraceStats,
        w_max: u32,
        core_start: usize,
        core_end: usize,
    ) -> AffinityDelta {
        let len = segment.ranked_events().len();
        let sh = Shard {
            start: 0,
            core_start: core_start.min(len),
            core_end: core_end.min(len),
            end: len,
        };
        AffinityDelta::of_region(seq, segment, w_max.max(2), sh)
    }

    /// Measure the delta of one region of an indexed trace (the batch path
    /// shares one index across its regions). `w_max` must already be
    /// normalized to `>= 2`.
    pub(crate) fn of_region(seq: u64, stats: &TraceStats, w_max: u32, sh: Shard) -> AffinityDelta {
        let ids = stats.heat_order();
        let mut pairs: Vec<((u32, u32), PairRecord)> = measure_region(stats, w_max, sh)
            .into_iter()
            .map(|((lo, hi), rec)| ((ids[lo as usize].0, ids[hi as usize].0), rec))
            .collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let mut counts = vec![0u64; stats.num_distinct()];
        for &r in &stats.ranked_events()[sh.core_start..sh.core_end] {
            counts[r as usize] += 1;
        }
        let mut occ: Vec<(u32, u64)> = ids
            .iter()
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .map(|(id, c)| (id.0, c))
            .collect();
        occ.sort_unstable_by_key(|&(id, _)| id);
        AffinityDelta {
            seq,
            w_max,
            pairs,
            occ,
        }
    }

    /// The shard sequence number this delta is keyed by.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The (normalized) window bound the delta was measured at.
    pub fn w_max(&self) -> u32 {
        self.w_max
    }

    /// Number of core events this shard attributes.
    pub fn core_events(&self) -> u64 {
        self.occ.iter().map(|&(_, c)| c).sum()
    }
}

/// Snapshot format magic for [`AffinityState::to_bytes`].
const STATE_MAGIC: &[u8; 4] = b"CLaf";

/// The running affinity fold: absorbed deltas, mergeable in any order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AffinityState {
    w_max: u32,
    /// Merged per-pair `(max footprint, lo credits, hi credits)`.
    pairs: FxHashMap<(u32, u32), (u32, u64, u64)>,
    /// Summed per-block occurrence counts over absorbed cores.
    occ: FxHashMap<u32, u64>,
    /// Sequence numbers already absorbed (duplicate-delivery guard).
    seen: BTreeSet<u64>,
}

impl AffinityState {
    /// An empty state at the given window bound (normalized to `>= 2`,
    /// matching the analyzers).
    pub fn new(w_max: u32) -> AffinityState {
        AffinityState {
            w_max: w_max.max(2),
            ..AffinityState::default()
        }
    }

    /// The window bound every absorbed delta must match.
    pub fn w_max(&self) -> u32 {
        self.w_max
    }

    /// Absorb one delta. Returns `Ok(false)` (and changes nothing) when
    /// the delta's sequence number was already absorbed; errors when the
    /// delta was measured at a different window bound.
    pub fn absorb(&mut self, delta: &AffinityDelta) -> ClopResult<bool> {
        if delta.w_max != self.w_max {
            return Err(ClopError::trace_format(format!(
                "affinity delta measured at w_max {} cannot fold into state at w_max {}",
                delta.w_max, self.w_max
            )));
        }
        if !self.seen.insert(delta.seq) {
            return Ok(false);
        }
        for &(k, (thr, fin_lo, fin_hi)) in &delta.pairs {
            let e = self.pairs.entry(k).or_insert((0, 0, 0));
            e.0 = e.0.max(thr);
            e.1 += fin_lo;
            e.2 += fin_hi;
        }
        for &(id, c) in &delta.occ {
            *self.occ.entry(id).or_insert(0) += c;
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

    /// Apply Definition 3's coverage filter to the current fold: a pair
    /// survives iff its threshold reached 2 and every absorbed occurrence
    /// of both blocks was credited. Once all shards of a trace are
    /// absorbed this equals the batch `PairThresholds::measure` exactly;
    /// on a partial fold it is the analysis of the absorbed cores.
    pub fn finalize(&self) -> PairThresholds {
        let mut map = FxHashMap::default();
        for (&(lo, hi), &(thr, fin_lo, fin_hi)) in &self.pairs {
            let occ_lo = self.occ.get(&lo).copied().unwrap_or(0);
            let occ_hi = self.occ.get(&hi).copied().unwrap_or(0);
            if thr >= 2 && fin_lo == occ_lo && fin_hi == occ_hi {
                map.insert((lo, hi), thr);
            }
        }
        PairThresholds::from_parts(map, self.w_max)
    }

    /// Canonical binary snapshot: entries are emitted in sorted key order,
    /// so equal states serialize to identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(STATE_MAGIC);
        put_varint(&mut buf, u64::from(self.w_max));
        let mut pairs: Vec<(&(u32, u32), &PairRecord)> = self.pairs.iter().collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        put_varint(&mut buf, pairs.len() as u64);
        for (&(lo, hi), &(thr, fin_lo, fin_hi)) in pairs {
            put_varint(&mut buf, u64::from(lo));
            put_varint(&mut buf, u64::from(hi));
            put_varint(&mut buf, u64::from(thr));
            put_varint(&mut buf, fin_lo);
            put_varint(&mut buf, fin_hi);
        }
        let mut occ: Vec<(&u32, &u64)> = self.occ.iter().collect();
        occ.sort_unstable_by_key(|&(id, _)| id);
        put_varint(&mut buf, occ.len() as u64);
        for (&id, &c) in occ {
            put_varint(&mut buf, u64::from(id));
            put_varint(&mut buf, c);
        }
        put_varint(&mut buf, self.seen.len() as u64);
        for &seq in &self.seen {
            put_varint(&mut buf, seq);
        }
        buf
    }

    /// Decode a snapshot written by [`AffinityState::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> ClopResult<AffinityState> {
        let mut r = ByteReader::new(bytes);
        if r.bytes(4, "affinity-state magic")? != STATE_MAGIC {
            return Err(ClopError::trace_format("not an affinity-state snapshot"));
        }
        let w_max = r.varint_u32("w_max")?;
        let npairs = r.varint_usize("pair entries")?;
        let mut pairs = FxHashMap::default();
        for _ in 0..npairs {
            let lo = r.varint_u32("pair lo")?;
            let hi = r.varint_u32("pair hi")?;
            let thr = r.varint_u32("pair threshold")?;
            let fin_lo = r.varint("pair lo credits")?;
            let fin_hi = r.varint("pair hi credits")?;
            pairs.insert((lo, hi), (thr, fin_lo, fin_hi));
        }
        let nocc = r.varint_usize("occurrence entries")?;
        let mut occ = FxHashMap::default();
        for _ in 0..nocc {
            let id = r.varint_u32("block id")?;
            let c = r.varint("occurrence count")?;
            occ.insert(id, c);
        }
        let nseen = r.varint_usize("seq entries")?;
        let mut seen = BTreeSet::new();
        for _ in 0..nseen {
            seen.insert(r.varint("shard seq")?);
        }
        if !r.is_empty() {
            return Err(ClopError::trace_decode(
                r.pos() as u64,
                "trailing bytes after affinity-state snapshot",
            ));
        }
        Ok(AffinityState {
            w_max,
            pairs,
            occ,
            seen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_trace::shard::shards;
    use clop_trace::BlockId;

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

    fn sorted_pairs(p: &PairThresholds) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<(u32, u32, u32)> = p.pairs().map(|(x, y, t)| (x.0, y.0, t)).collect();
        v.sort_unstable();
        v
    }

    /// Cut the trace into explicit multi-shard regions (machine-independent:
    /// raw `shards`, not the adaptive variant) and measure each core's delta
    /// from an extracted standalone segment with local coordinates.
    fn segment_deltas(t: &TrimmedTrace, k: usize, w_max: u32) -> Vec<AffinityDelta> {
        let w = w_max.max(2) as usize;
        shards(t, k, w + 1, w)
            .iter()
            .enumerate()
            .map(|(i, sh)| {
                let seg = TrimmedTrace::from_events(t.events()[sh.start..sh.end].iter().copied());
                AffinityDelta::measure(
                    i as u64,
                    &seg,
                    w_max,
                    sh.core_start - sh.start,
                    sh.core_end - sh.start,
                )
            })
            .collect()
    }

    #[test]
    fn standalone_segment_deltas_fold_to_batch() {
        for seed in 0..10u64 {
            let t = random_trace(seed, 400, 12);
            let batch = PairThresholds::measure(&t, 6);
            for k in [2usize, 3, 5, 9] {
                let deltas = segment_deltas(&t, k, 6);
                let mut state = AffinityState::new(6);
                for d in &deltas {
                    assert!(state.absorb(d).unwrap());
                }
                assert_eq!(
                    sorted_pairs(&state.finalize()),
                    sorted_pairs(&batch),
                    "seed {} k {}",
                    seed,
                    k
                );
            }
        }
    }

    #[test]
    fn absorb_rejects_mismatched_w_max() {
        let t = random_trace(1, 100, 7);
        let d = AffinityDelta::measure(0, &t, 8, 0, t.len());
        let mut state = AffinityState::new(6);
        assert!(state.absorb(&d).is_err());
        assert!(state.is_empty());
    }

    #[test]
    fn duplicate_deltas_are_idempotent() {
        let t = random_trace(2, 200, 9);
        let deltas = segment_deltas(&t, 4, 5);
        let mut once = AffinityState::new(5);
        for d in &deltas {
            once.absorb(d).unwrap();
        }
        let mut twice = AffinityState::new(5);
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
        let d = AffinityDelta::measure(0, &t, 6, 0, t.len());
        assert_eq!(d.core_events(), t.len() as u64);
        let mut state = AffinityState::new(6);
        state.absorb(&d).unwrap();
        assert_eq!(
            sorted_pairs(&state.finalize()),
            sorted_pairs(&PairThresholds::measure(&t, 6))
        );
    }

    #[test]
    fn snapshot_round_trip_is_canonical() {
        let t = random_trace(4, 250, 10);
        let mut state = AffinityState::new(6);
        for d in &segment_deltas(&t, 3, 6) {
            state.absorb(d).unwrap();
        }
        let bytes = state.to_bytes();
        let back = AffinityState::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(
            sorted_pairs(&back.finalize()),
            sorted_pairs(&state.finalize())
        );
    }

    #[test]
    fn snapshot_rejects_damage() {
        let mut state = AffinityState::new(4);
        let t = TrimmedTrace::from_indices([1, 2, 1, 2, 3]);
        state
            .absorb(&AffinityDelta::measure(0, &t, 4, 0, t.len()))
            .unwrap();
        let bytes = state.to_bytes();
        assert!(AffinityState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(AffinityState::from_bytes(b"XXXX").is_err());
    }

    #[test]
    fn partial_fold_filters_unabsorbed_coverage() {
        // Absorb only the first half of an alternating trace: the pair is
        // credited for the absorbed occurrences only, and survives the
        // filter over the partial occurrence counts.
        let t = TrimmedTrace::from_indices([1, 2, 1, 2, 1, 2, 1, 2]);
        let deltas = segment_deltas(&t, 2, 4);
        assert!(deltas.len() > 1);
        let mut state = AffinityState::new(4);
        state.absorb(&deltas[0]).unwrap();
        let partial = state.finalize();
        assert_eq!(partial.get(BlockId(1), BlockId(2)), Some(2));
    }
}
