//! Per-version incremental analysis state for layout-as-a-service.
//!
//! A serving daemon ingests CLSH shard files of a program's trace as they
//! are produced and answers layout queries between shards. This module
//! holds the state that makes that sound:
//!
//! * [`VersionState`] — one program version's running fold at fixed
//!   analysis parameters: the affinity fold ([`AffinityState`]), the TRG
//!   fold ([`TrgState`]), and the trace order statistics ([`StatsState`])
//!   the layout stages need. Absorbing a shard advances an *epoch*;
//!   layout-query results, and the fold's trace index they share, are
//!   memoized per epoch, so a query after new shards recomputes while
//!   repeated queries on a quiet version are free.
//! * [`IncrementalStore`] — the process-wide registry of one version's
//!   state each, keyed by program version. The store is created with the
//!   analysis parameters every state folds at (a daemon folds at one
//!   configuration). The folds depend only on the two windows, affinity
//!   `w_max` and TRG `window`; `w_min` and `slots` are read at query time.
//!   So the store refuses to restore a state folded at other windows — a
//!   snapshot from a daemon configured so must not shadow, or be shadowed
//!   by, the state this daemon folds — and adopts a state that differs
//!   only in `w_min` or `slots` at its own parameters.
//!
//! [`VersionState::to_bytes`]/[`VersionState::from_bytes`] give a
//! canonical snapshot (the three sub-folds are themselves canonical), used
//! by the daemon's atomic artifact-then-marker checkpoints: a state
//! resumed from a snapshot and re-fed any suffix of the shard stream —
//! including already-absorbed shards — converges to the identical bytes,
//! because absorption is idempotent per sequence number.

use crate::optimizer::OptError;
use crate::pipeline::{build_pipeline, PipelineParams};
use crate::profile::ProfileConfig;
use clop_affinity::{AffinityConfig, AffinityDelta, AffinityState};
use clop_trace::{BlockId, ShardFile, StatsState, TraceStats};
use clop_trg::{TrgConfig, TrgDelta, TrgState};
use clop_util::bytes::{put_varint, ByteReader};
use clop_util::{ClopError, ClopResult};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The analysis parameters one [`VersionState`] folds at. Both models'
/// parameters are fixed at state creation: a shard is measured into both
/// deltas on arrival, so the windows cannot change mid-stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisParams {
    /// Affinity model window range (defaults to [`AffinityConfig`]'s
    /// `w_min`/`w_max`).
    pub affinity: AffinityConfig,
    /// TRG model window / slot configuration (defaults to
    /// [`TrgConfig`]'s cache-derived window).
    pub trg: TrgConfig,
}

impl AnalysisParams {
    /// The pipeline parameters equivalent to this state's analysis
    /// parameters (profiling config is irrelevant to a streamed trace;
    /// `jobs` never changes results).
    pub fn pipeline_params(&self) -> PipelineParams {
        PipelineParams {
            affinity: self.affinity,
            trg: self.trg,
            profile: ProfileConfig::default(),
            jobs: 1,
        }
    }
}

/// A memoized layout-query result, tagged with the epoch it was computed
/// at. A result is current only while its epoch matches the state's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayoutResult {
    /// The name of the pipeline that produced the order.
    pub pipeline: String,
    /// The state epoch the order was computed at.
    pub epoch: u64,
    /// The model's placement sequence over the streamed trace.
    pub order: Vec<BlockId>,
}

/// Snapshot format magic for [`VersionState::to_bytes`].
const STATE_MAGIC: &[u8; 4] = b"CLVS";

/// One program version's incremental analysis state.
#[derive(Debug, Default)]
pub struct VersionState {
    params: AnalysisParams,
    affinity: AffinityState,
    trg: TrgState,
    stats: StatsState,
    /// Bumped on every non-duplicate absorption; memo entries from older
    /// epochs are stale. Not persisted — a resumed state starts at the
    /// number of absorbed shards, which is just as monotonic.
    epoch: u64,
    memo: HashMap<String, Arc<LayoutResult>>,
    /// The fold's trace index at this epoch, built by the first query.
    index: OnceLock<TraceStats>,
}

impl VersionState {
    /// An empty state folding at `params`.
    pub fn new(params: AnalysisParams) -> VersionState {
        VersionState {
            params,
            affinity: AffinityState::new(params.affinity.w_max),
            trg: TrgState::new(params.trg.window),
            stats: StatsState::new(),
            epoch: 0,
            memo: HashMap::new(),
            index: OnceLock::new(),
        }
    }

    /// The parameters this state folds at.
    pub fn params(&self) -> &AnalysisParams {
        &self.params
    }

    /// The affinity fold.
    pub fn affinity_state(&self) -> &AffinityState {
        &self.affinity
    }

    /// The TRG fold.
    pub fn trg_state(&self) -> &TrgState {
        &self.trg
    }

    /// The trace order-statistics fold.
    pub fn stats(&self) -> &StatsState {
        &self.stats
    }

    /// The trace index of the fold ([`StatsState::finalize`]), built once
    /// per epoch and shared by every pipeline queried at that epoch.
    pub fn index(&self) -> &TraceStats {
        self.index.get_or_init(|| self.stats.finalize())
    }

    /// The invalidation epoch: bumped on every non-duplicate absorption.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of distinct shards absorbed.
    pub fn shards_absorbed(&self) -> u64 {
        self.stats.shards_absorbed()
    }

    /// True when shard `seq` has been absorbed.
    pub fn contains(&self, seq: u64) -> bool {
        self.stats.contains(seq)
    }

    /// Measure both analysis deltas from a decoded shard and fold them in.
    /// Returns `Ok(false)` (and changes nothing) when the shard's sequence
    /// number was already absorbed.
    pub fn absorb_shard(&mut self, shard: &ShardFile) -> ClopResult<bool> {
        if self.stats.contains(shard.seq) {
            return Ok(false);
        }
        let index = TraceStats::of(&shard.trace);
        let ad = AffinityDelta::measure_indexed(
            shard.seq,
            &index,
            self.params.affinity.w_max,
            shard.core_start,
            shard.core_end,
        );
        let td = TrgDelta::measure_indexed(
            shard.seq,
            &index,
            self.params.trg.window,
            shard.core_start,
            shard.core_end,
        );
        self.affinity.absorb(&ad)?;
        self.trg.absorb(&td)?;
        self.stats.absorb(shard.seq, shard.core());
        self.epoch += 1;
        self.memo.clear();
        self.index = OnceLock::new();
        Ok(true)
    }

    /// Run the named pipeline's locality model against the
    /// current fold. Results are memoized per pipeline name and served
    /// until the next non-duplicate shard moves the epoch.
    pub fn layout_query(&mut self, pipeline: &str) -> ClopResult<Arc<LayoutResult>> {
        if let Some(hit) = self.memo.get(pipeline) {
            if hit.epoch == self.epoch {
                return Ok(Arc::clone(hit));
            }
        }
        let params = self.params.pipeline_params();
        let pipe = build_pipeline(pipeline, &params)
            .ok_or_else(|| ClopError::from(OptError::UnknownPipeline(pipeline.into())))?;
        let order = pipe.model.sequence_incremental(self).ok_or_else(|| {
            ClopError::pipeline(
                pipeline,
                "model has no incremental path at this state's parameters",
            )
        })?;
        let result = Arc::new(LayoutResult {
            pipeline: pipeline.to_string(),
            epoch: self.epoch,
            order,
        });
        self.memo.insert(pipeline.to_string(), Arc::clone(&result));
        Ok(result)
    }

    /// Canonical binary snapshot (sub-folds serialize canonically; the
    /// memo and epoch are derived state and excluded).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(STATE_MAGIC);
        put_varint(&mut buf, u64::from(self.params.affinity.w_min));
        put_varint(&mut buf, u64::from(self.params.affinity.w_max));
        put_varint(&mut buf, self.params.trg.window as u64);
        put_varint(&mut buf, self.params.trg.slots as u64);
        for blob in [
            self.affinity.to_bytes(),
            self.trg.to_bytes(),
            self.stats.to_bytes(),
        ] {
            put_varint(&mut buf, blob.len() as u64);
            buf.extend_from_slice(&blob);
        }
        buf
    }

    /// Decode a snapshot written by [`VersionState::to_bytes`]. The epoch
    /// restarts at the number of absorbed shards.
    pub fn from_bytes(bytes: &[u8]) -> ClopResult<VersionState> {
        let mut r = ByteReader::new(bytes);
        if r.bytes(4, "version-state magic")? != STATE_MAGIC {
            return Err(ClopError::trace_format("not a version-state snapshot"));
        }
        let w_min = r.varint_u32("affinity w_min")?;
        let w_max = r.varint_u32("affinity w_max")?;
        let window = r.varint_usize("trg window")?;
        let slots = r.varint_usize("trg slots")?;
        let mut blobs = Vec::with_capacity(3);
        for what in ["affinity blob", "trg blob", "stats blob"] {
            let len = r.varint_usize(what)?;
            blobs.push(r.bytes(len, what)?);
        }
        if !r.is_empty() {
            return Err(ClopError::trace_decode(
                r.pos() as u64,
                "trailing bytes after version-state snapshot",
            ));
        }
        let affinity = AffinityState::from_bytes(blobs[0])?;
        let trg = TrgState::from_bytes(blobs[1])?;
        let stats = StatsState::from_bytes(blobs[2])?;
        let params = AnalysisParams {
            affinity: AffinityConfig { w_min, w_max },
            trg: TrgConfig { window, slots },
        };
        if affinity.w_max() != w_max.max(2) || trg.window() != window {
            return Err(ClopError::trace_format(
                "version-state snapshot parameters disagree with sub-folds",
            ));
        }
        let epoch = stats.shards_absorbed();
        Ok(VersionState {
            params,
            affinity,
            trg,
            stats,
            epoch,
            memo: HashMap::new(),
            index: OnceLock::new(),
        })
    }
}

/// Lock a store mutex, tolerating poison (same policy as `engine::lock`:
/// all mutations are single statements, the map stays consistent).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The process-wide registry of incremental states: one per program
/// version, every one folding at the store's parameters.
pub struct IncrementalStore {
    params: AnalysisParams,
    versions: Mutex<HashMap<String, Arc<Mutex<VersionState>>>>,
}

impl IncrementalStore {
    /// An empty store whose states fold at `params`.
    pub fn new(params: AnalysisParams) -> IncrementalStore {
        IncrementalStore {
            params,
            versions: Mutex::default(),
        }
    }

    /// The state for `version`, created empty on first use.
    pub fn state(&self, version: &str) -> Arc<Mutex<VersionState>> {
        Arc::clone(
            lock(&self.versions)
                .entry(version.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(VersionState::new(self.params)))),
        )
    }

    /// The state for `version` if one is registered; unlike
    /// [`IncrementalStore::state`], a miss registers nothing.
    pub fn get(&self, version: &str) -> Option<Arc<Mutex<VersionState>>> {
        lock(&self.versions).get(version).map(Arc::clone)
    }

    /// Register a state restored from a checkpoint under `version`,
    /// replacing any state already registered. A state folded at other
    /// windows (affinity `w_max`, TRG `window`) than the store's is
    /// refused and registers nothing; one that differs only in the
    /// query-time `w_min` or `slots` is registered at the store's
    /// parameters.
    pub fn restore(
        &self,
        version: &str,
        mut state: VersionState,
    ) -> ClopResult<Arc<Mutex<VersionState>>> {
        if state.affinity.w_max() != self.params.affinity.w_max.max(2)
            || state.trg.window() != self.params.trg.window
        {
            return Err(ClopError::trace_format(format!(
                "state of {} was folded at affinity w_max {} and TRG window {}, \
                 not at this store's {} and {}",
                version,
                state.affinity.w_max(),
                state.trg.window(),
                self.params.affinity.w_max.max(2),
                self.params.trg.window
            )));
        }
        state.params = self.params;
        state.memo.clear();
        let arc = Arc::new(Mutex::new(state));
        lock(&self.versions).insert(version.to_string(), Arc::clone(&arc));
        Ok(arc)
    }

    /// All registered states with their version names, sorted by name for
    /// deterministic iteration (checkpoint-all, shutdown flush).
    pub fn states(&self) -> Vec<(String, Arc<Mutex<VersionState>>)> {
        let map = lock(&self.versions);
        let mut entries: Vec<(String, Arc<Mutex<VersionState>>)> = map
            .iter()
            .map(|(v, s)| (v.clone(), Arc::clone(s)))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Drop the state registered under `version` — the GC eviction path.
    /// Returns whether one was registered. Queries for the version
    /// afterwards see a fresh empty fold; re-streaming the version's
    /// shards rebuilds it.
    pub fn remove_version(&self, version: &str) -> bool {
        lock(&self.versions).remove(version).is_some()
    }

    /// Version names with registered state, sorted.
    pub fn versions(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.versions).keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Number of registered states.
    pub fn len(&self) -> usize {
        lock(&self.versions).len()
    }

    /// True when no state is registered.
    pub fn is_empty(&self) -> bool {
        lock(&self.versions).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_trace::shardfile::{read_shard, split_shards_columnar};
    use clop_trace::TrimmedTrace;

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

    fn params() -> AnalysisParams {
        AnalysisParams {
            affinity: AffinityConfig::up_to(8),
            trg: TrgConfig {
                window: 16,
                slots: 4,
            },
        }
    }

    fn shard_files(t: &TrimmedTrace, pieces: usize, p: &AnalysisParams) -> Vec<ShardFile> {
        split_shards_columnar(t, pieces, p.affinity.w_max, p.trg.window)
            .iter()
            .map(|b| read_shard(&mut b.as_slice()).unwrap())
            .collect()
    }

    #[test]
    fn folded_queries_match_batch_models() {
        let p = params();
        let t = random_trace(7, 900, 12);
        let mut state = VersionState::new(p);
        for sf in shard_files(&t, 5, &p).iter().rev() {
            state.absorb_shard(sf).unwrap();
        }
        let pp = p.pipeline_params();
        for name in ["function-affinity", "function-trg"] {
            let got = state.layout_query(name).unwrap();
            let batch = build_pipeline(name, &pp).unwrap().model.sequence(&t);
            assert_eq!(got.order, batch, "{}", name);
        }
    }

    #[test]
    fn duplicate_shards_leave_epoch_and_results_alone() {
        let p = params();
        let t = random_trace(8, 400, 9);
        let files = shard_files(&t, 3, &p);
        let mut state = VersionState::new(p);
        for sf in &files {
            assert!(state.absorb_shard(sf).unwrap());
        }
        let epoch = state.epoch();
        let before = state.layout_query("function-affinity").unwrap();
        for sf in &files {
            assert!(!state.absorb_shard(sf).unwrap());
        }
        assert_eq!(state.epoch(), epoch);
        let after = state.layout_query("function-affinity").unwrap();
        assert!(Arc::ptr_eq(&before, &after), "memo must survive duplicates");
    }

    #[test]
    fn new_shards_invalidate_memoized_queries() {
        let p = params();
        let t = random_trace(9, 600, 10);
        let files = shard_files(&t, 4, &p);
        let mut state = VersionState::new(p);
        state.absorb_shard(&files[0]).unwrap();
        let partial = state.layout_query("function-trg").unwrap();
        for sf in &files[1..] {
            state.absorb_shard(sf).unwrap();
        }
        let full = state.layout_query("function-trg").unwrap();
        assert!(!Arc::ptr_eq(&partial, &full));
        assert!(full.epoch > partial.epoch);
        let batch = build_pipeline("function-trg", &p.pipeline_params())
            .unwrap()
            .model
            .sequence(&t);
        assert_eq!(full.order, batch);
    }

    #[test]
    fn unknown_pipeline_and_mismatched_params_error() {
        let p = params();
        let t = random_trace(10, 200, 6);
        let mut state = VersionState::new(p);
        for sf in &shard_files(&t, 2, &p) {
            state.absorb_shard(sf).unwrap();
        }
        assert!(state.layout_query("no-such-pipeline").is_err());
    }

    #[test]
    fn snapshot_resume_and_restream_is_byte_identical() {
        let p = params();
        let t = random_trace(11, 700, 11);
        let files = shard_files(&t, 5, &p);

        let mut full = VersionState::new(p);
        for sf in &files {
            full.absorb_shard(sf).unwrap();
        }

        let mut half = VersionState::new(p);
        for sf in &files[..2] {
            half.absorb_shard(sf).unwrap();
        }
        let mut resumed = VersionState::from_bytes(&half.to_bytes()).unwrap();
        // Re-stream EVERYTHING, as a post-crash producer would.
        for sf in &files {
            resumed.absorb_shard(sf).unwrap();
        }
        assert_eq!(resumed.to_bytes(), full.to_bytes());
        assert_eq!(
            resumed.layout_query("function-affinity").unwrap().order,
            full.layout_query("function-affinity").unwrap().order
        );
    }

    #[test]
    fn snapshot_rejects_damage() {
        let p = params();
        let t = random_trace(12, 150, 7);
        let mut state = VersionState::new(p);
        for sf in &shard_files(&t, 2, &p) {
            state.absorb_shard(sf).unwrap();
        }
        let bytes = state.to_bytes();
        assert!(VersionState::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(VersionState::from_bytes(b"XXXXXX").is_err());
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(VersionState::from_bytes(&wrong_magic).is_err());
    }

    #[test]
    fn store_keys_by_version() {
        let store = IncrementalStore::new(params());
        let a = store.state("v1");
        let b = store.state("v1");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.lock().unwrap().params(), &params());
        let d = store.state("v2");
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(store.versions(), vec!["v1".to_string(), "v2".to_string()]);
        assert_eq!(store.len(), 2);
        assert!(Arc::ptr_eq(&a, &store.get("v1").unwrap()));
        assert!(store.get("v3").is_none());
        assert_eq!(store.len(), 2, "a lookup miss registers nothing");
    }

    #[test]
    fn restore_refuses_a_state_folded_at_other_windows() {
        let store = IncrementalStore::new(params());
        let mut other_window = params();
        other_window.trg.window = 32;
        let mut other_w_max = params();
        other_w_max.affinity.w_max = 20;
        for other in [other_window, other_w_max] {
            assert!(store.restore("v1", VersionState::new(other)).is_err());
            assert!(store.is_empty(), "a refused state registers nothing");
        }
        // `w_min` and `slots` are read at query time: the fold is kept and
        // adopts the store's parameters.
        let t = random_trace(14, 240, 11);
        let mut query_time = params();
        query_time.affinity.w_min = 3;
        query_time.trg.slots = 7;
        let mut state = VersionState::new(query_time);
        for sf in &shard_files(&t, 3, &query_time) {
            state.absorb_shard(sf).unwrap();
        }
        let folds = (
            state.affinity_state().to_bytes(),
            state.trg_state().to_bytes(),
        );
        let arc = store.restore("v1", state).unwrap();
        let mut got = arc.lock().unwrap();
        assert_eq!(got.params(), &params());
        assert_eq!(
            (got.affinity_state().to_bytes(), got.trg_state().to_bytes()),
            folds
        );
        let mut fresh = VersionState::new(params());
        for sf in &shard_files(&t, 3, &params()) {
            fresh.absorb_shard(sf).unwrap();
        }
        for pipeline in ["bb-affinity", "bb-trg"] {
            assert_eq!(
                got.layout_query(pipeline).unwrap().order,
                fresh.layout_query(pipeline).unwrap().order
            );
        }
    }

    #[test]
    fn remove_version_drops_its_state() {
        let store = IncrementalStore::new(params());
        store.state("v1");
        store.state("v2");
        assert!(store.remove_version("v1"));
        assert_eq!(store.versions(), vec!["v2".to_string()]);
        assert!(!store.remove_version("v1"), "idempotent");
        // A later query starts a fresh empty fold, not a stale one.
        let arc = store.state("v1");
        assert_eq!(arc.lock().unwrap().shards_absorbed(), 0);
    }

    #[test]
    fn restore_replaces_registered_state() {
        let p = params();
        let store = IncrementalStore::new(p);
        let t = random_trace(13, 300, 8);
        {
            let arc = store.state("v1");
            let mut st = arc.lock().unwrap();
            for sf in &shard_files(&t, 2, &p) {
                st.absorb_shard(sf).unwrap();
            }
        }
        let fresh = VersionState::new(p);
        let arc = store.restore("v1", fresh).unwrap();
        assert_eq!(arc.lock().unwrap().shards_absorbed(), 0);
        assert!(Arc::ptr_eq(&arc, &store.state("v1")));
    }
}
