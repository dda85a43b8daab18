//! Code-block traces and the trace analyses shared by the locality models.
//!
//! The paper's entire analysis pipeline consumes *trimmed* code-block traces
//! (Definition 1): sequences of basic blocks or functions in execution order
//! in which no two consecutive entries are equal. This crate provides:
//!
//! * [`BlockId`] / [`BlockMap`] — the index mapping that the paper's
//!   instrumentation phase records alongside the trace,
//! * [`TrimmedTrace`] — a trace with the trimming invariant enforced at the
//!   type level,
//! * [`footprint`] — the all-window average footprint curve (over the
//!   windowed footprints `fp<a,b>` of Definition 2) used by the
//!   miss-probability model,
//! * [`prune`] — hot-block trace pruning (the paper keeps the 10,000 most
//!   frequently executed blocks, retaining >90% of occurrences),
//! * [`sample`] — interval trace sampling,
//! * [`stack`] — LRU stack processing (the paper's §II-F "Stack
//!   Processing") producing reuse distances in O(log B) per access via an
//!   Olken-style stamp + Fenwick-tree engine (the paper's literal
//!   walk-based structure is a test oracle in the dev-only `clop-oracle`
//!   crate),
//! * [`histogram`] — reuse-distance histograms and miss-ratio projection,
//! * [`io`] — the CLTC trace container and mapping files: every writer
//!   emits version 2, and every reader accepts exactly that,
//! * [`columnar`] — the CLTC v2 columnar payload: independently decodable
//!   delta blocks with per-block CRCs, zero-copy block iteration, and
//!   block-granular salvage,
//! * [`shard`] — deterministic window-overlap trace sharding (plus
//!   [`shards_adaptive`], which bounds the shard count by what can actually
//!   pay off on the current machine),
//! * [`shardfile`] — the CLSH on-disk container carrying one standalone
//!   shard segment for streaming ingestion,
//! * [`stats`] — the one trace index ([`TraceStats`]): heat order,
//!   occurrence counts, first-appearance order and the heat-ranked events
//!   that pruning, both locality models and layout construction read, in
//!   memory bounded by the trace rather than its largest block id; its
//!   shard fold ([`StatsState`]) rebuilds it from streamed cores.
//!
//! Library paths are panic-free on hostile input: decoders return
//! structured [`clop_util::ClopError`]s (enforced by
//! `clippy::unwrap_used`/`expect_used` on the non-test code and by the
//! fault-injection suite in `tests/fault_injection.rs`).

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod columnar;
pub mod footprint;
pub mod histogram;
pub mod io;
pub mod mapping;
pub mod prune;
pub mod sample;
pub mod shard;
pub mod shardfile;
pub mod stack;
pub mod stats;
pub mod trace;

pub use columnar::{ColumnarReader, ColumnarSalvage};
pub use histogram::ReuseHistogram;
pub use io::{read_trace, read_trace_repaired, read_trimmed, write_trace, RepairReport};
pub use mapping::{BlockMap, Granularity};
pub use prune::{PruneReport, Pruner};
pub use shard::{shards, shards_adaptive, Shard};
pub use shardfile::{
    read_shard, read_shard_repaired, split_shards_columnar, write_shard, ShardFile,
};
pub use stack::LruStack;
pub use stats::{StatsState, TraceStats};
pub use trace::{BlockId, Trace, TrimmedTrace};
