//! Layout optimization as a service.
//!
//! The batch pipeline assumes the whole trace exists before analysis
//! starts. In a deployment the trace arrives as it is produced: profiling
//! runs emit CLSH shard files (`clop_trace::shardfile`), and consumers
//! want the current best layout *now*, not after the run ends. This crate
//! is the daemon that closes that loop:
//!
//! * **Ingestion** — shards arrive over a TCP socket (`SHARD` command) or
//!   by dropping files into a watched directory
//!   (`<watch_dir>/<version>/*.clsh`). Admission decodes each shard with
//!   the salvaging reader, rejects checksum-silent corruption outright,
//!   and accepts damaged shards only while the salvage drops at most a
//!   configured fraction of declared accesses ([`admission`]).
//! * **Backpressure** — admitted shards enter a bounded queue; when it is
//!   full the daemon answers `-RETRY <ms>` instead of buffering without
//!   limit, and the client re-sends after the hint ([`server`]).
//! * **Folding** — a worker pool drains the queue in small batches and
//!   absorbs each shard into its program version's
//!   [`clop_core::VersionState`]; absorption is idempotent per shard
//!   sequence number, so duplicate delivery (including post-crash
//!   re-streaming) is harmless.
//! * **Queries** — `QUERY <version> <pipeline>` runs the named
//!   pipeline's locality model against the current fold; once every shard
//!   of a trace is absorbed the answer is byte-identical to the batch
//!   pipeline over the whole trace.
//! * **Checkpoints** — after every `checkpoint_every` folds the version's
//!   state is snapshotted with the artifact-then-marker pattern (atomic
//!   state file, then atomic `.done` marker), so `kill -9` at any instant
//!   leaves either the previous or the new complete checkpoint; resume
//!   loads marked snapshots and convergence is restored by re-streaming
//!   ([`checkpoint`]). Checkpoints rotate (`.state` → `.state.prev`), and
//!   resume quarantines torn or corrupt generations rather than crashing,
//!   falling back to the newest snapshot that still verifies.
//! * **Sessions** — clients talk to the daemon through [`session`]:
//!   per-operation deadlines, capped exponential backoff with
//!   deterministic jitter, and idempotent re-send across reconnects, so
//!   a flaky network degrades throughput instead of correctness.
//! * **Degradation and GC** — under sustained queue pressure the daemon
//!   sheds `QUERY` with `-RETRY` before it ever rejects `SHARD`
//!   (`HEALTH` reports the tier), and optional version-count/byte bounds
//!   evict least-recently-ingested versions ([`server`]).
//! * **Chaos** — [`chaos`] is a seeded fault-injecting TCP proxy
//!   (built on `clop_util::faultnet`) that the soak tests and the
//!   `chaos-proxy` subcommand put between client and daemon.
//!
//! Configuration is environment-driven (`CLOP_SERVE_*`, see [`config`]);
//! the `clop-serve` binary wraps the server plus the client-side
//! subcommands used by `ci/serve_smoke.sh`.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod chaos;
pub mod checkpoint;
pub mod config;
pub mod server;
pub mod session;
pub mod stats;

pub use admission::{admit, Admission};
pub use chaos::ChaosProxy;
pub use config::ServeConfig;
pub use server::Server;
pub use session::{Session, SessionConfig, SessionError};
pub use stats::IngestStats;
