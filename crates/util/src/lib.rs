//! Dependency-free utilities shared across the workspace.
//!
//! The build environment is fully offline, so everything that would
//! normally come from crates.io lives here instead:
//!
//! - [`rng`]: a small, fast, deterministic PRNG (xoshiro256++ seeded via
//!   SplitMix64) with the handful of sampling helpers the workloads and
//!   interpreter need.
//! - [`json`]: a JSON value type with a pretty printer and a parser —
//!   enough for experiment result emission and golden-file comparison.
//! - [`check`]: a seeded property-test harness (randomized inputs, fixed
//!   seeds, reproducible failures) replacing an external proptest
//!   dependency.
//! - [`bench`]: a micro-benchmark runner for `harness = false` bench
//!   targets, replacing an external criterion dependency.
//! - [`pool`]: a scoped-thread worker pool with deterministic,
//!   input-ordered results, shared by the experiment harness and the
//!   trace analyses.
//! - [`fxhash`]: a fast deterministic hasher for the integer-keyed maps
//!   on the analysis hot paths, replacing an external rustc-hash
//!   dependency.
//! - [`error`]: the workspace-wide [`ClopError`] hierarchy — every
//!   recoverable failure (trace decode, IR parse/build, pipeline,
//!   experiment supervision, I/O) as a structured value instead of a
//!   panic.
//! - [`crc32`]: IEEE CRC-32 for the versioned trace container's payload
//!   checksum.
//! - [`atomicio`]: temp-file + fsync + rename writes, so interrupted runs
//!   never leave torn artifacts.
//! - [`fault`]: deterministic, seeded corruption generators driving the
//!   fault-injection suites.
//! - [`faultnet`]: a seeded fault-injecting stream wrapper (delay, short
//!   read, partial write, duplicate delivery, mid-frame disconnect) for
//!   the network chaos suites.
//! - [`bytes`]: in-memory varint encode/decode for the incremental-state
//!   snapshot formats.
//! - [`vars`]: typed, range-checked reads of the `CLOP_*` configuration
//!   variables, shared by the daemon and the experiment runner.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod atomicio;
pub mod bench;
pub mod bytes;
pub mod check;
pub mod crc32;
pub mod error;
pub mod fault;
pub mod faultnet;
pub mod fxhash;
pub mod json;
pub mod pool;
pub mod rng;
pub mod vars;

pub use atomicio::atomic_write;
pub use check::check;
pub use crc32::crc32;
pub use error::{ClopError, ClopResult, FailureKind};
pub use fxhash::{FxHashMap, FxHashSet};
pub use json::{Json, ToJson};
pub use rng::Rng;
