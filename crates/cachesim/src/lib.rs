//! Instruction-cache simulation, shared-cache co-run modelling, footprint
//! theory and the timing model.
//!
//! This crate is the reproduction's measurement substrate, replacing the
//! paper's three instruments:
//!
//! * the **Pin-based CMP L1I simulator** → [`icache`] (a set-associative
//!   LRU cache, the paper's 32 KB / 4-way / 64 B configuration) driven
//!   either solo or by a round-robin SMT interleave of two fetch streams
//!   ([`corun`]) — the *Simulated* measurement channel,
//! * **PAPI hardware counters on a hyper-threaded Xeon** → the *HwLike*
//!   channel: the same cache behind a next-line prefetcher ([`prefetch`])
//!   inside a cycle-accounted SMT core model ([`timing`]), which also
//!   produces execution times, speedups and throughput,
//! * the **footprint theory of shared-cache interference** (Eq 1 and Eq 2
//!   of the paper) → [`model`], which composes a program's reuse-distance
//!   histogram with its peer's footprint curve and defines the formal
//!   defensiveness and politeness scores.
//!
//! Panic discipline: library code returns errors or documents its
//! invariants instead of unwrapping; the lints below enforce
//! `clippy::unwrap_used`/`expect_used` on non-test code.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod corun;
pub mod coschedule;
pub mod icache;
pub mod model;
pub mod multilevel;
pub mod occupancy;
pub mod policy;
pub mod prefetch;
pub mod timing;

pub use config::{CacheConfig, CacheStats};
pub use corun::{
    interleave_many_iter, interleave_round_robin, interleave_round_robin_iter,
    simulate_corun_lines, simulate_corun_nway, simulate_solo_lines, tag_line, tenant_of_line,
    CorunCacheResult, EvictionMatrix, FetchLine, NwayCorunResult, MAX_TENANTS,
};
pub use icache::SetAssocCache;
pub use model::{CompositionModel, InterferenceReport, NwayInterferenceReport, PeerFootprintDist};
pub use multilevel::{simulate_nway_shared_l2, LevelStats, NwaySharedL2, NwayTwoLevelResult};
pub use occupancy::OccupancyMap;
pub use policy::{simulate_with_policy, PolicyCache, ReplacementPolicy};
pub use prefetch::NextLinePrefetchCache;
pub use timing::{InvalidTiming, SmtSimulator, ThreadOutcome, TimedRun, TimingConfig};

/// Convenient import surface.
pub mod prelude {
    pub use crate::config::{CacheConfig, CacheStats};
    pub use crate::corun::{
        interleave_many_iter, interleave_round_robin, interleave_round_robin_iter,
        simulate_corun_lines, simulate_corun_nway, simulate_solo_lines, tag_line, tenant_of_line,
        CorunCacheResult, EvictionMatrix, FetchLine, NwayCorunResult,
    };
    pub use crate::icache::SetAssocCache;
    pub use crate::model::{CompositionModel, InterferenceReport, NwayInterferenceReport};
    pub use crate::multilevel::{
        simulate_nway_shared_l2, LevelStats, NwaySharedL2, NwayTwoLevelResult,
    };
    pub use crate::prefetch::NextLinePrefetchCache;
    pub use crate::timing::{InvalidTiming, SmtSimulator, ThreadOutcome, TimedRun, TimingConfig};
}
