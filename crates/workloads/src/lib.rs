//! Synthetic benchmark suite modelled on SPEC CPU2006's instruction-cache
//! behaviour.
//!
//! The paper evaluates on SPEC CPU2006: 29 programs measured for Figure 4,
//! of which 8 C/C++ programs with non-trivial (or peer-sensitive) L1I miss
//! ratios form the primary evaluation set of Tables I–II and Figures 5–7.
//! SPEC binaries and inputs are unavailable here, so [`gen`] provides a
//! parameterized program generator and [`suite`] instantiates 29 programs —
//! named after their SPEC counterparts — whose *instruction-cache problem
//! shape* matches the paper's story:
//!
//! * a handful of code-heavy programs (gcc-, gobmk-, povray-, perlbench-,
//!   xalancbmk-, gamess-like) whose hot code exceeds the 32 KB L1I and
//!   misses at percent level even solo,
//! * borderline programs (sjeng-, tonto-like) slightly over capacity,
//! * *sensitive* programs (omnetpp-, mcf-like) that fit alone but overflow
//!   when sharing the cache with a peer — near-zero solo miss ratios that
//!   inflate dramatically in co-run,
//! * and a long tail of small-footprint programs with trivial miss ratios.
//!
//! Every workload carries both a *test* input (used for profiling, as in
//! the paper) and a larger, differently-seeded *reference* input (used for
//! evaluation), so the optimizers never see the evaluation run.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod gen;
pub mod scenarios;
pub mod suite;

pub use gen::{Workload, WorkloadSpec};
pub use suite::{
    full_suite, primary_program, probe_program, PrimaryBenchmark, ProbeBenchmark, SuiteEntry,
};

/// Convenient import surface.
pub mod prelude {
    pub use crate::gen::{Workload, WorkloadSpec};
    pub use crate::suite::{
        full_suite, primary_program, probe_program, PrimaryBenchmark, ProbeBenchmark, SuiteEntry,
    };
}
