//! The paper's primary contribution: whole-program code layout optimization
//! driven by locality models, for defensiveness and politeness in shared
//! instruction cache.
//!
//! Two locality models × two transformations give the paper's four
//! pipelines, named in [`PIPELINES`]:
//!
//! | model \ granularity | function              | basic block     |
//! |---------------------|-----------------------|-----------------|
//! | w-window affinity   | `"function-affinity"` | `"bb-affinity"` |
//! | TRG                 | `"function-trg"`      | `"bb-trg"`      |
//!
//! The end-to-end pipeline mirrors §II-F and is first-class in
//! [`pipeline`]: a [`pipeline::LocalityModel`] (w-window affinity, TRG)
//! composed with a [`pipeline::Transform`] (function reorder,
//! inter-procedural BB reorder), built by name with [`build_pipeline`]:
//!
//! 1. [`profile`] — execute the program on its *test* input, recording the
//!    whole-program function trace and basic-block trace; trim, optionally
//!    sample, and prune to the hottest blocks,
//! 2. model — run w-window affinity ([`clop_affinity`]) or TRG
//!    ([`clop_trg`]) over the chosen granularity's trace,
//! 3. transform — reorder functions wholesale, or perform the
//!    inter-procedural basic-block reordering of [`bbreorder`]
//!    (pre-processing adds the entry-jump stubs and explicit fall-through
//!    jumps that free every block to move; post-processing sanity-checks
//!    the result),
//! 4. [`eval`] — link the optimized layout and measure it, solo or in
//!    co-run, with the simulators in [`clop_cachesim`]; the memoizing
//!    [`engine::Engine`] deduplicates identical evaluations process-wide.
//!
//! Every pipeline run is machine-checked by `clop-verify` before it is
//! returned (well-formedness of the prepared module plus semantic
//! equivalence of the transform); set `CLOP_VERIFY=0` to skip the stage.
//! Library paths are panic-free on hostile input, enforced by
//! `clippy::unwrap_used`/`expect_used` on non-test code.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod bbreorder;
pub mod engine;
pub mod eval;
pub mod incremental;
pub mod optimizer;
pub mod pipeline;
pub mod prefilter;
pub mod profile;
pub mod report;
pub mod search;

pub use baseline::{
    intra_procedural_block_order, pettis_hansen_function_order, preprocess_for_intra_reordering,
};
pub use bbreorder::{preprocess_for_bb_reordering, BbReorderError};
pub use engine::{Engine, EngineStats};
pub use eval::{timed_fetch_stream, timed_fetch_stream_from, EvalConfig, ProgramRun};
pub use incremental::{AnalysisParams, IncrementalStore, LayoutResult, VersionState};
pub use optimizer::{OptError, OptimizedProgram};
pub use pipeline::{
    build_pipeline, BbReorder, FunctionReorder, LocalityModel, Pipeline, PipelineParams, Transform,
    TrgModel, WWindowAffinity, PIPELINES,
};
pub use prefilter::{
    prefilter_pipelines, rank_pipelines_static, static_score, StaticRankEntry, StaticRanking,
    ORIGINAL_LAYOUT,
};
pub use profile::{Profile, ProfileConfig};
pub use report::{OptimizationReport, SideReport};
pub use search::{exhaustive_best_function_order, random_search_function_order, SearchOutcome};

/// Convenient import surface.
pub mod prelude {
    pub use crate::bbreorder::{preprocess_for_bb_reordering, BbReorderError};
    pub use crate::engine::{Engine, EngineStats};
    pub use crate::eval::{timed_fetch_stream, EvalConfig, ProgramRun};
    pub use crate::optimizer::{OptError, OptimizedProgram};
    pub use crate::pipeline::{
        build_pipeline, LocalityModel, Pipeline, PipelineParams, Transform, PIPELINES,
    };
    pub use crate::profile::{Profile, ProfileConfig};
}
