//! # code-layout-opt
//!
//! Whole-program code layout optimization for *defensiveness* and
//! *politeness* in shared instruction caches — a from-scratch Rust
//! reproduction of Li, Luo, Ding, Hu, Ye, "Code Layout Optimization for
//! Defensiveness and Politeness in Shared Cache" (ICPP 2014).
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`ir`] — miniature whole-program IR, layout/linking and a
//!   trace-emitting interpreter (substitute for the paper's LLVM substrate),
//! * [`trace`] — trimmed code-block traces, pruning, sampling, footprints,
//!   stack processing,
//! * [`cachesim`] — L1 instruction-cache simulator, SMT co-run simulation,
//!   the footprint miss-composition model (Eqs 1–2), and the timing model,
//! * [`affinity`] — the w-window reference-affinity hierarchy,
//! * [`trg`] — temporal-relationship-graph construction and reduction,
//! * [`core`] — the end-to-end profile → model → transform pipeline and
//!   its four instances (function/BB × affinity/TRG), built by name,
//! * [`verify`] — the static IR/layout verifier and cache-set conflict
//!   analyzer backing the pipeline verification stage and `clop-lint`,
//! * [`workloads`] — the synthetic SPEC CPU2006-like benchmark suite.
//!
//! ## Quickstart
//!
//! ```
//! use code_layout_opt::prelude::*;
//!
//! // Build a small program, optimize its layout with the function-affinity
//! // pipeline, and compare instruction-cache miss ratios.
//! let mut b = ModuleBuilder::new("demo");
//! b.function("main")
//!     .call("c1", 16, "work", "back")
//!     .branch("back", 16, CondModel::LoopCounter { trip: 100 }, "c1", "end")
//!     .ret("end", 16)
//!     .finish();
//! b.function("filler").ret("blob", 4096).finish();
//! b.function("work").ret("body", 512).finish();
//! let module = b.build().expect("well-formed");
//!
//! let params = PipelineParams::for_pipeline("function-affinity").expect("a paper pipeline");
//! let pipeline = build_pipeline("function-affinity", &params).expect("a paper pipeline");
//! let optimized = pipeline.optimize(&module).expect("profiling succeeds");
//!
//! let cfg = EvalConfig::default();
//! let base = ProgramRun::evaluate(&module, &Layout::original(&module), &cfg);
//! let opt = ProgramRun::evaluate(&optimized.module, &optimized.layout, &cfg);
//! assert!(opt.solo_sim().miss_ratio() <= base.solo_sim().miss_ratio());
//! ```

pub use clop_affinity as affinity;
pub use clop_cachesim as cachesim;
pub use clop_core as core;
pub use clop_ir as ir;
pub use clop_trace as trace;
pub use clop_trg as trg;
pub use clop_util as util;
pub use clop_verify as verify;
pub use clop_workloads as workloads;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use clop_cachesim::prelude::*;
    pub use clop_core::prelude::*;
    pub use clop_ir::prelude::*;
    pub use clop_trace::{BlockId, Granularity, TrimmedTrace};
    pub use clop_workloads::prelude::*;
}
