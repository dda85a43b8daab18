//! What a run of the optimization [`pipeline`](crate::pipeline) returns.
//!
//! A pipeline runs the full flow of §II-F on a module: profile on the test
//! input, run its locality model at its transform's granularity, and emit
//! the transformed program with its new layout. Code the profile never saw
//! (cold functions / cold blocks) is appended after the optimized sequence
//! in original order — reference affinity deliberately handles both hot and
//! cold paths the profile *did* see, but can say nothing about unexecuted
//! code. The run yields an [`OptimizedProgram`] or an [`OptError`].

use crate::bbreorder::BbReorderError;
use crate::pipeline::PIPELINES;
use crate::profile::Profile;
use clop_ir::{Layout, Module};
use std::fmt;

/// Why an optimization run failed.
#[derive(Clone, Debug, PartialEq)]
pub enum OptError {
    /// The profiling run produced no events (nothing to model).
    EmptyProfile,
    /// BB reordering could not transform this program (the paper's "N/A"
    /// cases).
    BbReorder(BbReorderError),
    /// The requested pipeline name is not one of [`PIPELINES`].
    UnknownPipeline(String),
    /// The static verifier rejected the pipeline's output (always a bug in
    /// a model or transform; see `clop-verify`). Skipped when
    /// `CLOP_VERIFY=0`.
    Verify(clop_verify::VerifyReport),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::EmptyProfile => write!(f, "profiling produced an empty trace"),
            OptError::BbReorder(e) => write!(f, "basic-block reordering failed: {}", e),
            OptError::UnknownPipeline(name) => write!(
                f,
                "unknown pipeline `{}` (known: {})",
                name,
                PIPELINES.join(", ")
            ),
            OptError::Verify(report) => {
                write!(f, "static verification rejected the result: {}", report)
            }
        }
    }
}

impl std::error::Error for OptError {}

impl From<BbReorderError> for OptError {
    fn from(e: BbReorderError) -> Self {
        OptError::BbReorder(e)
    }
}

impl From<OptError> for clop_util::ClopError {
    fn from(e: OptError) -> Self {
        let pipeline = match &e {
            OptError::UnknownPipeline(name) => name.clone(),
            _ => String::new(),
        };
        clop_util::ClopError::Pipeline {
            pipeline,
            detail: e.to_string(),
        }
    }
}

/// The result of optimizing a program: a (possibly transformed) module plus
/// the layout to link it with.
#[derive(Clone, Debug)]
pub struct OptimizedProgram {
    /// The module to link. Identical to the input for function reordering;
    /// the pre-processed variant for BB reordering.
    pub module: Module,
    /// The optimized layout.
    pub layout: Layout,
    /// Name of the pipeline that produced this (e.g.
    /// `"function-affinity"`).
    pub name: String,
    /// The profile used (kept for reporting: retention, trace sizes).
    pub profile: Profile,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::optimize_named as optimize;
    use clop_ir::prelude::*;

    /// main loops calling f then g; h is never called.
    fn module_with_cold_function() -> Module {
        let mut b = ModuleBuilder::new("t");
        b.function("main")
            .call("c1", 8, "f", "c2")
            .call("c2", 8, "g", "back")
            .branch("back", 8, CondModel::LoopCounter { trip: 30 }, "c1", "end")
            .ret("end", 8)
            .finish();
        b.function("f").ret("fb", 32).finish();
        b.function("g").ret("gb", 32).finish();
        b.function("h").ret("hb", 64).finish();
        b.build().unwrap()
    }

    #[test]
    fn function_affinity_produces_valid_layout() {
        let m = module_with_cold_function();
        let opt = optimize("function-affinity", &m).unwrap();
        assert!(opt.layout.is_permutation_of(&opt.module));
        assert_eq!(opt.module.num_blocks(), m.num_blocks());
        // Cold function h (id 3) is placed last.
        match &opt.layout {
            Layout::FunctionOrder(order) => assert_eq!(order.last(), Some(&FuncId(3))),
            _ => panic!("function optimizer must produce a function order"),
        }
    }

    #[test]
    fn function_trg_produces_valid_layout() {
        let m = module_with_cold_function();
        let opt = optimize("function-trg", &m).unwrap();
        assert!(opt.layout.is_permutation_of(&opt.module));
    }

    #[test]
    fn bb_affinity_transforms_and_reorders() {
        let m = module_with_cold_function();
        let opt = optimize("bb-affinity", &m).unwrap();
        // Pre-processing adds one stub per function.
        assert_eq!(opt.module.num_blocks(), m.num_blocks() + m.num_functions());
        assert!(opt.layout.is_permutation_of(&opt.module));
        assert!(matches!(opt.layout, Layout::BlockOrder(_)));
    }

    #[test]
    fn bb_trg_produces_valid_layout() {
        let m = module_with_cold_function();
        let opt = optimize("bb-trg", &m).unwrap();
        assert!(opt.layout.is_permutation_of(&opt.module));
    }

    #[test]
    fn bb_reordering_propagates_unsupported_dispatch() {
        let mut b = ModuleBuilder::new("interp");
        let names: Vec<String> = (0..16).map(|i| format!("op{}", i)).collect();
        {
            let mut fb = b.function("main");
            let t: Vec<(&str, f64)> = names.iter().map(|s| (s.as_str(), 1.0)).collect();
            fb.switch("dispatch", 64, &t);
            for s in &names {
                fb.ret(s, 8);
            }
            fb.finish();
        }
        let m = b.build().unwrap();
        let err = optimize("bb-affinity", &m).unwrap_err();
        assert!(matches!(err, OptError::BbReorder(_)));
        // Function reordering still works on the same program.
        assert!(optimize("function-affinity", &m).is_ok());
    }

    #[test]
    fn optimizer_is_deterministic() {
        let m = module_with_cold_function();
        for name in PIPELINES {
            match (optimize(name, &m), optimize(name, &m)) {
                (Ok(x), Ok(y)) => assert_eq!(x.layout, y.layout, "{}", name),
                (Err(x), Err(y)) => assert_eq!(x, y),
                _ => panic!("nondeterministic outcome for {}", name),
            }
        }
    }

    #[test]
    fn complete_order_appends_cold_units() {
        use crate::pipeline::complete_order;
        assert_eq!(complete_order([2u32, 0], 4), vec![2, 0, 1, 3]);
        assert_eq!(complete_order([], 3), vec![0, 1, 2]);
        // Duplicates from the model are collapsed.
        assert_eq!(complete_order([1u32, 1, 0], 2), vec![1, 0]);
    }

    #[test]
    fn hot_pair_functions_placed_adjacently() {
        // f and g always called back to back: affinity must keep them
        // adjacent in the function order.
        let m = module_with_cold_function();
        let opt = optimize("function-affinity", &m).unwrap();
        let Layout::FunctionOrder(order) = &opt.layout else {
            unreachable!()
        };
        let pos = |f: u32| order.iter().position(|x| x.0 == f).unwrap() as i64;
        assert_eq!((pos(1) - pos(2)).abs(), 1, "order: {:?}", order);
    }
}
