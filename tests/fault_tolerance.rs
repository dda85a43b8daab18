//! Degenerate-input fault tolerance, end to end through the public crate
//! surface: pathological but *valid* modules must flow through every
//! optimizer pipeline and come back as either a layout or a structured
//! [`OptError`] — never a panic. This is the whole-workspace complement
//! to the per-crate fault-injection suites (`clop-trace`, `clop-ir`).

use code_layout_opt::core::{build_pipeline, Engine, OptError, PipelineParams, PIPELINES};
use code_layout_opt::ir::prelude::*;

/// One function, one block, no edges: the smallest possible program.
fn single_block() -> Module {
    let mut b = ModuleBuilder::new("single");
    b.function("main").ret("only", 8).finish();
    b.build().expect("single-block module is valid")
}

/// A module whose entry immediately returns while a second function is
/// completely unreachable — the profile sees exactly one block, so both
/// affinity and TRG models get a degenerate (edge-free) input.
fn unreachable_function() -> Module {
    let mut b = ModuleBuilder::new("unreachable");
    b.function("main").ret("entry", 16).finish();
    b.function("ghost")
        .jump("a", 32, "b")
        .jump("b", 32, "a")
        .finish();
    b.build().expect("unreachable-function module is valid")
}

/// An infinite self-loop: the interpreter's step budget truncates the
/// run, so the profile exists but is a single block repeated.
fn tight_self_loop() -> Module {
    let mut b = ModuleBuilder::new("spin");
    b.function("main").jump("spin", 4, "spin").finish();
    b.build().expect("self-loop module is valid")
}

/// A function whose entry branch always falls through to a return —
/// a never-taken edge, so affinity windows see a straight line.
fn never_taken_branch() -> Module {
    let mut b = ModuleBuilder::new("straight");
    b.function("main")
        .branch("entry", 8, CondModel::Bernoulli(0.0), "cold", "exit")
        .ret("exit", 8)
        .ret("cold", 8)
        .finish();
    b.build().expect("never-taken module is valid")
}

fn degenerate_modules() -> Vec<(&'static str, Module)> {
    vec![
        ("single block", single_block()),
        ("unreachable function", unreachable_function()),
        ("tight self-loop", tight_self_loop()),
        ("never-taken branch", never_taken_branch()),
    ]
}

/// Every optimizer either produces a layout or reports a structured
/// error; `EmptyProfile` is the only degenerate-specific outcome allowed.
#[test]
fn all_pipelines_survive_degenerate_cfgs() {
    for (what, module) in degenerate_modules() {
        for name in PIPELINES {
            let params = PipelineParams::for_pipeline(name).expect("a paper pipeline");
            let pipeline = build_pipeline(name, &params).expect("a paper pipeline");
            match pipeline.optimize(&module) {
                Ok(opt) => {
                    // A produced layout must cover the module it came from.
                    assert_eq!(
                        opt.module.functions.len(),
                        module.functions.len(),
                        "{}: {} changed the function count",
                        what,
                        name
                    );
                }
                Err(e) => {
                    // Structured, renderable, convertible.
                    let shown = e.to_string();
                    assert!(!shown.is_empty(), "{}: {} empty error", what, name);
                    let c: clop_util::ClopError = e.into();
                    assert!(
                        matches!(c, clop_util::ClopError::Pipeline { .. }),
                        "{}: {} converted to {:?}",
                        what,
                        name,
                        c
                    );
                }
            }
        }
    }
}

/// The memoizing engine gives the same answer (hit or miss) for
/// degenerate modules, and an error result does not poison the cache.
#[test]
fn engine_memoizes_degenerate_results_consistently() {
    let engine = Engine::new();
    for (what, module) in degenerate_modules() {
        for name in PIPELINES {
            let params = PipelineParams::for_pipeline(name).expect("a paper pipeline");
            let a = engine.optimize(&module, name, &params);
            let b = engine.optimize(&module, name, &params);
            match (a, b) {
                (Ok(x), Ok(y)) => assert!(
                    std::sync::Arc::ptr_eq(&x, &y),
                    "{}: {} second call not memoized",
                    what,
                    name
                ),
                (Err(x), Err(y)) => assert_eq!(x, y, "{}: {} inconsistent errors", what, name),
                _ => panic!("{}: {} flip-flopped between Ok and Err", what, name),
            }
        }
    }
}

/// Unknown pipeline names are a first-class error, not a panic, through
/// both the direct and the engine paths.
#[test]
fn unknown_pipeline_is_reported_not_panicked() {
    let module = single_block();
    let params = PipelineParams::for_pipeline("function-affinity").expect("a paper pipeline");
    let engine = Engine::new();
    let err = engine
        .optimize(&module, "no-such-pipeline", &params)
        .expect_err("unknown name must fail");
    assert_eq!(err, OptError::UnknownPipeline("no-such-pipeline".into()));
    let c: clop_util::ClopError = err.into();
    match c {
        clop_util::ClopError::Pipeline { pipeline, detail } => {
            assert_eq!(pipeline, "no-such-pipeline");
            assert!(detail.contains("unknown pipeline"), "{}", detail);
            for name in PIPELINES {
                assert!(detail.contains(name), "{}", detail);
            }
        }
        other => panic!("unexpected variant {:?}", other),
    }
}
