//! End-to-end integration of the full pipeline: builder → interpreter →
//! trace conditioning → locality models → transformations → linking →
//! cache and timing simulation.

use code_layout_opt::core::{
    build_pipeline, EvalConfig, OptError, OptimizedProgram, PipelineParams, ProfileConfig,
    ProgramRun, PIPELINES,
};
use code_layout_opt::ir::prelude::*;

/// Run the pipeline `name` on `m` at `params`.
fn optimize_at(
    name: &str,
    params: &PipelineParams,
    m: &Module,
) -> Result<OptimizedProgram, OptError> {
    build_pipeline(name, params)
        .expect("a paper pipeline")
        .optimize(m)
}

/// Run the pipeline `name` on `m` at its default parameters.
fn optimize(name: &str, m: &Module) -> Result<OptimizedProgram, OptError> {
    let params = PipelineParams::for_pipeline(name).expect("a paper pipeline");
    optimize_at(name, &params, m)
}

/// A program whose original layout provably conflicts: three 2 KB hot
/// functions are each separated by a 2 KB cold blob, so in an 8 KB 2-way
/// cache (4 KB set period) all three hot bodies land in the *same* 32-set
/// band — three ways of demand against two of capacity, a guaranteed
/// cyclic thrash. Packing the hot functions contiguously (what every
/// optimizer here does) spreads them across both bands and fits.
fn victim() -> Module {
    let mut b = ModuleBuilder::new("victim");
    b.function("main")
        .call("c1", 32, "hot_a", "c2")
        .call("c2", 32, "hot_b", "c3")
        .call("c3", 32, "hot_c", "back")
        .branch(
            "back",
            32,
            CondModel::LoopCounter { trip: 3000 },
            "c1",
            "end",
        )
        .ret("end", 16)
        .finish();
    let hot = ["hot_a", "hot_b", "hot_c"];
    for i in 0..8 {
        b.function(&format!("cold{}", i))
            .jump("pad0", 1024, "pad1")
            .ret("pad1", 1024)
            .finish();
        if i < hot.len() {
            b.function(hot[i])
                .jump("top", 1024, "bottom")
                .ret("bottom", 1024)
                .finish();
        }
    }
    b.build().expect("well-formed")
}

/// Evaluate with a small 2-way cache so the victim's conflict structure is
/// decisive.
fn eval() -> EvalConfig {
    EvalConfig {
        cache: code_layout_opt::cachesim::CacheConfig::new(8 * 1024, 2, 64),
        ..Default::default()
    }
}

#[test]
fn every_optimizer_produces_a_linkable_program() {
    let m = victim();
    for name in PIPELINES {
        let opt = optimize(name, &m).expect("no wide dispatch");
        assert!(opt.layout.is_permutation_of(&opt.module), "{}", name);
        let run = ProgramRun::evaluate(&opt.module, &opt.layout, &eval());
        assert!(run.instructions > 0, "{}", name);
        assert!(!run.stream.is_empty(), "{}", name);
    }
}

#[test]
fn function_affinity_beats_original_layout_on_victim() {
    let m = victim();
    let base = ProgramRun::evaluate(&m, &Layout::original(&m), &eval());
    let opt = optimize("function-affinity", &m).unwrap();
    let run = ProgramRun::evaluate(&opt.module, &opt.layout, &eval());
    let (b, o) = (base.solo_sim().miss_ratio(), run.solo_sim().miss_ratio());
    assert!(o < b, "optimized {} vs baseline {}", o, b);
}

#[test]
fn bb_affinity_beats_original_layout_on_victim() {
    let m = victim();
    let base = ProgramRun::evaluate(&m, &Layout::original(&m), &eval());
    let opt = optimize("bb-affinity", &m).unwrap();
    let run = ProgramRun::evaluate(&opt.module, &opt.layout, &eval());
    let (b, o) = (base.solo_sim().miss_ratio(), run.solo_sim().miss_ratio());
    assert!(o < b, "optimized {} vs baseline {}", o, b);
}

#[test]
fn optimization_preserves_execution_semantics() {
    // The transformed module must execute the same work: same function
    // activation sequence and same dynamic instructions modulo stubs.
    let m = victim();
    let opt = optimize("bb-affinity", &m).unwrap();
    let cfg = ExecConfig::default().seeded(123);
    let orig = Interpreter::new(cfg).run(&m);
    let tran = Interpreter::new(cfg).run(&opt.module);
    assert_eq!(orig.func_trace, tran.func_trace);
    // The pre-processed module adds one 1-instruction stub per activation.
    let stub_events = tran.func_trace.len() as u64;
    assert_eq!(orig.instructions + stub_events, tran.instructions);
}

#[test]
fn profiling_and_evaluation_use_different_inputs() {
    // The optimizer profiles with its own ExecConfig; evaluation uses
    // another. A mismatch must not panic or degenerate: test-input profile,
    // reference-input evaluation.
    let m = victim();
    let mut params = PipelineParams::for_pipeline("function-affinity").unwrap();
    params.profile = ProfileConfig::with_exec(ExecConfig::with_fuel(5_000).seeded(1));
    let opt = optimize_at("function-affinity", &params, &m).unwrap();
    let run = ProgramRun::evaluate(
        &opt.module,
        &opt.layout,
        &EvalConfig {
            exec: ExecConfig::with_fuel(50_000).seeded(2),
            ..eval()
        },
    );
    assert!(run.stream.len() > 1_000);
}

#[test]
fn corun_is_symmetric_under_swap() {
    let m = victim();
    let a = ProgramRun::evaluate(&m, &Layout::original(&m), &eval());
    let r1 = a.corun_sim_nway(&[&a]);
    // Identical streams on both threads: per-thread stats must match.
    assert_eq!(r1.per_tenant[0].accesses, r1.per_tenant[1].accesses);
    assert_eq!(r1.per_tenant[0].misses, r1.per_tenant[1].misses);
}

#[test]
fn layouts_differ_across_optimizers() {
    let m = victim();
    let fa = optimize("function-affinity", &m).unwrap();
    let ft = optimize("function-trg", &m).unwrap();
    // Both are permutations of the same module but need not be equal; at
    // minimum they must both be valid and deterministic.
    assert!(fa.layout.is_permutation_of(&m));
    assert!(ft.layout.is_permutation_of(&m));
}
