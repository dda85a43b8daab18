//! The name table (`PIPELINES`, `build_pipeline`,
//! `PipelineParams::for_pipeline`) and the memoized engine must be two doors
//! into the same machine: every paper pipeline is reachable by its name,
//! and for every name and every example program the direct
//! `Pipeline::optimize` path and `Engine::optimize` produce the identical
//! result (or fail identically on the paper's N/A cases).

use code_layout_opt::core::{build_pipeline, Engine, PipelineParams, ProfileConfig, PIPELINES};
use code_layout_opt::ir::prelude::*;
use code_layout_opt::trace::Granularity;
use code_layout_opt::workloads::{primary_program, PrimaryBenchmark};

/// The inter-procedural example program of Figure 3 (see
/// `examples/interprocedural_bb.rs`).
fn figure3_program() -> Module {
    let mut b = ModuleBuilder::new("fig3");
    let flag = b.global("b", 0);
    b.function("main")
        .call("callx", 16, "X", "cally")
        .call("cally", 16, "Y", "loop")
        .branch(
            "loop",
            16,
            CondModel::LoopCounter { trip: 5000 },
            "callx",
            "end",
        )
        .ret("end", 16)
        .finish();
    b.function("X")
        .branch("X1", 64, CondModel::Bernoulli(0.5), "X2", "X3")
        .ret("X2", 256)
        .effect(Effect::SetGlobal {
            var: flag,
            value: 1,
        })
        .ret("X3", 256)
        .effect(Effect::SetGlobal {
            var: flag,
            value: 2,
        })
        .finish();
    b.function("Y")
        .branch("Y1", 64, CondModel::Bernoulli(0.5), "Y2", "Y3")
        .ret("Y2", 256)
        .ret("Y3", 256)
        .finish();
    b.build().unwrap()
}

/// The direct path (`Pipeline::optimize`) and the memoized engine path
/// (`Engine::optimize`) agree for every pipeline.
fn assert_paths_agree(module: &Module, profile: Option<ProfileConfig>) {
    let engine = Engine::new();
    for name in PIPELINES {
        let mut params = PipelineParams::for_pipeline(name).expect("a paper pipeline");
        if let Some(p) = profile {
            params.profile = p;
        }
        let direct = build_pipeline(name, &params)
            .expect("a paper pipeline")
            .optimize(module);
        let memoized = engine.optimize(module, name, &params);
        match (direct, memoized) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.layout, b.layout, "layouts diverge for {}", name);
                assert_eq!(a.module, b.module, "modules diverge for {}", name);
                assert_eq!(a.name, b.name, "pipeline names diverge for {}", name);
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "errors diverge for {}", name),
            (a, b) => panic!(
                "paths disagree for {}: direct={:?} engine={:?}",
                name,
                a.map(|o| o.layout),
                b.map(|o| o.layout.clone())
            ),
        }
    }
}

/// Each of the four paper pipelines builds under its own name, and no
/// other name builds anything.
#[test]
fn all_four_kinds_are_registered() {
    for name in ["function-affinity", "bb-affinity", "function-trg", "bb-trg"] {
        assert!(
            PIPELINES.contains(&name),
            "{} missing from {:?}",
            name,
            PIPELINES
        );
        let params = PipelineParams::for_pipeline(name).expect("a paper pipeline");
        let pipeline = build_pipeline(name, &params).expect("a paper pipeline");
        assert_eq!(pipeline.name, name);
    }
    let params = PipelineParams::for_pipeline("function-affinity").unwrap();
    assert!(build_pipeline("no-such-pipeline", &params).is_none());
    assert!(PipelineParams::for_pipeline("no-such-pipeline").is_none());
}

#[test]
fn figure3_example_agrees_across_paths() {
    assert_paths_agree(&figure3_program(), None);
}

#[test]
fn quickstart_example_program_agrees_across_paths() {
    // The quickstart example optimizes 445.gobmk with the workload's test
    // input as the profiling run.
    let w = primary_program(PrimaryBenchmark::Gobmk);
    assert_paths_agree(&w.module, Some(ProfileConfig::with_exec(w.test_exec)));
}

#[test]
fn defensive_corun_example_programs_agree_across_paths() {
    for b in [PrimaryBenchmark::Mcf, PrimaryBenchmark::Sjeng] {
        let w = primary_program(b);
        assert_paths_agree(&w.module, Some(ProfileConfig::with_exec(w.test_exec)));
    }
}

/// A name's default parameters are those of its transform's granularity,
/// and the `bb-` names are the basic-block ones.
#[test]
fn default_params_match_kind_granularity() {
    for name in PIPELINES {
        let params = PipelineParams::for_pipeline(name).expect("a paper pipeline");
        let pipeline = build_pipeline(name, &params).expect("a paper pipeline");
        let granularity = pipeline.transform.granularity();
        let expected = PipelineParams::for_granularity(granularity);
        assert_eq!(params.affinity, expected.affinity, "{}", name);
        assert_eq!(params.trg, expected.trg, "{}", name);
        let bb = name.starts_with("bb-");
        assert_eq!(
            granularity,
            if bb {
                Granularity::BasicBlock
            } else {
                Granularity::Function
            },
            "{}",
            name
        );
    }
}
