//! Acceptance suite for the static verifier (`clop-verify`).
//!
//! Three obligations, run by CI's `lint-ir` job (`ci/lint_ir.sh`):
//!
//! 1. **Registry-wide equivalence** — every optimizer pipeline output, for
//!    every workload in the experiment registry, passes module
//!    well-formedness and the transform semantic-equivalence checker.
//! 2. **Seeded mutations** — the checker *catches* each of the classic
//!    layout bugs when injected deliberately: broken fall-through, dropped
//!    block, duplicated block, dangling branch target, and reordering
//!    without jump pre-processing.
//! 3. **Conflict cross-validation** — on the reduced Figure 4 workloads,
//!    the static per-set pressure ranking agrees (Spearman) with the
//!    per-set conflict misses the cache simulator measures.

use clop_bench::optimizer_for;
use clop_cachesim::{CacheConfig, SetAssocCache};
use clop_core::bbreorder::JUMP_BYTES;
use clop_core::{build_pipeline, preprocess_for_bb_reordering, PIPELINES};
use clop_ir::{
    line_trace, EdgeProfile, GlobalBlockId, Interpreter, Layout, LinkOptions, LinkedImage,
    LocalBlockId, Module, ModuleBuilder, Terminator,
};
use clop_verify::{
    analyze_conflicts, block_weights, check_transform, spearman, verify_module, ConflictConfig,
    VerifyError,
};
use clop_workloads::{full_suite, primary_program, PrimaryBenchmark};

// ---------------------------------------------------------------------------
// 1. Registry-wide equivalence.

#[test]
fn every_pipeline_output_verifies_on_the_full_registry() {
    let mut verified = 0usize;
    let mut na = 0usize;
    for entry in full_suite() {
        let w = entry.workload();
        for name in PIPELINES {
            let pipeline =
                build_pipeline(name, &optimizer_for(&w, name)).expect("a paper pipeline");
            match pipeline.optimize(&w.module) {
                Ok(o) => {
                    let r = verify_module(&o.module);
                    assert!(r.is_ok(), "{} / {}: {}", w.name, o.name, r);
                    let r = check_transform(&w.module, &o.module, &o.layout, JUMP_BYTES);
                    assert!(r.is_ok(), "{} / {}: {}", w.name, o.name, r);
                    verified += 1;
                }
                // The paper's "N/A" cases (BB reordering refusals) are not
                // transform outputs; nothing to verify.
                Err(_) => na += 1,
            }
        }
    }
    assert!(
        verified >= 4 * full_suite().len() / 2,
        "too few verified outputs ({} verified, {} N/A) — registry coverage collapsed",
        verified,
        na
    );
}

// ---------------------------------------------------------------------------
// 2. Seeded mutation bugs the checker must catch.

/// Three straight-line fall-through blocks: `a -> b -> c -> return`.
fn chain_module() -> Module {
    let mut b = ModuleBuilder::new("chain");
    b.function("main")
        .jump("a", 16, "b")
        .jump("b", 16, "c")
        .ret("c", 16)
        .finish();
    b.build().expect("well-formed")
}

/// The pre-processed chain plus a scattering layout that keeps `a`'s
/// fall-through successor non-adjacent — legal only because the jumps were
/// materialized. Layout order: stub, b, a, c.
fn scattered() -> (Module, Module, Layout) {
    let original = chain_module();
    let transformed = preprocess_for_bb_reordering(&original).expect("preprocess");
    let layout = Layout::BlockOrder(vec![
        GlobalBlockId(0), // stub
        GlobalBlockId(2), // b
        GlobalBlockId(1), // a
        GlobalBlockId(3), // c
    ]);
    (original, transformed, layout)
}

#[test]
fn baseline_scattered_layout_is_accepted() {
    let (original, transformed, layout) = scattered();
    let r = check_transform(&original, &transformed, &layout, JUMP_BYTES);
    assert!(r.is_ok(), "{}", r);
}

#[test]
fn catches_broken_fall_through() {
    let (original, mut transformed, layout) = scattered();
    // Shrink the grown `a` back to its original size: its fall-through is
    // no longer materialized, and its successor `b` is not adjacent.
    transformed.functions[0].blocks[1].size_bytes -= JUMP_BYTES;
    let r = check_transform(&original, &transformed, &layout, JUMP_BYTES);
    assert!(
        r.any(|e| matches!(e, VerifyError::FallThroughBroken { .. })),
        "{}",
        r
    );
}

#[test]
fn catches_dropped_block() {
    let (original, transformed, _) = scattered();
    let layout = Layout::BlockOrder(vec![GlobalBlockId(0), GlobalBlockId(2), GlobalBlockId(1)]);
    let r = check_transform(&original, &transformed, &layout, JUMP_BYTES);
    assert!(
        r.any(|e| matches!(e, VerifyError::LayoutLengthMismatch { .. })),
        "{}",
        r
    );
}

#[test]
fn catches_duplicated_block() {
    let (original, transformed, _) = scattered();
    let layout = Layout::BlockOrder(vec![
        GlobalBlockId(0),
        GlobalBlockId(2),
        GlobalBlockId(2),
        GlobalBlockId(3),
    ]);
    let r = check_transform(&original, &transformed, &layout, JUMP_BYTES);
    assert!(
        r.any(|e| matches!(e, VerifyError::LayoutDuplicate { .. })),
        "{}",
        r
    );
    assert!(
        r.any(|e| matches!(e, VerifyError::LayoutMissing { .. })),
        "{}",
        r
    );
}

#[test]
fn catches_dangling_branch_target() {
    let (original, mut transformed, layout) = scattered();
    transformed.functions[0].blocks[3].terminator = Terminator::Jump(LocalBlockId(99));
    assert!(
        verify_module(&transformed).any(|e| matches!(e, VerifyError::DanglingTarget { .. })),
        "well-formedness must flag the dangling target"
    );
    let r = check_transform(&original, &transformed, &layout, JUMP_BYTES);
    assert!(!r.is_ok(), "equivalence must also reject the retargeting");
}

#[test]
fn catches_reordering_without_jump_preprocessing() {
    let original = chain_module();
    // Scatter the *unprocessed* module: no stub, no materialized jumps.
    let layout = Layout::BlockOrder(vec![GlobalBlockId(1), GlobalBlockId(0), GlobalBlockId(2)]);
    let r = check_transform(&original, &original, &layout, JUMP_BYTES);
    assert!(
        r.any(|e| matches!(e, VerifyError::MissingStub { .. })),
        "{}",
        r
    );
}

// ---------------------------------------------------------------------------
// 3. Static conflict ranking vs simulated per-set misses.

#[test]
fn static_conflict_ranking_tracks_simulated_per_set_misses() {
    // The reduced Figure 4 set used by the fast experiment paths.
    let reduced = [
        PrimaryBenchmark::Gcc,
        PrimaryBenchmark::Gobmk,
        PrimaryBenchmark::Sjeng,
        PrimaryBenchmark::Omnetpp,
    ];
    for b in reduced {
        let w = primary_program(b);
        let out = Interpreter::new(w.test_exec).run(&w.module);
        let image = LinkedImage::link(
            &w.module,
            &Layout::original(&w.module),
            LinkOptions::default(),
        );

        // Static side: per-set predicted pressure from the edge profile.
        let weights = block_weights(
            &EdgeProfile::measure(&out.bb_trace.trim()),
            w.module.num_blocks(),
        );
        let config = ConflictConfig::default();
        let predicted = analyze_conflicts(&w.module, &image, &weights, &config).predicted_by_set();

        // Measured side: the simulator's per-set demand misses on the same
        // run's fetch stream.
        let mut cache = SetAssocCache::new(CacheConfig::paper_l1i());
        for line in line_trace(&out.bb_trace, &image, config.cache.line_size) {
            cache.access(line);
        }
        let measured: Vec<f64> = cache.misses_by_set().iter().map(|&m| m as f64).collect();

        assert_eq!(predicted.len(), measured.len());
        let rho = spearman(&predicted, &measured);
        assert!(
            rho > 0.5,
            "{}: static/simulated per-set rank agreement too weak (rho = {:.3})",
            w.name,
            rho
        );
    }
}
