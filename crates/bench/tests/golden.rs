//! Golden-regression tests: re-run reduced versions of Figure 4 and
//! Table II and compare the JSON against checked-in expected files with a
//! numeric tolerance.
//!
//! The reduced inputs (4 suite programs for Figure 4; 2 subjects × 1 probe
//! for Table II) keep the runtime in seconds while still exercising the
//! full measurement path: workload generation, profiling, both optimizer
//! families, the co-run protocol and both measurement channels. Every
//! quantity is deterministic, so the tolerance only needs to absorb
//! floating-point noise, not run-to-run variance.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! CLOP_BLESS=1 cargo test -p clop-bench --test golden
//! ```

use clop_bench::experiment::ExperimentCtx;
use clop_bench::experiments::{
    fig4_miss_ratios, fig5_solo, fig7_throughput, nway_validation, static_rank, table2_corun,
};
use clop_util::{Json, ToJson};
use clop_workloads::{full_suite, PrimaryBenchmark};
use std::path::PathBuf;

const TOLERANCE: f64 = 1e-9;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.json", name))
}

fn check_golden(name: &str, actual: &Json) {
    let path = golden_path(name);
    if std::env::var_os("CLOP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual.pretty() + "\n").unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({}); regenerate with CLOP_BLESS=1",
            path.display(),
            e
        )
    });
    let expected = Json::parse(&raw).expect("golden file parses");
    if let Err(msg) = expected.approx_eq(actual, TOLERANCE) {
        panic!(
            "{} diverged from golden {}: {}\n\
             (rerun with CLOP_BLESS=1 if the change is intentional)",
            name,
            path.display(),
            msg
        );
    }
}

#[test]
fn reduced_fig4_matches_golden() {
    let ctx = ExperimentCtx::new(2);
    let keep = ["403.gcc", "445.gobmk", "458.sjeng", "471.omnetpp"];
    let entries: Vec<_> = full_suite()
        .into_iter()
        .filter(|e| keep.contains(&e.name))
        .collect();
    assert_eq!(entries.len(), keep.len(), "reduced suite entries exist");
    let rows = fig4_miss_ratios::rows_for(&ctx, entries);
    check_golden("fig4_reduced", &rows.to_json());
}

#[test]
fn reduced_table2_matches_golden() {
    let ctx = ExperimentCtx::new(2);
    let subjects = [PrimaryBenchmark::Gobmk, PrimaryBenchmark::Sjeng];
    let probes = [PrimaryBenchmark::Gcc];
    let rows = table2_corun::rows_for(&ctx, &subjects, &probes);
    check_golden("table2_reduced", &rows.to_json());
}

#[test]
fn reduced_fig5_matches_golden() {
    // Solo miss-ratio reductions and speedups for both affinity
    // optimizers on two programs: pins the reuse-distance engine, the
    // affinity analyzers and the timing model end to end.
    let ctx = ExperimentCtx::new(2);
    let rows = fig5_solo::rows_for(&ctx, vec![PrimaryBenchmark::Gobmk, PrimaryBenchmark::Sjeng]);
    check_golden("fig5_reduced", &rows.to_json());
}

#[test]
fn reduced_nway_matches_golden() {
    // The N-way validation sweep on two subjects and three widths: pins
    // the N-peer convolved composition model against the generalized
    // N-way co-run simulator, and asserts the stated tolerances — the
    // analytic prediction must rank the points like the simulation does
    // (Spearman) and stay within an absolute miss-ratio band per point.
    let ctx = ExperimentCtx::new(2);
    let subjects = [PrimaryBenchmark::Mcf, PrimaryBenchmark::Sjeng];
    let rows = nway_validation::rows_for(&ctx, &subjects, &[2, 4, 8]);
    assert_eq!(rows.len(), 12, "2 subjects × 2 layouts × 3 widths");
    // Stated tolerances: the fully-associative window model overpredicts
    // near its capacity cliff (subjects whose working set barely fits,
    // e.g. 429.mcf at small widths), so level calibration is loose, but
    // it must still rank the points with the simulator and stay inside an
    // absolute miss-ratio band.
    let summary = nway_validation::summarize(&rows);
    assert!(
        summary.spearman >= 0.60,
        "rank agreement degraded: spearman {:.3}",
        summary.spearman
    );
    assert!(
        summary.max_abs_error <= 0.15,
        "per-point absolute error bound exceeded: {:.4}",
        summary.max_abs_error
    );
    assert!(
        summary.mean_abs_error <= 0.10,
        "mean absolute error bound exceeded: {:.4}",
        summary.mean_abs_error
    );
    let json = Json::obj(vec![
        ("rows", rows.to_json()),
        ("summary", summary.to_json()),
    ]);
    check_golden("nway_reduced", &json);
}

#[test]
fn reduced_static_rank_matches_golden() {
    // The static-rank cross-validation over the FULL 29-workload registry
    // suite, reduced only in its candidate set (the two function-granularity
    // optimizers — BB reordering dominates the full experiment's runtime and
    // adds no new static-analysis path). Pins the trace-free locality scores
    // and asserts the acceptance gate: the static ranking must agree with
    // the simulated solo miss ratios at pooled Spearman >= 0.6.
    let ctx = ExperimentCtx::new(2);
    let entries = full_suite();
    assert_eq!(entries.len(), 29, "registry suite is the full 29 programs");
    let rows = static_rank::rows_for(&ctx, &entries, &["function-affinity", "function-trg"]);
    assert_eq!(rows.len(), 29 * 3, "original + 2 candidates per workload");
    let summary = static_rank::summarize(&rows);
    assert!(
        summary.passes_gate(),
        "static ranking diverged from simulation: pooled spearman {:.3} < {}",
        summary.spearman,
        static_rank::SPEARMAN_GATE
    );
    let json = Json::obj(vec![
        ("rows", rows.to_json()),
        ("summary", summary.to_json()),
    ]);
    check_golden("static_rank_reduced", &json);
}

#[test]
fn reduced_fig7_matches_golden() {
    // Co-run throughput magnification over the 3 unordered pairs of two
    // programs: pins the co-run protocol and the optimizer pipeline.
    let ctx = ExperimentCtx::new(2);
    let progs = [PrimaryBenchmark::Mcf, PrimaryBenchmark::Sjeng];
    let rows = fig7_throughput::rows_for(&ctx, &progs);
    assert_eq!(rows.len(), 3, "pairs with repetition of two programs");
    check_golden("fig7_reduced", &rows.to_json());
}
