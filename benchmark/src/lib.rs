//! End-to-end benchmark of the layout optimizer: four workloads over the
//! optimize, evaluate and serve paths, each with a traced per-layer
//! breakdown. See `README.md` for the workloads, the metrics and which
//! layer should move which metric.

pub mod compare;
mod evaluate;
mod layers;
mod optimize;
pub mod run;
mod serve;
pub mod stats;

use clop_ir::ExecConfig;
use run::{Options, Workload};
use std::path::Path;

/// Build the inputs of the workload named in `options` (the work that
/// `setup_s` times). `work` is a scratch directory for files the
/// workload writes.
pub(crate) fn build(options: &Options, work: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match options.workload.as_str() {
        "optimize-suite" => Box::new(optimize::OptimizeBench::suite(options)?),
        "optimize-ref" => Box::new(optimize::OptimizeBench::reference(options)?),
        "evaluate-corun" => Box::new(evaluate::EvaluateBench::new(options)?),
        "serve-stream" => Box::new(serve::ServeBench::new(options, work)?),
        other => return Err(format!("unknown workload {:?}", other)),
    })
}

/// An execution config under the run's seed: seed 0 keeps the stock seed,
/// any other value is XORed into it.
pub(crate) fn seeded(exec: ExecConfig, seed: u64) -> ExecConfig {
    if seed == 0 {
        exec
    } else {
        exec.seeded(exec.seed ^ seed)
    }
}

/// Fuel (basic-block events) of both inputs in `--smoke` runs.
const SMOKE_FUEL: u64 = 8_000;

/// A suite program's inputs under the run's seed (and smoke fuel).
pub(crate) fn program(options: &Options, name: &str) -> Result<clop_workloads::Workload, String> {
    let entry = clop_workloads::full_suite()
        .into_iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("no suite program {}", name))?;
    let mut w = entry.workload();
    w.test_exec = seeded(w.test_exec, options.seed);
    w.ref_exec = seeded(w.ref_exec, options.seed);
    if options.smoke {
        w.test_exec.max_events = w.test_exec.max_events.min(SMOKE_FUEL);
        w.ref_exec.max_events = w.ref_exec.max_events.min(SMOKE_FUEL);
    }
    Ok(w)
}
