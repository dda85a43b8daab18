//! Shared co-run experiment machinery for Table II and Figure 6.
//!
//! The paper's co-run protocol (§III-C): each co-run pairs an *original*
//! probe program with an *optimized* subject program on the two
//! hyper-threads; the subject is timed and its improvement is reported
//! relative to the original-original pairing of the same two programs.
//! Miss-ratio reductions are reported on both channels: "hardware
//! counters" (our timed SMT model with the next-line prefetcher) and
//! "simulated" (pure round-robin shared-cache simulation).

use crate::experiment::ExperimentCtx;
use crate::timing_hw;
use clop_core::ProgramRun;
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of one subject × probe co-run comparison.
#[derive(Clone, Copy, Debug)]
pub struct PairResult {
    /// Speedup of the optimized subject over the original subject, both
    /// co-running with the original probe (`> 0` is an improvement).
    pub speedup: f64,
    /// Subject miss-ratio reduction on the hw-like channel.
    pub miss_reduction_hw: f64,
    /// Subject miss-ratio reduction on the pure-simulation channel.
    pub miss_reduction_sim: f64,
}

impl ToJson for PairResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("speedup", self.speedup.to_json()),
            ("miss_reduction_hw", self.miss_reduction_hw.to_json()),
            ("miss_reduction_sim", self.miss_reduction_sim.to_json()),
        ])
    }
}

/// All co-run results of one pipeline for one subject program.
#[derive(Clone, Debug)]
pub struct SubjectResult {
    /// Subject program name.
    pub name: String,
    /// Per-probe results keyed by probe name (the paper's Figure 6 bars).
    pub per_probe: Vec<(String, PairResult)>,
}

impl ToJson for SubjectResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("per_probe", self.per_probe.to_json()),
        ])
    }
}

impl SubjectResult {
    /// Average across probes (the paper's Table II row).
    pub fn average(&self) -> PairResult {
        let n = self.per_probe.len().max(1) as f64;
        let mut acc = PairResult {
            speedup: 0.0,
            miss_reduction_hw: 0.0,
            miss_reduction_sim: 0.0,
        };
        for (_, p) in &self.per_probe {
            acc.speedup += p.speedup;
            acc.miss_reduction_hw += p.miss_reduction_hw;
            acc.miss_reduction_sim += p.miss_reduction_sim;
        }
        acc.speedup /= n;
        acc.miss_reduction_hw /= n;
        acc.miss_reduction_sim /= n;
        acc
    }
}

/// Pre-evaluated programs: baselines for all 8 primaries plus optimized
/// variants per pipeline (None where the pipeline failed — the paper's
/// N/A entries). Runs are engine-shared `Arc`s; preparing two labs in one
/// process costs one evaluation sweep.
pub struct CorunLab {
    /// Baseline run per primary benchmark.
    pub baselines: HashMap<PrimaryBenchmark, Arc<ProgramRun>>,
    /// Optimized run per (benchmark, pipeline name).
    pub optimized: HashMap<(PrimaryBenchmark, &'static str), Option<Arc<ProgramRun>>>,
}

impl CorunLab {
    /// Evaluate every baseline and every optimized variant, fanned out
    /// over the context's worker pool.
    pub fn prepare(ctx: &ExperimentCtx, pipelines: &[&'static str]) -> CorunLab {
        CorunLab::prepare_subset(ctx, &PrimaryBenchmark::ALL, pipelines)
    }

    /// Like [`CorunLab::prepare`], restricted to a benchmark subset. The
    /// golden-regression tests use this to re-run Table II on a reduced
    /// suite.
    pub fn prepare_subset(
        ctx: &ExperimentCtx,
        benches: &[PrimaryBenchmark],
        pipelines: &[&'static str],
    ) -> CorunLab {
        let mut work: Vec<(PrimaryBenchmark, Option<&'static str>)> = Vec::new();
        for &b in benches {
            work.push((b, None));
            for &p in pipelines {
                work.push((b, Some(p)));
            }
        }
        let runs = ctx.map(work, |_, (b, k)| {
            let w = primary_program(b);
            let run = match k {
                None => Some(ctx.baseline(&w)),
                Some(pipeline) => ctx.optimized(&w, pipeline).ok(),
            };
            (b, k, run)
        });

        let mut baselines = HashMap::new();
        let mut optimized = HashMap::new();
        for (b, k, run) in runs {
            match k {
                None => {
                    baselines.insert(b, run.expect("baselines always evaluate"));
                }
                Some(pipeline) => {
                    optimized.insert((b, pipeline), run);
                }
            }
        }
        CorunLab {
            baselines,
            optimized,
        }
    }

    /// One subject × probe co-run cell for one pipeline. Returns `None`
    /// when the pipeline failed on the subject (N/A). Cells are
    /// independent, so callers may fan all (subject, pipeline, probe) triples
    /// over the worker pool; reassembling in input order reproduces the
    /// serial tables byte for byte.
    pub fn pair_result(
        &self,
        subject: PrimaryBenchmark,
        pipeline: &'static str,
        probe: PrimaryBenchmark,
    ) -> Option<PairResult> {
        let opt = self.optimized.get(&(subject, pipeline))?.as_deref()?;
        let base = self.baselines[&subject].as_ref();
        let probe_run = self.baselines[&probe].as_ref();
        let timing = timing_hw();
        // Timed channel: probe is thread 0, subject thread 1.
        let orig_pair = probe_run.corun_timed(base, timing);
        let opt_pair = probe_run.corun_timed(opt, timing);
        let speedup = orig_pair[1].finish_cycles / opt_pair[1].finish_cycles - 1.0;
        let miss_reduction_hw = orig_pair[1].stats.reduction_to(&opt_pair[1].stats);
        // Simulated channel.
        let orig_sim = probe_run.corun_sim_nway(&[base]).per_tenant[1];
        let opt_sim = probe_run.corun_sim_nway(&[opt]).per_tenant[1];
        let miss_reduction_sim = orig_sim.reduction_to(&opt_sim);
        Some(PairResult {
            speedup,
            miss_reduction_hw,
            miss_reduction_sim,
        })
    }

    /// The co-run comparison of `subject` optimized with `pipeline`,
    /// against every probe. Returns `None` when the pipeline failed on the
    /// subject (N/A).
    pub fn subject_result(
        &self,
        subject: PrimaryBenchmark,
        pipeline: &'static str,
        probes: &[PrimaryBenchmark],
    ) -> Option<SubjectResult> {
        // N/A check up front so an empty probe list still reports N/A.
        self.optimized.get(&(subject, pipeline))?.as_deref()?;
        let per_probe: Option<Vec<(String, PairResult)>> = probes
            .iter()
            .map(|&probe| {
                Some((
                    probe.name().to_string(),
                    self.pair_result(subject, pipeline, probe)?,
                ))
            })
            .collect();
        Some(SubjectResult {
            name: subject.name().to_string(),
            per_probe: per_probe?,
        })
    }
}
