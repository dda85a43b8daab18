//! The declarative experiment harness.
//!
//! Every table/figure of the paper is one [`Experiment`]: a name (also the
//! `results/<name>.json` artifact stem), a title, and a pure function from
//! an [`ExperimentCtx`] to an [`ExperimentResult`] (rendered text plus the
//! JSON record). The `exp` binary runs one of them by name, or iterates
//! [`all`] in-process (`exp all`) so every experiment shares one memoizing
//! [`Engine`].
//!
//! The context carries the evaluation engine and the `--jobs` worker
//! count. Experiments fan independent work out through [`ExperimentCtx::map`]
//! (a scoped-thread pool with deterministic, input-ordered results), so
//! `--jobs N` output is byte-identical to `--jobs 1`.

use crate::{eval_config, optimizer_for};
use clop_core::{Engine, OptError, OptimizedProgram, PipelineParams, ProgramRun};
use clop_ir::{Layout, Module};
use clop_util::pool::parallel_map;
use clop_util::Json;
use clop_workloads::Workload;
use std::sync::Arc;

/// Shared state of one experiment-suite invocation.
pub struct ExperimentCtx {
    /// The memoizing evaluation engine; shared by every experiment and
    /// worker thread of the invocation.
    pub engine: Engine,
    /// Worker-thread budget for [`ExperimentCtx::map`].
    pub jobs: usize,
}

impl ExperimentCtx {
    /// A fresh context with the given worker budget.
    pub fn new(jobs: usize) -> ExperimentCtx {
        ExperimentCtx {
            engine: Engine::new(),
            jobs: jobs.max(1),
        }
    }

    /// Memoized evaluation of (module, layout, config).
    pub fn evaluate(
        &self,
        module: &Module,
        layout: &Layout,
        config: &clop_core::EvalConfig,
    ) -> Arc<ProgramRun> {
        self.engine.evaluate(module, layout, config)
    }

    /// A workload's baseline: original layout, reference input.
    pub fn baseline(&self, w: &Workload) -> Arc<ProgramRun> {
        self.evaluate(&w.module, &Layout::original(&w.module), &eval_config(w))
    }

    /// Optimize a workload with the pipeline `name` at its default
    /// parameters (profiling on the test input), memoized. `Err` carries
    /// the paper's "N/A" cases.
    pub fn optimize(&self, w: &Workload, name: &str) -> Result<Arc<OptimizedProgram>, OptError> {
        self.optimize_with(&w.module, name, &optimizer_for(w, name))
    }

    /// Optimize with explicitly configured parameters (ablations tweak the
    /// model parameters before dispatch), memoized on the parameters.
    pub fn optimize_with(
        &self,
        module: &Module,
        name: &str,
        params: &PipelineParams,
    ) -> Result<Arc<OptimizedProgram>, OptError> {
        self.engine.optimize(module, name, params)
    }

    /// Optimize a workload and evaluate the result on the reference input.
    pub fn optimized(&self, w: &Workload, name: &str) -> Result<Arc<ProgramRun>, OptError> {
        let o = self.optimize(w, name)?;
        Ok(self.evaluate(&o.module, &o.layout, &eval_config(w)))
    }

    /// Fan `items` out over the context's worker budget; results come back
    /// in input order (see [`parallel_map`]).
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        parallel_map(self.jobs, items, f)
    }
}

/// What one experiment produces: the rendered report and the JSON record
/// written to `results/<name>.json`.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Human-readable report (tables, headline statistics, paper notes).
    pub text: String,
    /// Machine-readable record; semantically the data the tables render.
    pub json: Json,
}

/// One table/figure reproduction.
#[derive(Clone, Copy)]
pub struct Experiment {
    /// Stable name; also the `results/<name>.json` stem and the CLI name.
    pub name: &'static str,
    /// One-line description shown by `exp` when it lists the experiments.
    pub title: &'static str,
    /// The experiment body.
    pub run: fn(&ExperimentCtx) -> ExperimentResult,
}

/// Every experiment, in the canonical `exp all` order.
pub fn all() -> Vec<Experiment> {
    use crate::experiments::*;
    vec![
        Experiment {
            name: "intro_table",
            title: "introduction: average miss ratio solo vs two co-runs",
            run: intro_table::run,
        },
        Experiment {
            name: "table1_characteristics",
            title: "Table I: characteristics of the 8 primary benchmarks",
            run: table1_characteristics::run,
        },
        Experiment {
            name: "fig4_miss_ratios",
            title: "Figure 4: suite miss ratios solo and under two probes",
            run: fig4_miss_ratios::run,
        },
        Experiment {
            name: "fig5_solo",
            title: "Figure 5: solo-run effect of the affinity optimizers",
            run: fig5_solo::run,
        },
        Experiment {
            name: "table2_corun",
            title: "Table II: average co-run speedup and miss reduction",
            run: table2_corun::run,
        },
        Experiment {
            name: "fig6_corun_bars",
            title: "Figure 6: per-probe co-run speedup bars",
            run: fig6_corun_bars::run,
        },
        Experiment {
            name: "fig7_throughput",
            title: "Figure 7: hyper-threading throughput and magnification",
            run: fig7_throughput::run,
        },
        Experiment {
            name: "combining",
            title: "§III-F: optimized-optimized vs optimized-baseline co-run",
            run: combining::run,
        },
        Experiment {
            name: "ablation_window",
            title: "A1/A2: model window sensitivity",
            run: ablation_window::run,
        },
        Experiment {
            name: "ablation_pruning",
            title: "A3: trace pruning budget vs quality",
            run: ablation_pruning::run,
        },
        Experiment {
            name: "ablation_policy",
            title: "A4: replacement-policy robustness",
            run: ablation_policy::run,
        },
        Experiment {
            name: "baselines",
            title: "prior-work baselines: Pettis–Hansen, intra-BB, TRG padding",
            run: baselines::run,
        },
        Experiment {
            name: "model_validation",
            title: "footprint-composition model vs co-run simulation",
            run: model_validation::run,
        },
        Experiment {
            name: "petrank_wall",
            title: "§III-D: the Petrank–Rawitz wall, enumerated",
            run: petrank_wall::run,
        },
        Experiment {
            name: "smt_width",
            title: "extension: SMT width scaling (POWER7/POWER8)",
            run: smt_width::run,
        },
        Experiment {
            name: "coschedule",
            title: "extension: model-driven co-scheduling",
            run: coschedule::run,
        },
        Experiment {
            name: "mrc",
            title: "extension: miss-ratio curves, baseline vs optimized",
            run: mrc::run,
        },
        Experiment {
            name: "multilevel",
            title: "extension: private L1I over shared L2",
            run: multilevel::run,
        },
        Experiment {
            name: "nway_validation",
            title: "extension: N-way co-run, analytic N-peer model vs simulation",
            run: nway_validation::run,
        },
        Experiment {
            name: "static_rank",
            title: "extension: trace-free static layout ranking vs simulation",
            run: static_rank::run,
        },
    ]
}

/// Look an experiment up by name.
pub fn find(name: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let exps = all();
        assert_eq!(exps.len(), 20);
        let mut names: Vec<&str> = exps.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), exps.len(), "duplicate experiment names");
        assert!(find("fig4_miss_ratios").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn ctx_memoizes_across_calls() {
        let ctx = ExperimentCtx::new(2);
        let w = clop_workloads::primary_program(clop_workloads::PrimaryBenchmark::Mcf);
        let a = ctx.baseline(&w);
        let b = ctx.baseline(&w);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.engine.stats().eval_hits, 1);
    }
}
