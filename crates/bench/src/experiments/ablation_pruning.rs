//! Ablation A3: trace pruning rate vs model quality.
//!
//! The paper prunes basic-block traces to the 10,000 hottest blocks,
//! retaining over 90% of occurrences (§II-F). We sweep the pruning budget
//! on 445.gobmk-like and report (a) occurrence retention and (b) the solo
//! miss reduction achieved by BB affinity built from the pruned trace:
//! aggressive pruning must degrade the optimization gracefully, while
//! budgets that keep most occurrences match the unpruned result.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{eval_config, optimizer_for, pct, pct0, render_table};
use clop_trace::Pruner;
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;

struct Point {
    budget: usize,
    retention: f64,
    miss_reduction: f64,
}

impl ToJson for Point {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("budget", self.budget.to_json()),
            ("retention", self.retention.to_json()),
            ("miss_reduction", self.miss_reduction.to_json()),
        ])
    }
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let w = primary_program(PrimaryBenchmark::Gobmk);
    let base = ctx.baseline(&w).solo_sim();

    let points: Vec<Point> = ctx.map(
        vec![10usize, 25, 50, 100, 200, 400, 800, 10_000],
        |_, budget| {
            let mut params = optimizer_for(&w, "bb-affinity");
            params.profile.prune = Some(Pruner::new(budget));
            let o = ctx
                .optimize_with(&w.module, "bb-affinity", &params)
                .expect("gobmk supports BB reordering");
            let run = ctx.evaluate(&o.module, &o.layout, &eval_config(&w));
            Point {
                budget,
                retention: o.profile.prune_retention,
                miss_reduction: base.reduction_to(&run.solo_sim()),
            }
        },
    );

    let mut text = String::new();
    writeln!(
        text,
        "Ablation A3: pruning budget vs retention and BB-affinity quality (445.gobmk)\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &["hot-block budget", "retention", "solo miss reduction"],
            &points
                .iter()
                .map(|p| vec![
                    p.budget.to_string(),
                    pct0(p.retention),
                    pct(p.miss_reduction)
                ])
                .collect::<Vec<_>>()
        )
    )
    .unwrap();
    writeln!(
        text,
        "paper: the 10k budget retains >90% of occurrences and is effectively lossless"
    )
    .unwrap();

    ExperimentResult {
        text,
        json: points.to_json(),
    }
}
