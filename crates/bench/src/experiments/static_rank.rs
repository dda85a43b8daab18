//! Static-rank cross-validation: the trace-free locality score vs the
//! simulator.
//!
//! The static locality pass (`clop-verify`) predicts a layout's miss mass
//! from IR + linked image alone — loop working-set bounds through the Eq-1
//! composition model plus set-conflict pressure — with zero trace input.
//! This experiment asks the only question that matters for the pre-filter
//! hook (`clop_core::prefilter`): *does the static score order layouts the
//! way the simulator does?*
//!
//! For every workload in the 29-program registry suite and every candidate
//! layout (the original plus the four paper optimizers), the static score
//! is compared against the simulated solo miss ratio of the same (module,
//! layout) pair. The summary reports the pooled Spearman rank correlation
//! over all points, the mean per-workload Spearman over the candidate
//! rankings, and the acceptance gate `pooled >= 0.6` — asserted here and
//! pinned by the reduced golden.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{eval_config, pct0, render_table};
use clop_core::{static_score, ORIGINAL_LAYOUT, PIPELINES};
use clop_ir::Layout;
use clop_util::{Json, ToJson};
use clop_verify::spearman;
use clop_workloads::{full_suite, SuiteEntry};
use std::fmt::Write as _;

/// The acceptance gate on the pooled Spearman correlation.
pub const SPEARMAN_GATE: f64 = 0.6;

/// One cross-validation point: a workload under one candidate layout.
pub struct Row {
    pub workload: String,
    pub candidate: String,
    /// Trace-free predicted miss mass (lower is better).
    pub static_score: f64,
    /// Static solo (Eq-1) component.
    pub static_solo: f64,
    /// Static set-conflict component.
    pub static_conflict: f64,
    /// Simulated solo miss ratio of the same (module, layout) pair.
    pub simulated: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", self.workload.to_json()),
            ("candidate", self.candidate.to_json()),
            ("static_score", self.static_score.to_json()),
            ("static_solo", self.static_solo.to_json()),
            ("static_conflict", self.static_conflict.to_json()),
            ("simulated", self.simulated.to_json()),
        ])
    }
}

/// Aggregate rank agreement between the static score and the simulator.
pub struct Summary {
    /// Spearman over all (workload, candidate) points pooled.
    pub spearman: f64,
    /// Mean of the per-workload Spearman over candidate rankings (only
    /// workloads with >= 3 candidates contribute).
    pub mean_workload_spearman: f64,
    /// Distinct workloads covered.
    pub workloads: usize,
    /// Total points.
    pub points: usize,
}

impl Summary {
    /// Whether the pooled correlation clears the acceptance gate.
    pub fn passes_gate(&self) -> bool {
        self.spearman >= SPEARMAN_GATE
    }
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("spearman", self.spearman.to_json()),
            (
                "mean_workload_spearman",
                self.mean_workload_spearman.to_json(),
            ),
            ("workloads", (self.workloads as u64).to_json()),
            ("points", (self.points as u64).to_json()),
            ("spearman_gate", SPEARMAN_GATE.to_json()),
            ("gate_passed", self.passes_gate().to_json()),
        ])
    }
}

/// Pooled and per-workload rank agreement over a row set.
pub fn summarize(rows: &[Row]) -> Summary {
    let p: Vec<f64> = rows.iter().map(|r| r.static_score).collect();
    let s: Vec<f64> = rows.iter().map(|r| r.simulated).collect();
    let mut names: Vec<&str> = rows.iter().map(|r| r.workload.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let mut per = Vec::new();
    for w in &names {
        let (wp, ws): (Vec<f64>, Vec<f64>) = rows
            .iter()
            .filter(|r| r.workload == *w)
            .map(|r| (r.static_score, r.simulated))
            .unzip();
        if wp.len() >= 3 {
            per.push(spearman(&wp, &ws));
        }
    }
    let mean_workload = if per.is_empty() {
        0.0
    } else {
        per.iter().sum::<f64>() / per.len() as f64
    };
    Summary {
        spearman: spearman(&p, &s),
        mean_workload_spearman: mean_workload,
        workloads: names.len(),
        points: rows.len(),
    }
}

/// The cross-validation sweep over explicit workloads and optimizer
/// candidates. Every workload also contributes its original layout.
/// Optimizers that do not apply (the paper's "N/A" cases) are skipped.
pub fn rows_for(ctx: &ExperimentCtx, entries: &[SuiteEntry], pipelines: &[&str]) -> Vec<Row> {
    let nested: Vec<Vec<Row>> = ctx.map(entries.to_vec(), |_, entry| {
        let w = entry.workload();
        let mut rows = Vec::with_capacity(pipelines.len() + 1);

        let base_layout = Layout::original(&w.module);
        let base_static = static_score(&w.module, &base_layout);
        let base_sim = ctx.baseline(&w).solo_sim().miss_ratio();
        rows.push(Row {
            workload: entry.name.to_string(),
            candidate: ORIGINAL_LAYOUT.to_string(),
            static_score: base_static.score,
            static_solo: base_static.solo_miss,
            static_conflict: base_static.conflict_miss,
            simulated: base_sim,
        });

        for &pipeline in pipelines {
            let Ok(opt) = ctx.optimize(&w, pipeline) else {
                continue;
            };
            // Score the prepared module under the optimizer's layout: the
            // same image the simulated side links and fetches from.
            let report = static_score(&opt.module, &opt.layout);
            let sim = ctx
                .evaluate(&opt.module, &opt.layout, &eval_config(&w))
                .solo_sim()
                .miss_ratio();
            rows.push(Row {
                workload: entry.name.to_string(),
                candidate: pipeline.to_string(),
                static_score: report.score,
                static_solo: report.solo_miss,
                static_conflict: report.conflict_miss,
                simulated: sim,
            });
        }
        rows
    });
    nested.into_iter().flatten().collect()
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let entries = full_suite();
    let rows = rows_for(ctx, &entries, &PIPELINES);
    let summary = summarize(&rows);
    assert!(
        summary.passes_gate(),
        "static ranking diverged from simulation: pooled spearman {:.3} < gate {}",
        summary.spearman,
        SPEARMAN_GATE
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.candidate.clone(),
                format!("{:.4}", r.static_score),
                pct0(r.simulated),
            ]
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "static-rank validation: trace-free locality score vs simulated solo miss\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &["workload", "candidate", "static score", "simulated"],
            &table
        )
    )
    .unwrap();
    writeln!(
        text,
        "pooled spearman {:.3} (gate {}), mean per-workload spearman {:.3} \
         over {} workloads / {} points",
        summary.spearman,
        SPEARMAN_GATE,
        summary.mean_workload_spearman,
        summary.workloads,
        summary.points
    )
    .unwrap();
    writeln!(
        text,
        "(static scores computed from IR + layout alone — no trace, no simulator)"
    )
    .unwrap();

    ExperimentResult {
        text,
        json: Json::obj(vec![
            ("rows", rows.to_json()),
            ("summary", summary.to_json()),
        ]),
    }
}
