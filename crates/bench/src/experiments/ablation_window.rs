//! Ablations A1/A2: sensitivity of the two models to their window
//! parameters.
//!
//! A1 — the affinity analysis considers windows w in [2, w_max]; the paper
//! chooses w_max = 20 "to improve efficiency". We sweep w_max on a
//! code-heavy program (445.gobmk-like) and report the solo miss reduction
//! of BB affinity: the curve should be fairly flat beyond a modest w_max —
//! affinity is robust to the window bound.
//!
//! A2 — TRG examines a single fixed window (Gloy–Smith recommend 2C). The
//! paper finds TRG "sensitive to the window size 2C" and its improvement
//! "fragile as we try to pick the value that gives the best performance".
//! We sweep the window on 458.sjeng-like and report the solo miss
//! reduction of function TRG: expect a non-monotone, fragile curve.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{eval_config, optimizer_for, pct, render_table};
use clop_trg::TrgConfig;
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;

struct Sweep {
    parameter: String,
    program: String,
    points: Vec<(u32, f64)>,
}

impl ToJson for Sweep {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("parameter", self.parameter.to_json()),
            ("program", self.program.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let mut text = String::new();

    // ---- A1: affinity w_max sweep.
    let w = primary_program(PrimaryBenchmark::Gobmk);
    let base = ctx.baseline(&w).solo_sim();
    let aff_points: Vec<(u32, f64)> =
        ctx.map(vec![2u32, 4, 6, 8, 12, 16, 20, 28, 40], |_, w_max| {
            let mut params = optimizer_for(&w, "bb-affinity");
            params.affinity.w_max = w_max;
            let o = ctx
                .optimize_with(&w.module, "bb-affinity", &params)
                .expect("gobmk supports BB reordering");
            let run = ctx.evaluate(&o.module, &o.layout, &eval_config(&w));
            (w_max, base.reduction_to(&run.solo_sim()))
        });
    writeln!(
        text,
        "Ablation A1: BB affinity miss reduction vs w_max (445.gobmk)\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &["w_max", "solo miss reduction"],
            &aff_points
                .iter()
                .map(|(w, r)| vec![w.to_string(), pct(*r)])
                .collect::<Vec<_>>()
        )
    )
    .unwrap();

    // ---- A2: TRG window sweep.
    let w2 = primary_program(PrimaryBenchmark::Sjeng);
    let base2 = ctx.baseline(&w2).solo_sim();
    let trg_points: Vec<(u32, f64)> =
        ctx.map(vec![8u32, 16, 32, 64, 128, 256, 512], |_, window| {
            let mut params = optimizer_for(&w2, "function-trg");
            params.trg = TrgConfig {
                window: window as usize,
                slots: params.trg.slots,
            };
            let o = ctx
                .optimize_with(&w2.module, "function-trg", &params)
                .expect("function reordering always works");
            let run = ctx.evaluate(&o.module, &o.layout, &eval_config(&w2));
            (window, base2.reduction_to(&run.solo_sim()))
        });
    writeln!(
        text,
        "\nAblation A2: function TRG miss reduction vs window (458.sjeng)\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &["window (blocks)", "solo miss reduction"],
            &trg_points
                .iter()
                .map(|(w, r)| vec![w.to_string(), pct(*r)])
                .collect::<Vec<_>>()
        )
    )
    .unwrap();
    writeln!(
        text,
        "paper: affinity robust across w; TRG fragile in its 2C window"
    )
    .unwrap();

    let sweeps = vec![
        Sweep {
            parameter: "affinity w_max".into(),
            program: "445.gobmk".into(),
            points: aff_points,
        },
        Sweep {
            parameter: "trg window".into(),
            program: "458.sjeng".into(),
            points: trg_points,
        },
    ];
    ExperimentResult {
        text,
        json: sweeps.to_json(),
    }
}
