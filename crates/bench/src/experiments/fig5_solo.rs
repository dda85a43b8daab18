//! Figure 5: the solo-run effect of the two affinity optimizers on the 8
//! primary benchmarks.
//!
//! (a) performance speedup — paper: between −1% and +2% for function
//!     reordering, 0% to +3% for BB reordering; modest at best.
//! (b) instruction-cache miss-ratio reduction — paper: dramatic, up to 34%
//!     (function) and 37% (BB), measured by hardware counters.
//!
//! BB reordering reports N/A for 400.perlbench and 453.povray (the paper's
//! compiler errors; our BB reorderer rejects their wide dispatch switches).

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{pct, pct0, render_table, timing_hw};
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;

/// One program's solo-run optimizer effects.
pub struct Row {
    pub name: String,
    pub fn_speedup: f64,
    pub fn_miss_reduction: f64,
    pub bb_speedup: Option<f64>,
    pub bb_miss_reduction: Option<f64>,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("fn_speedup", self.fn_speedup.to_json()),
            ("fn_miss_reduction", self.fn_miss_reduction.to_json()),
            ("bb_speedup", self.bb_speedup.to_json()),
            ("bb_miss_reduction", self.bb_miss_reduction.to_json()),
        ])
    }
}

/// The Figure 5 measurement over an explicit program subset. The
/// golden-regression test runs this on a reduced pair of programs.
pub fn rows_for(ctx: &ExperimentCtx, programs: Vec<PrimaryBenchmark>) -> Vec<Row> {
    let timing = timing_hw();
    ctx.map(programs, |_, b| {
        let w = primary_program(b);
        let base = ctx.baseline(&w);
        let base_t = base.solo_timed(timing);

        let eval = |name: &str| -> Option<(f64, f64)> {
            let run = ctx.optimized(&w, name).ok()?;
            let t = run.solo_timed(timing);
            let speedup = base_t.cycles / t.cycles - 1.0;
            let reduction = base_t.stats.reduction_to(&t.stats);
            Some((speedup, reduction))
        };

        let (fns, fnr) = eval("function-affinity").expect("function reordering");
        let bb = eval("bb-affinity");
        Row {
            name: b.name().to_string(),
            fn_speedup: fns,
            fn_miss_reduction: fnr,
            bb_speedup: bb.map(|x| x.0),
            bb_miss_reduction: bb.map(|x| x.1),
        }
    })
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let rows = rows_for(ctx, PrimaryBenchmark::ALL.to_vec());

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                pct(r.fn_speedup),
                pct0(r.fn_miss_reduction),
                r.bb_speedup.map(pct).unwrap_or_else(|| "N/A".into()),
                r.bb_miss_reduction
                    .map(pct0)
                    .unwrap_or_else(|| "N/A".into()),
            ]
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "Figure 5: solo-run effect of the two affinity optimizers\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &[
                "program",
                "fn speedup",
                "fn miss redn",
                "bb speedup",
                "bb miss redn"
            ],
            &table
        )
    )
    .unwrap();
    writeln!(
        text,
        "paper: speedups modest (-1%..+3%); miss reductions dramatic (up to ~37%)"
    )
    .unwrap();

    ExperimentResult {
        text,
        json: rows.to_json(),
    }
}
