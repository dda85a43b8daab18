//! Figure 4: L1 instruction-cache miss ratios of all 29 programs under
//! solo-run and under co-run with two probe programs (403.gcc-like and
//! 416.gamess-like).
//!
//! The paper's figure shows ~30% of the suite with non-trivial solo miss
//! ratios and consistently higher ratios under co-run. We print the three
//! series (solo, gcc probe, gamess probe) per program, sorted by solo miss
//! ratio, and record the headline statistic: the count of programs whose
//! solo miss ratio is non-trivial (≥ 0.5%).

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{pct0, render_table};
use clop_util::{Json, ToJson};
use clop_workloads::{probe_program, ProbeBenchmark, SuiteEntry};
use std::fmt::Write as _;

/// One program's three miss-ratio series.
pub struct Row {
    pub name: String,
    pub solo: f64,
    pub corun_gcc: f64,
    pub corun_gamess: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("solo", self.solo.to_json()),
            ("corun_gcc", self.corun_gcc.to_json()),
            ("corun_gamess", self.corun_gamess.to_json()),
        ])
    }
}

/// The Figure 4 measurement over an explicit suite subset, sorted by solo
/// miss ratio. The golden-regression test runs this on a reduced suite.
pub fn rows_for(ctx: &ExperimentCtx, entries: Vec<SuiteEntry>) -> Vec<Row> {
    let gcc = ctx.baseline(&probe_program(ProbeBenchmark::Gcc));
    let gamess = ctx.baseline(&probe_program(ProbeBenchmark::Gamess));

    let mut rows = ctx.map(entries, |_, entry| {
        let w = entry.workload();
        let run = ctx.baseline(&w);
        Row {
            name: entry.name.to_string(),
            solo: run.solo_sim().miss_ratio(),
            corun_gcc: run.corun_sim_nway(&[&gcc]).per_tenant[0].miss_ratio(),
            corun_gamess: run.corun_sim_nway(&[&gamess]).per_tenant[0].miss_ratio(),
        }
    });
    rows.sort_by(|a, b| b.solo.partial_cmp(&a.solo).unwrap());
    rows
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let rows = rows_for(ctx, clop_workloads::full_suite());

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                pct0(r.solo),
                pct0(r.corun_gcc),
                pct0(r.corun_gamess),
            ]
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "Figure 4: L1I miss ratios, solo and under two probes\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(&["program", "solo", "gcc probe", "gamess probe"], &table)
    )
    .unwrap();

    let non_trivial = rows.iter().filter(|r| r.solo >= 0.005).count();
    writeln!(
        text,
        "programs with non-trivial (>=0.5%) solo miss ratio: {} of {} ({:.0}%)",
        non_trivial,
        rows.len(),
        100.0 * non_trivial as f64 / rows.len() as f64
    )
    .unwrap();
    writeln!(text, "paper: 9 of 29 (~30%) non-trivial").unwrap();

    ExperimentResult {
        text,
        json: rows.to_json(),
    }
}
