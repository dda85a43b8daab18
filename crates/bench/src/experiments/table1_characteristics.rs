//! Table I: characteristics of the 8 primary benchmarks — dynamic
//! instruction count, static code size, and L1 icache miss ratios solo and
//! under the two probes (gcc-like, gamess-like).
//!
//! Paper shape: dynamic counts in the hundreds of billions (ours are
//! scaled down with the simulator), static sizes from tens of KB to MB,
//! solo miss ratios 0%–3.1% with strong co-run inflation (e.g. sjeng
//! 0.60% → 2.13% → 4.68%).

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{pct0, render_table};
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, probe_program, PrimaryBenchmark, ProbeBenchmark};
use std::fmt::Write as _;

struct Row {
    name: String,
    dynamic_instrs: u64,
    static_bytes: u64,
    solo: f64,
    corun_gcc: f64,
    corun_gamess: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("dynamic_instrs", self.dynamic_instrs.to_json()),
            ("static_bytes", self.static_bytes.to_json()),
            ("solo", self.solo.to_json()),
            ("corun_gcc", self.corun_gcc.to_json()),
            ("corun_gamess", self.corun_gamess.to_json()),
        ])
    }
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let gcc = ctx.baseline(&probe_program(ProbeBenchmark::Gcc));
    let gamess = ctx.baseline(&probe_program(ProbeBenchmark::Gamess));

    let rows = ctx.map(PrimaryBenchmark::ALL.to_vec(), |_, b| {
        let w = primary_program(b);
        let run = ctx.baseline(&w);
        Row {
            name: b.name().to_string(),
            dynamic_instrs: run.instructions,
            static_bytes: w.module.size_bytes(),
            solo: run.solo_sim().miss_ratio(),
            corun_gcc: run.corun_sim_nway(&[&gcc]).per_tenant[0].miss_ratio(),
            corun_gamess: run.corun_sim_nway(&[&gamess]).per_tenant[0].miss_ratio(),
        }
    });

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}M", r.dynamic_instrs as f64 / 1e6),
                format!("{:.1}K", r.static_bytes as f64 / 1024.0),
                pct0(r.solo),
                pct0(r.corun_gcc),
                pct0(r.corun_gamess),
            ]
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "Table I: characteristics of the 8 primary benchmarks\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &[
                "program",
                "dyn instrs",
                "static size",
                "solo miss",
                "co-run gcc",
                "co-run gamess"
            ],
            &table
        )
    )
    .unwrap();
    writeln!(
        text,
        "paper: solo 0%..3.1%; co-run inflates every non-zero ratio, gamess more than gcc."
    )
    .unwrap();

    ExperimentResult {
        text,
        json: rows.to_json(),
    }
}
