//! The introduction's motivating table: the average L1I miss ratio of the
//! programs with non-trivial solo miss ratios, in solo run and in
//! hyper-threaded co-run with two different peers.
//!
//! Paper numbers: solo 1.5%, co-run 1 (gcc peer) 2.5% (+67%), co-run 2
//! (gamess peer) 3.8% (+153%). Shape to reproduce: co-run inflates the
//! average strongly, and the heavier peer inflates it more.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{pct, pct0, render_table};
use clop_util::{Json, ToJson};
use clop_workloads::{full_suite, probe_program, ProbeBenchmark};
use std::fmt::Write as _;

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let gcc = ctx.baseline(&probe_program(ProbeBenchmark::Gcc));
    let gamess = ctx.baseline(&probe_program(ProbeBenchmark::Gamess));

    // Select programs with non-trivial solo miss ratio (≥ 0.5%), the
    // paper's "9 out of 29" set.
    let measured = ctx.map(full_suite(), |_, entry| {
        let w = entry.workload();
        let run = ctx.baseline(&w);
        let solo = run.solo_sim().miss_ratio();
        if solo < 0.005 {
            return None;
        }
        let c1 = run.corun_sim_nway(&[&gcc]).per_tenant[0].miss_ratio();
        let c2 = run.corun_sim_nway(&[&gamess]).per_tenant[0].miss_ratio();
        Some((entry.name.to_string(), solo, c1, c2))
    });
    let selected: Vec<(String, f64, f64, f64)> = measured.into_iter().flatten().collect();

    let n = selected.len() as f64;
    let avg = |f: fn(&(String, f64, f64, f64)) -> f64| selected.iter().map(f).sum::<f64>() / n;
    let avg_solo = avg(|x| x.1);
    let avg_corun_gcc = avg(|x| x.2);
    let avg_corun_gamess = avg(|x| x.3);
    let increase_gcc = avg_corun_gcc / avg_solo - 1.0;
    let increase_gamess = avg_corun_gamess / avg_solo - 1.0;

    let mut text = String::new();
    writeln!(
        text,
        "Intro table: average L1I miss ratio over the {} non-trivial programs\n",
        selected.len()
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &["", "avg. miss ratio", "increase over solo"],
            &[
                vec!["solo".into(), pct0(avg_solo), "—".into()],
                vec![
                    "co-run 1 (gcc peer)".into(),
                    pct0(avg_corun_gcc),
                    pct(increase_gcc)
                ],
                vec![
                    "co-run 2 (gamess peer)".into(),
                    pct0(avg_corun_gamess),
                    pct(increase_gamess)
                ],
            ]
        )
    )
    .unwrap();
    writeln!(text, "paper: 1.5% / 2.5% (+67%) / 3.8% (+153%)").unwrap();

    let programs: Vec<String> = selected.iter().map(|x| x.0.clone()).collect();
    let json = Json::obj(vec![
        ("programs", programs.to_json()),
        ("avg_solo", avg_solo.to_json()),
        ("avg_corun_gcc", avg_corun_gcc.to_json()),
        ("avg_corun_gamess", avg_corun_gamess.to_json()),
        ("increase_gcc", increase_gcc.to_json()),
        ("increase_gamess", increase_gamess.to_json()),
    ]);
    ExperimentResult { text, json }
}
