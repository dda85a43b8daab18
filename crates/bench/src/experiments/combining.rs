//! §III-F: combining defensiveness and politeness.
//!
//! The paper takes the three programs that function affinity improves
//! most and co-runs them optimized-optimized, comparing against
//! optimized-baseline. Finding: only negligible further improvement (and
//! no slowdown) — optimizing *one* of the two co-runners already removes
//! the instruction-cache contention, so there is no room left.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{pct, render_table, timing_hw};
use clop_core::ProgramRun;
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;
use std::sync::Arc;

struct Row {
    pair: String,
    opt_base_speedup: f64,
    opt_opt_speedup: f64,
    extra: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pair", self.pair.to_json()),
            ("opt_base_speedup", self.opt_base_speedup.to_json()),
            ("opt_opt_speedup", self.opt_opt_speedup.to_json()),
            ("extra", self.extra.to_json()),
        ])
    }
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let timing = timing_hw();

    // Rank programs by their average co-run speedup under function
    // affinity, reusing the Table II protocol on a small scale: here we
    // use the three visibly strongest from Table II (mcf, omnetpp,
    // xalancbmk-class); compute explicitly to stay self-contained.
    type Scored = (PrimaryBenchmark, f64, Arc<ProgramRun>, Arc<ProgramRun>);
    let mut scored: Vec<Scored> = ctx.map(PrimaryBenchmark::ALL.to_vec(), |_, b| {
        let w = primary_program(b);
        let base = ctx.baseline(&w);
        let opt = ctx.optimized(&w, "function-affinity").expect("fn affinity");
        // Score: self-pair improvement.
        let ob = base.corun_timed(&base, timing);
        let oo = base.corun_timed(&opt, timing);
        let speedup = ob[1].finish_cycles / oo[1].finish_cycles - 1.0;
        (b, speedup, base, opt)
    });
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let top: Vec<Scored> = scored.into_iter().take(3).collect();

    let mut text = String::new();
    writeln!(
        text,
        "three most-improving programs: {}",
        top.iter()
            .map(|(b, s, _, _)| format!("{} ({})", b.name(), pct(*s)))
            .collect::<Vec<_>>()
            .join(", ")
    )
    .unwrap();

    let mut pairs_idx = Vec::new();
    for i in 0..top.len() {
        for j in 0..top.len() {
            pairs_idx.push((i, j));
        }
    }
    let rows: Vec<Row> = ctx.map(pairs_idx, |_, (i, j)| {
        let (bi, _, base_i, opt_i) = &top[i];
        let (bj, _, base_j, opt_j) = &top[j];
        // optimized(i) with baseline(j): thread 0 = subject i.
        let base_pair = base_i.corun_timed(base_j, timing);
        let ob = opt_i.corun_timed(base_j, timing);
        let oo = opt_i.corun_timed(opt_j, timing);
        let speedup_ob = base_pair[0].finish_cycles / ob[0].finish_cycles - 1.0;
        let speedup_oo = base_pair[0].finish_cycles / oo[0].finish_cycles - 1.0;
        Row {
            pair: format!("{} + {}", bi.name(), bj.name()),
            opt_base_speedup: speedup_ob,
            opt_opt_speedup: speedup_oo,
            extra: speedup_oo - speedup_ob,
        }
    });

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pair.clone(),
                pct(r.opt_base_speedup),
                pct(r.opt_opt_speedup),
                pct(r.extra),
            ]
        })
        .collect();
    writeln!(
        text,
        "\n§III-F: optimized-baseline vs optimized-optimized co-run\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &[
                "pair (subject + peer)",
                "opt-base",
                "opt-opt",
                "extra from peer opt"
            ],
            &table
        )
    )
    .unwrap();
    let max_extra = rows.iter().map(|r| r.extra.abs()).fold(0.0, f64::max);
    writeln!(
        text,
        "largest |extra| from also optimizing the peer: {}",
        pct(max_extra)
    )
    .unwrap();
    writeln!(
        text,
        "paper: only negligible further improvement (and no slowdown)"
    )
    .unwrap();

    ExperimentResult {
        text,
        json: rows.to_json(),
    }
}
