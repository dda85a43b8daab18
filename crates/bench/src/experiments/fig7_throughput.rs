//! Figure 7: hyper-threading throughput.
//!
//! (a) Throughput improvement of baseline co-run over back-to-back solo
//!     runs — the benefit of hyper-threading itself. Paper: both programs
//!     finish 15% to over 30% faster.
//! (b) The magnifying effect of function-affinity optimization: the
//!     improvement of the optimized-baseline co-run divided by the
//!     improvement of the baseline-baseline co-run, minus one. Paper: over
//!     5.6% for 16 of 28 pairs, ≥10% for 9 pairs, arithmetic average 7.9%,
//!     one degradation (−8%, the 453-453 self-pair).
//!
//! As in the paper's figure, the pairs are all (unordered) combinations
//! with repetition of 7 programs (445.gobmk is absent from Figure 7):
//! C(7,2) + 7 = 28 pairs.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{pct, render_table, timing_hw};
use clop_cachesim::timing::throughput_improvement;
use clop_core::ProgramRun;
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;
use std::sync::Arc;

/// One co-run pair's throughput gains and magnification.
pub struct PairRow {
    pub pair: String,
    pub baseline_gain: f64,
    pub optimized_gain: f64,
    pub magnification: f64,
}

impl ToJson for PairRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pair", self.pair.to_json()),
            ("baseline_gain", self.baseline_gain.to_json()),
            ("optimized_gain", self.optimized_gain.to_json()),
            ("magnification", self.magnification.to_json()),
        ])
    }
}

/// The Figure 7 measurement over an explicit program set: all unordered
/// pairs (with repetition) of `progs`, each paired co-run against the
/// solo baselines. The golden-regression test runs this on two programs.
pub fn rows_for(ctx: &ExperimentCtx, progs: &[PrimaryBenchmark]) -> Vec<PairRow> {
    let short = |b: PrimaryBenchmark| b.name().split('.').next().unwrap().to_string();

    let timing = timing_hw();
    struct Prepared {
        base: Arc<ProgramRun>,
        opt: Arc<ProgramRun>,
        solo_cycles: f64,
    }
    let prepared: Vec<Prepared> = ctx.map(progs.to_vec(), |_, b| {
        let w = primary_program(b);
        let base = ctx.baseline(&w);
        // Function affinity succeeds on every program (Table II).
        let opt = ctx.optimized(&w, "function-affinity").expect("fn affinity");
        let solo_cycles = base.solo_timed(timing).cycles;
        Prepared {
            base,
            opt,
            solo_cycles,
        }
    });

    let mut pairs_idx = Vec::new();
    for i in 0..progs.len() {
        for j in i..progs.len() {
            pairs_idx.push((i, j));
        }
    }
    ctx.map(pairs_idx, |_, (i, j)| {
        // Baseline-baseline co-run (thread0 = program i).
        let bb = prepared[i].base.corun_timed(&prepared[j].base, timing);
        let base_gain =
            throughput_improvement(prepared[i].solo_cycles, prepared[j].solo_cycles, bb);
        // Optimized-baseline: program i optimized. Throughput counts
        // *programs completed*, so both gains are normalized by the same
        // baseline solo times — the optimized pairing's gain then reflects
        // its smaller makespan for the same work, which is what the
        // paper's magnification measures.
        let ob = prepared[i].opt.corun_timed(&prepared[j].base, timing);
        let opt_gain = throughput_improvement(prepared[i].solo_cycles, prepared[j].solo_cycles, ob);
        PairRow {
            pair: format!("{}-{}", short(progs[i]), short(progs[j])),
            baseline_gain: base_gain,
            optimized_gain: opt_gain,
            magnification: opt_gain / base_gain - 1.0,
        }
    })
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    // Figure 7's seven programs (gobmk excluded, as in the paper's axis).
    let progs = [
        PrimaryBenchmark::Perlbench,
        PrimaryBenchmark::Gcc,
        PrimaryBenchmark::Mcf,
        PrimaryBenchmark::Povray,
        PrimaryBenchmark::Sjeng,
        PrimaryBenchmark::Omnetpp,
        PrimaryBenchmark::Xalancbmk,
    ];
    let rows = rows_for(ctx, &progs);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pair.clone(),
                pct(r.baseline_gain),
                pct(r.optimized_gain),
                pct(r.magnification),
            ]
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "Figure 7: hyper-threading throughput, {} pairs\n",
        rows.len()
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &[
                "pair",
                "(a) base co-run gain",
                "opt co-run gain",
                "(b) magnification"
            ],
            &table
        )
    )
    .unwrap();

    let n = rows.len() as f64;
    let avg_base = rows.iter().map(|r| r.baseline_gain).sum::<f64>() / n;
    let avg_mag = rows.iter().map(|r| r.magnification).sum::<f64>() / n;
    let over56 = rows.iter().filter(|r| r.magnification > 0.056).count();
    let over10 = rows.iter().filter(|r| r.magnification >= 0.10).count();
    let degraded = rows.iter().filter(|r| r.magnification < 0.0).count();
    writeln!(
        text,
        "summary: avg base gain {}, avg magnification {}, >5.6% for {}/{}, >=10% for {}, degradations {}",
        pct(avg_base),
        pct(avg_mag),
        over56,
        rows.len(),
        over10,
        degraded
    )
    .unwrap();
    writeln!(
        text,
        "paper: base gains 15%..30%+; avg magnification 7.9%; 16/28 over 5.6%; 9 pairs >=10%; 1 degradation"
    )
    .unwrap();

    ExperimentResult {
        text,
        json: rows.to_json(),
    }
}
