//! Validation of the footprint-composition model (§II-A, Eq 1/Eq 2).
//!
//! The paper grounds its defensiveness/politeness definitions in the
//! composition `P(self.miss) = P(self.FP + peer.FP ≥ C)`. Here we check
//! that the analytical model, computed purely from each program's solo
//! trace (reuse histogram + footprint curve, in cache-line units), ranks
//! co-run interference the same way the interleaved shared-cache
//! simulation measures it: for every subject × peer pair we report the
//! predicted and simulated co-run miss ratios and the rank agreement.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{paper_cache, pct0, render_table};
use clop_cachesim::{simulate_corun_nway, CompositionModel};
use clop_trace::{Trace, TrimmedTrace};
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;

struct Pair {
    subject: String,
    peer: String,
    predicted: f64,
    simulated: f64,
}

impl ToJson for Pair {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("subject", self.subject.to_json()),
            ("peer", self.peer.to_json()),
            ("predicted", self.predicted.to_json()),
            ("simulated", self.simulated.to_json()),
        ])
    }
}

fn line_trace_to_trimmed(lines: &[u64]) -> TrimmedTrace {
    // Line indices exceed u32 rarely (they're image offsets / 64); remap
    // densely to be safe.
    let mut map = std::collections::HashMap::new();
    let mut t = Trace::new();
    for &l in lines {
        let next = map.len() as u32;
        let id = *map.entry(l).or_insert(next);
        t.push(clop_trace::BlockId(id));
    }
    t.trim()
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let cache = paper_cache();
    let capacity = cache.num_lines() as usize; // 512 lines

    let programs = [
        PrimaryBenchmark::Gcc,
        PrimaryBenchmark::Mcf,
        PrimaryBenchmark::Sjeng,
        PrimaryBenchmark::Omnetpp,
    ];
    let runs: Vec<(PrimaryBenchmark, Vec<u64>, CompositionModel)> =
        ctx.map(programs.to_vec(), |_, b| {
            let run = ctx.baseline(&primary_program(b));
            let lines = run.lines();
            let trimmed = line_trace_to_trimmed(&lines);
            let model = CompositionModel::measure(&trimmed, 4 * capacity);
            (b, lines, model)
        });

    let mut work = Vec::new();
    for i in 0..runs.len() {
        for j in 0..runs.len() {
            work.push((i, j));
        }
    }
    let pairs: Vec<Pair> = ctx.map(work, |_, (i, j)| {
        let (sb, slines, smodel) = &runs[i];
        let (pb, plines, pmodel) = &runs[j];
        let predicted = smodel.corun_miss_probability(pmodel, capacity, 1.0);
        let simulated = simulate_corun_nway(&[slines, plines], cache).per_tenant[0].miss_ratio();
        Pair {
            subject: sb.name().to_string(),
            peer: pb.name().to_string(),
            predicted,
            simulated,
        }
    });

    let table: Vec<Vec<String>> = pairs
        .iter()
        .map(|p| {
            vec![
                p.subject.clone(),
                p.peer.clone(),
                pct0(p.predicted),
                pct0(p.simulated),
            ]
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "Model validation: Eq 1 predicted vs simulated co-run miss ratio\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(&["subject", "peer", "predicted", "simulated"], &table)
    )
    .unwrap();

    // Rank agreement per subject: does the model order the peers the same
    // way the simulator does?
    let mut concordant = 0usize;
    let mut total = 0usize;
    for (sb, _, _) in &runs {
        let mine: Vec<&Pair> = pairs.iter().filter(|p| p.subject == sb.name()).collect();
        for i in 0..mine.len() {
            for j in (i + 1)..mine.len() {
                let dp = mine[i].predicted - mine[j].predicted;
                let ds = mine[i].simulated - mine[j].simulated;
                if dp.abs() > 1e-6 && ds.abs() > 1e-6 {
                    total += 1;
                    if dp.signum() == ds.signum() {
                        concordant += 1;
                    }
                }
            }
        }
    }
    writeln!(
        text,
        "peer-ranking concordance: {}/{} pairwise orderings agree",
        concordant, total
    )
    .unwrap();
    writeln!(
        text,
        "(the model is composed from solo traces only — no co-run simulation)"
    )
    .unwrap();

    ExperimentResult {
        text,
        json: pairs.to_json(),
    }
}
