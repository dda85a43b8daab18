//! Ablation A4: does the layout optimization survive realistic replacement
//! policies?
//!
//! The paper's simulator assumes true LRU; real L1I caches use cheaper
//! approximations (tree-PLRU on Intel, FIFO on some embedded cores). We
//! replay the baseline and BB-affinity-optimized fetch streams of two
//! benchmarks under four policies and report the miss-ratio reduction per
//! policy. Expectation: the reduction is a property of the layout, not of
//! the policy — it should persist (within a few points) across all four.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{paper_cache, pct, pct0, render_table};
use clop_cachesim::{simulate_with_policy, ReplacementPolicy};
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;

struct Row {
    program: String,
    policy: String,
    base_miss: f64,
    opt_miss: f64,
    reduction: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("program", self.program.to_json()),
            ("policy", self.policy.to_json()),
            ("base_miss", self.base_miss.to_json()),
            ("opt_miss", self.opt_miss.to_json()),
            ("reduction", self.reduction.to_json()),
        ])
    }
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let cache = paper_cache();
    let benches = [PrimaryBenchmark::Gobmk, PrimaryBenchmark::Sjeng];
    let streams: Vec<(Vec<u64>, Vec<u64>)> = ctx.map(benches.to_vec(), |_, b| {
        let w = primary_program(b);
        let base = ctx.baseline(&w).lines();
        let opt = ctx.optimized(&w, "bb-affinity").expect("supported").lines();
        (base, opt)
    });

    let mut work = Vec::new();
    for (bi, b) in benches.iter().enumerate() {
        for policy in ReplacementPolicy::ALL {
            work.push((bi, *b, policy));
        }
    }
    let rows: Vec<Row> = ctx.map(work, |_, (bi, b, policy)| {
        let (base, opt) = &streams[bi];
        let sb = simulate_with_policy(base, cache, policy);
        let so = simulate_with_policy(opt, cache, policy);
        Row {
            program: b.name().to_string(),
            policy: policy.to_string(),
            base_miss: sb.miss_ratio(),
            opt_miss: so.miss_ratio(),
            reduction: sb.reduction_to(&so),
        }
    });

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.program.clone(),
                r.policy.clone(),
                pct0(r.base_miss),
                pct0(r.opt_miss),
                pct(r.reduction),
            ]
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "Ablation A4: BB-affinity miss reduction under four replacement policies\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &[
                "program",
                "policy",
                "baseline miss",
                "optimized miss",
                "reduction"
            ],
            &table
        )
    )
    .unwrap();
    writeln!(
        text,
        "expectation: the layout benefit persists across policies"
    )
    .unwrap();

    ExperimentResult {
        text,
        json: rows.to_json(),
    }
}
