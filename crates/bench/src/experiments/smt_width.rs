//! Extension experiment: scaling SMT width beyond two threads.
//!
//! The paper's introduction notes that IBM POWER7 runs 4 SMT threads per
//! core and POWER8 runs 8 — sharing the instruction cache that much more
//! aggressively. We co-run 1, 2, 4 and 8 copies of a sensitive program
//! (471.omnetpp-like) and of a code-heavy one (403.gcc-like) in the shared
//! L1I, baseline vs function-affinity-optimized, and report how miss
//! inflation grows with width and how much of it the optimization removes.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{eval_config, paper_cache, pct0, render_table};
use clop_cachesim::simulate_corun_nway;
use clop_ir::Layout;
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;

struct Row {
    program: String,
    width: usize,
    base_miss: f64,
    opt_miss: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("program", self.program.to_json()),
            ("width", self.width.to_json()),
            ("base_miss", self.base_miss.to_json()),
            ("opt_miss", self.opt_miss.to_json()),
        ])
    }
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let cache = paper_cache();
    let mut rows = Vec::new();
    for b in [PrimaryBenchmark::Omnetpp, PrimaryBenchmark::Gcc] {
        let w = primary_program(b);
        // Each co-running copy processes its own input (distinct seed);
        // identical lock-stepped streams would alias pathologically in
        // ways no real consolidation exhibits.
        let copies: Vec<Vec<u64>> = ctx.map((0u64..8).collect(), |_, seed_offset| {
            let mut cfg = eval_config(&w);
            cfg.exec = cfg.exec.seeded(cfg.exec.seed ^ (seed_offset * 0x9E37));
            ctx.evaluate(&w.module, &Layout::original(&w.module), &cfg)
                .lines()
        });
        let opt_lines = ctx
            .optimized(&w, "function-affinity")
            .expect("fn affinity")
            .lines();
        for width in [1usize, 2, 4, 8] {
            let base_streams: Vec<&[u64]> = (0..width).map(|i| copies[i].as_slice()).collect();
            let base = simulate_corun_nway(&base_streams, cache).per_tenant[0];
            // One optimized copy among width−1 baseline peers: the
            // defensiveness question at width.
            let mut opt_streams: Vec<&[u64]> = vec![opt_lines.as_slice()];
            opt_streams.extend((1..width).map(|i| copies[i].as_slice()));
            let opt = simulate_corun_nway(&opt_streams, cache).per_tenant[0];
            rows.push(Row {
                program: b.name().to_string(),
                width,
                base_miss: base.miss_ratio(),
                opt_miss: opt.miss_ratio(),
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.program.clone(),
                format!("{}-way", r.width),
                pct0(r.base_miss),
                pct0(r.opt_miss),
                pct0((r.base_miss - r.opt_miss).max(0.0)),
            ]
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "SMT width scaling: subject miss ratio, baseline vs optimized subject\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &[
                "program",
                "SMT width",
                "baseline",
                "optimized",
                "absolute saving"
            ],
            &table
        )
    )
    .unwrap();
    writeln!(
        text,
        "expectation: inflation grows with width; the optimized copy suffers less"
    )
    .unwrap();

    ExperimentResult {
        text,
        json: rows.to_json(),
    }
}
