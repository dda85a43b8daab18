//! N-way validation: the N-peer composition model vs N-way simulation.
//!
//! `model_validation` checks Eq 1's single-peer form pairwise. This
//! experiment generalizes the check to shared caches with N tenants: for
//! each subject (under its baseline and function-affinity layouts) and
//! each tenant count N ∈ {2, 4, 8, 16}, the analytic N-peer prediction
//! `P(RD + Σ peer.FP ≥ C)` — computed purely from solo traces by
//! convolving the peers' footprint distributions — is compared against
//! the simulated miss ratio of tenant 0 in an N-way round-robin co-run on
//! the paper's L1I geometry. The report carries per-point absolute errors
//! and the Spearman rank agreement between prediction and simulation; the
//! golden-regression suite pins both and asserts the stated tolerances.

use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{paper_cache, pct0, render_table};
use clop_cachesim::{simulate_corun_nway, CompositionModel};
use clop_trace::{Trace, TrimmedTrace};
use clop_util::{Json, ToJson};
use clop_verify::spearman;
use clop_workloads::{primary_program, PrimaryBenchmark};
use std::fmt::Write as _;

/// The tenant counts the validation sweeps (subject + N−1 peers).
pub const TENANT_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// One validation point: a subject under one layout sharing the cache
/// with `tenants − 1` adversarial peers.
pub struct Row {
    pub subject: String,
    pub layout: String,
    pub tenants: usize,
    pub predicted: f64,
    pub simulated: f64,
}

impl Row {
    /// Absolute prediction error at this point.
    pub fn abs_error(&self) -> f64 {
        (self.predicted - self.simulated).abs()
    }
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("subject", self.subject.to_json()),
            ("layout", self.layout.to_json()),
            ("tenants", (self.tenants as u64).to_json()),
            ("predicted", self.predicted.to_json()),
            ("simulated", self.simulated.to_json()),
            ("abs_error", self.abs_error().to_json()),
        ])
    }
}

/// Aggregate agreement between prediction and simulation over a row set.
pub struct Summary {
    pub spearman: f64,
    pub mean_abs_error: f64,
    pub max_abs_error: f64,
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("spearman", self.spearman.to_json()),
            ("mean_abs_error", self.mean_abs_error.to_json()),
            ("max_abs_error", self.max_abs_error.to_json()),
        ])
    }
}

/// Rank agreement and error bounds over the whole sweep.
pub fn summarize(rows: &[Row]) -> Summary {
    let p: Vec<f64> = rows.iter().map(|r| r.predicted).collect();
    let s: Vec<f64> = rows.iter().map(|r| r.simulated).collect();
    let mut mean = 0.0f64;
    let mut max = 0.0f64;
    for r in rows {
        let e = r.abs_error();
        mean += e;
        max = max.max(e);
    }
    if !rows.is_empty() {
        mean /= rows.len() as f64;
    }
    Summary {
        spearman: spearman(&p, &s),
        mean_abs_error: mean,
        max_abs_error: max,
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

/// The adversary pool the peers are cycled from (baseline layouts).
const PEER_POOL: [PrimaryBenchmark; 4] = [
    PrimaryBenchmark::Gcc,
    PrimaryBenchmark::Mcf,
    PrimaryBenchmark::Sjeng,
    PrimaryBenchmark::Omnetpp,
];

/// Rotate a fetch stream by a peer-slot-dependent phase. Peers are cycled
/// from a small pool, so without de-phasing two identical streams advance
/// in lockstep: the same line index arrives under several tenant tags in
/// one round, blasting a single set each round and forcing 100% miss on
/// any clone once the copies outnumber the ways (pure LRU lockstep
/// thrash, which the window-based model deliberately does not predict).
/// Independent processes don't start synchronized; a distinct rotation
/// per slot restores that while preserving each peer's reuse and
/// footprint statistics.
fn rotate(src: &[u64], slot: usize) -> Vec<u64> {
    if src.is_empty() {
        return Vec::new();
    }
    let off = (slot * 7919) % src.len();
    let mut v = Vec::with_capacity(src.len());
    v.extend_from_slice(&src[off..]);
    v.extend_from_slice(&src[..off]);
    v
}

/// The validation sweep over an explicit subject and tenant-count list.
/// Each subject contributes two layouts (baseline, function-affinity);
/// the peers are the adversary-pool baselines, cycled to width N−1 and
/// phase-rotated per slot. The golden-regression test runs this on a
/// reduced subject/width subset.
pub fn rows_for(
    ctx: &ExperimentCtx,
    subjects: &[PrimaryBenchmark],
    tenant_counts: &[usize],
) -> Vec<Row> {
    let cache = paper_cache();
    let capacity = cache.num_lines() as usize; // 512 lines

    let peers: Vec<(Vec<u64>, CompositionModel)> = ctx.map(PEER_POOL.to_vec(), |_, b| {
        let run = ctx.baseline(&primary_program(b));
        let lines = run.lines();
        let model = CompositionModel::measure(&line_trace_to_trimmed(&lines), 4 * capacity);
        (lines, model)
    });

    let mut work = Vec::new();
    for &b in subjects {
        for layout in ["baseline", "fn-affinity"] {
            work.push((b, layout));
        }
    }
    let nested: Vec<Vec<Row>> = ctx.map(work, |_, (b, layout)| {
        let w = primary_program(b);
        let run = match layout {
            "baseline" => ctx.baseline(&w),
            _ => ctx
                .optimized(&w, "function-affinity")
                .expect("function reordering applies to every subject"),
        };
        let lines = run.lines();
        let model = CompositionModel::measure(&line_trace_to_trimmed(&lines), 4 * capacity);
        tenant_counts
            .iter()
            .map(|&n| {
                assert!(n >= 2, "a co-run needs at least one peer");
                let peer_models: Vec<&CompositionModel> =
                    (0..n - 1).map(|i| &peers[i % peers.len()].1).collect();
                let predicted = model.corun_miss_probability_many(&peer_models, capacity, 1.0);
                let peer_streams: Vec<Vec<u64>> = (0..n - 1)
                    .map(|i| rotate(&peers[i % peers.len()].0, i + 1))
                    .collect();
                let mut streams: Vec<&[u64]> = vec![&lines];
                streams.extend(peer_streams.iter().map(|v| v.as_slice()));
                let simulated = simulate_corun_nway(&streams, cache).per_tenant[0].miss_ratio();
                Row {
                    subject: b.name().to_string(),
                    layout: layout.to_string(),
                    tenants: n,
                    predicted,
                    simulated,
                }
            })
            .collect()
    });
    nested.into_iter().flatten().collect()
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let subjects = [
        PrimaryBenchmark::Gcc,
        PrimaryBenchmark::Mcf,
        PrimaryBenchmark::Sjeng,
        PrimaryBenchmark::Omnetpp,
    ];
    let rows = rows_for(ctx, &subjects, &TENANT_COUNTS);
    let summary = summarize(&rows);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.subject.clone(),
                r.layout.clone(),
                r.tenants.to_string(),
                pct0(r.predicted),
                pct0(r.simulated),
                pct0(r.abs_error()),
            ]
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "N-way validation: convolved N-peer prediction vs N-way simulation\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &[
                "subject",
                "layout",
                "tenants",
                "predicted",
                "simulated",
                "abs err"
            ],
            &table
        )
    )
    .unwrap();
    writeln!(
        text,
        "spearman {:.3}; abs error mean {}, max {} over {} points",
        summary.spearman,
        pct0(summary.mean_abs_error),
        pct0(summary.max_abs_error),
        rows.len()
    )
    .unwrap();
    writeln!(
        text,
        "(predictions composed from solo traces only — no co-run simulation)"
    )
    .unwrap();

    ExperimentResult {
        text,
        json: Json::obj(vec![
            ("rows", rows.to_json()),
            ("summary", summary.to_json()),
        ]),
    }
}
