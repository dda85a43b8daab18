//! Table II: average co-run speedup and miss-ratio reduction of the three
//! effective optimizers (function affinity, BB affinity, function TRG)
//! over the 8 primary benchmarks.
//!
//! Paper shape: BB affinity is the most robust and best performing (4–5%
//! average speedup on its best three programs); function affinity is
//! robust but modest; function TRG is fragile — occasional large speedups
//! with counter-productive miss ratios on a majority of programs. BB TRG
//! shows no improvement and is omitted, as in the paper.

use crate::corun::CorunLab;
use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{pct, pct0, render_table};
use clop_util::{Json, ToJson};
use clop_workloads::PrimaryBenchmark;
use std::fmt::Write as _;

/// The three effective pipelines of Table II, in presentation order.
pub const KINDS: [&str; 3] = ["function-affinity", "bb-affinity", "function-trg"];

/// One Table II row: per-optimizer (speedup, hw reduction, sim reduction)
/// averages, `None` for the paper's N/A entries.
pub struct Row {
    pub name: String,
    pub fn_aff: Option<(f64, f64, f64)>,
    pub bb_aff: Option<(f64, f64, f64)>,
    pub fn_trg: Option<(f64, f64, f64)>,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("fn_aff", self.fn_aff.to_json()),
            ("bb_aff", self.bb_aff.to_json()),
            ("fn_trg", self.fn_trg.to_json()),
        ])
    }
}

/// The Table II measurement over explicit subject/probe subsets. The
/// golden-regression test runs this on a reduced suite.
pub fn rows_for(
    ctx: &ExperimentCtx,
    subjects: &[PrimaryBenchmark],
    probes: &[PrimaryBenchmark],
) -> Vec<Row> {
    // The lab needs runs of every subject and every probe.
    let mut benches: Vec<PrimaryBenchmark> = subjects.to_vec();
    for &p in probes {
        if !benches.contains(&p) {
            benches.push(p);
        }
    }
    let lab = CorunLab::prepare_subset(ctx, &benches, &KINDS);

    // Fan every (subject, optimizer, probe) co-run cell over the pool —
    // the all-pairs simulation dominates this experiment and the cells are
    // independent. Results come back in input order, so reassembling rows
    // below reproduces the serial table byte for byte.
    let mut cell_idx = Vec::new();
    for si in 0..subjects.len() {
        for ki in 0..KINDS.len() {
            for pi in 0..probes.len() {
                cell_idx.push((si, ki, pi));
            }
        }
    }
    let cells = ctx.map(cell_idx, |_, (si, ki, pi)| {
        lab.pair_result(subjects[si], KINDS[ki], probes[pi])
    });

    let (nk, np) = (KINDS.len(), probes.len());
    subjects
        .iter()
        .enumerate()
        .map(|(si, &subject)| {
            // Average the probe cells of one (subject, optimizer) group;
            // any N/A cell (failed optimizer) makes the whole entry N/A.
            let avg = |ki: usize| -> Option<(f64, f64, f64)> {
                // N/A when the optimizer failed on this subject, even with
                // an empty probe list (mirrors `subject_result`).
                lab.optimized.get(&(subject, KINDS[ki]))?.as_ref()?;
                let group = &cells[(si * nk + ki) * np..(si * nk + ki) * np + np];
                let per_probe: Option<Vec<(String, crate::corun::PairResult)>> = group
                    .iter()
                    .zip(probes)
                    .map(|(c, p)| Some((p.name().to_string(), (*c)?)))
                    .collect();
                let a = crate::corun::SubjectResult {
                    name: subject.name().to_string(),
                    per_probe: per_probe?,
                }
                .average();
                Some((a.speedup, a.miss_reduction_hw, a.miss_reduction_sim))
            };
            Row {
                name: subject.name().to_string(),
                fn_aff: avg(0),
                bb_aff: avg(1),
                fn_trg: avg(2),
            }
        })
        .collect()
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let rows = rows_for(ctx, &PrimaryBenchmark::ALL, &PrimaryBenchmark::ALL);

    let cell = |v: &Option<(f64, f64, f64)>| -> Vec<String> {
        match v {
            Some((s, hw, sim)) => vec![pct(*s), pct0(*hw), pct0(*sim)],
            None => vec!["N/A".into(), "N/A".into(), "N/A".into()],
        }
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone()];
            row.extend(cell(&r.fn_aff));
            row.extend(cell(&r.bb_aff));
            row.extend(cell(&r.fn_trg));
            row
        })
        .collect();
    let mut text = String::new();
    writeln!(
        text,
        "Table II: average co-run speedup and miss reduction (hw-like, simulated)\n"
    )
    .unwrap();
    writeln!(
        text,
        "{}",
        render_table(
            &[
                "program",
                "fnAff spd",
                "fnAff hw",
                "fnAff sim",
                "bbAff spd",
                "bbAff hw",
                "bbAff sim",
                "fnTRG spd",
                "fnTRG hw",
                "fnTRG sim",
            ],
            &table
        )
    )
    .unwrap();
    writeln!(
        text,
        "paper: BB affinity best and most robust; function affinity robust/modest;"
    )
    .unwrap();
    writeln!(
        text,
        "       function TRG fragile (speedups can coexist with higher miss ratios)."
    )
    .unwrap();

    ExperimentResult {
        text,
        json: rows.to_json(),
    }
}
