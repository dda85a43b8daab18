//! Figure 6: per-probe co-run speedup bars for the three effective
//! optimizers (function affinity, BB affinity, function TRG).
//!
//! Each panel shows, for every subject program, its speedup when
//! co-running (optimized) against each original probe program, normalized
//! to the original-original pairing — the same protocol as Table II but
//! without averaging. Paper shape: affinity optimizers occasionally slow a
//! program down in one co-run but always improve on average; function TRG
//! is consistently beneficial except on one program where it is
//! consistently harmful.

use crate::corun::CorunLab;
use crate::experiment::{ExperimentCtx, ExperimentResult};
use crate::{pct, render_table};
use clop_util::{Json, ToJson};
use clop_workloads::PrimaryBenchmark;
use std::fmt::Write as _;

struct Panel {
    optimizer: String,
    /// subject name → (probe name, speedup) series
    series: Vec<(String, Vec<(String, f64)>)>,
}

impl ToJson for Panel {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("optimizer", self.optimizer.to_json()),
            ("series", self.series.to_json()),
        ])
    }
}

pub fn run(ctx: &ExperimentCtx) -> ExperimentResult {
    let pipelines = ["function-affinity", "bb-affinity", "function-trg"];
    let lab = CorunLab::prepare(ctx, &pipelines);
    let probes = PrimaryBenchmark::ALL;

    let mut text = String::new();
    let mut panels = Vec::new();
    for pipeline in pipelines {
        let results = ctx.map(PrimaryBenchmark::ALL.to_vec(), |_, subject| {
            (subject, lab.subject_result(subject, pipeline, &probes))
        });
        let mut series = Vec::new();
        let mut rows: Vec<Vec<String>> = Vec::new();
        for (subject, result) in results {
            match result {
                Some(r) => {
                    let mut row = vec![r.name.clone()];
                    row.extend(r.per_probe.iter().map(|(_, p)| pct(p.speedup)));
                    rows.push(row);
                    series.push((
                        r.name.clone(),
                        r.per_probe
                            .iter()
                            .map(|(n, p)| (n.clone(), p.speedup))
                            .collect(),
                    ));
                }
                None => {
                    let mut row = vec![subject.name().to_string()];
                    row.extend(std::iter::repeat_n("N/A".to_string(), probes.len()));
                    rows.push(row);
                }
            }
        }
        let mut headers: Vec<String> = vec!["subject \\ probe".into()];
        headers.extend(probes.iter().map(|p| p.name().to_string()));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        writeln!(
            text,
            "Figure 6 panel: co-run speedups, optimizer = {}\n",
            pipeline
        )
        .unwrap();
        writeln!(text, "{}", render_table(&headers_ref, &rows)).unwrap();
        panels.push(Panel {
            optimizer: pipeline.to_string(),
            series,
        });
    }
    writeln!(
        text,
        "paper: affinity optimizers may lose one pairing but improve every average;"
    )
    .unwrap();
    writeln!(
        text,
        "       function TRG consistently helps except on one program."
    )
    .unwrap();

    ExperimentResult {
        text,
        json: panels.to_json(),
    }
}
