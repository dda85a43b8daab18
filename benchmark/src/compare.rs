//! `compare`: two sets of runs of the same benchmark, per workload and
//! metric, judged against the bounds in `BENCHMARK.json`.
//!
//! Each side's median and quartiles are reported. A metric whose
//! run-to-run spread (interquartile range over median) exceeds its bound
//! on either side is *unresolved*, unless every run of B reads better than
//! every run of A; otherwise B's median may be worse than A's by at most
//! the bound, or it is a *regression*.

use crate::stats::{quartiles, relative_spread};
use clop_util::Json;

/// A metric's direction and regression bound (`None` for per-layer
/// metrics, which carry no bound).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// True when larger values are better.
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: Option<f64>,
}

/// The metric specs of a `BENCHMARK.json` document, end-to-end first.
pub fn specs(benchmark_json: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {}", e))?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{} entry without a name", section))?;
            let better = m.get("better").and_then(Json::as_str).unwrap_or("lower");
            out.push(MetricSpec {
                name: name.to_string(),
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

/// The workload and metric values of one run's output (what `run`
/// prints: the detailed document, then the one-line result last).
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `(metric, value)` from the result line.
    pub metrics: Vec<(String, f64)>,
}

/// Parse the output of one `run`.
pub fn parse_run(text: &str) -> Result<RunResult, String> {
    let (doc, line) = text
        .trim_end()
        .rsplit_once('\n')
        .ok_or("expected a document followed by a result line")?;
    let doc = Json::parse(doc).map_err(|e| format!("document: {}", e))?;
    let line = Json::parse(line).map_err(|e| format!("result line: {}", e))?;
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("document without a workload")?
        .to_string();
    let metrics = match line.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(n, v)| Some((n.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("result line without metrics".to_string()),
    };
    Ok(RunResult { workload, metrics })
}

/// How B compares with A on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Every run of B beats every run of A.
    Better,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// The spread of A or B exceeds the bound: no claim either way.
    Unresolved,
    /// No bound (per-layer metric): reported only.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One compared (workload, metric).
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's quartiles and run count.
    pub a: ([f64; 3], usize),
    /// B's quartiles and run count.
    pub b: ([f64; 3], usize),
    /// How much worse B's median is, as a share of A's (negative: better).
    pub worse: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn values(runs: &[RunResult], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// Judge one metric from A's and B's values.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
    let worse = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let Some(bound) = spec.bound else {
        return (worse, Verdict::Info);
    };
    let better = |x: f64, y: f64| if spec.higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if all_better && !a.is_empty() && !b.is_empty() {
        Verdict::Better
    } else if relative_spread(a).max(relative_spread(b)) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Compare every (workload, metric) present on both sides.
pub fn compare(a: &[RunResult], b: &[RunResult], specs: &[MetricSpec]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in a {
        if !workloads.contains(&r.workload.as_str()) && b.iter().any(|x| x.workload == r.workload) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        for spec in specs {
            let (va, vb) = (values(a, w, &spec.name), values(b, w, &spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse, verdict) = judge(spec, &va, &vb);
            rows.push(Row {
                workload: w.to_string(),
                metric: spec.name.clone(),
                a: (quartiles(&va), va.len()),
                b: (quartiles(&vb), vb.len()),
                worse,
                verdict,
            });
        }
    }
    rows
}

/// The rows as a table.
pub fn render(rows: &[Row]) -> String {
    let side =
        |(q, n): ([f64; 3], usize)| format!("{:.4} [{:.4}, {:.4}] n={}", q[1], q[0], q[2], n);
    let mut out = format!(
        "{:<16} {:<28} {:<40} {:<40} {:>8}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<28} {:<40} {:<40} {:>7.1}%  {}\n",
            r.workload,
            r.metric,
            side(r.a),
            side(r.b),
            100.0 * r.worse,
            r.verdict.label()
        ));
    }
    out
}
