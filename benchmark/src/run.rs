//! The runner shared by every workload: set-up, warm-up, the timed
//! untraced pass loop, the traced pass loop, and the report.

use crate::layers::Ledger;
use crate::stats::{geomean, median, percentile, tail_percentile};
use clop_util::{Json, ToJson};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `run` without `--workload` executes them.
pub const WORKLOADS: [&str; 4] = [
    "optimize-suite",
    "optimize-ref",
    "evaluate-corun",
    "serve-stream",
];

/// Set-up repeats at least `SETUP_MIN_REPS` times, and while the repeats
/// total under `SETUP_BUDGET_S` up to `SETUP_MAX_REPS` times, so that a
/// set-up of a few milliseconds still gets a steady median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 0.5;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_geomean_ms", "ms"),
    ("solo_misses_vs_orig_pct", "%"),
    ("corun_misses_vs_orig_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Layers timed by the traced run, reported as `<layer>.ms` per pass.
pub const LAYERS: [&str; 25] = [
    "core.prepare",
    "ir.interpret",
    "trace.trim",
    "trace.prune",
    "affinity.thresholds",
    "affinity.hierarchy",
    "trg.build",
    "trg.reduce",
    "core.realize",
    "verify.module",
    "verify.transform",
    "ir.link",
    "core.fetch_expand",
    "cachesim.solo",
    "cachesim.corun_nway",
    "cachesim.timed",
    "serve.admit",
    "affinity.delta",
    "trg.delta",
    "core.fold",
    "core.snapshot",
    "util.atomic_write",
    "affinity.finalize",
    "trg.finalize",
    "serve.transport",
];

/// Per-pass counters of the traced run (summed, then scaled to one pass).
pub const COUNTERS: [(&str, &str); 10] = [
    ("core.query.bb-affinity.ms", "ms"),
    ("core.query.bb-trg.ms", "ms"),
    ("trace.events", "count"),
    ("affinity.pairs", "count"),
    ("trg.edges", "count"),
    ("cachesim.accesses", "count"),
    ("cachesim.misses", "count"),
    ("serve.folded", "count"),
    ("serve.retries", "count"),
    ("serve.backpressure_waits", "count"),
];

/// Ratios of the traced run (Σ useful / Σ attempted over the run).
pub const RATIOS: [&str; 2] = ["trace.prune.retention", "cachesim.miss_ratio"];

/// Run-level numbers of the traced run.
pub const PASS_METRICS: [(&str, &str); 4] = [
    ("pass.untraced.ms", "ms"),
    ("pass.traced.ms", "ms"),
    ("coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The per-layer metric names and units, in print order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|l| (format!("{}.ms", l), "ms")).collect();
    out.extend(COUNTERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out.extend(RATIOS.iter().map(|&n| (n.to_string(), "ratio")));
    out.extend(PASS_METRICS.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: 0 keeps the suite's stock execution seeds, anything
    /// else is XORed into them.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Alternate traced passes with the untraced ones and print
    /// per-layer metrics.
    pub trace: bool,
    /// Tiny inputs, for tests.
    pub smoke: bool,
}

/// Layout quality of a run's optimized layouts against the originals,
/// summed over every (program, layout) pair.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Quality {
    /// Σ solo misses of the original layouts.
    pub solo_orig: u64,
    /// Σ solo misses of the optimized layouts.
    pub solo_opt: u64,
    /// Σ tenant-0 misses of the original layouts in the 2-way co-run.
    pub corun_orig: u64,
    /// Σ tenant-0 misses of the optimized layouts in the 2-way co-run.
    pub corun_opt: u64,
    /// Pairs compared.
    pub pairs: usize,
}

impl Quality {
    /// Add one (original, optimized) miss-count pair.
    pub fn add(&mut self, solo: (u64, u64), corun: (u64, u64)) {
        self.solo_orig += solo.0;
        self.solo_opt += solo.1;
        self.corun_orig += corun.0;
        self.corun_opt += corun.1;
        self.pairs += 1;
    }

    /// 100 · Σ optimized / Σ original solo misses: the share of the
    /// original layouts' misses the optimized layouts keep.
    pub fn solo_pct(&self) -> f64 {
        pct(self.solo_opt, self.solo_orig)
    }

    /// The same for tenant 0 of the 2-way co-run.
    pub fn corun_pct(&self) -> f64 {
        pct(self.corun_opt, self.corun_orig)
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// One named correctness check.
#[derive(Clone, Debug)]
pub(crate) struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence either way.
    pub detail: String,
}

impl Check {
    /// A check from a condition.
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// Latency samples of one kind of operation.
#[derive(Debug)]
struct OpCell {
    /// Operation name.
    pub name: String,
    /// The workload cell whose runs perform it.
    pub cell: usize,
    /// Milliseconds per operation.
    pub samples: Vec<f64>,
}

/// Per-operation latency samples of the untraced timed loop.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    on: bool,
    cell: usize,
    ops: Vec<OpCell>,
    recorded: usize,
}

impl OpLog {
    /// Record `ms` as one sample of operation `name`.
    pub fn record(&mut self, name: &str, ms: f64) {
        self.recorded += 1;
        if !self.on {
            return;
        }
        match self.ops.iter_mut().find(|o| o.name == name) {
            Some(o) => o.samples.push(ms),
            None => self.ops.push(OpCell {
                name: name.to_string(),
                cell: self.cell,
                samples: vec![ms],
            }),
        }
    }
}

/// A benchmark workload: a fixed list of cells, each a unit of work that
/// produces a digest which must repeat exactly on every pass.
pub(crate) trait Workload {
    /// Cell names; one pass runs every cell once, in this order.
    fn cells(&self) -> Vec<String>;

    /// Work after set-up that is no part of a pass (start a daemon,
    /// compute reference outputs).
    fn start(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Run one cell and return its output digest. With an active ledger
    /// this is the traced path. A cell made of several operations records
    /// each in `ops`; a cell that records none is one operation.
    fn run(&mut self, cell: usize, ops: &mut OpLog, l: &mut Ledger) -> Result<u64, String>;

    /// Layout quality of the run's products (outside any timed loop).
    fn quality(&mut self) -> Result<Quality, String>;

    /// End-of-run checks; stops anything `start` started.
    fn finish(&mut self) -> Vec<Check> {
        Vec::new()
    }
}

/// A per-run scratch directory under the working directory, removed when
/// the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    /// `.bench_work/<workload>-<pid>`, created empty.
    pub fn create(workload: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{}-{}", workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {}", dir.display(), e))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Value.
    pub value: f64,
    /// Samples the value rests on.
    pub samples: usize,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

/// Everything one run measured.
pub struct Report {
    /// The options of the run.
    options: Options,
    /// Operations plus checks attempted.
    attempted: u64,
    /// Operations that failed or disagreed with their reference, plus
    /// failed checks.
    failed: u64,
    /// What went wrong in each failed operation.
    failures: Vec<String>,
    /// Every run-level check made.
    checks: Vec<Check>,
    /// End-to-end metrics.
    end_to_end: Vec<Metric>,
    /// Per-layer metrics of the traced passes (empty without `--trace`).
    per_layer: Vec<Metric>,
    /// Detailed sections: set-up repeats, cells, operations, layers.
    detail: Vec<(String, Json)>,
}

/// One cell's bookkeeping across the run.
#[derive(Default)]
struct CellRuns {
    reference: Option<u64>,
    walls: Vec<f64>,
    traced_walls: Vec<f64>,
}

/// Run the workload named in `options` end to end.
pub fn run(options: &Options) -> Report {
    let mut report = Report {
        options: options.clone(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        checks: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        detail: Vec::new(),
    };
    if let Err(e) = run_into(options, &mut report) {
        report.checks.push(Check::new("run", false, e));
    }
    report.attempted += report.checks.len() as u64;
    report.failed += report.checks.iter().filter(|c| !c.ok).count() as u64;
    report
}

impl Report {
    /// Count one operation; `Err` marks it failed.
    fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

fn run_into(options: &Options, report: &mut Report) -> Result<(), String> {
    // Skipping verification measures a different program.
    let verify = clop_verify::verify_enabled();
    report.checks.push(Check::new(
        "verification-enabled",
        verify,
        "CLOP_VERIFY=0 is refused: every pipeline run must include its verify stage",
    ));
    if !verify {
        return Ok(());
    }
    let work = WorkDir::create(&options.workload)?;

    // One untimed set-up first: the allocator's first growth is a
    // start-up cost, not the set-up's.
    let mut w = crate::build(options, &work.0)?;
    let mut setup_s: Vec<f64> = Vec::new();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(w);
        let t = Instant::now();
        w = crate::build(options, &work.0)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    w.start()?;

    let names = w.cells();
    let mut cells: Vec<CellRuns> = names.iter().map(|_| CellRuns::default()).collect();
    let mut ops = OpLog::default();

    // Warm-up: one untimed pass that also fixes every cell's reference
    // output.
    let mut off = Ledger::off();
    for (i, cell) in cells.iter_mut().enumerate() {
        let out = w.run(i, &mut ops, &mut off);
        cell.reference = out.as_ref().ok().copied();
        report.op(out
            .map(drop)
            .map_err(|e| format!("warm-up {}: {}", names[i], e)));
    }

    let mut ledger = Ledger::on();
    timed_loop(
        &mut *w,
        &names,
        &mut cells,
        &mut ops,
        &mut ledger,
        options,
        report,
    );

    let quality = w.quality();
    report.checks.extend(w.finish());
    let quality = quality?;

    // A pass costs, per operation kind, its count per cell run times its
    // median latency; throughput is operations per such pass.
    let per_run = |o: &OpCell| o.samples.len() as f64 / cells[o.cell].walls.len().max(1) as f64;
    let pass_ms: f64 = ops
        .ops
        .iter()
        .map(|o| per_run(o) * median(&o.samples))
        .sum();
    let ops_per_pass: f64 = ops.ops.iter().map(per_run).sum();
    let op_medians: Vec<f64> = ops.ops.iter().map(|o| median(&o.samples)).collect();
    let op_samples: usize = ops.ops.iter().map(|o| o.samples.len()).sum();
    let e2e = [
        (median(&setup_s), setup_s.len()),
        (ops_per_pass / pass_ms * 1e3, op_samples),
        (geomean(&op_medians), op_samples),
        (quality.solo_pct(), quality.pairs),
        (quality.corun_pct(), quality.pairs),
        (peak_rss_mb(), 1),
    ];
    report.end_to_end = END_TO_END
        .iter()
        .zip(e2e)
        .map(|(&(n, u), (v, s))| Metric::new(n, u, v, s))
        .collect();

    report
        .detail
        .push(("setup_runs_s".into(), Json::arr(&setup_s)));
    report
        .detail
        .push(("cells".into(), cell_detail(&names, &cells)));
    report.detail.push(("operations".into(), op_detail(&ops)));
    if options.trace {
        let (metrics, detail) = layer_report(&cells, &ledger);
        report.per_layer = metrics;
        report.detail.push(("layers".into(), detail));
    }
    Ok(())
}

/// Round-robin over the cells until `--seconds` have passed and every
/// kind of pass ran at least once; every output is compared with its
/// reference. With tracing, untraced and traced passes alternate, so both
/// see the same machine and their ratio is the tracing overhead.
fn timed_loop(
    w: &mut dyn Workload,
    names: &[String],
    cells: &mut [CellRuns],
    ops: &mut OpLog,
    ledger: &mut Ledger,
    options: &Options,
    report: &mut Report,
) {
    let kinds = if options.trace { 2 } else { 1 };
    let mut off = Ledger::off();
    let start = Instant::now();
    let mut done = 0usize;
    while done < cells.len() * kinds || start.elapsed().as_secs_f64() < options.seconds {
        let i = done % cells.len();
        let traced = options.trace && (done / cells.len()) % 2 == 1;
        let l = if traced { &mut *ledger } else { &mut off };
        ops.on = !traced;
        ops.cell = i;
        let before = ops.recorded;
        let t = Instant::now();
        let out = w.run(i, ops, l);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if ops.recorded == before {
            ops.record(&names[i], ms);
        }
        let cell = &mut cells[i];
        if traced {
            cell.traced_walls.push(ms);
        } else {
            cell.walls.push(ms);
        }
        let pass = if traced { "traced pass" } else { "pass" };
        report.op(match out {
            Ok(d) if Some(d) == cell.reference => Ok(()),
            Ok(d) => Err(format!(
                "{} {}: output {:016x} differs from the warm-up's",
                pass, names[i], d
            )),
            Err(e) => Err(format!("{} {}: {}", pass, names[i], e)),
        });
        done += 1;
    }
    ops.on = false;
}

/// Per-layer metrics of the traced passes, scaled to one pass, and the
/// per-layer detail (time, calls and share of the traced pass).
fn layer_report(cells: &[CellRuns], l: &Ledger) -> (Vec<Metric>, Json) {
    let runs: usize = cells.iter().map(|c| c.traced_walls.len()).sum();
    let untraced_runs: usize = cells.iter().map(|c| c.walls.len()).sum();
    let per_pass = cells.len() as f64 / runs.max(1) as f64;
    let traced_wall: f64 = cells.iter().flat_map(|c| &c.traced_walls).sum();
    let share = |ms: f64| {
        if traced_wall > 0.0 {
            ms / traced_wall
        } else {
            0.0
        }
    };
    let traced_pass_ms: f64 = cells.iter().map(|c| median(&c.traced_walls)).sum();
    let untraced_pass_ms: f64 = cells.iter().map(|c| median(&c.walls)).sum();
    let overhead = if untraced_pass_ms > 0.0 {
        traced_pass_ms / untraced_pass_ms
    } else {
        0.0
    };

    let mut metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|&layer| {
            let calls = l.calls(layer) as usize;
            Metric::new(format!("{}.ms", layer), "ms", l.ms(layer) * per_pass, calls)
        })
        .collect();
    for (name, unit) in COUNTERS {
        metrics.push(Metric::new(name, unit, l.counter(name) * per_pass, runs));
    }
    for name in RATIOS {
        metrics.push(Metric::new(name, "ratio", l.ratio_of(name), runs));
    }
    for ((name, unit), (v, s)) in PASS_METRICS.iter().zip([
        (untraced_pass_ms, untraced_runs),
        (traced_pass_ms, runs),
        (share(l.total_ms()), runs),
        (overhead, runs),
    ]) {
        metrics.push(Metric::new(*name, unit, v, s));
    }

    let detail = Json::Arr(
        LAYERS
            .iter()
            .map(|&layer| {
                Json::obj(vec![
                    ("layer", layer.to_json()),
                    ("ms_per_pass", (l.ms(layer) * per_pass).to_json()),
                    (
                        "calls_per_pass",
                        (l.calls(layer) as f64 * per_pass).to_json(),
                    ),
                    ("share", share(l.ms(layer)).to_json()),
                ])
            })
            .collect(),
    );
    (metrics, detail)
}

/// Per cell: median wall time untraced and traced, and the reference
/// output digest.
fn cell_detail(names: &[String], cells: &[CellRuns]) -> Json {
    Json::Arr(
        names
            .iter()
            .zip(cells)
            .map(|(n, c)| {
                Json::obj(vec![
                    ("name", n.to_json()),
                    ("median_ms", median(&c.walls).to_json()),
                    ("samples", c.walls.len().to_json()),
                    ("traced_median_ms", median(&c.traced_walls).to_json()),
                    ("traced_samples", c.traced_walls.len().to_json()),
                    (
                        "digest",
                        c.reference.map(|d| format!("{:016x}", d)).to_json(),
                    ),
                ])
            })
            .collect(),
    )
}

/// Per operation cell: median and the highest percentile with at least
/// ten samples beyond it.
fn op_detail(ops: &OpLog) -> Json {
    Json::Arr(
        ops.ops
            .iter()
            .map(|o| {
                let v = &o.samples;
                let p = tail_percentile(v.len());
                Json::obj(vec![
                    ("op", o.name.to_json()),
                    ("samples", v.len().to_json()),
                    ("p50_ms", median(v).to_json()),
                    ("tail_percentile", p.to_json()),
                    ("tail_ms", percentile(v, p).to_json()),
                ])
            })
            .collect(),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metrics_json(metrics: &[Metric], samples: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", m.value.to_json()), ("unit", m.unit.to_json())];
                if samples {
                    fields.push(("samples", m.samples.to_json()));
                }
                (m.name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

impl Report {
    /// True when every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The detailed document: every metric with its unit and sample
    /// count, the checks and failures, and the detail sections.
    pub fn document(&self) -> Json {
        let checks = self
            .checks
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("name", c.name.to_json()),
                    ("ok", c.ok.to_json()),
                    ("detail", c.detail.to_json()),
                ])
            })
            .collect();
        let mut doc = vec![
            ("workload".to_string(), self.options.workload.to_json()),
            ("seed".to_string(), self.options.seed.to_json()),
            ("seconds".to_string(), self.options.seconds.to_json()),
            ("trace".to_string(), self.options.trace.to_json()),
            ("smoke".to_string(), self.options.smoke.to_json()),
            ("correct".to_string(), self.correct().to_json()),
            ("attempted".to_string(), self.attempted.to_json()),
            ("failed".to_string(), self.failed.to_json()),
            (
                "end_to_end".to_string(),
                metrics_json(&self.end_to_end, true),
            ),
            ("per_layer".to_string(), metrics_json(&self.per_layer, true)),
            ("checks".to_string(), Json::Arr(checks)),
            ("failures".to_string(), self.failures.to_json()),
        ];
        doc.extend(self.detail.iter().cloned());
        Json::Obj(doc)
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// metrics (per-layer when traced, end-to-end otherwise) as
    /// `{name: {value, unit}}`.
    pub fn result_line(&self) -> String {
        let metrics = if self.options.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        one_line(&Json::obj(vec![
            ("correct", self.correct().to_json()),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            ("metrics", metrics_json(metrics, false)),
        ]))
    }
}

/// A JSON value on one line. The pretty printer escapes every newline
/// inside strings, so joining its lines loses nothing but indentation.
fn one_line(j: &Json) -> String {
    j.pretty().lines().map(str::trim_start).collect()
}
