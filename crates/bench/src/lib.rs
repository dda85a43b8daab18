//! Shared harness utilities for the experiment binaries.
//!
//! Every experiment binary (`src/bin/exp_*.rs`) regenerates one table or
//! figure of the paper. The experiments themselves live in
//! [`experiments`] as declarative specs registered in [`experiment::all`];
//! the binaries are thin shims over [`experiment::cli_main`]. Shared here:
//! program evaluation (link + reference run + both measurement channels),
//! aligned-text table rendering, and JSON result emission into `results/`.

pub mod corun;
pub mod experiment;
pub mod experiments;
pub mod runner;
/// Worker pool, re-exported from `clop-util` (moved there so analysis
/// crates can shard work through the same pool).
pub use clop_util::pool;

use clop_cachesim::{CacheConfig, TimingConfig};
use clop_core::{EvalConfig, OptError, Optimizer, OptimizerKind, ProfileConfig, ProgramRun};
use clop_ir::Layout;
use clop_util::{ClopError, Json};
use clop_workloads::Workload;
use std::path::{Path, PathBuf};

/// Standard evaluation config for a workload: link with the paper cache,
/// run the *reference* input.
pub fn eval_config(w: &Workload) -> EvalConfig {
    EvalConfig {
        exec: w.ref_exec,
        ..Default::default()
    }
}

/// Evaluate a workload's baseline (original layout, untransformed module).
///
/// Unmemoized convenience entry; experiments go through
/// [`experiment::ExperimentCtx::baseline`] instead, which caches the run.
pub fn baseline_run(w: &Workload) -> ProgramRun {
    ProgramRun::evaluate(&w.module, &Layout::original(&w.module), &eval_config(w))
}

/// Build an optimizer of `kind` whose profiling uses the workload's *test*
/// input.
pub fn optimizer_for(w: &Workload, kind: OptimizerKind) -> Optimizer {
    let mut opt = Optimizer::new(kind);
    opt.profile = ProfileConfig::with_exec(w.test_exec);
    opt
}

/// Optimize a workload and evaluate the result on the reference input.
/// `Err` carries the paper's "N/A" cases (BB reordering failures).
pub fn optimized_run(w: &Workload, kind: OptimizerKind) -> Result<ProgramRun, OptError> {
    let opt = optimizer_for(w, kind).optimize(&w.module)?;
    Ok(ProgramRun::evaluate(
        &opt.module,
        &opt.layout,
        &eval_config(w),
    ))
}

/// The paper's cache.
pub fn paper_cache() -> CacheConfig {
    CacheConfig::paper_l1i()
}

/// Timing with the next-line prefetcher, the HwLike channel: every timed
/// experiment runs on it.
pub fn timing_hw() -> TimingConfig {
    TimingConfig::hw_like()
}

/// Where experiment artifacts are written (`CLOP_RESULTS_DIR`, default
/// `results/`), created on demand.
pub fn try_results_dir() -> Result<PathBuf, ClopError> {
    let dir = std::env::var("CLOP_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir)
        .map_err(|e| ClopError::io(format!("create results dir {}", dir.display()), &e))?;
    Ok(dir)
}

/// Where experiment artifacts are written.
///
/// Panicking convenience wrapper around [`try_results_dir`] for callers
/// with no error channel.
pub fn results_dir() -> PathBuf {
    try_results_dir().unwrap_or_else(|e| panic!("{}", e))
}

/// Atomically write a JSON result as `<dir>/<name>.json`: the file is
/// staged as a temp sibling and renamed into place, so a crash mid-write
/// never leaves a torn artifact.
pub fn write_json_to(dir: &Path, name: &str, value: &Json) -> Result<(), ClopError> {
    let path = dir.join(format!("{}.json", name));
    clop_util::atomic_write(&path, (value.pretty() + "\n").as_bytes())
        .map_err(|e| ClopError::io(format!("write {}", path.display()), &e))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Write a JSON result under `results/<name>.json` (atomic).
pub fn write_json(name: &str, value: &Json) {
    try_results_dir()
        .and_then(|dir| write_json_to(&dir, name, value))
        .unwrap_or_else(|e| panic!("{}", e))
}

/// Render an aligned text table: header row plus data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a ratio as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:+.2}%", x * 100.0)
}

/// Format a plain (non-signed) percentage.
pub fn pct0(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0512), "+5.12%");
        assert_eq!(pct(-0.02), "-2.00%");
        assert_eq!(pct0(0.0312), "3.12%");
    }
}
