//! `exp` — regenerate the paper's tables and figures.
//!
//! * `exp <name> [--jobs N]` runs one experiment: it prints the report and
//!   writes `results/<name>.json`.
//! * `exp all [--jobs N]` runs every experiment in sequence, sharing one
//!   memoizing [`Engine`] so baselines and optimized runs computed by one
//!   experiment are reused by the next.
//! * With no name or an unknown one, it lists the experiments and exits 2.
//!
//! Parallelism lives *inside* each experiment (`--jobs N`, or `-j N`;
//! defaults to the machine's available parallelism): experiments fan their
//! independent work items out over a scoped-thread pool, and the pool
//! returns results in input order, so the emitted text and
//! `results/*.json` are identical for every jobs count.
//!
//! Every experiment runs supervised (see [`clop_bench::runner`]): a panic
//! or a `CLOP_EXP_TIMEOUT` watchdog expiry is reported instead of aborting.
//! Under `exp all` the remaining experiments still run, completed ones
//! checkpoint under `<results>/.checkpoint/`, and with `CLOP_RESUME=1` a
//! batch killed mid-run re-executes only unfinished experiments. Exits
//! nonzero (with a summary table) when any experiment failed.
//!
//! [`Engine`]: clop_core::Engine

use clop_bench::experiment::{all, find, jobs_from_args, Experiment, ExperimentCtx};
use clop_bench::runner::{run_suite, run_supervised, SuiteOptions};
use clop_bench::write_json;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = experiment_name(&args);
    if name == Some("all") {
        return run_all();
    }
    match name.and_then(find) {
        Some(exp) => run_one(exp),
        None => {
            if let Some(name) = name {
                eprintln!("unknown experiment {:?}", name);
            }
            eprintln!("usage: exp <name> [--jobs N] | exp all [--jobs N]");
            eprintln!("experiments:");
            for e in all() {
                eprintln!("  {:<24} {}", e.name, e.title);
            }
            ExitCode::from(2)
        }
    }
}

/// The first argument that is not `--jobs`/`-j`, its value, or another
/// flag.
fn experiment_name(args: &[String]) -> Option<&str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" || a == "-j" {
            it.next();
        } else if !a.starts_with('-') {
            return Some(a);
        }
    }
    None
}

fn run_one(exp: Experiment) -> ExitCode {
    let ctx = Arc::new(ExperimentCtx::new(jobs_from_args()));
    let opts = SuiteOptions::from_env();
    match run_supervised(&exp, &ctx, opts.timeout) {
        Ok(result) => {
            print!("{}", result.text);
            write_json(exp.name, &result.json);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiment `{}` failed: {}", exp.name, e);
            ExitCode::FAILURE
        }
    }
}

fn run_all() -> ExitCode {
    let ctx = Arc::new(ExperimentCtx::new(jobs_from_args()));
    let opts = SuiteOptions::from_env();
    eprintln!(
        "running {} experiments with --jobs {}{}{}",
        all().len(),
        ctx.jobs,
        if opts.resume { " (resume)" } else { "" },
        opts.timeout
            .map(|t| format!(" (timeout {:.0}s)", t.as_secs_f64()))
            .unwrap_or_default(),
    );
    let report = run_suite(&ctx, &opts);
    let stats = ctx.engine.stats();
    eprintln!(
        "engine: {} evaluations ({} memoized), {} optimizations ({} memoized)",
        stats.eval_misses, stats.eval_hits, stats.opt_misses, stats.opt_hits
    );
    eprintln!();
    eprint!("{}", report.summary_table());
    if report.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
