//! `exp` — regenerate the paper's tables and figures.
//!
//! * `exp <name> [--jobs N]` runs one experiment: it prints the report and
//!   writes `results/<name>.json`.
//! * `exp all [--jobs N]` runs every experiment in sequence, sharing one
//!   memoizing [`Engine`] so baselines and optimized runs computed by one
//!   experiment are reused by the next.
//! * With no name or an unknown one, it lists the experiments and exits 2,
//!   as it does on an unknown flag, a second name, or a `--jobs` without a
//!   positive integer value. A bad `CLOP_EXP_TIMEOUT` or `CLOP_RESUME`
//!   value prints a message naming it and exits 2.
//!
//! Parallelism lives *inside* each experiment (`--jobs N`, `-j N` or
//! `--jobs=N`; defaults to the machine's available parallelism):
//! experiments fan their independent work items out over a scoped-thread
//! pool, and the pool returns results in input order, so the emitted text
//! and `results/*.json` are identical for every jobs count.
//!
//! Every experiment runs supervised (see [`clop_bench::runner`]): a panic
//! or a `CLOP_EXP_TIMEOUT` watchdog expiry is reported instead of aborting.
//! Under `exp all` the remaining experiments still run, completed ones
//! checkpoint under `<results>/.checkpoint/`, and with `CLOP_RESUME=1` a
//! batch killed mid-run re-executes only unfinished experiments. Exits
//! nonzero (with a summary table) when any experiment failed.
//!
//! [`Engine`]: clop_core::Engine

use clop_bench::experiment::{all, find, Experiment, ExperimentCtx};
use clop_bench::runner::{run_suite, run_supervised, SuiteOptions};
use clop_bench::write_json;
use clop_util::pool::default_jobs;
use clop_util::vars::Vars;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{}", e);
            return usage();
        }
    };
    let jobs = args.jobs.unwrap_or_else(default_jobs);
    let opts = match SuiteOptions::from_env(&Vars::env()) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{}", e);
            return ExitCode::from(2);
        }
    };
    match args.name.as_deref() {
        Some("all") => run_all(jobs, &opts),
        Some(name) => match find(name) {
            Some(exp) => run_one(exp, jobs, &opts),
            None => {
                eprintln!("unknown experiment {:?}", name);
                usage()
            }
        },
        None => usage(),
    }
}

/// Print the usage and the experiment list; the exit code of a bad
/// command line.
fn usage() -> ExitCode {
    eprintln!("usage: exp <name> [--jobs N] | exp all [--jobs N]");
    eprintln!("experiments:");
    for e in all() {
        eprintln!("  {:<24} {}", e.name, e.title);
    }
    ExitCode::from(2)
}

/// The command line: an experiment name (or `all`) and the worker count
/// (`None` = the machine's available parallelism).
#[derive(Debug, PartialEq, Eq)]
struct Args {
    name: Option<String>,
    jobs: Option<usize>,
}

/// Parse `[<name>] [--jobs N | -j N | --jobs=N]` in any order. An unknown
/// flag, a second name, or a `--jobs` without a positive integer value is
/// an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        name: None,
        jobs: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = if a == "--jobs" || a == "-j" {
            let v = it.next().ok_or_else(|| format!("{} requires a value", a))?;
            Some(v.as_str())
        } else {
            a.strip_prefix("--jobs=")
        };
        if let Some(v) = value {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => parsed.jobs = Some(n),
                _ => return Err(format!("--jobs expects a positive integer, got {:?}", v)),
            }
        } else if a.starts_with('-') {
            return Err(format!("unknown flag {:?}", a));
        } else if let Some(name) = &parsed.name {
            return Err(format!("unexpected argument {:?} after {:?}", a, name));
        } else {
            parsed.name = Some(a.clone());
        }
    }
    Ok(parsed)
}

fn run_one(exp: Experiment, jobs: usize, opts: &SuiteOptions) -> ExitCode {
    let ctx = Arc::new(ExperimentCtx::new(jobs));
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

fn run_all(jobs: usize, opts: &SuiteOptions) -> ExitCode {
    let ctx = Arc::new(ExperimentCtx::new(jobs));
    eprintln!(
        "running {} experiments with --jobs {}{}{}",
        all().len(),
        ctx.jobs,
        if opts.resume { " (resume)" } else { "" },
        opts.timeout
            .map(|t| format!(" (timeout {:.0}s)", t.as_secs_f64()))
            .unwrap_or_default(),
    );
    let report = run_suite(&ctx, opts);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    fn named(name: &str, jobs: Option<usize>) -> Result<Args, String> {
        Ok(Args {
            name: Some(name.to_string()),
            jobs,
        })
    }

    #[test]
    fn name_and_jobs_parse_in_every_spelling() {
        assert_eq!(parse(&["mrc", "--jobs", "3"]), named("mrc", Some(3)));
        assert_eq!(parse(&["mrc", "-j", "3"]), named("mrc", Some(3)));
        assert_eq!(parse(&["mrc", "--jobs=3"]), named("mrc", Some(3)));
        assert_eq!(parse(&["--jobs", "2", "all"]), named("all", Some(2)));
        assert_eq!(parse(&["all"]), named("all", None));
        assert_eq!(
            parse(&[]),
            Ok(Args {
                name: None,
                jobs: None
            })
        );
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected() {
        for bad in [
            &["mrc", "--jbos", "1"][..],
            &["mrc", "extra"],
            &["mrc", "--jobs"],
            &["mrc", "-j"],
            &["mrc", "--jobs", "0"],
            &["mrc", "--jobs=two"],
            &["-h"],
        ] {
            assert!(parse(bad).is_err(), "{:?} should be rejected", bad);
        }
    }
}
