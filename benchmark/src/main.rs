//! `clop-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]`
//! `clop-benchmark compare [--bench BENCHMARK.json] A/*.json B/*.json`
//!
//! `run` prints a detailed JSON document followed by a one-line result
//! `{"correct", "attempted", "failed", "metrics"}` and exits non-zero if
//! any correctness check failed. Without `--workload` it runs every
//! workload, each in a child process of its own.

use clop_benchmark::compare;
use clop_benchmark::run::{self, Options, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: clop-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
       clop-benchmark compare [--bench BENCHMARK.json] A/*.json B/*.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("clop-benchmark: {}", e);
            ExitCode::from(2)
        }
    }
}

fn value<'a>(args: &'a [String], i: usize, flag: &str) -> Result<&'a str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", flag))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut options = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => workload = Some(value(args, i, flag)?.to_string()),
            "--seed" => {
                options.seed = value(args, i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?
            }
            "--seconds" => {
                options.seconds = value(args, i, flag)?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                options.trace = match value(args, i, flag)? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => {
                options.smoke = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {:?}\n{}", other, USAGE)),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return run_all(args);
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {:?}",
            workload, WORKLOADS
        ));
    }
    options.workload = workload;
    let report = run::run(&options);
    print!("{}", report.document().pretty());
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload in a child process of its own, so peak memory is per
/// workload; fails if any child fails.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w])
            .status()
            .map_err(|e| format!("spawn {}: {}", w, e))?;
        ok &= status.success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut files: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--bench" {
            bench = PathBuf::from(value(args, i, "--bench")?);
            i += 2;
        } else {
            files.push(&args[i]);
            i += 1;
        }
    }
    // The two sides are the two directories the files come from, in the
    // order they first appear (`A/*.json B/*.json`).
    let mut sides: Vec<(&Path, Vec<compare::RunResult>)> = Vec::new();
    for f in files {
        let dir = Path::new(f).parent().unwrap_or(Path::new(""));
        let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {}", f, e))?;
        let result = compare::parse_run(&text).map_err(|e| format!("{}: {}", f, e))?;
        match sides.iter_mut().find(|(d, _)| *d == dir) {
            Some((_, runs)) => runs.push(result),
            None => sides.push((dir, vec![result])),
        }
    }
    let [(_, a), (_, b)] = sides.as_slice() else {
        return Err(format!(
            "compare needs result files from exactly two directories, got {}\n{}",
            sides.len(),
            USAGE
        ));
    };
    let text =
        std::fs::read_to_string(&bench).map_err(|e| format!("{}: {}", bench.display(), e))?;
    let rows = compare::compare(a, b, &compare::specs(&text)?);
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regression);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
