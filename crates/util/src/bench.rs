//! A minimal micro-benchmark harness for `harness = false` bench targets.
//!
//! Replaces the external criterion dependency in the offline build. Each
//! bench target constructs a [`Runner`] from the process arguments and
//! registers closures by name; the runner times each one adaptively
//! (doubling the iteration count until a wall-clock budget is met) and
//! prints a `ns/iter` line. A positional argument filters benchmarks by
//! substring, matching `cargo bench <filter>` behaviour, and `--jobs N`
//! (`--jobs=N`, `-j N`) sets the worker count. The `--bench` flag cargo
//! passes is accepted; any other flag, a bad worker count or a second
//! filter prints the usage and exits with status 2.
//!
//! Three environment variables adjust the harness without touching the
//! targets:
//!
//! - `CLOP_BENCH_JOBS=<N>`: the worker count when no `--jobs` is given
//!   (default: the machine's parallelism). It is validated like `--jobs`:
//!   anything but an integer `N >= 1` prints the usage and exits with 2.
//! - `CLOP_BENCH_JSON=<path>`: besides the human-readable lines, append
//!   every measurement as a record to a machine-readable JSON file
//!   (`{"benchmarks": [{"name", "ns_per_iter", "melem_per_s"?}, ...]}`),
//!   written when the runner is dropped. Multiple bench targets pointed
//!   at the same path merge into one document.
//! - `CLOP_BENCH_QUICK=1`: smoke mode for CI — a tiny timing budget so
//!   every benchmark body is exercised in `--release` without spending
//!   minutes measuring. Targets consult [`quick`] to also shrink their
//!   input sizes. The switch is exactly `0` or `1` (unset or empty: off);
//!   any other value prints the usage and exits with 2.

use crate::json::{Json, ToJson};
use crate::vars::Vars;
use crate::ClopResult;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One completed measurement.
#[derive(Clone, Debug)]
struct Record {
    name: String,
    ns_per_iter: f64,
    melem_per_s: Option<f64>,
}

impl ToJson for Record {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", self.name.to_json()),
            ("ns_per_iter", self.ns_per_iter.to_json()),
        ];
        if let Some(rate) = self.melem_per_s {
            fields.push(("melem_per_s", rate.to_json()));
        }
        Json::obj(fields)
    }
}

/// Runs and reports micro-benchmarks.
pub struct Runner {
    filter: Option<String>,
    budget: Duration,
    json_path: Option<String>,
    jobs: usize,
    records: RefCell<Vec<Record>>,
}

impl Default for Runner {
    fn default() -> Self {
        Runner {
            filter: None,
            budget: if quick() {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(300)
            },
            json_path: std::env::var("CLOP_BENCH_JSON")
                .ok()
                .filter(|p| !p.is_empty()),
            jobs: crate::pool::default_jobs(),
            records: RefCell::new(Vec::new()),
        }
    }
}

/// True when `CLOP_BENCH_QUICK=1` requests smoke-test sizing: bench
/// targets should scale their inputs down so a full `--release` run
/// completes in seconds while still executing every benchmark body. The
/// switch is exactly `0` or `1`, off when unset or empty; any other value
/// prints the error and the usage and exits with status 2.
pub fn quick() -> bool {
    match quick_from(&Vars::env()) {
        Ok(on) => on,
        Err(e) => {
            eprintln!("{}\n{}", e, USAGE);
            std::process::exit(2);
        }
    }
}

/// The `CLOP_BENCH_QUICK` switch, read through `vars`.
fn quick_from(vars: &Vars) -> ClopResult<bool> {
    vars.flag("CLOP_BENCH_QUICK")
}

/// The usage line printed when a bench target's arguments do not parse.
const USAGE: &str = "usage: <bench target> [--bench] [--jobs N | --jobs=N | -j N] [FILTER]";

/// A bench target's command line: the row-name filter and the worker
/// count, when given.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    filter: Option<String>,
    jobs: Option<usize>,
}

/// A worker count: an integer `N ≥ 1`.
fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("bad worker count `{}`: need an integer >= 1", v)),
    }
}

/// Parse a bench target's arguments: `--bench` (which cargo passes), a
/// worker count `N ≥ 1` as `--jobs N`, `--jobs=N` or `-j N`, and at most
/// one filter, over the `CLOP_BENCH_JOBS` value `env_jobs` (unset or
/// empty: none). Anything else is an error naming the argument.
fn parse_args(args: &[String], env_jobs: Option<&str>) -> Result<Args, String> {
    let mut out = Args::default();
    if let Some(v) = env_jobs.filter(|v| !v.is_empty()) {
        out.jobs = Some(parse_jobs(v).map_err(|e| format!("CLOP_BENCH_JOBS: {}", e))?);
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let count = match a.as_str() {
            "--bench" => continue,
            "--jobs" | "-j" => Some(
                it.next()
                    .ok_or_else(|| format!("`{}` needs a worker count", a))?
                    .as_str(),
            ),
            other => other.strip_prefix("--jobs="),
        };
        if let Some(v) = count {
            out.jobs = Some(parse_jobs(v)?);
        } else if a.starts_with('-') {
            return Err(format!("unknown flag `{}`", a));
        } else if out.filter.is_some() {
            return Err(format!("a second filter `{}`", a));
        } else {
            out.filter = Some(a.clone());
        }
    }
    Ok(out)
}

impl Runner {
    /// Build a runner from the process arguments (see `parse_args`): the
    /// filter selects rows by name substring, and the worker count for
    /// sharded benchmark bodies defaults to `CLOP_BENCH_JOBS`, else the
    /// machine's available parallelism. Bad arguments or a bad
    /// `CLOP_BENCH_JOBS` print the usage and exit with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let env_jobs = std::env::var("CLOP_BENCH_JOBS").ok();
        match parse_args(&args, env_jobs.as_deref()) {
            Ok(parsed) => {
                let mut r = Runner::default();
                r.filter = parsed.filter;
                if let Some(jobs) = parsed.jobs {
                    r.jobs = jobs;
                }
                r
            }
            Err(msg) => {
                eprintln!("{}\n{}", msg, USAGE);
                std::process::exit(2);
            }
        }
    }

    /// Worker count for benchmark bodies that shard their work.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Time `f`, printing `name`, mean ns/iter and throughput derived from
    /// `elements` (work items per call) when provided.
    pub fn bench_with_elements<R>(
        &self,
        name: &str,
        elements: Option<u64>,
        mut f: impl FnMut() -> R,
    ) {
        if let Some(fl) = &self.filter {
            if !name.contains(fl.as_str()) {
                return;
            }
        }
        black_box(f()); // warm-up, excluded from timing
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = start.elapsed();
            if dt >= self.budget || iters >= 1 << 24 {
                let per_iter = dt.as_nanos() as f64 / iters as f64;
                let melem = elements.map(|n| n as f64 / (per_iter / 1e9) / 1e6);
                let rate = melem
                    .map(|m| format!("  {:>10.2} Melem/s", m))
                    .unwrap_or_default();
                println!("{:<44} {:>14.0} ns/iter{}", name, per_iter, rate);
                self.records.borrow_mut().push(Record {
                    name: name.to_string(),
                    ns_per_iter: per_iter,
                    melem_per_s: melem,
                });
                return;
            }
            // Grow toward the budget without overshooting wildly.
            let ratio = self.budget.as_secs_f64() / dt.as_secs_f64().max(1e-9);
            iters = (iters as f64 * ratio.clamp(1.5, 10.0)).ceil() as u64;
        }
    }

    /// Time `f` and print its mean ns/iter.
    pub fn bench<R>(&self, name: &str, f: impl FnMut() -> R) {
        self.bench_with_elements(name, None, f)
    }

    /// Write accumulated records to the `CLOP_BENCH_JSON` file, merging
    /// with any records already present (bench targets run as separate
    /// processes against the same path).
    fn flush_json(&self) {
        let Some(path) = &self.json_path else { return };
        let mut merged: Vec<Json> = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| Json::parse(&s).ok())
            .and_then(|doc| match doc.get("benchmarks") {
                Some(Json::Arr(items)) => Some(items.clone()),
                _ => None,
            })
            .unwrap_or_default();
        for rec in self.records.borrow().iter() {
            // Re-running a benchmark replaces its previous record.
            merged.retain(|j| j.get("name").and_then(|n| n.as_str()) != Some(rec.name.as_str()));
            merged.push(rec.to_json());
        }
        let doc = Json::obj(vec![("benchmarks", Json::Arr(merged))]);
        // Atomic replace: a run killed mid-flush leaves the previous
        // document intact rather than a torn JSON file.
        if let Err(e) =
            crate::atomicio::atomic_write(std::path::Path::new(path), doc.pretty().as_bytes())
        {
            eprintln!("warning: failed to write {}: {}", path, e);
        }
    }
}

impl Drop for Runner {
    fn drop(&mut self) {
        self.flush_json();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_runner(filter: Option<&str>, json_path: Option<String>) -> Runner {
        Runner {
            filter: filter.map(str::to_string),
            budget: Duration::from_micros(50),
            json_path,
            jobs: 1,
            records: RefCell::new(Vec::new()),
        }
    }

    fn parse_with_env(v: &[&str], env_jobs: Option<&str>) -> Result<Args, String> {
        parse_args(
            &v.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            env_jobs,
        )
    }

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_with_env(v, None)
    }

    #[test]
    fn jobs_flag_is_parsed_and_not_a_filter() {
        let args = |filter: Option<&str>, jobs: Option<usize>| Args {
            filter: filter.map(str::to_string),
            jobs,
        };
        assert_eq!(
            parse(&["--bench", "--jobs", "4", "affinity"]),
            Ok(args(Some("affinity"), Some(4)))
        );
        assert_eq!(parse(&["--jobs=8"]), Ok(args(None, Some(8))));
        assert_eq!(
            parse(&["-j", "2", "trg", "--bench"]),
            Ok(args(Some("trg"), Some(2)))
        );
        assert_eq!(parse(&["--bench"]), Ok(args(None, None)));
        assert_eq!(parse(&[]), Ok(args(None, None)));
    }

    #[test]
    fn unknown_flags_bad_counts_and_second_filters_are_rejected() {
        for bad in [
            &["--jbos", "1"][..],
            &["--test"],
            &["-q", "cache"],
            &["--jobs", "0"],
            &["--jobs=0"],
            &["--jobs", "x"],
            &["-j", "-1"],
            &["--jobs"],
            &["--jobs="],
            &["cache", "extra"],
        ] {
            assert!(parse(bad).is_err(), "{:?} must be rejected", bad);
        }
        assert!(parse(&["--jbos", "1"]).unwrap_err().contains("--jbos"));
    }

    #[test]
    fn bench_jobs_variable_is_validated_like_the_flag() {
        let jobs = |args: &[&str], env: Option<&str>| parse_with_env(args, env).map(|a| a.jobs);
        assert_eq!(jobs(&[], Some("3")), Ok(Some(3)));
        assert_eq!(jobs(&["-j", "2"], Some("3")), Ok(Some(2)), "the flag wins");
        assert_eq!(jobs(&[], Some("")), Ok(None), "empty is unset");
        for bad in ["x", "0", "-1", "2x"] {
            let err = jobs(&[], Some(bad)).unwrap_err();
            assert!(
                err.contains("CLOP_BENCH_JOBS") && err.contains(bad),
                "{}",
                err
            );
        }
    }

    #[test]
    fn bench_runs_and_respects_filter() {
        let mut calls = 0u32;
        let r = test_runner(Some("yes"), None);
        r.bench("yes_this_one", || calls += 1);
        assert!(calls >= 2, "warm-up plus at least one timed iteration");
        let before = calls;
        r.bench("not_matching", || calls += 1);
        assert_eq!(calls, before, "filtered benchmark must not run");
    }

    #[test]
    fn json_records_written_and_merged_on_drop() {
        let path =
            std::env::temp_dir().join(format!("clop_bench_json_test_{}.json", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&path);

        {
            let r = test_runner(None, Some(path_str.clone()));
            r.bench_with_elements("first/one", Some(1000), || 1 + 1);
        }
        {
            // Second "process": merges with the existing file and
            // replaces same-name records rather than duplicating them.
            let r = test_runner(None, Some(path_str.clone()));
            r.bench("second/two", || 2 + 2);
            r.bench("first/one", || 3 + 3);
        }

        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Some(Json::Arr(items)) = doc.get("benchmarks") else {
            panic!("missing benchmarks array");
        };
        let names: Vec<&str> = items
            .iter()
            .filter_map(|j| j.get("name").and_then(|n| n.as_str()))
            .collect();
        assert_eq!(names, vec!["second/two", "first/one"]);
        for j in items {
            assert!(j.get("ns_per_iter").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        }
        // Throughput only on the record benched with elements — replaced
        // by the later elements-free run, so absent from both here.
        assert!(items.iter().all(|j| j.get("melem_per_s").is_none()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quick_switch_is_exactly_0_or_1() {
        let quick_at = |value: Option<&str>| {
            let lookup = |name: &str| {
                assert_eq!(name, "CLOP_BENCH_QUICK");
                value.map(str::to_string)
            };
            quick_from(&Vars(&lookup))
        };
        assert!(!quick_at(None).unwrap());
        assert!(!quick_at(Some("")).unwrap());
        assert!(!quick_at(Some("0")).unwrap());
        assert!(quick_at(Some("1")).unwrap());
        for bad in ["false", "true", "yes", "2", " 1"] {
            let err = quick_at(Some(bad)).unwrap_err().to_string();
            assert!(
                err.contains("CLOP_BENCH_QUICK") && err.contains(bad),
                "{}",
                err
            );
        }
    }
}
