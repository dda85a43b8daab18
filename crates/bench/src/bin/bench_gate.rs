//! CI bench regression gate: compare fresh quick-mode benchmark runs
//! against the committed baseline and fail on ns/iter regressions.
//!
//! Usage: `bench_gate [<baseline.json>] [<current.json>...]` (defaults:
//! `BENCH_baseline.json`, `bench_current.json`). All files are
//! `CLOP_BENCH_JSON` documents. When several current files are given
//! (`ci/bench_gate.sh` passes two), each benchmark is gated on its
//! *minimum* ns/iter across the runs: scheduler and frequency noise only
//! ever inflates a measurement, so best-of-N keeps one noisy run from
//! failing the build while a real regression persists in every run.
//!
//! A benchmark regresses when its ns/iter exceeds the baseline by more
//! than the relative tolerance (`CLOP_BENCH_TOLERANCE`, default `0.25`)
//! *and* by more than an absolute slack (`CLOP_BENCH_ABS_SLACK_NS`,
//! default `500`) — the slack keeps nanosecond-scale cases from failing
//! the build on scheduler noise. Either variable must be a finite number
//! `>= 0`; any other value prints the error and exits with status 2. A
//! benchmark present in the baseline but
//! missing from every current run fails the gate (a silent rename must
//! update the baseline); new benchmarks are reported but not gated.

use clop_util::vars::Vars;
use clop_util::{ClopResult, Json};
use std::collections::BTreeMap;

fn read_measurements(path: &str) -> BTreeMap<String, f64> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {}: {}", path, e);
            std::process::exit(2);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_gate: cannot parse {}: {}", path, e);
            std::process::exit(2);
        }
    };
    let Some(Json::Arr(items)) = doc.get("benchmarks") else {
        eprintln!("bench_gate: {} has no `benchmarks` array", path);
        std::process::exit(2);
    };
    items
        .iter()
        .filter_map(|j| {
            Some((
                j.get("name")?.as_str()?.to_string(),
                j.get("ns_per_iter")?.as_f64()?,
            ))
        })
        .collect()
}

/// Read full benchmark records (not just ns/iter) keyed by name.
fn read_records(path: &str) -> BTreeMap<String, Json> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_gate: cannot read {}: {}", path, e);
            std::process::exit(2);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_gate: cannot parse {}: {}", path, e);
            std::process::exit(2);
        }
    };
    let Some(Json::Arr(items)) = doc.get("benchmarks") else {
        eprintln!("bench_gate: {} has no `benchmarks` array", path);
        std::process::exit(2);
    };
    items
        .iter()
        .filter_map(|j| {
            let name = j.get("name")?.as_str()?.to_string();
            j.get("ns_per_iter")?.as_f64()?;
            Some((name, j.clone()))
        })
        .collect()
}

/// `--write-min <out> <in>...`: merge several `CLOP_BENCH_JSON` documents
/// into one, keeping each benchmark's fastest record — the noise-floor
/// estimate used to (re)generate `BENCH_baseline.json`.
fn write_min(out_path: &str, inputs: &[String]) {
    let ns = |j: &Json| {
        j.get("ns_per_iter")
            .and_then(Json::as_f64)
            .unwrap_or(f64::MAX)
    };
    let mut best: BTreeMap<String, Json> = BTreeMap::new();
    for path in inputs {
        for (name, rec) in read_records(path) {
            match best.get(&name) {
                Some(prev) if ns(prev) <= ns(&rec) => {}
                _ => {
                    best.insert(name, rec);
                }
            }
        }
    }
    let doc = Json::obj(vec![(
        "benchmarks",
        Json::Arr(best.into_values().collect()),
    )]);
    if let Err(e) = std::fs::write(out_path, doc.pretty().as_bytes()) {
        eprintln!("bench_gate: cannot write {}: {}", out_path, e);
        std::process::exit(2);
    }
    println!(
        "bench_gate: wrote best-of-{} baseline to {}",
        inputs.len(),
        out_path
    );
}

/// The relative tolerance and the absolute slack in ns
/// (`CLOP_BENCH_TOLERANCE`, `CLOP_BENCH_ABS_SLACK_NS`): finite numbers
/// `>= 0`, defaults `0.25` and `500` when unset or empty.
fn gate_limits(vars: &Vars) -> ClopResult<(f64, f64)> {
    let finite = 0.0..f64::INFINITY;
    Ok((
        vars.get("CLOP_BENCH_TOLERANCE", 0.25, finite.clone())?,
        vars.get("CLOP_BENCH_ABS_SLACK_NS", 500.0, finite)?,
    ))
}

/// A relative guard between two benchmarks measured in the *same* runs:
/// `name` must not exceed `reference` by more than `max_ratio`. Immune to
/// machine speed (both sides share the run), so it can assert structural
/// properties — e.g. "sharded analysis at jobs=8 never loses to jobs=1".
struct RatioGuard {
    name: String,
    reference: String,
    max_ratio: f64,
}

/// An absolute guard on one benchmark: its best-of-N ns/iter must stay
/// under a fixed ceiling. Unlike the baseline comparison (relative, with
/// tolerance) this asserts a hard budget — e.g. "a static locality score
/// costs under a millisecond", the contract the pre-filter hook rests on.
struct CeilingGuard {
    name: String,
    max_ns: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--write-min") {
        let Some(out) = args.get(2) else {
            eprintln!("usage: bench_gate --write-min <out.json> <in.json>...");
            std::process::exit(2);
        };
        if args.len() < 4 {
            eprintln!("usage: bench_gate --write-min <out.json> <in.json>...");
            std::process::exit(2);
        }
        write_min(out, &args[3..]);
        return;
    }
    // Extract `--guard <name> <reference> <max_ratio>` triples; what
    // remains is the positional `[baseline] [current...]` list.
    let mut guards: Vec<RatioGuard> = Vec::new();
    let mut ceilings: Vec<CeilingGuard> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--ceiling" {
            let (Some(name), Some(ns)) = (it.next(), it.next()) else {
                eprintln!("usage: bench_gate [--ceiling <name> <max_ns>]... [<baseline.json>] [<current.json>...]");
                std::process::exit(2);
            };
            let Ok(max_ns) = ns.parse::<f64>() else {
                eprintln!("bench_gate: bad ceiling {}", ns);
                std::process::exit(2);
            };
            ceilings.push(CeilingGuard { name, max_ns });
        } else if arg == "--guard" {
            let (Some(name), Some(reference), Some(ratio)) = (it.next(), it.next(), it.next())
            else {
                eprintln!("usage: bench_gate [--guard <name> <reference> <max_ratio>]... [<baseline.json>] [<current.json>...]");
                std::process::exit(2);
            };
            let Ok(max_ratio) = ratio.parse::<f64>() else {
                eprintln!("bench_gate: bad guard ratio {}", ratio);
                std::process::exit(2);
            };
            guards.push(RatioGuard {
                name,
                reference,
                max_ratio,
            });
        } else {
            positional.push(arg);
        }
    }
    let baseline_path = positional
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_baseline.json")
        .to_string();
    let baseline_path = baseline_path.as_str();
    let current_paths: Vec<&str> = if positional.len() > 1 {
        positional[1..].iter().map(String::as_str).collect()
    } else {
        vec!["bench_current.json"]
    };
    let (tolerance, slack_ns) = match gate_limits(&Vars::env()) {
        Ok(limits) => limits,
        Err(e) => {
            eprintln!("bench_gate: {}", e);
            std::process::exit(2);
        }
    };

    let baseline = read_measurements(baseline_path);
    let mut current: BTreeMap<String, f64> = BTreeMap::new();
    for path in &current_paths {
        for (name, ns) in read_measurements(path) {
            current
                .entry(name)
                .and_modify(|best| *best = best.min(ns))
                .or_insert(ns);
        }
    }

    let mut failures = 0usize;
    println!(
        "{:<44} {:>14} {:>14} {:>9}",
        "benchmark", "baseline ns", "current ns", "delta"
    );
    for (name, &base) in &baseline {
        match current.get(name) {
            Some(&cur) => {
                let delta = cur / base - 1.0;
                let regressed = delta > tolerance && cur - base > slack_ns;
                println!(
                    "{:<44} {:>14.0} {:>14.0} {:>+8.1}%{}",
                    name,
                    base,
                    cur,
                    delta * 100.0,
                    if regressed { "  REGRESSED" } else { "" }
                );
                if regressed {
                    failures += 1;
                }
            }
            None => {
                println!("{:<44} {:>14.0} {:>14}   MISSING", name, base, "-");
                failures += 1;
            }
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            println!("{:<44} new benchmark (not gated)", name);
        }
    }

    for g in &guards {
        match (current.get(&g.name), current.get(&g.reference)) {
            (Some(&a), Some(&b)) if b > 0.0 => {
                let ratio = a / b;
                let violated = ratio > g.max_ratio;
                println!(
                    "guard {} <= {:.2}x {}: {:.2}x{}",
                    g.name,
                    g.max_ratio,
                    g.reference,
                    ratio,
                    if violated { "  VIOLATED" } else { "" }
                );
                if violated {
                    failures += 1;
                }
            }
            _ => {
                println!(
                    "guard {} <= {:.2}x {}: MISSING measurement",
                    g.name, g.max_ratio, g.reference
                );
                failures += 1;
            }
        }
    }

    for c in &ceilings {
        match current.get(&c.name) {
            Some(&ns) => {
                let violated = ns > c.max_ns;
                println!(
                    "ceiling {} <= {:.0} ns: {:.0} ns{}",
                    c.name,
                    c.max_ns,
                    ns,
                    if violated { "  VIOLATED" } else { "" }
                );
                if violated {
                    failures += 1;
                }
            }
            None => {
                println!(
                    "ceiling {} <= {:.0} ns: MISSING measurement",
                    c.name, c.max_ns
                );
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!(
            "bench_gate: {} failure(s) beyond {:.0}% (+{:.0} ns slack) vs {}",
            failures,
            tolerance * 100.0,
            slack_ns,
            baseline_path
        );
        std::process::exit(1);
    }
    println!(
        "bench_gate: OK — {} benchmarks within {:.0}% of {}",
        baseline.len(),
        tolerance * 100.0,
        baseline_path
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate's limits with the two variables set as given.
    fn limits(tolerance: Option<&str>, slack: Option<&str>) -> ClopResult<(f64, f64)> {
        let lookup = |name: &str| match name {
            "CLOP_BENCH_TOLERANCE" => tolerance.map(str::to_string),
            "CLOP_BENCH_ABS_SLACK_NS" => slack.map(str::to_string),
            _ => None,
        };
        gate_limits(&Vars(&lookup))
    }

    #[test]
    fn limits_default_when_unset_or_empty() {
        assert_eq!(limits(None, None).unwrap(), (0.25, 500.0));
        assert_eq!(limits(Some(""), Some("")).unwrap(), (0.25, 500.0));
        assert_eq!(limits(Some("0.1"), Some("0")).unwrap(), (0.1, 0.0));
    }

    #[test]
    fn bad_limits_are_errors_naming_the_variable_and_the_value() {
        for bad in ["10%", "abc", "-1", "inf", "NaN"] {
            let err = limits(Some(bad), None).unwrap_err().to_string();
            assert!(
                err.contains("CLOP_BENCH_TOLERANCE") && err.contains(bad),
                "{}",
                err
            );
            let err = limits(None, Some(bad)).unwrap_err().to_string();
            assert!(
                err.contains("CLOP_BENCH_ABS_SLACK_NS") && err.contains(bad),
                "{}",
                err
            );
        }
    }
}
