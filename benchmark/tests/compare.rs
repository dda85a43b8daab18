//! `compare`: verdicts against bounds, and parsing of run outputs and of
//! `BENCHMARK.json`.

use clop_benchmark::compare::{compare, judge, parse_run, specs, MetricSpec, RunResult, Verdict};

fn spec(higher_is_better: bool, bound: Option<f64>) -> MetricSpec {
    MetricSpec {
        name: "m".to_string(),
        higher_is_better,
        bound,
    }
}

const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

fn scaled(k: f64) -> Vec<f64> {
    STEADY.iter().map(|x| x * k).collect()
}

#[test]
fn within_the_bound_is_ok() {
    let (worse, v) = judge(&spec(false, Some(0.10)), &STEADY, &scaled(1.05));
    assert_eq!(v, Verdict::Ok);
    assert!((worse - 0.05).abs() < 1e-9);
}

#[test]
fn beyond_the_bound_is_a_regression_in_either_direction() {
    assert_eq!(
        judge(&spec(false, Some(0.10)), &STEADY, &scaled(1.2)).1,
        Verdict::Regression
    );
    assert_eq!(
        judge(&spec(true, Some(0.10)), &STEADY, &scaled(0.8)).1,
        Verdict::Regression
    );
    // Lower is better: a B faster on every run is better, not regressed.
    assert_eq!(
        judge(&spec(false, Some(0.10)), &STEADY, &scaled(0.95)).1,
        Verdict::Better
    );
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let noisy = [50.0, 100.0, 150.0, 80.0, 120.0];
    assert_eq!(
        judge(&spec(false, Some(0.10)), &noisy, &scaled(1.3)).1,
        Verdict::Unresolved
    );
    assert_eq!(
        judge(&spec(false, Some(0.10)), &STEADY, &noisy).1,
        Verdict::Unresolved
    );
}

#[test]
fn every_b_run_beating_every_a_run_is_better_despite_spread() {
    let noisy_a = [150.0, 200.0, 300.0];
    let b = [100.0, 110.0, 140.0];
    assert_eq!(
        judge(&spec(false, Some(0.05)), &noisy_a, &b).1,
        Verdict::Better
    );
}

#[test]
fn unbounded_metrics_are_reported_only() {
    assert_eq!(
        judge(&spec(false, None), &STEADY, &scaled(3.0)).1,
        Verdict::Info
    );
}

#[test]
fn specs_read_bounds_and_directions() {
    let json = r#"{
      "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
      ],
      "per_layer": [{"name": "trg.reduce.ms", "unit": "ms", "better": "lower"}]
    }"#;
    let s = specs(json).unwrap();
    assert_eq!(s.len(), 3);
    assert!(s[0].higher_is_better && s[0].bound == Some(0.1));
    assert!(!s[1].higher_is_better && s[1].bound == Some(0.25));
    assert_eq!(s[2].bound, None);
}

#[test]
fn run_output_parses_document_then_result_line() {
    let text = "{\n  \"workload\": \"optimize-ref\",\n  \"seed\": 1\n}\n\
                {\"correct\": true,\"attempted\": 3,\"failed\": 0,\"metrics\": \
                {\"ops_per_s\": {\"value\": 6.5,\"unit\": \"1/s\"}}}\n";
    let r = parse_run(text).unwrap();
    assert_eq!(r.workload, "optimize-ref");
    assert_eq!(r.metrics, vec![("ops_per_s".to_string(), 6.5)]);
    assert!(parse_run("{\"metrics\": {}}").is_err());
}

#[test]
fn compare_pairs_workloads_present_on_both_sides() {
    let run = |w: &str, v: f64| RunResult {
        workload: w.to_string(),
        metrics: vec![("m".to_string(), v)],
    };
    let a = vec![run("x", 100.0), run("x", 101.0), run("y", 5.0)];
    let b = vec![run("x", 130.0), run("x", 131.0), run("z", 5.0)];
    let rows = compare(&a, &b, &[spec(false, Some(0.1))]);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].workload, "x");
    assert_eq!((rows[0].a.1, rows[0].b.1), (2, 2));
    assert_eq!(rows[0].verdict, Verdict::Regression);
}
