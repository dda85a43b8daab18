//! Every workload end to end at tiny sizes, through the binary: the run
//! must pass its own checks and print exactly the documented metrics.

use clop_benchmark::run::{per_layer_metrics, END_TO_END, WORKLOADS};
use clop_util::Json;
use std::process::{Command, Output};

fn run(workload: &str, trace: bool, env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_clop-benchmark"))
        .args(["run", "--workload", workload, "--smoke", "--seconds", "0"])
        .args(["--seed", "7", "--trace", if trace { "1" } else { "0" }])
        .envs(env.iter().copied())
        .output()
        .expect("spawn clop-benchmark")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    Json::parse(last).expect("last line is JSON")
}

fn metric_names(line: &Json) -> Vec<String> {
    match line.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.iter().map(|(n, _)| n.clone()).collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn every_workload_runs_clean_with_the_documented_metrics() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let out = run(w, trace, &[]);
            let line = result_line(&out);
            assert!(
                out.status.success(),
                "{} trace={} failed:\n{}",
                w,
                trace,
                String::from_utf8_lossy(&out.stdout)
            );
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            let want: Vec<String> = if trace {
                per_layer_metrics().into_iter().map(|(n, _)| n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
            };
            assert_eq!(metric_names(&line), want, "{} trace={}", w, trace);
        }
    }
}

#[test]
fn skipping_verification_is_refused() {
    let out = run("optimize-ref", false, &[("CLOP_VERIFY", "0")]);
    assert!(!out.status.success());
    assert_eq!(result_line(&out).get("correct"), Some(&Json::Bool(false)));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let listed = |section: &str| -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let printed = |m: &[(String, &str)]| -> Vec<(String, String)> {
        m.iter().map(|(n, u)| (n.clone(), u.to_string())).collect()
    };
    let e2e: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    assert_eq!(listed("end_to_end"), printed(&e2e));
    assert_eq!(listed("per_layer"), printed(&per_layer_metrics()));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
