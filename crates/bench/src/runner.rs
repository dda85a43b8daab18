//! Supervised experiment execution: panic isolation, a soft watchdog,
//! checkpoint/resume, and a per-run failure report.
//!
//! The paper's full suite regenerates 18 tables and figures in one
//! process. Before this module, a panic in experiment 3 lost the
//! remaining 15 and a wedged model hung the batch forever. Here every
//! experiment body runs on a supervised worker thread:
//!
//! * **Panic isolation** — the body runs under `catch_unwind`; a panic
//!   becomes a structured [`ClopError::Experiment`] with
//!   [`FailureKind::Panic`] and the suite continues.
//! * **Soft watchdog** — `CLOP_EXP_TIMEOUT=<seconds>` bounds how long the
//!   suite waits for any one experiment. On expiry the worker is
//!   *detached* (threads cannot be killed safely), recorded as
//!   [`FailureKind::Timeout`], and the suite moves on.
//! * **Checkpoint/resume** — each completed experiment writes its
//!   `results/<name>.json` artifact atomically, then an atomic checkpoint
//!   record under `<results>/.checkpoint/` (override with
//!   `CLOP_CHECKPOINT_DIR`). With `CLOP_RESUME=1`, experiments whose
//!   checkpoint *and* artifact both exist are skipped, so a batch killed
//!   mid-run re-executes only unfinished work. Experiments are
//!   deterministic, so the merged `results/` directory is byte-identical
//!   to an uninterrupted run.
//! * **Failure report** — failures accumulate into a [`SuiteReport`]
//!   rendered as a summary table; `exp all` exits nonzero when any job
//!   failed. The machine-readable report lands in the checkpoint
//!   directory (not `results/`, which holds only experiment artifacts).

use crate::experiment::{all, Experiment, ExperimentCtx, ExperimentResult};
use crate::{render_table, try_results_dir, write_json_to};
use clop_util::vars::Vars;
use clop_util::{atomic_write, ClopError, ClopResult, FailureKind, Json};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How the suite supervises its experiments.
#[derive(Clone, Debug, Default)]
pub struct SuiteOptions {
    /// Soft watchdog: give up waiting for one experiment after this long.
    /// The runaway worker is detached, not killed.
    pub timeout: Option<Duration>,
    /// Skip experiments whose checkpoint record and artifact both exist.
    pub resume: bool,
    /// Checkpoint directory; default `<results>/.checkpoint`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Results directory; default [`crate::results_dir`] (`CLOP_RESULTS_DIR`).
    pub results_dir: Option<PathBuf>,
}

impl SuiteOptions {
    /// Read `CLOP_EXP_TIMEOUT` (a positive number of seconds),
    /// `CLOP_RESUME` (`0` or `1`) and `CLOP_CHECKPOINT_DIR` through `v`
    /// (pass [`Vars::env`] for the process environment). Unset or empty
    /// variables take the defaults; any other bad value is an error naming
    /// it.
    pub fn from_env(v: &Vars) -> ClopResult<SuiteOptions> {
        let timeout = match v.text("CLOP_EXP_TIMEOUT") {
            None => None,
            Some(raw) => Some(
                raw.parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| {
                        ClopError::config(
                            "CLOP_EXP_TIMEOUT",
                            raw,
                            "need a positive number of seconds",
                        )
                    })?,
            ),
        };
        Ok(SuiteOptions {
            timeout,
            resume: v.flag("CLOP_RESUME")?,
            checkpoint_dir: v.text("CLOP_CHECKPOINT_DIR").map(PathBuf::from),
            results_dir: None,
        })
    }

    fn resolved_results_dir(&self) -> Result<PathBuf, ClopError> {
        match &self.results_dir {
            Some(d) => {
                std::fs::create_dir_all(d).map_err(|e| {
                    ClopError::io(format!("create results dir {}", d.display()), &e)
                })?;
                Ok(d.clone())
            }
            None => try_results_dir(),
        }
    }

    fn resolved_checkpoint_dir(&self) -> Result<PathBuf, ClopError> {
        match &self.checkpoint_dir {
            Some(d) => Ok(d.clone()),
            None => Ok(self.resolved_results_dir()?.join(".checkpoint")),
        }
    }
}

/// One supervised experiment's outcome.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// Ran to completion; artifact and checkpoint written.
    Completed,
    /// Skipped: the checkpoint already records a completed run.
    Resumed,
    /// Failed (error, panic, or watchdog timeout).
    Failed(ClopError),
}

impl JobStatus {
    /// Short status word for the summary table.
    pub fn word(&self) -> &'static str {
        match self {
            JobStatus::Completed => "ok",
            JobStatus::Resumed => "resumed",
            JobStatus::Failed(ClopError::Experiment {
                kind: FailureKind::Panic,
                ..
            }) => "PANIC",
            JobStatus::Failed(ClopError::Experiment {
                kind: FailureKind::Timeout,
                ..
            }) => "TIMEOUT",
            JobStatus::Failed(_) => "FAILED",
        }
    }
}

/// One row of the suite report.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// Experiment name.
    pub name: String,
    /// How the job ended.
    pub status: JobStatus,
    /// Wall-clock seconds spent (0 for resumed skips).
    pub seconds: f64,
}

/// Everything that happened in one suite invocation.
#[derive(Clone, Debug, Default)]
pub struct SuiteReport {
    /// Per-experiment rows, in execution order.
    pub jobs: Vec<JobReport>,
}

impl SuiteReport {
    /// The failed jobs.
    pub fn failures(&self) -> Vec<&JobReport> {
        self.jobs
            .iter()
            .filter(|j| matches!(j.status, JobStatus::Failed(_)))
            .collect()
    }

    /// True when no job failed.
    pub fn all_ok(&self) -> bool {
        self.failures().is_empty()
    }

    /// Render the summary table (experiment, status, seconds, detail).
    pub fn summary_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .jobs
            .iter()
            .map(|j| {
                let detail = match &j.status {
                    JobStatus::Failed(e) => e.to_string(),
                    _ => String::new(),
                };
                vec![
                    j.name.clone(),
                    j.status.word().to_string(),
                    format!("{:.2}", j.seconds),
                    detail,
                ]
            })
            .collect();
        let failed = self.failures().len();
        let mut out = render_table(&["experiment", "status", "seconds", "detail"], &rows);
        out.push_str(&format!(
            "{} experiments: {} ok, {} failed\n",
            self.jobs.len(),
            self.jobs.len() - failed,
            failed
        ));
        out
    }

    /// The machine-readable failure report.
    pub fn to_json(&self) -> Json {
        let jobs: Vec<Json> = self
            .jobs
            .iter()
            .map(|j| {
                let mut fields = vec![
                    ("experiment", Json::Str(j.name.clone())),
                    ("status", Json::Str(j.status.word().to_string())),
                    ("seconds", Json::Num(j.seconds)),
                ];
                if let JobStatus::Failed(e) = &j.status {
                    fields.push(("error", Json::Str(e.to_string())));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("failed", Json::Num(self.failures().len() as f64)),
            ("jobs", Json::Arr(jobs)),
        ])
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run one experiment body on a supervised worker thread.
///
/// Panics inside the body are caught and returned as
/// [`FailureKind::Panic`] errors. With a timeout, a worker that produces
/// no result in time is detached and reported as [`FailureKind::Timeout`]
/// — it may keep computing in the background (and keep warming the shared
/// engine cache), but the caller regains control.
pub fn run_supervised(
    exp: &Experiment,
    ctx: &Arc<ExperimentCtx>,
    timeout: Option<Duration>,
) -> Result<ExperimentResult, ClopError> {
    let (tx, rx) = mpsc::channel();
    let run = exp.run;
    let name = exp.name;
    let worker_ctx = Arc::clone(ctx);
    std::thread::Builder::new()
        .name(format!("exp-{}", name))
        .spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| run(&worker_ctx)));
            let _ = tx.send(outcome);
        })
        .map_err(|e| {
            ClopError::experiment(
                name,
                FailureKind::Error,
                format!("failed to spawn worker thread: {}", e),
            )
        })?;
    let outcome = match timeout {
        Some(t) => match rx.recv_timeout(t) {
            Ok(o) => o,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(ClopError::experiment(
                    name,
                    FailureKind::Timeout,
                    format!("no result within {:.1}s (worker detached)", t.as_secs_f64()),
                ))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(ClopError::experiment(
                    name,
                    FailureKind::Error,
                    "worker thread vanished without a result",
                ))
            }
        },
        None => rx.recv().map_err(|_| {
            ClopError::experiment(
                name,
                FailureKind::Error,
                "worker thread vanished without a result",
            )
        })?,
    };
    outcome.map_err(|payload| {
        ClopError::experiment(name, FailureKind::Panic, panic_message(&*payload))
    })
}

fn checkpoint_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{}.done", name))
}

/// Atomically record `name` as complete in the checkpoint directory.
pub fn mark_complete(dir: &Path, name: &str) -> Result<(), ClopError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ClopError::io(format!("create checkpoint dir {}", dir.display()), &e))?;
    atomic_write(&checkpoint_path(dir, name), b"done\n")
        .map_err(|e| ClopError::io(format!("write checkpoint for {}", name), &e))
}

/// True when the checkpoint records `name` as complete *and* its artifact
/// still exists (a deleted artifact forces a re-run).
pub fn is_complete(ckpt_dir: &Path, results_dir: &Path, name: &str) -> bool {
    checkpoint_path(ckpt_dir, name).is_file()
        && results_dir.join(format!("{}.json", name)).is_file()
}

/// Run `exps` under supervision: print each report, write artifacts and
/// checkpoints, collect failures, and keep going after any failure.
pub fn run_jobs(exps: &[Experiment], ctx: &Arc<ExperimentCtx>, opts: &SuiteOptions) -> SuiteReport {
    let mut report = SuiteReport::default();
    // Directory resolution failures poison every job identically; report
    // them per-job so the summary names each experiment.
    let dirs = opts
        .resolved_results_dir()
        .and_then(|r| Ok((r.clone(), opts.resolved_checkpoint_dir()?)));
    for exp in exps {
        println!("=== {} ===", exp.name);
        let (results_dir, ckpt_dir) = match &dirs {
            Ok(d) => d.clone(),
            Err(e) => {
                report.jobs.push(JobReport {
                    name: exp.name.to_string(),
                    status: JobStatus::Failed(e.clone()),
                    seconds: 0.0,
                });
                continue;
            }
        };
        if opts.resume && is_complete(&ckpt_dir, &results_dir, exp.name) {
            println!("(complete in checkpoint; skipped via CLOP_RESUME)\n");
            report.jobs.push(JobReport {
                name: exp.name.to_string(),
                status: JobStatus::Resumed,
                seconds: 0.0,
            });
            continue;
        }
        let start = Instant::now();
        let status = match run_supervised(exp, ctx, opts.timeout) {
            Ok(result) => {
                print!("{}", result.text);
                // Artifact first, checkpoint second: a crash between the
                // two re-runs the experiment on resume, which rewrites the
                // identical artifact (experiments are deterministic).
                match write_json_to(&results_dir, exp.name, &result.json)
                    .and_then(|_| mark_complete(&ckpt_dir, exp.name))
                {
                    Ok(()) => JobStatus::Completed,
                    Err(e) => JobStatus::Failed(e),
                }
            }
            Err(e) => JobStatus::Failed(e),
        };
        if let JobStatus::Failed(e) = &status {
            eprintln!("experiment `{}` failed: {}", exp.name, e);
        }
        report.jobs.push(JobReport {
            name: exp.name.to_string(),
            status,
            seconds: start.elapsed().as_secs_f64(),
        });
        println!();
    }
    if !report.all_ok() {
        if let Ok(ckpt_dir) = opts.resolved_checkpoint_dir() {
            if std::fs::create_dir_all(&ckpt_dir).is_ok() {
                let path = ckpt_dir.join("failures.json");
                if let Err(e) = atomic_write(&path, (report.to_json().pretty() + "\n").as_bytes()) {
                    eprintln!("warning: failed to write {}: {}", path.display(), e);
                }
            }
        }
    }
    report
}

/// Run the whole registered suite ([`all`]) under supervision.
pub fn run_suite(ctx: &Arc<ExperimentCtx>, opts: &SuiteOptions) -> SuiteReport {
    run_jobs(&all(), ctx, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_util::ToJson;

    fn exp(name: &'static str, run: fn(&ExperimentCtx) -> ExperimentResult) -> Experiment {
        Experiment {
            name,
            title: name,
            run,
        }
    }

    fn ok_run(_ctx: &ExperimentCtx) -> ExperimentResult {
        ExperimentResult {
            text: "fine\n".into(),
            json: Json::obj(vec![("answer", 42.to_json())]),
        }
    }

    fn panicking_run(_ctx: &ExperimentCtx) -> ExperimentResult {
        panic!("deliberate test panic");
    }

    fn slow_run(_ctx: &ExperimentCtx) -> ExperimentResult {
        std::thread::sleep(Duration::from_secs(5));
        ok_run(_ctx)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("clop_runner_test_{}_{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn opts_for(root: &Path) -> SuiteOptions {
        SuiteOptions {
            timeout: None,
            resume: false,
            checkpoint_dir: Some(root.join("ckpt")),
            results_dir: Some(root.join("results")),
        }
    }

    #[test]
    fn supervised_success_passes_result_through() {
        let ctx = Arc::new(ExperimentCtx::new(1));
        let r = run_supervised(&exp("t_ok", ok_run), &ctx, None).unwrap();
        assert_eq!(r.text, "fine\n");
    }

    #[test]
    fn supervised_panic_becomes_structured_error() {
        let ctx = Arc::new(ExperimentCtx::new(1));
        let e = run_supervised(&exp("t_panic", panicking_run), &ctx, None).unwrap_err();
        match e {
            ClopError::Experiment {
                experiment,
                kind,
                detail,
            } => {
                assert_eq!(experiment, "t_panic");
                assert_eq!(kind, FailureKind::Panic);
                assert!(detail.contains("deliberate test panic"));
            }
            other => panic!("wrong variant: {:?}", other),
        }
    }

    #[test]
    fn supervised_timeout_detaches_worker() {
        let ctx = Arc::new(ExperimentCtx::new(1));
        let start = Instant::now();
        let e = run_supervised(
            &exp("t_slow", slow_run),
            &ctx,
            Some(Duration::from_millis(50)),
        )
        .unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "did not wait out the job"
        );
        assert!(matches!(
            e,
            ClopError::Experiment {
                kind: FailureKind::Timeout,
                ..
            }
        ));
    }

    #[test]
    fn suite_continues_past_failures_and_reports_them() {
        let root = temp_dir("suite");
        let ctx = Arc::new(ExperimentCtx::new(1));
        let exps = [
            exp("t_first", ok_run),
            exp("t_bad", panicking_run),
            exp("t_last", ok_run),
        ];
        let report = run_jobs(&exps, &ctx, &opts_for(&root));
        assert_eq!(report.jobs.len(), 3);
        assert!(!report.all_ok());
        assert_eq!(report.failures().len(), 1);
        assert_eq!(report.failures()[0].name, "t_bad");
        // The failing job did not stop the suite: both good artifacts and
        // checkpoints exist, the bad one has neither.
        assert!(root.join("results/t_first.json").is_file());
        assert!(root.join("results/t_last.json").is_file());
        assert!(!root.join("results/t_bad.json").exists());
        assert!(root.join("ckpt/t_first.done").is_file());
        assert!(!root.join("ckpt/t_bad.done").exists());
        // A failure report landed in the checkpoint dir.
        let failures = std::fs::read_to_string(root.join("ckpt/failures.json")).unwrap();
        assert!(failures.contains("t_bad"));
        // Summary table names every job and the failure.
        let table = report.summary_table();
        assert!(table.contains("t_bad") && table.contains("PANIC"));
        assert!(table.contains("1 failed"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_skips_checkpointed_jobs() {
        let root = temp_dir("resume");
        let ctx = Arc::new(ExperimentCtx::new(1));
        let mut opts = opts_for(&root);
        let first = run_jobs(&[exp("t_a", ok_run), exp("t_b", ok_run)], &ctx, &opts);
        assert!(first.all_ok());
        let bytes_a = std::fs::read(root.join("results/t_a.json")).unwrap();

        opts.resume = true;
        let second = run_jobs(&[exp("t_a", ok_run), exp("t_b", ok_run)], &ctx, &opts);
        assert!(second.all_ok());
        assert!(second
            .jobs
            .iter()
            .all(|j| matches!(j.status, JobStatus::Resumed)));
        assert_eq!(
            std::fs::read(root.join("results/t_a.json")).unwrap(),
            bytes_a
        );

        // Deleting an artifact forces that one job to re-run.
        std::fs::remove_file(root.join("results/t_b.json")).unwrap();
        let third = run_jobs(&[exp("t_a", ok_run), exp("t_b", ok_run)], &ctx, &opts);
        assert!(matches!(third.jobs[0].status, JobStatus::Resumed));
        assert!(matches!(third.jobs[1].status, JobStatus::Completed));
        assert!(root.join("results/t_b.json").is_file());
        let _ = std::fs::remove_dir_all(&root);
    }

    fn options(vars: &[(&str, &str)]) -> ClopResult<SuiteOptions> {
        let get = |name: &str| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        };
        SuiteOptions::from_env(&Vars(&get))
    }

    #[test]
    fn options_parse_from_variables() {
        for unset in [&[][..], &[("CLOP_EXP_TIMEOUT", ""), ("CLOP_RESUME", "")]] {
            let opts = options(unset).unwrap();
            assert_eq!((opts.timeout, opts.resume), (None, false));
            assert_eq!(opts.checkpoint_dir, None);
        }
        let opts = options(&[
            ("CLOP_EXP_TIMEOUT", "2.5"),
            ("CLOP_RESUME", "1"),
            ("CLOP_CHECKPOINT_DIR", "/ckpt"),
        ])
        .unwrap();
        assert_eq!(opts.timeout, Some(Duration::from_millis(2500)));
        assert!(opts.resume);
        assert_eq!(opts.checkpoint_dir, Some(PathBuf::from("/ckpt")));
        assert!(!options(&[("CLOP_RESUME", "0")]).unwrap().resume);
    }

    #[test]
    fn bad_option_values_are_errors_naming_the_variable_and_the_value() {
        for (name, value) in [
            ("CLOP_EXP_TIMEOUT", "abc"),
            ("CLOP_EXP_TIMEOUT", "0"),
            ("CLOP_EXP_TIMEOUT", "-3"),
            ("CLOP_EXP_TIMEOUT", "NaN"),
            ("CLOP_EXP_TIMEOUT", "inf"),
            ("CLOP_RESUME", "false"),
            ("CLOP_RESUME", "yes"),
            ("CLOP_RESUME", "2"),
        ] {
            match options(&[(name, value)]) {
                Err(ClopError::Config {
                    variable, value: v, ..
                }) => assert_eq!((variable.as_str(), v.as_str()), (name, value)),
                other => panic!("{}={} gave {:?}", name, value, other.map(|_| ())),
            }
        }
    }
}
