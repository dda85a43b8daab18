//! The traced path: each stage of the program re-walked from outside,
//! one span per call into a layer's public function.
//!
//! This is the only file that knows the order in which the program calls
//! its layers. Each function here mirrors one entry point and must stay in
//! step with it:
//!
//! * [`optimize`] mirrors `Pipeline::optimize` (prepare → interpret →
//!   trim → prune → model → realize → verify);
//! * [`program_run`] mirrors `ProgramRun::evaluate` (link → interpret →
//!   fetch expansion), and [`measure`] is the evaluation cell's sequence of
//!   simulator calls;
//! * [`Replay`] mirrors the daemon's durable-ack `SHARD` path (admit →
//!   measure both deltas → fold → snapshot → checkpoint write) and its
//!   `QUERY` path (`sequence_incremental` of the two BB models).
//!
//! The workloads check every traced result against the untraced one, so
//! an adapter that drifts from the program fails the run instead of
//! silently timing something else. With a [`Ledger::off`] ledger the
//! spans are plain calls, which lets the untraced path share [`measure`].

use clop_affinity::{
    AffinityConfig, AffinityDelta, AffinityHierarchy, AffinityState, PairThresholds,
};
use clop_cachesim::{CacheStats, TimingConfig};
use clop_core::incremental::{AnalysisParams, VersionState};
use clop_core::{
    bbreorder, timed_fetch_stream_from, EvalConfig, OptError, Pipeline, PipelineParams, ProgramRun,
};
use clop_ir::{Interpreter, Layout, LinkedImage, Module};
use clop_serve::{admit, Admission};
use clop_trace::{Granularity, StatsState};
use clop_trg::{Trg, TrgDelta, TrgState};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-layer busy time and call counts, plus named counters, summed over
/// the traced cells of a run.
#[derive(Debug, Default)]
pub struct Ledger {
    on: bool,
    spans: Vec<(&'static str, f64, u64)>,
    counts: Vec<(&'static str, f64, f64)>,
}

impl Ledger {
    /// A recording ledger.
    pub fn on() -> Ledger {
        Ledger {
            on: true,
            ..Ledger::default()
        }
    }

    /// A ledger that records nothing: spans are plain calls.
    pub fn off() -> Ledger {
        Ledger::default()
    }

    /// True when spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` as one call of layer `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add_ms(name, t.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Charge `ms` to layer `name` as one call.
    pub fn add_ms(&mut self, name: &'static str, ms: f64) {
        if !self.on {
            return;
        }
        match self.spans.iter_mut().find(|s| s.0 == name) {
            Some(s) => {
                s.1 += ms;
                s.2 += 1;
            }
            None => self.spans.push((name, ms, 1)),
        }
    }

    /// Add `x` to counter `name`.
    pub fn count(&mut self, name: &'static str, x: f64) {
        self.ratio(name, x, 0.0);
    }

    /// Add `num / den` to ratio `name` (reported as Σnum / Σden).
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        if !self.on {
            return;
        }
        match self.counts.iter_mut().find(|c| c.0 == name) {
            Some(c) => {
                c.1 += num;
                c.2 += den;
            }
            None => self.counts.push((name, num, den)),
        }
    }

    /// Total milliseconds charged to layer `name`.
    pub fn ms(&self, name: &str) -> f64 {
        self.spans.iter().find(|s| s.0 == name).map_or(0.0, |s| s.1)
    }

    /// Calls recorded for layer `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().find(|s| s.0 == name).map_or(0, |s| s.2)
    }

    /// Sum of counter `name`.
    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|c| c.0 == name)
            .map_or(0.0, |c| c.1)
    }

    /// Ratio `name` as Σnum / Σden (0 when nothing was attempted).
    pub fn ratio_of(&self, name: &str) -> f64 {
        match self.counts.iter().find(|c| c.0 == name) {
            Some(&(_, num, den)) if den > 0.0 => num / den,
            _ => 0.0,
        }
    }

    /// Milliseconds summed over every layer.
    pub fn total_ms(&self) -> f64 {
        self.spans.iter().map(|s| s.1).sum()
    }
}

/// `Pipeline::optimize`, stage by stage. `params` must be the parameters
/// `pipe` was built from (the model's configuration is not reachable
/// through the trait object).
pub fn optimize(
    pipe: &Pipeline,
    params: &PipelineParams,
    module: &Module,
    l: &mut Ledger,
) -> Result<Layout, OptError> {
    let prepared = l.span("core.prepare", || pipe.transform.prepare(module))?;
    let outcome = l.span("ir.interpret", || {
        Interpreter::new(pipe.profile.exec).run(&prepared)
    });
    let (func_trace, mut bb_trace) = l.span("trace.trim", || {
        (outcome.func_trace.trim(), outcome.bb_trace.trim())
    });
    if let Some(s) = &pipe.profile.sample {
        bb_trace = l.span("trace.sample", || s.sample(&bb_trace));
    }
    if let Some(p) = &pipe.profile.prune {
        let report = l.span("trace.prune", || p.prune(&bb_trace));
        let attempted = report.original_len as f64;
        l.ratio(
            "trace.prune.retention",
            report.retention * attempted,
            attempted,
        );
        bb_trace = report.trace;
    }
    let trace = match pipe.transform.granularity() {
        Granularity::Function => &func_trace,
        Granularity::BasicBlock => &bb_trace,
    };
    if trace.is_empty() {
        return Err(OptError::EmptyProfile);
    }
    l.count("trace.events", trace.len() as f64);
    let jobs = params.jobs.max(1);
    let hot = match pipe.model.name() {
        "affinity" => {
            let thresholds = l.span("affinity.thresholds", || {
                PairThresholds::measure_jobs(trace, params.affinity.w_max, jobs)
            });
            l.count("affinity.pairs", thresholds.len() as f64);
            l.span("affinity.hierarchy", || {
                AffinityHierarchy::build(trace, &thresholds, params.affinity).layout()
            })
        }
        "trg" => {
            let graph = l.span("trg.build", || {
                Trg::build_jobs(trace, params.trg.window, jobs)
            });
            l.count("trg.edges", graph.num_edges() as f64);
            l.span("trg.reduce", || {
                clop_trg::reduce(&graph, params.trg.slots, trace).sequence
            })
        }
        other => return Err(OptError::UnknownPipeline(other.to_string())),
    };
    let layout = l.span("core.realize", || pipe.transform.realize(&prepared, &hot))?;
    if clop_verify::verify_enabled() {
        let mut report = l.span("verify.module", || clop_verify::verify_module(&prepared));
        report.extend(l.span("verify.transform", || {
            clop_verify::check_transform(module, &prepared, &layout, bbreorder::JUMP_BYTES)
        }));
        if !report.is_ok() {
            return Err(OptError::Verify(report));
        }
    }
    Ok(layout)
}

/// `ProgramRun::evaluate`, stage by stage.
pub fn program_run(
    module: &Module,
    layout: &Layout,
    config: &EvalConfig,
    l: &mut Ledger,
) -> ProgramRun {
    let image = l.span("ir.link", || LinkedImage::link(module, layout, config.link));
    let outcome = l.span("ir.interpret", || Interpreter::new(config.exec).run(module));
    let stream = l.span("core.fetch_expand", || {
        timed_fetch_stream_from(module, &image, &outcome)
    });
    ProgramRun {
        stream,
        instructions: outcome.instructions,
        image_bytes: image.image_size(),
        cache: config.cache,
    }
}

/// What one evaluation cell measures of a program run against the probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// Solo, simulated channel.
    pub solo: CacheStats,
    /// Tenant 0 of the 2-way co-run with the probe, simulated channel.
    pub corun2: CacheStats,
    /// Tenant 0 of the 4-way co-run with three probe streams.
    pub corun4: CacheStats,
    /// Solo run on the timed hw-like channel.
    pub timed_solo_cycles: f64,
    /// The subject (thread 1) of the timed 2-way co-run with the probe.
    pub timed_corun_cycles: f64,
    /// Demand statistics of that timed co-run thread.
    pub timed_corun: CacheStats,
}

/// The evaluation cell's simulator calls, in order: solo, 2-way and 4-way
/// N-way co-run against the probe, then a timed solo run and a timed
/// 2-way co-run (probe as thread 0, as the paper's co-run protocol has
/// it) on the hw-like channel.
pub fn measure(run: &ProgramRun, probe: &ProgramRun, l: &mut Ledger) -> Measurement {
    let solo = l.span("cachesim.solo", || run.solo_sim());
    let corun2 = l.span("cachesim.corun_nway", || run.corun_sim_nway(&[probe]));
    let corun4 = l.span("cachesim.corun_nway", || {
        run.corun_sim_nway(&[probe, probe, probe])
    });
    let timing = TimingConfig::hw_like();
    let timed_solo = l.span("cachesim.timed", || run.solo_timed(timing));
    let timed_pair = l.span("cachesim.timed", || probe.corun_timed(run, timing));
    if l.is_on() {
        let all = [solo]
            .into_iter()
            .chain(corun2.per_tenant.iter().copied())
            .chain(corun4.per_tenant.iter().copied())
            .chain([timed_solo.stats, timed_pair[0].stats, timed_pair[1].stats]);
        for s in all {
            l.count("cachesim.accesses", s.accesses as f64);
            l.count("cachesim.misses", s.misses as f64);
            l.ratio("cachesim.miss_ratio", s.misses as f64, s.accesses as f64);
        }
    }
    Measurement {
        solo,
        corun2: corun2.per_tenant[0],
        corun4: corun4.per_tenant[0],
        timed_solo_cycles: timed_solo.cycles,
        timed_corun_cycles: timed_pair[1].finish_cycles,
        timed_corun: timed_pair[1].stats,
    }
}

/// The daemon's per-version work, replayed in process: the durable-ack
/// `SHARD` path and the `QUERY` path of the two BB models.
pub struct Replay {
    params: AnalysisParams,
    affinity: AffinityState,
    trg: TrgState,
    stats: StatsState,
    dir: PathBuf,
    version: String,
}

impl Replay {
    /// An empty fold of `version` that checkpoints into `dir`.
    pub fn new(params: AnalysisParams, dir: &Path, version: &str) -> Replay {
        Replay {
            params,
            affinity: AffinityState::new(params.affinity.w_max),
            trg: TrgState::new(params.trg.window),
            stats: StatsState::new(),
            dir: dir.to_path_buf(),
            version: version.to_string(),
        }
    }

    /// One `SHARD` frame payload: admission, both deltas, the fold, the
    /// snapshot and its checkpoint write (`VersionState::absorb_shard`
    /// plus the durable-ack checkpoint, with the two delta measurements
    /// timed apart).
    pub fn shard(&mut self, payload: &[u8], l: &mut Ledger) -> Result<(), String> {
        let shard = match l.span("serve.admit", || admit(payload, 0.0)) {
            Admission::Accept { shard, .. } => shard,
            _ => return Err("replayed admission rejected a clean shard".to_string()),
        };
        if self.stats.contains(shard.seq) {
            return Ok(());
        }
        let ad = l.span("affinity.delta", || {
            AffinityDelta::measure(
                shard.seq,
                &shard.trace,
                self.params.affinity.w_max,
                shard.core_start,
                shard.core_end,
            )
        });
        let td = l.span("trg.delta", || {
            TrgDelta::measure(
                shard.seq,
                &shard.trace,
                self.params.trg.window,
                shard.core_start,
                shard.core_end,
            )
        });
        l.span("core.fold", || -> Result<(), String> {
            self.affinity.absorb(&ad).map_err(|e| e.to_string())?;
            self.trg.absorb(&td).map_err(|e| e.to_string())?;
            self.stats.absorb(shard.seq, shard.core());
            Ok(())
        })?;
        let snapshot = l.span("core.snapshot", || {
            [
                self.affinity.to_bytes(),
                self.trg.to_bytes(),
                self.stats.to_bytes(),
            ]
            .concat()
        });
        l.span("util.atomic_write", || {
            clop_serve::checkpoint::checkpoint_bytes(&self.dir, &self.version, &snapshot)
        })
        .map_err(|e| e.to_string())
    }

    /// One `QUERY` of a BB model against the fold
    /// (`LocalityModel::sequence_incremental`). The query's whole time is
    /// also counted as `core.query.<pipeline>.ms`.
    pub fn query(&self, pipeline: &str, l: &mut Ledger) -> Result<Vec<u32>, String> {
        let t = Instant::now();
        let (order, total) = match pipeline {
            "bb-affinity" => {
                let (thresholds, stats) = l.span("affinity.finalize", || {
                    (self.affinity.finalize(), self.stats.finalize())
                });
                let config: AffinityConfig = self.params.affinity;
                let order = l.span("affinity.hierarchy", || {
                    AffinityHierarchy::build_from_stats(&stats, &thresholds, config).layout()
                });
                (order, "core.query.bb-affinity.ms")
            }
            "bb-trg" => {
                let (graph, stats) = l.span("trg.finalize", || {
                    (self.trg.finalize(), self.stats.finalize())
                });
                let order = l.span("trg.reduce", || {
                    clop_trg::reduce_from_stats(&graph, self.params.trg.slots, &stats).sequence
                });
                (order, "core.query.bb-trg.ms")
            }
            other => return Err(format!("no replay for pipeline {}", other)),
        };
        l.count(total, t.elapsed().as_secs_f64() * 1e3);
        Ok(order.into_iter().map(|b| b.0).collect())
    }

    /// True when a daemon snapshot of this version holds exactly the
    /// replayed folds.
    pub fn matches_snapshot(&self, snapshot: &[u8]) -> bool {
        VersionState::from_bytes(snapshot).is_ok_and(|st| {
            st.affinity_state().to_bytes() == self.affinity.to_bytes()
                && st.trg_state().to_bytes() == self.trg.to_bytes()
                && st.stats().to_bytes() == self.stats.to_bytes()
        })
    }

    /// Remove this replay's checkpoint files.
    pub fn clean_up(&self) {
        let _ = clop_serve::checkpoint::remove_checkpoint(&self.dir, &self.version);
    }
}
