//! `serve-stream`: the layout daemon fed by one client in a closed loop.
//!
//! An in-process `Server` (one fold worker, durable acks, a checkpoint per
//! fold) is configured in code, so no `CLOP_SERVE_*` variable changes what
//! is measured. One `Session` streams the pruned reference BB traces of
//! the six BB-capable primaries: each cell is one fresh version of one
//! program, split into 32 shards, with `QUERY bb-affinity` and
//! `QUERY bb-trg` after every second shard. The writes are per-shard delta
//! folds and the reads are finalize + hierarchy/reduce, so this workload
//! runs the same model layers as the batch path but incrementally: a gain
//! on the batch path that costs the streamed path shows here.

use crate::evaluate::{eval_config, misses};
use crate::layers::{Ledger, Replay};
use crate::optimize::PROBE;
use crate::run::{Check, OpLog, Options, Quality, Workload};
use crate::stats::Fnv;
use clop_core::incremental::AnalysisParams;
use clop_core::{build_pipeline, BbReorder, Profile, ProfileConfig, ProgramRun, Transform};
use clop_ir::{Layout, Module};
use clop_serve::{ServeConfig, Server, Session, SessionConfig};
use clop_trace::{split_shards_columnar, BlockId, TrimmedTrace};
use clop_workloads::Workload as Program;
use std::path::{Path, PathBuf};
use std::time::Instant;

const PRIMARIES: [&str; 6] = [
    "403.gcc",
    "445.gobmk",
    "458.sjeng",
    "483.xalancbmk",
    "471.omnetpp",
    "429.mcf",
];

/// Shards per version.
const SHARDS: usize = 32;

/// A query pair follows every this many shards.
const QUERY_EVERY: usize = 2;

/// The queried pipelines.
const QUERIES: [&str; 2] = ["bb-affinity", "bb-trg"];

struct Stream {
    program: Program,
    /// The BB-prepared module the trace was recorded on.
    prepared: Module,
    trace: TrimmedTrace,
    shards: Vec<Vec<u8>>,
    /// Operation cell names: ack, then one per query.
    op_names: [String; 3],
    /// The batch model orders over the whole trace (the check reference).
    batch: Vec<Vec<u32>>,
    /// The orders served after the first complete stream.
    served: Option<Vec<Vec<u32>>>,
}

/// The `serve-stream` workload.
pub struct ServeBench {
    options: Options,
    params: AnalysisParams,
    streams: Vec<Stream>,
    checkpoints: PathBuf,
    replays: PathBuf,
    daemon: Option<(Server, Session)>,
    /// Versions streamed so far (names the next one).
    versions: usize,
    shards_sent: u64,
    stats_at_start: Vec<(String, u64)>,
}

impl ServeBench {
    /// Record and shard the reference traces.
    pub fn new(options: &Options, work: &Path) -> Result<ServeBench, String> {
        let params = AnalysisParams::default();
        let (names, pieces): (&[&str], usize) = if options.smoke {
            (&["429.mcf"], 4)
        } else {
            (&PRIMARIES, SHARDS)
        };
        let mut streams = Vec::with_capacity(names.len());
        for name in names {
            let program = crate::program(options, name)?;
            let prepared = BbReorder
                .prepare(&program.module)
                .map_err(|e| e.to_string())?;
            let trace =
                Profile::collect(&prepared, &ProfileConfig::with_exec(program.ref_exec)).bb_trace;
            let shards =
                split_shards_columnar(&trace, pieces, params.affinity.w_max, params.trg.window);
            streams.push(Stream {
                op_names: [
                    format!("{}/ack", name),
                    format!("{}/query.{}", name, QUERIES[0]),
                    format!("{}/query.{}", name, QUERIES[1]),
                ],
                program,
                prepared,
                trace,
                shards,
                batch: Vec::new(),
                served: None,
            });
        }
        Ok(ServeBench {
            options: options.clone(),
            params,
            streams,
            checkpoints: work.join("checkpoints"),
            replays: work.join("replay"),
            daemon: None,
            versions: 0,
            shards_sent: 0,
            stats_at_start: Vec::new(),
        })
    }
}

fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

fn ids(order: &[BlockId]) -> Vec<u32> {
    order.iter().map(|b| b.0).collect()
}

impl Workload for ServeBench {
    fn cells(&self) -> Vec<String> {
        self.streams
            .iter()
            .map(|s| s.program.name.clone())
            .collect()
    }

    fn start(&mut self) -> Result<(), String> {
        let pipeline_params = self.params.pipeline_params();
        for s in &mut self.streams {
            for name in QUERIES {
                let pipe = build_pipeline(name, &pipeline_params)
                    .ok_or_else(|| format!("pipeline {} is not registered", name))?;
                s.batch.push(ids(&pipe.model.sequence(&s.trace)));
            }
        }
        let server = Server::start(ServeConfig {
            checkpoint_dir: Some(self.checkpoints.clone()),
            workers: 1,
            durable_ack: true,
            params: self.params,
            // Streamed versions are never revisited; keep memory and disk
            // bounded however long the run.
            max_versions: self.streams.len(),
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let mut session =
            Session::new(server.addr(), SessionConfig::default()).map_err(|e| e.to_string())?;
        self.stats_at_start = session.stats().map_err(|e| e.to_string())?;
        self.daemon = Some((server, session));
        Ok(())
    }

    fn run(&mut self, cell: usize, ops: &mut OpLog, l: &mut Ledger) -> Result<u64, String> {
        let version = format!("r{}.{}", self.versions, self.streams[cell].program.name);
        self.versions += 1;
        let mut replay = l
            .is_on()
            .then(|| Replay::new(self.params, &self.replays, &version));
        let (_, session) = self.daemon.as_mut().ok_or("daemon not started")?;
        let traced_stats = match &replay {
            Some(_) => Some(session.stats().map_err(|e| e.to_string())?),
            None => None,
        };
        let retries_before = session.retries();
        let s = &self.streams[cell];
        for (k, shard) in s.shards.iter().enumerate() {
            let t = Instant::now();
            session
                .send_shard(&version, shard)
                .map_err(|e| format!("shard {}: {}", k, e))?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            ops.record(&s.op_names[0], ms);
            self.shards_sent += 1;
            if let Some(r) = replay.as_mut() {
                let before = l.total_ms();
                r.shard(shard, l)?;
                l.add_ms("serve.transport", ms - (l.total_ms() - before));
            }
            if (k + 1) % QUERY_EVERY != 0 {
                continue;
            }
            for (q, pipeline) in QUERIES.iter().enumerate() {
                let t = Instant::now();
                let order = session
                    .query(&version, pipeline)
                    .map_err(|e| format!("query {}: {}", pipeline, e))?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                ops.record(&s.op_names[q + 1], ms);
                if let Some(r) = &replay {
                    let before = l.total_ms();
                    let replayed = r.query(pipeline, l)?;
                    l.add_ms("serve.transport", ms - (l.total_ms() - before));
                    if replayed != order {
                        return Err(format!(
                            "replayed {} order differs from the daemon's",
                            pipeline
                        ));
                    }
                }
            }
        }
        session.sync().map_err(|e| format!("sync: {}", e))?;
        let mut finals = Vec::with_capacity(QUERIES.len());
        for pipeline in QUERIES {
            finals.push(
                session
                    .query(&version, pipeline)
                    .map_err(|e| format!("final query {}: {}", pipeline, e))?,
            );
        }
        if finals != s.batch {
            return Err("served orders after SYNC differ from the batch model orders".to_string());
        }
        if let (Some(r), Some(before)) = (&replay, traced_stats) {
            let snapshot = std::fs::read(clop_serve::checkpoint::state_path(
                &self.checkpoints,
                &version,
            ))
            .map_err(|e| format!("read checkpoint of {}: {}", version, e))?;
            r.clean_up();
            if !r.matches_snapshot(&snapshot) {
                return Err("the daemon's checkpoint differs from the replayed folds".to_string());
            }
            let after = session.stats().map_err(|e| e.to_string())?;
            let delta = |n: &str| stat(&after, n).saturating_sub(stat(&before, n)) as f64;
            l.count("serve.folded", delta("folded"));
            l.count("serve.backpressure_waits", delta("retry_busy"));
            l.count("serve.retries", (session.retries() - retries_before) as f64);
        }
        let mut h = Fnv::default();
        for order in &finals {
            h.ids(order.iter().copied());
        }
        let s = &mut self.streams[cell];
        s.served.get_or_insert(finals);
        Ok(h.0)
    }

    fn quality(&mut self) -> Result<Quality, String> {
        let probe = crate::program(&self.options, PROBE)?;
        let probe = ProgramRun::evaluate(
            &probe.module,
            &Layout::original(&probe.module),
            &eval_config(&probe),
        );
        let mut q = Quality::default();
        for s in &self.streams {
            let config = eval_config(&s.program);
            let orig = misses(
                &ProgramRun::evaluate(
                    &s.program.module,
                    &Layout::original(&s.program.module),
                    &config,
                ),
                &probe,
            );
            let served = s
                .served
                .as_ref()
                .ok_or_else(|| format!("{} was never served", s.program.name))?;
            for order in served {
                let hot: Vec<BlockId> = order.iter().map(|&id| BlockId(id)).collect();
                let layout = BbReorder
                    .realize(&s.prepared, &hot)
                    .map_err(|e| e.to_string())?;
                let opt = misses(&ProgramRun::evaluate(&s.prepared, &layout, &config), &probe);
                q.add((orig.0, opt.0), (orig.1, opt.1));
            }
        }
        Ok(q)
    }

    fn finish(&mut self) -> Vec<Check> {
        let Some((server, mut session)) = self.daemon.take() else {
            return Vec::new();
        };
        let mut checks = Vec::new();
        match session.stats() {
            Ok(end) => {
                let delta = |n: &str| stat(&end, n).saturating_sub(stat(&self.stats_at_start, n));
                checks.push(Check::new(
                    "folded-equals-sent",
                    delta("folded") == self.shards_sent,
                    format!(
                        "folded {} of {} shards sent",
                        delta("folded"),
                        self.shards_sent
                    ),
                ));
                for n in [
                    "duplicates",
                    "rejected_decode",
                    "rejected_salvage",
                    "fold_errors",
                    "retry_busy",
                ] {
                    checks.push(Check::new(
                        n,
                        delta(n) == 0,
                        format!("{} = {}", n, delta(n)),
                    ));
                }
            }
            Err(e) => checks.push(Check::new("stats", false, e.to_string())),
        }
        checks.push(Check::new(
            "no-retries",
            session.retries() == 0 && session.backpressure_waits() == 0,
            format!(
                "{} transport retries, {} backpressure waits",
                session.retries(),
                session.backpressure_waits()
            ),
        ));
        match session.command("STOP") {
            Ok(_) => server.join(),
            Err(e) => checks.push(Check::new("stop", false, e.to_string())),
        }
        checks
    }
}
