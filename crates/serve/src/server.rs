//! The serving daemon: socket protocol, directory watcher, fold workers.
//!
//! # Protocol
//!
//! Line-oriented over TCP; every request line is `COMMAND [args...]\n`
//! and every response starts with `+` (success) or `-` (failure):
//!
//! ```text
//! PING                          -> +PONG
//! HEALTH                        -> +HEALTH <ok|degraded> <depth> <cap>
//! SHARD <version> <nbytes>      -> +OK <seq> | -RETRY <ms> | -ERR <reason>
//!   (followed by <nbytes> of raw CLSH shard bytes; -RETRY in both ack
//!    modes, a durable +OK only after the fold's checkpoint and GC pass)
//! QUERY <version> <pipeline>    -> +ORDER <epoch> <n>  then n id lines
//!                                  | -RETRY <ms> when degraded
//! EPOCH <version>               -> +EPOCH <epoch> <shards>
//! STATS                         -> +STATS <k>          then k "name value" lines
//! SYNC                          -> +SYNCED <settled>   (all enqueued shards folded,
//!                                                        checkpointed and GC'd)
//! STOP                          -> +BYE                (drain, checkpoint, shut down)
//! ```
//!
//! `-RETRY <ms>` is the backpressure answer: every admitted socket shard,
//! durable or not, enters one bounded queue (`queue_cap`), and rather than
//! buffering without limit the daemon tells the client to re-send after
//! the hint. A durable `+OK`, sent by the fold worker, survives `kill -9`;
//! acks in one batch share one checkpoint. Ingestion is idempotent per
//! shard sequence number, so a client may always re-send on any doubt
//! (timeouts, crashes, duplicated delivery).
//!
//! # Hostile peers
//!
//! The parser never trusts the wire: command lines are length-capped
//! (over-long or unparseable lines answer `-ERR` and close), non-UTF-8
//! bytes are repaired lossily before tokenizing, and every connection
//! carries read/write deadlines so a peer that stalls mid-frame or stops
//! reading its responses is disconnected instead of wedging its handler
//! thread. Fold workers never touch sockets at all, so no client
//! behaviour can poison them.
//!
//! # Degradation
//!
//! When the admission queue stays above `shed_frac · queue_cap` for
//! `shed_after_ms`, the daemon enters the *degraded* tier: `QUERY` is
//! shed with `-RETRY` (layout queries recompute over the whole fold — the
//! most expensive verb) while `SHARD` ingestion keeps its full queue
//! budget, and `STATS`/`HEALTH`/`PING` always answer. Ingestion is the
//! contractual workload; queries are served best-effort under pressure.
//!
//! # Directory ingestion
//!
//! With `watch_dir` set, `<watch_dir>/<version>/*.clsh` files are
//! admitted as they appear. Files must be *moved* into place (atomic
//! rename on the same filesystem): the watcher reads each path exactly
//! once. Unlike the socket path, the watcher blocks on a full queue
//! instead of dropping — the filesystem is its own retry buffer. A file
//! that stays unreadable for `watch_max_attempts` sweeps is quarantined
//! (skipped and counted) instead of being retried forever.
//!
//! # Checkpoint files and state GC
//!
//! A version's checkpoint is written (by a fold worker or by `STOP`) and
//! removed (by GC) only while holding that version's state lock, so two
//! snapshots of one version can never land out of order. With
//! `max_versions`/`max_state_bytes` set, every fold is followed by an
//! eviction pass: while either bound is exceeded, the
//! least-recently-ingested version other than the one just folded is
//! dropped from memory and its checkpoint files are deleted. The active
//! version is never evicted, so its queries keep answering under any
//! bound; an evicted version restarts from an empty fold when its shards
//! are re-streamed.

use crate::admission::{admit, Admission};
use crate::checkpoint;
use crate::config::{valid_version, ServeConfig};
use crate::stats::IngestStats;
use clop_core::incremental::{IncrementalStore, VersionState};
use clop_trace::ShardFile;
use clop_util::{atomic_write, ClopError, ClopResult};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on a single shard payload (`SHARD <nbytes>`).
const MAX_SHARD_BYTES: u64 = 64 * 1024 * 1024;

/// Hard cap on one command line; a longer line is a protocol violation
/// (the longest legitimate command is `SHARD <64-char version> <u64>`).
const MAX_LINE_BYTES: usize = 256;

/// One admitted shard waiting to be folded.
struct Job {
    version: String,
    shard: ShardFile,
    /// A durable `SHARD`'s connection, waiting for `Ok` or an `-ERR` reason.
    ack: Option<Sender<Result<(), String>>>,
}

/// State shared by every daemon thread.
struct Shared {
    config: ServeConfig,
    store: IncrementalStore,
    stats: IngestStats,
    /// Logical ingest clock; stamps `last_ingest` for the GC's LRU order.
    ingest_clock: AtomicU64,
    /// Per-version last-ingest stamps (which version is coldest?).
    last_ingest: Mutex<HashMap<String, u64>>,
    /// Last known snapshot size per version, for the byte-bound GC.
    state_sizes: Mutex<HashMap<String, u64>>,
    /// When the queue first crossed the pressure threshold (None: calm).
    pressure_since: Mutex<Option<Instant>>,
    /// Current degradation tier (true: shedding queries).
    degraded: AtomicBool,
    shutdown: AtomicBool,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Stamp `version` as the most recently ingested.
fn touch_ingest(shared: &Shared, version: &str) {
    let stamp = shared.ingest_clock.fetch_add(1, Ordering::Relaxed) + 1;
    lock(&shared.last_ingest).insert(version.to_string(), stamp);
}

/// A running daemon: listener + fold workers + optional watcher.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Resume checkpoints, bind the listener, start every thread.
    pub fn start(config: ServeConfig) -> ClopResult<Server> {
        let store = IncrementalStore::new();
        let mut resume = checkpoint::ResumeReport::default();
        if let Some(dir) = &config.checkpoint_dir {
            resume = checkpoint::resume_all(dir, &store)?;
            for v in &resume.restored {
                eprintln!("clop-serve: resumed checkpointed state for version {}", v);
            }
            for p in &resume.quarantined {
                eprintln!("clop-serve: quarantined corrupt checkpoint {}", p.display());
            }
            for v in &resume.lost {
                eprintln!(
                    "clop-serve: no verifiable checkpoint for version {}; awaiting re-stream",
                    v
                );
            }
        }
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| ClopError::io("bind serve listener", &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ClopError::io("set listener non-blocking", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ClopError::io("read bound address", &e))?;
        if let Some(pf) = &config.port_file {
            atomic_write(pf, format!("{}\n", addr).as_bytes())
                .map_err(|e| ClopError::io("write port file", &e))?;
        }
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            config,
            store,
            stats: IngestStats::default(),
            ingest_clock: AtomicU64::new(0),
            last_ingest: Mutex::new(HashMap::new()),
            state_sizes: Mutex::new(HashMap::new()),
            pressure_since: Mutex::new(None),
            degraded: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        IngestStats::add(
            &shared.stats.resume_quarantined,
            resume.quarantined.len() as u64,
        );
        IngestStats::add(
            &shared.stats.resume_fallbacks,
            resume.fell_back.len() as u64,
        );
        // Seed the GC bookkeeping from what resume restored: restored
        // versions are stamped in name order (their true ingest order died
        // with the previous process) and sized from their snapshot files.
        for v in &resume.restored {
            touch_ingest(&shared, v);
            if let Some(dir) = &shared.config.checkpoint_dir {
                let on_disk = std::fs::metadata(checkpoint::state_path(dir, v))
                    .or_else(|_| std::fs::metadata(checkpoint::prev_path(dir, v)))
                    .map(|md| md.len());
                if let Ok(bytes) = on_disk {
                    lock(&shared.state_sizes).insert(v.clone(), bytes);
                }
            }
        }
        let mut handles = Vec::new();
        for _ in 0..shared.config.workers {
            let sh = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            handles.push(std::thread::spawn(move || worker_loop(&sh, &rx)));
        }
        if let Some(dir) = shared.config.watch_dir.clone() {
            let sh = Arc::clone(&shared);
            let wtx = tx.clone();
            handles.push(std::thread::spawn(move || watcher_loop(&sh, &wtx, &dir)));
        }
        {
            let sh = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || accept_loop(&sh, &listener, &tx)));
        }
        Ok(Server {
            addr,
            shared,
            handles,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon counters (inspection from in-process tests).
    pub fn stats(&self) -> &IngestStats {
        &self.shared.stats
    }

    /// Block until the daemon shuts down (a client sent `STOP`).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Apply admission accounting; `Ok` is the shard to enqueue, `Err` the
/// reason line for the client.
fn account(stats: &IngestStats, adm: Admission) -> Result<ShardFile, String> {
    match adm {
        Admission::Accept {
            shard,
            salvaged,
            report,
        } => {
            IngestStats::add(&stats.repair_declared, report.declared);
            IngestStats::add(&stats.repair_decoded, report.decoded);
            IngestStats::add(&stats.repair_dropped, report.dropped);
            if salvaged {
                IngestStats::bump(&stats.salvaged_accepted);
            }
            Ok(shard)
        }
        Admission::RejectDecode { reason } => {
            IngestStats::bump(&stats.rejected_decode);
            Err(format!("decode: {}", reason))
        }
        Admission::RejectSalvage { reason, report } => {
            IngestStats::add(&stats.repair_declared, report.declared);
            IngestStats::add(&stats.repair_decoded, report.decoded);
            IngestStats::add(&stats.repair_dropped, report.dropped);
            IngestStats::bump(&stats.rejected_salvage);
            Err(format!("salvage: {}", reason))
        }
    }
}

/// Evaluate the degradation tier from current queue pressure. Pressure
/// must be sustained for `shed_after_ms` to enter the degraded tier;
/// any dip below the threshold resets both the timer and the tier.
fn pressure_tier_degraded(shared: &Shared) -> bool {
    let cap = shared.config.queue_cap as u64;
    let hi = ((cap as f64 * shared.config.shed_frac).ceil() as u64).clamp(1, cap);
    let depth = shared.stats.queue_depth.load(Ordering::Relaxed);
    let mut since = lock(&shared.pressure_since);
    if depth >= hi {
        let now = Instant::now();
        let t0 = *since.get_or_insert(now);
        if now.duration_since(t0).as_millis() as u64 >= shared.config.shed_after_ms
            && !shared.degraded.swap(true, Ordering::SeqCst)
        {
            IngestStats::bump(&shared.stats.degraded_entered);
        }
    } else {
        *since = None;
        shared.degraded.store(false, Ordering::SeqCst);
    }
    shared.degraded.load(Ordering::SeqCst)
}

/// Accept connections until shutdown; one thread per connection.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener, tx: &SyncSender<Job>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Request/response with small frames: Nagle + delayed ACK
                // would add ~40ms per command.
                let _ = stream.set_nodelay(true);
                let sh = Arc::clone(shared);
                let ctx = tx.clone();
                std::thread::spawn(move || {
                    let _ = handle_connection(&sh, &ctx, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One bounded line read: `Line` up to the cap, `Eof` on clean close,
/// `TooLong` when the peer exceeds the cap without a newline (the rest of
/// the stream cannot be resynchronized).
enum LineRead {
    Eof,
    Line(String),
    TooLong,
}

/// Read one `\n`-terminated command line without ever buffering more
/// than the cap; non-UTF-8 bytes are repaired lossily (the tokenizer
/// rejects what remains). I/O errors — including the read deadline —
/// propagate and close the connection.
fn read_bounded_line(reader: &mut BufReader<TcpStream>) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                // EOF with a dangling partial line: treat as a (final)
                // command so a trailing un-terminated verb still answers.
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            if buf.len() + pos > MAX_LINE_BYTES {
                reader.consume(pos + 1);
                return Ok(LineRead::TooLong);
            }
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return Ok(LineRead::Line(String::from_utf8_lossy(&buf).into_owned()));
        }
        let n = available.len();
        buf.extend_from_slice(available);
        reader.consume(n);
        if buf.len() > MAX_LINE_BYTES {
            return Ok(LineRead::TooLong);
        }
    }
}

/// Serve one connection until EOF, deadline, protocol violation, or
/// `STOP`. Both socket directions carry deadlines so a stalled or
/// half-dead peer can only wedge itself.
fn handle_connection(
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
    stream: TcpStream,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(
        shared.config.conn_read_timeout_ms,
    )))?;
    stream.set_write_timeout(Some(Duration::from_millis(
        shared.config.conn_write_timeout_ms,
    )))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    loop {
        let line = match read_bounded_line(&mut reader)? {
            LineRead::Eof => return Ok(()),
            LineRead::TooLong => {
                IngestStats::bump(&shared.stats.malformed_lines);
                out.write_all(b"-ERR line too long\n")?;
                return Ok(()); // cannot resynchronize past an unread tail
            }
            LineRead::Line(l) => l,
        };
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["PING"] => out.write_all(b"+PONG\n")?,
            ["HEALTH"] => cmd_health(shared, &mut out)?,
            ["SHARD", version, nbytes] => {
                if !cmd_shard(shared, tx, &mut reader, &mut out, version, nbytes)? {
                    return Ok(());
                }
            }
            ["QUERY", version, pipeline] => cmd_query(shared, &mut out, version, pipeline)?,
            ["EPOCH", version] => cmd_epoch(shared, &mut out, version)?,
            ["STATS"] => cmd_stats(shared, &mut out)?,
            ["SYNC"] => cmd_sync(shared, &mut out)?,
            ["STOP"] => {
                cmd_stop(shared, &mut out)?;
                return Ok(());
            }
            [] => {}
            _ => {
                IngestStats::bump(&shared.stats.malformed_lines);
                out.write_all(b"-ERR unknown command\n")?;
            }
        }
    }
}

/// `HEALTH`: degradation tier and queue occupancy.
fn cmd_health(shared: &Arc<Shared>, out: &mut TcpStream) -> std::io::Result<()> {
    let tier = if pressure_tier_degraded(shared) {
        "degraded"
    } else {
        "ok"
    };
    let depth = shared.stats.queue_depth.load(Ordering::Relaxed);
    out.write_all(format!("+HEALTH {} {} {}\n", tier, depth, shared.config.queue_cap).as_bytes())
}

/// `SHARD`: read the payload, admit, enqueue with backpressure and, for
/// a durable ack, wait for the worker's answer. Returns `Ok(false)` when
/// the connection is no longer in sync (bad framing) and must be closed.
fn cmd_shard(
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
    reader: &mut BufReader<TcpStream>,
    out: &mut TcpStream,
    version: &str,
    nbytes: &str,
) -> std::io::Result<bool> {
    let Ok(n) = nbytes.parse::<u64>() else {
        IngestStats::bump(&shared.stats.malformed_lines);
        out.write_all(b"-ERR bad shard length\n")?;
        return Ok(false);
    };
    if n > MAX_SHARD_BYTES {
        IngestStats::bump(&shared.stats.malformed_lines);
        out.write_all(b"-ERR shard too large\n")?;
        return Ok(false);
    }
    let mut payload = vec![0u8; n as usize];
    reader.read_exact(&mut payload)?;
    if !valid_version(version) {
        out.write_all(b"-ERR bad version token\n")?;
        return Ok(true);
    }
    let shard = match account(&shared.stats, admit(&payload, shared.config.max_drop_frac)) {
        Ok(shard) => shard,
        Err(reason) => {
            out.write_all(format!("-ERR {}\n", reason).as_bytes())?;
            return Ok(true);
        }
    };
    let seq = shard.seq;
    let (ack, reply) = shared.config.durable_ack.then(mpsc::channel).unzip();
    // The gauge rises before the send: a worker may pop the job (and
    // decrement) the instant it lands, and the saturating decrement must
    // never observe the gauge pre-increment.
    IngestStats::bump(&shared.stats.queue_depth);
    let job = Job {
        version: version.to_string(),
        shard,
        ack,
    };
    let answer = match tx.try_send(job) {
        Ok(()) => {
            IngestStats::bump(&shared.stats.enqueued);
            touch_ingest(shared, version);
            match reply.map(|r| r.recv()) {
                None | Some(Ok(Ok(()))) => format!("+OK {}\n", seq),
                Some(Ok(Err(reason))) => format!("-ERR {}\n", reason),
                // The queue was dropped with the job in it.
                Some(Err(_)) => "-ERR shutting down\n".to_string(),
            }
        }
        Err(TrySendError::Full(_)) => {
            IngestStats::dec(&shared.stats.queue_depth);
            IngestStats::bump(&shared.stats.retry_busy);
            format!("-RETRY {}\n", shared.config.retry_ms)
        }
        Err(TrySendError::Disconnected(_)) => {
            IngestStats::dec(&shared.stats.queue_depth);
            "-ERR shutting down\n".to_string()
        }
    };
    out.write_all(answer.as_bytes())?;
    Ok(true)
}

/// `QUERY`: run a named pipeline against the current fold — unless
/// the daemon is degraded, in which case the query is shed with `-RETRY`
/// (ingestion keeps its budget; recomputation waits).
fn cmd_query(
    shared: &Arc<Shared>,
    out: &mut TcpStream,
    version: &str,
    pipeline: &str,
) -> std::io::Result<()> {
    if !valid_version(version) {
        return out.write_all(b"-ERR bad version token\n");
    }
    if pressure_tier_degraded(shared) {
        IngestStats::bump(&shared.stats.shed_queries);
        return out.write_all(format!("-RETRY {}\n", shared.config.retry_ms).as_bytes());
    }
    // A version nobody streamed answers as an empty fold, registering none.
    let result = match shared.store.get(version, shared.config.params) {
        Some(arc) => lock(&arc).layout_query(pipeline),
        None => VersionState::new(shared.config.params).layout_query(pipeline),
    };
    match result {
        Ok(res) => {
            IngestStats::bump(&shared.stats.queries);
            let mut body = format!("+ORDER {} {}\n", res.epoch, res.order.len());
            for id in &res.order {
                body.push_str(&id.0.to_string());
                body.push('\n');
            }
            out.write_all(body.as_bytes())
        }
        Err(e) => out.write_all(format!("-ERR {}\n", e).as_bytes()),
    }
}

/// `EPOCH`: the version's invalidation epoch and absorbed-shard count.
fn cmd_epoch(shared: &Arc<Shared>, out: &mut TcpStream, version: &str) -> std::io::Result<()> {
    if !valid_version(version) {
        return out.write_all(b"-ERR bad version token\n");
    }
    let (epoch, shards) = match shared.store.get(version, shared.config.params) {
        Some(arc) => {
            let st = lock(&arc);
            (st.epoch(), st.shards_absorbed())
        }
        None => (0, 0),
    };
    out.write_all(format!("+EPOCH {} {}\n", epoch, shards).as_bytes())
}

/// `STATS`: every counter, one per line, plus the live degradation tier.
fn cmd_stats(shared: &Arc<Shared>, out: &mut TcpStream) -> std::io::Result<()> {
    let mut snap = shared.stats.snapshot();
    let degraded = u64::from(pressure_tier_degraded(shared));
    snap.push(("degraded", degraded));
    let mut body = format!("+STATS {}\n", snap.len());
    for (name, value) in snap {
        body.push_str(&format!("{} {}\n", name, value));
    }
    out.write_all(body.as_bytes())
}

/// Wait until every enqueued shard has settled (folded, deduplicated or
/// failed). A shard settles only after its fold's checkpoint write and GC
/// pass, so a drained daemon has every fold on disk and every bound
/// enforced.
fn drain(shared: &Arc<Shared>) -> bool {
    let start = Instant::now();
    let timeout = Duration::from_millis(shared.config.sync_timeout_ms);
    while start.elapsed() < timeout {
        if shared.stats.settled() >= shared.stats.enqueued.load(Ordering::Relaxed) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// `SYNC`: barrier over the admission queue.
fn cmd_sync(shared: &Arc<Shared>, out: &mut TcpStream) -> std::io::Result<()> {
    if drain(shared) {
        out.write_all(format!("+SYNCED {}\n", shared.stats.settled()).as_bytes())
    } else {
        out.write_all(b"-ERR sync timed out\n")
    }
}

/// `STOP`: drain, checkpoint every version, flip the shutdown flag.
fn cmd_stop(shared: &Arc<Shared>, out: &mut TcpStream) -> std::io::Result<()> {
    let drained = drain(shared);
    if let Some(dir) = &shared.config.checkpoint_dir {
        for (version, arc) in shared.store.states() {
            let _ = write_checkpoint(shared, dir, &version, &lock(&arc));
        }
    }
    shared.shutdown.store(true, Ordering::SeqCst);
    if drained {
        out.write_all(b"+BYE\n")
    } else {
        out.write_all(b"-ERR drain timed out; checkpointed what settled\n")
    }
}

/// Fold worker: drain the queue in batches of up to `batch_max` jobs. A
/// batch is drained under the receiver lock that received its first job:
/// the other workers cycle on that lock in `recv_timeout`, and the unfair
/// mutex could starve a worker that came back for it holding a job.
fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let batch = {
            let guard = lock(rx);
            let first = match guard.recv_timeout(Duration::from_millis(50)) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            };
            let rest = guard
                .try_iter()
                .take(shared.config.batch_max.saturating_sub(1));
            std::iter::once(first).chain(rest).collect::<Vec<Job>>()
        };
        for _ in &batch {
            IngestStats::dec(&shared.stats.queue_depth);
        }
        fold_batch(shared, batch);
    }
}

/// Absorb one drained batch, grouped by version so each version's state
/// lock is taken once per batch.
fn fold_batch(shared: &Arc<Shared>, batch: Vec<Job>) {
    let mut groups: Vec<(String, Vec<Job>)> = Vec::new();
    for job in batch {
        match groups.iter_mut().find(|(v, _)| *v == job.version) {
            Some((_, jobs)) => jobs.push(job),
            None => groups.push((job.version.clone(), vec![job])),
        }
    }
    for (version, jobs) in groups {
        fold_group(shared, &version, jobs);
    }
}

/// Fold one version's jobs under its state lock, checkpoint when the folds
/// cross a multiple of `checkpoint_every` or a job awaits a durable ack,
/// and run a GC pass. Only then are the jobs settled and durable ones
/// answered: `SYNC` and a durable `+OK` both promise what is on disk.
fn fold_group(shared: &Arc<Shared>, version: &str, jobs: Vec<Job>) {
    let arc = shared.store.state(version, shared.config.params);
    touch_ingest(shared, version);
    let (outcomes, saved) = {
        let mut st = lock(&arc);
        let before = st.shards_absorbed();
        let outcomes: Vec<ClopResult<bool>> = jobs
            .iter()
            .map(|job| {
                if shared.config.fold_delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(shared.config.fold_delay_ms));
                }
                st.absorb_shard(&job.shard)
            })
            .collect();
        let every = shared.config.checkpoint_every.max(1);
        let due =
            jobs.iter().any(|j| j.ack.is_some()) || st.shards_absorbed() / every > before / every;
        let saved = match &shared.config.checkpoint_dir {
            Some(dir) if due => write_checkpoint(shared, dir, version, &st),
            _ => {
                // The byte-bound GC needs a size estimate between
                // checkpoints too.
                if shared.config.max_state_bytes > 0 {
                    lock(&shared.state_sizes)
                        .insert(version.to_string(), st.to_bytes().len() as u64);
                }
                Ok(())
            }
        };
        (outcomes, saved)
    };
    run_gc(shared, version);
    let mut answers = Vec::with_capacity(jobs.len());
    for outcome in outcomes {
        let (settled, answer) = match outcome {
            Ok(true) => (&shared.stats.folded, saved.clone()),
            Ok(false) => (&shared.stats.duplicates, saved.clone()),
            Err(e) => {
                // Unreachable when deltas are measured at this state's own
                // parameters; counted so the SYNC barrier still settles.
                eprintln!("clop-serve: fold of shard into {} failed: {}", version, e);
                (&shared.stats.fold_errors, Err(format!("fold: {}", e)))
            }
        };
        IngestStats::bump(settled);
        answers.push(answer);
    }
    for (job, answer) in jobs.into_iter().zip(answers) {
        if let Some(ack) = job.ack {
            // A connection that hung up no longer needs its answer.
            let _ = ack.send(answer);
        }
    }
}

/// Write `version`'s checkpoint: the daemon's one checkpoint writer. It
/// takes the held state guard, so the snapshot lands under its version's
/// lock and two snapshots of one version never land out of order. `Err`
/// is the reason a durable ack is withheld.
fn write_checkpoint(
    shared: &Shared,
    dir: &Path,
    version: &str,
    st: &MutexGuard<'_, VersionState>,
) -> Result<(), String> {
    let bytes = st.to_bytes();
    lock(&shared.state_sizes).insert(version.to_string(), bytes.len() as u64);
    match checkpoint::checkpoint_bytes(dir, version, &bytes) {
        Ok(()) => {
            IngestStats::bump(&shared.stats.checkpoints);
            Ok(())
        }
        Err(e) => {
            eprintln!("clop-serve: checkpoint of {} failed: {}", version, e);
            Err(format!("checkpoint failed; ack withheld: {}", e))
        }
    }
}

/// One GC pass: while a version-count or state-byte bound is exceeded,
/// evict the least-recently-ingested version other than `active` — from
/// memory and from the checkpoint directory. `active` (the version that
/// just folded) is never evicted, so the bound can never starve the
/// version actually serving traffic.
fn run_gc(shared: &Arc<Shared>, active: &str) {
    let max_versions = shared.config.max_versions;
    let max_bytes = shared.config.max_state_bytes;
    if max_versions == 0 && max_bytes == 0 {
        return;
    }
    loop {
        let versions = shared.store.versions();
        let over_count = max_versions > 0 && versions.len() > max_versions;
        let over_bytes = max_bytes > 0 && {
            let sizes = lock(&shared.state_sizes);
            let total: u64 = versions
                .iter()
                .map(|v| sizes.get(v).copied().unwrap_or(0))
                .sum();
            total > max_bytes
        };
        if !over_count && !over_bytes {
            return;
        }
        let victim = {
            let stamps = lock(&shared.last_ingest);
            versions
                .iter()
                .filter(|v| v.as_str() != active)
                .min_by_key(|v| stamps.get(v.as_str()).copied().unwrap_or(0))
                .cloned()
        };
        let Some(victim) = victim else {
            return; // only the active version remains; never evict it
        };
        // The victim's files go under its lock, never mid-checkpoint.
        let states = shared.store.states();
        let held = states.iter().find(|(v, _)| *v == victim);
        let _guard = held.map(|(_, arc)| lock(arc));
        if shared.store.remove_version(&victim) == 0 {
            continue; // a concurrent pass evicted it first
        }
        let mut freed = lock(&shared.state_sizes).remove(&victim).unwrap_or(0);
        lock(&shared.last_ingest).remove(&victim);
        if let Some(dir) = &shared.config.checkpoint_dir {
            match checkpoint::remove_checkpoint(dir, &victim) {
                Ok(disk) => freed = freed.max(disk),
                Err(e) => eprintln!("clop-serve: GC of {} checkpoints failed: {}", victim, e),
            }
        }
        IngestStats::bump(&shared.stats.evicted_versions);
        IngestStats::add(&shared.stats.evicted_bytes, freed);
        eprintln!("clop-serve: evicted version {} ({} bytes)", victim, freed);
    }
}

/// Directory watcher: poll `<dir>/<version>/*.clsh`, admit each file
/// once, blocking on a full queue (the filesystem is the retry buffer).
fn watcher_loop(shared: &Arc<Shared>, tx: &SyncSender<Job>, dir: &PathBuf) {
    let mut seen: HashSet<PathBuf> = HashSet::new();
    let mut attempts: HashMap<PathBuf, u32> = HashMap::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        scan_watch_dir(shared, tx, dir, &mut seen, &mut attempts);
        std::thread::sleep(Duration::from_millis(shared.config.watch_poll_ms));
    }
}

/// One watcher sweep over the version subdirectories.
fn scan_watch_dir(
    shared: &Arc<Shared>,
    tx: &SyncSender<Job>,
    dir: &PathBuf,
    seen: &mut HashSet<PathBuf>,
    attempts: &mut HashMap<PathBuf, u32>,
) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let Some(version) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !valid_version(version) {
            continue;
        }
        let version = version.to_string();
        let Ok(files) = std::fs::read_dir(&path) else {
            continue;
        };
        let mut paths: Vec<PathBuf> = files
            .flatten()
            .map(|f| f.path())
            .filter(|p| p.extension().map(|e| e == "clsh").unwrap_or(false))
            .filter(|p| !seen.contains(p))
            .collect();
        paths.sort();
        for p in paths {
            let Ok(bytes) = std::fs::read(&p) else {
                // Transient read failure: retry next sweep — but not
                // forever. A path that stays unreadable is quarantined so
                // the sweeper's work stays bounded.
                let n = attempts.entry(p.clone()).or_insert(0);
                *n += 1;
                if *n >= shared.config.watch_max_attempts {
                    attempts.remove(&p);
                    seen.insert(p.clone());
                    IngestStats::bump(&shared.stats.watch_quarantined);
                    eprintln!(
                        "clop-serve: quarantined {} after {} unreadable sweeps",
                        p.display(),
                        shared.config.watch_max_attempts
                    );
                }
                continue;
            };
            attempts.remove(&p);
            seen.insert(p.clone());
            match account(&shared.stats, admit(&bytes, shared.config.max_drop_frac)) {
                Ok(shard) => {
                    // Gauge before send, same as the socket path.
                    IngestStats::bump(&shared.stats.queue_depth);
                    if tx
                        .send(Job {
                            version: version.clone(),
                            shard,
                            ack: None,
                        })
                        .is_err()
                    {
                        IngestStats::dec(&shared.stats.queue_depth);
                        return;
                    }
                    IngestStats::bump(&shared.stats.enqueued);
                    touch_ingest(shared, &version);
                }
                Err(reason) => {
                    eprintln!("clop-serve: rejected {}: {}", p.display(), reason);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{backoff_delay, SessionConfig};
    use clop_core::build_pipeline;
    use clop_core::incremental::AnalysisParams;
    use clop_trace::{split_shards_columnar, TrimmedTrace};
    use clop_util::Rng;
    use std::fs;

    fn random_trace(seed: u64, len: usize, blocks: u32) -> TrimmedTrace {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        TrimmedTrace::from_indices((0..len).map(|_| (next() % blocks as u64) as u32))
    }

    fn batch_order(t: &TrimmedTrace, pipeline: &str, params: &AnalysisParams) -> Vec<u32> {
        let pp = params.pipeline_params();
        build_pipeline(pipeline, &pp)
            .unwrap()
            .model
            .sequence(t)
            .iter()
            .map(|b| b.0)
            .collect()
    }

    struct Client {
        reader: BufReader<TcpStream>,
        out: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            Client {
                reader: BufReader::new(stream.try_clone().unwrap()),
                out: stream,
            }
        }

        fn line(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        }

        fn send_shard(&mut self, version: &str, bytes: &[u8]) -> String {
            self.out
                .write_all(format!("SHARD {} {}\n", version, bytes.len()).as_bytes())
                .unwrap();
            self.out.write_all(bytes).unwrap();
            self.line()
        }

        /// Retry `-RETRY` backpressure with the session layer's capped
        /// exponential backoff — bounded: a daemon that never accepts
        /// fails the test instead of hanging it.
        fn send_shard_retrying(&mut self, version: &str, bytes: &[u8]) -> String {
            let cfg = SessionConfig {
                backoff_base_ms: 2,
                backoff_cap_ms: 50,
                ..SessionConfig::default()
            };
            let mut rng = Rng::seed_from_u64(0xC0FFEE);
            const MAX_ATTEMPTS: u32 = 400;
            for attempt in 0..MAX_ATTEMPTS {
                let resp = self.send_shard(version, bytes);
                if let Some(ms) = resp.strip_prefix("-RETRY ") {
                    let hint = Duration::from_millis(ms.parse().unwrap_or(10));
                    std::thread::sleep(hint.max(backoff_delay(&cfg, attempt.min(16), &mut rng)));
                    continue;
                }
                return resp;
            }
            panic!("shard not accepted after {} retry attempts", MAX_ATTEMPTS);
        }

        fn query(&mut self, version: &str, pipeline: &str) -> Vec<u32> {
            self.out
                .write_all(format!("QUERY {} {}\n", version, pipeline).as_bytes())
                .unwrap();
            let head = self.line();
            let n: usize = head
                .strip_prefix("+ORDER ")
                .unwrap_or_else(|| panic!("query failed: {}", head))
                .split_whitespace()
                .nth(1)
                .unwrap()
                .parse()
                .unwrap();
            (0..n).map(|_| self.line().parse().unwrap()).collect()
        }

        fn command(&mut self, cmd: &str) -> String {
            self.out.write_all(format!("{}\n", cmd).as_bytes()).unwrap();
            self.line()
        }

        fn stat(&mut self, name: &str) -> u64 {
            self.out.write_all(b"STATS\n").unwrap();
            let head = self.line();
            let k: usize = head.strip_prefix("+STATS ").unwrap().parse().unwrap();
            let mut value = None;
            for _ in 0..k {
                let l = self.line();
                let mut it = l.split_whitespace();
                if it.next() == Some(name) {
                    value = it.next().and_then(|v| v.parse().ok());
                }
            }
            value.unwrap_or_else(|| panic!("no stat named {}", name))
        }
    }

    /// Poll the daemon's counters until `done` holds, for at most 30 s.
    fn wait_for(server: &Server, what: &str, done: impl Fn(&IngestStats) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done(server.stats()) {
            assert!(Instant::now() < deadline, "timed out waiting for {}", what);
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// The newest checkpoint of `version` on disk, as resume picks it:
    /// `.state`, or `.state.prev` while a rotation is in flight.
    fn newest_checkpoint(dir: &Path, version: &str) -> VersionState {
        let bytes = fs::read(checkpoint::state_path(dir, version))
            .or_else(|_| fs::read(checkpoint::prev_path(dir, version)))
            .unwrap();
        VersionState::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn end_to_end_stream_query_matches_batch() {
        let params = AnalysisParams::default();
        let config = ServeConfig {
            params,
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let addr = server.addr();
        let t = random_trace(21, 1200, 14);
        let files = split_shards_columnar(&t, 6, params.affinity.w_max, params.trg.window);

        let mut c = Client::connect(addr);
        assert_eq!(c.command("PING"), "+PONG");
        // Deliver out of order, with a duplicate.
        for f in files.iter().rev() {
            assert!(c.send_shard_retrying("app-v1", f).starts_with("+OK "));
        }
        assert!(c
            .send_shard_retrying("app-v1", &files[0])
            .starts_with("+OK"));
        assert!(c.command("SYNC").starts_with("+SYNCED"));

        for pipeline in ["function-affinity", "function-trg"] {
            assert_eq!(
                c.query("app-v1", pipeline),
                batch_order(&t, pipeline, &params),
                "{}",
                pipeline
            );
        }
        let epoch = c.command("EPOCH app-v1");
        assert_eq!(epoch, format!("+EPOCH {} {}", files.len(), files.len()));
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
    }

    /// A shard whose payload is a CLTC version-1 container (seq 7, core
    /// 1..4), as the retired row writer produced it.
    const SHARD_V1: [u8; 29] = [
        67, 76, 83, 72, 1, 7, 1, 4, 207, 58, 120, 228, 67, 76, 84, 67, 1, 7, 195, 204, 50, 160, 5,
        8, 10, 13, 10, 202, 4,
    ];

    /// A client streaming a version-1 payload mid-stream gets a decode
    /// error for that shard alone; the version's v2 shards still fold to
    /// the batch answer.
    #[test]
    fn version_1_payload_is_a_decode_error_and_v2_shards_still_fold() {
        let params = AnalysisParams::default();
        let config = ServeConfig {
            params,
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(23, 1200, 14);
        let files = split_shards_columnar(&t, 6, params.affinity.w_max, params.trg.window);
        let mut c = Client::connect(server.addr());
        for (i, f) in files.iter().enumerate() {
            assert!(c.send_shard_retrying("app-v2", f).starts_with("+OK"));
            if i == 2 {
                let resp = c.send_shard("app-v2", &SHARD_V1);
                assert!(resp.starts_with("-ERR decode: "), "{}", resp);
                assert!(resp.contains("version 1"), "{}", resp);
            }
        }
        assert!(c.command("SYNC").starts_with("+SYNCED"));
        assert_eq!(load(&server.stats().rejected_decode), 1);
        for pipeline in ["function-affinity", "function-trg"] {
            assert_eq!(
                c.query("app-v2", pipeline),
                batch_order(&t, pipeline, &params),
                "{}",
                pipeline
            );
        }
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
    }

    #[test]
    fn full_queue_answers_retry_and_still_folds_everything() {
        // The test holds the version's lock: the one worker blocks on the
        // first shard, and the second fills the 1-slot queue.
        let params = AnalysisParams::default();
        let config = ServeConfig {
            params,
            workers: 1,
            queue_cap: 1,
            batch_max: 1,
            retry_ms: 5,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(22, 900, 11);
        let files = split_shards_columnar(&t, 6, params.affinity.w_max, params.trg.window);
        let gate = server.shared.store.state("v", params);
        let held = lock(&gate);
        let mut c = Client::connect(server.addr());
        assert!(c.send_shard("v", &files[0]).starts_with("+OK"));
        wait_for(&server, "the worker to take shard 0", |s| {
            load(&s.queue_depth) == 0
        });
        assert!(c.send_shard("v", &files[1]).starts_with("+OK"));
        assert_eq!(c.send_shard("v", &files[2]), "-RETRY 5");
        assert_eq!(load(&server.stats().retry_busy), 1);
        drop(held);
        for f in &files[2..] {
            assert!(c.send_shard_retrying("v", f).starts_with("+OK"));
        }
        assert!(c.command("SYNC").starts_with("+SYNCED"));
        assert_eq!(load(&server.stats().folded), files.len() as u64);
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
    }

    #[test]
    fn durable_shards_share_the_bounded_queue() {
        // Two durable SHARDs in flight while the test holds the version's
        // lock: the worker blocks on one and the other fills the 1-slot
        // queue, so a third answers -RETRY instead of folding on its own.
        let params = AnalysisParams::default();
        let config = ServeConfig {
            params,
            durable_ack: true,
            workers: 1,
            queue_cap: 1,
            batch_max: 1,
            retry_ms: 5,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(37, 600, 10);
        let files = split_shards_columnar(&t, 3, params.affinity.w_max, params.trg.window);
        let gate = server.shared.store.state("dq", params);
        let held = lock(&gate);
        let addr = server.addr();
        let spawn_send = |f: &Vec<u8>| {
            let f = f.clone();
            std::thread::spawn(move || Client::connect(addr).send_shard("dq", &f))
        };
        let first = spawn_send(&files[0]);
        wait_for(&server, "the worker to take shard 0", |s| {
            load(&s.enqueued) == 1 && load(&s.queue_depth) == 0
        });
        let second = spawn_send(&files[1]);
        wait_for(&server, "shard 1 to be queued", |s| load(&s.enqueued) == 2);
        let mut c = Client::connect(addr);
        // Bounded: a SHARD that skips the queue would block on the lock.
        c.out
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(c.send_shard("dq", &files[2]), "-RETRY 5");
        c.out.set_read_timeout(None).unwrap();
        drop(held);
        assert!(first.join().unwrap().starts_with("+OK"));
        assert!(second.join().unwrap().starts_with("+OK"));
        assert!(c.send_shard_retrying("dq", &files[2]).starts_with("+OK"));
        assert_eq!(load(&server.stats().retry_busy), 1);
        assert_eq!(load(&server.stats().folded), files.len() as u64);
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
    }

    #[test]
    fn concurrent_durable_acks_are_in_the_newest_checkpoint() {
        // Two connections stream one version durably into two workers.
        // Every ack must already be in the newest snapshot on disk, however
        // the two workers' checkpoint writes interleave.
        let params = AnalysisParams::default();
        let ckpt = std::env::temp_dir().join(format!("clop-serve-acks-{}", std::process::id()));
        let _ = fs::remove_dir_all(&ckpt);
        let config = ServeConfig {
            params,
            durable_ack: true,
            workers: 2,
            checkpoint_dir: Some(ckpt.clone()),
            checkpoint_every: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(38, 2400, 16);
        let files = split_shards_columnar(&t, 12, params.affinity.w_max, params.trg.window);
        let streams: Vec<_> = (0..2)
            .map(|k| {
                let (addr, dir) = (server.addr(), ckpt.clone());
                let mine: Vec<Vec<u8>> = files.iter().skip(k).step_by(2).cloned().collect();
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut acked = Vec::new();
                    for f in &mine {
                        let resp = c.send_shard_retrying("cv", f);
                        acked.push(resp.strip_prefix("+OK ").unwrap().parse::<u64>().unwrap());
                        let newest = newest_checkpoint(&dir, "cv");
                        for &seq in &acked {
                            assert!(newest.contains(seq), "acked shard {} not on disk", seq);
                        }
                    }
                })
            })
            .collect();
        for s in streams {
            s.join().unwrap();
        }
        let mut c = Client::connect(server.addr());
        assert!(c.command("SYNC").starts_with("+SYNCED"));
        assert_eq!(load(&server.stats().folded), files.len() as u64);
        assert_eq!(
            c.query("cv", "function-trg"),
            batch_order(&t, "function-trg", &params)
        );
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
        fs::remove_dir_all(&ckpt).unwrap();
    }

    #[test]
    fn corrupt_shards_are_rejected_with_stats() {
        let params = AnalysisParams::default();
        let server = Server::start(ServeConfig {
            params,
            ..ServeConfig::default()
        })
        .unwrap();
        let t = random_trace(23, 400, 9);
        let files = split_shards_columnar(&t, 2, params.affinity.w_max, params.trg.window);
        let mut c = Client::connect(server.addr());
        assert!(c
            .send_shard("v", b"definitely not a shard")
            .starts_with("-ERR decode:"));
        let mut torn = files[0].clone();
        torn.truncate(torn.len() - 2);
        assert!(c.send_shard("v", &torn).starts_with("-ERR salvage:"));
        assert_eq!(server.stats().rejected_decode.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats().rejected_salvage.load(Ordering::Relaxed), 1);
        assert!(server.stats().repair_dropped.load(Ordering::Relaxed) > 0);
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
    }

    #[test]
    fn watch_dir_ingestion_and_checkpoint_resume() {
        let params = AnalysisParams::default();
        let base = std::env::temp_dir().join(format!("clop-serve-watch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let watch = base.join("incoming");
        let ckpt = base.join("ckpt");
        fs::create_dir_all(watch.join("appv")).unwrap();

        let t = random_trace(24, 800, 10);
        let files = split_shards_columnar(&t, 4, params.affinity.w_max, params.trg.window);
        let config = ServeConfig {
            params,
            watch_dir: Some(watch.clone()),
            watch_poll_ms: 20,
            checkpoint_dir: Some(ckpt.clone()),
            checkpoint_every: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(config.clone()).unwrap();
        for (i, f) in files.iter().enumerate() {
            // Atomic move into place, as the watcher contract requires.
            let tmp = base.join(format!("stage-{}", i));
            fs::write(&tmp, f).unwrap();
            fs::rename(&tmp, watch.join("appv").join(format!("s{}.clsh", i))).unwrap();
        }
        let mut c = Client::connect(server.addr());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let resp = c.command("EPOCH appv");
            if resp == format!("+EPOCH {} {}", files.len(), files.len()) {
                break;
            }
            assert!(Instant::now() < deadline, "watcher never folded: {}", resp);
            std::thread::sleep(Duration::from_millis(20));
        }
        let order = c.query("appv", "function-affinity");
        assert_eq!(order, batch_order(&t, "function-affinity", &params));
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();

        // Marked checkpoints exist; a fresh daemon resumes and answers
        // identically with no re-streaming at all.
        assert!(ckpt.join("appv.done").exists());
        let server2 = Server::start(ServeConfig {
            watch_dir: None,
            ..config
        })
        .unwrap();
        let mut c2 = Client::connect(server2.addr());
        assert_eq!(
            c2.query("appv", "function-affinity"),
            batch_order(&t, "function-affinity", &params)
        );
        assert_eq!(c2.command("STOP"), "+BYE");
        server2.join();
        fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn health_reports_and_pressure_sheds_queries_before_shards() {
        let params = AnalysisParams::default();
        let config = ServeConfig {
            params,
            workers: 1,
            queue_cap: 8,
            batch_max: 1,
            retry_ms: 5,
            shed_frac: 0.25, // pressure at 2 queued jobs
            shed_after_ms: 0,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(31, 1400, 12);
        let files = split_shards_columnar(&t, 7, params.affinity.w_max, params.trg.window);
        let mut c = Client::connect(server.addr());
        assert_eq!(c.command("HEALTH"), "+HEALTH ok 0 8");
        // The test holds the version's lock: the worker blocks on the
        // first shard and the other six stay queued.
        let gate = server.shared.store.state("v", params);
        let held = lock(&gate);
        assert!(c.send_shard("v", &files[0]).starts_with("+OK"));
        wait_for(&server, "the worker to take shard 0", |s| {
            load(&s.queue_depth) == 0
        });
        for f in &files[1..3] {
            assert!(c.send_shard("v", f).starts_with("+OK"));
        }
        // Under pressure: QUERY is shed with -RETRY, SHARD still ingests,
        // HEALTH tells the truth.
        assert_eq!(c.command("HEALTH"), "+HEALTH degraded 2 8");
        let q = c.command("QUERY v function-affinity");
        assert!(q.starts_with("-RETRY "), "expected shed, got {}", q);
        for f in &files[3..] {
            assert!(c.send_shard("v", f).starts_with("+OK"));
        }
        assert_eq!(load(&server.stats().shed_queries), 1);
        assert_eq!(load(&server.stats().degraded_entered), 1);
        // After the drain, the tier recovers and queries flow again.
        drop(held);
        assert!(c.command("SYNC").starts_with("+SYNCED"));
        assert_eq!(c.command("HEALTH"), "+HEALTH ok 0 8");
        assert_eq!(
            c.query("v", "function-affinity"),
            batch_order(&t, "function-affinity", &params)
        );
        assert_eq!(c.stat("degraded"), 0);
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
    }

    #[test]
    fn durable_ack_checkpoints_before_answering() {
        let params = AnalysisParams::default();
        let ckpt = std::env::temp_dir().join(format!("clop-serve-durable-{}", std::process::id()));
        let _ = fs::remove_dir_all(&ckpt);
        let config = ServeConfig {
            params,
            durable_ack: true,
            checkpoint_dir: Some(ckpt.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(32, 600, 10);
        let files = split_shards_columnar(&t, 3, params.affinity.w_max, params.trg.window);
        let mut c = Client::connect(server.addr());
        for f in &files {
            assert!(c.send_shard("dv", f).starts_with("+OK"));
            // The ack IS the durability promise: the marked checkpoint on
            // disk already contains this shard.
            let bytes = fs::read(checkpoint::state_path(&ckpt, "dv")).unwrap();
            assert!(ckpt.join("dv.done").exists());
            clop_core::incremental::VersionState::from_bytes(&bytes).unwrap();
        }
        let on_disk = clop_core::incremental::VersionState::from_bytes(
            &fs::read(checkpoint::state_path(&ckpt, "dv")).unwrap(),
        )
        .unwrap();
        assert_eq!(on_disk.shards_absorbed(), files.len() as u64);
        // Duplicate resend is still +OK (idempotent) without a new fold.
        assert!(c.send_shard("dv", &files[0]).starts_with("+OK"));
        assert_eq!(server.stats().duplicates.load(Ordering::Relaxed), 1);
        assert_eq!(
            server.stats().folded.load(Ordering::Relaxed),
            files.len() as u64
        );
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
        fs::remove_dir_all(&ckpt).unwrap();
    }

    #[test]
    fn gc_evicts_lru_versions_but_never_the_active_one() {
        let params = AnalysisParams::default();
        let ckpt = std::env::temp_dir().join(format!("clop-serve-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&ckpt);
        let config = ServeConfig {
            params,
            workers: 1,
            max_versions: 2,
            checkpoint_dir: Some(ckpt.clone()),
            checkpoint_every: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(33, 500, 9);
        let files = split_shards_columnar(&t, 2, params.affinity.w_max, params.trg.window);
        let mut c = Client::connect(server.addr());
        for version in ["va", "vb", "vc"] {
            for f in &files {
                assert!(c.send_shard_retrying(version, f).starts_with("+OK"));
            }
            assert!(c.command("SYNC").starts_with("+SYNCED"));
        }
        // va was least recently ingested: evicted from memory and disk.
        assert_eq!(server.stats().evicted_versions.load(Ordering::Relaxed), 1);
        assert!(server.stats().evicted_bytes.load(Ordering::Relaxed) > 0);
        assert!(!checkpoint::state_path(&ckpt, "va").exists());
        assert_eq!(c.command("EPOCH va"), "+EPOCH 0 0");
        // The survivors — including the active version — keep answering.
        assert!(checkpoint::state_path(&ckpt, "vc").exists());
        for version in ["vb", "vc"] {
            assert_eq!(
                c.query(version, "function-affinity"),
                batch_order(&t, "function-affinity", &params),
                "{}",
                version
            );
        }
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
        // Neither EPOCH nor the shutdown checkpoint brought va back.
        assert!(!checkpoint::state_path(&ckpt, "va").exists());
        fs::remove_dir_all(&ckpt).unwrap();
    }

    #[test]
    fn reads_of_an_unstreamed_version_leave_no_state() {
        let params = AnalysisParams::default();
        let ckpt = std::env::temp_dir().join(format!("clop-serve-ghost-{}", std::process::id()));
        let _ = fs::remove_dir_all(&ckpt);
        let server = Server::start(ServeConfig {
            params,
            checkpoint_dir: Some(ckpt.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let t = random_trace(39, 300, 7);
        let files = split_shards_columnar(&t, 1, params.affinity.w_max, params.trg.window);
        let mut c = Client::connect(server.addr());
        assert!(c.send_shard_retrying("real", &files[0]).starts_with("+OK"));
        assert!(c.command("SYNC").starts_with("+SYNCED"));
        // The answers of an empty fold.
        assert_eq!(c.command("EPOCH ghost"), "+EPOCH 0 0");
        assert_eq!(c.query("ghost", "function-affinity"), Vec::<u32>::new());
        assert_eq!(server.shared.store.versions(), vec!["real".to_string()]);
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
        let mut names: Vec<String> = fs::read_dir(&ckpt)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["real.done", "real.state"]);
        fs::remove_dir_all(&ckpt).unwrap();
    }

    #[test]
    fn sync_answers_after_checkpoint_and_gc() {
        // Each SYNC drains the queue before the next shard is sent, so
        // every batch holds one shard and, at `checkpoint_every: 1`, every
        // fold takes one checkpoint. `+SYNCED` must find it on disk, and
        // the version two ingests back already evicted.
        let params = AnalysisParams::default();
        let ckpt = std::env::temp_dir().join(format!("clop-serve-sync-{}", std::process::id()));
        let _ = fs::remove_dir_all(&ckpt);
        let config = ServeConfig {
            params,
            workers: 2,
            max_versions: 2,
            checkpoint_dir: Some(ckpt.clone()),
            checkpoint_every: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(35, 300, 9);
        let files = split_shards_columnar(&t, 2, params.affinity.w_max, params.trg.window);
        let versions: Vec<String> = (0..6).map(|i| format!("s{}", i)).collect();
        let mut c = Client::connect(server.addr());
        let mut folds = 0u64;
        for (i, version) in versions.iter().enumerate() {
            for f in &files {
                assert!(c.send_shard_retrying(version, f).starts_with("+OK"));
                assert!(c.command("SYNC").starts_with("+SYNCED"));
                folds += 1;
                let stats = server.stats();
                assert!(
                    checkpoint::state_path(&ckpt, version).exists(),
                    "{} synced without its checkpoint",
                    version
                );
                assert_eq!(
                    stats.checkpoints.load(Ordering::Relaxed),
                    folds,
                    "{}",
                    version
                );
                assert_eq!(
                    stats.evicted_versions.load(Ordering::Relaxed),
                    i.saturating_sub(1) as u64,
                    "{}",
                    version
                );
                if i >= 2 {
                    assert!(!checkpoint::state_path(&ckpt, &versions[i - 2]).exists());
                }
            }
        }
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
        fs::remove_dir_all(&ckpt).unwrap();
    }

    #[test]
    fn byte_bound_gc_keeps_total_state_under_the_cap() {
        let params = AnalysisParams::default();
        let config = ServeConfig {
            params,
            workers: 1,
            max_state_bytes: 1, // any second version exceeds the bound
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(34, 400, 8);
        let files = split_shards_columnar(&t, 2, params.affinity.w_max, params.trg.window);
        let mut c = Client::connect(server.addr());
        for version in ["w1", "w2", "w3"] {
            for f in &files {
                assert!(c.send_shard_retrying(version, f).starts_with("+OK"));
            }
            assert!(c.command("SYNC").starts_with("+SYNCED"));
        }
        // Everything but the active version is evicted (bound of 1 byte),
        // and the active version still answers correctly.
        assert_eq!(server.stats().evicted_versions.load(Ordering::Relaxed), 2);
        assert_eq!(
            c.query("w3", "function-affinity"),
            batch_order(&t, "function-affinity", &params)
        );
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
    }

    #[test]
    fn sync_timeout_is_configurable_and_reports_failure() {
        let params = AnalysisParams::default();
        let config = ServeConfig {
            params,
            workers: 1,
            batch_max: 1,
            sync_timeout_ms: 50,
            ..ServeConfig::default()
        };
        let server = Server::start(config).unwrap();
        let t = random_trace(35, 300, 7);
        let files = split_shards_columnar(&t, 1, params.affinity.w_max, params.trg.window);
        let mut c = Client::connect(server.addr());
        // The test holds the version's lock, so the fold cannot settle
        // within SYNC's 50ms budget.
        let gate = server.shared.store.state("v", params);
        let held = lock(&gate);
        assert!(c.send_shard("v", &files[0]).starts_with("+OK"));
        assert_eq!(c.command("SYNC"), "-ERR sync timed out");
        drop(held);
        wait_for(&server, "the fold to settle", |s| s.settled() == 1);
        assert_eq!(c.command("SYNC"), "+SYNCED 1");
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
    }

    #[test]
    fn oversized_and_malformed_lines_are_counted_and_answered() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr());
        assert_eq!(c.command("BOGUS verb"), "-ERR unknown command");
        assert_eq!(c.command("SHARD v notanumber"), "-ERR bad shard length");
        // That response closes the connection (framing lost); reconnect.
        let mut c = Client::connect(server.addr());
        let long = format!("PING {}", "x".repeat(4096));
        assert_eq!(c.command(&long), "-ERR line too long");
        let mut c = Client::connect(server.addr());
        assert_eq!(c.command("PING"), "+PONG");
        assert!(server.stats().malformed_lines.load(Ordering::Relaxed) >= 3);
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();
    }

    #[test]
    fn resume_quarantines_torn_checkpoint_and_serves_fallback() {
        let params = AnalysisParams::default();
        let ckpt = std::env::temp_dir().join(format!("clop-serve-resq-{}", std::process::id()));
        let _ = fs::remove_dir_all(&ckpt);
        let config = ServeConfig {
            params,
            workers: 1,
            checkpoint_dir: Some(ckpt.clone()),
            checkpoint_every: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(config.clone()).unwrap();
        let t = random_trace(36, 700, 11);
        let files = split_shards_columnar(&t, 4, params.affinity.w_max, params.trg.window);
        let mut c = Client::connect(server.addr());
        for f in &files {
            assert!(c.send_shard_retrying("rv", f).starts_with("+OK"));
        }
        assert!(c.command("SYNC").starts_with("+SYNCED"));
        assert_eq!(c.command("STOP"), "+BYE");
        server.join();

        // Tear the newest checkpoint; the rotated .prev must still serve.
        let state = checkpoint::state_path(&ckpt, "rv");
        let bytes = fs::read(&state).unwrap();
        fs::write(&state, &bytes[..bytes.len() / 3]).unwrap();
        let server2 = Server::start(config).unwrap();
        assert_eq!(
            server2.stats().resume_quarantined.load(Ordering::Relaxed),
            1
        );
        assert_eq!(server2.stats().resume_fallbacks.load(Ordering::Relaxed), 1);
        let mut c2 = Client::connect(server2.addr());
        // Re-stream everything (idempotent); the fold converges to batch.
        for f in &files {
            assert!(c2.send_shard_retrying("rv", f).starts_with("+OK"));
        }
        assert!(c2.command("SYNC").starts_with("+SYNCED"));
        assert_eq!(
            c2.query("rv", "function-affinity"),
            batch_order(&t, "function-affinity", &params)
        );
        assert_eq!(c2.command("STOP"), "+BYE");
        server2.join();
        fs::remove_dir_all(&ckpt).unwrap();
    }
}
