//! The `clop-serve` binary: the daemon plus the client-side subcommands
//! used by `ci/serve_smoke.sh` and `ci/chaos_smoke.sh`.
//!
//! ```text
//! clop-serve serve                          run the daemon (CLOP_SERVE_* env)
//! clop-serve gen <out.cltc> <len> <blocks> <seed>
//! clop-serve split <in.cltc> <outdir>       write shard-NNNN.clsh files
//! clop-serve batch-order <in.cltc> <pipeline>
//! clop-serve send <addr> <version> <file...>
//! clop-serve query <addr> <version> <pipeline>
//! clop-serve sync|stats|stop|health <addr>
//! clop-serve epoch <addr> <version>
//! clop-serve chaos-proxy <addr> <seed> <schedule> [port-file]
//! ```
//!
//! `<addr>` is `host:port`, or a path to the port file the daemon wrote
//! (`CLOP_SERVE_PORT_FILE`). `gen`/`split`/`batch-order` read the same
//! `CLOP_SERVE_W_MAX`/`TRG_WINDOW`/... variables as the daemon so the
//! client-side artifacts and the served fold agree on parameters.
//!
//! Every networked subcommand runs through the retrying [`Session`]
//! layer (`clop_serve::session`): per-operation deadlines, capped
//! exponential backoff with deterministic jitter
//! (`CLOP_SERVE_JITTER_SEED`), `-RETRY` honoring, and idempotent resend
//! across reconnects — so the CLI survives the faults that
//! `chaos-proxy` injects.
//!
//! `chaos-proxy` interposes a seeded fault-injecting proxy in front of a
//! running daemon: `<schedule>` is `quiet`, `chaotic`, or a
//! `delay=<p>:<max_ms>,short=<p>,dup=<p>,disc=<p>` spec
//! (`clop_util::faultnet::FaultSpec::parse`). The optional `[port-file]`
//! receives the proxy's own `host:port`, mirroring the daemon's
//! `CLOP_SERVE_PORT_FILE` handshake.

use clop_serve::chaos::ChaosProxy;
use clop_serve::config::Vars;
use clop_serve::session::{Session, SessionConfig};
use clop_serve::{ServeConfig, Server};
use clop_trace::{read_trace, split_shards_columnar, write_trace, Trace, TrimmedTrace};
use clop_util::faultnet::FaultSpec;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    if let Err(msg) = run(&strs) {
        eprintln!("clop-serve: {}", msg);
        std::process::exit(1);
    }
}

fn run(args: &[&str]) -> Result<(), String> {
    match args {
        ["serve"] => cmd_serve(),
        ["gen", out, len, blocks, seed] => cmd_gen(out, len, blocks, seed),
        ["split", input, outdir] => cmd_split(input, outdir),
        ["batch-order", input, pipeline] => cmd_batch_order(input, pipeline),
        ["send", addr, version, files @ ..] if !files.is_empty() => cmd_send(addr, version, files),
        ["query", addr, version, pipeline] => cmd_query(addr, version, pipeline),
        ["sync", addr] => cmd_simple(addr, "SYNC", "+SYNCED"),
        ["stats", addr] => cmd_stats(addr),
        ["stop", addr] => cmd_simple(addr, "STOP", "+"),
        ["health", addr] => cmd_health(addr),
        ["epoch", addr, version] => cmd_simple(addr, &format!("EPOCH {}", version), "+EPOCH "),
        ["chaos-proxy", addr, seed, schedule] => cmd_chaos_proxy(addr, seed, schedule, None),
        ["chaos-proxy", addr, seed, schedule, port_file] => {
            cmd_chaos_proxy(addr, seed, schedule, Some(port_file))
        }
        _ => Err(concat!(
            "usage: clop-serve serve | gen <out> <len> <blocks> <seed> | ",
            "split <in> <outdir> | batch-order <in> <pipeline> | ",
            "send <addr> <version> <file...> | query <addr> <version> <pipeline> | ",
            "sync|stats|stop|health <addr> | epoch <addr> <version> | ",
            "chaos-proxy <addr> <seed> <schedule> [port-file]"
        )
        .to_string()),
    }
}

fn cmd_serve() -> Result<(), String> {
    let config = ServeConfig::from_env(&Vars::env()).map_err(|e| e.to_string())?;
    let server = Server::start(config).map_err(|e| e.to_string())?;
    println!("listening on {}", server.addr());
    server.join();
    Ok(())
}

fn cmd_gen(out: &str, len: &str, blocks: &str, seed: &str) -> Result<(), String> {
    let len: usize = len.parse().map_err(|_| "bad length".to_string())?;
    let blocks: u64 = blocks.parse().map_err(|_| "bad block count".to_string())?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed".to_string())?;
    if blocks == 0 {
        return Err("block count must be positive".to_string());
    }
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let trace = Trace::from_indices((0..len).map(|_| (next() % blocks) as u32));
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).map_err(|e| e.to_string())?;
    clop_util::atomic_write(Path::new(out), &buf).map_err(|e| e.to_string())?;
    println!("wrote {} events to {}", trace.len(), out);
    Ok(())
}

fn load_trimmed(input: &str) -> Result<TrimmedTrace, String> {
    let bytes = std::fs::read(input).map_err(|e| format!("read {}: {}", input, e))?;
    Ok(read_trace(&mut bytes.as_slice())
        .map_err(|e| e.to_string())?
        .trim())
}

fn cmd_split(input: &str, outdir: &str) -> Result<(), String> {
    let config = ServeConfig::from_env(&Vars::env()).map_err(|e| e.to_string())?;
    let pieces = Vars::env()
        .get("CLOP_SERVE_SPLIT_PIECES", 8, 1..)
        .map_err(|e| e.to_string())?;
    let trimmed = load_trimmed(input)?;
    let files = split_shards_columnar(
        &trimmed,
        pieces,
        config.params.affinity.w_max,
        config.params.trg.window,
    );
    std::fs::create_dir_all(outdir).map_err(|e| e.to_string())?;
    for (i, bytes) in files.iter().enumerate() {
        let path = Path::new(outdir).join(format!("shard-{:04}.clsh", i));
        clop_util::atomic_write(&path, bytes).map_err(|e| e.to_string())?;
    }
    println!("wrote {} shards to {}", files.len(), outdir);
    Ok(())
}

fn cmd_batch_order(input: &str, pipeline: &str) -> Result<(), String> {
    let config = ServeConfig::from_env(&Vars::env()).map_err(|e| e.to_string())?;
    let trimmed = load_trimmed(input)?;
    let pp = config.params.pipeline_params();
    let pipe = clop_core::build_pipeline(pipeline, &pp)
        .ok_or_else(|| clop_core::OptError::UnknownPipeline(pipeline.to_string()).to_string())?;
    let mut out = String::new();
    for id in pipe.model.sequence(&trimmed) {
        out.push_str(&id.0.to_string());
        out.push('\n');
    }
    print!("{}", out);
    Ok(())
}

/// `host:port`, or a path to a file containing one.
fn resolve_addr(addr: &str) -> Result<String, String> {
    if addr.contains(':') && !Path::new(addr).exists() {
        return Ok(addr.to_string());
    }
    let contents =
        std::fs::read_to_string(addr).map_err(|e| format!("read address file {}: {}", addr, e))?;
    let trimmed = contents.trim();
    if trimmed.is_empty() {
        return Err(format!("address file {} is empty", addr));
    }
    Ok(trimmed.to_string())
}

/// A retrying session to `addr`, configured from the environment
/// (including `-RETRY` honoring bounded by `CLOP_SERVE_RETRY_BUDGET_MS`).
fn open_session(addr: &str) -> Result<Session, String> {
    let resolved = resolve_addr(addr)?;
    let cfg = SessionConfig::from_env(&Vars::env()).map_err(|e| e.to_string())?;
    Session::new(resolved.as_str(), cfg).map_err(|e| format!("resolve {}: {}", resolved, e))
}

fn cmd_send(addr: &str, version: &str, files: &[&str]) -> Result<(), String> {
    let mut session = open_session(addr)?;
    let mut sent = 0usize;
    for file in files {
        let bytes = std::fs::read(file).map_err(|e| format!("read {}: {}", file, e))?;
        session
            .send_shard(version, &bytes)
            .map_err(|e| format!("{}: {}", file, e))?;
        sent += 1;
    }
    eprintln!(
        "sent {} shards for version {} ({} transport retries, {} backpressure waits)",
        sent,
        version,
        session.retries(),
        session.backpressure_waits()
    );
    Ok(())
}

fn cmd_query(addr: &str, version: &str, pipeline: &str) -> Result<(), String> {
    let mut session = open_session(addr)?;
    let order = session
        .query(version, pipeline)
        .map_err(|e| e.to_string())?;
    let mut body = String::with_capacity(order.len() * 4);
    for id in order {
        body.push_str(&id.to_string());
        body.push('\n');
    }
    print!("{}", body);
    Ok(())
}

fn cmd_stats(addr: &str) -> Result<(), String> {
    let mut session = open_session(addr)?;
    for (name, value) in session.stats().map_err(|e| e.to_string())? {
        println!("{} {}", name, value);
    }
    Ok(())
}

fn cmd_health(addr: &str) -> Result<(), String> {
    let mut session = open_session(addr)?;
    let (state, depth, cap) = session.health().map_err(|e| e.to_string())?;
    println!("{} {} {}", state, depth, cap);
    Ok(())
}

fn cmd_simple(addr: &str, cmd: &str, prefix: &str) -> Result<(), String> {
    let mut session = open_session(addr)?;
    let resp = session.command(cmd).map_err(|e| e.to_string())?;
    if resp.starts_with(prefix) {
        println!("{}", resp);
        Ok(())
    } else {
        Err(resp)
    }
}

fn parse_schedule(schedule: &str) -> Result<FaultSpec, String> {
    match schedule {
        "quiet" => Ok(FaultSpec::default()),
        "chaotic" => Ok(FaultSpec::chaotic()),
        custom => FaultSpec::parse(custom),
    }
}

fn cmd_chaos_proxy(
    addr: &str,
    seed: &str,
    schedule: &str,
    port_file: Option<&str>,
) -> Result<(), String> {
    let seed: u64 = seed.parse().map_err(|_| "bad seed".to_string())?;
    let spec = parse_schedule(schedule)?;
    let upstream: SocketAddr = resolve_addr(addr)?
        .parse()
        .map_err(|e| format!("bad upstream address: {}", e))?;
    let proxy = ChaosProxy::start(upstream, seed, spec).map_err(|e| e.to_string())?;
    if let Some(pf) = port_file {
        clop_util::atomic_write(Path::new(pf), format!("{}\n", proxy.addr()).as_bytes())
            .map_err(|e| e.to_string())?;
    }
    println!("proxying {} -> {} (seed {})", proxy.addr(), upstream, seed);
    // Run until killed; the soak script owns the process lifetime.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
