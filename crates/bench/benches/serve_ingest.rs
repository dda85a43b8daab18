//! Fault-free ingest overhead of the clop-serve session layer.
//!
//! Two clients stream the same shard set to the same in-process daemon:
//! a *raw* client (bare socket, no retry machinery) and the retrying
//! [`clop_serve::session::Session`]. On a clean localhost link the
//! session's deadlines/backoff/resend apparatus is pure bookkeeping, so
//! its per-shard cost must track the raw client's — `ci/bench_gate.sh`
//! guards `serve/ingest/session <= 1.05x serve/ingest/raw` from the same
//! runs (machine-independent). After the first pass every shard is a
//! dedup hit, so the measurement isolates the protocol round-trip path
//! rather than fold CPU.

use clop_core::incremental::AnalysisParams;
use clop_serve::session::{Session, SessionConfig};
use clop_serve::{ServeConfig, Server};
use clop_trace::{split_shards_columnar, TrimmedTrace};
use clop_util::bench::{quick, Runner};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn random_trace(seed: u64, len: usize, blocks: u32) -> TrimmedTrace {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    TrimmedTrace::from_indices((0..len).map(|_| (next() % u64::from(blocks)) as u32))
}

fn main() {
    let r = Runner::from_args();
    let params = AnalysisParams::default();
    let server = Server::start(ServeConfig {
        params,
        queue_cap: 256,
        ..ServeConfig::default()
    })
    .expect("start daemon");
    let addr = server.addr();

    let events = if quick() { 20_000 } else { 120_000 };
    let t = random_trace(97, events, 300);
    let files = split_shards_columnar(&t, 8, params.affinity.w_max, params.trg.window);
    let nshards = files.len() as u64;

    // Pre-fold both versions and drain, so every *timed* send is a dedup
    // hit: the real fold work would otherwise back the queue up into
    // -RETRY answers and the measurement would mix fold CPU into what
    // should be a pure protocol-path comparison.
    {
        let mut warm = Session::new(addr, SessionConfig::default()).expect("warmup session");
        for version in ["bench-raw", "bench-sess"] {
            for f in &files {
                warm.send_shard(version, f).expect("warmup ingest");
            }
        }
        warm.sync().expect("warmup sync");
    }

    // Raw client: one persistent connection, hand-rolled frames, no
    // deadlines, no retry, no reconnect — the floor the session must hug.
    {
        let stream = TcpStream::connect(addr).expect("connect raw");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut out = stream;
        let files = files.clone();
        r.bench_with_elements("serve/ingest/raw", Some(nshards), move || {
            let mut acked = 0u64;
            for f in &files {
                out.write_all(format!("SHARD bench-raw {}\n", f.len()).as_bytes())
                    .expect("send header");
                out.write_all(f).expect("send payload");
                let mut line = String::new();
                reader.read_line(&mut line).expect("read ack");
                assert!(line.starts_with("+OK"), "raw ingest rejected: {}", line);
                acked += 1;
            }
            acked
        });
    }

    // Session client: same frames, same daemon, through the full retry
    // layer (which, fault-free, should never actually retry).
    {
        let mut session = Session::new(addr, SessionConfig::default()).expect("session");
        let files = files.clone();
        r.bench_with_elements("serve/ingest/session", Some(nshards), move || {
            let mut acked = 0u64;
            for f in &files {
                session.send_shard("bench-sess", f).expect("session ingest");
                acked += 1;
            }
            assert_eq!(session.retries(), 0, "fault-free ingest must not retry");
            acked
        });
    }

    let mut session = Session::new(addr, SessionConfig::default()).expect("session");
    session.command("STOP").expect("stop daemon");
    server.join();
}
