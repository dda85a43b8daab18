//! Chaos integration: stream a sharded trace through the seeded
//! fault-injecting proxy with the retrying session layer, and require
//! byte-identical convergence with the batch pipeline under every fault
//! schedule. The network may lose throughput; it must never lose
//! correctness.

use clop_core::build_pipeline;
use clop_core::incremental::AnalysisParams;
use clop_serve::chaos::ChaosProxy;
use clop_serve::session::{Session, SessionConfig};
use clop_serve::{ServeConfig, Server};
use clop_trace::{split_shards_columnar, TrimmedTrace};
use clop_util::faultnet::FaultSpec;

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

/// Session tuned for fast tests: tight deadlines, generous attempts
/// (chaotic schedules can kill several consecutive connections).
fn chaos_session(addr: std::net::SocketAddr, seed: u64) -> Session {
    Session::new(
        addr,
        SessionConfig {
            connect_timeout_ms: 2_000,
            op_timeout_ms: 2_000,
            max_attempts: 30,
            backoff_base_ms: 1,
            backoff_cap_ms: 20,
            jitter_seed: seed,
            ..SessionConfig::default()
        },
    )
    .unwrap()
}

/// Core soak: stream every shard through a faulty proxy, then verify
/// (directly against the daemon — the check must not itself be flaky)
/// that the fold equals the batch golden.
fn stream_through_chaos(spec: FaultSpec, proxy_seed: u64) -> (u64, u64) {
    let params = AnalysisParams::default();
    let server = Server::start(ServeConfig {
        params,
        ..ServeConfig::default()
    })
    .unwrap();
    let proxy = ChaosProxy::start(server.addr(), proxy_seed, spec).unwrap();

    let t = random_trace(proxy_seed | 1, 1500, 17);
    let files = split_shards_columnar(&t, 8, params.affinity.w_max, params.trg.window);
    let mut faulty = chaos_session(proxy.addr(), proxy_seed ^ 0xA5);
    for f in &files {
        faulty.send_shard("cv", f).unwrap();
    }
    let work = (faulty.retries(), faulty.backpressure_waits());

    let mut direct = chaos_session(server.addr(), 0);
    direct.sync().unwrap();
    for pipeline in ["function-affinity", "function-trg"] {
        assert_eq!(
            direct.query("cv", pipeline).unwrap(),
            batch_order(&t, pipeline, &params),
            "fold diverged from batch under chaos ({})",
            pipeline
        );
    }
    direct.command("STOP").unwrap();
    proxy.stop();
    server.join();
    work
}

#[test]
fn quiet_proxy_streams_without_retries() {
    let (retries, waits) = stream_through_chaos(FaultSpec::default(), 11);
    assert_eq!(retries, 0, "a quiet proxy must not force retries");
    assert_eq!(waits, 0);
}

#[test]
fn disconnect_heavy_schedule_converges() {
    let spec = FaultSpec::parse("disc=0.08,delay=0.05:3").unwrap();
    stream_through_chaos(spec, 22);
}

#[test]
fn short_read_and_torn_write_schedule_converges() {
    let spec = FaultSpec::parse("short=0.5,disc=0.03").unwrap();
    stream_through_chaos(spec, 33);
}

#[test]
fn fully_chaotic_schedule_converges() {
    // chaotic() includes duplicate delivery, which corrupts frames
    // mid-stream: the session's wire-corruption resend path must absorb
    // the resulting -ERR decode answers too.
    stream_through_chaos(FaultSpec::chaotic(), 44);
}

// Replayability of the fault *decisions* from a seed is pinned by
// clop_util::faultnet's unit tests; at the proxy level TCP chunk
// boundaries vary run to run, so these tests assert the invariant that
// must hold under every schedule — byte-identical convergence — rather
// than a specific retry count.
