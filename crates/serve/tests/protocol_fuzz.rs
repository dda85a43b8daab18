//! Protocol fuzz suite: a hostile peer may mangle command lines, tear
//! frames mid-payload, or stall — the daemon must answer `-ERR`/`-RETRY`
//! or disconnect cleanly, and must never panic, wedge a handler, or stop
//! serving well-behaved clients. Every round ends with a fresh `PING`
//! proving the daemon is still alive.

use clop_serve::{ServeConfig, Server};
use clop_util::fault::{corrupt_text, seeded_corruptions};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn start_server() -> Server {
    start_with(ServeConfig::default())
}

fn start_with(config: ServeConfig) -> Server {
    Server::start(ServeConfig {
        // Short connection deadlines so stall tests finish quickly.
        conn_read_timeout_ms: 400,
        conn_write_timeout_ms: 400,
        ..config
    })
    .unwrap()
}

/// The daemon configurations the SHARD-frame cases run against: acks at
/// enqueue, and durable acks that a fold worker answers after a
/// checkpoint into a temporary directory (returned for clean-up).
fn shard_frame_daemons(tag: &str) -> Vec<(Server, Option<PathBuf>)> {
    let dir = std::env::temp_dir().join(format!("clop-fuzz-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = ServeConfig {
        durable_ack: true,
        checkpoint_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    vec![(start_server(), None), (start_with(durable), Some(dir))]
}

fn stop(server: Server, checkpoint_dir: Option<PathBuf>) {
    let mut c = connect(server.addr());
    c.write_all(b"STOP\n").unwrap();
    server.join();
    if let Some(dir) = checkpoint_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One clean SHARD on a fresh connection must still be acknowledged — in
/// durable mode by the fold worker, after a checkpoint.
fn assert_acks_a_clean_shard(addr: SocketAddr) {
    let t = clop_trace::TrimmedTrace::from_indices((0..300u32).map(|i| i * 5 % 11));
    let params = clop_core::incremental::AnalysisParams::default();
    let files = clop_trace::split_shards_columnar(&t, 1, params.affinity.w_max, params.trg.window);
    let s = connect(addr);
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut out = s;
    out.write_all(format!("SHARD v {}\n", files[0].len()).as_bytes())
        .unwrap();
    out.write_all(&files[0]).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("+OK "), "clean shard answered {:?}", line);
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    // The daemon must answer (or hang up) well before this; a fuzz case
    // that trips it times out here instead of hanging the suite.
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Send raw bytes on a fresh connection; return the first response line,
/// or `None` on a clean disconnect. Panics on a hang (read timeout).
fn probe(addr: SocketAddr, payload: &[u8]) -> Option<String> {
    let s = connect(addr);
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut out = s;
    // The daemon may hang up mid-send (e.g. on an over-long line); that
    // counts as a clean disconnect, not a failure.
    if out.write_all(payload).is_err() {
        return None;
    }
    let _ = out.flush();
    // Half-close so an un-terminated final line is still delivered
    // (the daemon treats EOF with a dangling line as a last command).
    let _ = out.shutdown(std::net::Shutdown::Write);
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim_end().to_string()),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
        Err(e) => panic!("daemon neither answered nor hung up: {}", e),
    }
}

fn assert_alive(addr: SocketAddr) {
    let s = connect(addr);
    let mut reader = BufReader::new(s.try_clone().unwrap());
    let mut out = s;
    out.write_all(b"PING\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "+PONG", "daemon died under fuzz");
}

#[test]
fn mangled_command_lines_answer_err_or_disconnect_never_hang() {
    let server = start_server();
    let addr = server.addr();
    let templates = [
        "PING",
        "HEALTH",
        "SHARD app-v1 128",
        "QUERY app-v1 function-affinity",
        "EPOCH app-v1",
        "STATS",
        "SYNC",
    ];
    let mut probed = 0u32;
    for (ti, template) in templates.iter().enumerate() {
        for (desc, mangled) in corrupt_text(0xF022_5EED ^ ti as u64, template, 40) {
            // Frame the mangled line; some corruptions delete the text
            // entirely, which is just an empty command (ignored).
            let payload = format!("{}\n", mangled);
            if let Some(resp) = probe(addr, payload.as_bytes()) {
                assert!(
                    resp.starts_with('+') || resp.starts_with('-'),
                    "non-protocol response {:?} to {} ({})",
                    resp,
                    desc,
                    template
                );
            }
            probed += 1;
        }
        assert_alive(addr);
    }
    assert!(probed > 200);
    // STOP is excluded from the fuzz templates (a surviving verb token
    // would shut the daemon down mid-suite); fuzz its mangled forms here
    // where only non-STOP survivors probe the parser.
    for (_, mangled) in corrupt_text(0x57CF, "STOPX", 30) {
        if mangled.trim_start().starts_with("STOP ") || mangled.trim() == "STOP" {
            continue;
        }
        let _ = probe(addr, format!("{}\n", mangled).as_bytes());
    }
    assert_alive(addr);
    let mut c = connect(addr);
    c.write_all(b"STOP\n").unwrap();
    server.join();
}

#[test]
fn truncated_and_oversized_shard_frames_are_survivable() {
    for (server, checkpoint_dir) in shard_frame_daemons("frames") {
        hostile_shard_frames(server.addr());
        assert_acks_a_clean_shard(server.addr());
        stop(server, checkpoint_dir);
    }
}

/// Torn, stalled, oversized and unterminated SHARD frames: each answers
/// `-ERR` or disconnects, and the daemon keeps answering `PING`.
fn hostile_shard_frames(addr: SocketAddr) {
    // Truncated payload then clean close: the daemon's read_exact fails,
    // the connection dies, nothing else is harmed.
    {
        let s = connect(addr);
        let mut out = s.try_clone().unwrap();
        out.write_all(b"SHARD v 4096\n").unwrap();
        out.write_all(&[0u8; 64]).unwrap();
        drop(out);
        drop(s);
    }
    assert_alive(addr);

    // Truncated payload then stall: the per-connection read deadline
    // (400ms here) reaps the handler instead of wedging it forever.
    {
        let s = connect(addr);
        let mut out = s.try_clone().unwrap();
        out.write_all(b"SHARD v 4096\n").unwrap();
        out.write_all(&[0u8; 64]).unwrap();
        let mut reader = BufReader::new(s);
        let mut buf = String::new();
        // The daemon hangs up after its deadline; we must observe EOF
        // (or a reset), not our own 10s probe timeout.
        match reader.read_line(&mut buf) {
            Ok(0) => {}
            Ok(_) => panic!("daemon answered a half-frame: {:?}", buf),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("handler wedged on a stalled frame: {}", e),
        }
    }
    assert_alive(addr);

    // Oversized declared length: rejected before any allocation.
    let resp = probe(addr, b"SHARD v 68719476736\n").unwrap();
    assert_eq!(resp, "-ERR shard too large");

    // Non-numeric length, negative length.
    assert_eq!(
        probe(addr, b"SHARD v many\n").unwrap(),
        "-ERR bad shard length"
    );
    assert_eq!(
        probe(addr, b"SHARD v -5\n").unwrap(),
        "-ERR bad shard length"
    );

    // A line with no newline at all (EOF-terminated) still parses.
    assert_eq!(probe(addr, b"PING").unwrap(), "+PONG");

    // An endless newline-less byte spray is cut off at the line cap
    // without unbounded buffering.
    let spray = vec![b'A'; 1 << 16];
    if let Some(resp) = probe(addr, &spray) {
        assert_eq!(resp, "-ERR line too long");
    }
    assert_alive(addr);
}

#[test]
fn corrupted_shard_payloads_never_panic_the_daemon() {
    let server = start_server();
    let addr = server.addr();
    // A well-formed SHARD header whose payload bytes are seeded
    // corruptions of a valid shard: every outcome must be a protocol
    // answer (+OK for salvageable, -ERR otherwise) on an intact stream.
    let t = clop_trace::TrimmedTrace::from_indices((0..600u32).map(|i| i * 7 % 13));
    let params = clop_core::incremental::AnalysisParams::default();
    let files = clop_trace::split_shards_columnar(&t, 2, params.affinity.w_max, params.trg.window);
    for c in seeded_corruptions(0xC0DE, &files[0], 60) {
        let mut frame = format!("SHARD v {}\n", c.data.len()).into_bytes();
        frame.extend_from_slice(&c.data);
        frame.extend_from_slice(b"PING\n");
        let s = connect(addr);
        let mut reader = BufReader::new(s.try_clone().unwrap());
        let mut out = s;
        if out.write_all(&frame).is_err() {
            continue;
        }
        let mut first = String::new();
        if reader.read_line(&mut first).map(|n| n == 0).unwrap_or(true) {
            continue; // daemon hung up; fine
        }
        let first = first.trim_end();
        assert!(
            first.starts_with("+OK") || first.starts_with("-ERR") || first.starts_with("-RETRY"),
            "unexpected answer {:?} ({})",
            first,
            c.description
        );
        // The framing survived: the trailing PING on the same connection
        // answers, proving byte-exact payload consumption.
        let mut second = String::new();
        if reader
            .read_line(&mut second)
            .map(|n| n > 0)
            .unwrap_or(false)
        {
            assert_eq!(second.trim_end(), "+PONG", "{}", c.description);
        }
    }
    assert_alive(addr);
    let mut c = connect(addr);
    c.write_all(b"STOP\n").unwrap();
    server.join();
}
