//! The client session layer: deadlines, retry, and idempotent resend.
//!
//! A raw protocol connection dies with its socket: a dropped packet, a
//! half-dead daemon, or a `-RETRY` backpressure answer would bubble up to
//! the caller. A [`Session`] owns the connection lifecycle instead:
//!
//! * **Per-operation deadlines** — every socket read and write carries a
//!   timeout (`op_timeout_ms`), so a wedged peer turns into a retryable
//!   error instead of a hang.
//! * **Capped exponential backoff with deterministic jitter** — transport
//!   failures reconnect and retry up to `max_attempts` times, sleeping
//!   `base · 2^attempt` (capped) with seeded jitter, so a thundering herd
//!   decorrelates and a failing test run replays exactly from its seed.
//! * **`-RETRY <ms>` honoring** — backpressure is not a fault: the
//!   session sleeps the server's hint and resends, bounded by a separate
//!   total-wait budget (`retry_budget_ms`) rather than the attempt cap.
//! * **Idempotent resend** — a timeout between request and response is
//!   ambiguous (the shard may or may not have been admitted). The session
//!   resends on any doubt; this is safe because shard absorption is
//!   idempotent per sequence number, and every read-only verb is
//!   naturally idempotent.
//!
//! `-ERR` answers are permanent and never retried: the daemon has seen
//! the full request and rejected it; resending the same bytes cannot
//! succeed.

use clop_util::vars::Vars;
use clop_util::{ClopResult, Rng};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Session knobs; every field has a `CLOP_SERVE_*` environment variable
/// read by [`SessionConfig::from_env`].
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// `CLOP_SERVE_CONNECT_TIMEOUT_MS` — TCP connect deadline (default
    /// 5000).
    pub connect_timeout_ms: u64,
    /// `CLOP_SERVE_OP_TIMEOUT_MS` — per-read/per-write socket deadline
    /// (default 10000).
    pub op_timeout_ms: u64,
    /// `CLOP_SERVE_MAX_ATTEMPTS` — transport-failure retry cap per
    /// operation (default 8).
    pub max_attempts: u32,
    /// `CLOP_SERVE_BACKOFF_BASE_MS` — first backoff delay (default 10).
    pub backoff_base_ms: u64,
    /// `CLOP_SERVE_BACKOFF_CAP_MS` — backoff ceiling (default 1000).
    pub backoff_cap_ms: u64,
    /// `CLOP_SERVE_RETRY_BUDGET_MS` — total time the session will spend
    /// sleeping on `-RETRY` backpressure hints per operation (default
    /// 60000).
    pub retry_budget_ms: u64,
    /// `CLOP_SERVE_JITTER_SEED` — seed of the deterministic backoff
    /// jitter (default 0).
    pub jitter_seed: u64,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            connect_timeout_ms: 5_000,
            op_timeout_ms: 10_000,
            max_attempts: 8,
            backoff_base_ms: 10,
            backoff_cap_ms: 1_000,
            retry_budget_ms: 60_000,
            jitter_seed: 0,
        }
    }
}

impl SessionConfig {
    /// Read the configuration from `CLOP_SERVE_*` variables (pass
    /// [`Vars::env`] for the process environment); a malformed or
    /// out-of-range value is an error naming it.
    pub fn from_env(v: &Vars) -> ClopResult<SessionConfig> {
        let d = SessionConfig::default();
        Ok(SessionConfig {
            connect_timeout_ms: v.get(
                "CLOP_SERVE_CONNECT_TIMEOUT_MS",
                d.connect_timeout_ms,
                1..,
            )?,
            op_timeout_ms: v.get("CLOP_SERVE_OP_TIMEOUT_MS", d.op_timeout_ms, 1..)?,
            max_attempts: v.get("CLOP_SERVE_MAX_ATTEMPTS", d.max_attempts, 1..)?,
            backoff_base_ms: v.get("CLOP_SERVE_BACKOFF_BASE_MS", d.backoff_base_ms, 1..)?,
            backoff_cap_ms: v.get("CLOP_SERVE_BACKOFF_CAP_MS", d.backoff_cap_ms, 1..)?,
            retry_budget_ms: v.get("CLOP_SERVE_RETRY_BUDGET_MS", d.retry_budget_ms, 0..)?,
            jitter_seed: v.get("CLOP_SERVE_JITTER_SEED", d.jitter_seed, 0..)?,
        })
    }
}

/// The backoff delay before retry number `attempt` (0-based): capped
/// exponential with deterministic half-to-full jitter drawn from `rng` —
/// `delay ∈ [cap(base·2^attempt)/2, cap(base·2^attempt)]`.
pub fn backoff_delay(cfg: &SessionConfig, attempt: u32, rng: &mut Rng) -> Duration {
    let exp = cfg
        .backoff_base_ms
        .saturating_mul(1u64 << attempt.min(20))
        .min(cfg.backoff_cap_ms)
        .max(1);
    let lo = (exp / 2).max(1);
    Duration::from_millis(rng.gen_range_u64(lo, exp + 1))
}

/// Why a session operation ultimately failed.
#[derive(Debug)]
pub enum SessionError {
    /// Transport failures exhausted the retry budget.
    Exhausted {
        /// Attempts actually made.
        attempts: u32,
        /// The final transport error.
        last: String,
    },
    /// The server answered `-ERR` (permanent; retrying cannot help).
    Server(String),
    /// The server's answer violated the protocol.
    Protocol(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Exhausted { attempts, last } => {
                write!(f, "transport failed after {} attempts: {}", attempts, last)
            }
            SessionError::Server(reason) => write!(f, "server rejected: {}", reason),
            SessionError::Protocol(detail) => write!(f, "protocol violation: {}", detail),
        }
    }
}

impl std::error::Error for SessionError {}

/// One live connection with deadlines applied.
struct Conn {
    reader: BufReader<TcpStream>,
    out: TcpStream,
}

impl Conn {
    fn open(addr: &SocketAddr, cfg: &SessionConfig) -> std::io::Result<Conn> {
        let stream =
            TcpStream::connect_timeout(addr, Duration::from_millis(cfg.connect_timeout_ms))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(cfg.op_timeout_ms)))?;
        stream.set_write_timeout(Some(Duration::from_millis(cfg.op_timeout_ms)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            out: stream,
        })
    }

    fn send(&mut self, line: &str, payload: Option<&[u8]>) -> std::io::Result<()> {
        self.out.write_all(format!("{}\n", line).as_bytes())?;
        if let Some(bytes) = payload {
            self.out.write_all(bytes)?;
        }
        Ok(())
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }
}

/// A retrying client session against one daemon address.
pub struct Session {
    addr: SocketAddr,
    cfg: SessionConfig,
    conn: Option<Conn>,
    rng: Rng,
    /// Transport retries performed over the session's lifetime.
    retries: u64,
    /// `-RETRY` backpressure answers honored over the session's lifetime.
    backpressure_waits: u64,
}

impl Session {
    /// A session against `addr` (resolved eagerly) with `cfg`. No
    /// connection is made until the first operation.
    pub fn new(addr: impl ToSocketAddrs, cfg: SessionConfig) -> std::io::Result<Session> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })?;
        Ok(Session {
            addr,
            cfg,
            conn: None,
            rng: Rng::seed_from_u64(cfg.jitter_seed),
            retries: 0,
            backpressure_waits: 0,
        })
    }

    /// Transport retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// `-RETRY` backpressure hints honored so far.
    pub fn backpressure_waits(&self) -> u64 {
        self.backpressure_waits
    }

    fn conn(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(&self.addr, &self.cfg)?);
        }
        Ok(self.conn.as_mut().unwrap_or_else(|| unreachable!()))
    }

    /// Run one idempotent request: send `line` (+ optional payload), read
    /// the response head. Reconnects and resends on transport failure,
    /// sleeps on `-RETRY`, returns `-ERR` as [`SessionError::Server`].
    /// After a reconnect-and-resend the head is from the fresh connection,
    /// so any body that follows is in sync either way.
    fn request(&mut self, line: &str, payload: Option<&[u8]>) -> Result<String, SessionError> {
        let mut attempt = 0u32;
        let mut retry_spent_ms = 0u64;
        loop {
            let outcome = (|| -> std::io::Result<String> {
                let conn = self.conn()?;
                conn.send(line, payload)?;
                conn.line()
            })();
            match outcome {
                Ok(resp) => {
                    if let Some(hint) = resp.strip_prefix("-RETRY ") {
                        let ms: u64 = hint.parse().unwrap_or(self.cfg.backoff_base_ms);
                        retry_spent_ms = retry_spent_ms.saturating_add(ms);
                        if retry_spent_ms > self.cfg.retry_budget_ms {
                            return Err(SessionError::Exhausted {
                                attempts: attempt,
                                last: format!(
                                    "backpressure exceeded the {}ms retry budget",
                                    self.cfg.retry_budget_ms
                                ),
                            });
                        }
                        self.backpressure_waits += 1;
                        std::thread::sleep(Duration::from_millis(ms.max(1)));
                        continue;
                    }
                    if let Some(reason) = resp.strip_prefix("-ERR ") {
                        return Err(SessionError::Server(reason.to_string()));
                    }
                    if resp.starts_with('-') {
                        return Err(SessionError::Server(resp));
                    }
                    // A fresh request must start from a drained connection;
                    // the caller consumes any body lines before returning.
                    return Ok(resp);
                }
                Err(e) => {
                    // The connection is in an unknown state (a frame may be
                    // half-sent): drop it and retry from a fresh socket.
                    self.conn = None;
                    attempt += 1;
                    if attempt >= self.cfg.max_attempts {
                        return Err(SessionError::Exhausted {
                            attempts: attempt,
                            last: e.to_string(),
                        });
                    }
                    self.retries += 1;
                    std::thread::sleep(backoff_delay(&self.cfg, attempt - 1, &mut self.rng));
                }
            }
        }
    }

    /// Read `n` body lines after a response head (already under the
    /// connection's read deadline). A failure here drops the connection:
    /// the body cannot be resynchronized mid-stream.
    fn body(&mut self, n: usize) -> Result<Vec<String>, SessionError> {
        let conn = self.conn.as_mut().ok_or_else(|| {
            SessionError::Protocol("response body requested with no connection".to_string())
        })?;
        let mut lines = Vec::with_capacity(n);
        for _ in 0..n {
            match conn.line() {
                Ok(l) => lines.push(l),
                Err(e) => {
                    self.conn = None;
                    return Err(SessionError::Exhausted {
                        attempts: 1,
                        last: format!("response body truncated: {}", e),
                    });
                }
            }
        }
        Ok(lines)
    }

    /// Send one shard (idempotent; resends on any transport doubt).
    /// Returns the shard's sequence number from `+OK <seq>`.
    ///
    /// Rejections that only arise when the *wire* corrupted the frame —
    /// `-ERR decode:`/`salvage:` (payload damaged in flight) and
    /// `unknown command`/`bad shard length`/`line too long` (the header
    /// line itself was mangled) — are retried with backoff up to
    /// `max_attempts`: the caller's local bytes are intact, so a fresh
    /// send of the same good bytes is sound. Every other `-ERR` is a
    /// judgment on the request as sent and stays permanent.
    pub fn send_shard(&mut self, version: &str, bytes: &[u8]) -> Result<u64, SessionError> {
        fn wire_corruption(reason: &str) -> bool {
            reason.starts_with("decode:")
                || reason.starts_with("salvage:")
                || reason.starts_with("unknown command")
                || reason.starts_with("bad shard length")
                || reason.starts_with("line too long")
        }
        let line = format!("SHARD {} {}", version, bytes.len());
        let mut corrupt_attempts = 0u32;
        loop {
            // A garbled `+OK` head is also wire corruption: the send is
            // idempotent, so resending on it is sound too.
            let reason = match self.request(&line, Some(bytes)) {
                Ok(head) => match head.strip_prefix("+OK") {
                    Some(rest) => return Ok(rest.trim().parse::<u64>().unwrap_or(0)),
                    None => format!("garbled response head {:?}", head),
                },
                Err(SessionError::Server(reason)) if wire_corruption(&reason) => reason,
                Err(e) => return Err(e),
            };
            // A corrupted frame may also have desynced the stream; resend
            // from a fresh connection.
            self.conn = None;
            corrupt_attempts += 1;
            if corrupt_attempts >= self.cfg.max_attempts {
                return Err(SessionError::Exhausted {
                    attempts: corrupt_attempts,
                    last: format!("shard rejected repeatedly: {}", reason),
                });
            }
            self.retries += 1;
            std::thread::sleep(backoff_delay(
                &self.cfg,
                corrupt_attempts - 1,
                &mut self.rng,
            ));
        }
    }

    /// `QUERY <version> <pipeline>`: the layout order at the current fold.
    pub fn query(&mut self, version: &str, pipeline: &str) -> Result<Vec<u32>, SessionError> {
        let head = self.request(&format!("QUERY {} {}", version, pipeline), None)?;
        let n: usize = head
            .strip_prefix("+ORDER ")
            .and_then(|rest| rest.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SessionError::Protocol(format!("expected +ORDER, got {:?}", head)))?;
        let lines = self.body(n)?;
        lines
            .iter()
            .map(|l| {
                l.parse::<u32>()
                    .map_err(|_| SessionError::Protocol(format!("non-numeric id line {:?}", l)))
            })
            .collect()
    }

    /// `SYNC`: barrier over the admission queue; returns the settled count.
    pub fn sync(&mut self) -> Result<u64, SessionError> {
        let head = self.request("SYNC", None)?;
        head.strip_prefix("+SYNCED ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SessionError::Protocol(format!("expected +SYNCED, got {:?}", head)))
    }

    /// `STATS`: every daemon counter as `(name, value)` pairs.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, SessionError> {
        let head = self.request("STATS", None)?;
        let k: usize = head
            .strip_prefix("+STATS ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SessionError::Protocol(format!("expected +STATS, got {:?}", head)))?;
        let lines = self.body(k)?;
        lines
            .iter()
            .map(|l| {
                let mut it = l.split_whitespace();
                match (it.next(), it.next().and_then(|v| v.parse().ok())) {
                    (Some(name), Some(value)) => Ok((name.to_string(), value)),
                    _ => Err(SessionError::Protocol(format!("bad stats line {:?}", l))),
                }
            })
            .collect()
    }

    /// `HEALTH`: the daemon's degradation tier and queue occupancy,
    /// `(state, depth, cap)`.
    pub fn health(&mut self) -> Result<(String, u64, u64), SessionError> {
        let head = self.request("HEALTH", None)?;
        let rest = head
            .strip_prefix("+HEALTH ")
            .ok_or_else(|| SessionError::Protocol(format!("expected +HEALTH, got {:?}", head)))?;
        let mut it = rest.split_whitespace();
        match (
            it.next(),
            it.next().and_then(|v| v.parse().ok()),
            it.next().and_then(|v| v.parse().ok()),
        ) {
            (Some(state), Some(depth), Some(cap)) => Ok((state.to_string(), depth, cap)),
            _ => Err(SessionError::Protocol(format!(
                "bad HEALTH line {:?}",
                head
            ))),
        }
    }

    /// Any single-line command (`PING`, `EPOCH v`, `STOP`, ...): returns
    /// the `+` response line.
    pub fn command(&mut self, cmd: &str) -> Result<String, SessionError> {
        self.request(cmd, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_is_capped_and_jittered_deterministically() {
        let cfg = SessionConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 160,
            ..SessionConfig::default()
        };
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for attempt in 0..12 {
            let da = backoff_delay(&cfg, attempt, &mut a);
            let db = backoff_delay(&cfg, attempt, &mut b);
            assert_eq!(da, db, "same seed, same delay");
            let exp = (10u64 << attempt.min(20)).min(160);
            assert!(da.as_millis() as u64 <= exp, "cap violated at {}", attempt);
            assert!(da.as_millis() as u64 >= (exp / 2).max(1));
        }
        // The cap binds from attempt 4 on (10·2^4 = 160).
        let d = backoff_delay(&cfg, 30, &mut a);
        assert!(d.as_millis() as u64 <= 160);
    }

    #[test]
    fn session_variables_parse_exactly_or_fail_naming_themselves() {
        let parse = |name: &'static str, value: &'static str| {
            let get = move |n: &str| (n == name).then(|| value.to_string());
            SessionConfig::from_env(&Vars(&get))
        };
        let cfg = parse("CLOP_SERVE_JITTER_SEED", "7").unwrap();
        assert_eq!((cfg.jitter_seed, cfg.max_attempts), (7, 8));
        for (name, value) in [
            ("CLOP_SERVE_MAX_ATTEMPTS", "0"),
            ("CLOP_SERVE_MAX_ATTEMPTS", "4294967296"),
            ("CLOP_SERVE_OP_TIMEOUT_MS", "5s"),
        ] {
            let err = parse(name, value).unwrap_err().to_string();
            assert!(err.contains(name) && err.contains(value), "{}", err);
        }
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let cfg = SessionConfig {
            backoff_base_ms: u64::MAX / 2,
            backoff_cap_ms: 50,
            ..SessionConfig::default()
        };
        let mut rng = Rng::seed_from_u64(1);
        let d = backoff_delay(&cfg, u32::MAX, &mut rng);
        assert!(d.as_millis() as u64 <= 50);
    }

    #[test]
    fn connect_to_dead_address_exhausts_quickly() {
        // Port 1 on localhost is essentially never listening; every
        // attempt fails at connect, so the session must give up after
        // max_attempts with an Exhausted error, not hang.
        let cfg = SessionConfig {
            connect_timeout_ms: 200,
            max_attempts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 2,
            ..SessionConfig::default()
        };
        let mut s = Session::new("127.0.0.1:1", cfg).unwrap();
        match s.command("PING") {
            Err(SessionError::Exhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected exhaustion, got {:?}", other.map(|_| ())),
        }
    }
}
