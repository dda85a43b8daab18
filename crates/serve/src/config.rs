//! Environment-driven daemon configuration (`CLOP_SERVE_*`).

use clop_core::incremental::AnalysisParams;
use clop_util::vars::Vars;
use clop_util::ClopResult;
use std::path::PathBuf;

/// All knobs of the serving daemon. Every field has a `CLOP_SERVE_*`
/// environment variable; unset or empty variables take the listed
/// default, and any other value must parse and be in range.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// `CLOP_SERVE_LISTEN` — TCP listen address (default `127.0.0.1:0`,
    /// i.e. an ephemeral port).
    pub listen: String,
    /// `CLOP_SERVE_PORT_FILE` — if set, the bound address (`host:port`)
    /// is written here atomically once the listener is up.
    pub port_file: Option<PathBuf>,
    /// `CLOP_SERVE_WATCH_DIR` — if set, `<dir>/<version>/*.clsh` files
    /// are ingested as they appear. Files are never deleted; re-ingestion
    /// is idempotent.
    pub watch_dir: Option<PathBuf>,
    /// `CLOP_SERVE_WATCH_POLL_MS` — directory poll interval (default 200).
    pub watch_poll_ms: u64,
    /// `CLOP_SERVE_CHECKPOINT_DIR` — if set, per-version state snapshots
    /// (`<version>.state` + `<version>.done` marker) live here.
    pub checkpoint_dir: Option<PathBuf>,
    /// `CLOP_SERVE_CHECKPOINT_EVERY` — checkpoint a version each time its
    /// folded shard count reaches a multiple of this (default 16).
    pub checkpoint_every: u64,
    /// `CLOP_SERVE_QUEUE_CAP` — bound of the one admission queue (default
    /// 64); when it is full, a socket `SHARD` answers `-RETRY`, durable or
    /// not, instead of buffering.
    pub queue_cap: usize,
    /// `CLOP_SERVE_BATCH_MAX` — max shards a worker drains per wakeup
    /// (default 8).
    pub batch_max: usize,
    /// `CLOP_SERVE_WORKERS` — fold worker threads (default: the
    /// machine-derived `clop_util::pool::default_jobs()`).
    pub workers: usize,
    /// `CLOP_SERVE_RETRY_MS` — the retry hint sent with `-RETRY`
    /// (default 50).
    pub retry_ms: u64,
    /// `CLOP_SERVE_MAX_DROP_FRAC` — accept a salvaged shard only when
    /// `dropped / declared` is at most this fraction (default 0.0:
    /// only clean shards are admitted).
    pub max_drop_frac: f64,
    /// `CLOP_SERVE_SYNC_TIMEOUT_MS` — how long `SYNC` (and the `STOP`
    /// drain) waits for the queue to settle (default 60000).
    pub sync_timeout_ms: u64,
    /// `CLOP_SERVE_CONN_READ_TIMEOUT_MS` — per-connection socket read
    /// deadline; a peer that stalls mid-frame (or idles longer than
    /// this) is disconnected instead of wedging its handler thread
    /// (default 30000).
    pub conn_read_timeout_ms: u64,
    /// `CLOP_SERVE_CONN_WRITE_TIMEOUT_MS` — per-connection socket write
    /// deadline; a peer that stops reading its responses is disconnected
    /// (default 10000).
    pub conn_write_timeout_ms: u64,
    /// `CLOP_SERVE_SHED_FRAC` — queue-occupancy fraction above which the
    /// daemon is under pressure (default 0.75 of `queue_cap`).
    pub shed_frac: f64,
    /// `CLOP_SERVE_SHED_AFTER_MS` — pressure must be sustained this long
    /// before the daemon degrades and starts shedding `QUERY` (default
    /// 200; 0 degrades immediately under pressure).
    pub shed_after_ms: u64,
    /// `CLOP_SERVE_DURABLE_ACK` — `1` or `0` (default 0: ack at enqueue).
    /// With `1` the fold worker answers a `SHARD` after its fold,
    /// checkpoint (with a checkpoint directory) and GC pass, so `+OK` is
    /// a durability promise that survives `kill -9`.
    pub durable_ack: bool,
    /// `CLOP_SERVE_MAX_VERSIONS` — evict least-recently-ingested
    /// versions beyond this count (default 0: unlimited). The actively
    /// ingesting version is never evicted.
    pub max_versions: usize,
    /// `CLOP_SERVE_MAX_STATE_BYTES` — evict least-recently-ingested
    /// versions while the summed snapshot sizes exceed this bound
    /// (default 0: unlimited). The actively ingesting version is never
    /// evicted.
    pub max_state_bytes: u64,
    /// `CLOP_SERVE_WATCH_MAX_ATTEMPTS` — sweeps a transiently unreadable
    /// watch-dir file is retried before it is quarantined (default 5).
    pub watch_max_attempts: u32,
    /// `CLOP_SERVE_W_MIN` / `W_MAX` / `TRG_WINDOW` / `TRG_SLOTS` — the
    /// analysis parameters every version folds at.
    pub params: AnalysisParams,
    /// `CLOP_SERVE_FOLD_DELAY_MS` — artificial delay per fold (default 0):
    /// the smoke scripts' lever to make backpressure observable on a
    /// separate daemon process.
    pub fold_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            port_file: None,
            watch_dir: None,
            watch_poll_ms: 200,
            checkpoint_dir: None,
            checkpoint_every: 16,
            queue_cap: 64,
            batch_max: 8,
            workers: clop_util::pool::default_jobs(),
            retry_ms: 50,
            max_drop_frac: 0.0,
            sync_timeout_ms: 60_000,
            conn_read_timeout_ms: 30_000,
            conn_write_timeout_ms: 10_000,
            shed_frac: 0.75,
            shed_after_ms: 200,
            durable_ack: false,
            max_versions: 0,
            max_state_bytes: 0,
            watch_max_attempts: 5,
            params: AnalysisParams::default(),
            fold_delay_ms: 0,
        }
    }
}

impl ServeConfig {
    /// Read the configuration from `CLOP_SERVE_*` variables (pass
    /// [`Vars::env`] for the process environment); a malformed or
    /// out-of-range value is an error naming it.
    pub fn from_env(v: &Vars) -> ClopResult<ServeConfig> {
        let d = ServeConfig::default();
        let mut params = d.params;
        params.affinity.w_min = v.get("CLOP_SERVE_W_MIN", params.affinity.w_min, 0..)?;
        params.affinity.w_max = v.get("CLOP_SERVE_W_MAX", params.affinity.w_max, 0..)?;
        params.trg.window = v.get("CLOP_SERVE_TRG_WINDOW", params.trg.window, 0..)?;
        params.trg.slots = v.get("CLOP_SERVE_TRG_SLOTS", params.trg.slots, 0..)?;
        Ok(ServeConfig {
            listen: v.text("CLOP_SERVE_LISTEN").unwrap_or(d.listen),
            port_file: v.text("CLOP_SERVE_PORT_FILE").map(PathBuf::from),
            watch_dir: v.text("CLOP_SERVE_WATCH_DIR").map(PathBuf::from),
            watch_poll_ms: v.get("CLOP_SERVE_WATCH_POLL_MS", d.watch_poll_ms, 1..)?,
            checkpoint_dir: v.text("CLOP_SERVE_CHECKPOINT_DIR").map(PathBuf::from),
            checkpoint_every: v.get("CLOP_SERVE_CHECKPOINT_EVERY", d.checkpoint_every, 1..)?,
            queue_cap: v.get("CLOP_SERVE_QUEUE_CAP", d.queue_cap, 1..)?,
            batch_max: v.get("CLOP_SERVE_BATCH_MAX", d.batch_max, 1..)?,
            workers: v.get("CLOP_SERVE_WORKERS", d.workers, 1..)?,
            retry_ms: v.get("CLOP_SERVE_RETRY_MS", d.retry_ms, 1..)?,
            max_drop_frac: v.get("CLOP_SERVE_MAX_DROP_FRAC", d.max_drop_frac, 0.0..=1.0)?,
            sync_timeout_ms: v.get("CLOP_SERVE_SYNC_TIMEOUT_MS", d.sync_timeout_ms, 1..)?,
            conn_read_timeout_ms: v.get(
                "CLOP_SERVE_CONN_READ_TIMEOUT_MS",
                d.conn_read_timeout_ms,
                1..,
            )?,
            conn_write_timeout_ms: v.get(
                "CLOP_SERVE_CONN_WRITE_TIMEOUT_MS",
                d.conn_write_timeout_ms,
                1..,
            )?,
            shed_frac: v.get("CLOP_SERVE_SHED_FRAC", d.shed_frac, 0.0..=1.0)?,
            shed_after_ms: v.get("CLOP_SERVE_SHED_AFTER_MS", d.shed_after_ms, 0..)?,
            durable_ack: v.flag("CLOP_SERVE_DURABLE_ACK")?,
            max_versions: v.get("CLOP_SERVE_MAX_VERSIONS", d.max_versions, 0..)?,
            max_state_bytes: v.get("CLOP_SERVE_MAX_STATE_BYTES", d.max_state_bytes, 0..)?,
            watch_max_attempts: v.get(
                "CLOP_SERVE_WATCH_MAX_ATTEMPTS",
                d.watch_max_attempts,
                1..,
            )?,
            params,
            fold_delay_ms: v.get("CLOP_SERVE_FOLD_DELAY_MS", d.fold_delay_ms, 0..)?,
        })
    }
}

/// True when `version` is a safe token: 1–64 chars of `[A-Za-z0-9._-]`,
/// not starting with a dot (version names become checkpoint file names
/// and watch-dir components).
pub fn valid_version(version: &str) -> bool {
    !version.is_empty()
        && version.len() <= 64
        && !version.starts_with('.')
        && version
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_util::ClopError;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert_eq!(c.listen, "127.0.0.1:0");
        assert!(c.queue_cap >= 1 && c.batch_max >= 1 && c.workers >= 1);
        assert_eq!(c.max_drop_frac, 0.0);
    }

    fn parse(vars: &[(&str, &str)]) -> ClopResult<ServeConfig> {
        let get = |name: &str| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        };
        ServeConfig::from_env(&Vars(&get))
    }

    #[test]
    fn unset_and_empty_variables_take_the_defaults() {
        for vars in [
            &[][..],
            &[("CLOP_SERVE_QUEUE_CAP", ""), ("CLOP_SERVE_DURABLE_ACK", "")],
        ] {
            let c = parse(vars).unwrap();
            let d = ServeConfig::default();
            assert_eq!(
                (c.queue_cap, c.workers, c.durable_ack),
                (d.queue_cap, d.workers, false)
            );
            assert_eq!(c.params.affinity.w_max, d.params.affinity.w_max);
        }
    }

    #[test]
    fn valid_values_parse_exactly() {
        let c = parse(&[
            ("CLOP_SERVE_QUEUE_CAP", "3"),
            ("CLOP_SERVE_W_MAX", "40"),
            ("CLOP_SERVE_DURABLE_ACK", "1"),
            ("CLOP_SERVE_SHED_FRAC", "0.5"),
            ("CLOP_SERVE_CHECKPOINT_DIR", "/ckpt"),
        ])
        .unwrap();
        assert_eq!((c.queue_cap, c.params.affinity.w_max), (3, 40));
        assert!(c.durable_ack);
        assert_eq!(c.shed_frac, 0.5);
        assert_eq!(c.checkpoint_dir, Some(PathBuf::from("/ckpt")));
        assert!(
            !parse(&[("CLOP_SERVE_DURABLE_ACK", "0")])
                .unwrap()
                .durable_ack
        );
    }

    #[test]
    fn bad_values_are_errors_naming_the_variable_and_the_value() {
        for (name, value) in [
            ("CLOP_SERVE_DURABLE_ACK", "false"),
            ("CLOP_SERVE_DURABLE_ACK", "yes"),
            ("CLOP_SERVE_QUEUE_CAP", "6x"),
            ("CLOP_SERVE_W_MAX", "4294967316"),
            ("CLOP_SERVE_WORKERS", "0"),
            ("CLOP_SERVE_RETRY_MS", "-5"),
            ("CLOP_SERVE_SHED_FRAC", "1.5"),
            ("CLOP_SERVE_MAX_DROP_FRAC", "NaN"),
        ] {
            match parse(&[(name, value)]) {
                Err(ClopError::Config {
                    variable, value: v, ..
                }) => assert_eq!((variable.as_str(), v.as_str()), (name, value)),
                other => panic!("{}={} gave {:?}", name, value, other.map(|_| ())),
            }
        }
    }

    #[test]
    fn version_token_validation() {
        assert!(valid_version("v1"));
        assert!(valid_version("app-2.3_rc1"));
        assert!(!valid_version(""));
        assert!(!valid_version(".hidden"));
        assert!(!valid_version("a/b"));
        assert!(!valid_version("x y"));
        assert!(!valid_version(&"v".repeat(65)));
    }
}
