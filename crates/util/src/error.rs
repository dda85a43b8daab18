//! The workspace-wide typed error hierarchy.
//!
//! Every recoverable failure in the pipeline — a corrupt trace file, a
//! malformed text-IR module, an unknown pipeline name, a supervised
//! experiment that panicked or timed out — is represented as a
//! [`ClopError`] variant instead of a panic, so batch drivers can collect,
//! report, and continue past individual failures.
//!
//! The variants mirror the pipeline's layers:
//!
//! * [`ClopError::TraceDecode`] — binary trace container decode failures
//!   (bad magic, unsupported version, CRC mismatch, truncation, hostile
//!   varints), with the byte offset where decoding stopped when known.
//! * [`ClopError::MappingParse`] — mapping-file (text) parse failures.
//! * [`ClopError::IrParse`] — text-IR parse failures with line/column.
//! * [`ClopError::IrBuild`] — module construction/validation failures.
//! * [`ClopError::Pipeline`] — optimization pipeline failures (unknown
//!   pipeline name, transform rejections, empty profiles).
//! * [`ClopError::Experiment`] — experiment-runner failures: a job
//!   returned an error, panicked, or exceeded the soft watchdog budget.
//! * [`ClopError::Io`] — underlying I/O failures with a context string.
//! * [`ClopError::Config`] — a configuration variable with an unusable
//!   value, naming the variable and the value.
//!
//! Lower crates convert their local error types into `ClopError` via
//! `From` impls (defined next to the local type, satisfying coherence);
//! this crate only defines the shared shape. The type is `Clone` and
//! `PartialEq` so memoizing engines can cache failed outcomes and tests
//! can assert on exact errors; I/O sources are therefore captured as
//! `(ErrorKind, String)` rather than as live `std::io::Error` values.

use std::fmt;

/// Convenience alias for results carrying a [`ClopError`].
pub type ClopResult<T> = Result<T, ClopError>;

/// How a supervised experiment job failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The job's body returned a structured error.
    Error,
    /// The job panicked; the panic was caught at the isolation boundary.
    Panic,
    /// The job exceeded the soft watchdog budget (`CLOP_EXP_TIMEOUT`).
    Timeout,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::Error => "error",
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        })
    }
}

/// A structured, recoverable failure anywhere in the workspace.
#[derive(Clone, Debug, PartialEq)]
pub enum ClopError {
    /// A binary trace container failed to decode.
    TraceDecode {
        /// Byte offset at which decoding stopped, when known.
        offset: Option<u64>,
        /// What went wrong.
        detail: String,
    },
    /// A mapping file failed to parse.
    MappingParse {
        /// 1-based line of the problem (0 when unknown).
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// A text-IR module failed to parse.
    IrParse {
        /// 1-based line of the problem (0 for end-of-input).
        line: usize,
        /// 1-based column of the offending token (0 when unknown).
        col: usize,
        /// What went wrong.
        detail: String,
    },
    /// A module failed construction or structural validation.
    IrBuild {
        /// What went wrong.
        detail: String,
    },
    /// An optimization pipeline failed, or none has the requested name.
    Pipeline {
        /// Name of the pipeline involved (empty when unknown).
        pipeline: String,
        /// What went wrong.
        detail: String,
    },
    /// A supervised experiment job failed.
    Experiment {
        /// The experiment's registry name.
        experiment: String,
        /// How the job failed.
        kind: FailureKind,
        /// What went wrong (error display, panic payload, or budget).
        detail: String,
    },
    /// An underlying I/O operation failed.
    Io {
        /// What was being done ("write results/fig4.json", …).
        context: String,
        /// The `std::io::ErrorKind` of the source error.
        kind: std::io::ErrorKind,
        /// The source error's display.
        detail: String,
    },
    /// A configuration variable holds a value that does not parse or is
    /// out of range.
    Config {
        /// The variable's name (`CLOP_SERVE_QUEUE_CAP`, …).
        variable: String,
        /// The value as given.
        value: String,
        /// What a valid value looks like.
        detail: String,
    },
}

impl ClopError {
    /// A trace-decode error at a known byte offset.
    pub fn trace_decode(offset: u64, detail: impl Into<String>) -> ClopError {
        ClopError::TraceDecode {
            offset: Some(offset),
            detail: detail.into(),
        }
    }

    /// A trace-decode error with no meaningful offset.
    pub fn trace_format(detail: impl Into<String>) -> ClopError {
        ClopError::TraceDecode {
            offset: None,
            detail: detail.into(),
        }
    }

    /// A mapping-parse error at a 1-based line.
    pub fn mapping(line: usize, detail: impl Into<String>) -> ClopError {
        ClopError::MappingParse {
            line,
            detail: detail.into(),
        }
    }

    /// A pipeline failure attributed to `pipeline`.
    pub fn pipeline(pipeline: impl Into<String>, detail: impl Into<String>) -> ClopError {
        ClopError::Pipeline {
            pipeline: pipeline.into(),
            detail: detail.into(),
        }
    }

    /// An experiment failure of the given kind.
    pub fn experiment(
        experiment: impl Into<String>,
        kind: FailureKind,
        detail: impl Into<String>,
    ) -> ClopError {
        ClopError::Experiment {
            experiment: experiment.into(),
            kind,
            detail: detail.into(),
        }
    }

    /// A configuration variable whose `value` is unusable.
    pub fn config(
        variable: impl Into<String>,
        value: impl Into<String>,
        detail: impl Into<String>,
    ) -> ClopError {
        ClopError::Config {
            variable: variable.into(),
            value: value.into(),
            detail: detail.into(),
        }
    }

    /// Wrap an I/O error with a context string.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> ClopError {
        ClopError::Io {
            context: context.into(),
            kind: err.kind(),
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for ClopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClopError::TraceDecode { offset, detail } => match offset {
                Some(o) => write!(f, "trace decode error at byte {}: {}", o, detail),
                None => write!(f, "trace decode error: {}", detail),
            },
            ClopError::MappingParse { line, detail } => {
                write!(f, "mapping parse error at line {}: {}", line, detail)
            }
            ClopError::IrParse { line, col, detail } => {
                write!(
                    f,
                    "IR parse error at line {}, col {}: {}",
                    line, col, detail
                )
            }
            ClopError::IrBuild { detail } => write!(f, "IR build error: {}", detail),
            ClopError::Pipeline { pipeline, detail } => {
                if pipeline.is_empty() {
                    write!(f, "pipeline error: {}", detail)
                } else {
                    write!(f, "pipeline `{}` error: {}", pipeline, detail)
                }
            }
            ClopError::Experiment {
                experiment,
                kind,
                detail,
            } => write!(f, "experiment `{}` {}: {}", experiment, kind, detail),
            ClopError::Io {
                context,
                kind: _,
                detail,
            } => write!(f, "I/O error ({}): {}", context, detail),
            ClopError::Config {
                variable,
                value,
                detail,
            } => write!(f, "invalid {}={:?}: {}", variable, value, detail),
        }
    }
}

impl std::error::Error for ClopError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = ClopError::trace_decode(42, "varint overflow");
        assert_eq!(
            e.to_string(),
            "trace decode error at byte 42: varint overflow"
        );
        let e = ClopError::IrParse {
            line: 3,
            col: 7,
            detail: "unknown directive `blok`".into(),
        };
        assert!(e.to_string().contains("line 3, col 7"));
        let e = ClopError::experiment("fig4_miss_ratios", FailureKind::Panic, "boom");
        assert!(e.to_string().contains("fig4_miss_ratios"));
        assert!(e.to_string().contains("panic"));
        let e = ClopError::config("CLOP_SERVE_QUEUE_CAP", "6x", "need an integer");
        assert_eq!(
            e.to_string(),
            "invalid CLOP_SERVE_QUEUE_CAP=\"6x\": need an integer"
        );
    }

    #[test]
    fn io_wrapper_preserves_kind() {
        let src = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e = ClopError::io("read trace", &src);
        match e {
            ClopError::Io { kind, .. } => assert_eq!(kind, std::io::ErrorKind::UnexpectedEof),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn errors_are_comparable_and_clonable() {
        let a = ClopError::trace_format("bad magic");
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, ClopError::trace_format("other"));
    }
}
