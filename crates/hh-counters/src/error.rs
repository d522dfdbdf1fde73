//! The workspace-wide typed error (`hh::Error`).
//!
//! Every fallible operation in the library crates — engine configuration,
//! snapshot rehydration, merging, I/O at the CLI boundary — reports one of
//! these variants instead of a bare `String`, so callers can match on the
//! failure class and error text stays consistent.
//!
//! ```
//! use hh_counters::error::Error;
//!
//! let e = Error::invalid_config("eps must be in (0, 1)");
//! assert!(matches!(e, Error::InvalidConfig(_)));
//! assert_eq!(e.to_string(), "invalid configuration: eps must be in (0, 1)");
//! ```

use std::fmt;

/// The error type shared across the heavy-hitters workspace.
#[derive(Debug)]
pub enum Error {
    /// An [`EngineConfig`](https://docs.rs/hh) parameter combination is
    /// invalid (zero counters, `eps` out of `(0, 1)`, …).
    InvalidConfig(String),
    /// The requested operation is not available for this algorithm (e.g.
    /// weighted mode on a sketch backend).
    Unsupported {
        /// Algorithm name the operation was attempted on.
        algo: String,
        /// What was attempted.
        operation: &'static str,
    },
    /// Two summaries/snapshots that must agree (same algorithm, same shape,
    /// same seed) do not.
    SnapshotMismatch {
        /// Description of the expected shape.
        expected: String,
        /// Description of the shape actually found.
        found: String,
    },
    /// A snapshot violates its own invariants (counter mass, capacity,
    /// duplicate items, `err > count`, …).
    CorruptSnapshot(String),
    /// Merging would push the combined bookkeeping (stream length, slack,
    /// decrement rounds) past `u64::MAX`; the merge target is unchanged.
    Overflow(String),
    /// A query parameter is out of its domain (e.g. `phi ∉ [0, 1)`).
    InvalidQuery(String),
    /// A sharded-pipeline worker failed (panicked shard, closed channel).
    Pipeline(String),
    /// A pipeline shard worker died, was rebuilt from its restore point,
    /// and the rebuilt worker died again at once, so the attempted
    /// operation still failed.
    ShardDown {
        /// Index of the dead shard.
        shard: usize,
    },
    /// Malformed textual input (CLI stream lines, numeric arguments).
    Parse(String),
    /// An I/O failure (file or stdin/stdout access).
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(String),
}

impl Error {
    /// Builds an [`Error::InvalidConfig`] from any displayable message.
    pub fn invalid_config(msg: impl Into<String>) -> Self {
        Error::InvalidConfig(msg.into())
    }

    /// Builds an [`Error::CorruptSnapshot`] from any displayable message.
    pub fn corrupt_snapshot(msg: impl Into<String>) -> Self {
        Error::CorruptSnapshot(msg.into())
    }

    /// Builds an [`Error::Parse`] from any displayable message.
    pub fn parse(msg: impl Into<String>) -> Self {
        Error::Parse(msg.into())
    }

    /// Builds an [`Error::Pipeline`] from any displayable message.
    pub fn pipeline(msg: impl Into<String>) -> Self {
        Error::Pipeline(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Unsupported { algo, operation } => {
                write!(f, "{operation} is not supported by {algo}")
            }
            Error::SnapshotMismatch { expected, found } => {
                write!(f, "snapshot mismatch: expected {expected}, found {found}")
            }
            Error::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
            Error::Overflow(msg) => write!(f, "arithmetic overflow: {msg}"),
            Error::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            Error::Pipeline(msg) => write!(f, "pipeline error: {msg}"),
            Error::ShardDown { shard } => write!(
                f,
                "shard {shard} worker died (respawned from its restore point)"
            ),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Json(msg) => write!(f, "JSON error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::Json(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let variants: Vec<Error> = vec![
            Error::invalid_config("m must be >= 1"),
            Error::Unsupported {
                algo: "CountSketch".into(),
                operation: "weighted updates",
            },
            Error::SnapshotMismatch {
                expected: "CountMin 4x128 seed 7".into(),
                found: "CountMin 4x64 seed 7".into(),
            },
            Error::corrupt_snapshot("counter mass mismatch"),
            Error::Overflow("merged stream length exceeds u64".into()),
            Error::InvalidQuery("phi must be in [0, 1)".into()),
            Error::pipeline("shard 3 disconnected"),
            Error::ShardDown { shard: 1 },
            Error::parse("bad weight"),
            Error::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
            Error::Json("missing field".into()),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn io_errors_convert() {
        let e: Error = std::io::Error::other("x").into();
        assert!(matches!(e, Error::Io(_)));
        use std::error::Error as _;
        assert!(e.source().is_some());
    }
}
