//! # hh — Space-optimal heavy hitters with strong error bounds
//!
//! Facade crate for the reproduction of Berinde, Cormode, Indyk &
//! Strauss, *Space-optimal Heavy Hitters with Strong Error Bounds*
//! (PODS 2009). Re-exports the full public API of the workspace:
//!
//! * [`engine`] — the unified serving surface: config-driven construction
//!   ([`engine::EngineConfig`]), one query surface ([`engine::Report`],
//!   in occurrences or whole weight units), portable snapshots
//!   ([`engine::Snapshot`]) and cross-process merging;
//! * [`pipeline`] — the concurrent twin of [`engine`]: a long-lived
//!   sharded ingest service ([`pipeline::Pipeline`]) with bounded-channel
//!   backpressure and live epoch-boundary queries, sound by the paper's
//!   Theorem 11 merge;
//! * [`counters`] — FREQUENT and SPACESAVING (which also count weights:
//!   Theorem 10 keeps their tail bound, and a weight in whole units goes
//!   through `update_by`), sparse recovery, merging, Zipf sizing and the
//!   heavy-tolerance machinery (the paper's contribution);
//! * [`obs`] — zero-dependency runtime telemetry (counters, gauges,
//!   log-bucketed histograms, Prometheus/JSON exposition) behind
//!   [`pipeline::Pipeline::stats`] and the CLI's `serve --stats-every`;
//! * [`net`] — the network-facing ingest/query server over [`pipeline`]:
//!   an epoll event loop multiplexing newline-delimited writers onto the
//!   shard channels with real backpressure, in-band `?topk`/`?stats`
//!   queries, and graceful drain/resume (`hh serve --listen`);
//! * [`fault`] — seeded fault-injection hooks (panics, stalls, torn
//!   writes at named sites) compiled out of release builds, plus the
//!   capped-backoff [`fault::RetryPolicy`] the CLI client retries with;
//! * [`sketches`] — Count-Min and Count-Sketch baselines;
//! * [`streamgen`] — Zipfian / adversarial / weighted workload generators
//!   with exact ground truth;
//! * [`analysis`] — metrics and experiment drivers.
//!
//! ## Quick start
//!
//! Pick an algorithm and a sizing rule, build an [`engine::Engine`], and
//! query it — switching algorithms (or deriving the budget from an error
//! target) is a config change, not a code change:
//!
//! ```
//! use hh::prelude::*;
//!
//! // Summarize a skewed stream; 64 counters for ~1000 distinct items.
//! let stream = hh::streamgen::zipf::stream_from_counts(
//!     &hh::streamgen::exact_zipf_counts(1000, 100_000, 1.3),
//!     hh::streamgen::zipf::StreamOrder::Shuffled(42),
//! );
//! let mut engine = EngineConfig::new(AlgoKind::SpaceSaving)
//!     .counters(64)
//!     .build()
//!     .expect("valid config");
//! engine.update_batch(&stream);
//!
//! // One query surface: top-k with certified (lower, upper) intervals,
//! // phi-heavy hitters with confidence labels, residual estimation.
//! let report = engine.report();
//! for entry in report.top_k(5) {
//!     assert!(entry.lower <= entry.estimate && entry.estimate <= entry.upper);
//! }
//! let heavy = report.heavy_hitters(0.05).expect("phi in range");
//! assert!(!heavy.is_empty());
//!
//! // Snapshots round-trip through JSON and merge across processes.
//! let json = engine.to_json();
//! let restored: Engine<u64> = Engine::from_json(&json).expect("rehydrates");
//! assert_eq!(restored.estimate(&1), engine.estimate(&1));
//!
//! // The k-tail guarantee: errors are bounded by the tail mass, not F1.
//! let oracle = ExactCounter::from_stream(&stream);
//! let check = hh::analysis::check_tail(&engine, &oracle, TailConstants::ONE_ONE, 8);
//! assert!(check.ok);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use hh_analysis as analysis;
pub use hh_counters as counters;
pub use hh_fault as fault;
pub use hh_net as net;
pub use hh_obs as obs;
pub use hh_sketches as sketches;
pub use hh_streamgen as streamgen;

pub use hh_counters::error::Error;
pub use hh_sketches::engine;
pub use hh_sketches::pipeline;

/// Convenient glob-import surface: the names almost every user needs.
pub mod prelude {
    pub use hh_analysis::{check_tail, error_stats, lp_recovery_error, precision_recall, Table};
    pub use hh_counters::{
        Bias, Confidence, Error, FrequencyEstimator, Frequent, Key, LossyCounting, SpaceSaving,
        TailConstants,
    };
    pub use hh_net::{NetOptions, ServeOptions, ServeSession, Server};
    pub use hh_sketches::engine::{AlgoKind, CapacitySpec, Engine, EngineConfig, Report, Snapshot};
    pub use hh_sketches::pipeline::{Pipeline, PipelineConfig, PipelineStats, ShardStats};
    pub use hh_sketches::{CountMin, CountSketch, SketchHeavyHitters, UpdateRule};
    pub use hh_streamgen::{ExactCounter, Freqs, ZipfSampler};
}
