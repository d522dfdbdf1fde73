//! Sketch-based frequency estimation baselines.
//!
//! The randomized comparators from Table 1 of *Space-optimal Heavy Hitters
//! with Strong Error Bounds* (PODS 2009): the Count-Min sketch (plus its
//! conservative-update variant) and the Count-Sketch, together with the
//! candidate-tracking wrapper that lets sketches report heavy hitters at a
//! fair space accounting.
//!
//! Sketches allow deletions and arbitrary linear updates — abilities the
//! counter algorithms lack — but as the paper proves (and the experiments
//! in this repository reproduce), counters dominate sketches on
//! insertion-only heavy-hitter workloads at equal space.
//!
//! All hash functions are implemented in-crate ([`hash`]): seeded
//! polynomial hashing over the Mersenne prime `2^61 − 1`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod count_min;
pub mod count_sketch;
pub mod dyadic;
pub mod engine;
pub mod hash;
pub mod pipeline;
pub mod topk_tracker;

pub use count_min::{CountMin, UpdateRule};
pub use count_sketch::CountSketch;
pub use dyadic::DyadicCountMin;
pub use engine::{
    AlgoKind, CapacitySpec, Count, Engine, EngineConfig, HeavyHitterEntry, IngestStats, Report,
    ReportEntry, Snapshot, WeightedEngine,
};
pub use pipeline::{Pipeline, PipelineConfig, PipelineStats, ShardStats, ShardedView};
pub use topk_tracker::SketchHeavyHitters;
