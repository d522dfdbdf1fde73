//! Counter-based heavy hitters with residual tail guarantees.
//!
//! This crate is the primary contribution of the reproduction of
//! *Space-optimal Heavy Hitters with Strong Error Bounds* (Berinde,
//! Cormode, Indyk, Strauss — PODS 2009): the FREQUENT and SPACESAVING
//! counter algorithms and the machinery around the paper's k-tail
//! guarantee
//!
//! > `δ_i ≤ A · F1^res(k) / (m − B·k)` with `A = B = 1`,
//!
//! including sparse recovery (Section 4), summary merging (Section 6.2),
//! Zipfian sizing rules (Section 5) and an empirical heavy-tolerance
//! checker (Definitions 3–4).
//!
//! Weighted streams (Section 6.1) need no separate algorithm: Theorem 10
//! gives SPACESAVING and FREQUENT the same `A = B = 1` tail bound for any
//! non-negative weights, so a weight counted as a whole number of units
//! goes through [`FrequencyEstimator::update_by`], with exact sums. The
//! unit is the caller's choice; the `hh` CLI counts thousandths, so its
//! largest total is `u64::MAX` thousandths, about 1.8·10^16.
//!
//! # Quick start
//!
//! ```
//! use hh_counters::{FrequencyEstimator, SpaceSaving};
//!
//! let mut ss = SpaceSaving::new(4); // m = 4 counters
//! for item in [1u64, 2, 1, 3, 1, 2, 5, 1, 6, 1] {
//!     ss.update(item);
//! }
//! // item 1 (frequency 5) dominates and is tracked accurately:
//! assert!(ss.estimate(&1) >= 5);
//! let (top, _) = ss.entries()[0].clone();
//! assert_eq!(top, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod error;
pub mod fasthash;
pub mod frequent;
pub mod heavy_hitters;
pub mod htc;
pub mod key;
pub mod lossy_counting;
pub mod merge;
pub mod monitor;
pub mod oaindex;
pub mod recovery;
pub mod reference;
pub mod space_saving;
pub mod sticky_sampling;
pub mod stream_summary;
pub mod topk;
pub mod traits;
pub mod underestimate;
#[cfg(test)]
mod weighted;

pub use error::Error;
pub use frequent::Frequent;
pub use heavy_hitters::{
    frequent_heavy_hitters, spacesaving_heavy_hitters, Confidence, HeavyHitter,
};
pub use key::Key;
pub use lossy_counting::LossyCounting;
pub use reference::{ReferenceFrequent, ReferenceSpaceSaving};
pub use space_saving::{HeapSpaceSaving, SpaceSaving};
pub use sticky_sampling::StickySampling;
pub use stream_summary::StreamSummary;
pub use traits::{Bias, FrequencyEstimator, TailConstants};
pub use underestimate::{Correction, UnderestimatedSpaceSaving};
