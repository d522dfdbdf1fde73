//! Synthetic stream workloads with exact ground truth.
//!
//! This crate is the workload substrate for the reproduction of
//! *Space-optimal Heavy Hitters with Strong Error Bounds* (Berinde, Cormode,
//! Indyk, Strauss — PODS 2009). The paper is a theory paper and evaluates
//! nothing empirically; its theorems are worst-case over all streams, and its
//! Section 5 analyzes Zipfian frequency vectors. Accordingly this crate
//! provides:
//!
//! * [`zipf`] — exact Zipfian frequency vectors (the distribution assumed by
//!   Theorems 8 and 9) and sampled Zipf streams;
//! * [`generators`] — uniform, two-level, weighted and custom stream builders
//!   plus stream orderings (the theorems hold for *any* ordering, so the
//!   experiments sweep orderings);
//! * [`adversarial`] — the Appendix A lower-bound construction and orderings
//!   that are known to be hard for `LossyCounting`;
//! * [`oracle`] — exact counting for ground truth;
//! * [`stats`] — `F1`, `F_p`, and residual `F_p^res(k)` computations used by
//!   every bound in the paper.
//!
//! Everything randomized takes an explicit `u64` seed so experiments are
//! reproducible bit-for-bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversarial;
pub mod drift;
pub mod generators;
pub mod oracle;
pub mod stats;
pub mod trace_io;
pub mod zipf;

pub use generators::{Ordering, StreamBuilder, WeightedStream};
pub use oracle::ExactCounter;
pub use stats::Freqs;
pub use zipf::{exact_zipf_counts, stream_from_counts, zeta, ZipfSampler};

/// The item type produced by all generators in this crate.
///
/// Algorithms in `hh-counters` / `hh-sketches` are generic over their item
/// type; the experiment harness instantiates them with `Item`.
pub type Item = u64;
