//! The unified heavy-hitters engine (`hh::engine`).
//!
//! The paper's central observation is that FREQUENT, SPACESAVING and their
//! relatives are interchangeable instances of one heavy-tolerant counter
//! abstraction with `(A, B)` tail constants. This module turns that
//! observation into an API: an [`EngineConfig`] picks an algorithm
//! ([`AlgoKind`]) and a space budget ([`CapacitySpec`] — explicit, or
//! derived from `eps`/`k`/`phi` by the paper's sizing theorems), and
//! [`EngineConfig::build`] returns a uniform [`Engine`] handle. Every
//! engine answers the same [`Report`] queries (top-k, φ-heavy hitters with
//! confidence labels, residual estimation, per-item bound intervals),
//! serializes to one portable [`Snapshot`] format, and merges across
//! processes via [`Engine::merge`] (Theorem 11). Weighted streams
//! (Section 6.1) run on the same engine: a weight counted as a whole
//! number of units goes through [`Engine::update_by`], and
//! [`Engine::into_weighted`] marks the engine so its snapshots cannot be
//! mistaken for occurrence counts.
//!
//! ```
//! use hh_sketches::engine::{AlgoKind, EngineConfig};
//!
//! let mut engine = EngineConfig::new(AlgoKind::SpaceSaving)
//!     .counters(8)
//!     .build::<u64>()
//!     .unwrap();
//! engine.update_batch(&[1, 1, 1, 2, 2, 3, 1, 4]);
//!
//! let report = engine.report();
//! let top = report.top_k(1);
//! assert_eq!(top[0].item, 1);
//! // every entry carries a certified (lower, upper) frequency interval
//! assert!(top[0].lower <= 4 && 4 <= top[0].upper);
//! ```

use std::fmt;
use std::hash::Hash;
use std::str::FromStr;

use hh_counters::error::Error;
use hh_counters::heavy_hitters::Confidence;
use hh_counters::recovery;
use hh_counters::topk::zipf_counters_for_topk;
use hh_counters::traits::{Bias, FrequencyEstimator, TailConstants};
use hh_counters::{Frequent, LossyCounting, SpaceSaving, StickySampling};
use serde::{Deserialize, Reader, Serialize};

use crate::count_min::{CountMin, UpdateRule};
use crate::count_sketch::CountSketch;
use crate::topk_tracker::SketchHeavyHitters;

/// Bound alias for item types an engine can track: hashable, orderable,
/// cloneable and sendable (so engines can be sharded across threads).
///
/// Blanket-implemented; `u64`, `String` and friends all qualify.
///
/// ```
/// fn takes_item<I: hh_sketches::engine::EngineItem>(_: I) {}
/// takes_item(42u64);
/// takes_item("flow".to_string());
/// ```
pub trait EngineItem: Eq + Hash + Ord + Clone + Send + 'static {}

impl<T: Eq + Hash + Ord + Clone + Send + 'static> EngineItem for T {}

// ---------------------------------------------------------------------------
// Algorithm selection
// ---------------------------------------------------------------------------

/// The algorithms an [`EngineConfig`] can construct.
///
/// The two headline counter algorithms carry the paper's deterministic
/// `A = B = 1` k-tail guarantee; the remaining four are the comparators the
/// paper measures against (deterministic and randomized counters, and the
/// two sketches wrapped with a heavy-hitter candidate heap).
///
/// ```
/// use hh_sketches::engine::AlgoKind;
///
/// assert_eq!(AlgoKind::ALL.len(), 6);
/// assert_eq!("spacesaving".parse::<AlgoKind>().unwrap(), AlgoKind::SpaceSaving);
/// assert!(AlgoKind::Frequent.is_counter());
/// assert!(!AlgoKind::CountSketch.is_counter());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    /// SPACESAVING (overestimates; `A = B = 1` tail guarantee).
    SpaceSaving,
    /// FREQUENT / Misra–Gries (underestimates; `A = B = 1` tail guarantee).
    Frequent,
    /// LOSSYCOUNTING (underestimates; `εF1` guarantee, floating table).
    LossyCounting,
    /// STICKY SAMPLING (randomized; probabilistic `εF1` guarantee).
    StickySampling,
    /// Count-Min sketch plus a bounded candidate heap for enumeration.
    CountMin,
    /// Count-Sketch plus a bounded candidate heap for enumeration.
    CountSketch,
}

impl AlgoKind {
    /// All engine algorithms, counters first.
    pub const ALL: [AlgoKind; 6] = [
        AlgoKind::SpaceSaving,
        AlgoKind::Frequent,
        AlgoKind::LossyCounting,
        AlgoKind::StickySampling,
        AlgoKind::CountMin,
        AlgoKind::CountSketch,
    ];

    /// Canonical lowercase name (the one [`FromStr`] accepts first).
    ///
    /// ```
    /// assert_eq!(hh_sketches::engine::AlgoKind::CountMin.name(), "countmin");
    /// ```
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::SpaceSaving => "spacesaving",
            AlgoKind::Frequent => "frequent",
            AlgoKind::LossyCounting => "lossycounting",
            AlgoKind::StickySampling => "stickysampling",
            AlgoKind::CountMin => "countmin",
            AlgoKind::CountSketch => "countsketch",
        }
    }

    /// Whether the algorithm stores items explicitly (a counter algorithm)
    /// rather than hashing them into a sketch.
    ///
    /// ```
    /// use hh_sketches::engine::AlgoKind;
    /// assert!(AlgoKind::LossyCounting.is_counter());
    /// assert!(!AlgoKind::CountMin.is_counter());
    /// ```
    pub fn is_counter(self) -> bool {
        !matches!(self, AlgoKind::CountMin | AlgoKind::CountSketch)
    }

    /// The `(A, B)` tail constants proved for the algorithm, if any.
    ///
    /// ```
    /// use hh_sketches::engine::AlgoKind;
    /// assert!(AlgoKind::SpaceSaving.tail_constants().is_some());
    /// assert!(AlgoKind::LossyCounting.tail_constants().is_none());
    /// ```
    pub fn tail_constants(self) -> Option<TailConstants> {
        match self {
            AlgoKind::SpaceSaving | AlgoKind::Frequent => Some(TailConstants::ONE_ONE),
            _ => None,
        }
    }
}

impl fmt::Display for AlgoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AlgoKind {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        match s.to_ascii_lowercase().as_str() {
            "spacesaving" | "space-saving" | "ss" => Ok(AlgoKind::SpaceSaving),
            "frequent" | "misra-gries" | "mg" => Ok(AlgoKind::Frequent),
            "lossycounting" | "lossy-counting" | "lossy" | "lc" => Ok(AlgoKind::LossyCounting),
            "stickysampling" | "sticky-sampling" | "sticky" => Ok(AlgoKind::StickySampling),
            "countmin" | "count-min" | "cm" => Ok(AlgoKind::CountMin),
            "countsketch" | "count-sketch" | "cs" => Ok(AlgoKind::CountSketch),
            other => Err(Error::invalid_config(format!(
                "unknown algorithm {other:?} (expected one of spacesaving, frequent, \
                 lossycounting, stickysampling, countmin, countsketch)"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Capacity sizing
// ---------------------------------------------------------------------------

/// How many counters an engine gets: an explicit budget, or a budget
/// derived from accuracy targets by the paper's sizing results
/// ([`TailConstants::counters_for_sparse_recovery`],
/// [`TailConstants::counters_for_residual_estimate`], Definition 1, and
/// the Theorem 9 Zipf top-k recipe).
///
/// ```
/// use hh_sketches::engine::CapacitySpec;
/// use hh_counters::TailConstants;
///
/// // Theorem 6/7 sizing: m = Bk + Ak/eps = 10 + 100 with A = B = 1.
/// let spec = CapacitySpec::ResidualEstimate { k: 10, eps: 0.1 };
/// assert_eq!(spec.resolve(TailConstants::ONE_ONE, true).unwrap(), 110);
/// // explicit budgets pass through unchanged
/// assert_eq!(CapacitySpec::Counters(64).resolve(TailConstants::ONE_ONE, true).unwrap(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacitySpec {
    /// An explicit counter budget `m ≥ 1`.
    Counters(usize),
    /// Theorem 5 sizing for k-sparse recovery at error `eps`:
    /// `m = k(cA/eps + B)` with `c = 2` for one-sided algorithms, 3
    /// otherwise.
    SparseRecovery {
        /// Sparsity target `k ≥ 1`.
        k: usize,
        /// Relative error `eps ∈ (0, 1)`.
        eps: f64,
    },
    /// Theorem 6/7 sizing for residual estimation and uniform error
    /// `eps·F1^res(k)/k`: `m = Bk + Ak/eps`.
    ResidualEstimate {
        /// Tail parameter `k ≥ 1`.
        k: usize,
        /// Relative error `eps ∈ (0, 1)`.
        eps: f64,
    },
    /// Definition 1 sizing for the φ-heavy-hitters query: `m = ⌈A/phi⌉`
    /// counters keep every estimation error below `phi·F1`.
    HeavyHitters {
        /// Heavy-hitter threshold `phi ∈ (0, 1)`.
        phi: f64,
    },
    /// Theorem 9 sizing: enough counters to recover the top-k of Zipf(α)
    /// data over `n` distinct items in the correct order.
    ZipfTopK {
        /// Ranking depth `k ≥ 1`.
        k: usize,
        /// Zipf skew `alpha ≥ 1`.
        alpha: f64,
        /// Number of distinct items.
        n: usize,
    },
}

impl CapacitySpec {
    /// Resolves the spec to a concrete counter budget using the given tail
    /// constants (`one_sided` selects the tighter Theorem 5 constant).
    ///
    /// ```
    /// use hh_sketches::engine::CapacitySpec;
    /// use hh_counters::TailConstants;
    ///
    /// // Definition 1: phi = 1% needs ceil(A/phi) = 100 counters.
    /// let m = CapacitySpec::HeavyHitters { phi: 0.01 }
    ///     .resolve(TailConstants::ONE_ONE, true)
    ///     .unwrap();
    /// assert_eq!(m, 100);
    /// assert!(CapacitySpec::Counters(0).resolve(TailConstants::ONE_ONE, true).is_err());
    /// ```
    pub fn resolve(&self, constants: TailConstants, one_sided: bool) -> Result<usize, Error> {
        let check_eps = |eps: f64| {
            if eps > 0.0 && eps < 1.0 {
                Ok(())
            } else {
                Err(Error::invalid_config(format!(
                    "eps must be in (0, 1), got {eps}"
                )))
            }
        };
        let check_k = |k: usize| {
            if k >= 1 {
                Ok(())
            } else {
                Err(Error::invalid_config("k must be at least 1"))
            }
        };
        match *self {
            CapacitySpec::Counters(m) => {
                if m >= 1 {
                    Ok(m)
                } else {
                    Err(Error::invalid_config("need at least one counter"))
                }
            }
            CapacitySpec::SparseRecovery { k, eps } => {
                check_k(k)?;
                check_eps(eps)?;
                Ok(constants.counters_for_sparse_recovery(k, eps, one_sided))
            }
            CapacitySpec::ResidualEstimate { k, eps } => {
                check_k(k)?;
                check_eps(eps)?;
                Ok(constants.counters_for_residual_estimate(k, eps))
            }
            CapacitySpec::HeavyHitters { phi } => {
                if !(phi > 0.0 && phi < 1.0) {
                    return Err(Error::invalid_config(format!(
                        "phi must be in (0, 1), got {phi}"
                    )));
                }
                Ok((constants.a / phi).ceil().max(1.0) as usize)
            }
            CapacitySpec::ZipfTopK { k, alpha, n } => {
                check_k(k)?;
                if alpha < 1.0 {
                    return Err(Error::invalid_config(format!(
                        "Theorem 9 sizing requires alpha >= 1, got {alpha}"
                    )));
                }
                Ok(zipf_counters_for_topk(constants, k, alpha, n.max(1)))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Default depth (rows) for Count-Min backends — exported so harnesses
/// that build sketches directly stay in lockstep with the engine.
pub const CM_DEPTH: usize = 4;
/// Default depth (rows) for Count-Sketch backends.
pub const CS_DEPTH: usize = 5;
/// Support and failure parameters used for STICKY SAMPLING backends.
const STICKY_SUPPORT: f64 = 0.01;
const STICKY_DELTA: f64 = 0.1;

/// Builder describing how to construct an [`Engine`].
///
/// ```
/// use hh_sketches::engine::{AlgoKind, CapacitySpec, EngineConfig};
///
/// let config = EngineConfig::new(AlgoKind::Frequent)
///     .capacity(CapacitySpec::ResidualEstimate { k: 8, eps: 0.05 })
///     .seed(7);
/// let engine = config.build::<String>().unwrap();
/// assert_eq!(engine.capacity(), 168); // Bk + Ak/eps = 8 + 160
/// assert_eq!(engine.algo(), AlgoKind::Frequent);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    algo: AlgoKind,
    capacity: CapacitySpec,
    seed: u64,
    rule: UpdateRule,
    depth: Option<usize>,
}

impl EngineConfig {
    /// Starts a config for `algo` with the default budget of 256 counters.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let e = EngineConfig::new(AlgoKind::SpaceSaving).build::<u64>().unwrap();
    /// assert_eq!(e.capacity(), 256);
    /// ```
    pub fn new(algo: AlgoKind) -> Self {
        EngineConfig {
            algo,
            capacity: CapacitySpec::Counters(256),
            seed: 0,
            rule: UpdateRule::Classic,
            depth: None,
        }
    }

    /// The configured algorithm.
    pub fn algo(&self) -> AlgoKind {
        self.algo
    }

    /// Sets an explicit counter budget (shorthand for
    /// [`CapacitySpec::Counters`]).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let e = EngineConfig::new(AlgoKind::SpaceSaving).counters(64).build::<u64>().unwrap();
    /// assert_eq!(e.capacity(), 64);
    /// ```
    pub fn counters(mut self, m: usize) -> Self {
        self.capacity = CapacitySpec::Counters(m);
        self
    }

    /// Sets the capacity from any [`CapacitySpec`].
    pub fn capacity(mut self, spec: CapacitySpec) -> Self {
        self.capacity = spec;
        self
    }

    /// Sizes the engine for residual-error target `eps` at tail parameter
    /// `k` (shorthand for [`CapacitySpec::ResidualEstimate`] — the sizing
    /// behind the CLI's `--eps` flag).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let e = EngineConfig::new(AlgoKind::SpaceSaving).error_rate(0.1, 10).build::<u64>().unwrap();
    /// assert_eq!(e.capacity(), 110);
    /// ```
    pub fn error_rate(mut self, eps: f64, k: usize) -> Self {
        self.capacity = CapacitySpec::ResidualEstimate { k, eps };
        self
    }

    /// Sizes the engine to answer φ-heavy-hitter queries at threshold
    /// `phi` (shorthand for [`CapacitySpec::HeavyHitters`]).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let e = EngineConfig::new(AlgoKind::Frequent).heavy_hitter_phi(0.02).build::<u64>().unwrap();
    /// assert_eq!(e.capacity(), 50);
    /// ```
    pub fn heavy_hitter_phi(mut self, phi: f64) -> Self {
        self.capacity = CapacitySpec::HeavyHitters { phi };
        self
    }

    /// Sizes the engine by the Theorem 9 Zipf top-k recipe (shorthand for
    /// [`CapacitySpec::ZipfTopK`]).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let e = EngineConfig::new(AlgoKind::Frequent)
    ///     .zipf_top_k(10, 1.4, 20_000)
    ///     .build::<u64>()
    ///     .unwrap();
    /// assert!(e.capacity() > 10);
    /// ```
    pub fn zipf_top_k(mut self, k: usize, alpha: f64, n: usize) -> Self {
        self.capacity = CapacitySpec::ZipfTopK { k, alpha, n };
        self
    }

    /// Seeds the randomized backends (sticky sampling's coin flips, the
    /// sketches' hash families). Deterministic backends ignore it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switches Count-Min to conservative (Estan–Varghese) updates.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let e = EngineConfig::new(AlgoKind::CountMin).conservative(true).build::<u64>().unwrap();
    /// assert_eq!(e.name(), "CountMin(CU)");
    /// ```
    pub fn conservative(mut self, conservative: bool) -> Self {
        self.rule = if conservative {
            UpdateRule::Conservative
        } else {
            UpdateRule::Classic
        };
        self
    }

    /// Overrides the sketch depth (rows). Ignored by counter algorithms.
    pub fn sketch_depth(mut self, depth: usize) -> Self {
        self.depth = Some(depth);
        self
    }

    /// The concrete counter budget this config resolves to (the sizing the
    /// build will use).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let c = EngineConfig::new(AlgoKind::SpaceSaving).error_rate(0.01, 10);
    /// assert_eq!(c.resolved_counters().unwrap(), 1010);
    /// ```
    pub fn resolved_counters(&self) -> Result<usize, Error> {
        let constants = self.algo.tail_constants().unwrap_or(TailConstants::GENERIC);
        // Sketch budgets are sized with the generic constants too; the
        // one-sided discount only applies to the counter algorithms.
        let one_sided = self.algo.is_counter();
        self.capacity.resolve(constants, one_sided)
    }

    /// Builds the configured engine.
    ///
    /// Fails with [`Error::InvalidConfig`] on a bad capacity spec, or on a
    /// sketch budget too small to split between cells and candidate slots.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    ///
    /// for algo in AlgoKind::ALL {
    ///     let mut e = EngineConfig::new(algo).counters(128).seed(3).build::<u64>().unwrap();
    ///     e.update_batch(&[1, 1, 2]);
    ///     assert_eq!(e.stream_len(), 3);
    /// }
    /// ```
    pub fn build<I: EngineItem>(&self) -> Result<Engine<I>, Error> {
        let budget = self.resolved_counters()?;
        let backend = match self.algo {
            AlgoKind::SpaceSaving => Backend::SpaceSaving(SpaceSaving::new(budget)),
            AlgoKind::Frequent => Backend::Frequent(Frequent::new(budget)),
            AlgoKind::LossyCounting => {
                Backend::LossyCounting(LossyCounting::with_width(budget as u64))
            }
            AlgoKind::StickySampling => Backend::StickySampling(StickySampling::new(
                1.0 / (budget.max(2)) as f64,
                STICKY_SUPPORT,
                STICKY_DELTA,
                self.seed | 1,
            )),
            AlgoKind::CountMin => {
                let (cells, candidates) = split_sketch_budget(budget)?;
                let depth = self.depth.unwrap_or(CM_DEPTH);
                Backend::CountMin(SketchHeavyHitters::new(
                    CountMin::with_budget(cells.max(depth), depth, self.seed, self.rule),
                    candidates,
                ))
            }
            AlgoKind::CountSketch => {
                let (cells, candidates) = split_sketch_budget(budget)?;
                let depth = self.depth.unwrap_or(CS_DEPTH);
                Backend::CountSketch(SketchHeavyHitters::new(
                    CountSketch::with_budget(cells.max(depth), depth, self.seed),
                    candidates,
                ))
            }
        };
        Ok(Engine::with_backend(backend, false))
    }
}

/// Splits a sketch's total budget into (cells, candidate slots), charging
/// a tenth (at least 16 slots) for the candidate heap a sketch needs to
/// enumerate heavy hitters at all.
fn split_sketch_budget(budget: usize) -> Result<(usize, usize), Error> {
    if budget < 16 {
        return Err(Error::invalid_config(format!(
            "sketch budgets below 16 cells are meaningless, got {budget}"
        )));
    }
    let candidates = (budget / 10).max(16).min(budget / 2);
    Ok((budget - candidates, candidates))
}

// ---------------------------------------------------------------------------
// Snapshot wire format
// ---------------------------------------------------------------------------

/// Wire state of a SPACESAVING backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpaceSavingState<I> {
    /// Counter capacity `m`.
    pub capacity: usize,
    /// Total stream length consumed.
    pub stream_len: u64,
    /// Upper-bound slack accumulated from prior merges (donor `Δ`s).
    pub absorbed_slack: u64,
    /// Stored `(item, count, err)` triples in descending count order.
    pub entries: Vec<(I, u64, u64)>,
}

/// Wire state of a FREQUENT backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequentState<I> {
    /// Counter capacity `m`.
    pub capacity: usize,
    /// Total stream length consumed.
    pub stream_len: u64,
    /// Decrement rounds performed.
    pub decrements: u64,
    /// Stored `(item, logical value)` pairs in descending order.
    pub entries: Vec<(I, u64)>,
}

/// Wire state of a LOSSYCOUNTING backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossyCountingState<I> {
    /// Window width `w = ⌈1/ε⌉`.
    pub width: u64,
    /// Current window id.
    pub window: u64,
    /// Total stream length consumed.
    pub stream_len: u64,
    /// Table-size high-water mark.
    pub max_table: usize,
    /// Stored `(item, count, delta)` triples.
    pub entries: Vec<(I, u64, u64)>,
}

/// Wire state of a STICKY SAMPLING backend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StickySamplingState<I> {
    /// Error parameter ε.
    pub epsilon: f64,
    /// Window parameter `w`.
    pub window: u64,
    /// Current sampling rate.
    pub rate: u64,
    /// Arrivals remaining until the next rate doubling.
    pub until_double: u64,
    /// PRNG state word.
    pub rng_state: u64,
    /// Total stream length consumed.
    pub stream_len: u64,
    /// Table-size high-water mark.
    pub max_table: usize,
    /// Stored `(item, count)` pairs.
    pub entries: Vec<(I, u64)>,
}

/// Wire state of a Count-Min backend (sketch cells plus candidate heap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountMinState<I> {
    /// Rows `d`.
    pub depth: usize,
    /// Columns `w`.
    pub width: usize,
    /// Hash-family seed.
    pub seed: u64,
    /// Whether conservative updates are in force.
    pub conservative: bool,
    /// Total stream length consumed.
    pub stream_len: u64,
    /// The `d × w` cells, row-major.
    pub cells: Vec<u64>,
    /// Tracked candidate items.
    pub candidates: Vec<I>,
    /// Candidate slots.
    pub cap: usize,
}

/// Revision of Count-Sketch's seed→layout derivation. Bumped when the
/// hash family changes (rev 2: the folded single-polynomial bucket+sign
/// evaluation), so a snapshot captured under a different derivation fails
/// loudly instead of silently rehydrating into wrong cell positions.
pub const CS_HASH_REV: u32 = 2;

/// Wire state of a Count-Sketch backend (signed cells plus candidate heap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountSketchState<I> {
    /// Rows `d`.
    pub depth: usize,
    /// Columns `w`.
    pub width: usize,
    /// Hash-family seed.
    pub seed: u64,
    /// Hash-derivation revision the cells were produced under
    /// ([`CS_HASH_REV`]); mismatches are rejected at restore/merge time.
    /// (Snapshots from before this field existed fail to deserialize —
    /// their cells came from the old two-polynomial family and cannot be
    /// interpreted by this build either.)
    pub hash_rev: u32,
    /// Total stream length consumed.
    pub stream_len: u64,
    /// The `d × w` signed cells, row-major.
    pub cells: Vec<i64>,
    /// Tracked candidate items.
    pub candidates: Vec<I>,
    /// Candidate slots.
    pub cap: usize,
}

/// The single portable snapshot format covering every engine backend.
///
/// A snapshot round-trips through JSON (or any serde format) and
/// rehydrates — via [`Engine::from_snapshot`] — into an engine whose estimates,
/// bounds and tie-breaking state are identical to the captured one's.
/// Snapshots are also the merge currency: [`Engine::merge_snapshot`]
/// absorbs a snapshot produced by another process.
///
/// ```
/// use hh_sketches::engine::{AlgoKind, Engine, EngineConfig, Snapshot};
///
/// let mut e = EngineConfig::new(AlgoKind::SpaceSaving).counters(4).build::<u64>().unwrap();
/// e.update_batch(&[1, 1, 2, 3]);
/// let json = serde_json::to_string(&e.snapshot()).unwrap();
/// let back: Snapshot<u64> = serde_json::from_str(&json).unwrap();
/// assert_eq!(back.algo(), AlgoKind::SpaceSaving);
/// let restored = Engine::from_snapshot(back).unwrap();
/// assert_eq!(restored.estimate(&1), e.estimate(&1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Snapshot<I> {
    /// SPACESAVING state.
    SpaceSaving(SpaceSavingState<I>),
    /// FREQUENT state.
    Frequent(FrequentState<I>),
    /// LOSSYCOUNTING state.
    LossyCounting(LossyCountingState<I>),
    /// STICKY SAMPLING state.
    StickySampling(StickySamplingState<I>),
    /// Count-Min state.
    CountMin(CountMinState<I>),
    /// Count-Sketch state.
    CountSketch(CountSketchState<I>),
    /// SPACESAVING state over weights (see [`Engine::into_weighted`]).
    WeightedSpaceSaving(SpaceSavingState<I>),
    /// FREQUENT state over weights (see [`Engine::into_weighted`]).
    WeightedFrequent(FrequentState<I>),
}

impl<I> Snapshot<I> {
    /// The algorithm the snapshot came from (weighted snapshots report
    /// their algorithm's [`AlgoKind`]).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let e = EngineConfig::new(AlgoKind::Frequent).counters(4).build::<u64>().unwrap();
    /// assert_eq!(e.snapshot().algo(), AlgoKind::Frequent);
    /// ```
    pub fn algo(&self) -> AlgoKind {
        match self {
            Snapshot::SpaceSaving(_) | Snapshot::WeightedSpaceSaving(_) => AlgoKind::SpaceSaving,
            Snapshot::Frequent(_) | Snapshot::WeightedFrequent(_) => AlgoKind::Frequent,
            Snapshot::LossyCounting(_) => AlgoKind::LossyCounting,
            Snapshot::StickySampling(_) => AlgoKind::StickySampling,
            Snapshot::CountMin(_) => AlgoKind::CountMin,
            Snapshot::CountSketch(_) => AlgoKind::CountSketch,
        }
    }

    /// Whether this is a weighted (Section 6.1) snapshot.
    pub fn is_weighted(&self) -> bool {
        matches!(
            self,
            Snapshot::WeightedSpaceSaving(_) | Snapshot::WeightedFrequent(_)
        )
    }

    fn tag(&self) -> &'static str {
        snapshot_tag(self.algo(), self.is_weighted())
    }
}

// The vendored serde derive handles plain structs only, so the enum's
// externally-tagged encoding ({"algo": tag, "state": {...}}) is written by
// hand on top of the derived per-variant state impls.
impl<I: Serialize> Serialize for Snapshot<I> {
    fn serialize(&self, out: &mut String) {
        out.push_str("{\"algo\":");
        self.tag().serialize(out);
        out.push_str(",\"state\":");
        match self {
            Snapshot::SpaceSaving(s) | Snapshot::WeightedSpaceSaving(s) => s.serialize(out),
            Snapshot::Frequent(s) | Snapshot::WeightedFrequent(s) => s.serialize(out),
            Snapshot::LossyCounting(s) => s.serialize(out),
            Snapshot::StickySampling(s) => s.serialize(out),
            Snapshot::CountMin(s) => s.serialize(out),
            Snapshot::CountSketch(s) => s.serialize(out),
        }
        out.push('}');
    }
}

impl<I: Deserialize> Snapshot<I> {
    /// Reads the `state` member of the snapshot tagged `tag`.
    fn read_state(r: &mut Reader<'_>, tag: &str) -> Result<Self, serde::Error> {
        match tag {
            "space_saving" => Ok(Snapshot::SpaceSaving(Deserialize::deserialize(r)?)),
            "frequent" => Ok(Snapshot::Frequent(Deserialize::deserialize(r)?)),
            "lossy_counting" => Ok(Snapshot::LossyCounting(Deserialize::deserialize(r)?)),
            "sticky_sampling" => Ok(Snapshot::StickySampling(Deserialize::deserialize(r)?)),
            "count_min" => Ok(Snapshot::CountMin(Deserialize::deserialize(r)?)),
            "count_sketch" => Ok(Snapshot::CountSketch(Deserialize::deserialize(r)?)),
            "space_saving_weighted" => {
                Ok(Snapshot::WeightedSpaceSaving(Deserialize::deserialize(r)?))
            }
            "frequent_weighted" => Ok(Snapshot::WeightedFrequent(Deserialize::deserialize(r)?)),
            // Earlier releases stored weights as `f64`, where an integral
            // weight prints as `10`: read as units it would be off by the
            // unit's scale, so these files are refused, not converted.
            "space_saving_r" | "frequent_r" => Err(Error::corrupt_snapshot(format!(
                "{tag} snapshots hold floating-point weights from an earlier release; \
                 re-ingest the stream to get a snapshot in whole weight units"
            ))
            .into()),
            other => Err(serde::Error::custom(format!(
                "unknown snapshot algo tag {other:?}"
            ))),
        }
    }
}

impl<I: Deserialize> Deserialize for Snapshot<I> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        let mut tag = None;
        let mut snapshot = None;
        // The text of a `state` that came before its tag, read once the
        // tag is known.
        let mut early_state = None;
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "algo" if tag.is_none() => tag = Some(r.string()?),
                "state" if snapshot.is_none() && early_state.is_none() => match &tag {
                    Some(tag) => snapshot = Some(Self::read_state(r, tag)?),
                    None => early_state = Some(r.skip_value()?),
                },
                "algo" | "state" => return Err(serde::Error::duplicate_field(&key)),
                _ => {
                    r.skip_value()?;
                }
            }
        }
        let tag = tag.ok_or_else(|| serde::Error::missing_field("algo"))?;
        match (snapshot, early_state) {
            (Some(snapshot), _) => Ok(snapshot),
            (None, Some(text)) => Self::read_state(&mut r.nested(text), &tag),
            (None, None) => Err(serde::Error::missing_field("state")),
        }
    }
}

fn mismatch<I>(expected: &'static str, found: &Snapshot<I>) -> Error {
    Error::SnapshotMismatch {
        expected: expected.to_string(),
        found: found.tag().to_string(),
    }
}

/// The wire tag of the snapshot an `algo` backend captures.
fn snapshot_tag(algo: AlgoKind, weighted: bool) -> &'static str {
    match algo {
        AlgoKind::SpaceSaving if weighted => "space_saving_weighted",
        AlgoKind::SpaceSaving => "space_saving",
        AlgoKind::Frequent if weighted => "frequent_weighted",
        AlgoKind::Frequent => "frequent",
        AlgoKind::LossyCounting => "lossy_counting",
        AlgoKind::StickySampling => "sticky_sampling",
        AlgoKind::CountMin => "count_min",
        AlgoKind::CountSketch => "count_sketch",
    }
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// The closed set of backends an [`Engine`] runs. An enum rather than a
/// trait object: every call is one `match`, which the compiler can
/// inline into the caller.
#[derive(Clone)]
enum Backend<I: EngineItem> {
    SpaceSaving(SpaceSaving<I>),
    Frequent(Frequent<I>),
    LossyCounting(LossyCounting<I>),
    StickySampling(StickySampling<I>),
    CountMin(SketchHeavyHitters<I, CountMin<I>>),
    CountSketch(SketchHeavyHitters<I, CountSketch<I>>),
}

/// Evaluates `$body` with `$b` bound to whichever `Backend` `$on` holds.
macro_rules! each_backend {
    ($on:expr, $b:ident => $body:expr) => {
        match $on {
            Backend::SpaceSaving($b) => $body,
            Backend::Frequent($b) => $body,
            Backend::LossyCounting($b) => $body,
            Backend::StickySampling($b) => $body,
            Backend::CountMin($b) => $body,
            Backend::CountSketch($b) => $body,
        }
    };
}

/// Rebuilds a Count-Min backend from its wire state (rehydration and
/// merge share it).
fn count_min_from<I: EngineItem>(
    s: CountMinState<I>,
) -> Result<SketchHeavyHitters<I, CountMin<I>>, Error> {
    let rule = if s.conservative {
        UpdateRule::Conservative
    } else {
        UpdateRule::Classic
    };
    let sketch = CountMin::from_parts(s.depth, s.width, s.seed, rule, s.stream_len, s.cells)?;
    SketchHeavyHitters::from_parts(sketch, s.candidates, s.cap)
}

/// Rebuilds a Count-Sketch backend from its wire state (rehydration and
/// merge share it).
fn count_sketch_from<I: EngineItem>(
    s: CountSketchState<I>,
) -> Result<SketchHeavyHitters<I, CountSketch<I>>, Error> {
    // The seed alone cannot tell hash derivations apart, and cells from
    // another derivation silently corrupt every estimate.
    if s.hash_rev != CS_HASH_REV {
        return Err(Error::corrupt_snapshot(format!(
            "count_sketch snapshot uses hash derivation rev {}, this build uses rev \
             {CS_HASH_REV}; re-capture the snapshot with a matching build",
            s.hash_rev
        )));
    }
    let sketch = CountSketch::from_parts(s.depth, s.width, s.seed, s.stream_len, s.cells)?;
    SketchHeavyHitters::from_parts(sketch, s.candidates, s.cap)
}

// ---------------------------------------------------------------------------
// The engine handle
// ---------------------------------------------------------------------------

/// Ingest-side accounting an [`Engine`] keeps as it consumes its stream.
///
/// Plain (non-atomic) `u64`s: an engine is single-owner on its ingest
/// path, so the counters are branch-free adds that cost nothing
/// measurable next to the backend work — they are always on, not feature
/// gated. `occurrences` tracks weighted arrivals (an `update_by(x, 5)`
/// adds 5), so after pure ingest it equals [`Engine::stream_len`];
/// unlike `stream_len` it is **not** carried across
/// snapshot/merge/rehydration — it counts what *this* engine instance
/// ingested locally, which is exactly what runtime telemetry wants
/// (see [`crate::pipeline::PipelineStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Occurrences ingested locally (weighted: `update_by` adds `count`).
    pub occurrences: u64,
    /// Single-item calls (`update` / `update_by`).
    pub calls: u64,
    /// Slices consumed via `update_batch`.
    pub batches: u64,
}

/// A uniform handle over any configured backend.
///
/// The six backends form a closed enum, so every call dispatches through
/// one `match` the compiler can inline — no virtual call. `Engine`
/// itself implements [`FrequencyEstimator`], so everything in the
/// workspace that is generic over estimators — `check_tail`, `k_sparse`,
/// `merge_k_sparse`, `TopKMonitor` — drives engines unchanged.
///
/// ```
/// use hh_sketches::engine::{AlgoKind, EngineConfig};
/// use hh_counters::FrequencyEstimator;
///
/// let mut e = EngineConfig::new(AlgoKind::Frequent).counters(8).build().unwrap();
/// e.update("the".to_string());
/// e.update("the".to_string());
/// assert_eq!(e.estimate(&"the".to_string()), 2);
/// assert_eq!(e.stored_len(), 1);
/// ```
#[derive(Clone)]
pub struct Engine<I: EngineItem> {
    backend: Backend<I>,
    ingest: IngestStats,
    /// Occurrences known to exist in the true stream but never ingested
    /// (e.g. a crashed pipeline shard's unsnapshotted in-queue mass, see
    /// [`Engine::add_unobserved`]). Widens every upper bound and `F1`.
    unobserved: u64,
    /// Whether the counts are weights (see [`Engine::into_weighted`]).
    weighted: bool,
}

impl<I: EngineItem> fmt::Debug for Engine<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("algo", &self.algo())
            .field("capacity", &self.capacity())
            .field("stored_len", &self.stored_len())
            .field("stream_len", &self.stream_len())
            .field("unobserved", &self.unobserved)
            .field("weighted", &self.weighted)
            .finish()
    }
}

impl<I: EngineItem> Engine<I> {
    fn with_backend(backend: Backend<I>, weighted: bool) -> Self {
        Engine {
            backend,
            ingest: IngestStats::default(),
            unobserved: 0,
            weighted,
        }
    }

    /// Marks the engine's counts as weights (Section 6.1): every
    /// `update_by(item, w)` adds a weight of `w` whole units, whose scale
    /// only the caller knows (the `hh` CLI counts thousandths). Theorem 10
    /// keeps SPACESAVING's and FREQUENT's `A = B = 1` tail bound over any
    /// non-negative weights, so the counting, merging and [`Report`] are
    /// the ones counts use; only the snapshot tag differs, so a weighted
    /// snapshot and a count snapshot never merge into one another.
    ///
    /// Fails with [`Error::Unsupported`] for the other algorithms:
    /// LOSSYCOUNTING's and STICKY SAMPLING's `update_by` costs O(weight),
    /// and the sketches have no weighted snapshot.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, Engine, EngineConfig};
    ///
    /// let mut e = EngineConfig::new(AlgoKind::SpaceSaving)
    ///     .counters(16)
    ///     .build::<u64>()
    ///     .unwrap()
    ///     .into_weighted()
    ///     .unwrap();
    /// e.update_by(7, 2_500); // 2.5 in thousandths
    /// let back = Engine::from_snapshot(e.snapshot()).unwrap();
    /// assert_eq!((back.estimate(&7), back.is_weighted()), (2_500, true));
    /// assert!(EngineConfig::new(AlgoKind::CountMin)
    ///     .build::<u64>()
    ///     .unwrap()
    ///     .into_weighted()
    ///     .is_err());
    /// ```
    pub fn into_weighted(mut self) -> Result<Self, Error> {
        match self.algo() {
            AlgoKind::SpaceSaving | AlgoKind::Frequent => {
                self.weighted = true;
                Ok(self)
            }
            other => Err(Error::Unsupported {
                algo: other.name().to_string(),
                operation: "weighted updates",
            }),
        }
    }

    /// Whether the counts are weights (see [`Engine::into_weighted`]).
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// The algorithm this engine runs.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let e = EngineConfig::new(AlgoKind::CountSketch).counters(64).build::<u64>().unwrap();
    /// assert_eq!(e.algo(), AlgoKind::CountSketch);
    /// ```
    pub fn algo(&self) -> AlgoKind {
        match self.backend {
            Backend::SpaceSaving(_) => AlgoKind::SpaceSaving,
            Backend::Frequent(_) => AlgoKind::Frequent,
            Backend::LossyCounting(_) => AlgoKind::LossyCounting,
            Backend::StickySampling(_) => AlgoKind::StickySampling,
            Backend::CountMin(_) => AlgoKind::CountMin,
            Backend::CountSketch(_) => AlgoKind::CountSketch,
        }
    }

    /// Short human-readable backend name (e.g. `"SpaceSaving"`,
    /// `"CountMin(CU)"`).
    pub fn name(&self) -> &'static str {
        each_backend!(&self.backend, b => b.name())
    }

    /// The space budget `m` the backend was built with (for sketches:
    /// cells plus candidate slots).
    pub fn capacity(&self) -> usize {
        each_backend!(&self.backend, b => b.capacity())
    }

    /// Processes one occurrence of `item`.
    pub fn update(&mut self, item: I) {
        self.ingest.occurrences += 1;
        self.ingest.calls += 1;
        each_backend!(&mut self.backend, b => b.update(item))
    }

    /// Processes `count` occurrences of `item` at once.
    pub fn update_by(&mut self, item: I, count: u64) {
        self.ingest.occurrences += count;
        self.ingest.calls += 1;
        each_backend!(&mut self.backend, b => b.update_by(item, count))
    }

    /// Processes a slice of arrivals through the backend's batched fast
    /// path.
    ///
    /// Every backend routes this through a pre-aggregation step over a
    /// backend-owned reusable scratch buffer (no per-batch allocation):
    /// commutative sketches collapse the batch to one weighted update per
    /// distinct item, order-sensitive backends collapse adjacent runs —
    /// the strongest aggregation that preserves their exact per-element
    /// semantics.
    pub fn update_batch(&mut self, items: &[I]) {
        self.ingest.occurrences += items.len() as u64;
        self.ingest.batches += 1;
        each_backend!(&mut self.backend, b => b.update_batch(items))
    }

    /// This engine instance's local ingest accounting (see
    /// [`IngestStats`] for what "local" excludes).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::SpaceSaving).counters(8).build::<u64>().unwrap();
    /// e.update_batch(&[1, 1, 2]);
    /// e.update_by(7, 5);
    /// let stats = e.ingest_stats();
    /// assert_eq!(stats.occurrences, 8);
    /// assert_eq!(stats.batches, 1);
    /// assert_eq!(stats.calls, 1);
    /// ```
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest
    }

    /// The backend's point estimate `c_i` (0 for unstored items).
    pub fn estimate(&self, item: &I) -> u64 {
        each_backend!(&self.backend, b => b.estimate(item))
    }

    /// Number of items currently stored.
    pub fn stored_len(&self) -> usize {
        each_backend!(&self.backend, b => b.stored_len())
    }

    /// Stored `(item, estimate)` pairs, sorted by decreasing estimate.
    /// Ties keep SpaceSaving's and Frequent's bucket order; every other
    /// backend lists them by item, so an engine rebuilt from its snapshot
    /// lists the same rows in the same order.
    pub fn entries(&self) -> Vec<(I, u64)> {
        let mut out = Vec::new();
        self.top_entries_into(usize::MAX, &mut out);
        out
    }

    /// Total stream length accounted for so far (`F1`): occurrences the
    /// backend consumed plus any [unobserved mass](Engine::add_unobserved).
    pub fn stream_len(&self) -> u64 {
        each_backend!(&self.backend, b => b.stream_len()).saturating_add(self.unobserved)
    }

    /// Charges `mass` occurrences that are known to exist in the true
    /// stream but were never delivered to any backend — the loss-accounting
    /// primitive behind supervised shard recovery: when a pipeline shard
    /// dies, the items shipped to it since its restore point are gone,
    /// and a recovered merged view stays *sound* by assuming every one of
    /// them could have been any single item.
    ///
    /// Concretely, `stream_len`, every [`upper_estimate`] and every
    /// [`error_term`] grow by `mass` while point and lower estimates are
    /// untouched, so certified `(lower, upper)` intervals still bracket
    /// the true counts (the Theorem 11 `(3A, A+B)` certificate degrades
    /// by at most the lost mass, never silently). The mass is engine-local
    /// bookkeeping: it is **not** carried by [`Engine::snapshot`] —
    /// callers persisting a lossy engine must persist it alongside (the
    /// checkpoint envelope in `hh-net` does).
    ///
    /// [`upper_estimate`]: FrequencyEstimator::upper_estimate
    /// [`error_term`]: FrequencyEstimator::error_term
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// use hh_counters::FrequencyEstimator;
    /// let mut e = EngineConfig::new(AlgoKind::SpaceSaving).counters(8).build::<u64>().unwrap();
    /// e.update_batch(&[1, 1, 2]);
    /// e.add_unobserved(5);
    /// assert_eq!(e.stream_len(), 8);
    /// assert_eq!(e.lower_estimate(&1), 2);
    /// assert_eq!(e.upper_estimate(&1), 7); // 1 may hide in the lost mass
    /// assert_eq!(e.unobserved(), 5);
    /// ```
    pub fn add_unobserved(&mut self, mass: u64) {
        self.unobserved = self.unobserved.saturating_add(mass);
    }

    /// The unobserved mass charged so far (see [`Engine::add_unobserved`]).
    pub fn unobserved(&self) -> u64 {
        self.unobserved
    }

    /// The backend's bias direction.
    pub fn bias(&self) -> Bias {
        each_backend!(&self.backend, b => b.bias())
    }

    /// The `(A, B)` tail constants proved for the backend, if any.
    pub fn tail_constants(&self) -> Option<TailConstants> {
        each_backend!(&self.backend, b => b.tail_constants())
    }

    /// The unified query surface over this engine's current state.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::SpaceSaving).counters(8).build::<u64>().unwrap();
    /// e.update_batch(&[5, 5, 5, 9]);
    /// assert_eq!(e.report().top_k(1)[0].item, 5);
    /// ```
    pub fn report(&self) -> Report<'_, I> {
        Report::over(self)
    }

    /// Captures the engine's full state as a portable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot<I> {
        match &self.backend {
            Backend::SpaceSaving(b) => {
                let state = SpaceSavingState {
                    capacity: b.capacity(),
                    stream_len: b.stream_len(),
                    absorbed_slack: b.absorbed_slack(),
                    entries: b.entries_with_err(),
                };
                if self.weighted {
                    Snapshot::WeightedSpaceSaving(state)
                } else {
                    Snapshot::SpaceSaving(state)
                }
            }
            Backend::Frequent(b) => {
                let state = FrequentState {
                    capacity: b.capacity(),
                    stream_len: b.stream_len(),
                    decrements: b.decrements(),
                    entries: b.entries(),
                };
                if self.weighted {
                    Snapshot::WeightedFrequent(state)
                } else {
                    Snapshot::Frequent(state)
                }
            }
            Backend::LossyCounting(b) => Snapshot::LossyCounting(LossyCountingState {
                width: b.width(),
                window: b.window(),
                stream_len: b.stream_len(),
                max_table: b.max_table_len(),
                entries: b.entries_with_delta(),
            }),
            Backend::StickySampling(b) => Snapshot::StickySampling(StickySamplingState {
                epsilon: b.epsilon(),
                window: b.window(),
                rate: b.rate(),
                until_double: b.until_double(),
                rng_state: b.rng_state(),
                stream_len: b.stream_len(),
                max_table: b.max_table_len(),
                entries: b.entries(),
            }),
            Backend::CountMin(b) => {
                let sketch = b.sketch();
                Snapshot::CountMin(CountMinState {
                    depth: sketch.depth(),
                    width: sketch.width(),
                    seed: sketch.seed(),
                    conservative: sketch.rule() == UpdateRule::Conservative,
                    stream_len: sketch.stream_len(),
                    cells: sketch.cells().to_vec(),
                    candidates: b.candidate_items(),
                    cap: b.candidate_cap(),
                })
            }
            Backend::CountSketch(b) => {
                let sketch = b.sketch();
                Snapshot::CountSketch(CountSketchState {
                    depth: sketch.depth(),
                    width: sketch.width(),
                    seed: sketch.seed(),
                    hash_rev: CS_HASH_REV,
                    stream_len: sketch.stream_len(),
                    cells: sketch.cells().to_vec(),
                    candidates: b.candidate_items(),
                    cap: b.candidate_cap(),
                })
            }
        }
    }

    /// Rehydrates an engine from a snapshot; the restored engine answers
    /// every query identically to the captured one and continues the
    /// stream bit-identically.
    ///
    /// A weighted snapshot gives a weighted engine. Fails with
    /// [`Error::CorruptSnapshot`] on inconsistent state.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, Engine, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::LossyCounting).counters(8).build::<u64>().unwrap();
    /// e.update_batch(&[1, 1, 2]);
    /// let restored = Engine::from_snapshot(e.snapshot()).unwrap();
    /// assert_eq!(restored.estimate(&1), 2);
    /// ```
    pub fn from_snapshot(snap: Snapshot<I>) -> Result<Self, Error> {
        let weighted = snap.is_weighted();
        let backend = match snap {
            Snapshot::SpaceSaving(s) | Snapshot::WeightedSpaceSaving(s) => Backend::SpaceSaving(
                SpaceSaving::from_parts(s.capacity, s.stream_len, s.absorbed_slack, s.entries)?,
            ),
            Snapshot::Frequent(s) | Snapshot::WeightedFrequent(s) => Backend::Frequent(
                Frequent::from_parts(s.capacity, s.stream_len, s.decrements, s.entries)?,
            ),
            Snapshot::LossyCounting(s) => Backend::LossyCounting(LossyCounting::from_parts(
                s.width,
                s.window,
                s.stream_len,
                s.max_table,
                s.entries,
            )?),
            Snapshot::StickySampling(s) => Backend::StickySampling(StickySampling::from_parts(
                s.epsilon,
                s.window,
                s.rate,
                s.until_double,
                s.rng_state,
                s.stream_len,
                s.max_table,
                s.entries,
            )?),
            Snapshot::CountMin(s) => Backend::CountMin(count_min_from(s)?),
            Snapshot::CountSketch(s) => Backend::CountSketch(count_sketch_from(s)?),
        };
        Ok(Engine::with_backend(backend, weighted))
    }

    /// Absorbs a snapshot produced elsewhere (another process, an earlier
    /// run) into this engine — the cross-process merge primitive.
    ///
    /// Counter backends replay the snapshot's stored counters (the
    /// full-replay variant of Theorem 11's merge, so two merged `(A, B)`
    /// summaries keep a `(3A, A+B)` tail guarantee) while folding in the
    /// donor's bound bookkeeping — SPACESAVING error annotations, FREQUENT
    /// decrement rounds, LOSSYCOUNTING deltas — so per-item `(lower,
    /// upper)` intervals stay sound after the merge and `stream_len`
    /// reports the true combined `F1`. STICKY SAMPLING merges by O(m)
    /// table union; sketch backends add cell-wise and re-rank the
    /// candidate union. Fails with [`Error::SnapshotMismatch`] when
    /// algorithms (or sketch shapes) differ or only one side is
    /// [weighted](Engine::into_weighted), and with [`Error::Overflow`]
    /// when the combined counter bookkeeping would exceed `u64::MAX`.
    pub fn merge_snapshot(&mut self, snap: &Snapshot<I>) -> Result<(), Error> {
        let expected = snapshot_tag(self.algo(), self.weighted);
        if snap.is_weighted() != self.weighted {
            return Err(mismatch(expected, snap));
        }
        match (&mut self.backend, snap) {
            // replay the counters carrying their overcount bounds (sound
            // lower bounds) and widen the upper-bound slack by the donor's
            // Δ (sound upper bounds for items the donor did not store)
            (
                Backend::SpaceSaving(b),
                Snapshot::SpaceSaving(s) | Snapshot::WeightedSpaceSaving(s),
            ) => b.absorb_parts(&s.entries, s.capacity, s.absorbed_slack)?,
            // replay the counters and fold in the donor's decrement rounds
            // and unstored stream mass, keeping upper bounds and F1 sound
            (Backend::Frequent(b), Snapshot::Frequent(s) | Snapshot::WeightedFrequent(s)) => {
                b.absorb_parts(&s.entries, s.decrements, s.stream_len)?
            }
            // Manku–Motwani distributed merge: counts and deltas add, the
            // absent side contributing its window bound
            (Backend::LossyCounting(b), Snapshot::LossyCounting(s)) => {
                b.absorb_parts(s.entries.clone(), s.window, s.stream_len)?
            }
            // O(m) table union — replaying through the sampler would cost
            // O(total count) coin flips and re-thin the donor's sample
            (Backend::StickySampling(b), Snapshot::StickySampling(s)) => {
                b.absorb_parts(s.entries.clone(), s.stream_len)?
            }
            (Backend::CountMin(b), Snapshot::CountMin(s)) => {
                b.merge_from(&count_min_from(s.clone())?, |a, b| a.merge_from(b))?
            }
            (Backend::CountSketch(b), Snapshot::CountSketch(s)) => {
                b.merge_from(&count_sketch_from(s.clone())?, |a, b| a.merge_from(b))?
            }
            (_, snap) => return Err(mismatch(expected, snap)),
        }
        Ok(())
    }

    /// Merges another engine of the same configuration into this one (see
    /// [`Engine::merge_snapshot`]).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let config = EngineConfig::new(AlgoKind::SpaceSaving).counters(8);
    /// let mut a = config.build::<u64>().unwrap();
    /// let mut b = config.build::<u64>().unwrap();
    /// a.update_batch(&[1, 1, 2]);
    /// b.update_batch(&[1, 3]);
    /// a.merge(&b).unwrap();
    /// assert_eq!(a.stream_len(), 5);
    /// assert_eq!(a.estimate(&1), 3);
    /// ```
    pub fn merge(&mut self, other: &Engine<I>) -> Result<(), Error> {
        self.merge_snapshot(&other.snapshot())?;
        // Snapshots do not carry unobserved mass; fold it in by hand so a
        // merge of lossy engines stays sound.
        self.unobserved = self.unobserved.saturating_add(other.unobserved);
        Ok(())
    }

    /// Serializes the engine's snapshot to JSON.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let e = EngineConfig::new(AlgoKind::SpaceSaving).counters(4).build::<u64>().unwrap();
    /// assert!(e.to_json().contains("space_saving"));
    /// ```
    pub fn to_json(&self) -> String
    where
        I: Serialize,
    {
        let mut out = String::new();
        self.snapshot().serialize(&mut out);
        out
    }

    /// Rehydrates an engine from [`Engine::to_json`] output.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, Engine, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::Frequent).counters(4).build::<u64>().unwrap();
    /// e.update_batch(&[1, 1, 2]);
    /// let back: Engine<u64> = Engine::from_json(&e.to_json()).unwrap();
    /// assert_eq!(back.estimate(&1), e.estimate(&1));
    /// ```
    pub fn from_json(json: &str) -> Result<Self, Error>
    where
        I: Deserialize,
    {
        let snap: Snapshot<I> = serde_json::from_str(json)?;
        Self::from_snapshot(snap)
    }
}

impl<I: EngineItem> FrequencyEstimator<I> for Engine<I> {
    fn name(&self) -> &'static str {
        Engine::name(self)
    }

    fn capacity(&self) -> usize {
        Engine::capacity(self)
    }

    // The four ingest entry points route through the inherent methods so
    // the IngestStats accounting is single-sourced: an engine driven
    // through the trait (check_tail, merge_k_sparse, TopKMonitor…) counts
    // exactly like one driven directly.
    fn update(&mut self, item: I) {
        Engine::update(self, item)
    }

    fn update_by(&mut self, item: I, count: u64) {
        Engine::update_by(self, item, count)
    }

    fn update_batch(&mut self, items: &[I]) {
        Engine::update_batch(self, items)
    }

    fn updates_commute(&self) -> bool {
        each_backend!(&self.backend, b => b.updates_commute())
    }

    fn estimate(&self, item: &I) -> u64 {
        Engine::estimate(self, item)
    }

    fn stored_len(&self) -> usize {
        Engine::stored_len(self)
    }

    fn entries(&self) -> Vec<(I, u64)> {
        Engine::entries(self)
    }

    fn entries_into(&self, out: &mut Vec<(I, u64)>) {
        self.top_entries_into(usize::MAX, out);
    }

    /// The walk down SpaceSaving's and Frequent's buckets stops after `k`
    /// rows; the hash-table and candidate backends list every row
    /// unsorted and keep the first `k` by a bounded selection, so either
    /// way a top-k sorts once.
    fn top_entries_into(&self, k: usize, out: &mut Vec<(I, u64)>) {
        match &self.backend {
            Backend::SpaceSaving(b) => b.top_entries_into(k, out),
            Backend::Frequent(b) => b.top_entries_into(k, out),
            Backend::LossyCounting(b) => first_by_count_then_item(b.unsorted_entries(), k, out),
            Backend::StickySampling(b) => first_by_count_then_item(b.unsorted_entries(), k, out),
            Backend::CountMin(b) => first_by_count_then_item(b.unsorted_entries(), k, out),
            Backend::CountSketch(b) => first_by_count_then_item(b.unsorted_entries(), k, out),
        }
    }

    fn stream_len(&self) -> u64 {
        Engine::stream_len(self)
    }

    fn bias(&self) -> Bias {
        Engine::bias(self)
    }

    // The three bound queries widen by the engine's unobserved mass (see
    // `Engine::add_unobserved`): a lost occurrence could belong to any
    // item, so only the upper side of every interval moves.
    fn error_term(&self, item: &I) -> Option<u64> {
        each_backend!(&self.backend, b => b.error_term(item))
            .map(|e| e.saturating_add(self.unobserved))
    }

    fn lower_estimate(&self, item: &I) -> u64 {
        each_backend!(&self.backend, b => b.lower_estimate(item))
    }

    fn upper_estimate(&self, item: &I) -> u64 {
        each_backend!(&self.backend, b => b.upper_estimate(item)).saturating_add(self.unobserved)
    }

    fn tail_constants(&self) -> Option<TailConstants> {
        Engine::tail_constants(self)
    }
}

/// The first `k` of the unsorted `rows` by count descending, then item
/// ascending, into `out` (cleared first): a total order, since items are
/// distinct, so ties no longer follow the backend's hash-table layout.
fn first_by_count_then_item<I: EngineItem>(
    rows: impl Iterator<Item = (I, u64)>,
    k: usize,
    out: &mut Vec<(I, u64)>,
) {
    let order = |a: &(I, u64), b: &(I, u64)| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0));
    out.clear();
    out.extend(rows);
    if k < out.len() {
        out.select_nth_unstable_by(k, order);
        out.truncate(k);
    }
    out.sort_unstable_by(order);
}

// ---------------------------------------------------------------------------
// The query surface
// ---------------------------------------------------------------------------

mod sealed {
    use super::EngineItem;

    /// What a `Report` reads: an engine, or a view over several engines
    /// (`pipeline::ShardedView`).
    pub trait Source<I: EngineItem> {
        /// The stream total the report is over (`F1`).
        fn total(&self) -> u64;
        /// The point estimate of any item.
        fn estimate(&self, item: &I) -> u64;
        /// The certified `(lower, upper)` interval of any item.
        fn interval(&self, item: &I) -> (u64, u64);
        /// Stored `(item, estimate)` pairs, largest first, into `out`
        /// (cleared first).
        fn pairs_into(&self, out: &mut Vec<(I, u64)>);
        /// The first `k` of [`Source::pairs_into`]'s pairs, into `out`
        /// (cleared first). Never allocates by `k`: any `usize` is a
        /// valid request.
        fn top_pairs_into(&self, k: usize, out: &mut Vec<(I, u64)>) {
            self.pairs_into(out);
            out.truncate(k);
        }
        /// The Theorem 6 residual estimate `F1^res(k)`.
        fn residual(&self, k: usize) -> u64;
    }
}

pub(crate) use sealed::Source;

/// One reported item with its certified frequency interval (a weight, in
/// its units, for a [weighted](Engine::into_weighted) engine).
///
/// `lower ≤ f_item ≤ upper` always holds for deterministic backends (for
/// STICKY SAMPLING the bounds are the trivial ones its probabilistic
/// guarantee allows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportEntry<I> {
    /// The item.
    pub item: I,
    /// The backend's point estimate.
    pub estimate: u64,
    /// Certified lower bound on the true frequency.
    pub lower: u64,
    /// Certified upper bound on the true frequency.
    pub upper: u64,
}

/// One reported φ-heavy hitter: a [`ReportEntry`] plus its confidence
/// label, unified across over- and under-estimating backends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyHitterEntry<I> {
    /// The item.
    pub item: I,
    /// The backend's point estimate.
    pub estimate: u64,
    /// Certified lower bound on the true frequency.
    pub lower: u64,
    /// Certified upper bound on the true frequency.
    pub upper: u64,
    /// Guaranteed (`lower > φF1`) or merely potential (`upper > φF1`).
    pub confidence: Confidence,
}

/// The one query surface every engine answers: top-k, φ-heavy hitters,
/// residual estimation, and per-item bound intervals — in occurrences, or
/// in weight units for a [weighted](Engine::into_weighted) engine.
///
/// Borrowed from [`Engine::report`] or a pipeline's [`ShardedView::report`](crate::pipeline::ShardedView::report);
/// queries never mutate what they read.
///
/// ```
/// use hh_sketches::engine::{AlgoKind, EngineConfig};
/// use hh_counters::Confidence;
///
/// let mut e = EngineConfig::new(AlgoKind::Frequent).counters(16).build::<u64>().unwrap();
/// e.update_batch(&[7, 7, 7, 7, 7, 7, 1, 2, 3, 4]);
/// let report = e.report();
/// assert_eq!(report.top_k(1)[0].item, 7);
/// // 7 carries 60% of the stream: a guaranteed 0.5-heavy hitter
/// let hh = report.heavy_hitters(0.5).unwrap();
/// assert_eq!(hh[0].item, 7);
/// assert_eq!(hh[0].confidence, Confidence::Guaranteed);
/// // residual mass after removing the top-1
/// assert_eq!(report.residual(1), 4);
/// ```
pub struct Report<'a, I: EngineItem> {
    source: &'a dyn Source<I>,
}

impl<I: EngineItem> Clone for Report<'_, I> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<I: EngineItem> Copy for Report<'_, I> {}

impl<I: EngineItem> fmt::Debug for Report<'_, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Report")
            .field("total", &self.total())
            .finish_non_exhaustive()
    }
}

impl<'a, I: EngineItem> From<&'a Engine<I>> for Report<'a, I> {
    fn from(engine: &'a Engine<I>) -> Self {
        engine.report()
    }
}

impl<'a, I: EngineItem> Report<'a, I> {
    pub(crate) fn over(source: &'a dyn Source<I>) -> Self {
        Report { source }
    }
}

impl<I: EngineItem> Report<'_, I> {
    /// The stream total the report is over: `F1` (the total weight, for
    /// weights).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::SpaceSaving).counters(8).build::<u64>().unwrap();
    /// e.update_batch(&[1, 1, 2]);
    /// assert_eq!(e.report().total(), 3);
    /// ```
    pub fn total(&self) -> u64 {
        self.source.total()
    }

    /// The certified `(lower, upper)` interval for any item, stored or
    /// not.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::SpaceSaving).counters(8).build::<u64>().unwrap();
    /// e.update_batch(&[1, 1, 2]);
    /// assert_eq!(e.report().interval(&1), (2, 2)); // table not full: exact
    /// ```
    pub fn interval(&self, item: &I) -> (u64, u64) {
        self.source.interval(item)
    }

    /// The report row for any item, stored or not: its point estimate and
    /// certified interval.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::Frequent).counters(8).build::<u64>().unwrap();
    /// e.update_batch(&[1, 1, 2]);
    /// let row = e.report().entry(&1);
    /// assert_eq!((row.estimate, row.lower, row.upper), (2, 2, 2));
    /// ```
    pub fn entry(&self, item: &I) -> ReportEntry<I> {
        self.row(item.clone(), self.source.estimate(item))
    }

    /// One report row: `item` with its estimate and certified interval.
    fn row(&self, item: I, estimate: u64) -> ReportEntry<I> {
        let (lower, upper) = self.interval(&item);
        ReportEntry {
            item,
            estimate,
            lower,
            upper,
        }
    }

    /// Every stored entry with its bound interval, sorted by decreasing
    /// estimate (ties broken by the backend's eviction order).
    pub fn entries(&self) -> Vec<ReportEntry<I>> {
        let mut pairs = Vec::new();
        let mut out = Vec::new();
        self.entries_into(&mut pairs, &mut out);
        out
    }

    /// [`Report::entries`] written into caller-owned buffers (both cleared
    /// first): `pairs` is the raw `(item, estimate)` scratch filled via the
    /// backend's allocation-free
    /// [`FrequencyEstimator::entries_into`] path, `out` receives the
    /// interval-annotated rows. Monitor/report loops that poll every few
    /// updates reuse both buffers and stop allocating per poll.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::SpaceSaving).counters(8).build::<u64>().unwrap();
    /// e.update_batch(&[5, 5, 9]);
    /// let (mut pairs, mut rows) = (Vec::new(), Vec::new());
    /// e.report().entries_into(&mut pairs, &mut rows);
    /// assert_eq!(rows[0].item, 5);
    /// ```
    pub fn entries_into(&self, pairs: &mut Vec<(I, u64)>, out: &mut Vec<ReportEntry<I>>) {
        self.source.pairs_into(pairs);
        out.clear();
        out.extend(
            pairs
                .drain(..)
                .map(|(item, estimate)| self.row(item, estimate)),
        );
    }

    /// The `k` largest entries, most frequent first (subsumes the free
    /// `topk::top_k` helper). Intervals are computed for the returned
    /// rows only, and `k` may exceed the stored rows (all are returned).
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::SpaceSaving).counters(8).build::<u64>().unwrap();
    /// e.update_batch(&[1, 1, 1, 2, 2, 3]);
    /// let top: Vec<u64> = e.report().top_k(2).into_iter().map(|r| r.item).collect();
    /// assert_eq!(top, vec![1, 2]);
    /// ```
    pub fn top_k(&self, k: usize) -> Vec<ReportEntry<I>> {
        let mut pairs = Vec::new();
        self.source.top_pairs_into(k, &mut pairs);
        pairs
            .into_iter()
            .map(|(item, estimate)| self.row(item, estimate))
            .collect()
    }

    /// The φ-heavy-hitters query, unified across bias directions: every
    /// stored item whose certified *upper* bound exceeds `phi` times the
    /// [total](Report::total) is returned (hence no false negatives among
    /// stored items), labelled [`Confidence::Guaranteed`] when its *lower*
    /// bound already exceeds the threshold and [`Confidence::Candidate`]
    /// otherwise.
    ///
    /// Fails with [`Error::InvalidQuery`] when `phi ∉ [0, 1)`.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// let mut e = EngineConfig::new(AlgoKind::SpaceSaving).counters(16).build::<u64>().unwrap();
    /// e.update_batch(&[9, 9, 9, 9, 1, 2, 3, 4, 5, 6]);
    /// let hh = e.report().heavy_hitters(0.3).unwrap();
    /// assert_eq!(hh.len(), 1);
    /// assert_eq!(hh[0].item, 9);
    /// assert!(e.report().heavy_hitters(1.0).is_err());
    /// ```
    pub fn heavy_hitters(&self, phi: f64) -> Result<Vec<HeavyHitterEntry<I>>, Error> {
        if !(0.0..1.0).contains(&phi) {
            return Err(Error::InvalidQuery(format!(
                "phi must be in [0, 1), got {phi}"
            )));
        }
        let threshold = phi * self.total() as f64;
        Ok(self
            .entries()
            .into_iter()
            .filter(|e| e.upper as f64 > threshold)
            .map(|e| {
                let confidence = if e.lower as f64 > threshold {
                    Confidence::Guaranteed
                } else {
                    Confidence::Candidate
                };
                HeavyHitterEntry {
                    item: e.item,
                    estimate: e.estimate,
                    lower: e.lower,
                    upper: e.upper,
                    confidence,
                }
            })
            .collect())
    }

    /// The Theorem 6 estimator of the residual tail mass `F1^res(k)`: the
    /// total minus the mass of the k largest counters.
    pub fn residual(&self, k: usize) -> u64 {
        self.source.residual(k)
    }
}

impl<I: EngineItem> Source<I> for Engine<I> {
    fn total(&self) -> u64 {
        Engine::stream_len(self)
    }

    fn estimate(&self, item: &I) -> u64 {
        Engine::estimate(self, item)
    }

    fn interval(&self, item: &I) -> (u64, u64) {
        (self.lower_estimate(item), self.upper_estimate(item))
    }

    fn pairs_into(&self, out: &mut Vec<(I, u64)>) {
        self.entries_into(out)
    }

    fn top_pairs_into(&self, k: usize, out: &mut Vec<(I, u64)>) {
        self.top_entries_into(k, out)
    }

    fn residual(&self, k: usize) -> u64 {
        recovery::residual_estimate(self, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> Vec<u64> {
        (0..2000).map(|i| (i * i + 7 * i) % 53).collect()
    }

    #[test]
    fn every_algo_builds_and_ingests() {
        for algo in AlgoKind::ALL {
            let mut e = EngineConfig::new(algo)
                .counters(64)
                .seed(5)
                .build::<u64>()
                .expect("builds");
            e.update_batch(&stream());
            assert_eq!(e.stream_len(), 2000, "{algo}");
            assert_eq!(e.algo(), algo);
            assert!(!e.report().top_k(3).is_empty(), "{algo}");
        }
    }

    #[test]
    fn intervals_bracket_truth_for_deterministic_backends() {
        let s = stream();
        let exact = |i: u64| s.iter().filter(|&&x| x == i).count() as u64;
        for algo in [
            AlgoKind::SpaceSaving,
            AlgoKind::Frequent,
            AlgoKind::LossyCounting,
            AlgoKind::CountMin,
        ] {
            let mut e = EngineConfig::new(algo).counters(64).build::<u64>().unwrap();
            e.update_batch(&s);
            let report = e.report();
            for i in 0..53u64 {
                let (lo, hi) = report.interval(&i);
                let f = exact(i);
                assert!(
                    lo <= f && f <= hi,
                    "{algo} item {i}: {f} not in [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn heavy_hitters_match_free_functions() {
        use hh_counters::{frequent_heavy_hitters, spacesaving_heavy_hitters};
        let mut s = vec![1u64; 300];
        s.extend(std::iter::repeat_n(2u64, 150));
        s.extend((0..30u64).flat_map(|i| std::iter::repeat_n(100 + i, 10)));

        let mut ss = SpaceSaving::new(16);
        ss.update_batch(&s);
        let mut engine = EngineConfig::new(AlgoKind::SpaceSaving)
            .counters(16)
            .build::<u64>()
            .unwrap();
        engine.update_batch(&s);
        let via_engine = engine.report().heavy_hitters(0.15).unwrap();
        let via_free = spacesaving_heavy_hitters(&ss, 0.15);
        assert_eq!(via_engine.len(), via_free.len());
        for (a, b) in via_engine.iter().zip(&via_free) {
            assert_eq!(
                (a.item, a.estimate, a.confidence),
                (b.item, b.estimate, b.confidence)
            );
        }

        let mut fr = Frequent::new(16);
        fr.update_batch(&s);
        let mut engine = EngineConfig::new(AlgoKind::Frequent)
            .counters(16)
            .build::<u64>()
            .unwrap();
        engine.update_batch(&s);
        let via_engine = engine.report().heavy_hitters(0.15).unwrap();
        let via_free = frequent_heavy_hitters(&fr, 0.15);
        assert_eq!(via_engine.len(), via_free.len());
        for (a, b) in via_engine.iter().zip(&via_free) {
            assert_eq!(
                (a.item, a.estimate, a.confidence),
                (b.item, b.estimate, b.confidence)
            );
        }
    }

    #[test]
    fn snapshot_roundtrips_for_every_algo() {
        for algo in AlgoKind::ALL {
            let mut e = EngineConfig::new(algo)
                .counters(48)
                .seed(11)
                .build::<u64>()
                .unwrap();
            e.update_batch(&stream());
            let json = e.to_json();
            let mut back: Engine<u64> = Engine::from_json(&json).expect("deserialize");
            assert_eq!(back.algo(), algo);
            assert_eq!(back.stream_len(), e.stream_len());
            for i in 0..53u64 {
                assert_eq!(back.estimate(&i), e.estimate(&i), "{algo} item {i}");
                assert_eq!(
                    back.report().interval(&i),
                    e.report().interval(&i),
                    "{algo} item {i} interval"
                );
            }
            // restored engines continue identically (incl. RNG state)
            let suffix: Vec<u64> = (0..500).map(|i| (i * 13) % 61).collect();
            e.update_batch(&suffix);
            back.update_batch(&suffix);
            for i in 0..61u64 {
                assert_eq!(back.estimate(&i), e.estimate(&i), "{algo} after resume");
            }
        }
    }

    #[test]
    fn merge_rejects_cross_algo() {
        let mut a = EngineConfig::new(AlgoKind::SpaceSaving)
            .counters(8)
            .build::<u64>()
            .unwrap();
        let b = EngineConfig::new(AlgoKind::Frequent)
            .counters(8)
            .build::<u64>()
            .unwrap();
        assert!(matches!(a.merge(&b), Err(Error::SnapshotMismatch { .. })));
    }

    #[test]
    fn sketch_merge_is_cellwise() {
        let config = EngineConfig::new(AlgoKind::CountMin).counters(128).seed(9);
        let mut a = config.build::<u64>().unwrap();
        let mut b = config.build::<u64>().unwrap();
        let mut whole = config.build::<u64>().unwrap();
        for i in 0..600u64 {
            let x = i % 37;
            if i % 2 == 0 {
                a.update(x);
            } else {
                b.update(x);
            }
            whole.update(x);
        }
        a.merge(&b).expect("same config");
        assert_eq!(a.stream_len(), 600);
        for i in 0..37u64 {
            assert_eq!(a.estimate(&i), whole.estimate(&i), "CM merge linearity");
        }
        // differently-seeded sketches refuse to merge
        let other = EngineConfig::new(AlgoKind::CountMin)
            .counters(128)
            .seed(10)
            .build::<u64>()
            .unwrap();
        assert!(a.merge(&other).is_err());
    }

    fn weighted(algo: AlgoKind) -> Engine<u64> {
        let e = EngineConfig::new(algo).counters(8).build().unwrap();
        e.into_weighted().unwrap()
    }

    #[test]
    fn weighted_engine_roundtrip_and_merge() {
        for algo in [AlgoKind::SpaceSaving, AlgoKind::Frequent] {
            let mut a = weighted(algo);
            a.update_by(1, 5_000);
            a.update_by(2, 2_500);
            let json = a.to_json();
            assert!(json.contains("_weighted"), "{json}");
            let back: Engine<u64> = Engine::from_json(&json).unwrap();
            assert_eq!(back.estimate(&1), a.estimate(&1), "{algo}");
            assert!(back.is_weighted(), "{algo}");
            let mut b = weighted(algo);
            b.update_by(1, 3_000);
            a.merge(&b).unwrap();
            assert_eq!((a.estimate(&1), a.stream_len()), (8_000, 10_500), "{algo}");
            assert!(a.is_weighted(), "{algo}");
        }
        for algo in [
            AlgoKind::LossyCounting,
            AlgoKind::StickySampling,
            AlgoKind::CountMin,
        ] {
            let e = EngineConfig::new(algo).counters(64).build::<u64>().unwrap();
            assert!(matches!(e.into_weighted(), Err(Error::Unsupported { .. })));
        }
    }

    #[test]
    fn weighted_and_unweighted_snapshots_do_not_cross() {
        for algo in [AlgoKind::SpaceSaving, AlgoKind::Frequent] {
            let mut counts = EngineConfig::new(algo).counters(8).build::<u64>().unwrap();
            let mut weights = weighted(algo);
            let (c, w) = (counts.snapshot(), weights.snapshot());
            assert!(!c.is_weighted() && w.is_weighted());
            assert!(matches!(
                counts.merge_snapshot(&w),
                Err(Error::SnapshotMismatch { .. })
            ));
            assert!(matches!(
                weights.merge_snapshot(&c),
                Err(Error::SnapshotMismatch { .. })
            ));
            // each kind rehydrates as itself
            assert!(Engine::from_snapshot(w).unwrap().is_weighted());
            assert!(!Engine::from_snapshot(c).unwrap().is_weighted());
        }
    }

    #[test]
    fn floating_point_weight_snapshots_are_corrupt() {
        for tag in ["space_saving_r", "frequent_r"] {
            let json = format!(
                "{{\"algo\":\"{tag}\",\"state\":{{\"capacity\":2,\"total_weight\":10,\
                 \"reductions\":0,\"entries\":[[1,10]]}}}}"
            );
            let err = Engine::<u64>::from_json(&json).unwrap_err();
            assert!(
                matches!(&err, Error::CorruptSnapshot(m) if m.contains(tag)),
                "{err}"
            );
        }
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let snap = Snapshot::SpaceSaving(SpaceSavingState {
            capacity: 2,
            stream_len: 100, // inconsistent with entries
            absorbed_slack: 0,
            entries: vec![(1u64, 3, 0)],
        });
        assert!(matches!(
            Engine::from_snapshot(snap),
            Err(Error::CorruptSnapshot(_))
        ));
        let snap = Snapshot::Frequent(FrequentState {
            capacity: 1,
            stream_len: 10,
            decrements: 0,
            entries: vec![(1u64, 3), (2, 2)],
        });
        assert!(Engine::from_snapshot(snap).is_err());
        // Counter mass that overflows u64 must not wrap into a value that
        // passes the stream-length check.
        let overflowing = [
            Snapshot::SpaceSaving(SpaceSavingState {
                capacity: 2,
                stream_len: 0,
                absorbed_slack: 0,
                entries: vec![(1u64, 1 << 63, 0), (2, 1 << 63, 0)],
            }),
            Snapshot::Frequent(FrequentState {
                capacity: 2,
                stream_len: 4,
                decrements: 0,
                entries: vec![(1u64, u64::MAX), (2, 5)],
            }),
            Snapshot::Frequent(FrequentState {
                capacity: 1,
                stream_len: u64::MAX,
                decrements: 1,
                entries: vec![(1u64, u64::MAX)],
            }),
        ];
        for snap in overflowing {
            assert!(matches!(
                Engine::from_snapshot(snap),
                Err(Error::CorruptSnapshot(_))
            ));
        }
    }

    #[test]
    fn merges_past_u64_are_typed_errors_not_wrapped_bounds() {
        // Two valid engines, each holding one item counted 2^63: the
        // combined F1 is 2^64. Merging must refuse and leave the target
        // as it was, not wrap to stream_len 0 and an interval of (0, 0).
        // STICKY SAMPLING's update_by samples each occurrence, so the
        // sampling backends start from snapshots.
        let half = |algo: AlgoKind| match algo {
            AlgoKind::LossyCounting => {
                Engine::from_snapshot(Snapshot::LossyCounting(LossyCountingState {
                    width: 1 << 62,
                    window: 3,
                    stream_len: 1 << 63,
                    max_table: 1,
                    entries: vec![(1u64, 1 << 63, 0)],
                }))
                .unwrap()
            }
            AlgoKind::StickySampling => {
                Engine::from_snapshot(Snapshot::StickySampling(StickySamplingState {
                    epsilon: 0.01,
                    window: 100,
                    rate: 1,
                    until_double: 100,
                    rng_state: 1,
                    stream_len: 1 << 63,
                    max_table: 1,
                    entries: vec![(1u64, 1 << 63)],
                }))
                .unwrap()
            }
            _ => {
                let mut e = EngineConfig::new(algo).counters(4).build().unwrap();
                e.update_by(1, 1 << 63);
                e
            }
        };
        for algo in [
            AlgoKind::SpaceSaving,
            AlgoKind::Frequent,
            AlgoKind::LossyCounting,
            AlgoKind::StickySampling,
        ] {
            let (mut a, b) = (half(algo), half(algo));
            let before = a.snapshot();
            let err = a.merge_snapshot(&b.snapshot()).unwrap_err();
            assert!(matches!(err, Error::Overflow(_)), "{algo}: {err}");
            assert_eq!(
                a.snapshot(),
                before,
                "{algo}: failed merge changed the target"
            );
            assert_eq!(a.stream_len(), 1 << 63, "{algo}");
        }
        // Slack and decrement rounds are checked the same way.
        let mut ss = Engine::from_snapshot(Snapshot::SpaceSaving(SpaceSavingState {
            capacity: 1,
            stream_len: 1,
            absorbed_slack: u64::MAX - 1,
            entries: vec![(1u64, 1, 0)],
        }))
        .unwrap();
        let donor = ss.snapshot();
        assert!(matches!(ss.merge_snapshot(&donor), Err(Error::Overflow(_))));
        let donor = Snapshot::Frequent(FrequentState {
            capacity: 1,
            stream_len: 1,
            decrements: u64::MAX - 5,
            entries: vec![],
        });
        let mut fq = EngineConfig::new(AlgoKind::Frequent)
            .counters(1)
            .build::<u64>()
            .unwrap();
        fq.merge_snapshot(&donor).unwrap();
        assert!(matches!(fq.merge_snapshot(&donor), Err(Error::Overflow(_))));
    }

    #[test]
    fn declared_capacity_is_not_allocated_up_front() {
        // A snapshot's capacity is untrusted: loading one that declares
        // 4e12 counters must size the tables from the entries it holds
        // (pre-sizing from it aborted on a 96 TB allocation).
        const HUGE: usize = 4_000_000_000_000;
        let mut e = Engine::from_snapshot(Snapshot::SpaceSaving(SpaceSavingState {
            capacity: HUGE,
            stream_len: 3,
            absorbed_slack: 0,
            entries: vec![(1u64, 2, 0), (2, 1, 0)],
        }))
        .unwrap();
        assert_eq!(e.capacity(), HUGE);
        // The table still grows past the entries it was sized for.
        e.update_batch(&(10..1000).collect::<Vec<u64>>());
        assert_eq!((e.estimate(&1), e.stored_len()), (2, 992));
        let mut e = Engine::from_snapshot(Snapshot::Frequent(FrequentState {
            capacity: HUGE,
            stream_len: 3,
            decrements: 0,
            entries: vec![(1u64, 2), (2, 1)],
        }))
        .unwrap();
        e.update_batch(&(10..1000).collect::<Vec<u64>>());
        assert_eq!((e.estimate(&1), e.stored_len()), (2, 992));
        let e = Engine::from_snapshot(Snapshot::WeightedSpaceSaving(SpaceSavingState {
            capacity: HUGE,
            stream_len: 1_500,
            absorbed_slack: 0,
            entries: vec![(1u64, 1_500, 0)],
        }))
        .unwrap();
        assert_eq!((e.capacity(), e.estimate(&1)), (HUGE, 1_500));
    }

    #[test]
    fn count_sketch_hash_revision_mismatch_is_rejected() {
        let mut e = EngineConfig::new(AlgoKind::CountSketch)
            .counters(64)
            .build::<u64>()
            .unwrap();
        e.update_batch(&[1, 1, 2]);
        let Snapshot::CountSketch(mut state) = e.snapshot() else {
            panic!("count-sketch snapshot expected");
        };
        assert_eq!(state.hash_rev, CS_HASH_REV);
        state.hash_rev = CS_HASH_REV - 1; // cells from an older derivation
        let stale = Snapshot::CountSketch(state);
        assert!(matches!(
            Engine::from_snapshot(stale.clone()),
            Err(Error::CorruptSnapshot(_))
        ));
        assert!(matches!(
            e.merge_snapshot(&stale),
            Err(Error::CorruptSnapshot(_))
        ));
    }

    #[test]
    fn capacity_specs_validate() {
        assert!(EngineConfig::new(AlgoKind::SpaceSaving)
            .counters(0)
            .build::<u64>()
            .is_err());
        assert!(EngineConfig::new(AlgoKind::SpaceSaving)
            .error_rate(1.5, 4)
            .build::<u64>()
            .is_err());
        assert!(EngineConfig::new(AlgoKind::SpaceSaving)
            .heavy_hitter_phi(0.0)
            .build::<u64>()
            .is_err());
        assert!(EngineConfig::new(AlgoKind::CountMin)
            .counters(8) // below the 16-cell sketch minimum
            .build::<u64>()
            .is_err());
    }

    #[test]
    fn string_items_roundtrip() {
        let mut e = EngineConfig::new(AlgoKind::SpaceSaving)
            .counters(4)
            .build::<String>()
            .unwrap();
        for w in ["the", "cat", "the", "hat", "the"] {
            e.update(w.to_string());
        }
        let back: Engine<String> = Engine::from_json(&e.to_json()).unwrap();
        assert_eq!(back.estimate(&"the".to_string()), 3);
    }
}
