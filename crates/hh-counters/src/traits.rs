//! Common traits for frequency estimators (counter algorithms and, via the
//! `hh-sketches` crate, sketch algorithms).

use std::hash::Hash;

/// Whether an estimator's point estimates are one-sided.
///
/// The paper exploits one-sidedness twice: SPACESAVING *overestimates*
/// (`f_i ≤ c_i ≤ f_i + Δ`), FREQUENT *underestimates*
/// (`f_i − Δ ≤ c_i ≤ f_i`), and Section 4.2's m-sparse recovery requires an
/// underestimating algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bias {
    /// Estimates never exceed the true frequency.
    Under,
    /// Estimates are never below the true frequency (for stored items).
    Over,
    /// Two-sided error (e.g. Count-Sketch).
    TwoSided,
}

/// The `(A, B)` constants of a k-tail guarantee (Definition 2 of the paper):
/// `δ_i ≤ A · F1^res(k) / (m − B·k)` for all `i` and any `k < m/B`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailConstants {
    /// Numerator constant.
    pub a: f64,
    /// Counter-discount constant.
    pub b: f64,
}

impl TailConstants {
    /// The specialized constants proved for FREQUENT (Appendix B) and
    /// SPACESAVING (Appendix C).
    pub const ONE_ONE: TailConstants = TailConstants { a: 1.0, b: 1.0 };

    /// The generic HTC constants from Theorem 2 with `A = 1`: `(1, 2)`.
    pub const GENERIC: TailConstants = TailConstants { a: 1.0, b: 2.0 };

    /// Evaluates the bound `A·F1^res(k)/(m − B·k)`, or `None` when vacuous
    /// (`m ≤ B·k`).
    pub fn bound(&self, m: usize, k: usize, res1_k: u64) -> Option<f64> {
        let denom = m as f64 - self.b * k as f64;
        if denom <= 0.0 {
            None
        } else {
            Some(self.a * res1_k as f64 / denom)
        }
    }

    /// Counters needed for the Theorem 5 k-sparse recovery at error `ε`:
    /// `m = k(cA/ε + B)` with `c = 3` in general, `c = 2` for one-sided
    /// algorithms.
    pub fn counters_for_sparse_recovery(&self, k: usize, eps: f64, one_sided: bool) -> usize {
        assert!(eps > 0.0);
        let c = if one_sided { 2.0 } else { 3.0 };
        (k as f64 * (c * self.a / eps + self.b)).ceil() as usize
    }

    /// Counters needed for the Theorem 6 / 7 results: `m = Bk + Ak/ε`.
    pub fn counters_for_residual_estimate(&self, k: usize, eps: f64) -> usize {
        assert!(eps > 0.0);
        (self.b * k as f64 + self.a * k as f64 / eps).ceil() as usize
    }

    /// The merged-summary constants from Theorem 11: `(3A, A + B)`.
    pub fn merged(&self) -> TailConstants {
        TailConstants {
            a: 3.0 * self.a,
            b: self.a + self.b,
        }
    }
}

/// Calls `f` once per maximal run of adjacent equal items in `items`,
/// passing the run's representative and its length — the aggregation step
/// shared by the [`FrequencyEstimator::update_batch`] fast paths (the
/// `StreamSummary`-backed counters here, and the sketch overrides in
/// `hh-sketches`).
///
/// ```
/// let mut runs = Vec::new();
/// hh_counters::traits::for_each_run(&[1u64, 1, 2, 1, 1, 1], |item, len| {
///     runs.push((*item, len));
/// });
/// assert_eq!(runs, vec![(1, 2), (2, 1), (1, 3)]);
/// ```
pub fn for_each_run<I: Eq>(items: &[I], mut f: impl FnMut(&I, u64)) {
    let mut i = 0;
    while i < items.len() {
        let item = &items[i];
        let mut run = 1usize;
        while i + run < items.len() && items[i + run] == *item {
            run += 1;
        }
        i += run;
        f(item, run as u64);
    }
}

/// Sorts a `(key, count)` scratch buffer by key, merges equal keys, and
/// calls `f` once per *distinct* key with its total count — the full
/// pre-aggregation step the commutative sketch `update_batch` fast paths
/// share (see [`FrequencyEstimator::updates_commute`]). The buffer is left
/// sorted; callers reuse it across batches.
///
/// ```
/// let mut agg = vec![(7u64, 1u64), (3, 2), (7, 4)];
/// let mut out = Vec::new();
/// hh_counters::traits::for_each_aggregated(&mut agg, |k, c| out.push((k, c)));
/// assert_eq!(out, vec![(3, 2), (7, 5)]);
/// ```
pub fn for_each_aggregated(agg: &mut [(u64, u64)], mut f: impl FnMut(u64, u64)) {
    agg.sort_unstable_by_key(|&(key, _)| key);
    let mut i = 0;
    while i < agg.len() {
        let (key, mut count) = agg[i];
        i += 1;
        while i < agg.len() && agg[i].0 == key {
            count += agg[i].1;
            i += 1;
        }
        f(key, count);
    }
}

/// A streaming frequency estimator over items of type `I`.
///
/// Implementations process a stream one update at a time and answer point
/// frequency queries. `estimate` returns the algorithm's canonical point
/// estimate (`c_i` in the paper; 0 for unstored items).
pub trait FrequencyEstimator<I: Eq + Hash + Clone> {
    /// Short human-readable algorithm name (for experiment tables).
    fn name(&self) -> &'static str;

    /// The space budget `m`: number of counters the instance may hold.
    fn capacity(&self) -> usize;

    /// Processes one occurrence of `item`.
    fn update(&mut self, item: I) {
        self.update_by(item, 1);
    }

    /// Processes `count` occurrences of `item` at once (used for merging
    /// summaries and replaying sparse vectors; equivalent to `count` calls
    /// of [`FrequencyEstimator::update`]).
    fn update_by(&mut self, item: I, count: u64);

    /// Processes a slice of arrivals in stream order — equivalent to calling
    /// [`FrequencyEstimator::update`] once per element.
    ///
    /// The default implementation is that per-element loop; implementations
    /// backed by [`crate::stream_summary::StreamSummary`] override it with a
    /// run-length-aggregated fast path that skips per-item clones and
    /// repeated hash probes. Batched ingest is also the natural unit for
    /// sharded summarization: a shard worker drains each delivered batch
    /// with one call.
    fn update_batch(&mut self, items: &[I]) {
        for item in items {
            self.update(item.clone());
        }
    }

    /// Whether this estimator's final state is invariant under *reordering
    /// and aggregation* of its update sequence — i.e. any permutation of
    /// `update_by` calls, and any merging of same-item calls into one
    /// weighted call, produces an identical final state.
    ///
    /// True for purely additive structures (classic Count-Min,
    /// Count-Sketch: cell updates are linear). False for anything whose
    /// state depends on arrival order: the counter algorithms (eviction and
    /// tie-breaking are order-sensitive), conservative-update Count-Min,
    /// and candidate trackers. Batched ingest paths consult this to decide
    /// whether a batch may be pre-aggregated by item (collapsing *all*
    /// duplicates) rather than only run-length compressed (collapsing
    /// adjacent duplicates, which is always safe for the algorithms here).
    fn updates_commute(&self) -> bool {
        false
    }

    /// The point estimate `c_i` (0 when the item is not stored).
    fn estimate(&self, item: &I) -> u64;

    /// Number of items currently stored (`|T| ≤ m`).
    fn stored_len(&self) -> usize;

    /// Snapshot of stored `(item, estimate)` pairs, sorted by decreasing
    /// estimate with ties broken by the summary's eviction order.
    fn entries(&self) -> Vec<(I, u64)>;

    /// The first `k` pairs of [`FrequencyEstimator::entries`], into a
    /// caller-owned buffer (cleared first); any `k` is valid, and
    /// `usize::MAX` lists every pair. The default lists every pair and
    /// truncates; implementations backed by
    /// [`crate::stream_summary::StreamSummary`] walk down from the largest
    /// counter and stop after `k`, without allocating once `out` has
    /// grown, so monitor/report loops that poll every few updates reuse
    /// one buffer.
    fn top_entries_into(&self, k: usize, out: &mut Vec<(I, u64)>) {
        out.clear();
        out.append(&mut self.entries());
        out.truncate(k);
    }

    /// Total weight processed so far (`F1` of the consumed stream).
    fn stream_len(&self) -> u64;

    /// The estimator's bias direction, if one-sided.
    fn bias(&self) -> Bias;

    /// The per-item overcount annotation stored for `item`, if the backend
    /// records one (SPACESAVING's `err_i`: the minimum counter value when
    /// the item last entered the table). `None` when the item is unstored
    /// or the algorithm keeps no such annotation.
    fn error_term(&self, item: &I) -> Option<u64> {
        let _ = item;
        None
    }

    /// A guaranteed lower bound on the item's true frequency.
    ///
    /// For underestimating algorithms this equals [`Self::estimate`]. For
    /// overestimating algorithms the default consults the stored
    /// [`Self::error_term`] and returns `c_i − err_i` (Section 4.2 of the
    /// paper) — so stored SPACESAVING items get their certified minimum
    /// rather than a vacuous 0. Two-sided estimators (and unstored items of
    /// overestimating ones) fall back to 0.
    fn lower_estimate(&self, item: &I) -> u64 {
        match self.bias() {
            Bias::Under => self.estimate(item),
            _ => match self.error_term(item) {
                Some(err) => self.estimate(item).saturating_sub(err),
                None => 0,
            },
        }
    }

    /// A guaranteed upper bound on the item's true frequency.
    ///
    /// The default is only aware of the bias direction: overestimating
    /// algorithms return their estimate for stored items (it already
    /// dominates `f_i`) and the trivially sound [`Self::stream_len`]
    /// otherwise; everything else returns [`Self::stream_len`].
    /// Implementations with sharper information override this — SPACESAVING
    /// bounds unstored items by the minimum counter `Δ`, FREQUENT adds its
    /// decrement count, LOSSYCOUNTING adds the stored `delta` window id.
    fn upper_estimate(&self, item: &I) -> u64 {
        match self.bias() {
            Bias::Over if self.error_term(item).is_some() => self.estimate(item),
            _ => self.stream_len(),
        }
    }

    /// The `(A, B)` tail constants proved for this algorithm, if any.
    fn tail_constants(&self) -> Option<TailConstants> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_bound_evaluation() {
        let t = TailConstants::ONE_ONE;
        assert_eq!(t.bound(10, 2, 80), Some(10.0));
        assert_eq!(t.bound(2, 2, 80), None);
        let g = TailConstants::GENERIC;
        assert_eq!(g.bound(10, 2, 60), Some(10.0));
        assert_eq!(g.bound(4, 2, 60), None);
    }

    #[test]
    fn recovery_sizing() {
        let t = TailConstants::ONE_ONE;
        // m = k(3A/eps + B) = 2*(30+1) = 62
        assert_eq!(t.counters_for_sparse_recovery(2, 0.1, false), 62);
        // one-sided: m = k(2A/eps + B) = 2*(20+1) = 42
        assert_eq!(t.counters_for_sparse_recovery(2, 0.1, true), 42);
        // m = Bk + Ak/eps = 2 + 20 = 22
        assert_eq!(t.counters_for_residual_estimate(2, 0.1), 22);
    }

    #[test]
    fn merged_constants() {
        let m = TailConstants::ONE_ONE.merged();
        assert_eq!((m.a, m.b), (3.0, 2.0));
    }
}
