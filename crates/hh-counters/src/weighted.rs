//! FREQUENTR and SPACESAVINGR — the real-valued-update extensions of
//! Section 6.1 (Theorem 10).
//!
//! The stream consists of tuples `(a_i, b_i)` meaning `b_i ∈ ℝ⁺`
//! occurrences of item `a_i`. Both algorithms reduce to their unweighted
//! counterparts when every `b_i = 1`, and both keep the `A = B = 1` k-tail
//! guarantee over the weight vector (Theorem 10).
//!
//! Both implementations use a hash table plus a lazy min-heap keyed by the
//! IEEE-754 bit pattern of the (non-negative) counter value, giving
//! O(log m) amortized updates. Weights within a relative `1e-12` of each
//! other are treated as equal when detecting zeroed counters in FREQUENTR.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hash;

use crate::error::Error;
use crate::fasthash::FxHashMap;
use crate::traits::{TailConstants, WeightedFrequencyEstimator};

/// Total-order key for a non-negative finite `f64` (IEEE-754 bits are
/// monotone on non-negative floats).
#[inline]
fn key(w: f64) -> u64 {
    debug_assert!(w >= 0.0 && w.is_finite());
    w.to_bits()
}

fn assert_valid_weight(w: f64) {
    assert!(
        w >= 0.0 && w.is_finite(),
        "weights must be non-negative and finite (got {w})"
    );
}

/// Lazy min-heap over `(value, insertion-sequence, item)`.
#[derive(Debug, Clone)]
struct LazyMinHeap<I: Ord> {
    heap: BinaryHeap<Reverse<(u64, u64, I)>>,
    seq: u64,
}

impl<I: Ord> Default for LazyMinHeap<I> {
    fn default() -> Self {
        LazyMinHeap {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<I: Eq + Hash + Clone + Ord> LazyMinHeap<I> {
    fn push(&mut self, value: f64, item: I) {
        self.seq += 1;
        self.heap.push(Reverse((key(value), self.seq, item)));
    }

    /// Pops the live minimum according to `current`, which returns the
    /// item's present raw value (or `None` when evicted).
    fn pop_live(&mut self, current: impl Fn(&I) -> Option<f64>) -> Option<(I, f64)> {
        while let Some(Reverse((bits, _, item))) = self.heap.pop() {
            match current(&item) {
                Some(raw) if key(raw) == bits => return Some((item, raw)),
                _ => continue,
            }
        }
        None
    }

    /// Peeks the live minimum without removing it.
    fn peek_live(&mut self, current: impl Fn(&I) -> Option<f64>) -> Option<(I, f64)> {
        while let Some(Reverse((bits, _, item))) = self.heap.peek().cloned() {
            match current(&item) {
                Some(raw) if key(raw) == bits => return Some((item, raw)),
                _ => {
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// Removes the heap's top element (callers pair this with a successful
    /// [`Self::peek_live`]).
    fn pop_top(&mut self) {
        self.heap.pop();
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn rebuild(&mut self, live: impl Iterator<Item = (I, f64)>) {
        let mut fresh = BinaryHeap::new();
        let mut seq = 0u64;
        for (item, raw) in live {
            seq += 1;
            fresh.push(Reverse((key(raw), seq, item)));
        }
        self.heap = fresh;
        self.seq = seq;
    }
}

/// SPACESAVINGR: SPACESAVING with real-valued weights (Section 6.1).
#[derive(Debug, Clone)]
pub struct SpaceSavingR<I: Eq + Hash + Clone + Ord> {
    /// item -> (counter value, overcount bound err)
    counts: FxHashMap<I, (f64, f64)>,
    heap: LazyMinHeap<I>,
    m: usize,
    total: f64,
    /// Upper-bound slack inherited from absorbed snapshots (each donor's
    /// minimum counter bounds the weight of items it did not store).
    absorbed_slack: f64,
}

impl<I: Eq + Hash + Clone + Ord> SpaceSavingR<I> {
    /// Creates a summary with `m ≥ 1` counters.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one counter");
        SpaceSavingR {
            counts: FxHashMap::default(),
            heap: LazyMinHeap::default(),
            m,
            total: 0.0,
            absorbed_slack: 0.0,
        }
    }

    /// Absorbs one counter of another SPACESAVINGR summary (Theorem 11
    /// merging): like `update_weighted(item, w)` but the absorbed counter's
    /// own overcount bound `err ≤ w` is added to the entry's stored
    /// annotation, so post-merge certified lower weights (`c_i − err_i`)
    /// remain sound.
    pub fn absorb_counter(&mut self, item: &I, w: f64, err: f64) {
        if w <= 0.0 {
            return;
        }
        self.update_weighted(item.clone(), w);
        if let Some(entry) = self.counts.get_mut(item) {
            entry.1 += err.clamp(0.0, w);
        }
    }

    /// Absorbs another SPACESAVINGR summary's snapshot state (Theorem 11
    /// merging): replays every stored `(item, weight, err)` counter via
    /// [`SpaceSavingR::absorb_counter`], then widens the upper-bound slack
    /// by the donor's minimum counter (plus any slack the donor itself had
    /// absorbed) — an item the donor did not store may still carry up to
    /// that much weight in its stream.
    pub fn absorb_parts(&mut self, entries: &[(I, f64, f64)], capacity: usize, slack: f64) {
        let donor_min = if entries.len() >= capacity {
            entries
                .iter()
                .map(|&(_, w, _)| w)
                .fold(f64::INFINITY, f64::min)
                .max(0.0)
        } else {
            0.0
        };
        for (item, weight, err) in entries {
            self.absorb_counter(item, *weight, *err);
        }
        self.absorbed_slack += (if donor_min.is_finite() {
            donor_min
        } else {
            0.0
        }) + slack.max(0.0);
    }

    /// The accumulated donor-minimum slack from absorbed snapshots (0 for a
    /// summary that never merged).
    pub fn absorbed_slack(&self) -> f64 {
        self.absorbed_slack
    }

    /// The minimum counter value (0 while the table has room): the uniform
    /// error bound `Δ`.
    pub fn min_counter(&mut self) -> f64 {
        if self.counts.len() < self.m {
            return 0.0;
        }
        let counts = &self.counts;
        self.heap
            .peek_live(|i| counts.get(i).map(|&(w, _)| w))
            .map(|(_, w)| w)
            .unwrap_or(0.0)
    }

    /// The per-item overcount bound recorded when the item (re)entered.
    pub fn err(&self, item: &I) -> Option<f64> {
        self.counts.get(item).map(|&(_, e)| e)
    }

    /// Guaranteed lower bound on the item's true weight: `c_i − err_i`.
    pub fn guaranteed_weight(&self, item: &I) -> f64 {
        self.counts.get(item).map(|&(w, e)| w - e).unwrap_or(0.0)
    }

    fn maybe_compact(&mut self) {
        if self.heap.len() > 8 * self.m.max(16) {
            let counts = &self.counts;
            self.heap
                .rebuild(counts.iter().map(|(i, &(w, _))| (i.clone(), w)));
        }
    }

    /// Stored `(item, weight, err)` triples in descending weight order —
    /// the full per-entry state (snapshot capture).
    pub fn entries_with_err(&self) -> Vec<(I, f64, f64)> {
        let mut v: Vec<(I, f64, f64)> = self
            .counts
            .iter()
            .map(|(i, &(w, e))| (i.clone(), w, e))
            .collect();
        v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Rebuilds a summary from snapshot parts (capacity, total consumed
    /// weight, and `(item, weight, err)` triples in any order).
    ///
    /// Returns [`Error::CorruptSnapshot`] on inconsistent parts (more
    /// entries than capacity, non-finite or negative weights, `err` above
    /// the weight beyond float tolerance, duplicates).
    pub fn from_parts(
        m: usize,
        total_weight: f64,
        absorbed_slack: f64,
        entries: Vec<(I, f64, f64)>,
    ) -> Result<Self, Error> {
        if m == 0 {
            return Err(Error::corrupt_snapshot("capacity must be at least 1"));
        }
        if entries.len() > m {
            return Err(Error::corrupt_snapshot(format!(
                "{} entries exceed capacity {m}",
                entries.len()
            )));
        }
        if !total_weight.is_finite() || total_weight < 0.0 {
            return Err(Error::corrupt_snapshot(
                "total weight must be finite and >= 0",
            ));
        }
        if !absorbed_slack.is_finite() || absorbed_slack < 0.0 {
            return Err(Error::corrupt_snapshot(
                "absorbed slack must be finite and >= 0",
            ));
        }
        // Sized from the entries present, never from the untrusted `m`.
        let mut s = Self::new(m);
        s.counts.reserve(entries.len());
        s.total = total_weight;
        s.absorbed_slack = absorbed_slack;
        for (item, weight, err) in entries {
            if !(weight.is_finite() && err.is_finite() && weight >= 0.0 && err >= 0.0) {
                return Err(Error::corrupt_snapshot(
                    "weights and errs must be finite and non-negative",
                ));
            }
            if err > weight + 1e-9 {
                return Err(Error::corrupt_snapshot("err must not exceed weight"));
            }
            if s.counts.insert(item.clone(), (weight, err)).is_some() {
                return Err(Error::corrupt_snapshot("duplicate item in snapshot"));
            }
            s.heap.push(weight, item);
        }
        Ok(s)
    }
}

impl<I: Eq + Hash + Clone + Ord> WeightedFrequencyEstimator<I> for SpaceSavingR<I> {
    fn name(&self) -> &'static str {
        "SpaceSavingR"
    }

    fn capacity(&self) -> usize {
        self.m
    }

    fn update_weighted(&mut self, item: I, w: f64) {
        assert_valid_weight(w);
        if w == 0.0 {
            return;
        }
        self.total += w;
        if let Some(&(cur, err)) = self.counts.get(&item) {
            self.counts.insert(item.clone(), (cur + w, err));
            self.heap.push(cur + w, item);
        } else if self.counts.len() < self.m {
            self.counts.insert(item.clone(), (w, 0.0));
            self.heap.push(w, item);
        } else {
            let counts = &self.counts;
            let (min_item, min_w) = self
                .heap
                .pop_live(|i| counts.get(i).map(|&(x, _)| x))
                // lint:allow(panic-freedom) unreachable: this branch runs only on a full table, and the lazy heap keeps at least one live entry per stored item
                .expect("full table has a live minimum");
            self.counts.remove(&min_item);
            self.counts.insert(item.clone(), (min_w + w, min_w));
            self.heap.push(min_w + w, item);
        }
        self.maybe_compact();
    }

    fn estimate_weighted(&self, item: &I) -> f64 {
        self.counts.get(item).map(|&(w, _)| w).unwrap_or(0.0)
    }

    fn stored_len(&self) -> usize {
        self.counts.len()
    }

    fn entries_weighted(&self) -> Vec<(I, f64)> {
        let mut v: Vec<(I, f64)> = self
            .counts
            .iter()
            .map(|(i, &(w, _))| (i.clone(), w))
            .collect();
        v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    fn total_weight(&self) -> f64 {
        self.total
    }

    fn tail_constants(&self) -> Option<TailConstants> {
        Some(TailConstants::ONE_ONE)
    }
}

/// FREQUENTR: FREQUENT with real-valued weights (Section 6.1).
///
/// Counter values are stored raw; the logical value is `raw − offset` where
/// `offset` accumulates the "reduce every counter" steps. Zeroed counters
/// (within relative `1e-12`) are dropped.
#[derive(Debug, Clone)]
pub struct FrequentR<I: Eq + Hash + Clone + Ord> {
    /// item -> raw counter (logical value = raw − offset)
    raw: FxHashMap<I, f64>,
    heap: LazyMinHeap<I>,
    offset: f64,
    /// Reductions inherited from absorbed snapshots (Theorem 11 merging):
    /// they widen the `estimate + reductions` upper bound but are not part
    /// of the raw-counter offset.
    absorbed: f64,
    m: usize,
    total: f64,
}

impl<I: Eq + Hash + Clone + Ord> FrequentR<I> {
    /// Creates a summary with `m ≥ 1` counters.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one counter");
        FrequentR {
            raw: FxHashMap::default(),
            heap: LazyMinHeap::default(),
            offset: 0.0,
            absorbed: 0.0,
            m,
            total: 0.0,
        }
    }

    /// Total weight removed from every counter so far (the weighted
    /// analogue of FREQUENT's decrement count): every estimate satisfies
    /// `f_i − reductions ≤ c_i ≤ f_i`.
    pub fn reductions(&self) -> f64 {
        self.offset + self.absorbed
    }

    /// Absorbs another FREQUENTR summary's snapshot state (Theorem 11
    /// merging): replays the donor's stored `(item, value)` counters, then
    /// accounts for the donor's reductions and unreplayed weight so the
    /// merged `estimate + reductions` upper bound and total weight stay
    /// sound. Estimates keep underestimating the combined weights.
    pub fn absorb_parts(&mut self, entries: &[(I, f64)], reductions: f64, total_weight: f64) {
        let mut mass = 0.0f64;
        for (item, value) in entries {
            if *value > 0.0 {
                self.update_weighted(item.clone(), *value);
                mass += *value;
            }
        }
        self.absorbed += reductions.max(0.0);
        self.total += (total_weight - mass).max(0.0);
    }

    fn zero_tolerance(&self) -> f64 {
        1e-12 * self.offset.max(1.0)
    }

    /// Rebuilds a summary from snapshot parts: capacity, total consumed
    /// weight, the accumulated reduction offset, and `(item, logical
    /// value)` pairs in any order (the values [`WeightedFrequencyEstimator::
    /// entries_weighted`] reports).
    ///
    /// Returns [`Error::CorruptSnapshot`] on inconsistent parts.
    pub fn from_parts(
        m: usize,
        total_weight: f64,
        reductions: f64,
        entries: Vec<(I, f64)>,
    ) -> Result<Self, Error> {
        if m == 0 {
            return Err(Error::corrupt_snapshot("capacity must be at least 1"));
        }
        if entries.len() > m {
            return Err(Error::corrupt_snapshot(format!(
                "{} entries exceed capacity {m}",
                entries.len()
            )));
        }
        if !(total_weight.is_finite() && reductions.is_finite())
            || total_weight < 0.0
            || reductions < 0.0
        {
            return Err(Error::corrupt_snapshot(
                "total weight and reductions must be finite and >= 0",
            ));
        }
        // Sized from the entries present, never from the untrusted `m`.
        let mut s = Self::new(m);
        s.raw.reserve(entries.len());
        s.total = total_weight;
        s.offset = reductions;
        for (item, value) in entries {
            if !value.is_finite() || value <= 0.0 {
                return Err(Error::corrupt_snapshot(
                    "stored logical values must be finite and positive",
                ));
            }
            let raw = reductions + value;
            if s.raw.insert(item.clone(), raw).is_some() {
                return Err(Error::corrupt_snapshot("duplicate item in snapshot"));
            }
            s.heap.push(raw, item);
        }
        Ok(s)
    }

    /// Drops entries whose logical value is ≤ the float-equality tolerance.
    fn drop_zeros(&mut self) {
        let tol = self.offset + self.zero_tolerance();
        loop {
            let raw_map = &self.raw;
            match self.heap.peek_live(|i| raw_map.get(i).copied()) {
                Some((item, raw)) if raw <= tol => {
                    self.heap.pop_top();
                    self.raw.remove(&item);
                }
                _ => break,
            }
        }
    }

    fn maybe_compact(&mut self) {
        if self.heap.len() > 8 * self.m.max(16) {
            let raw_map = &self.raw;
            self.heap
                .rebuild(raw_map.iter().map(|(i, &r)| (i.clone(), r)));
        }
    }
}

impl<I: Eq + Hash + Clone + Ord> WeightedFrequencyEstimator<I> for FrequentR<I> {
    fn name(&self) -> &'static str {
        "FrequentR"
    }

    fn capacity(&self) -> usize {
        self.m
    }

    fn update_weighted(&mut self, item: I, w: f64) {
        assert_valid_weight(w);
        if w == 0.0 {
            return;
        }
        self.total += w;
        let mut b = w;
        loop {
            if let Some(&raw) = self.raw.get(&item) {
                self.raw.insert(item.clone(), raw + b);
                self.heap.push(raw + b, item);
                break;
            }
            if self.raw.len() < self.m {
                self.raw.insert(item.clone(), self.offset + b);
                self.heap.push(self.offset + b, item);
                break;
            }
            // Table full: reduce all counters by t = min(b, c_min).
            let raw_map = &self.raw;
            let (_, min_raw) = self
                .heap
                .peek_live(|i| raw_map.get(i).copied())
                // lint:allow(panic-freedom) unreachable: this branch runs only on a full table, and the lazy heap keeps at least one live entry per stored item
                .expect("full table has a live minimum");
            let c_min = min_raw - self.offset;
            if b <= c_min + self.zero_tolerance() {
                self.offset += b;
                self.drop_zeros();
                break; // the arriving weight is fully consumed
            }
            self.offset += c_min;
            b -= c_min;
            self.drop_zeros();
            debug_assert!(self.raw.len() < self.m, "a zeroed counter freed a slot");
        }
        self.maybe_compact();
    }

    fn estimate_weighted(&self, item: &I) -> f64 {
        self.raw
            .get(item)
            .map(|&r| (r - self.offset).max(0.0))
            .unwrap_or(0.0)
    }

    fn stored_len(&self) -> usize {
        self.raw.len()
    }

    fn entries_weighted(&self) -> Vec<(I, f64)> {
        let mut v: Vec<(I, f64)> = self
            .raw
            .iter()
            .map(|(i, &r)| (i.clone(), (r - self.offset).max(0.0)))
            .collect();
        v.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    fn total_weight(&self) -> f64 {
        self.total
    }

    fn tail_constants(&self) -> Option<TailConstants> {
        Some(TailConstants::ONE_ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacesaving_r_reduces_to_unit_behavior() {
        use crate::space_saving::SpaceSaving;
        use crate::traits::FrequencyEstimator;
        let stream = [1u64, 2, 3, 1, 4, 2, 5, 1];
        let mut unit = SpaceSaving::new(3);
        let mut real = SpaceSavingR::new(3);
        for &x in &stream {
            unit.update(x);
            real.update_weighted(x, 1.0);
        }
        // counter-value multisets agree (tie-breaks may differ)
        let mut uc: Vec<u64> = unit.entries().iter().map(|&(_, c)| c).collect();
        let mut rc: Vec<u64> = real
            .entries_weighted()
            .iter()
            .map(|&(_, w)| w.round() as u64)
            .collect();
        uc.sort_unstable();
        rc.sort_unstable();
        assert_eq!(uc, rc);
        assert!((real.total_weight() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn spacesaving_r_counter_sum_equals_total_weight() {
        let updates = [
            (1u64, 2.5),
            (2, 0.5),
            (3, 1.25),
            (1, 3.0),
            (4, 0.75),
            (5, 2.0),
        ];
        let mut s = SpaceSavingR::new(3);
        for &(i, w) in &updates {
            s.update_weighted(i, w);
        }
        let sum: f64 = s.entries_weighted().iter().map(|&(_, w)| w).sum();
        assert!((sum - s.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn spacesaving_r_overestimates() {
        let updates: Vec<(u64, f64)> = (0..200)
            .map(|i| ((i % 17) as u64 + 1, 0.5 + (i % 5) as f64))
            .collect();
        let mut s = SpaceSavingR::new(5);
        let mut exact = std::collections::HashMap::new();
        for &(i, w) in &updates {
            s.update_weighted(i, w);
            *exact.entry(i).or_insert(0.0) += w;
        }
        for (item, w) in s.entries_weighted() {
            let f = exact[&item];
            assert!(w >= f - 1e-9, "stored item {item}: {w} < {f}");
            assert!(s.guaranteed_weight(&item) <= f + 1e-9);
        }
    }

    #[test]
    fn frequent_r_underestimates_within_reductions() {
        let updates: Vec<(u64, f64)> = (0..300)
            .map(|i| ((i % 23) as u64 + 1, 1.0 + (i % 3) as f64 * 0.5))
            .collect();
        let mut s = FrequentR::new(6);
        let mut exact = std::collections::HashMap::new();
        for &(i, w) in &updates {
            s.update_weighted(i, w);
            *exact.entry(i).or_insert(0.0) += w;
        }
        let d = s.reductions();
        for (&item, &f) in &exact {
            let c = s.estimate_weighted(&item);
            assert!(c <= f + 1e-6, "item {item}: estimate {c} > exact {f}");
            assert!(c + d >= f - 1e-6, "item {item}: {c} + {d} < {f}");
        }
    }

    #[test]
    fn frequent_r_heavy_hitter_guarantee() {
        // error <= F1 / m
        let updates: Vec<(u64, f64)> = (0..500)
            .map(|i| ((i % 37) as u64 + 1, ((i * 13) % 7) as f64 + 0.25))
            .collect();
        let m = 8;
        let mut s = FrequentR::new(m);
        let mut exact = std::collections::HashMap::new();
        let mut f1 = 0.0;
        for &(i, w) in &updates {
            s.update_weighted(i, w);
            *exact.entry(i).or_insert(0.0) += w;
            f1 += w;
        }
        for (&item, &f) in &exact {
            let err = (f - s.estimate_weighted(&item)).abs();
            assert!(err <= f1 / m as f64 + 1e-6, "item {item}: err {err}");
        }
    }

    #[test]
    fn frequent_r_big_weight_displaces_all() {
        let mut s = FrequentR::new(2);
        s.update_weighted(1u64, 1.0);
        s.update_weighted(2, 2.0);
        // 3 arrives with huge weight: reduce by cmin=1 (kills 1), then room
        s.update_weighted(3, 10.0);
        assert!((s.estimate_weighted(&3) - 9.0).abs() < 1e-9);
        assert!((s.estimate_weighted(&2) - 1.0).abs() < 1e-9);
        assert_eq!(s.estimate_weighted(&1), 0.0);
        assert!((s.reductions() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn frequent_r_small_weight_fully_consumed() {
        let mut s = FrequentR::new(2);
        s.update_weighted(1u64, 5.0);
        s.update_weighted(2, 3.0);
        s.update_weighted(3, 0.5); // 0.5 < cmin=3: everyone loses 0.5
        assert_eq!(s.stored_len(), 2);
        assert!((s.estimate_weighted(&1) - 4.5).abs() < 1e-9);
        assert!((s.estimate_weighted(&2) - 2.5).abs() < 1e-9);
        assert_eq!(s.estimate_weighted(&3), 0.0);
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut s = SpaceSavingR::new(2);
        s.update_weighted(1u64, 0.0);
        assert_eq!(s.stored_len(), 0);
        let mut f = FrequentR::new(2);
        f.update_weighted(1u64, 0.0);
        assert_eq!(f.stored_len(), 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weight() {
        let mut s = SpaceSavingR::new(2);
        s.update_weighted(1u64, -1.0);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // >=10k-op loop: too slow interpreted
    fn heaps_stay_bounded_under_churn() {
        let mut s = SpaceSavingR::new(4);
        let mut f = FrequentR::new(4);
        for i in 0..20_000u64 {
            s.update_weighted(i % 50, 1.0 + (i % 3) as f64);
            f.update_weighted(i % 50, 1.0 + (i % 3) as f64);
        }
        assert!(s.heap.len() <= 8 * 16 + 1);
        assert!(f.heap.len() <= 8 * 16 + 1);
    }
}
