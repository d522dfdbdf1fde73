//! FREQUENT — the Misra–Gries algorithm (Algorithm 1 / Figure 1 of the
//! paper), with O(1) amortized updates.
//!
//! Semantics follow the paper's pseudocode exactly: on an unstored item with
//! a full table, *every* stored counter is decremented by one and zeroed
//! counters are dropped (the arriving item is not stored). Estimates
//! *underestimate*: `f_i − d ≤ c_i ≤ f_i`, where `d` is the number of
//! decrement rounds.
//!
//! The all-counter decrement is implemented with an *offset*: raw counts
//! live in a [`StreamSummary`] bucket list and the logical value of an entry
//! is `raw − offset`. A decrement round is `offset += 1` followed by popping
//! head buckets whose raw count fell to the offset — amortized O(1) because
//! each pop is paid for by the insertion that created the entry.
//!
//! Guarantees (proved in the paper):
//! * heavy-hitter guarantee with `A = 1` (classical),
//! * k-tail guarantee with `A = B = 1` for every `k < m` (Appendix B),
//! * underestimation: suitable for Section 4.2 m-sparse recovery as-is.

use std::hash::Hash;

use crate::error::Error;
use crate::stream_summary::StreamSummary;
use crate::traits::{Bias, FrequencyEstimator, TailConstants};

/// The FREQUENT (Misra–Gries) summary with `m` counters.
#[derive(Debug, Clone)]
pub struct Frequent<I: Eq + Hash + Clone> {
    summary: StreamSummary<I>,
    m: usize,
    /// Number of decrement rounds so far (`d` in Appendix B); logical value
    /// of an entry is `raw − offset`.
    offset: u64,
    /// Decrement rounds inherited from absorbed snapshots (Theorem 11
    /// merging): they widen the `estimate + decrements` upper bound but are
    /// not part of the raw-count offset.
    absorbed: u64,
    stream_len: u64,
}

impl<I: Eq + Hash + Clone> Frequent<I> {
    /// Creates a summary with `m ≥ 1` counters.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one counter");
        Self::with_room(m, m)
    }

    /// A summary with `m` counters whose table starts sized for `room`
    /// entries and grows on demand up to `m`.
    fn with_room(m: usize, room: usize) -> Self {
        Frequent {
            summary: StreamSummary::with_capacity(room),
            m,
            offset: 0,
            absorbed: 0,
            stream_len: 0,
        }
    }

    /// Number of decrement rounds performed so far. Every estimate `c_i`
    /// satisfies `f_i − decrements ≤ c_i ≤ f_i`.
    pub fn decrements(&self) -> u64 {
        self.offset.saturating_add(self.absorbed)
    }

    /// A guaranteed upper bound on any item's true frequency:
    /// `estimate + decrements`, saturating at `u64::MAX` (which still
    /// bounds any count).
    pub fn upper_estimate(&self, item: &I) -> u64 {
        self.estimate(item).saturating_add(self.decrements())
    }

    /// Rebuilds a summary from snapshot parts: the capacity `m`, the total
    /// stream length consumed, the number of decrement rounds performed,
    /// and the stored `(item, logical value)` pairs in *descending* value
    /// order (the order [`FrequencyEstimator::entries`] produces). The
    /// restored summary has identical estimates, decrement count and
    /// tie-breaking state.
    ///
    /// Returns [`Error::CorruptSnapshot`] when the parts are inconsistent
    /// (more entries than capacity, non-positive or out-of-order values,
    /// duplicates, or stored mass exceeding the stream length).
    pub fn from_parts(
        m: usize,
        stream_len: u64,
        decrements: u64,
        entries: Vec<(I, u64)>,
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
        let total = entries
            .iter()
            .try_fold(0u64, |sum, &(_, v)| sum.checked_add(v))
            .ok_or_else(|| Error::corrupt_snapshot("Frequent stored mass overflows u64"))?;
        if total > stream_len {
            return Err(Error::corrupt_snapshot(format!(
                "stored mass {total} exceeds stream length {stream_len}"
            )));
        }
        // Sized from the entries present, not from the untrusted declared
        // capacity (see `SpaceSaving::from_parts`).
        let mut s = Self::with_room(m, entries.len());
        s.stream_len = stream_len;
        s.offset = decrements;
        // Ascending insertion preserves the bucket FIFO order (see the
        // SPACESAVING rehydration note).
        let mut prev = 0u64;
        for (item, value) in entries.into_iter().rev() {
            if value == 0 {
                return Err(Error::corrupt_snapshot("stored values must be positive"));
            }
            if value < prev {
                return Err(Error::corrupt_snapshot(
                    "entries must be in descending value order",
                ));
            }
            prev = value;
            if s.summary.contains(&item) {
                return Err(Error::corrupt_snapshot("duplicate item in snapshot"));
            }
            let raw = decrements.checked_add(value).ok_or_else(|| {
                Error::corrupt_snapshot("Frequent decrements plus value overflow u64")
            })?;
            s.summary.insert(item, raw, decrements);
        }
        Ok(s)
    }

    /// Absorbs another FREQUENT summary's snapshot state (the Theorem 11
    /// merge step): replays the donor's stored `(item, value)` counters,
    /// then accounts for the donor's decrement rounds and unreplayed stream
    /// mass so the merged `estimate + decrements` upper bound and `F1` stay
    /// sound. Estimates keep underestimating: the replayed mass never
    /// exceeds the true combined frequencies.
    ///
    /// Returns [`Error::Overflow`], leaving the summary unchanged, when the
    /// combined stream length or decrement rounds would exceed `u64::MAX`,
    /// or when the decrement offset plus the combined stream length would
    /// (that sum bounds every raw counter after the replay).
    pub fn absorb_parts(
        &mut self,
        entries: &[(I, u64)],
        decrements: u64,
        stream_len: u64,
    ) -> Result<(), Error> {
        let overflow = |what: &str| Error::Overflow(format!("merged Frequent {what} exceeds u64"));
        let mass = entries
            .iter()
            .try_fold(0u64, |sum, &(_, v)| sum.checked_add(v))
            .ok_or_else(|| overflow("stream length"))?;
        let combined = self
            .stream_len
            .checked_add(mass.max(stream_len))
            .ok_or_else(|| overflow("stream length"))?;
        self.offset
            .checked_add(combined)
            .ok_or_else(|| overflow("counters"))?;
        // Decrement rounds the donor performed bound the mass its table no
        // longer holds (an unstored donor item has f ≤ decrements); fold
        // them into the merged bound and restore the true combined F1.
        let absorbed = self
            .absorbed
            .checked_add(decrements)
            .ok_or_else(|| overflow("decrement rounds"))?;
        for (item, value) in entries {
            self.apply(item, *value);
        }
        self.absorbed = absorbed;
        self.stream_len = combined;
        Ok(())
    }

    fn logical(&self, raw: u64) -> u64 {
        debug_assert!(raw > self.offset, "stored entries have positive value");
        raw - self.offset
    }

    /// One FREQUENT step for `count` occurrences of `item`, hashing it once
    /// and cloning it only when it actually enters the table. Shared by
    /// [`FrequencyEstimator::update_by`] and the batched ingest path.
    fn apply(&mut self, item: &I, count: u64) {
        if count == 0 {
            return;
        }
        self.stream_len += count;
        let hash = self.summary.hash_of(item);
        let mut remaining = count;
        loop {
            if self.summary.increment_hashed(hash, item, remaining) {
                return;
            }
            if self.summary.len() < self.m {
                self.summary.insert_hashed(
                    hash,
                    item.clone(),
                    self.offset + remaining,
                    self.offset,
                );
                return;
            }
            // Table full and item unstored: spend decrement rounds. Each
            // round consumes one occurrence of `item` and decrements every
            // stored counter; we batch t rounds at once where t is capped by
            // the smallest stored value (after which entries die and free a
            // slot) and by the occurrences we still hold.
            let min_val = self
                .summary
                .min_count()
                // lint:allow(panic-freedom) unreachable: this branch runs only when the summary holds m counters, so a minimum exists
                .expect("table is full, hence non-empty")
                - self.offset;
            let t = remaining.min(min_val);
            self.offset += t;
            remaining -= t;
            self.summary.drop_le(self.offset);
            if remaining == 0 {
                return;
            }
            // At least one entry died (t == min_val), so there is room now.
            debug_assert!(self.summary.len() < self.m);
        }
    }

    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.summary.check_invariants();
        assert!(self.summary.len() <= self.m);
        if let Some(min) = self.summary.min_count() {
            assert!(min > self.offset, "all stored values positive");
        }
    }
}

impl<I: Eq + Hash + Clone> FrequencyEstimator<I> for Frequent<I> {
    fn name(&self) -> &'static str {
        "Frequent"
    }

    fn capacity(&self) -> usize {
        self.m
    }

    fn update_by(&mut self, item: I, count: u64) {
        self.apply(&item, count);
    }

    /// Batched ingest: run-length aggregates the slice so a run of `r`
    /// equal arrivals costs one hash probe instead of `r`, and stored items
    /// are never cloned. Equivalent to per-element
    /// [`FrequencyEstimator::update`] (FREQUENT's bulk update commutes with
    /// splitting, which the property tests verify).
    fn update_batch(&mut self, items: &[I]) {
        crate::traits::for_each_run(items, |item, run| self.apply(item, run));
    }

    fn estimate(&self, item: &I) -> u64 {
        self.summary
            .count(item)
            .map(|raw| self.logical(raw))
            .unwrap_or(0)
    }

    fn stored_len(&self) -> usize {
        self.summary.len()
    }

    fn entries(&self) -> Vec<(I, u64)> {
        let mut out = Vec::new();
        self.top_entries_into(usize::MAX, &mut out);
        out
    }

    /// Straight out of the bucket list, with raw counts translated to
    /// logical values on the way out.
    fn top_entries_into(&self, k: usize, out: &mut Vec<(I, u64)>) {
        out.clear();
        if k == 0 {
            return;
        }
        out.reserve(self.summary.len().min(k));
        self.summary.while_desc(|item, raw, _| {
            out.push((item.clone(), self.logical(raw)));
            out.len() < k
        });
    }

    fn stream_len(&self) -> u64 {
        self.stream_len
    }

    fn bias(&self) -> Bias {
        Bias::Under
    }

    /// The inherent [`Frequent::upper_estimate`]:
    /// `estimate + decrements` bounds any item's true frequency.
    fn upper_estimate(&self, item: &I) -> u64 {
        Frequent::upper_estimate(self, item)
    }

    fn tail_constants(&self) -> Option<TailConstants> {
        Some(TailConstants::ONE_ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: usize, stream: &[u64]) -> Frequent<u64> {
        let mut f = Frequent::new(m);
        for &x in stream {
            f.update(x);
        }
        f.check_invariants();
        f
    }

    #[test]
    fn fills_table_before_decrementing() {
        let f = run(3, &[1, 2, 3]);
        assert_eq!(f.estimate(&1), 1);
        assert_eq!(f.estimate(&2), 1);
        assert_eq!(f.estimate(&3), 1);
        assert_eq!(f.decrements(), 0);
    }

    #[test]
    fn decrement_round_drops_zeros_and_skips_new_item() {
        // table m=2 holds {1:1, 2:1}; arrival of 3 decrements both to zero
        // and 3 is NOT stored (paper's Algorithm 1).
        let f = run(2, &[1, 2, 3]);
        assert_eq!(f.stored_len(), 0);
        assert_eq!(f.estimate(&1), 0);
        assert_eq!(f.estimate(&3), 0);
        assert_eq!(f.decrements(), 1);
    }

    #[test]
    fn majority_element_survives() {
        // classic: with m=1, a strict majority item ends with positive count
        let stream = [7u64, 3, 7, 5, 7, 7, 2, 7];
        let f = run(1, &stream);
        assert_eq!(f.entries()[0].0, 7);
        assert!(f.estimate(&7) > 0);
    }

    #[test]
    fn underestimates_always() {
        let stream = [1u64, 1, 1, 2, 2, 3, 4, 5, 1, 2, 6, 7];
        let f = run(3, &stream);
        let exact = |i: u64| stream.iter().filter(|&&x| x == i).count() as u64;
        for i in 1..=7u64 {
            assert!(f.estimate(&i) <= exact(i), "item {i}");
            assert!(f.upper_estimate(&i) >= exact(i), "item {i} upper");
        }
    }

    #[test]
    fn heavy_hitter_guarantee_small() {
        // error <= F1 / m for every item (classical guarantee, A=1... the
        // paper's Definition 1 uses floor(A*F1/m))
        let stream: Vec<u64> = (0..200).map(|i| (i % 13) + 1).collect();
        let m = 5;
        let f = run(m, &stream);
        let exact = |i: u64| stream.iter().filter(|&&x| x == i).count() as u64;
        let bound = stream.len() as u64 / m as u64;
        for i in 1..=13u64 {
            let err = exact(i).abs_diff(f.estimate(&i));
            assert!(err <= bound, "item {i}: err {err} > bound {bound}");
        }
    }

    #[test]
    fn update_by_equals_repeated_update() {
        let updates = [(1u64, 3u64), (2, 5), (3, 1), (1, 2), (4, 4), (5, 6), (1, 1)];
        let mut bulk = Frequent::new(3);
        let mut unit = Frequent::new(3);
        for &(item, c) in &updates {
            bulk.update_by(item, c);
            for _ in 0..c {
                unit.update(item);
            }
        }
        bulk.check_invariants();
        unit.check_invariants();
        let mut be = bulk.entries();
        let mut ue = unit.entries();
        be.sort_unstable();
        ue.sort_unstable();
        assert_eq!(be, ue);
        assert_eq!(bulk.decrements(), unit.decrements());
    }

    #[test]
    fn update_by_zero_is_noop() {
        let mut f = Frequent::new(2);
        f.update_by(1, 0);
        assert_eq!(f.stored_len(), 0);
        assert_eq!(f.stream_len(), 0);
    }

    #[test]
    fn stream_len_tracks_f1() {
        let f = run(2, &[1, 1, 2, 3, 4]);
        assert_eq!(f.stream_len(), 5);
    }

    #[test]
    fn large_bulk_update_cycles_through_decrements() {
        let mut f = Frequent::new(2);
        f.update_by(1, 10);
        f.update_by(2, 10);
        // 3 arrives 25 times: 10 rounds kill 1 and 2, 15 remain stored
        f.update_by(3, 25);
        f.check_invariants();
        assert_eq!(f.estimate(&3), 15);
        assert_eq!(f.estimate(&1), 0);
        assert_eq!(f.decrements(), 10);
    }
}
