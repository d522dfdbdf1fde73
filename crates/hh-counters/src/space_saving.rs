//! SPACESAVING — Metwally, Agrawal, El Abbadi's algorithm (Algorithm 2 /
//! Figure 1 of the paper), on the O(1)-per-update Stream-Summary structure.
//!
//! On an unstored item with a full table, the entry with the smallest
//! counter `c_j` is replaced: the new item takes over with count `c_j + 1`
//! and records `err = c_j` (the maximum overcount it may carry).
//!
//! Properties used throughout the paper:
//! * the counter sum always equals the stream length (Appendix C),
//! * estimates *overestimate*: `f_i ≤ c_i ≤ f_i + err_i ≤ f_i + Δ` where
//!   `Δ` is the minimum counter,
//! * k-tail guarantee with `A = B = 1` for every `k < m` (Appendix C),
//! * subtracting `err_i` (or `Δ`) yields an *underestimating* summary
//!   suitable for m-sparse recovery ([`crate::underestimate`]).
//!
//! A binary-heap ablation ([`HeapSpaceSaving`]) with O(log m) updates is
//! provided to benchmark the bucket-list design choice.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hash;

use crate::error::Error;
use crate::fasthash::FxHashMap;
use crate::stream_summary::StreamSummary;
use crate::traits::{Bias, FrequencyEstimator, TailConstants};

/// The SPACESAVING summary with `m` counters.
#[derive(Debug, Clone)]
pub struct SpaceSaving<I: Eq + Hash + Clone> {
    summary: StreamSummary<I>,
    m: usize,
    stream_len: u64,
    /// Upper-bound slack inherited from absorbed snapshots (Theorem 11
    /// merging): each donor's minimum counter `Δ` bounds the mass of the
    /// items it did *not* store, so every post-merge upper bound widens by
    /// the accumulated donor `Δ`s.
    absorbed_slack: u64,
}

impl<I: Eq + Hash + Clone> SpaceSaving<I> {
    /// Creates a summary with `m ≥ 1` counters.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one counter");
        Self::with_room(m, m)
    }

    /// A summary with `m` counters whose table starts sized for `room`
    /// entries and grows on demand up to `m`.
    fn with_room(m: usize, room: usize) -> Self {
        SpaceSaving {
            summary: StreamSummary::with_capacity(room),
            m,
            stream_len: 0,
            absorbed_slack: 0,
        }
    }

    /// The minimum counter value `Δ` (0 while the table is not full), which
    /// upper-bounds every estimation error (Lemma 3 of \[25\], used in
    /// Appendix C).
    pub fn min_counter(&self) -> u64 {
        if self.summary.len() < self.m {
            0
        } else {
            self.summary.min_count().unwrap_or(0)
        }
    }

    /// The per-item overcount bound `err_i` recorded when `item` (re)entered
    /// the table (0 if the item has been stored since the table had room).
    pub fn err(&self, item: &I) -> Option<u64> {
        self.summary.err(item)
    }

    /// A guaranteed lower bound on the true frequency of a *stored* item:
    /// `c_i − err_i` (0 for unstored items). Always `≤ f_i`.
    pub fn guaranteed_count(&self, item: &I) -> u64 {
        match (self.summary.count(item), self.summary.err(item)) {
            (Some(c), Some(e)) => c - e,
            _ => 0,
        }
    }

    /// An upper bound on the true frequency of *any* item: the estimate for
    /// stored items, `Δ` for unstored ones (an unstored item can have
    /// occurred at most `min_counter` times), plus the absorbed-snapshot
    /// slack (mass a merged-in donor may have held for the item without
    /// storing it). Saturates at `u64::MAX`, which still bounds any count.
    pub fn upper_estimate(&self, item: &I) -> u64 {
        self.summary
            .count(item)
            .unwrap_or_else(|| self.min_counter())
            .saturating_add(self.absorbed_slack)
    }

    /// The accumulated donor-`Δ` slack from absorbed snapshots (0 for a
    /// summary that never merged).
    pub fn absorbed_slack(&self) -> u64 {
        self.absorbed_slack
    }

    /// Absorbs another SPACESAVING summary's snapshot state (the Theorem 11
    /// merge step): replays every stored `(item, count, err)` counter,
    /// adding its `err` to the replayed entry's annotation, then widens the
    /// upper-bound slack by the donor's minimum counter `Δ` (plus any slack
    /// the donor itself had absorbed) — an item the donor did not store may
    /// still have occurred up to `Δ` times in its stream.
    ///
    /// Returns [`Error::Overflow`], leaving the summary unchanged, when the
    /// combined stream length or slack would exceed `u64::MAX`. Every
    /// merged counter is bounded by the combined stream length, so no
    /// counter can overflow once that check passes.
    pub fn absorb_parts(
        &mut self,
        entries: &[(I, u64, u64)],
        capacity: usize,
        slack: u64,
    ) -> Result<(), Error> {
        let overflow =
            |what: &str| Error::Overflow(format!("merged SpaceSaving {what} exceeds u64"));
        entries
            .iter()
            .try_fold(self.stream_len, |sum, &(_, c, _)| sum.checked_add(c))
            .ok_or_else(|| overflow("stream length"))?;
        let donor_min = if entries.len() >= capacity {
            entries.iter().map(|&(_, c, _)| c).min().unwrap_or(0)
        } else {
            0
        };
        let absorbed_slack = self
            .absorbed_slack
            .checked_add(donor_min)
            .and_then(|s| s.checked_add(slack))
            .ok_or_else(|| overflow("slack"))?;
        for (item, count, err) in entries {
            self.absorb_counter(item, *count, *err);
        }
        self.absorbed_slack = absorbed_slack;
        Ok(())
    }

    /// Full snapshot including the per-entry error annotations, sorted by
    /// descending count.
    pub fn entries_with_err(&self) -> Vec<(I, u64, u64)> {
        self.summary.snapshot_desc()
    }

    /// Rebuilds a summary from snapshot parts: the capacity `m`, the total
    /// stream length consumed, and the stored `(item, count, err)` triples
    /// in *descending* count order (the order [`Self::entries_with_err`]
    /// produces). The restored summary has identical estimates, error
    /// annotations, tie-breaking state and guarantees.
    ///
    /// Returns [`Error::CorruptSnapshot`] when the parts are inconsistent:
    /// more entries than capacity, `err > count`, duplicate items, counts
    /// out of order, or counter mass differing from `stream_len` (the
    /// Appendix C invariant).
    pub fn from_parts(
        m: usize,
        stream_len: u64,
        absorbed_slack: u64,
        entries: Vec<(I, u64, u64)>,
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
            .try_fold(0u64, |sum, &(_, c, _)| sum.checked_add(c))
            .ok_or_else(|| Error::corrupt_snapshot("SpaceSaving counter mass overflows u64"))?;
        if total != stream_len {
            return Err(Error::corrupt_snapshot(format!(
                "SpaceSaving counter mass {total} must equal stream length {stream_len}"
            )));
        }
        // Sized from the entries present, not from the declared capacity:
        // `m` is untrusted input, and the table grows up to it on demand.
        let mut s = Self::with_room(m, entries.len());
        s.stream_len = stream_len;
        s.absorbed_slack = absorbed_slack;
        // Insert in ascending order so the bucket FIFO (and hence future
        // tie-breaking) matches the original summary exactly.
        let mut prev = 0u64;
        for (item, count, err) in entries.into_iter().rev() {
            if err > count {
                return Err(Error::corrupt_snapshot(format!(
                    "err {err} exceeds count {count}"
                )));
            }
            if count == 0 {
                return Err(Error::corrupt_snapshot("stored counts must be positive"));
            }
            if count < prev {
                return Err(Error::corrupt_snapshot(
                    "entries must be in descending count order",
                ));
            }
            prev = count;
            if s.summary.contains(&item) {
                return Err(Error::corrupt_snapshot("duplicate item in snapshot"));
            }
            s.summary.insert(item, count, err);
        }
        Ok(s)
    }

    /// Absorbs one counter of another SPACESAVING summary (the Theorem 11
    /// merge step): like `update_by(item, count)` but the absorbed counter's
    /// own overcount bound `err ≤ count` is added to the entry's stored
    /// annotation, so post-merge certified lower bounds (`c_i − err_i`)
    /// remain sound — the replayed `count` may itself overcount the donor
    /// stream by up to `err`.
    fn absorb_counter(&mut self, item: &I, count: u64, err: u64) {
        if count == 0 {
            return;
        }
        debug_assert!(err <= count, "a SPACESAVING counter bounds its own err");
        self.apply(item, count);
        // `apply` either incremented the stored entry, inserted the item, or
        // evicted the minimum to admit it — in every case the item is now
        // stored and its annotation absorbs the donor's error term.
        self.summary.add_err(item, err.min(count));
    }

    /// One SPACESAVING step for `count` occurrences of `item`, hashing it
    /// once and cloning it only when it actually enters the table. Shared by
    /// [`FrequencyEstimator::update_by`] and the batched ingest path.
    // lint:hot-path
    fn apply(&mut self, item: &I, count: u64) {
        if count == 0 {
            return;
        }
        self.stream_len += count;
        let hash = self.summary.hash_of(item);
        if self.summary.increment_hashed(hash, item, count) {
            return;
        }
        if self.summary.len() < self.m {
            self.summary.insert_hashed(hash, item.clone(), count, 0);
            return;
        }
        // lint:allow(panic-freedom) unreachable: this branch runs only when the summary is at capacity m >= 1, so eviction always finds a minimum
        let (_, min_count, _) = self.summary.evict_min().expect("full table is non-empty");
        self.summary
            .insert_hashed(hash, item.clone(), min_count + count, min_count);
    }

    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.summary.check_invariants();
        assert!(self.summary.len() <= self.m);
        // Appendix C: the counter sum equals the stream length once
        // per-unit updates are used; with update_by it still holds because
        // replacement preserves sum + by.
        assert_eq!(self.summary.counter_sum(), self.stream_len);
        for (_, count, err) in self.summary.snapshot_asc() {
            assert!(err <= count, "err never exceeds count");
        }
    }
}

impl<I: Eq + Hash + Clone> FrequencyEstimator<I> for SpaceSaving<I> {
    fn name(&self) -> &'static str {
        "SpaceSaving"
    }

    fn capacity(&self) -> usize {
        self.m
    }

    fn update_by(&mut self, item: I, count: u64) {
        self.apply(&item, count);
    }

    /// Batched ingest: run-length aggregates the slice so a run of `r`
    /// equal arrivals costs one hash probe and one bucket move instead of
    /// `r`, and stored items are never cloned. Equivalent to per-element
    /// [`FrequencyEstimator::update`] (SPACESAVING's bulk update commutes
    /// with splitting, which the property tests verify).
    // lint:hot-path
    fn update_batch(&mut self, items: &[I]) {
        crate::traits::for_each_run(items, |item, run| self.apply(item, run));
    }

    fn estimate(&self, item: &I) -> u64 {
        self.summary.count(item).unwrap_or(0)
    }

    fn stored_len(&self) -> usize {
        self.summary.len()
    }

    fn entries(&self) -> Vec<(I, u64)> {
        let mut out = Vec::new();
        self.top_entries_into(usize::MAX, &mut out);
        out
    }

    /// Straight out of the bucket list ([`StreamSummary::while_desc`]).
    fn top_entries_into(&self, k: usize, out: &mut Vec<(I, u64)>) {
        out.clear();
        if k == 0 {
            return;
        }
        out.reserve(self.summary.len().min(k));
        self.summary.while_desc(|item, count, _| {
            out.push((item.clone(), count));
            out.len() < k
        });
    }

    fn stream_len(&self) -> u64 {
        self.stream_len
    }

    fn bias(&self) -> Bias {
        Bias::Over
    }

    /// The stored overcount annotation `err_i` — the trait's default
    /// [`FrequencyEstimator::lower_estimate`] turns this into the certified
    /// minimum `c_i − err_i`.
    fn error_term(&self, item: &I) -> Option<u64> {
        self.err(item)
    }

    /// The inherent [`SpaceSaving::upper_estimate`]: the estimate for
    /// stored items, the minimum counter `Δ` for unstored ones.
    fn upper_estimate(&self, item: &I) -> u64 {
        SpaceSaving::upper_estimate(self, item)
    }

    fn tail_constants(&self) -> Option<TailConstants> {
        Some(TailConstants::ONE_ONE)
    }
}

/// Ablation baseline: SPACESAVING backed by a lazy binary heap instead of
/// the bucket list.
///
/// Increments of stored items are pure hash-map updates — the heap is *not*
/// touched, so its entries go stale. Repair happens lazily at eviction
/// time: popping a stale entry re-pushes the item at its current count and
/// keeps popping. Since every live item has exactly one heap entry and
/// counts only grow, an eviction performs at most one re-push per item,
/// keeping the heap at exactly `counts.len() ≤ m` entries with O(log m)
/// amortized eviction cost.
///
/// Tie-breaking among minimal counters follows heap order, which differs
/// from [`SpaceSaving`]'s least-recently-updated rule; all *guarantees* are
/// identical (the proofs never depend on the tie-break), but exact states
/// may diverge on ties.
#[derive(Debug, Clone)]
pub struct HeapSpaceSaving<I: Eq + Hash + Clone + Ord> {
    counts: FxHashMap<I, (u64, u64)>, // item -> (count, err)
    /// Lazy min-heap of (count-at-push, seq, item); exactly one entry per
    /// stored item, repaired on pop when stale.
    heap: BinaryHeap<Reverse<(u64, u64, I)>>,
    seq: u64,
    m: usize,
    stream_len: u64,
}

impl<I: Eq + Hash + Clone + Ord> HeapSpaceSaving<I> {
    /// Creates a summary with `m ≥ 1` counters.
    pub fn new(m: usize) -> Self {
        assert!(m >= 1, "need at least one counter");
        HeapSpaceSaving {
            counts: FxHashMap::default(),
            heap: BinaryHeap::new(),
            seq: 0,
            m,
            stream_len: 0,
        }
    }

    fn push(&mut self, item: I, count: u64) {
        self.seq += 1;
        self.heap.push(Reverse((count, self.seq, item)));
    }

    /// Pops the live minimum `(item, count, err)` and removes it from the
    /// table, re-pushing stale entries at their current count along the way
    /// (the lazy repair step).
    fn evict_min(&mut self) -> (I, u64, u64) {
        loop {
            // lint:allow(panic-freedom) unreachable: the lazy heap holds at least one entry per live item and evict_min is called only on a full table
            let Reverse((count, _, item)) = self.heap.pop().expect("table non-empty");
            match self.counts.get(&item) {
                Some(&(cur, err)) if cur == count => {
                    self.counts.remove(&item);
                    return (item, count, err);
                }
                Some(&(cur, _)) => {
                    // stale: the item was incremented since its push; its
                    // fresh entry cannot be the minimum we are looking for,
                    // but it must stay represented in the heap
                    debug_assert!(cur > count);
                    self.push(item, cur);
                }
                None => unreachable!("every heap entry belongs to a stored item"),
            }
        }
    }
}

impl<I: Eq + Hash + Clone + Ord> FrequencyEstimator<I> for HeapSpaceSaving<I> {
    fn name(&self) -> &'static str {
        "SpaceSaving(heap)"
    }

    fn capacity(&self) -> usize {
        self.m
    }

    fn update_by(&mut self, item: I, count: u64) {
        if count == 0 {
            return;
        }
        self.stream_len += count;
        if let Some(entry) = self.counts.get_mut(&item) {
            // hot path: bump the table only; the heap entry goes stale and
            // is repaired lazily at the next eviction that encounters it
            entry.0 += count;
        } else if self.counts.len() < self.m {
            self.counts.insert(item.clone(), (count, 0));
            self.push(item, count);
        } else {
            let (_, min_count, _) = self.evict_min();
            self.counts
                .insert(item.clone(), (min_count + count, min_count));
            self.push(item, min_count + count);
        }
    }

    /// Batched ingest: run-length aggregated like the bucket-list variant.
    fn update_batch(&mut self, items: &[I]) {
        crate::traits::for_each_run(items, |item, run| {
            if let Some(entry) = self.counts.get_mut(item) {
                self.stream_len += run;
                entry.0 += run;
            } else {
                self.update_by(item.clone(), run);
            }
        });
    }

    fn estimate(&self, item: &I) -> u64 {
        self.counts.get(item).map(|&(c, _)| c).unwrap_or(0)
    }

    fn stored_len(&self) -> usize {
        self.counts.len()
    }

    fn entries(&self) -> Vec<(I, u64)> {
        let mut v: Vec<(I, u64)> = self
            .counts
            .iter()
            .map(|(i, &(c, _))| (i.clone(), c))
            .collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    fn stream_len(&self) -> u64 {
        self.stream_len
    }

    fn bias(&self) -> Bias {
        Bias::Over
    }

    /// The stored overcount annotation; the trait default derives
    /// `lower_estimate = c_i − err_i` from it.
    fn error_term(&self, item: &I) -> Option<u64> {
        self.counts.get(item).map(|&(_, e)| e)
    }

    fn tail_constants(&self) -> Option<TailConstants> {
        Some(TailConstants::ONE_ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(m: usize, stream: &[u64]) -> SpaceSaving<u64> {
        let mut s = SpaceSaving::new(m);
        for &x in stream {
            s.update(x);
        }
        s.check_invariants();
        s
    }

    #[test]
    fn replaces_minimum() {
        // m=2: stream 1,2,3 -> 3 replaces the older of {1,2} (item 1)
        let s = run(2, &[1, 2, 3]);
        assert_eq!(s.stored_len(), 2);
        assert_eq!(s.estimate(&3), 2); // min(1) + 1
        assert_eq!(s.err(&3), Some(1));
        assert_eq!(s.estimate(&1), 0);
        assert_eq!(s.estimate(&2), 1);
    }

    #[test]
    fn counter_sum_equals_stream_length() {
        let stream: Vec<u64> = (0..500).map(|i| (i * 7 % 23) + 1).collect();
        let s = run(10, &stream);
        let sum: u64 = s.entries().iter().map(|&(_, c)| c).sum();
        assert_eq!(sum, 500);
    }

    #[test]
    fn overestimates_stored_items() {
        let stream = [1u64, 1, 2, 3, 1, 4, 5, 2, 6, 7, 1];
        let s = run(3, &stream);
        let exact = |i: u64| stream.iter().filter(|&&x| x == i).count() as u64;
        for (item, c) in s.entries() {
            assert!(c >= exact(item), "stored estimates never undercount");
            assert!(s.guaranteed_count(&item) <= exact(item));
        }
        for i in 1..=7u64 {
            assert!(
                exact(i) <= s.upper_estimate(&i),
                "upper bound covers all items"
            );
        }
    }

    #[test]
    fn top_heavy_item_retained_with_exact_count_when_skewed() {
        // item 1 takes half the stream; with m=4 its count is exact-ish
        let mut stream = vec![1u64; 50];
        stream.extend((0..50).map(|i| (i % 10) + 2));
        let s = run(12, &stream); // m > distinct: everything exact
        assert_eq!(s.estimate(&1), 50);
        assert_eq!(s.err(&1), Some(0));
    }

    #[test]
    fn update_by_equals_repeated_update_when_no_ties_matter() {
        let updates = [(1u64, 3u64), (2, 5), (3, 7), (1, 2), (4, 4)];
        let mut bulk = SpaceSaving::new(3);
        let mut unit = SpaceSaving::new(3);
        for &(item, c) in &updates {
            bulk.update_by(item, c);
            for _ in 0..c {
                unit.update(item);
            }
        }
        bulk.check_invariants();
        unit.check_invariants();
        assert_eq!(bulk.entries(), unit.entries());
    }

    #[test]
    fn update_batch_equals_per_item_updates() {
        // runs of repeated items exercise the run-length aggregation
        let stream: Vec<u64> = (0..600)
            .flat_map(|i| std::iter::repeat_n(i % 13, (i % 4 + 1) as usize))
            .collect();
        let mut batched = SpaceSaving::new(5);
        batched.update_batch(&stream);
        batched.check_invariants();
        let unit = run(5, &stream);
        assert_eq!(batched.entries_with_err(), unit.entries_with_err());
        assert_eq!(batched.stream_len(), unit.stream_len());
    }

    #[test]
    fn update_batch_on_strings_and_empty_slice() {
        let mut s: SpaceSaving<String> = SpaceSaving::new(4);
        s.update_batch(&[]);
        assert_eq!(s.stream_len(), 0);
        let words: Vec<String> = ["a", "b", "a", "a", "c"]
            .iter()
            .map(|w| w.to_string())
            .collect();
        s.update_batch(&words);
        s.check_invariants();
        assert_eq!(s.estimate(&"a".to_string()), 3);
        assert_eq!(s.stream_len(), 5);
    }

    #[test]
    fn heap_variant_agrees_on_guarantees() {
        let stream: Vec<u64> = (0..2000).map(|i| (i * i % 101) + 1).collect();
        let mut bucket = SpaceSaving::new(20);
        let mut heap = HeapSpaceSaving::new(20);
        for &x in &stream {
            bucket.update(x);
            heap.update(x);
        }
        // same min counter and same counter sum (states may differ on ties)
        let bsum: u64 = bucket.entries().iter().map(|&(_, c)| c).sum();
        let hsum: u64 = heap.entries().iter().map(|&(_, c)| c).sum();
        assert_eq!(bsum, 2000);
        assert_eq!(hsum, 2000);
        let exact = |i: u64| stream.iter().filter(|&&x| x == i).count() as u64;
        for i in 1..=101u64 {
            assert!(heap.estimate(&i) == 0 || heap.estimate(&i) >= exact(i));
            assert!(heap.lower_estimate(&i) <= exact(i));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // >=10k-op loop: too slow interpreted
    fn lazy_heap_stays_at_one_entry_per_item() {
        let mut heap = HeapSpaceSaving::new(4);
        for i in 0..10_000u64 {
            heap.update(i % 100);
        }
        assert_eq!(heap.heap.len(), heap.counts.len(), "one entry per item");
        assert!(heap.heap.len() <= 4);
    }

    #[test]
    fn lazy_heap_evicts_true_minimum_after_stale_increments() {
        // fill, then bump item 1 far past the others without touching the
        // heap; the next eviction must repair the stale entry and evict a
        // genuinely minimal item, never 1
        let mut heap = HeapSpaceSaving::new(3);
        for i in 1..=3u64 {
            heap.update(i);
        }
        for _ in 0..10 {
            heap.update(1);
        }
        heap.update(99); // forces an eviction of 2 or 3 (count 1)
        assert!(heap.estimate(&1) >= 11);
        assert_eq!(heap.estimate(&99), 2); // min(1) + 1
        let entries = heap.entries();
        assert_eq!(entries.len(), 3, "table stays full: {entries:?}");
        // SPACESAVING invariant: counter mass equals the stream length —
        // the eviction replaced a count-1 entry by 99 at count 2, so the
        // stored mass is exactly the 14 arrivals.
        let stored: u64 = entries.iter().map(|&(_, c)| c).sum();
        assert_eq!(stored, 14, "counter sum tracks stream length");
        assert!(
            !entries.iter().any(|&(i, _)| i == 2) || !entries.iter().any(|&(i, _)| i == 3),
            "one of the count-1 items was evicted: {entries:?}"
        );
    }

    #[test]
    fn min_counter_zero_until_full() {
        let mut s = SpaceSaving::new(3);
        s.update(1u64);
        s.update(1);
        assert_eq!(s.min_counter(), 0);
        s.update(2);
        s.update(3);
        assert_eq!(s.min_counter(), 1);
    }

    #[test]
    fn unstored_upper_estimate_is_min_counter() {
        let s = run(2, &[1, 1, 1, 2, 2, 3]);
        // 3 replaced 2 or was placed; whatever is unstored gets Δ
        let min = s.min_counter();
        for i in [4u64, 5, 6] {
            assert_eq!(s.upper_estimate(&i), min);
        }
    }
}
