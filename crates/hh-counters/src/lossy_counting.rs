//! LOSSYCOUNTING — Manku & Motwani's deterministic counter algorithm,
//! included as the third counter comparator from Table 1.
//!
//! The stream is conceptually divided into windows of width `w = ⌈1/ε⌉`.
//! Each stored entry carries `(count, delta)` where `delta` is the maximum
//! number of occurrences it may have missed before being inserted. At every
//! window boundary, entries with `count + delta ≤ current_window` are
//! pruned. Estimates underestimate with `f_i − εN ≤ c_i ≤ f_i`.
//!
//! Unlike FREQUENT/SPACESAVING its space is *not* fixed: the table grows
//! and shrinks, using `O(1/ε · log(εN))` entries in the worst case and
//! `O(1/ε)` on random-order streams (\[24\], discussed in Section 1.1 of the
//! paper — `run_all --only exp_lossy_adversarial` reproduces exactly this
//! gap). [`LossyCounting::max_table_len`] records the high-water mark.

use std::hash::Hash;

use crate::error::Error;
use crate::fasthash::FxHashMap;
use crate::traits::{Bias, FrequencyEstimator, TailConstants};

/// The LOSSYCOUNTING summary with error parameter `ε`.
#[derive(Debug, Clone)]
pub struct LossyCounting<I: Eq + Hash + Clone> {
    /// item -> (count, delta)
    table: FxHashMap<I, (u64, u64)>,
    /// Window width `w = ⌈1/ε⌉`.
    width: u64,
    /// Current window id `b = ⌈N/w⌉`.
    window: u64,
    stream_len: u64,
    max_table: usize,
}

impl<I: Eq + Hash + Clone> LossyCounting<I> {
    /// Creates a summary with error parameter `0 < epsilon ≤ 1`.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        let width = (1.0 / epsilon).ceil() as u64;
        LossyCounting {
            table: FxHashMap::default(),
            width,
            window: 1,
            stream_len: 0,
            max_table: 0,
        }
    }

    /// Creates a summary whose window width is exactly `width` (i.e.
    /// `ε = 1/width`).
    pub fn with_width(width: u64) -> Self {
        assert!(width >= 1);
        LossyCounting {
            table: FxHashMap::default(),
            width,
            window: 1,
            stream_len: 0,
            max_table: 0,
        }
    }

    /// The error parameter `ε = 1/w`.
    pub fn epsilon(&self) -> f64 {
        1.0 / self.width as f64
    }

    /// High-water mark of the table size — the actual space the algorithm
    /// needed on this stream (the quantity the adversarial-ordering
    /// experiment measures).
    pub fn max_table_len(&self) -> usize {
        self.max_table
    }

    /// The window width `w = ⌈1/ε⌉`.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// The current window id `b = ⌈N/w⌉` (starts at 1).
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Stored `(item, count)` pairs in table order, unsorted, for a
    /// caller that orders or selects them itself.
    pub fn unsorted_entries(&self) -> impl Iterator<Item = (I, u64)> + '_ {
        self.table.iter().map(|(i, &(c, _))| (i.clone(), c))
    }

    /// Stored `(item, count, delta)` triples, sorted by decreasing count —
    /// the full per-entry state (snapshot capture).
    pub fn entries_with_delta(&self) -> Vec<(I, u64, u64)> {
        let mut v: Vec<(I, u64, u64)> = self
            .table
            .iter()
            .map(|(i, &(c, d))| (i.clone(), c, d))
            .collect();
        v.sort_unstable_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    /// Rebuilds a summary from snapshot parts. The table is unordered, so
    /// entry order does not matter; `max_table` is the recorded high-water
    /// mark (must be at least the entry count).
    ///
    /// Returns [`Error::CorruptSnapshot`] on inconsistent parts (zero
    /// width/window, `delta ≥ window`, zero counts, duplicates, or a
    /// high-water mark below the table size).
    pub fn from_parts(
        width: u64,
        window: u64,
        stream_len: u64,
        max_table: usize,
        entries: Vec<(I, u64, u64)>,
    ) -> Result<Self, Error> {
        if width == 0 || window == 0 {
            return Err(Error::corrupt_snapshot("width and window must be positive"));
        }
        // The window id must have kept pace with the stream: organically
        // `b = ⌊N/w⌋ + 1` and merged summaries sum window ids, so `b` can
        // never fall below `⌊N/w⌋`. A smaller value would make the
        // `window − 1` upper bound for unstored items unsound.
        if window < stream_len / width {
            return Err(Error::corrupt_snapshot(format!(
                "window id {window} inconsistent with stream length {stream_len} at width {width}"
            )));
        }
        if max_table < entries.len() {
            return Err(Error::corrupt_snapshot(format!(
                "high-water mark {max_table} below table size {}",
                entries.len()
            )));
        }
        let mut s = Self::with_width(width);
        s.window = window;
        s.stream_len = stream_len;
        s.max_table = max_table;
        for (item, count, delta) in entries {
            if count == 0 {
                return Err(Error::corrupt_snapshot("stored counts must be positive"));
            }
            if delta >= window {
                return Err(Error::corrupt_snapshot(
                    "delta must be a past window id (< window)",
                ));
            }
            if s.table.insert(item, (count, delta)).is_some() {
                return Err(Error::corrupt_snapshot("duplicate item in snapshot"));
            }
        }
        Ok(s)
    }

    /// Absorbs another LOSSYCOUNTING summary's snapshot state (same width)
    /// — the Manku–Motwani distributed merge. Counts add; each side's
    /// `delta` (its maximum missed mass) adds too, with an absent side
    /// contributing its `window − 1` bound. The merged window id is the sum
    /// of both sides' (so every new delta stays a past window id), followed
    /// by one standard prune. Estimates keep underestimating and
    /// `count + delta` stays a sound upper bound on the combined frequency.
    ///
    /// Returns [`Error::Overflow`], leaving the summary unchanged, when the
    /// combined stream length, window id, or any merged count, delta or
    /// `count + delta` bound would exceed `u64::MAX`.
    pub fn absorb_parts(
        &mut self,
        entries: Vec<(I, u64, u64)>,
        window: u64,
        stream_len: u64,
    ) -> Result<(), Error> {
        let overflow =
            |what: &str| Error::Overflow(format!("merged LossyCounting {what} exceeds u64"));
        let donor_absent = window.saturating_sub(1);
        let self_absent = self.window - 1;
        let combined_len = self
            .stream_len
            .checked_add(stream_len)
            .ok_or_else(|| overflow("stream length"))?;
        let combined_window = self
            .window
            .checked_add(donor_absent)
            .ok_or_else(|| overflow("window id"))?;
        // Every donor item's merged (count, delta), checked before the
        // table changes.
        let mut merged = FxHashMap::default();
        for (item, count, delta) in entries {
            if count == 0 {
                continue;
            }
            let (c, d) = merged
                .get(&item)
                .or_else(|| self.table.get(&item))
                .copied()
                .unwrap_or((0, self_absent));
            let sum = c
                .checked_add(count)
                .zip(d.checked_add(delta))
                .filter(|&(c, d)| c.checked_add(d).is_some());
            merged.insert(item, sum.ok_or_else(|| overflow("count"))?);
        }
        // Items only this side stores widen their delta by the donor's bound.
        let mut unmatched = self
            .table
            .iter()
            .filter(|(item, _)| !merged.contains_key(*item));
        if unmatched.any(|(_, &(c, d))| c.checked_add(d + donor_absent).is_none()) {
            return Err(overflow("count"));
        }
        for (item, (_, d)) in self.table.iter_mut() {
            if !merged.contains_key(item) {
                *d += donor_absent;
            }
        }
        self.table.extend(merged);
        self.stream_len = combined_len;
        self.window = combined_window;
        // Organic pruning drops entries with `c + d ≤ b` *before* advancing
        // to window `b + 1`, which is what keeps the `window − 1` upper
        // bound sound for pruned items; mirror that by pruning at the
        // pre-advance boundary `window − 1` rather than at `window`.
        let boundary = self.window - 1;
        self.table.retain(|_, &mut (c, d)| c + d > boundary);
        self.max_table = self.max_table.max(self.table.len());
        Ok(())
    }

    fn prune(&mut self) {
        let window = self.window;
        self.table
            .retain(|_, &mut (count, delta)| count + delta > window);
    }

    #[doc(hidden)]
    pub fn check_invariants(&self) {
        assert!(self.table.len() <= self.max_table);
        for (&(count, delta), _) in self.table.values().zip(0..) {
            assert!(count >= 1);
            assert!(delta < self.window, "delta is a past window id");
        }
    }
}

impl<I: Eq + Hash + Clone> FrequencyEstimator<I> for LossyCounting<I> {
    fn name(&self) -> &'static str {
        "LossyCounting"
    }

    /// LOSSYCOUNTING has no fixed counter budget; by convention we report
    /// the high-water table size (so space comparisons in experiments use
    /// the space it actually consumed).
    fn capacity(&self) -> usize {
        self.max_table
    }

    fn update_by(&mut self, item: I, count: u64) {
        // Window boundaries fall between unit arrivals, so bulk updates are
        // processed as repeated unit updates (O(count)); LOSSYCOUNTING is a
        // comparator, not a merge target, so this path is never hot.
        for _ in 0..count {
            self.update(item.clone());
        }
    }

    fn update(&mut self, item: I) {
        self.stream_len += 1;
        match self.table.get_mut(&item) {
            Some((count, _)) => *count += 1,
            None => {
                self.table.insert(item, (1, self.window - 1));
            }
        }
        self.max_table = self.max_table.max(self.table.len());
        if self.stream_len.is_multiple_of(self.width) {
            self.prune();
            self.window += 1;
        }
    }

    fn estimate(&self, item: &I) -> u64 {
        self.table.get(item).map(|&(c, _)| c).unwrap_or(0)
    }

    fn stored_len(&self) -> usize {
        self.table.len()
    }

    fn entries(&self) -> Vec<(I, u64)> {
        let mut v: Vec<(I, u64)> = self.unsorted_entries().collect();
        v.sort_unstable_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    fn stream_len(&self) -> u64 {
        self.stream_len
    }

    fn bias(&self) -> Bias {
        Bias::Under
    }

    /// Manku–Motwani upper bound: `count + delta` for stored items (delta
    /// is the maximum number of missed occurrences), `window − 1` for
    /// unstored ones (an item pruned in window `b` had `f_i ≤ b` and has
    /// not been seen since).
    fn upper_estimate(&self, item: &I) -> u64 {
        match self.table.get(item) {
            Some(&(count, delta)) => count + delta,
            None => self.window - 1,
        }
    }

    /// LOSSYCOUNTING has an `εF1` guarantee but no residual tail guarantee
    /// (Table 1); `None` here is what excludes it from the tail experiments.
    fn tail_constants(&self) -> Option<TailConstants> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(eps: f64, stream: &[u64]) -> LossyCounting<u64> {
        let mut lc = LossyCounting::new(eps);
        for &x in stream {
            lc.update(x);
        }
        lc
    }

    #[test]
    fn exact_when_epsilon_large_window() {
        // width >= stream length: nothing is ever pruned
        let stream = [1u64, 2, 1, 3, 1];
        let mut lc = LossyCounting::with_width(100);
        for &x in &stream {
            lc.update(x);
        }
        assert_eq!(lc.estimate(&1), 3);
        assert_eq!(lc.estimate(&2), 1);
        assert_eq!(lc.estimate(&3), 1);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // >=10k-op loop: too slow interpreted
    fn error_within_epsilon_n() {
        let stream: Vec<u64> = (0..10_000).map(|i| (i % 97) + 1).collect();
        let eps = 0.01;
        let lc = run(eps, &stream);
        let n = stream.len() as u64;
        let exact = |i: u64| stream.iter().filter(|&&x| x == i).count() as u64;
        for i in 1..=97u64 {
            let e = lc.estimate(&i);
            assert!(e <= exact(i), "underestimates");
            assert!(
                exact(i) - e <= (eps * n as f64).ceil() as u64,
                "item {i}: {e} vs {}",
                exact(i)
            );
        }
    }

    #[test]
    fn prunes_infrequent_items() {
        // 1000 distinct singletons with eps=0.1 (w=10): table stays small
        let stream: Vec<u64> = (0..1000).collect();
        let lc = run(0.1, &stream);
        assert!(lc.stored_len() <= 10 + 1, "got {}", lc.stored_len());
    }

    #[test]
    fn max_table_tracks_high_water() {
        let stream: Vec<u64> = (0..100).collect();
        let lc = run(0.5, &stream); // w = 2
        assert!(lc.max_table_len() >= lc.stored_len());
        assert!(lc.max_table_len() <= 3);
    }

    #[test]
    fn update_by_matches_unit_updates() {
        let mut a = LossyCounting::new(0.25);
        let mut b = LossyCounting::new(0.25);
        for (item, c) in [(1u64, 3u64), (2, 2), (1, 1), (3, 5)] {
            a.update_by(item, c);
            for _ in 0..c {
                b.update(item);
            }
        }
        assert_eq!(a.entries(), b.entries());
        assert_eq!(a.stream_len(), b.stream_len());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = LossyCounting::<u64>::new(0.0);
    }
}
