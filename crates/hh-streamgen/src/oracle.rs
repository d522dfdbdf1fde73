//! Exact counting oracles used as ground truth in tests and experiments.

use std::collections::HashMap;
use std::hash::Hash;

use crate::stats::Freqs;

/// Exact frequency counter over a stream.
///
/// This is the ground-truth oracle: it stores every distinct item (O(n)
/// space, which the streaming algorithms are precisely trying to avoid) and
/// answers exact frequencies, exact top-k, and the residual statistics
/// against which every guarantee is checked.
#[derive(Debug, Clone, Default)]
pub struct ExactCounter<I: Eq + Hash> {
    counts: HashMap<I, u64>,
    total: u64,
}

impl<I: Eq + Hash + Clone + Ord> ExactCounter<I> {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        ExactCounter {
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Builds an oracle directly from a stream.
    pub fn from_stream<'a, It: IntoIterator<Item = &'a I>>(stream: It) -> Self
    where
        I: 'a,
    {
        let mut c = Self::new();
        for item in stream {
            c.update(item.clone());
        }
        c
    }

    /// Processes one occurrence of `item`.
    pub fn update(&mut self, item: I) {
        self.update_by(item, 1);
    }

    /// Processes `count` occurrences of `item` — or, for a weighted
    /// stream (Section 6.1), a weight of `count` whole units.
    pub fn update_by(&mut self, item: I, count: u64) {
        if count == 0 {
            return;
        }
        *self.counts.entry(item).or_insert(0) += count;
        self.total += count;
    }

    /// The exact frequency of `item` (0 if never seen).
    pub fn count(&self, item: &I) -> u64 {
        self.counts.get(item).copied().unwrap_or(0)
    }

    /// Total stream length `F1`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct items.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The frequency vector (for `F_p^res(k)` computations).
    pub fn freqs(&self) -> Freqs {
        Freqs::from_counts(self.counts.values().copied())
    }

    /// All `(item, count)` pairs sorted by decreasing count; ties broken by
    /// ascending item so the result is deterministic.
    pub fn sorted_counts(&self) -> Vec<(I, u64)> {
        let mut v: Vec<(I, u64)> = self.counts.iter().map(|(i, &c)| (i.clone(), c)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// The exact top-`k` items, most frequent first (deterministic
    /// tie-break by ascending item).
    pub fn top_k(&self, k: usize) -> Vec<(I, u64)> {
        let mut v = self.sorted_counts();
        v.truncate(k);
        v
    }

    /// Iterates over `(item, count)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&I, u64)> {
        self.counts.iter().map(|(i, &c)| (i, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts() {
        let stream = [1u64, 2, 1, 3, 1, 2];
        let c = ExactCounter::from_stream(&stream);
        assert_eq!(c.count(&1), 3);
        assert_eq!(c.count(&2), 2);
        assert_eq!(c.count(&3), 1);
        assert_eq!(c.count(&99), 0);
        assert_eq!(c.total(), 6);
        assert_eq!(c.distinct(), 3);
    }

    #[test]
    fn top_k_deterministic_ties() {
        let stream = [5u64, 4, 3, 5, 4, 3];
        let c = ExactCounter::from_stream(&stream);
        // all have count 2; ties broken by ascending item
        assert_eq!(c.top_k(2), vec![(3, 2), (4, 2)]);
    }

    #[test]
    fn freqs_roundtrip() {
        let stream = [7u64, 7, 7, 8, 8, 9];
        let c = ExactCounter::from_stream(&stream);
        let f = c.freqs();
        assert_eq!(f.as_slice(), &[3, 2, 1]);
        assert_eq!(f.res1(1), 3);
    }

    #[test]
    fn update_by_zero_is_noop() {
        let mut c: ExactCounter<u64> = ExactCounter::new();
        c.update_by(1, 0);
        assert_eq!(c.distinct(), 0);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn weighted_counts() {
        let mut c = ExactCounter::new();
        for (item, w) in [(1u64, 2_500), (2, 1_000), (1, 500)] {
            c.update_by(item, w);
        }
        assert_eq!((c.count(&1), c.count(&2), c.total()), (3_000, 1_000, 4_000));
        assert_eq!(c.top_k(1), vec![(1, 3_000)]);
        assert_eq!(c.freqs().res1(1), 1_000);
    }
}
