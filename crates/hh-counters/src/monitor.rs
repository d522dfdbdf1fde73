//! Continuous top-k monitoring.
//!
//! Dashboards and alerting want to know *when the top-k membership
//! changes*, not just the final answer. [`TopKMonitor`] wraps a
//! [`SpaceSaving`] summary and reports membership changes as the stream is
//! consumed. Change detection costs O(1) per quiet update (a counter
//! comparison); the top-k set is re-derived only when the updated item's
//! estimate reaches the current k-th counter.

use std::collections::BTreeSet;
use std::hash::Hash;

use crate::space_saving::SpaceSaving;
use crate::topk::top_k;
use crate::traits::FrequencyEstimator;

/// A top-k membership change produced by [`TopKMonitor::update`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopKChange<I> {
    /// The item entered the top-k set.
    Entered(I),
    /// The item left the top-k set.
    Left(I),
}

/// A frequency estimator plus incremental top-k membership tracking.
///
/// Defaults to a [`SpaceSaving`] summary; any [`FrequencyEstimator`] —
/// including a config-built `hh::engine::Engine` — can be wrapped via
/// [`TopKMonitor::with_summary`].
#[derive(Debug, Clone)]
pub struct TopKMonitor<I: Eq + Hash + Clone + Ord, E: FrequencyEstimator<I> = SpaceSaving<I>> {
    summary: E,
    k: usize,
    members: BTreeSet<I>,
    /// Estimate of the weakest current member (entry threshold).
    kth_estimate: u64,
    /// Reused top-k buffer for resyncs ([`FrequencyEstimator::top_entries_into`]),
    /// so the monitor loop stops allocating a fresh `Vec` per membership
    /// change.
    scratch: Vec<(I, u64)>,
}

impl<I: Eq + Hash + Clone + Ord> TopKMonitor<I> {
    /// Creates a SPACESAVING-backed monitor with `m` counters tracking the
    /// top `k` (`k ≤ m`).
    pub fn new(m: usize, k: usize) -> Self {
        assert!(k >= 1 && k <= m, "need 1 <= k <= m");
        Self::with_summary(SpaceSaving::new(m), k)
    }
}

impl<I: Eq + Hash + Clone + Ord, E: FrequencyEstimator<I>> TopKMonitor<I, E> {
    /// Wraps an existing (typically empty) summary, tracking the top `k`
    /// (`k ≤` the summary's capacity).
    pub fn with_summary(summary: E, k: usize) -> Self {
        assert!(k >= 1 && k <= summary.capacity(), "need 1 <= k <= m");
        TopKMonitor {
            summary,
            k,
            members: BTreeSet::new(),
            kth_estimate: 0,
            scratch: Vec::new(),
        }
    }

    /// The wrapped summary.
    pub fn summary(&self) -> &E {
        &self.summary
    }

    /// Current top-k members (unordered set view).
    pub fn members(&self) -> &BTreeSet<I> {
        &self.members
    }

    /// Current top-k in rank order.
    pub fn ranked(&self) -> Vec<(I, u64)> {
        top_k(&self.summary, self.k)
    }

    fn resync(&mut self) -> Vec<TopKChange<I>> {
        self.summary.top_entries_into(self.k, &mut self.scratch);
        let fresh: BTreeSet<I> = self.scratch.iter().map(|(i, _)| i.clone()).collect();
        let mut changes = Vec::new();
        for gone in self.members.difference(&fresh) {
            changes.push(TopKChange::Left(gone.clone()));
        }
        for new in fresh.difference(&self.members) {
            changes.push(TopKChange::Entered(new.clone()));
        }
        self.kth_estimate = fresh
            .iter()
            .map(|i| self.summary.estimate(i))
            .min()
            .unwrap_or(0);
        self.members = fresh;
        changes
    }

    /// Processes one occurrence and returns any top-k membership changes
    /// it caused.
    pub fn update(&mut self, item: I) -> Vec<TopKChange<I>> {
        self.summary.update(item.clone());
        if self.members.contains(&item) {
            // A member got stronger: membership unchanged. (The cached
            // threshold may now understate the true k-th estimate, which
            // only causes harmless extra resyncs, never missed changes.)
            return Vec::new();
        }
        if self.members.len() < self.k || self.summary.estimate(&item) >= self.kth_estimate {
            return self.resync();
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_initial_entries() {
        let mut mon: TopKMonitor<u64> = TopKMonitor::new(8, 2);
        let c1 = mon.update(1);
        assert_eq!(c1, vec![TopKChange::Entered(1)]);
        let c2 = mon.update(2);
        assert_eq!(c2, vec![TopKChange::Entered(2)]);
        // third distinct item with count 1 does not displace anyone (ties
        // keep incumbents)
        let c3 = mon.update(3);
        assert!(c3.is_empty() || c3.len() == 2, "{c3:?}");
    }

    #[test]
    fn displacement_is_reported_once() {
        let mut mon: TopKMonitor<u64> = TopKMonitor::new(8, 2);
        for _ in 0..5 {
            mon.update(1);
        }
        for _ in 0..5 {
            mon.update(2);
        }
        // 3 displaces one of the tied incumbents once its count passes 5
        let mut changes = Vec::new();
        for _ in 0..6 {
            changes.extend(mon.update(3));
        }
        assert!(changes.contains(&TopKChange::Entered(3)), "{changes:?}");
        let lefts: Vec<_> = changes
            .iter()
            .filter(|c| matches!(c, TopKChange::Left(_)))
            .collect();
        assert_eq!(lefts.len(), 1, "exactly one incumbent leaves: {changes:?}");
        assert!(mon.members().contains(&3));
        assert_eq!(mon.members().len(), 2);
    }

    #[test]
    fn members_match_summary_topk_continuously() {
        let stream: Vec<u64> = (0..2000).map(|i| (i * i + 3 * i) % 23 + 1).collect();
        let mut mon: TopKMonitor<u64> = TopKMonitor::new(16, 5);
        for &x in &stream {
            mon.update(x);
            let expect: BTreeSet<u64> = top_k(mon.summary(), 5)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            assert_eq!(mon.members(), &expect, "after {x}");
        }
    }

    #[test]
    fn changes_are_balanced() {
        // every Left must be paired with an Entered in the same batch once
        // the set is full
        let stream: Vec<u64> = (0..500).map(|i| i % 37).collect();
        let mut mon: TopKMonitor<u64> = TopKMonitor::new(10, 3);
        let mut full = false;
        for &x in &stream {
            let changes = mon.update(x);
            if full {
                let entered = changes
                    .iter()
                    .filter(|c| matches!(c, TopKChange::Entered(_)))
                    .count();
                let left = changes
                    .iter()
                    .filter(|c| matches!(c, TopKChange::Left(_)))
                    .count();
                assert_eq!(entered, left);
            }
            full |= mon.members().len() == 3;
        }
    }

    #[test]
    #[should_panic(expected = "1 <= k <= m")]
    fn rejects_k_above_m() {
        let _ = TopKMonitor::<u64>::new(2, 3);
    }
}
