//! Heavy-hitter candidate tracking for sketches.
//!
//! A sketch answers point queries but cannot enumerate the heavy items. The
//! standard remedy (and what any fair counter-vs-sketch comparison must
//! charge the sketch for) is to maintain a bounded candidate set alongside:
//! after each update, re-estimate the item and keep the `cap` items with
//! the largest current estimates. [`SketchHeavyHitters`] wraps any
//! [`FrequencyEstimator`] this way, making sketches usable wherever the
//! experiments expect an `entries()`-capable summary.

use std::hash::Hash;

use hh_counters::error::Error;
use hh_counters::fasthash::FxHashMap;
use hh_counters::traits::{for_each_run, Bias, FrequencyEstimator};

/// A sketch plus a bounded candidate set of likely heavy hitters.
#[derive(Debug, Clone)]
pub struct SketchHeavyHitters<I: Eq + Hash + Clone, S> {
    sketch: S,
    candidates: FxHashMap<I, u64>,
    cap: usize,
    /// Reused batched-ingest aggregation buffer: `(first position, count)`
    /// per run, sorted by item so a batch costs one sketch update and one
    /// candidate refresh per *distinct* item when the sketch commutes.
    agg_scratch: Vec<(usize, u64)>,
}

impl<I: Eq + Hash + Clone + Ord, S: FrequencyEstimator<I>> SketchHeavyHitters<I, S> {
    /// Wraps `sketch`, tracking up to `cap` candidate items.
    pub fn new(sketch: S, cap: usize) -> Self {
        assert!(cap >= 1);
        SketchHeavyHitters {
            sketch,
            candidates: FxHashMap::default(),
            cap,
            agg_scratch: Vec::new(),
        }
    }

    /// The wrapped sketch.
    pub fn sketch(&self) -> &S {
        &self.sketch
    }

    /// Number of candidate slots (`cap`), i.e. the extra space beyond the
    /// sketch itself.
    pub fn candidate_cap(&self) -> usize {
        self.cap
    }

    /// The candidates with their sketch estimates, in table order,
    /// unsorted, for a caller that orders or selects them itself.
    pub fn unsorted_entries(&self) -> impl Iterator<Item = (I, u64)> + '_ {
        self.candidates
            .keys()
            .map(|i| (i.clone(), self.sketch.estimate(i)))
    }

    /// The candidate items currently tracked, in descending-estimate order
    /// (snapshot capture; the cached estimates are re-derived from the
    /// sketch on restore).
    pub fn candidate_items(&self) -> Vec<I> {
        self.entries().into_iter().map(|(i, _)| i).collect()
    }

    /// Rebuilds a tracker from snapshot parts: the (already restored)
    /// sketch, the candidate items, and the candidate capacity. Cached
    /// candidate estimates are refreshed from the sketch.
    ///
    /// Returns [`Error::CorruptSnapshot`] when `cap` is zero, there are
    /// more candidates than `cap`, or a candidate repeats.
    pub fn from_parts(sketch: S, candidates: Vec<I>, cap: usize) -> Result<Self, Error> {
        if cap == 0 {
            return Err(Error::corrupt_snapshot("candidate cap must be positive"));
        }
        if candidates.len() > cap {
            return Err(Error::corrupt_snapshot(format!(
                "{} candidates exceed cap {cap}",
                candidates.len()
            )));
        }
        let mut map = FxHashMap::default();
        for item in candidates {
            let est = sketch.estimate(&item);
            if map.insert(item, est).is_some() {
                return Err(Error::corrupt_snapshot("duplicate candidate in snapshot"));
            }
        }
        Ok(SketchHeavyHitters {
            sketch,
            candidates: map,
            cap,
            agg_scratch: Vec::new(),
        })
    }

    /// Merges another tracker into this one: sketches are merged by
    /// `merge_sketch`, then the candidate union is re-ranked under the
    /// merged estimates and truncated to `cap`.
    pub fn merge_from(
        &mut self,
        other: &SketchHeavyHitters<I, S>,
        merge_sketch: impl FnOnce(&mut S, &S) -> Result<(), Error>,
    ) -> Result<(), Error> {
        merge_sketch(&mut self.sketch, &other.sketch)?;
        let mut union: Vec<I> = self.candidates.keys().cloned().collect();
        for item in other.candidates.keys() {
            if !self.candidates.contains_key(item) {
                union.push(item.clone());
            }
        }
        let mut ranked: Vec<(I, u64)> = union
            .into_iter()
            .map(|i| {
                let e = self.sketch.estimate(&i);
                (i, e)
            })
            .collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(self.cap);
        self.candidates = ranked.into_iter().collect();
        Ok(())
    }

    fn refresh_candidate(&mut self, item: I) {
        let est = self.sketch.estimate(&item);
        if let Some(v) = self.candidates.get_mut(&item) {
            *v = est;
            return;
        }
        if self.candidates.len() < self.cap {
            self.candidates.insert(item, est);
            return;
        }
        // replace the weakest candidate if strictly improved upon
        let (weakest, weakest_est) = self
            .candidates
            .iter()
            .min_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(i, &e)| (i.clone(), e))
            // lint:allow(panic-freedom) unreachable: this branch runs only when the tracker is at capacity, and constructors reject cap == 0
            .expect("cap >= 1");
        if est > weakest_est {
            self.candidates.remove(&weakest);
            self.candidates.insert(item, est);
        }
    }
}

impl<I: Eq + Hash + Clone + Ord, S: FrequencyEstimator<I>> FrequencyEstimator<I>
    for SketchHeavyHitters<I, S>
{
    fn name(&self) -> &'static str {
        self.sketch.name()
    }

    /// Total space: sketch cells plus candidate slots.
    fn capacity(&self) -> usize {
        self.sketch.capacity() + self.cap
    }

    fn update_by(&mut self, item: I, count: u64) {
        if count == 0 {
            return;
        }
        self.sketch.update_by(item.clone(), count);
        self.refresh_candidate(item);
    }

    /// Batched ingest.
    ///
    /// When the wrapped sketch's updates commute (classic Count-Min,
    /// Count-Sketch), the batch is pre-aggregated by *item*: run-length
    /// collapse into a reused `(position, count)` scratch, sort by item,
    /// merge, then one weighted sketch update and one candidate refresh per
    /// distinct item. The sketch ends in exactly the per-element state;
    /// candidate admissions are decided against the batch-final estimates
    /// (the candidate heap is a heuristic whose refresh order within a
    /// batch is unspecified — see `docs/PERFORMANCE.md`).
    ///
    /// Order-sensitive sketches (conservative Count-Min) fall back to
    /// run-length aggregation, which is exactly equivalent to the
    /// per-element loop: within a run only the run's own item changes,
    /// estimates only grow, and the admission decision made once with the
    /// full run applied matches the per-element sequence's final decision.
    fn update_batch(&mut self, items: &[I]) {
        if self.sketch.updates_commute() {
            let mut agg = std::mem::take(&mut self.agg_scratch);
            agg.clear();
            let mut i = 0;
            while i < items.len() {
                let start = i;
                let item = &items[i];
                while i < items.len() && items[i] == *item {
                    i += 1;
                }
                agg.push((start, (i - start) as u64));
            }
            // unstable sort: equal-item runs merge below, so their relative
            // order is irrelevant — and unlike the stable sort this one
            // does not allocate a merge buffer per batch
            agg.sort_unstable_by(|&(a, _), &(b, _)| items[a].cmp(&items[b]));
            let mut j = 0;
            while j < agg.len() {
                let (pos, mut count) = agg[j];
                let item = &items[pos];
                j += 1;
                while j < agg.len() && items[agg[j].0] == *item {
                    count += agg[j].1;
                    j += 1;
                }
                self.sketch.update_by(item.clone(), count);
                self.refresh_candidate(item.clone());
            }
            self.agg_scratch = agg;
        } else {
            for_each_run(items, |item, run| {
                self.sketch.update_by(item.clone(), run);
                self.refresh_candidate(item.clone());
            });
        }
    }

    fn estimate(&self, item: &I) -> u64 {
        self.sketch.estimate(item)
    }

    fn stored_len(&self) -> usize {
        self.candidates.len()
    }

    /// Candidates with their *current* sketch estimates, sorted descending.
    fn entries(&self) -> Vec<(I, u64)> {
        let mut v: Vec<_> = self.unsorted_entries().collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }

    fn stream_len(&self) -> u64 {
        self.sketch.stream_len()
    }

    fn bias(&self) -> Bias {
        self.sketch.bias()
    }

    fn error_term(&self, item: &I) -> Option<u64> {
        self.sketch.error_term(item)
    }

    fn lower_estimate(&self, item: &I) -> u64 {
        self.sketch.lower_estimate(item)
    }

    fn upper_estimate(&self, item: &I) -> u64 {
        self.sketch.upper_estimate(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count_min::{CountMin, UpdateRule};

    #[test]
    fn tracks_heavy_items() {
        let cm: CountMin<u64> = CountMin::new(4, 512, 1, UpdateRule::Classic);
        let mut hh = SketchHeavyHitters::new(cm, 5);
        // 3 heavy items in light noise
        for round in 0..200u64 {
            for heavy in [1u64, 2, 3] {
                hh.update(heavy);
            }
            hh.update(1000 + round); // singleton noise
        }
        let top: Vec<u64> = hh.entries().iter().take(3).map(|&(i, _)| i).collect();
        assert!(
            top.contains(&1) && top.contains(&2) && top.contains(&3),
            "{top:?}"
        );
    }

    #[test]
    fn candidate_set_bounded() {
        let cm: CountMin<u64> = CountMin::new(3, 128, 2, UpdateRule::Classic);
        let mut hh = SketchHeavyHitters::new(cm, 4);
        for i in 0..1000u64 {
            hh.update(i);
        }
        assert!(hh.stored_len() <= 4);
    }

    #[test]
    fn capacity_charges_for_candidates() {
        let cm: CountMin<u64> = CountMin::new(2, 10, 0, UpdateRule::Classic);
        let hh = SketchHeavyHitters::new(cm, 7);
        assert_eq!(hh.capacity(), 27);
    }
}
