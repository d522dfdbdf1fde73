//! Section 6.1 (Theorem 10) over integer weights: a weight is a whole
//! number of units (the `hh` CLI uses thousandths), applied with
//! [`FrequencyEstimator::update_by`]. SPACESAVING and FREQUENT keep their
//! `A = B = 1` guarantees for any non-negative weights, so these tests run
//! the weighted claims on the ordinary counters, with exact sums.

mod tests {
    use std::collections::HashMap;

    use crate::frequent::Frequent;
    use crate::space_saving::SpaceSaving;
    use crate::traits::FrequencyEstimator;

    fn exact(updates: &[(u64, u64)]) -> HashMap<u64, u64> {
        let mut exact = HashMap::new();
        for &(item, w) in updates {
            *exact.entry(item).or_insert(0) += w;
        }
        exact
    }

    #[test]
    fn spacesaving_r_reduces_to_unit_behavior() {
        // a weight of 1.000 is 1000 units: every counter is 1000 times the
        // unit counter, with the same tie-breaking
        let stream = [1u64, 2, 3, 1, 4, 2, 5, 1];
        let mut unit = SpaceSaving::new(3);
        let mut real = SpaceSaving::new(3);
        for &x in &stream {
            unit.update(x);
            real.update_by(x, 1000);
        }
        let scaled: Vec<(u64, u64)> = unit
            .entries()
            .into_iter()
            .map(|(i, c)| (i, c * 1000))
            .collect();
        assert_eq!(real.entries(), scaled);
        assert_eq!(real.stream_len(), 8000);
    }

    #[test]
    fn spacesaving_r_counter_sum_equals_total_weight() {
        let updates = [
            (1u64, 2500),
            (2, 500),
            (3, 1250),
            (1, 3000),
            (4, 750),
            (5, 2000),
        ];
        let mut s = SpaceSaving::new(3);
        for &(i, w) in &updates {
            s.update_by(i, w);
        }
        let sum: u64 = s.entries().iter().map(|&(_, w)| w).sum();
        assert_eq!(sum, s.stream_len());
        assert_eq!(sum, 10_000);
        s.check_invariants();
    }

    #[test]
    fn spacesaving_r_overestimates() {
        let updates: Vec<(u64, u64)> = (0..200)
            .map(|i| ((i % 17) as u64 + 1, 500 + (i % 5) as u64 * 1000))
            .collect();
        let mut s = SpaceSaving::new(5);
        for &(i, w) in &updates {
            s.update_by(i, w);
        }
        let exact = exact(&updates);
        for (item, w) in s.entries() {
            let f = exact[&item];
            assert!(w >= f, "stored item {item}: {w} < {f}");
            assert!(s.guaranteed_count(&item) <= f);
        }
    }

    #[test]
    fn frequent_r_underestimates_within_reductions() {
        let updates: Vec<(u64, u64)> = (0..300)
            .map(|i| ((i % 23) as u64 + 1, 1000 + (i % 3) as u64 * 500))
            .collect();
        let mut s = Frequent::new(6);
        for &(i, w) in &updates {
            s.update_by(i, w);
        }
        let d = s.decrements();
        for (item, f) in exact(&updates) {
            let c = s.estimate(&item);
            assert!(c <= f, "item {item}: estimate {c} > exact {f}");
            assert!(c + d >= f, "item {item}: {c} + {d} < {f}");
        }
    }

    #[test]
    fn frequent_r_heavy_hitter_guarantee() {
        // error <= F1 / m
        let updates: Vec<(u64, u64)> = (0..500)
            .map(|i| ((i % 37) as u64 + 1, ((i * 13) % 7) as u64 * 1000 + 250))
            .collect();
        let m = 8;
        let mut s = Frequent::new(m);
        for &(i, w) in &updates {
            s.update_by(i, w);
        }
        let f1 = s.stream_len();
        assert_eq!(f1, updates.iter().map(|&(_, w)| w).sum::<u64>());
        for (item, f) in exact(&updates) {
            let err = f - s.estimate(&item);
            assert!(err <= f1 / m as u64, "item {item}: err {err}");
        }
    }

    #[test]
    fn frequent_r_big_weight_displaces_all() {
        let mut s = Frequent::new(2);
        s.update_by(1u64, 1000);
        s.update_by(2, 2000);
        // 3 arrives with a big weight: reduce by cmin = 1000 (kills 1), then room
        s.update_by(3, 10_000);
        assert_eq!(s.estimate(&3), 9000);
        assert_eq!(s.estimate(&2), 1000);
        assert_eq!(s.estimate(&1), 0);
        assert_eq!(s.decrements(), 1000);
    }

    #[test]
    fn frequent_r_small_weight_fully_consumed() {
        let mut s = Frequent::new(2);
        s.update_by(1u64, 5000);
        s.update_by(2, 3000);
        s.update_by(3, 500); // 500 < cmin = 3000: everyone loses 500
        assert_eq!(s.stored_len(), 2);
        assert_eq!(s.estimate(&1), 4500);
        assert_eq!(s.estimate(&2), 2500);
        assert_eq!(s.estimate(&3), 0);
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut s = SpaceSaving::new(2);
        s.update_by(1u64, 0);
        assert_eq!((s.stored_len(), s.stream_len()), (0, 0));
        let mut f = Frequent::new(2);
        f.update_by(1u64, 0);
        assert_eq!((f.stored_len(), f.stream_len()), (0, 0));
    }

    /// Weighted churn keeps both tables within their `m` counters.
    #[test]
    #[cfg_attr(miri, ignore)] // >=10k-op loop: too slow interpreted
    fn heaps_stay_bounded_under_churn() {
        let mut s = SpaceSaving::new(4);
        let mut f = Frequent::new(4);
        for i in 0..20_000u64 {
            s.update_by(i % 50, 1000 + (i % 3) * 1000);
            f.update_by(i % 50, 1000 + (i % 3) * 1000);
        }
        s.check_invariants();
        f.check_invariants();
        assert!(s.stored_len() <= 4 && f.stored_len() <= 4);
    }
}
