//! Integration: the real-weighted algorithms (Section 6.1, Theorem 10).

use hh::prelude::*;
use hh::streamgen::WeightedStream;
use proptest::collection::vec;
use proptest::prelude::*;

fn trace(seed: u64) -> WeightedStream {
    WeightedStream::packet_trace(2_000, 50_000, 1.1, 5.0, 1.2, seed)
}

#[test]
fn weighted_tail_guarantee_spacesavingr() {
    let t = trace(1);
    let oracle = ExactWeightedCounter::from_stream(&t.updates);
    let m = 64;
    let mut ssr = SpaceSavingR::new(m);
    for &(i, w) in &t.updates {
        ssr.update_weighted(i, w);
    }
    let tol = 1e-6 * oracle.total();
    for k in [0usize, 8, 32] {
        let bound = oracle.res1(k) / (m - k) as f64;
        for (item, w) in oracle.sorted_weights() {
            let err = (w - ssr.estimate_weighted(&item)).abs();
            assert!(err <= bound + tol, "k={k} item {item}: {err} > {bound}");
        }
    }
}

#[test]
fn weighted_tail_guarantee_frequentr() {
    let t = trace(2);
    let oracle = ExactWeightedCounter::from_stream(&t.updates);
    let m = 64;
    let mut frr = FrequentR::new(m);
    for &(i, w) in &t.updates {
        frr.update_weighted(i, w);
    }
    let tol = 1e-6 * oracle.total();
    for k in [0usize, 8, 32] {
        let bound = oracle.res1(k) / (m - k) as f64;
        for (item, w) in oracle.sorted_weights() {
            let err = (w - frr.estimate_weighted(&item)).abs();
            assert!(err <= bound + tol, "k={k} item {item}: {err} > {bound}");
        }
    }
}

#[test]
fn unit_weights_reduce_to_unweighted_counter_values() {
    // SpaceSavingR with all weights 1.0 produces the same counter-value
    // multiset as SpaceSaving (tie-breaking may differ).
    let stream: Vec<u64> = (0..2000).map(|i| (i * 13 + i * i) % 97 + 1).collect();
    let m = 12;
    let mut unit = SpaceSaving::new(m);
    let mut real = SpaceSavingR::new(m);
    let mut frequent_unit = Frequent::new(m);
    let mut frequent_real = FrequentR::new(m);
    for &x in &stream {
        unit.update(x);
        real.update_weighted(x, 1.0);
        frequent_unit.update(x);
        frequent_real.update_weighted(x, 1.0);
    }
    let mut a: Vec<u64> = unit.entries().iter().map(|&(_, c)| c).collect();
    let mut b: Vec<u64> = real
        .entries_weighted()
        .iter()
        .map(|&(_, w)| w.round() as u64)
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "SpaceSavingR(1.0) == SpaceSaving");

    let mut c: Vec<u64> = frequent_unit.entries().iter().map(|&(_, v)| v).collect();
    let mut d: Vec<u64> = frequent_real
        .entries_weighted()
        .iter()
        .map(|&(_, w)| w.round() as u64)
        .filter(|&w| w > 0)
        .collect();
    c.sort_unstable();
    d.sort_unstable();
    assert_eq!(c, d, "FrequentR(1.0) == Frequent");
}

#[test]
fn heavy_flow_guaranteed_detected() {
    // a flow carrying >1/m of the weight can never be missed by
    // SpaceSavingR (overestimation + tail bound)
    let mut updates: Vec<(u64, f64)> = (0..5_000).map(|i| (i % 500 + 10, 1.0)).collect();
    for _ in 0..800 {
        updates.push((7, 10.0)); // flow 7 carries 8000 of 13000 total
    }
    let m = 32;
    let mut ssr = SpaceSavingR::new(m);
    for &(i, w) in &updates {
        ssr.update_weighted(i, w);
    }
    let top = ssr.entries_weighted();
    assert_eq!(top[0].0, 7, "dominant flow is ranked first");
    assert!(ssr.guaranteed_weight(&7) >= 5_000.0);
}

#[test]
fn weighted_totals_preserved() {
    let t = trace(3);
    let mut ssr = SpaceSavingR::new(40);
    let mut frr = FrequentR::new(40);
    for &(i, w) in &t.updates {
        ssr.update_weighted(i, w);
        frr.update_weighted(i, w);
    }
    assert!((ssr.total_weight() - t.total_weight()).abs() < 1e-6 * t.total_weight());
    assert!((frr.total_weight() - t.total_weight()).abs() < 1e-6 * t.total_weight());
    // SpaceSavingR counter mass == total weight
    let sum: f64 = ssr.entries_weighted().iter().map(|&(_, w)| w).sum();
    assert!((sum - t.total_weight()).abs() < 1e-6 * t.total_weight());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The weighted `Report` against an exact oracle, for both weighted
    /// engines: a stream ingested in two halves and merged through
    /// `merge_snapshot` keeps every interval around the true weight, and
    /// `heavy_hitters` misses no stored item above its threshold. Weights
    /// are multiples of 0.5, so the f64 arithmetic stays exact.
    #[test]
    fn report_over_weights_brackets_exact_weights(
        stream in vec((1u64..40, 1u32..20), 1..400),
        m in 2usize..24,
        phi_percent in 1u32..60,
    ) {
        let updates: Vec<(u64, f64)> =
            stream.iter().map(|&(item, halves)| (item, f64::from(halves) * 0.5)).collect();
        let oracle = ExactWeightedCounter::from_stream(&updates);
        let (first, second) = updates.split_at(updates.len() / 2);
        let phi = f64::from(phi_percent) / 100.0;
        for algo in [AlgoKind::SpaceSaving, AlgoKind::Frequent] {
            let config = EngineConfig::new(algo).counters(m);
            let mut a = config.build_weighted::<u64>().unwrap();
            let mut b = config.build_weighted::<u64>().unwrap();
            for &(item, w) in first {
                a.update(item, w);
            }
            for &(item, w) in second {
                b.update(item, w);
            }
            a.merge_snapshot(&b.snapshot()).unwrap();

            let report = a.report();
            prop_assert_eq!(report.total(), oracle.total(), "{}", algo);
            for item in 0u64..41 {
                let (lower, upper) = report.interval(&item);
                let w = oracle.weight(&item);
                prop_assert!(
                    lower <= w && w <= upper,
                    "{} item {}: {} not in [{}, {}]", algo, item, w, lower, upper
                );
            }
            let threshold = phi * report.total();
            let hits = report.heavy_hitters(phi).unwrap();
            for entry in report.entries() {
                if oracle.weight(&entry.item) > threshold {
                    prop_assert!(
                        hits.iter().any(|h| h.item == entry.item),
                        "{} phi {}: heavy item {} missing", algo, phi, entry.item
                    );
                }
            }
        }
    }
}
