//! Integration: weighted streams (Section 6.1, Theorem 10). A weight is a
//! whole number of units — bytes here, thousandths in the CLI — applied
//! with `update_by`, so every sum below is exact and every check is an
//! equality or an integer bound.

use hh::counters::bounds::tail_bound_one_one;
use hh::prelude::*;
use hh::streamgen::WeightedStream;
use proptest::collection::vec;
use proptest::prelude::*;

fn trace(seed: u64) -> WeightedStream {
    WeightedStream::packet_trace(2_000, 50_000, 1.1, 5.0, 1.2, seed)
}

fn oracle(updates: &[(u64, u64)]) -> ExactCounter<u64> {
    let mut oracle = ExactCounter::new();
    for &(item, w) in updates {
        oracle.update_by(item, w);
    }
    oracle
}

fn weighted_engine(algo: AlgoKind, m: usize) -> Engine<u64> {
    let engine = EngineConfig::new(algo).counters(m).build().unwrap();
    engine.into_weighted().unwrap()
}

/// Theorem 10: `|f_i − c_i| ≤ ⌊F1^res(k)/(m − k)⌋` for every item.
fn check_tail(algo: AlgoKind, seed: u64) {
    let t = trace(seed);
    let oracle = oracle(&t.updates);
    let m = 64;
    let mut engine = weighted_engine(algo, m);
    for &(i, w) in &t.updates {
        engine.update_by(i, w);
    }
    assert_eq!(engine.stream_len(), oracle.total());
    for k in [0usize, 8, 32] {
        let bound = tail_bound_one_one(m, k, oracle.freqs().res1(k)).unwrap();
        for (item, w) in oracle.iter() {
            let err = w.abs_diff(engine.estimate(item));
            assert!(err <= bound, "{algo} k={k} item {item}: {err} > {bound}");
        }
    }
}

#[test]
fn weighted_tail_guarantee_spacesavingr() {
    check_tail(AlgoKind::SpaceSaving, 1);
}

#[test]
fn weighted_tail_guarantee_frequentr() {
    check_tail(AlgoKind::Frequent, 2);
}

#[test]
fn unit_weights_reduce_to_unweighted_counter_values() {
    // A weight of 1.000 (1000 thousandths) scales every counter by 1000
    // and changes nothing else, tie-breaking included.
    let stream: Vec<u64> = (0..2000).map(|i| (i * 13 + i * i) % 97 + 1).collect();
    let m = 12;
    for algo in [AlgoKind::SpaceSaving, AlgoKind::Frequent] {
        let mut unit = EngineConfig::new(algo).counters(m).build::<u64>().unwrap();
        let mut real = weighted_engine(algo, m);
        for &x in &stream {
            unit.update(x);
            real.update_by(x, 1000);
        }
        let scaled: Vec<(u64, u64)> = unit
            .entries()
            .into_iter()
            .map(|(item, c)| (item, c * 1000))
            .collect();
        assert_eq!(real.entries(), scaled, "{algo}");
    }
}

#[test]
fn heavy_flow_guaranteed_detected() {
    // a flow carrying >1/m of the weight can never be missed by
    // SpaceSaving (overestimation + tail bound); weights in thousandths
    let mut updates: Vec<(u64, u64)> = (0..5_000).map(|i| (i % 500 + 10, 1_000)).collect();
    for _ in 0..800 {
        updates.push((7, 10_000)); // flow 7 carries 8000 of 13000 total
    }
    let mut ss = weighted_engine(AlgoKind::SpaceSaving, 32);
    for &(i, w) in &updates {
        ss.update_by(i, w);
    }
    let report = ss.report();
    let top = report.top_k(1);
    assert_eq!(top[0].item, 7, "dominant flow is ranked first");
    assert!(top[0].lower >= 5_000_000);
}

#[test]
fn weighted_totals_preserved() {
    let t = trace(3);
    let total = t.total_weight();
    for algo in [AlgoKind::SpaceSaving, AlgoKind::Frequent] {
        let mut engine = weighted_engine(algo, 40);
        for &(i, w) in &t.updates {
            engine.update_by(i, w);
        }
        assert_eq!(engine.stream_len(), total, "{algo}");
        assert_eq!(engine.report().total(), total, "{algo}");
        if algo == AlgoKind::SpaceSaving {
            // SpaceSaving's counter mass is the total weight
            let sum: u64 = engine.entries().iter().map(|&(_, w)| w).sum();
            assert_eq!(sum, total);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Weighted SpaceSaving and Frequent against an oracle that sums the
    /// weights exactly in `u128`. Each half of the stream keeps Theorem
    /// 10's bound `F1^res(k)/(m − k)` and survives a JSON snapshot round
    /// trip unchanged; the two summaries merged through their snapshots
    /// keep every interval around the true weight and Theorem 11's
    /// `(3, 2)` bound, and `heavy_hitters` misses no stored item above
    /// its threshold.
    #[test]
    fn report_over_weights_brackets_exact_weights(
        stream in vec((1u64..40, 1u64..1_000_000_000_000), 1..400),
        m in 2usize..24,
        phi_percent in 1u32..60,
    ) {
        let exact = |updates: &[(u64, u64)], item: u64| -> u128 {
            updates.iter().filter(|u| u.0 == item).map(|u| u128::from(u.1)).sum()
        };
        let res = |updates: &[(u64, u64)], k: usize| -> u128 {
            let mut weights: Vec<u128> = (0u64..41).map(|i| exact(updates, i)).collect();
            weights.sort_unstable_by(|a, b| b.cmp(a));
            weights.iter().skip(k).sum()
        };
        let (first, second) = stream.split_at(stream.len() / 2);
        let phi = f64::from(phi_percent) / 100.0;
        for algo in [AlgoKind::SpaceSaving, AlgoKind::Frequent] {
            let mut halves = Vec::new();
            for part in [first, second] {
                let mut e = weighted_engine(algo, m);
                for &(item, w) in part {
                    e.update_by(item, w);
                }
                for k in 0..m {
                    let bound = res(part, k) / (m - k) as u128;
                    for item in 0u64..41 {
                        let err = exact(part, item).abs_diff(u128::from(e.estimate(&item)));
                        prop_assert!(err <= bound, "{} k {} item {}: {} > {}", algo, k, item, err, bound);
                    }
                }
                let back: Engine<u64> = Engine::from_json(&e.to_json()).unwrap();
                prop_assert!(back.is_weighted());
                prop_assert_eq!(back.entries(), e.entries());
                prop_assert_eq!(back.stream_len(), e.stream_len());
                halves.push(back);
            }
            let (mut a, b) = (halves.remove(0), halves.remove(0));
            a.merge_snapshot(&b.snapshot()).unwrap();

            let report = a.report();
            prop_assert_eq!(u128::from(report.total()), res(&stream, 0), "{}", algo);
            let k = (m - 1) / 2;
            let merged_bound = 3 * res(&stream, k) / (m - 2 * k) as u128;
            for item in 0u64..41 {
                let (lower, upper) = report.interval(&item);
                let w = exact(&stream, item);
                prop_assert!(
                    u128::from(lower) <= w && w <= u128::from(upper),
                    "{} item {}: {} not in [{}, {}]", algo, item, w, lower, upper
                );
                let err = w.abs_diff(u128::from(a.estimate(&item)));
                prop_assert!(err <= merged_bound, "{} merged item {}: {} > {}", algo, item, err, merged_bound);
            }
            let threshold = phi * report.total() as f64;
            let hits = report.heavy_hitters(phi).unwrap();
            for entry in report.entries() {
                if exact(&stream, entry.item) as f64 > threshold {
                    prop_assert!(
                        hits.iter().any(|h| h.item == entry.item),
                        "{} phi {}: heavy item {} missing", algo, phi, entry.item
                    );
                }
            }
        }
    }
}
