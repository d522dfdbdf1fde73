//! Property-based tests over the counter algorithms: conformance to the
//! pseudocode references, the paper's guarantees, data-structure
//! invariants, and bulk-update equivalence — all on randomized streams.

use proptest::collection::vec;
use proptest::prelude::*;

use hh_counters::{
    Bias, FrequencyEstimator, Frequent, HeapSpaceSaving, ReferenceFrequent, ReferenceSpaceSaving,
    SpaceSaving, StreamSummary,
};

/// A random stream: items in 1..=sigma, length up to `len`.
fn stream_strategy(sigma: u64, len: usize) -> impl Strategy<Value = Vec<u64>> {
    vec(1..=sigma, 0..len)
}

fn exact(stream: &[u64], item: u64) -> u64 {
    stream.iter().filter(|&&x| x == item).count() as u64
}

fn sorted_freqs(stream: &[u64], sigma: u64) -> Vec<u64> {
    let mut f: Vec<u64> = (1..=sigma).map(|i| exact(stream, i)).collect();
    f.sort_unstable_by(|a, b| b.cmp(a));
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frequent_conforms_to_reference(stream in stream_strategy(8, 80), m in 1usize..6) {
        let mut fast = Frequent::new(m);
        let mut slow = ReferenceFrequent::new(m);
        for &x in &stream {
            fast.update(x);
            slow.update(x);
        }
        let mut fs = fast.entries();
        fs.sort_unstable();
        prop_assert_eq!(fs, slow.state());
        prop_assert_eq!(fast.decrements(), slow.decrements());
    }

    #[test]
    fn spacesaving_conforms_to_reference(stream in stream_strategy(8, 80), m in 1usize..6) {
        let mut fast = SpaceSaving::new(m);
        let mut slow = ReferenceSpaceSaving::new(m);
        for &x in &stream {
            fast.update(x);
            slow.update(x);
        }
        let mut fs = fast.entries();
        fs.sort_unstable();
        prop_assert_eq!(fs, slow.state());
    }

    #[test]
    fn tail_guarantee_one_one(stream in stream_strategy(12, 200), m in 2usize..10) {
        let mut fr = Frequent::new(m);
        let mut ss = SpaceSaving::new(m);
        for &x in &stream {
            fr.update(x);
            ss.update(x);
        }
        let sorted = sorted_freqs(&stream, 12);
        for k in 0..m {
            let res: u64 = sorted.iter().skip(k).sum();
            if m <= k { continue; }
            let bound = res / (m - k) as u64;
            for item in 1..=12u64 {
                let f = exact(&stream, item);
                prop_assert!(f.abs_diff(fr.estimate(&item)) <= bound,
                    "Frequent k={} item={}", k, item);
                prop_assert!(f.abs_diff(ss.estimate(&item)) <= bound,
                    "SpaceSaving k={} item={}", k, item);
            }
        }
    }

    #[test]
    fn frequent_is_an_underestimate_within_d(stream in stream_strategy(10, 150), m in 1usize..8) {
        let mut fr = Frequent::new(m);
        for &x in &stream {
            fr.update(x);
        }
        prop_assert_eq!(fr.bias(), Bias::Under);
        let d = fr.decrements();
        for item in 1..=10u64 {
            let f = exact(&stream, item);
            let c = fr.estimate(&item);
            prop_assert!(c <= f);
            prop_assert!(c + d >= f);
        }
    }

    #[test]
    fn spacesaving_sandwich(stream in stream_strategy(10, 150), m in 1usize..8) {
        let mut ss = SpaceSaving::new(m);
        for &x in &stream {
            ss.update(x);
        }
        // counter sum == stream length
        let sum: u64 = ss.entries().iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(sum, stream.len() as u64);
        for item in 1..=10u64 {
            let f = exact(&stream, item);
            prop_assert!(ss.guaranteed_count(&item) <= f);
            prop_assert!(ss.upper_estimate(&item) >= f);
            let c = ss.estimate(&item);
            if c > 0 {
                prop_assert!(c >= f, "stored estimates dominate");
            }
        }
    }

    #[test]
    fn bulk_updates_equal_unit_updates(
        updates in vec((1u64..8, 1u64..12), 0..40),
        m in 1usize..6
    ) {
        let mut fr_bulk = Frequent::new(m);
        let mut fr_unit = Frequent::new(m);
        let mut ss_bulk = SpaceSaving::new(m);
        let mut ss_unit = SpaceSaving::new(m);
        for &(item, c) in &updates {
            fr_bulk.update_by(item, c);
            ss_bulk.update_by(item, c);
            for _ in 0..c {
                fr_unit.update(item);
                ss_unit.update(item);
            }
        }
        let mut a = fr_bulk.entries(); a.sort_unstable();
        let mut b = fr_unit.entries(); b.sort_unstable();
        prop_assert_eq!(a, b, "Frequent bulk == unit");
        let mut c1 = ss_bulk.entries(); c1.sort_unstable();
        let mut c2 = ss_unit.entries(); c2.sort_unstable();
        prop_assert_eq!(c1, c2, "SpaceSaving bulk == unit");
    }

    #[test]
    fn batch_updates_equal_unit_updates(stream in stream_strategy(8, 120), m in 1usize..6) {
        let mut fr_batch = Frequent::new(m);
        let mut fr_unit = Frequent::new(m);
        let mut ss_batch = SpaceSaving::new(m);
        let mut ss_unit = SpaceSaving::new(m);
        fr_batch.update_batch(&stream);
        ss_batch.update_batch(&stream);
        for &x in &stream {
            fr_unit.update(x);
            ss_unit.update(x);
        }
        fr_batch.check_invariants();
        ss_batch.check_invariants();
        prop_assert_eq!(fr_batch.entries(), fr_unit.entries(), "Frequent batch == unit");
        prop_assert_eq!(fr_batch.decrements(), fr_unit.decrements());
        prop_assert_eq!(ss_batch.entries(), ss_unit.entries(), "SpaceSaving batch == unit");
        prop_assert_eq!(ss_batch.stream_len(), ss_unit.stream_len());
    }

    #[test]
    fn heap_and_bucket_spacesaving_agree_on_counter_multiset(
        stream in stream_strategy(10, 150),
        m in 1usize..8
    ) {
        let mut bucket = SpaceSaving::new(m);
        let mut heap = HeapSpaceSaving::new(m);
        for &x in &stream {
            bucket.update(x);
            heap.update(x);
        }
        // States may differ on ties, but the counter-value multiset is
        // determined by the replace-min discipline.
        let mut bc: Vec<u64> = bucket.entries().iter().map(|&(_, c)| c).collect();
        let mut hc: Vec<u64> = heap.entries().iter().map(|&(_, c)| c).collect();
        bc.sort_unstable();
        hc.sort_unstable();
        prop_assert_eq!(bc, hc);
    }

    #[test]
    fn stream_summary_invariants_under_random_ops(
        ops in vec((0u8..4, 1u64..12, 1u64..5), 0..120)
    ) {
        let mut s: StreamSummary<u64> = StreamSummary::new();
        for &(op, item, amt) in &ops {
            match op {
                0 => {
                    if !s.contains(&item) {
                        s.insert(item, amt, 0);
                    }
                }
                1 => {
                    s.increment(&item, amt);
                }
                2 => {
                    s.evict_min();
                }
                _ => {
                    s.remove(&item);
                }
            }
            s.check_invariants();
        }
    }

    /// A weight of 1.000 counted as 1000 units scales every counter by
    /// 1000 and changes nothing else, tie-breaking included.
    #[test]
    fn weighted_unit_equivalence(stream in stream_strategy(8, 100), m in 1usize..6) {
        let mut ss = SpaceSaving::new(m);
        let mut ssr = SpaceSaving::new(m);
        let mut fr = Frequent::new(m);
        let mut frr = Frequent::new(m);
        for &x in &stream {
            ss.update(x);
            ssr.update_by(x, 1000);
            fr.update(x);
            frr.update_by(x, 1000);
        }
        let scaled = |e: Vec<(u64, u64)>| -> Vec<(u64, u64)> {
            e.into_iter().map(|(i, c)| (i, c * 1000)).collect()
        };
        prop_assert_eq!(ssr.entries(), scaled(ss.entries()));
        prop_assert_eq!(frr.entries(), scaled(fr.entries()));
    }

    /// The heavy-hitter guarantee `|f_i − c_i| ≤ F1/m` over integer
    /// weights, summed exactly.
    #[test]
    fn weighted_heavy_hitter_guarantee(
        updates in vec((1u64..10, 1u64..1_000_000), 1..80),
        m in 1usize..8
    ) {
        let mut frr = Frequent::new(m);
        let mut ssr = SpaceSaving::new(m);
        let mut exact_w = std::collections::HashMap::new();
        for &(item, w) in &updates {
            frr.update_by(item, w);
            ssr.update_by(item, w);
            *exact_w.entry(item).or_insert(0u64) += w;
        }
        let f1: u64 = updates.iter().map(|&(_, w)| w).sum();
        prop_assert_eq!((frr.stream_len(), ssr.stream_len()), (f1, f1));
        let bound = f1 / m as u64;
        for (&item, &w) in &exact_w {
            prop_assert!(w.abs_diff(frr.estimate(&item)) <= bound, "Frequent item {}", item);
            prop_assert!(w.abs_diff(ssr.estimate(&item)) <= bound, "SpaceSaving item {}", item);
        }
    }

    #[test]
    fn estimates_zero_for_never_seen_items(stream in stream_strategy(5, 60), m in 1usize..5) {
        let mut fr = Frequent::new(m);
        let mut ss = SpaceSaving::new(m);
        for &x in &stream {
            fr.update(x);
            ss.update(x);
        }
        for item in 100..105u64 {
            prop_assert_eq!(fr.estimate(&item), 0);
            prop_assert_eq!(ss.estimate(&item), 0);
        }
    }
}

// ---- properties of the newer modules ---------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_roundtrip_is_lossless(stream in stream_strategy(10, 120), m in 1usize..8) {
        let mut ss = SpaceSaving::new(m);
        let mut fr = Frequent::new(m);
        for &x in &stream {
            ss.update(x);
            fr.update(x);
        }
        let ss2 = SpaceSaving::from_parts(m, ss.stream_len(), ss.absorbed_slack(), ss.entries_with_err())
            .expect("captured parts are consistent");
        let fr2 = Frequent::from_parts(m, fr.stream_len(), fr.decrements(), fr.entries())
            .expect("captured parts are consistent");
        prop_assert_eq!(ss2.entries_with_err(), ss.entries_with_err());
        prop_assert_eq!(fr2.entries(), fr.entries());
        prop_assert_eq!(fr2.decrements(), fr.decrements());
        // continuing both with the same suffix keeps them identical
        let mut ss_cont = ss.clone();
        let mut ss2_cont = ss2;
        for x in 1..=5u64 {
            ss_cont.update(x);
            ss2_cont.update(x);
        }
        prop_assert_eq!(ss_cont.entries_with_err(), ss2_cont.entries_with_err());
    }

    #[test]
    fn guaranteed_heavy_hitters_are_sound(stream in stream_strategy(10, 150), m in 2usize..10) {
        use hh_counters::{spacesaving_heavy_hitters, frequent_heavy_hitters, Confidence};
        let mut ss = SpaceSaving::new(m);
        let mut fr = Frequent::new(m);
        for &x in &stream {
            ss.update(x);
            fr.update(x);
        }
        let phi = 0.2;
        let n = stream.len() as f64;
        for hit in spacesaving_heavy_hitters(&ss, phi) {
            if hit.confidence == Confidence::Guaranteed {
                prop_assert!(exact(&stream, hit.item) as f64 > phi * n,
                    "SS guaranteed item {} not heavy", hit.item);
            }
        }
        for hit in frequent_heavy_hitters(&fr, phi) {
            if hit.confidence == Confidence::Guaranteed {
                prop_assert!(exact(&stream, hit.item) as f64 > phi * n,
                    "FR guaranteed item {} not heavy", hit.item);
            }
        }
    }

    #[test]
    fn monitor_members_always_match_topk(stream in stream_strategy(8, 150), k in 1usize..4) {
        use hh_counters::monitor::TopKMonitor;
        use hh_counters::topk::top_k;
        let m = k + 4;
        let mut mon: TopKMonitor<u64> = TopKMonitor::new(m, k);
        for &x in &stream {
            mon.update(x);
            let expect: std::collections::BTreeSet<u64> =
                top_k(mon.summary(), k).into_iter().map(|(i, _)| i).collect();
            prop_assert_eq!(mon.members(), &expect);
        }
    }

    #[test]
    fn sticky_sampling_never_overestimates(
        stream in stream_strategy(15, 250),
        seed in 1u64..500
    ) {
        use hh_counters::StickySampling;
        let mut s: StickySampling<u64> = StickySampling::new(0.1, 0.1, 0.1, seed);
        for &x in &stream {
            s.update(x);
        }
        for item in 1..=15u64 {
            prop_assert!(s.estimate(&item) <= exact(&stream, item));
        }
        prop_assert_eq!(s.stream_len(), stream.len() as u64);
    }
}
