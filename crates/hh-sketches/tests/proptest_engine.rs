//! Property tests for the `hh::engine` façade: an `EngineConfig`-built
//! engine must be *observationally identical* to the directly-constructed
//! backend on the same stream (the façade adds dispatch, never behavior),
//! snapshots must round-trip losslessly through JSON, `Engine::merge`
//! must agree with the generic `merge_full` replay it documents, and an
//! engine's report — the one-shard `ShardedView` — must answer what the
//! engine's own `FrequencyEstimator` methods give.

use proptest::collection::vec;
use proptest::prelude::*;

use hh_counters::merge::merge_full;
use hh_counters::recovery;
use hh_counters::{
    Confidence, FrequencyEstimator, Frequent, LossyCounting, SpaceSaving, StickySampling,
};
use hh_sketches::engine::{AlgoKind, Engine, EngineConfig, HeavyHitterEntry, ReportEntry};
use hh_sketches::pipeline::{hash_shard, ShardedView};
use hh_sketches::{CountMin, CountSketch, SketchHeavyHitters, UpdateRule};

/// The sticky-sampling support/failure parameters `EngineConfig::build`
/// hard-wires (kept in sync with `engine.rs`).
const STICKY_SUPPORT: f64 = 0.01;
const STICKY_DELTA: f64 = 0.1;

/// Mirror of the engine's private sketch budget split: a tenth (at least
/// 16 slots, at most half) goes to the candidate heap.
fn sketch_split(budget: usize) -> (usize, usize) {
    let candidates = (budget / 10).max(16).min(budget / 2);
    (budget - candidates, candidates)
}

/// Builds the same backend `EngineConfig::new(algo).counters(m).seed(seed)`
/// builds, directly — no engine wrapper.
fn direct_backend(algo: AlgoKind, m: usize, seed: u64) -> Box<dyn FrequencyEstimator<u64>> {
    match algo {
        AlgoKind::SpaceSaving => Box::new(SpaceSaving::new(m)),
        AlgoKind::Frequent => Box::new(Frequent::new(m)),
        AlgoKind::LossyCounting => Box::new(LossyCounting::with_width(m as u64)),
        AlgoKind::StickySampling => Box::new(StickySampling::new(
            1.0 / (m.max(2)) as f64,
            STICKY_SUPPORT,
            STICKY_DELTA,
            seed | 1,
        )),
        AlgoKind::CountMin => {
            let (cells, candidates) = sketch_split(m);
            Box::new(SketchHeavyHitters::new(
                CountMin::with_budget(cells.max(4), 4, seed, UpdateRule::Classic),
                candidates,
            ))
        }
        AlgoKind::CountSketch => {
            let (cells, candidates) = sketch_split(m);
            Box::new(SketchHeavyHitters::new(
                CountSketch::with_budget(cells.max(5), 5, seed),
                candidates,
            ))
        }
    }
}

/// The entries of `merge_full(&[b], || a)` after `a` consumed `s1` and
/// `b` consumed `s2`.
fn replayed<E: FrequencyEstimator<u64>>(
    mut a: E,
    mut b: E,
    s1: &[u64],
    s2: &[u64],
) -> Vec<(u64, u64)> {
    a.update_batch(s1);
    b.update_batch(s2);
    merge_full(&[b], move || a).entries()
}

fn stream_strategy(len: usize) -> impl Strategy<Value = Vec<u64>> {
    vec(1u64..20, 1..len)
}

proptest! {
    /// The engine is a zero-behavior wrapper: entries, estimates, bounds,
    /// stream length and stored size all match the direct backend, for
    /// every `AlgoKind`.
    #[test]
    fn engine_is_observationally_identical_to_backend(
        stream in stream_strategy(300),
        m in 16usize..64,
        seed in 0u64..16,
    ) {
        for algo in AlgoKind::ALL {
            let mut engine = EngineConfig::new(algo)
                .counters(m)
                .seed(seed)
                .build::<u64>()
                .expect("engine builds");
            let mut direct = direct_backend(algo, m, seed);

            // identical op sequence: a batched prefix, then unit updates
            let split = stream.len() / 2;
            engine.update_batch(&stream[..split]);
            direct.update_batch(&stream[..split]);
            for &x in &stream[split..] {
                engine.update(x);
                direct.update(x);
            }

            prop_assert_eq!(engine.stream_len(), direct.stream_len(), "{}", algo);
            prop_assert_eq!(engine.stored_len(), direct.stored_len(), "{}", algo);
            // The engine keeps the bucket order of SpaceSaving's and
            // Frequent's ties and lists every other backend's by item.
            let mut want = direct.entries();
            if !matches!(algo, AlgoKind::SpaceSaving | AlgoKind::Frequent) {
                want.sort_by_key(|&(item, count)| (std::cmp::Reverse(count), item));
            }
            prop_assert_eq!(engine.entries(), want, "{}", algo);
            for i in 0..20u64 {
                prop_assert_eq!(engine.estimate(&i), direct.estimate(&i), "{} item {}", algo, i);
                prop_assert_eq!(
                    engine.report().interval(&i),
                    (direct.lower_estimate(&i), direct.upper_estimate(&i)),
                    "{} item {} interval", algo, i
                );
            }
        }
    }

    /// Snapshots round-trip through JSON losslessly for every `AlgoKind`,
    /// and the rehydrated engine continues the stream bit-identically
    /// (including RNG state for the randomized backends).
    #[test]
    fn snapshot_roundtrip_preserves_state_and_future(
        stream in stream_strategy(200),
        suffix in stream_strategy(100),
        m in 16usize..48,
        seed in 0u64..8,
    ) {
        for algo in AlgoKind::ALL {
            let mut engine = EngineConfig::new(algo)
                .counters(m)
                .seed(seed)
                .build::<u64>()
                .expect("engine builds");
            engine.update_batch(&stream);

            let json = engine.to_json();
            let mut back: Engine<u64> = Engine::from_json(&json).expect("deserialize");

            prop_assert_eq!(back.algo(), algo);
            prop_assert_eq!(back.stream_len(), engine.stream_len(), "{}", algo);
            // Rows and their tie order survive the round trip: the
            // summaries rebuild their buckets in order, and the engine
            // lists the hash-table backends' ties by item.
            prop_assert_eq!(back.entries(), engine.entries(), "{}", algo);

            engine.update_batch(&suffix);
            back.update_batch(&suffix);
            for i in 0..20u64 {
                prop_assert_eq!(
                    back.estimate(&i), engine.estimate(&i),
                    "{} diverged after resume at item {}", algo, i
                );
            }
        }
    }

    /// `Engine::merge` implements the documented merge per backend: the
    /// replay backends (SPACESAVING, FREQUENT) produce exactly the counters
    /// `merge_full(&[b], || a)` produces on the direct backends (the extra
    /// bound bookkeeping never changes counts), STICKY SAMPLING is an exact
    /// table union, and every merged engine reports the true combined `F1`
    /// and sound per-item intervals.
    #[test]
    fn engine_merge_agrees_with_merge_full(
        s1 in stream_strategy(200),
        s2 in stream_strategy(200),
        m in 16usize..48,
        seed in 0u64..8,
    ) {
        let combined_len = (s1.len() + s2.len()) as u64;
        let exact = |i: u64| {
            (s1.iter().filter(|&&x| x == i).count() + s2.iter().filter(|&&x| x == i).count()) as u64
        };
        for algo in [
            AlgoKind::SpaceSaving,
            AlgoKind::Frequent,
            AlgoKind::LossyCounting,
            AlgoKind::StickySampling,
        ] {
            let config = EngineConfig::new(algo).counters(m).seed(seed);
            let mut ea = config.build::<u64>().expect("engine builds");
            let mut eb = config.build::<u64>().expect("engine builds");
            ea.update_batch(&s1);
            eb.update_batch(&s2);

            let mut da = direct_backend(algo, m, seed);
            let mut db = direct_backend(algo, m, seed);
            da.update_batch(&s1);
            db.update_batch(&s2);
            let union = |i: &u64| da.estimate(i) + db.estimate(i);

            ea.merge(&eb).expect("same config merges");

            // merged engines always report the true combined stream length
            prop_assert_eq!(ea.stream_len(), combined_len, "{}", algo);

            match algo {
                AlgoKind::SpaceSaving | AlgoKind::Frequent => {
                    // counter replay: identical counts to the generic
                    // merge_full on the direct backends
                    let expected = if algo == AlgoKind::SpaceSaving {
                        replayed(SpaceSaving::new(m), SpaceSaving::new(m), &s1, &s2)
                    } else {
                        replayed(Frequent::new(m), Frequent::new(m), &s1, &s2)
                    };
                    prop_assert_eq!(ea.entries(), expected.clone(), "{}", algo);
                    for i in 0..20u64 {
                        let c = expected.iter().find(|&&(x, _)| x == i).map_or(0, |&(_, c)| c);
                        prop_assert_eq!(ea.estimate(&i), c, "{} item {}", algo, i);
                    }
                }
                AlgoKind::StickySampling => {
                    // exact table union, no re-thinning
                    for i in 0..20u64 {
                        prop_assert_eq!(ea.estimate(&i), union(&i), "{} item {}", algo, i);
                    }
                }
                _ => {
                    // LossyCounting merges by delta union + prune: estimates
                    // never exceed the summed per-shard estimates
                    for i in 0..20u64 {
                        prop_assert!(ea.estimate(&i) <= union(&i), "{} item {}", algo, i);
                    }
                }
            }

            // post-merge intervals stay sound (the regression the
            // absorb bookkeeping exists for): lower ≤ f for every backend,
            // f ≤ upper for the deterministic ones
            let report = ea.report();
            for i in 0..20u64 {
                let f = exact(i);
                let (lo, hi) = report.interval(&i);
                prop_assert!(lo <= f, "{} item {}: lower {} > f {}", algo, i, lo, f);
                if algo != AlgoKind::StickySampling {
                    prop_assert!(hi >= f, "{} item {}: upper {} < f {}", algo, i, hi, f);
                }
            }
        }
    }
}

/// Review regression: a SPACESAVING shard whose entry carries `err > 0`
/// (here item 3 stored as `(count 2, err 1)` after evicting at m = 2) must
/// not certify `lower = 2` for an item that truly occurred once after its
/// snapshot is absorbed elsewhere.
#[test]
fn merged_spacesaving_lower_bounds_stay_sound() {
    let config = EngineConfig::new(AlgoKind::SpaceSaving).counters(2);
    let mut shard = config.build::<u64>().unwrap();
    shard.update_batch(&[1, 2, 3]);
    let mut coordinator = config.build::<u64>().unwrap();
    coordinator.merge(&shard).unwrap();
    let (lo, hi) = coordinator.report().interval(&3);
    assert!(lo <= 1, "certified lower {lo} exceeds the true count 1");
    assert!(hi >= 1);
}

/// Review regression: a FREQUENT shard that performed decrement rounds
/// (here [1,1,1,2,3] at m = 2 leaves entries [(1, 2)] with one decrement)
/// must keep `upper ≥ f` and the true combined `F1` after its snapshot is
/// absorbed elsewhere.
#[test]
fn merged_frequent_upper_bounds_and_f1_stay_sound() {
    let config = EngineConfig::new(AlgoKind::Frequent).counters(2);
    let mut shard = config.build::<u64>().unwrap();
    shard.update_batch(&[1, 1, 1, 2, 3]);
    let mut coordinator = config.build::<u64>().unwrap();
    coordinator.merge(&shard).unwrap();
    assert_eq!(coordinator.stream_len(), 5, "true combined F1");
    let (lo, hi) = coordinator.report().interval(&1);
    assert!(lo <= 3);
    assert!(hi >= 3, "certified upper {hi} below the true count 3");
}

proptest! {
    /// `top_k(k)` is the first `k` rows of the full listing, so the
    /// bounded walk and selection pick the same rows, ties included, as
    /// listing everything: for every backend on a stream full of ties, and
    /// for a `ShardedView` of the same stream over 1–8 shards.
    #[test]
    fn top_k_is_a_prefix_of_the_full_listing(
        stream in vec(0u64..120, 1..600),
        m in 16usize..64,
        shards in 1usize..=8,
        seed in 0u64..8,
    ) {
        for algo in AlgoKind::ALL {
            let config = EngineConfig::new(algo).counters(m).seed(seed);
            let mut whole = config.build::<u64>().expect("engine builds");
            whole.update_batch(&stream);
            let mut parts: Vec<Engine<u64>> = (0..shards)
                .map(|_| config.build().expect("engine builds"))
                .collect();
            for &x in &stream {
                parts[hash_shard(shards, &x)].update(x);
            }
            let lost = vec![0; shards];
            let view = ShardedView::new(&parts, &lost, 0).expect("one mass per shard");
            for (what, report) in [("engine", whole.report()), ("view", view.report())] {
                let all = report.entries();
                for k in [0, 1, 50, whole.stored_len(), all.len(), usize::MAX] {
                    prop_assert_eq!(
                        report.top_k(k),
                        all[..k.min(all.len())].to_vec(),
                        "{} {} k={}", algo, what, k
                    );
                }
            }
        }
    }
}

/// The row `engine`'s own [`FrequencyEstimator`] methods give `item`.
fn oracle_row(engine: &Engine<u64>, item: u64) -> ReportEntry<u64> {
    ReportEntry {
        item,
        estimate: engine.estimate(&item),
        lower: engine.lower_estimate(&item),
        upper: engine.upper_estimate(&item),
    }
}

/// The φ-heavy hitters computed straight from `engine`'s listing and
/// bounds: every stored item whose upper bound passes `φ·F1`, guaranteed
/// when its lower bound passes too.
fn oracle_heavy(engine: &Engine<u64>, phi: f64) -> Vec<HeavyHitterEntry<u64>> {
    let threshold = phi * engine.stream_len() as f64;
    let rows = FrequencyEstimator::entries(engine).into_iter();
    rows.map(|(item, _)| oracle_row(engine, item))
        .filter(|row| row.upper as f64 > threshold)
        .map(|row| HeavyHitterEntry {
            confidence: if row.lower as f64 > threshold {
                Confidence::Guaranteed
            } else {
                Confidence::Candidate
            },
            item: row.item,
            estimate: row.estimate,
            lower: row.lower,
            upper: row.upper,
        })
        .collect()
}

proptest! {
    /// One read path: an engine's report and a one-shard `ShardedView`
    /// over it answer exactly what the engine's own `FrequencyEstimator`
    /// methods give — total, interval and entry of stored and unstored
    /// items, `top_k` at every size, `heavy_hitters` and `residual`, which
    /// is `recovery::residual_estimate` — for every backend and for
    /// weighted SpaceSaving and Frequent, on streams full of ties, with
    /// the engine's own unobserved mass counted once.
    #[test]
    fn one_shard_view_answers_exactly_like_the_engine(
        stream in vec((0u64..40, 1u64..5_000), 1..400),
        m in 16usize..48,
        seed in 0u64..8,
        unobserved in 0u64..4,
    ) {
        let configs = AlgoKind::ALL
            .map(|algo| (algo, false))
            .into_iter()
            .chain([(AlgoKind::SpaceSaving, true), (AlgoKind::Frequent, true)]);
        for (algo, weighted) in configs {
            let mut e = EngineConfig::new(algo).counters(m).seed(seed).build::<u64>().unwrap();
            if weighted {
                e = e.into_weighted().unwrap();
                for &(x, units) in &stream {
                    e.update_by(x, units);
                }
            } else {
                e.update_batch(&stream.iter().map(|&(x, _)| x).collect::<Vec<_>>());
            }
            e.add_unobserved(unobserved);
            let listing = FrequencyEstimator::entries(&e);
            let view = ShardedView::new(std::slice::from_ref(&e), &[0], 0).unwrap();
            for (what, report) in [("engine", e.report()), ("view", view.report())] {
                let case = format!("{algo} weighted={weighted} {what}");
                prop_assert_eq!(report.total(), e.stream_len(), "{}", case);
                for x in 0..50u64 {
                    let row = oracle_row(&e, x);
                    prop_assert_eq!(report.interval(&x), (row.lower, row.upper), "{} item {}", case, x);
                    prop_assert_eq!(report.entry(&x), row, "{} item {}", case, x);
                }
                for k in [0, 1, 50, e.stored_len(), usize::MAX] {
                    let top: Vec<_> = (listing.iter().take(k))
                        .map(|&(item, _)| oracle_row(&e, item))
                        .collect();
                    prop_assert_eq!(report.top_k(k), top, "{} k={}", case, k);
                    let residual = recovery::residual_estimate(&e, k);
                    prop_assert_eq!(report.residual(k), residual, "{} k={}", case, k);
                }
                for phi in [0.0, 0.05, 0.2, 0.5] {
                    let heavy = report.heavy_hitters(phi).unwrap();
                    prop_assert_eq!(heavy, oracle_heavy(&e, phi), "{} phi={}", case, phi);
                }
            }
        }
    }
}
