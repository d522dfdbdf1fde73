//! Shared experiment drivers: algorithm factories keyed by name and stream
//! feeding helpers, so every bench binary and integration test builds its
//! comparisons the same way.
//!
//! Every algorithm the unified engine covers is constructed through
//! [`hh_sketches::engine::EngineConfig`]; only the two ablation-only
//! backends (the lazy-heap SPACESAVING variant and the dyadic Count-Min)
//! are built directly, since they exist to benchmark design choices rather
//! than to serve queries.

use hh_counters::traits::FrequencyEstimator;
use hh_sketches::engine::{AlgoKind, EngineConfig};
use hh_sketches::DyadicCountMin;
use hh_streamgen::Item;

/// Universe bits assumed for [`Algo::DyadicCountMin`] instances (ids up to
/// ~1M — all generators in this workspace stay below this).
pub const DYADIC_BITS: u32 = 20;

/// The algorithms the comparison experiments sweep over (the rows of
/// Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// FREQUENT (Misra–Gries), bucket-list implementation.
    Frequent,
    /// SPACESAVING, bucket-list implementation.
    SpaceSaving,
    /// SPACESAVING on a lazy binary heap (ablation).
    HeapSpaceSaving,
    /// LOSSYCOUNTING with `ε = 1/budget` (its table then floats around the
    /// budget; its `capacity()` reports the high-water mark actually used).
    LossyCounting,
    /// STICKY SAMPLING with `ε = 1/budget` (randomized counter algorithm;
    /// like LOSSYCOUNTING, `capacity()` reports its actual high-water use).
    StickySampling,
    /// Count-Min sketch, classic updates, depth 4.
    CountMin,
    /// Count-Min sketch with conservative updates, depth 4.
    CountMinCU,
    /// Count-Sketch (median estimator), depth 5.
    CountSketch,
    /// Dyadic Count-Min over a 2^20 universe (the sketch that can *find*
    /// heavy hitters natively, paying the `log n` space factor).
    DyadicCountMin,
}

impl Algo {
    /// All comparison algorithms in Table 1 order.
    pub const ALL: [Algo; 9] = [
        Algo::Frequent,
        Algo::SpaceSaving,
        Algo::HeapSpaceSaving,
        Algo::LossyCounting,
        Algo::StickySampling,
        Algo::CountMin,
        Algo::CountMinCU,
        Algo::CountSketch,
        Algo::DyadicCountMin,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Frequent => "Frequent",
            Algo::SpaceSaving => "SpaceSaving",
            Algo::HeapSpaceSaving => "SpaceSaving(heap)",
            Algo::LossyCounting => "LossyCounting",
            Algo::StickySampling => "StickySampling",
            Algo::CountMin => "CountMin",
            Algo::CountMinCU => "CountMin(CU)",
            Algo::CountSketch => "CountSketch",
            Algo::DyadicCountMin => "DyadicCountMin",
        }
    }

    /// Whether this is a counter algorithm (stores items explicitly).
    pub fn is_counter(self) -> bool {
        matches!(
            self,
            Algo::Frequent
                | Algo::SpaceSaving
                | Algo::HeapSpaceSaving
                | Algo::LossyCounting
                | Algo::StickySampling
        )
    }

    /// The engine [`AlgoKind`] backing this comparison algorithm, when the
    /// unified engine covers it (`None` for the two ablation-only
    /// backends).
    pub fn kind(self) -> Option<AlgoKind> {
        match self {
            Algo::Frequent => Some(AlgoKind::Frequent),
            Algo::SpaceSaving => Some(AlgoKind::SpaceSaving),
            Algo::LossyCounting => Some(AlgoKind::LossyCounting),
            Algo::StickySampling => Some(AlgoKind::StickySampling),
            Algo::CountMin | Algo::CountMinCU => Some(AlgoKind::CountMin),
            Algo::CountSketch => Some(AlgoKind::CountSketch),
            Algo::HeapSpaceSaving | Algo::DyadicCountMin => None,
        }
    }
}

/// Depth used for Count-Min instances built by [`make_estimator`] — the
/// engine's own default, so the experiment harness always benchmarks the
/// sketch shape the serving path uses.
pub const CM_DEPTH: usize = hh_sketches::engine::CM_DEPTH;
/// Depth used for Count-Sketch instances built by [`make_estimator`].
pub const CS_DEPTH: usize = hh_sketches::engine::CS_DEPTH;

/// Builds an estimator with a total space budget of `budget` counters
/// (cells for sketches, stored entries for counter algorithms).
///
/// Engine-covered algorithms are constructed through [`EngineConfig`]
/// (which reserves a tenth of a sketch budget, at least 16 slots, for the
/// heavy-hitter candidate list — a sketch without one cannot report heavy
/// hitters at all, so any fair comparison must charge for it); the
/// sampling/update-rule parameters match the engine's defaults exactly.
pub fn make_estimator(algo: Algo, budget: usize, seed: u64) -> Box<dyn FrequencyEstimator<Item>> {
    assert!(budget >= 1, "need at least one counter");
    if let Some(kind) = algo.kind() {
        let config = EngineConfig::new(kind)
            .counters(budget)
            .seed(seed)
            .conservative(algo == Algo::CountMinCU)
            .sketch_depth(match kind {
                AlgoKind::CountSketch => CS_DEPTH,
                _ => CM_DEPTH,
            });
        // lint:allow(panic-freedom) unreachable: the experiment registry constructs configs only from the compiled-in (m, depth) tables, all of which are valid
        return Box::new(config.build::<Item>().expect("valid experiment budget"));
    }
    match algo {
        Algo::HeapSpaceSaving => Box::new(hh_counters::HeapSpaceSaving::new(budget)),
        Algo::DyadicCountMin => Box::new(DyadicCountMin::with_budget(
            DYADIC_BITS,
            budget,
            CM_DEPTH,
            seed,
        )),
        _ => unreachable!("engine-covered algorithms handled above"),
    }
}

/// Feeds a stream into an estimator via the batched ingest path (equivalent
/// to one [`FrequencyEstimator::update`] per element).
pub fn feed<E: FrequencyEstimator<Item> + ?Sized>(est: &mut E, stream: &[Item]) {
    est.update_batch(stream);
}

/// Feeds a stream in fixed-size chunks, one
/// [`FrequencyEstimator::update_batch`] call per chunk — the driver shape
/// of buffered ingest (a CLI reading line blocks, a shard worker draining
/// partition segments). Equivalent to [`feed`] for the counter
/// algorithms; backend pre-aggregation scratch is reused across chunks.
pub fn feed_chunked<E: FrequencyEstimator<Item> + ?Sized>(
    est: &mut E,
    stream: &[Item],
    chunk: usize,
) {
    assert!(chunk >= 1, "chunk size must be positive");
    for slice in stream.chunks(chunk) {
        est.update_batch(slice);
    }
}

/// Builds an estimator, runs the stream through it, and returns it.
pub fn run(
    algo: Algo,
    budget: usize,
    seed: u64,
    stream: &[Item],
) -> Box<dyn FrequencyEstimator<Item>> {
    let mut est = make_estimator(algo, budget, seed);
    feed(est.as_mut(), stream);
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_streamgen::ExactCounter;

    #[test]
    fn factories_produce_working_estimators() {
        let stream: Vec<Item> = (0..500).map(|i| i % 17 + 1).collect();
        let oracle = ExactCounter::from_stream(&stream);
        for algo in Algo::ALL {
            // a generous budget so even the dyadic sketch (20 levels) has
            // usable width; accuracy-at-small-budgets is what the
            // comparison experiments measure, not this smoke test
            let est = run(algo, 4096, 7, &stream);
            assert_eq!(est.stream_len(), 500, "{}", algo.name());
            let e = est.estimate(&1);
            let f = oracle.count(&1);
            assert!(
                e.abs_diff(f) <= 60,
                "{}: estimate {e} too far from {f}",
                algo.name()
            );
        }
    }

    #[test]
    fn feed_chunked_matches_feed_for_any_chunking() {
        // Every chunking, including a chunk size of 1 (one slice per
        // element), ingests the whole stream; for the counter algorithms
        // it also equals whole-stream ingest exactly. Sketch candidate
        // heaps are chunking-sensitive heuristics, so for them only the
        // stream length is compared.
        let stream: Vec<Item> = (0..2_077).map(|i| (i * i + 3 * i) % 97).collect();
        for algo in [Algo::SpaceSaving, Algo::Frequent, Algo::CountMin] {
            let mut whole = make_estimator(algo, 64, 7);
            feed(whole.as_mut(), &stream);
            for chunk in [1usize, 31, 64, 2_077, 5_000] {
                let mut chunked = make_estimator(algo, 64, 7);
                feed_chunked(chunked.as_mut(), &stream, chunk);
                assert_eq!(chunked.stream_len(), whole.stream_len());
                if algo.is_counter() {
                    assert_eq!(
                        chunked.entries(),
                        whole.entries(),
                        "{} chunk={chunk} vs whole-stream",
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn counter_flag_matches_identity() {
        assert!(Algo::Frequent.is_counter());
        assert!(Algo::LossyCounting.is_counter());
        assert!(!Algo::CountMin.is_counter());
        assert!(!Algo::CountSketch.is_counter());
    }

    #[test]
    fn sketch_budget_accounting() {
        let est = make_estimator(Algo::CountMin, 200, 0);
        // cells + candidates should not exceed the budget
        assert!(est.capacity() <= 200);
        assert!(est.capacity() >= 150, "most of the budget is used");
    }
}
