//! Soundness and conformance for the sharded `hh::pipeline` service.
//!
//! The pipeline runs one shard policy — hash partition, per-batch
//! aggregation — and three properties must hold for any shard count,
//! batch size and channel interleaving:
//!
//! 1. **Theorem 11 soundness** — the pipeline's merged view stays within
//!    the merged `(3A, A+B)` k-tail bound of ground truth (the merge
//!    guarantee never conditions on partition or arrival order);
//! 2. **sequential conformance** — every shard equals, bit for bit, a
//!    sequential summary fed its `hash_shard` partition as consecutive
//!    batch-sized chunks, each aggregated to one `update_by` per distinct
//!    item in first-occurrence order;
//! 3. **determinism** — the pipeline's output is a pure function of its
//!    input sequence and configuration; OS thread scheduling never leaks
//!    into results.

use proptest::collection::vec;
use proptest::prelude::*;

use hh::pipeline::{hash_shard, PipelineConfig};
use hh::prelude::*;
use hh::streamgen::exact_zipf_counts;
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

const M: usize = 64;
const K: usize = 6;

fn ss_pipeline(shards: usize, batch: usize) -> Pipeline<u64> {
    PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
        .shards(shards)
        .batch_size(batch)
        .queue_depth(2)
        .spawn()
        .expect("valid pipeline config")
}

/// A skewed stream over 200 distinct items (more than `M`, so summaries
/// genuinely truncate and the bound is stressed) in the regime where the
/// merged `(3A, A+B)` bound is meaningful (m/k ≫ 2, clear skew — see the
/// Theorem 11 tests in `hh-counters`): item `i ∈ 1..=200` occurs
/// `seed % 5 + 2400/i` times, deterministically shuffled.
fn skewed_stream(seed: u64) -> Vec<u64> {
    let counts: Vec<u64> = (1..=200u64).map(|i| seed % 5 + 2400 / i).collect();
    stream_from_counts(&counts, StreamOrder::Shuffled(seed))
}

/// The Theorem 11 merged-summary bound for `stream` at (M, K).
fn merged_bound(stream: &[u64]) -> f64 {
    let oracle = ExactCounter::from_stream(stream);
    TailConstants::ONE_ONE
        .merged()
        .bound(M, K, oracle.freqs().res1(K))
        .expect("M > (A+B)K")
}

/// Feeds `chunk` to `summary` the way a shard worker consumes a batch:
/// one `update_by` per distinct item with its count in the chunk, items
/// in order of first occurrence.
fn feed_aggregated(summary: &mut SpaceSaving<u64>, chunk: &[u64]) {
    let mut distinct: Vec<(u64, u64)> = Vec::new();
    for &x in chunk {
        match distinct.iter_mut().find(|(item, _)| *item == x) {
            Some((_, count)) => *count += 1,
            None => distinct.push((x, 1)),
        }
    }
    for (item, count) in distinct {
        summary.update_by(item, count);
    }
}

/// The exact per-shard oracle: each segment of the stream (the whole
/// stream, or the two sides of an epoch query's flush at `cut`) is
/// partitioned by `hash_shard`, and each shard's part is fed in
/// consecutive `batch`-item chunks through [`feed_aggregated`]. The
/// flush ships every open chunk, so chunking restarts after `cut`.
fn sequential_shards(
    stream: &[u64],
    shards: usize,
    batch: usize,
    cut: Option<usize>,
) -> Vec<SpaceSaving<u64>> {
    let segments = match cut {
        Some(cut) => vec![&stream[..cut], &stream[cut..]],
        None => vec![stream],
    };
    let mut summaries: Vec<_> = (0..shards).map(|_| SpaceSaving::new(M)).collect();
    for segment in segments {
        let mut parts = vec![Vec::new(); shards];
        for &x in segment {
            parts[hash_shard(shards, &x)].push(x);
        }
        for (summary, part) in summaries.iter_mut().zip(&parts) {
            for chunk in part.chunks(batch) {
                feed_aggregated(summary, chunk);
            }
        }
    }
    summaries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: pipeline estimates stay within the merged tail bound
    /// for random shard counts and batch sizes. The batch size
    /// randomizes how arrivals interleave into per-shard channel
    /// messages and how much each batch aggregates.
    #[test]
    fn pipeline_respects_the_merged_tail_bound(
        seed in 0u64..1000,
        shards in 1usize..6,
        batch in 1usize..400,
    ) {
        let stream = skewed_stream(seed);
        let oracle = ExactCounter::from_stream(&stream);
        let bound = merged_bound(&stream);

        let mut p = ss_pipeline(shards, batch);
        p.send_batch(&stream).expect("shards alive");
        let merged = p.finish().expect("clean shutdown");

        prop_assert_eq!(merged.stream_len(), stream.len() as u64);
        for item in 1..=200u64 {
            let err = oracle.count(&item).abs_diff(merged.estimate(&item));
            prop_assert!(
                err as f64 <= bound + 1e-9,
                "shards={} batch={} item={}: err {} > bound {}",
                shards, batch, item, err, bound
            );
        }
    }

    /// Property 2: every shard is exactly its sequential oracle — shard
    /// `j` from `finish_shards()` equals `SpaceSaving::new(M)` fed
    /// partition `j` as aggregated `batch`-item chunks, entries and
    /// stream length alike. With `mid_query`, a `snapshots()` call at
    /// `cut` flushes every shard's open chunk early.
    #[test]
    fn shards_equal_sequential_aggregated_summaries(
        seed in 0u64..1000,
        shards in 1usize..6,
        batch in 1usize..300,
        mid_query in 0u8..2,
        cut_permille in 0usize..=1000,
    ) {
        let stream = skewed_stream(seed);
        let cut = (mid_query == 1).then_some(stream.len() * cut_permille / 1000);

        let mut p = ss_pipeline(shards, batch);
        match cut {
            Some(cut) => {
                p.send_batch(&stream[..cut]).expect("shards alive");
                p.snapshots().expect("epoch query");
                p.send_batch(&stream[cut..]).expect("shards alive");
            }
            None => p.send_batch(&stream).expect("shards alive"),
        }
        let engines = p.finish_shards().expect("clean shutdown");

        let oracle = sequential_shards(&stream, shards, batch, cut);
        prop_assert_eq!(engines.len(), shards);
        for (engine, sequential) in engines.iter().zip(&oracle) {
            prop_assert_eq!(engine.entries(), sequential.entries());
            prop_assert_eq!(engine.stream_len(), sequential.stream_len());
        }
    }

    /// Property 3: repeated runs over the same input and configuration
    /// are bit-identical — thread scheduling and channel timing never
    /// reach the results. A mid-stream epoch query never changes any
    /// estimate: the flush it forces moves batch boundaries, which may
    /// permute ties (the stream keeps fewer distinct items than `M`, so
    /// every summary is exact and only tie order can move).
    #[test]
    fn pipeline_results_are_deterministic(
        stream in vec(1u64..50, 1..2_000),
        shards in 1usize..5,
        batch in 1usize..200,
        query_at in 0usize..2_000,
    ) {
        let run = |mid_query: bool| {
            let mut p = ss_pipeline(shards, batch);
            let cut = query_at.min(stream.len());
            p.send_batch(&stream[..cut]).expect("shards alive");
            if mid_query {
                let live = p.merged().expect("live epoch query");
                assert_eq!(live.stream_len(), cut as u64);
            }
            p.send_batch(&stream[cut..]).expect("shards alive");
            p.finish().expect("clean shutdown")
        };
        // scheduling determinism: identical runs are bit-identical
        let first = run(false);
        let again = run(false);
        prop_assert_eq!(first.entries(), again.entries());
        prop_assert_eq!(first.stream_len(), stream.len() as u64);

        // query transparency: estimates survive a mid-stream epoch query
        let with_query = run(true);
        prop_assert_eq!(with_query.stream_len(), stream.len() as u64);
        let sorted = |e: &Engine<u64>| {
            let mut v = e.entries();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(sorted(&first), sorted(&with_query));
    }
}

/// The CI smoke configuration: shards ∈ {1, 4} on a realistic Zipf
/// workload, checking stream accounting, the merged tail bound, and that
/// a live epoch query agrees with the final state.
#[test]
fn pipeline_smoke_shards_1_and_4() {
    let counts = exact_zipf_counts(400, 40_000, 1.3);
    let stream = stream_from_counts(&counts, StreamOrder::Shuffled(9));
    let oracle = ExactCounter::from_stream(&stream);
    let bound = TailConstants::ONE_ONE
        .merged()
        .bound(M, 8, oracle.freqs().res1(8))
        .expect("m > (A+B)k");

    for shards in [1usize, 4] {
        let mut p = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
            .shards(shards)
            .spawn::<u64>()
            .expect("valid config");
        let half = stream.len() / 2;
        p.send_batch(&stream[..half]).expect("shards alive");
        let live = p.merged().expect("live query");
        assert_eq!(live.stream_len(), half as u64, "shards={shards}");

        p.send_batch(&stream[half..]).expect("shards alive");
        let merged = p.finish().expect("clean shutdown");
        assert_eq!(merged.stream_len(), stream.len() as u64);
        for item in 1..=400u64 {
            let err = oracle.count(&item).abs_diff(merged.estimate(&item));
            assert!(
                err as f64 <= bound + 1e-9,
                "shards={shards} item={item}: {err} > {bound}"
            );
        }
    }
}

/// Every engine algorithm serves through the pipeline with live queries.
#[test]
fn pipeline_serves_every_algo_kind() {
    let stream: Vec<u64> = (0..6_000).map(|i| (i * i + 13 * i) % 97).collect();
    for algo in AlgoKind::ALL {
        let mut p = PipelineConfig::new(EngineConfig::new(algo).counters(128).seed(7))
            .shards(3)
            .batch_size(512)
            .spawn::<u64>()
            .expect("valid config");
        p.send_batch(&stream).expect("shards alive");
        let live = p.merged().expect("live query");
        assert_eq!(live.stream_len(), 6_000, "{algo}");
        let merged = p.finish().expect("clean shutdown");
        assert_eq!(merged.stream_len(), 6_000, "{algo}");
        assert!(!merged.report().top_k(5).is_empty(), "{algo}");
    }
}
