//! Soundness and conformance for the sharded `hh::pipeline` service.
//!
//! Three properties must hold for any shard count, routing mode, batch
//! size and channel interleaving:
//!
//! 1. **Theorem 11 soundness** — the pipeline's merged view stays within
//!    the merged `(3A, A+B)` k-tail bound of ground truth, in both
//!    order-preserving and aggregating shard-ingest modes (the merge
//!    guarantee never conditions on partition or arrival order);
//! 2. **sequential conformance** — with deterministic routing and
//!    order-preserving ingest, every shard equals a sequential summary of
//!    the partition the routing dealt it, bit for bit;
//! 3. **determinism** — the pipeline's output is a pure function of its
//!    input sequence and configuration; OS thread scheduling never leaks
//!    into results.

use proptest::collection::vec;
use proptest::prelude::*;

use hh::pipeline::{hash_shard, PipelineConfig, Routing, ShardIngest};
use hh::prelude::*;
use hh::streamgen::exact_zipf_counts;
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

const M: usize = 64;
const K: usize = 6;

fn ss_pipeline(
    shards: usize,
    routing: Routing,
    ingest: ShardIngest,
    batch: usize,
) -> Pipeline<u64> {
    PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
        .shards(shards)
        .routing(routing)
        .ingest(ingest)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: pipeline estimates stay within the merged tail bound
    /// for random shard counts, routing, ingest mode and batch size. The
    /// batch size randomizes how arrivals interleave into per-shard
    /// channel messages.
    #[test]
    fn pipeline_respects_the_merged_tail_bound(
        seed in 0u64..1000,
        shards in 1usize..6,
        batch in 1usize..400,
        routing_hash in 0u8..2,
        aggregate in 0u8..2,
    ) {
        let stream = skewed_stream(seed);
        let oracle = ExactCounter::from_stream(&stream);
        let bound = merged_bound(&stream);
        let routing = if routing_hash == 1 { Routing::HashPartition } else { Routing::RoundRobin };
        let ingest = if aggregate == 1 { ShardIngest::Aggregate } else { ShardIngest::Preserve };

        let mut p = ss_pipeline(shards, routing, ingest, batch);
        p.send_batch(&stream).expect("shards alive");
        let merged = p.finish().expect("clean shutdown");

        prop_assert_eq!(merged.stream_len(), stream.len() as u64);
        for item in 1..=200u64 {
            let err = oracle.count(&item).abs_diff(merged.estimate(&item));
            prop_assert!(
                err as f64 <= bound + 1e-9,
                "shards={} routing={:?} ingest={:?} batch={} item={}: err {} > bound {}",
                shards, routing, ingest, batch, item, err, bound
            );
        }
    }

    /// Property 2: with order-preserving ingest every shard is exactly a
    /// sequential summary of its sub-stream — shard `j` from
    /// `finish_shards()` equals `SpaceSaving::new(M)` fed partition `j`,
    /// entries and stream length alike. Both routing modes are
    /// deterministic; the partition is reconstructed from the documented
    /// contracts (`hash_shard`, and whole-batch rotation for round-robin).
    #[test]
    fn preserve_shards_equal_sequential_summaries(
        seed in 0u64..1000,
        shards in 1usize..6,
        batch in 1usize..300,
        routing_hash in 0u8..2,
    ) {
        let stream = skewed_stream(seed);
        let routing = if routing_hash == 1 { Routing::HashPartition } else { Routing::RoundRobin };

        let mut p = ss_pipeline(shards, routing, ShardIngest::Preserve, batch);
        p.send_batch(&stream).expect("shards alive");
        let engines = p.finish_shards().expect("clean shutdown");

        // reconstruct the partition from the routing contract
        let mut partition = vec![Vec::new(); shards];
        match routing {
            Routing::HashPartition => {
                for &x in &stream {
                    partition[hash_shard(shards, &x)].push(x);
                }
            }
            Routing::RoundRobin => {
                for (i, chunk) in stream.chunks(batch).enumerate() {
                    partition[i % shards].extend_from_slice(chunk);
                }
            }
        }
        prop_assert_eq!(engines.len(), shards);
        for (engine, part) in engines.iter().zip(&partition) {
            let mut sequential = SpaceSaving::<u64>::new(M);
            sequential.update_batch(part);
            prop_assert_eq!(engine.entries(), sequential.entries());
            prop_assert_eq!(engine.stream_len(), sequential.stream_len());
        }
    }

    /// Property 3: repeated runs over the same input and configuration
    /// are bit-identical — thread scheduling and channel timing never
    /// reach the results. A mid-stream epoch query never changes any
    /// estimate; in `Preserve` mode it is fully invisible, while in
    /// `Aggregate` mode the flush it forces moves batch boundaries, which
    /// may permute ties (the stream keeps fewer distinct items than `M`,
    /// so every summary is exact and only tie order can move).
    #[test]
    fn pipeline_results_are_deterministic(
        stream in vec(1u64..50, 1..2_000),
        shards in 1usize..5,
        batch in 1usize..200,
        aggregate in 0u8..2,
        query_at in 0usize..2_000,
    ) {
        let ingest = if aggregate == 1 { ShardIngest::Aggregate } else { ShardIngest::Preserve };
        let run = |mid_query: bool| {
            let mut p = ss_pipeline(shards, Routing::HashPartition, ingest, batch);
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
        if ingest == ShardIngest::Preserve {
            prop_assert_eq!(first.entries(), with_query.entries());
        } else {
            let sorted = |e: &Engine<u64>| {
                let mut v = e.entries();
                v.sort_unstable();
                v
            };
            prop_assert_eq!(sorted(&first), sorted(&with_query));
        }
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
        for ingest in [ShardIngest::Preserve, ShardIngest::Aggregate] {
            let mut p = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
                .shards(shards)
                .ingest(ingest)
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
                    "shards={shards} ingest={ingest:?} item={item}: {err} > {bound}"
                );
            }
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
