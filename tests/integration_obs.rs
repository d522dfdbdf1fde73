//! Telemetry soundness for `hh::pipeline` + `hh::obs`.
//!
//! The observability layer must *describe* the pipeline without ever
//! disagreeing with it. Two exactness properties pin that down at epoch
//! boundaries (the pipeline's quiescent points, where the FIFO
//! checkpoint protocol guarantees every queue is drained):
//!
//! 1. **conservation** — per-shard `items_ingested` counters sum to
//!    exactly `routed()` for every routing × shard-ingest combination,
//!    shard count and batch size;
//! 2. **report agreement** — the stats snapshot taken at an epoch
//!    boundary matches the merged engine's own accounting: `routed ==
//!    merged.stream_len()`, and the engine-level `IngestStats` of the
//!    shard workers agree with the shard counters.
//!
//! Both are *exact* equalities, not bounds: telemetry rides the same
//! FIFO channels as the data, so there is no window for drift at a
//! boundary.

use proptest::prelude::*;

use hh::pipeline::{PipelineConfig, Routing, ShardIngest};
use hh::prelude::*;

const M: usize = 64;

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

/// Deterministic skewed stream: item `i ∈ 1..=150` occurs
/// `seed % 7 + 1200/i` times, shuffled by `seed`.
fn skewed_stream(seed: u64) -> Vec<u64> {
    let counts: Vec<u64> = (1..=150u64).map(|i| seed % 7 + 1200 / i).collect();
    hh::streamgen::zipf::stream_from_counts(
        &counts,
        hh::streamgen::zipf::StreamOrder::Shuffled(seed),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: after an epoch boundary, the per-shard worker counters
    /// account for every routed item exactly — under every routing and
    /// ingest mode, any shard count, any batch size (including batch=1,
    /// which ships per item, and batches larger than the stream).
    #[test]
    fn shard_counters_conserve_routed_items(
        seed in 0u64..1000,
        shards in 1usize..6,
        batch in 1usize..500,
        routing_hash in 0u8..2,
        aggregate in 0u8..2,
    ) {
        let routing = if routing_hash == 1 { Routing::HashPartition } else { Routing::RoundRobin };
        let ingest = if aggregate == 1 { ShardIngest::Aggregate } else { ShardIngest::Preserve };
        let stream = skewed_stream(seed);

        let mut p = ss_pipeline(shards, routing, ingest, batch);
        p.send_batch(&stream).expect("shards alive");
        p.snapshots().expect("epoch query");

        let stats = p.stats();
        prop_assert_eq!(stats.routed, stream.len() as u64);
        prop_assert_eq!(stats.shipped(), stats.routed, "boundary implies flushed");
        let ingested: u64 = stats.shards.iter().map(|s| s.items_ingested).sum();
        prop_assert_eq!(
            ingested, stats.routed,
            "routing={:?} ingest={:?} shards={} batch={}",
            routing, ingest, shards, batch
        );
        for shard in &stats.shards {
            prop_assert_eq!(shard.queue_depth, 0, "shard {} drained", shard.shard);
            prop_assert_eq!(shard.items_ingested, shard.routed_items);
        }
        prop_assert!(stats.imbalance >= 1.0 - 1e-12);
        prop_assert!(stats.imbalance <= shards as f64 + 1e-12);
        p.finish().expect("clean shutdown");
    }

    /// Property 2: the stats snapshot at an epoch boundary agrees with
    /// the merged engine's own stream accounting, and the shard engines'
    /// `IngestStats` (engine-level occurrence counters) match the
    /// pipeline's shard telemetry.
    #[test]
    fn boundary_stats_agree_with_merged_report(
        seed in 0u64..1000,
        shards in 1usize..5,
        batch in 1usize..300,
        aggregate in 0u8..2,
    ) {
        let ingest = if aggregate == 1 { ShardIngest::Aggregate } else { ShardIngest::Preserve };
        let stream = skewed_stream(seed);
        let cut = stream.len() / 3;

        let mut p = ss_pipeline(shards, Routing::HashPartition, ingest, batch);
        p.send_batch(&stream[..cut]).expect("shards alive");
        let live = p.merged().expect("live query");
        let mid = p.stats();
        prop_assert_eq!(live.stream_len(), mid.routed);
        prop_assert_eq!(mid.epochs, 1);
        prop_assert_eq!(mid.snapshot_ns.count, 1);
        prop_assert_eq!(mid.merge_ns.count, 1);

        p.send_batch(&stream[cut..]).expect("shards alive");
        let stats_routed = {
            p.snapshots().expect("epoch query");
            p.stats().routed
        };
        let engines = p.finish_shards().expect("clean shutdown");
        prop_assert_eq!(stats_routed, stream.len() as u64);

        // Engine-level IngestStats: in Preserve mode every occurrence
        // arrives via update_batch, in Aggregate mode via update_by — the
        // occurrence totals must match the stream either way.
        let occurrences: u64 = engines.iter().map(|e| e.ingest_stats().occurrences).sum();
        prop_assert_eq!(occurrences, stream.len() as u64);
        let stream_len: u64 = engines.iter().map(|e| e.stream_len()).sum();
        prop_assert_eq!(stream_len, stream.len() as u64);
    }
}

/// The registry exposition stays well-formed under live concurrent use:
/// Prometheus text parses line-by-line, JSON parses with serde_json, and
/// both carry every expected metric family.
#[test]
fn registry_exposition_is_wellformed() {
    let mut p = ss_pipeline(3, Routing::HashPartition, ShardIngest::Aggregate, 64);
    p.send_batch(&skewed_stream(5)).expect("shards alive");
    p.merged().expect("epoch query");

    let text = p.registry().to_prometheus();
    for line in text.lines() {
        assert!(
            line.starts_with("# ") || line.rsplit_once(' ').is_some(),
            "unparseable exposition line: {line:?}"
        );
    }
    let json: serde_json::Value =
        serde_json::from_str(&p.registry().to_json()).expect("registry JSON parses");
    let metrics = json["metrics"].as_array().expect("metrics array");
    for family in [
        "hh_pipeline_shard_items_total",
        "hh_pipeline_shard_routed_total",
        "hh_pipeline_shard_queue_depth",
        "hh_pipeline_send_block_ns",
        "hh_pipeline_snapshot_ns",
        "hh_pipeline_merge_ns",
        "hh_pipeline_epochs_total",
    ] {
        assert!(
            metrics.iter().any(|m| m["name"] == family),
            "family {family} missing from JSON exposition"
        );
    }
    p.finish().expect("clean shutdown");
}

/// Engine ingest counters are path-independent: the same multiset fed
/// through `update`, `update_by`, `update_batch` and the
/// `FrequencyEstimator` trait surface counts identical occurrences.
#[test]
fn engine_ingest_stats_count_every_path() {
    let build = || {
        EngineConfig::new(AlgoKind::SpaceSaving)
            .counters(16)
            .build::<u64>()
            .expect("valid config")
    };

    let mut direct = build();
    for i in 0..100u64 {
        direct.update(i % 9);
    }
    direct.update_by(3, 50);
    direct.update_batch(&(0..100u64).map(|i| i % 11).collect::<Vec<_>>());
    for chunk in [&[1u64, 2][..], &[3][..]] {
        direct.update_batch(chunk);
    }
    let stats = direct.ingest_stats();
    assert_eq!(stats.occurrences, 100 + 50 + 100 + 3);
    assert_eq!(stats.calls, 101);
    assert_eq!(stats.batches, 3);
    assert_eq!(direct.stream_len(), stats.occurrences);

    // the trait surface must count identically (it routes through the
    // same inherent methods)
    let mut via_trait = build();
    {
        let est: &mut dyn FrequencyEstimator<u64> = &mut via_trait;
        for i in 0..100u64 {
            est.update(i % 9);
        }
        est.update_by(3, 50);
        est.update_batch(&(0..100u64).map(|i| i % 11).collect::<Vec<_>>());
        for chunk in [&[1u64, 2][..], &[3][..]] {
            est.update_batch(chunk);
        }
    }
    assert_eq!(via_trait.ingest_stats(), stats);

    // merges and rehydration do NOT count as local ingest
    let mut merged = build();
    merged.merge(&direct).expect("same config");
    assert_eq!(merged.ingest_stats().occurrences, 0);
    let rehydrated = Engine::<u64>::from_snapshot(direct.snapshot()).expect("round-trip");
    assert_eq!(rehydrated.ingest_stats().occurrences, 0);
    assert_eq!(rehydrated.stream_len(), direct.stream_len());
}
