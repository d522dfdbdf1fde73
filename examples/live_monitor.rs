//! Live flash-crowd monitoring on the sharded `hh::pipeline` service —
//! with the runtime telemetry panel from `hh::obs`.
//!
//! A dashboard-style loop over a long-lived concurrent pipeline: four
//! worker shards each own a SPACESAVING engine and ingest a
//! hash-partitioned Zipf stream through bounded channels. Every few
//! thousand arrivals the coordinator takes an epoch-boundary query —
//! `Pipeline::view`, where each item's certified `(lower, upper)`
//! interval comes from the shard that owns it — and watches a flash
//! crowd burst into the ranking mid-stream. Next to each top-k line,
//! `Pipeline::stats()` drives a per-shard operations panel: items
//! ingested, ingest rate, queue depth, send-block and view-assembly
//! latency quantiles, and the routing imbalance ratio. At the end the
//! pipeline is drained, the shards are merged into one engine (Theorem
//! 11), and that engine is checkpointed to JSON and restored
//! bit-identically (the machinery distributed deployments use).
//!
//! Run with: `cargo run -p hh --example live_monitor`

use std::time::Instant;

use hh::prelude::*;
use hh::streamgen::drift::{flash_crowd, flash_item};
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

const SHARDS: usize = 4;
const EPOCH_EVERY: usize = 6_000;
const TOP_K: usize = 5;

/// Render the per-shard operations panel for one epoch: counters are
/// exact here because `stats()` is taken at an epoch boundary (queues
/// drained by the checkpoint protocol).
fn print_shard_panel(stats: &PipelineStats, epoch_items: u64, epoch_secs: f64) {
    let rate = if epoch_secs > 0.0 {
        epoch_items as f64 / epoch_secs
    } else {
        0.0
    };
    println!(
        "    ops: {:>7.0} items/s | imbalance {:.2} | epoch p50 {} ns | epochs {}",
        rate, stats.imbalance, stats.snapshot_ns.p50, stats.epochs
    );
    println!(
        "    {:>6} {:>9} {:>9} {:>6} {:>16}",
        "shard", "items", "batches", "queue", "send p99 (ns)"
    );
    for shard in &stats.shards {
        println!(
            "    {:>6} {:>9} {:>9} {:>6} {:>16}",
            shard.shard,
            shard.items_ingested,
            shard.batches_ingested,
            shard.queue_depth,
            shard.send_block_ns.p99
        );
    }
}

fn main() {
    // Background: Zipf(1.3) traffic; a flash crowd bursts in at 70%.
    let counts = hh::streamgen::exact_zipf_counts(2_000, 40_000, 1.3);
    let background = stream_from_counts(&counts, StreamOrder::Shuffled(8));
    let stream = flash_crowd(&background, 0.7, 4_000, 15);

    // One EngineConfig describes every shard; the pipeline owns the
    // worker threads, channels and routing.
    let mut pipeline: Pipeline<u64> =
        PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(64))
            .shards(SHARDS)
            .batch_size(1_024)
            .spawn()
            .expect("valid pipeline config");

    println!(
        "ingesting {} arrivals across {SHARDS} shards; live top-{TOP_K} every {EPOCH_EVERY}:\n",
        stream.len()
    );
    let mut flash_seen_at = None;
    for chunk in stream.chunks(EPOCH_EVERY) {
        let epoch_started = Instant::now();
        pipeline.send_batch(chunk).expect("shards alive");

        // Epoch-boundary query: ingest keeps running, the view is
        // consistent with everything routed so far.
        let live = pipeline.view().expect("epoch view");
        let report = live.report();
        let (top, seen) = (report.top_k(TOP_K), report.total());
        print!("[epoch {:>2}, {seen:>6} items] top-{TOP_K}:", live.epoch());
        for entry in &top {
            print!(" {}({})", entry.item, entry.estimate);
        }
        if flash_seen_at.is_none() && top.iter().any(|e| e.item == flash_item()) {
            flash_seen_at = Some(seen);
            print!("   <-- FLASH CROWD detected");
        }
        println!();

        // Telemetry rides the same boundary: the per-shard counters are
        // exact, queues are drained, and the imbalance ratio reflects
        // the hash partition over everything routed so far.
        let stats = pipeline.stats();
        assert_eq!(stats.routed, seen, "boundary counters are exact");
        assert!(stats.shards.iter().all(|s| s.queue_depth == 0));
        print_shard_panel(
            &stats,
            chunk.len() as u64,
            epoch_started.elapsed().as_secs_f64(),
        );
    }

    let detected = flash_seen_at.expect("the flash crowd must enter the live top-5");
    println!(
        "\nflash item {} detected at ~{detected} items",
        flash_item()
    );

    // Drain the pipeline; the final merged engine answers every query.
    let final_stats = pipeline.stats();
    let merged = pipeline.finish().expect("clean shutdown");
    assert_eq!(merged.stream_len(), stream.len() as u64);
    assert_eq!(final_stats.routed, stream.len() as u64);
    println!("\nfinal top-{TOP_K} (with certified intervals):");
    for entry in merged.report().top_k(TOP_K) {
        let label = if entry.item == flash_item() {
            "  (the flash item)"
        } else {
            ""
        };
        println!(
            "  item {:<10} {:>7}  [{}..={}]{}",
            entry.item, entry.estimate, entry.lower, entry.upper, label
        );
    }
    assert!(
        merged
            .report()
            .top_k(TOP_K)
            .iter()
            .any(|e| e.item == flash_item()),
        "the flash item must end in the top-{TOP_K}"
    );
    println!(
        "\nlifetime telemetry: {} items over {} epochs, imbalance {:.2}, snapshot p99 {} ns",
        final_stats.routed, final_stats.epochs, final_stats.imbalance, final_stats.snapshot_ns.p99
    );

    // Checkpoint the merged engine and restore it — estimates identical.
    let json = merged.to_json();
    println!("\ncheckpoint: {} bytes of JSON", json.len());
    let restored: Engine<u64> = Engine::from_json(&json).expect("parse");
    for entry in merged.report().top_k(TOP_K) {
        assert_eq!(restored.estimate(&entry.item), entry.estimate);
    }
    println!("restored engine matches the live one ✓");
}
