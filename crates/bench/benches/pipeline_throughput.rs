//! Sharded-pipeline ingest throughput: `hh::pipeline` at 1/2/4/8 shards
//! against single-thread engine ingest.
//!
//! The workload is hot-set saturation traffic — 1024 distinct items hit
//! near-uniformly, four times the m = 256 counter budget — the regime
//! sharding is built for. A single order-exact engine churns (most
//! arrivals miss the table and evict), and it may *not* reorder its
//! input, because its contract is bit-equality with the sequential
//! algorithm. The pipeline's contract is the Theorem 11 merged
//! guarantee, which is partition- and order-oblivious, so it may
//! hash-partition the universe across shards (each shard's slice then
//! fits its private table — churn vanishes) and pre-aggregate each
//! routed batch to one weighted update per distinct item. Those two
//! effects are why the pipeline wins even time-shared on a single core;
//! on a multi-core host the per-shard work additionally runs in
//! parallel.
//!
//! `bench_regression_check`'s `pipeline_4` gate measures the 4-shard
//! pipeline against one `Engine::update_batch` as a same-run ratio.
//!
//! A second, ungated group (`text_items`) runs the same traffic as text
//! through a 2-shard pipeline, `String` items against [`Key`] items, at
//! 7-byte keys (stored inline in a `Key`) and 40-byte keys (boxed in
//! both): what an allocation per routed, aggregated and inserted item
//! costs, and that the boxed `Key` path is no slower than `String`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hh::pipeline::PipelineConfig;
use hh::prelude::*;
use hh_streamgen::zipf::{stream_from_counts, StreamOrder};
use hh_streamgen::{exact_zipf_counts, Item};

/// Kept in sync with `bench_regression_check`'s hot-set stream.
const DISTINCT: usize = 1024;
const TOTAL: u64 = 1_000_000;
const ALPHA: f64 = 0.1;
const M: usize = 256;
/// Throughput-oriented batch: 32 Ki items per routed batch keeps channel
/// hops and (on a single core) context switches amortized; a
/// latency-sensitive deployment would run the 8 Ki default instead.
const BATCH: usize = 32 * 1024;

fn workload() -> Vec<Item> {
    let counts = exact_zipf_counts(DISTINCT, TOTAL, ALPHA);
    stream_from_counts(&counts, StreamOrder::Shuffled(1))
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(AlgoKind::SpaceSaving).counters(M)
}

fn bench_pipeline_throughput(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("pipeline_throughput");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    group.bench_with_input(
        BenchmarkId::new("single_thread", "per_item"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut engine = engine_config().build::<Item>().expect("valid config");
                for &x in &stream {
                    engine.update(x);
                }
                std::hint::black_box(engine.stream_len())
            });
        },
    );

    group.bench_with_input(
        BenchmarkId::new("single_thread", "batched"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut engine = engine_config().build::<Item>().expect("valid config");
                engine.update_batch(&stream);
                std::hint::black_box(engine.stream_len())
            });
        },
    );

    for &shards in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("pipeline", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut pipeline = PipelineConfig::new(engine_config())
                        .shards(shards)
                        .batch_size(BATCH)
                        .spawn::<Item>()
                        .expect("valid config");
                    pipeline.send_batch(&stream).expect("shards alive");
                    let merged = pipeline.finish().expect("clean shutdown");
                    std::hint::black_box(merged.stream_len())
                });
            },
        );
    }
    group.finish();
}

/// The hot-set stream as text keys of exactly `width` bytes.
fn text_keys(stream: &[Item], width: usize) -> Vec<String> {
    stream.iter().map(|x| format!("{x:0>width$}")).collect()
}

fn pipeline_run<I: hh::engine::EngineItem>(items: &[I]) -> u64 {
    let mut pipeline = PipelineConfig::new(engine_config())
        .shards(2)
        .batch_size(BATCH)
        .spawn::<I>()
        .expect("valid config");
    pipeline.send_batch(items).expect("shards alive");
    pipeline.finish().expect("clean shutdown").stream_len()
}

fn bench_text_items(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("text_items");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);
    for width in [7usize, 40] {
        let strings = text_keys(&stream, width);
        let keys: Vec<Key> = strings.iter().map(|s| Key::from(s.as_str())).collect();
        group.bench_with_input(BenchmarkId::new("string", width), &(), |b, ()| {
            b.iter(|| std::hint::black_box(pipeline_run(&strings)));
        });
        group.bench_with_input(BenchmarkId::new("key", width), &(), |b, ()| {
            b.iter(|| std::hint::black_box(pipeline_run(&keys)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline_throughput, bench_text_items);
criterion_main!(benches);
