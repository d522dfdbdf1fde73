//! Engine-overhead benchmark: the cost of the `hh::engine` dispatch
//! layer (a `match` over the engine's closed backend enum, plus its
//! ingest accounting) versus calling the concrete backend directly.
//!
//! The acceptance bar for the engine façade is a ≤ 5% update-throughput
//! regression. Both the per-item `update` loop (one dispatch per
//! element) and the batched `update_batch` path (one dispatch per slice,
//! the production ingest path) are measured against direct
//! `SpaceSaving` and `Frequent` calls at the same budgets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hh::engine::{AlgoKind, EngineConfig};
use hh::prelude::*;
use hh_streamgen::zipf::{stream_from_counts, StreamOrder};
use hh_streamgen::{exact_zipf_counts, Item};

fn workload() -> Vec<Item> {
    let counts = exact_zipf_counts(20_000, 200_000, 1.2);
    stream_from_counts(&counts, StreamOrder::Shuffled(1))
}

fn bench_engine_overhead(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("engine_overhead");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(20);

    for &budget in &[256usize, 1024] {
        // --- SPACESAVING ------------------------------------------------
        group.bench_with_input(
            BenchmarkId::new("direct/SpaceSaving/update", budget),
            &budget,
            |b, &m| {
                b.iter(|| {
                    let mut s = SpaceSaving::new(m);
                    for &x in &stream {
                        s.update(x);
                    }
                    std::hint::black_box(s.stored_len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine/SpaceSaving/update", budget),
            &budget,
            |b, &m| {
                b.iter(|| {
                    let mut e = EngineConfig::new(AlgoKind::SpaceSaving)
                        .counters(m)
                        .build::<Item>()
                        .unwrap();
                    for &x in &stream {
                        e.update(x);
                    }
                    std::hint::black_box(e.stored_len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("direct/SpaceSaving/update_batch", budget),
            &budget,
            |b, &m| {
                b.iter(|| {
                    let mut s = SpaceSaving::new(m);
                    s.update_batch(&stream);
                    std::hint::black_box(s.stored_len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine/SpaceSaving/update_batch", budget),
            &budget,
            |b, &m| {
                b.iter(|| {
                    let mut e = EngineConfig::new(AlgoKind::SpaceSaving)
                        .counters(m)
                        .build::<Item>()
                        .unwrap();
                    e.update_batch(&stream);
                    std::hint::black_box(e.stored_len())
                });
            },
        );

        // --- FREQUENT ---------------------------------------------------
        group.bench_with_input(
            BenchmarkId::new("direct/Frequent/update_batch", budget),
            &budget,
            |b, &m| {
                b.iter(|| {
                    let mut s = Frequent::new(m);
                    s.update_batch(&stream);
                    std::hint::black_box(s.stored_len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine/Frequent/update_batch", budget),
            &budget,
            |b, &m| {
                b.iter(|| {
                    let mut e = EngineConfig::new(AlgoKind::Frequent)
                        .counters(m)
                        .build::<Item>()
                        .unwrap();
                    e.update_batch(&stream);
                    std::hint::black_box(e.stored_len())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_overhead);
criterion_main!(benches);
