//! Weighted ingest: `Engine::update_by` with packet sizes as whole-byte
//! units (`WeightedStream::packet_trace`: Zipf 1.1 over 5,000 flows,
//! LogNormal(6, 1.5) sizes), on weighted SpaceSaving and Frequent
//! engines at m = 256 and 4096. A weight is one `update_by`, so this is
//! the per-line engine cost of `hh topk --weighted`. Ungated: it records
//! the weighted update cost, and no ratio of it guards a floor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hh::prelude::*;
use hh::streamgen::WeightedStream;

fn bench_weighted_update(c: &mut Criterion) {
    let trace = WeightedStream::packet_trace(5_000, 200_000, 1.1, 6.0, 1.5, 2024);
    let mut group = c.benchmark_group("weighted_update");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.sample_size(20);
    for algo in [AlgoKind::SpaceSaving, AlgoKind::Frequent] {
        for m in [256usize, 4096] {
            let config = EngineConfig::new(algo).counters(m);
            group.bench_with_input(BenchmarkId::new(algo.name(), m), &m, |b, _| {
                b.iter(|| {
                    let engine = config.build::<u64>().expect("valid config");
                    let mut engine = engine.into_weighted().expect("counts weights");
                    for &(flow, bytes) in &trace.updates {
                        engine.update_by(flow, bytes);
                    }
                    std::hint::black_box(engine.stream_len())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_weighted_update);
criterion_main!(benches);
