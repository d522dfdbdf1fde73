//! Observability-overhead benchmark: the cost of the always-on ingest
//! telemetry added for `hh::obs`.
//!
//! The acceptance bar is ≤ 2% update-throughput overhead on the batched
//! SPACESAVING sentinel. The instrumented path is `Engine::update_batch`
//! (which maintains the plain-`u64` `IngestStats` counters on every
//! ingest call); the raw path is the concrete `SpaceSaving::update_batch`
//! with no counters at all. Both run the throughput-bench workload at
//! 256 counters; `bench_regression_check`'s `obs_overhead` gate
//! measures the same pair as a same-run ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hh::engine::{AlgoKind, EngineConfig};
use hh::prelude::*;
use hh_streamgen::zipf::{stream_from_counts, StreamOrder};
use hh_streamgen::{exact_zipf_counts, Item};

fn workload() -> Vec<Item> {
    // Identical to crates/bench/benches/throughput.rs — the batched
    // SPACESAVING sentinel workload.
    let counts = exact_zipf_counts(20_000, 200_000, 1.2);
    stream_from_counts(&counts, StreamOrder::Shuffled(1))
}

fn bench_obs_overhead(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(20);

    let budget = 256usize;
    group.bench_with_input(
        BenchmarkId::new("raw/SpaceSaving/update_batch", budget),
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
        BenchmarkId::new("instrumented/Engine/update_batch", budget),
        &budget,
        |b, &m| {
            b.iter(|| {
                let mut e = EngineConfig::new(AlgoKind::SpaceSaving)
                    .counters(m)
                    .build::<Item>()
                    .unwrap();
                e.update_batch(&stream);
                std::hint::black_box(e.ingest_stats().occurrences)
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
