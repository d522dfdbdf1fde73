//! Throughput benchmarks: updates/second for every Table 1 algorithm as a
//! function of the space budget.
//!
//! This backs the paper's practical claim that counter algorithms carry
//! "small constants of proportionality" compared to sketches: a SPACESAVING
//! update touches one hash map entry and two bucket links, while a Count-Min
//! update writes `d` cells across `d` cache lines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hh_analysis::{make_estimator, Algo};
use hh_streamgen::zipf::{stream_from_counts, StreamOrder};
use hh_streamgen::{exact_zipf_counts, Item};

fn workload() -> Vec<Item> {
    let counts = exact_zipf_counts(20_000, 200_000, 1.2);
    stream_from_counts(&counts, StreamOrder::Shuffled(1))
}

fn bench_updates(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("updates_per_sec");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    for algo in Algo::ALL {
        for &budget in &[64usize, 256, 1024] {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), budget),
                &budget,
                |b, &budget| {
                    b.iter(|| {
                        let mut est = make_estimator(algo, budget, 7);
                        for &x in &stream {
                            est.update(x);
                        }
                        std::hint::black_box(est.stored_len())
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_updates_batched(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("updates_per_sec_batched");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    for algo in Algo::ALL {
        for &budget in &[64usize, 256, 1024] {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), budget),
                &budget,
                |b, &budget| {
                    b.iter(|| {
                        let mut est = make_estimator(algo, budget, 7);
                        est.update_batch(&stream);
                        std::hint::black_box(est.stored_len())
                    });
                },
            );
        }
    }
    group.finish();
}

/// The chunked driver shape: the same stream fed as 8192-element
/// chunks, one `update_batch` each, as a buffered reader (the CLI) or a
/// shard worker would deliver it. Overhead versus one whole-stream
/// `update_batch` should be noise.
fn bench_updates_chunked(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("updates_per_sec_chunked");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    for algo in [Algo::SpaceSaving, Algo::Frequent, Algo::CountMin] {
        for &budget in &[64usize, 256] {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), budget),
                &budget,
                |b, &budget| {
                    b.iter(|| {
                        let mut est = make_estimator(algo, budget, 7);
                        hh_analysis::feed_chunked(est.as_mut(), &stream, 8192);
                        std::hint::black_box(est.stored_len())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_updates,
    bench_updates_batched,
    bench_updates_chunked
);
criterion_main!(benches);
