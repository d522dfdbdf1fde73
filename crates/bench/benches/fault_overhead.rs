//! Fault-injection-overhead benchmark: the cost of the `hh-fault`
//! hooks left in the ingest hot path.
//!
//! The crash-safety layer threads named fault points through the shard
//! workers and the I/O paths. Without the `fault-injection` feature the
//! hooks compile to empty inline functions, so the acceptance bar is
//! ~0% update-throughput overhead. The hooked path is the per-item
//! SPACESAVING update loop with a `fault_point` call before every
//! update — one hook per item, the most pessimistic placement the
//! pipeline ever uses (the real shard loop hooks once per *batch*).
//! `bench_regression_check`'s `fault_overhead` gate measures the same
//! pair as a same-run ratio.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hh::prelude::*;
use hh_streamgen::zipf::{stream_from_counts, StreamOrder};
use hh_streamgen::{exact_zipf_counts, Item};

fn workload() -> Vec<Item> {
    // Identical to crates/bench/benches/throughput.rs — the per-item
    // SPACESAVING sentinel workload.
    let counts = exact_zipf_counts(20_000, 200_000, 1.2);
    stream_from_counts(&counts, StreamOrder::Shuffled(1))
}

fn bench_fault_overhead(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("fault_overhead");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(20);

    let budget = 256usize;
    group.bench_with_input(
        BenchmarkId::new("raw/SpaceSaving/update", budget),
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
        BenchmarkId::new("hooked/SpaceSaving/update", budget),
        &budget,
        |b, &m| {
            b.iter(|| {
                let mut s = SpaceSaving::new(m);
                for &x in &stream {
                    hh::fault::fault_point(hh::fault::sites::SHARD_BATCH);
                    s.update(x);
                }
                std::hint::black_box(s.stored_len())
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_fault_overhead);
criterion_main!(benches);
