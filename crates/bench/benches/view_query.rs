//! Live-query cost on an idle server: one epoch crossing
//! (`Pipeline::view`) plus the `?topk 50` answer
//! (`hh::net::proto::top_json`) on a quiescent 2-shard SpaceSaving
//! `Pipeline<Key>`, at m = 256, 4096 and 50,000 counters per shard.
//!
//! Each pipeline is loaded with every one of 4m keys per shard twice, in
//! a strided order, so every shard table is full (the evictions leave
//! its counts uneven), and then left idle: a sample
//! measures what a query costs when no batch is in flight, which is the
//! epoch's engine copies and the top-50 read, not a backlog. Ungated: it
//! records how the query cost grows with m, and no ratio of it guards a
//! floor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hh::net::proto::top_json;
use hh::pipeline::PipelineConfig;
use hh::prelude::*;

const SHARDS: usize = 2;
const K: usize = 50;

/// A quiescent pipeline with full `m`-counter shard tables.
fn loaded(m: usize) -> Pipeline<Key> {
    let mut pipeline = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(m))
        .shards(SHARDS)
        .spawn::<Key>()
        .expect("valid pipeline config");
    let ids = (4 * m * SHARDS) as u64;
    for i in 0..2 * ids {
        // An odd stride is coprime with `ids` at every m here, so each id
        // is sent exactly twice.
        let id = i.wrapping_mul(0x9e37_79b9) % ids;
        pipeline
            .send(Key::from(format!("user:{id}").as_str()))
            .expect("shards alive");
    }
    // One epoch applies everything, so every sample finds the shards idle.
    pipeline.view().expect("epoch");
    pipeline
}

fn bench_view_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("view_query");
    group.sample_size(31);
    for m in [256usize, 4096, 50_000] {
        let mut pipeline = loaded(m);
        group.bench_with_input(BenchmarkId::new("view_top50", m), &m, |b, _| {
            b.iter(|| {
                let view = pipeline.view().expect("epoch");
                top_json(view.report(), K).expect("JSON text")
            });
        });
        pipeline.finish().expect("clean drain");
    }
    group.finish();
}

criterion_group!(benches, bench_view_query);
criterion_main!(benches);
