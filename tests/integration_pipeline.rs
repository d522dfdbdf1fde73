//! Soundness and conformance for the sharded `hh::pipeline` service.
//!
//! The pipeline runs one shard policy — hash partition, per-batch
//! aggregation — and three properties must hold for any shard count,
//! batch size and channel interleaving:
//!
//! 1. **Theorem 11 soundness** — the pipeline's merged view stays within
//!    the merged `(3A, A+B)` k-tail bound of ground truth (the merge
//!    guarantee never conditions on partition or arrival order);
//! 2. **sequential conformance** — every shard equals, bit for bit, a
//!    sequential summary fed its `hash_shard` partition as consecutive
//!    batch-sized chunks, each aggregated to one `update_by` per distinct
//!    item in first-occurrence order;
//! 3. **determinism** — the pipeline's output is a pure function of its
//!    input sequence and configuration; OS thread scheduling never leaks
//!    into results.

use proptest::collection::vec;
use proptest::prelude::*;

use hh::engine::ReportEntry;
use hh::net::checkpoint::{self, Checkpoint};
use hh::pipeline::{hash_shard, PipelineConfig, ShardedView};
use hh::prelude::*;
use hh::streamgen::exact_zipf_counts;
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

const M: usize = 64;
const K: usize = 6;

fn ss_pipeline(shards: usize, batch: usize) -> Pipeline<u64> {
    PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
        .shards(shards)
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

/// Feeds `chunk` to `summary` the way a shard worker consumes a batch:
/// one `update_by` per distinct item with its count in the chunk, items
/// in order of first occurrence.
fn feed_aggregated(summary: &mut SpaceSaving<u64>, chunk: &[u64]) {
    let mut distinct: Vec<(u64, u64)> = Vec::new();
    for &x in chunk {
        match distinct.iter_mut().find(|(item, _)| *item == x) {
            Some((_, count)) => *count += 1,
            None => distinct.push((x, 1)),
        }
    }
    for (item, count) in distinct {
        summary.update_by(item, count);
    }
}

/// The exact per-shard oracle: each segment of the stream (the whole
/// stream, or the two sides of an epoch query's flush at `cut`) is
/// partitioned by `hash_shard`, and each shard's part is fed in
/// consecutive `batch`-item chunks through [`feed_aggregated`]. The
/// flush ships every open chunk, so chunking restarts after `cut`.
fn sequential_shards(
    stream: &[u64],
    shards: usize,
    batch: usize,
    cut: Option<usize>,
) -> Vec<SpaceSaving<u64>> {
    let segments = match cut {
        Some(cut) => vec![&stream[..cut], &stream[cut..]],
        None => vec![stream],
    };
    let mut summaries: Vec<_> = (0..shards).map(|_| SpaceSaving::new(M)).collect();
    for segment in segments {
        let mut parts = vec![Vec::new(); shards];
        for &x in segment {
            parts[hash_shard(shards, &x)].push(x);
        }
        for (summary, part) in summaries.iter_mut().zip(&parts) {
            for chunk in part.chunks(batch) {
                feed_aggregated(summary, chunk);
            }
        }
    }
    summaries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property 1: pipeline estimates stay within the merged tail bound
    /// for random shard counts and batch sizes. The batch size
    /// randomizes how arrivals interleave into per-shard channel
    /// messages and how much each batch aggregates.
    #[test]
    fn pipeline_respects_the_merged_tail_bound(
        seed in 0u64..1000,
        shards in 1usize..6,
        batch in 1usize..400,
    ) {
        let stream = skewed_stream(seed);
        let oracle = ExactCounter::from_stream(&stream);
        let bound = merged_bound(&stream);

        let mut p = ss_pipeline(shards, batch);
        p.send_batch(&stream).expect("shards alive");
        let merged = p.finish().expect("clean shutdown");

        prop_assert_eq!(merged.stream_len(), stream.len() as u64);
        for item in 1..=200u64 {
            let err = oracle.count(&item).abs_diff(merged.estimate(&item));
            prop_assert!(
                err as f64 <= bound + 1e-9,
                "shards={} batch={} item={}: err {} > bound {}",
                shards, batch, item, err, bound
            );
        }
    }

    /// Property 2: every shard is exactly its sequential oracle — shard
    /// `j` from `finish_shards()` equals `SpaceSaving::new(M)` fed
    /// partition `j` as aggregated `batch`-item chunks, entries and
    /// stream length alike. With `mid_query`, a `snapshots()` call at
    /// `cut` flushes every shard's open chunk early.
    #[test]
    fn shards_equal_sequential_aggregated_summaries(
        seed in 0u64..1000,
        shards in 1usize..6,
        batch in 1usize..300,
        mid_query in 0u8..2,
        cut_permille in 0usize..=1000,
    ) {
        let stream = skewed_stream(seed);
        let cut = (mid_query == 1).then_some(stream.len() * cut_permille / 1000);

        let mut p = ss_pipeline(shards, batch);
        match cut {
            Some(cut) => {
                p.send_batch(&stream[..cut]).expect("shards alive");
                p.snapshots().expect("epoch query");
                p.send_batch(&stream[cut..]).expect("shards alive");
            }
            None => p.send_batch(&stream).expect("shards alive"),
        }
        let engines = p.finish_shards().expect("clean shutdown");

        let oracle = sequential_shards(&stream, shards, batch, cut);
        prop_assert_eq!(engines.len(), shards);
        for (engine, sequential) in engines.iter().zip(&oracle) {
            prop_assert_eq!(engine.entries(), sequential.entries());
            prop_assert_eq!(engine.stream_len(), sequential.stream_len());
        }
    }

    /// Property 3: repeated runs over the same input and configuration
    /// are bit-identical — thread scheduling and channel timing never
    /// reach the results. A mid-stream epoch query never changes any
    /// estimate: the flush it forces moves batch boundaries, which may
    /// permute ties (the stream keeps fewer distinct items than `M`, so
    /// every summary is exact and only tie order can move).
    #[test]
    fn pipeline_results_are_deterministic(
        stream in vec(1u64..50, 1..2_000),
        shards in 1usize..5,
        batch in 1usize..200,
        query_at in 0usize..2_000,
    ) {
        let run = |mid_query: bool| {
            let mut p = ss_pipeline(shards, batch);
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
        let sorted = |e: &Engine<u64>| {
            let mut v = e.entries();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(sorted(&first), sorted(&with_query));
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
        let mut p = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
            .shards(shards)
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
                "shards={shards} item={item}: {err} > {bound}"
            );
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

/// The merged engine as it was built before `merged()` and `finish()`
/// shared one fold, kept as the reference: every shard's snapshot
/// rehydrated and folded through `Engine::merge_snapshot`, then widened
/// by the lost and unobserved mass.
fn snapshot_fold(snapshots: Vec<Snapshot<u64>>, lost: u64) -> Engine<u64> {
    let mut snapshots = snapshots.into_iter();
    let first = snapshots.next().expect("at least one shard");
    let mut merged = Engine::from_snapshot(first).expect("valid snapshot");
    for snap in snapshots {
        merged.merge_snapshot(&snap).expect("same config");
    }
    merged.add_unobserved(lost);
    merged
}

/// Asserts two engines hold the same summary: totals, the stored
/// entries, and every item's estimate and interval. Entries compare as
/// a set: rehydrating a snapshot may reorder LossyCounting's ties.
fn assert_same_summary(got: &Engine<u64>, want: &Engine<u64>, case: &str) {
    let stored = |engine: &Engine<u64>| {
        let mut entries = engine.entries();
        entries.sort_unstable();
        entries
    };
    assert_eq!(got.stream_len(), want.stream_len(), "{case}");
    assert_eq!(got.unobserved(), want.unobserved(), "{case}");
    assert_eq!(stored(got), stored(want), "{case}");
    let (got, want) = (got.report(), want.report());
    for x in 0..240u64 {
        assert_eq!(got.entry(&x), want.entry(&x), "{case}: item {x}");
    }
}

/// `merged()` and `finish()` replay the shards into exactly the engine
/// the snapshot fold builds, for every unweighted backend at 1–8
/// shards; every other case resumes with unobserved mass, which both
/// must carry.
#[test]
fn merged_and_finish_equal_the_snapshot_fold() {
    for (a, algo) in AlgoKind::ALL.into_iter().enumerate() {
        for shards in 1..=8usize {
            let seed = (a * 8 + shards) as u64;
            let config = PipelineConfig::new(EngineConfig::new(algo).counters(M).seed(seed))
                .shards(shards)
                .batch_size(256);
            let stream = skewed_stream(seed);
            let (head, tail) = stream.split_at(stream.len() / 3);
            let mut p = if seed % 2 == 1 {
                let mut first = config.spawn::<u64>().expect("valid config");
                first.send_batch(head).expect("shards alive");
                let snapshots = first.snapshots().expect("epoch");
                first.finish().expect("clean shutdown");
                config.resume(snapshots, seed % 7 + 1).expect("same config")
            } else {
                let mut p = config.spawn::<u64>().expect("valid config");
                p.send_batch(head).expect("shards alive");
                p
            };
            p.send_batch(tail).expect("shards alive");
            let want = snapshot_fold(p.snapshots().expect("epoch"), p.lost_items());
            let case = format!("{algo} × {shards} shards");
            let merged = p.merged().expect("epoch");
            assert_same_summary(&merged, &want, &format!("{case}: merged()"));
            let finished = p.finish().expect("clean shutdown");
            assert_same_summary(&finished, &want, &format!("{case}: finish()"));
        }
    }
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hh-pipeline-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn path_in(dir: &std::path::Path, name: &str) -> String {
    dir.join(name)
        .to_str()
        .expect("UTF-8 temp path")
        .to_string()
}

/// What a report answers: the total and every stored row with its
/// interval, largest first.
fn answers(report: Report<'_, u64>) -> (u64, Vec<ReportEntry<u64>>) {
    (report.total(), report.top_k(usize::MAX))
}

/// The answers an offline reader (`hh topk --snapshot-in`, `hh merge`)
/// gives for `paths`: the shards `checkpoint::load_shards` reads, through
/// a `ShardedView` with no lost mass.
fn offline_answers(paths: &[String]) -> (usize, (u64, Vec<ReportEntry<u64>>)) {
    let ckpt = checkpoint::load_shards::<u64>(paths).expect("readable checkpoints");
    let shards: Vec<Engine<u64>> = ckpt
        .shards
        .into_iter()
        .map(|snap| Engine::from_snapshot(snap).expect("valid snapshot"))
        .collect();
    let lost = vec![0; shards.len()];
    let view = ShardedView::new(&shards, &lost, ckpt.unobserved).expect("one mass per shard");
    (shards.len(), answers(view.report()))
}

/// Serves `stream` through a `ServeSession` under `opts` (which must set
/// a `snapshot_out`), and returns the final record's answers, read from
/// the session's view at the drain as `hh serve` reads them.
fn served_answers(opts: &ServeOptions, stream: &[u64]) -> (u64, Vec<ReportEntry<u64>>) {
    let mut session = ServeSession::<u64>::spawn(opts).expect("valid options");
    for &x in stream {
        session.send(x).expect("shards alive");
    }
    let served = answers(session.view().expect("epoch").report());
    session.finish().expect("clean drain");
    served
}

/// An offline read of a drain checkpoint answers as the session did: for
/// every backend at 1–8 shards, with no shard lost, the shards read back
/// give the served final record's `stream_len`, rows and intervals, tied
/// rows in the same order.
/// Every third case first resumes from a checkpoint of no shards that
/// carries unobserved mass, which both answers charge.
#[test]
fn an_offline_read_of_a_drain_equals_the_served_final_record() {
    let dir = scratch("drain");
    let empty = path_in(&dir, "empty.ckpt");
    let unobserved = 5;
    let shards = Vec::new();
    checkpoint::write(&empty, &Checkpoint::<u64> { shards, unobserved }).expect("write");
    let loaded = checkpoint::load_shards::<u64>(std::slice::from_ref(&empty)).expect("load");
    assert_eq!((loaded.shards.len(), loaded.unobserved), (0, unobserved));
    for (a, algo) in AlgoKind::ALL.into_iter().enumerate() {
        for shards in 1..=8usize {
            let seed = (a * 8 + shards) as u64;
            let case = format!("{algo} × {shards} shards");
            let drain = path_in(&dir, &format!("{algo}-{shards}.ckpt"));
            let opts = ServeOptions::new(EngineConfig::new(algo).counters(M).seed(seed))
                .shards(Some(shards))
                .batch_size(256)
                .snapshot_in(seed.is_multiple_of(3).then(|| empty.clone()))
                .snapshot_out(Some(drain.clone()));
            let served = served_answers(&opts, &skewed_stream(seed));
            let (read, offline) = offline_answers(&[drain]);
            assert_eq!(read, shards, "{case}: the drain reads back shard by shard");
            assert_eq!(offline, served, "{case}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `hh merge` of two runs' N-shard drains merges shard j into shard j:
/// the N shards it reads bracket the exact counts of both streams
/// together, and a session resumes them at N shards with the summed
/// `stream_len`.
#[test]
fn a_merge_of_two_drains_brackets_the_exact_counts_and_resumes() {
    let dir = scratch("merge");
    for (a, algo) in AlgoKind::ALL.into_iter().enumerate() {
        for shards in 1..=8usize {
            let seed = (a * 8 + shards) as u64;
            let case = format!("{algo} × {shards} shards");
            let config = EngineConfig::new(algo).counters(M).seed(seed);
            let runs = [skewed_stream(seed), skewed_stream(seed + 100)];
            let drains = runs.each_ref().map(|stream| {
                let drain = path_in(&dir, &format!("{algo}-{shards}-{}.ckpt", stream.len()));
                let opts = ServeOptions::new(config.clone())
                    .shards(Some(shards))
                    .snapshot_out(Some(drain.clone()));
                served_answers(&opts, stream);
                drain
            });
            let truth = ExactCounter::from_stream(&runs.concat());
            let (read, (total, rows)) = offline_answers(&drains);
            assert_eq!(read, shards, "{case}: merged shard by shard");
            assert_eq!(total, truth.total(), "{case}");
            assert!(!rows.is_empty(), "{case}");
            for row in rows {
                let f = truth.count(&row.item);
                assert!(
                    row.lower <= f && f <= row.upper,
                    "{case}: item {} [{}, {}] misses {f}",
                    row.item,
                    row.lower,
                    row.upper
                );
            }

            let merged = path_in(&dir, &format!("{algo}-{shards}-merged.ckpt"));
            let ckpt = checkpoint::load_shards::<u64>(&drains).expect("drains");
            checkpoint::write(&merged, &ckpt).expect("write");
            let resumed = ServeOptions::new(config).snapshot_in(Some(merged));
            let mut session = ServeSession::<u64>::spawn(&resumed).expect("resumes exactly");
            assert_eq!(session.pipeline().shards(), shards, "{case}");
            let total = session.view().expect("epoch").report().total();
            assert_eq!(total, truth.total(), "{case}");
            session.finish().expect("clean drain");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
