//! Integration: the extension modules working together — snapshots over
//! the wire, sharding, continuous monitoring, drift workloads,
//! trace I/O and the φ-heavy-hitter query — i.e. the full life of a
//! deployed summary: shard → summarize → checkpoint → ship → merge →
//! query.

use hh::analysis::Algo;
use hh::counters::monitor::TopKMonitor;
use hh::counters::{spacesaving_heavy_hitters, Confidence};
use hh::prelude::*;
use hh::streamgen::drift::{drifting_zipf, flash_crowd, flash_item};
use hh::streamgen::generators::split;
use hh::streamgen::trace_io;
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

#[test]
fn full_distributed_lifecycle() {
    // 1. a global stream, dealt to 6 shards
    let counts = hh::streamgen::exact_zipf_counts(8_000, 120_000, 1.25);
    let stream = stream_from_counts(&counts, StreamOrder::Shuffled(55));
    let shards = split(&stream, 6);
    let m = 96;
    let k = 8;

    // 2. each shard summarizes through the engine façade; the portable
    //    snapshots cross "the network" as JSON
    let config = EngineConfig::new(AlgoKind::SpaceSaving).counters(m);
    let blobs: Vec<String> = shards
        .iter()
        .map(|shard| {
            let mut e = config.build::<u64>().expect("engine builds");
            e.update_batch(shard);
            e.to_json()
        })
        .collect();

    // 3. coordinator rehydrates engines and merges them k-sparsely —
    //    Engine implements FrequencyEstimator, so the generic Theorem 11
    //    merge drives engines unchanged
    let engines: Vec<Engine<u64>> = blobs
        .iter()
        .map(|b| Engine::from_json(b).expect("deserialize"))
        .collect();
    let merged = hh::counters::merge::merge_k_sparse(&engines, k, || {
        config.build::<u64>().expect("target engine builds")
    });

    // 4. the merged summary answers with the Theorem 11 guarantee
    let oracle = ExactCounter::from_stream(&stream);
    let bound = TailConstants::ONE_ONE
        .merged()
        .bound(m, k, oracle.freqs().res1(k))
        .expect("m > 2k");
    for (item, f) in oracle.iter() {
        assert!(
            f.abs_diff(merged.estimate(item)) as f64 <= bound,
            "item {item} beyond the merged bound"
        );
    }

    // 5. the engine's own snapshot-merge primitive absorbs the same blobs
    //    and answers every query under the same guarantee
    let mut absorbed = config.build::<u64>().expect("engine builds");
    for b in &blobs {
        let snap: Snapshot<u64> = serde_json::from_str(b).expect("snapshot parses");
        absorbed.merge_snapshot(&snap).expect("same config merges");
    }
    assert_eq!(absorbed.stream_len(), stream.len() as u64);
    for (item, f) in oracle.iter() {
        assert!(
            f.abs_diff(absorbed.estimate(item)) as f64 <= bound,
            "item {item} beyond the merged bound via merge_snapshot"
        );
    }
}

#[test]
fn monitor_catches_flash_crowd_and_certifies_it() {
    let background = drifting_zipf(1_000, 30_000, 1.3, 1, 5);
    let stream = flash_crowd(&background, 0.5, 6_000, 9);
    let mut monitor: TopKMonitor<u64> = TopKMonitor::new(48, 5);
    let mut entered_at = None;
    for (pos, &x) in stream.iter().enumerate() {
        for change in monitor.update(x) {
            if let hh::counters::monitor::TopKChange::Entered(i) = change {
                if i == flash_item() && entered_at.is_none() {
                    entered_at = Some(pos);
                }
            }
        }
    }
    let entered_at = entered_at.expect("flash item must enter the top-5");
    assert!(
        entered_at < stream.len() * 3 / 4,
        "detected while the burst was still running (pos {entered_at})"
    );
    // and the φ-query certifies it with zero false-positive risk
    let certified: Vec<u64> = spacesaving_heavy_hitters(monitor.summary(), 0.08)
        .into_iter()
        .filter(|h| h.confidence == Confidence::Guaranteed)
        .map(|h| h.item)
        .collect();
    assert!(certified.contains(&flash_item()));
}

#[test]
fn trace_io_roundtrip_preserves_summary_results() {
    let counts = hh::streamgen::exact_zipf_counts(500, 10_000, 1.4);
    let stream = stream_from_counts(&counts, StreamOrder::Shuffled(3));

    let mut buf = Vec::new();
    trace_io::write_stream(&mut buf, &stream).expect("write");
    let back = trace_io::read_stream(buf.as_slice()).expect("read");
    assert_eq!(back, stream);

    let mut a = SpaceSaving::new(32);
    let mut b = SpaceSaving::new(32);
    for &x in &stream {
        a.update(x);
    }
    for &x in &back {
        b.update(x);
    }
    assert_eq!(a.entries(), b.entries());
}

#[test]
fn drift_does_not_break_any_algorithm() {
    let stream = drifting_zipf(800, 20_000, 1.2, 3, 21);
    let oracle = ExactCounter::from_stream(&stream);
    for algo in [Algo::Frequent, Algo::SpaceSaving] {
        let est = hh::analysis::run(algo, 64, 0, &stream);
        let check = hh::analysis::check_tail(est.as_ref(), &oracle, TailConstants::ONE_ONE, 8);
        assert!(check.ok, "{}: {check:?}", algo.name());
    }
}

#[test]
fn dyadic_sketch_finds_the_same_heavy_hitters_as_counters() {
    use hh::sketches::DyadicCountMin;
    let counts = hh::streamgen::exact_zipf_counts(2_000, 80_000, 1.5);
    let stream = stream_from_counts(&counts, StreamOrder::Shuffled(13));
    let oracle = ExactCounter::from_stream(&stream);

    let mut ss = SpaceSaving::new(64);
    let mut dy = DyadicCountMin::new(12, 4, 1024, 99); // generous width
    for &x in &stream {
        ss.update(x);
        dy.update(x);
    }
    let threshold = 2_000u64;
    let from_sketch: std::collections::BTreeSet<u64> = dy
        .items_above(threshold)
        .into_iter()
        .map(|(i, _)| i)
        .collect();
    for (item, f) in oracle.iter() {
        if f >= threshold {
            assert!(from_sketch.contains(item), "dyadic sketch missed {item}");
            assert!(ss.upper_estimate(item) >= f);
        }
    }
}
