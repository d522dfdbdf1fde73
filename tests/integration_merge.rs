//! Integration: summary merging (Theorem 11) across splits, algorithms and
//! merge variants.

use hh::counters::merge::{merge_full, merge_k_sparse};
use hh::prelude::*;
use hh::streamgen::exact_zipf_counts;
use hh::streamgen::generators::{concat, split};
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

fn zipf_stream(seed: u64) -> Vec<u64> {
    let counts = exact_zipf_counts(5_000, 100_000, 1.2);
    stream_from_counts(&counts, StreamOrder::Shuffled(seed))
}

fn summarize(config: &EngineConfig, parts: &[Vec<u64>]) -> Vec<Engine<u64>> {
    parts
        .iter()
        .map(|p| {
            let mut e = config.build().expect("valid config");
            e.update_batch(p);
            e
        })
        .collect()
}

#[test]
fn merged_summary_obeys_theorem_11_bound() {
    let stream = zipf_stream(1);
    let oracle = ExactCounter::from_stream(&stream);
    let m = 80;
    let k = 8;
    let bound = TailConstants::ONE_ONE
        .merged()
        .bound(m, k, oracle.freqs().res1(k))
        .expect("m > 2k");
    for ell in [2usize, 5, 10] {
        let parts = split(&stream, ell);
        assert_eq!(concat(&parts), stream);
        for algo in [AlgoKind::Frequent, AlgoKind::SpaceSaving] {
            let config = EngineConfig::new(algo).counters(m);
            let summaries = summarize(&config, &parts);
            let merged = merge_k_sparse(&summaries, k, || config.build().expect("valid config"));
            for (item, f) in oracle.iter() {
                let err = f.abs_diff(merged.estimate(item)) as f64;
                assert!(
                    err <= bound + 1e-9,
                    "{algo} ell={ell} item {item}: err {err} > bound {bound}"
                );
            }
        }
    }
}

#[test]
fn merge_full_at_least_as_accurate_as_k_sparse_on_heavy_items() {
    let stream = zipf_stream(2);
    let oracle = ExactCounter::from_stream(&stream);
    let m = 80;
    let k = 8;
    let parts = split(&stream, 6);
    let summaries = summarize(
        &EngineConfig::new(AlgoKind::SpaceSaving).counters(m),
        &parts,
    );
    let sparse = merge_k_sparse(&summaries, k, || SpaceSaving::new(m));
    let full = merge_full(&summaries, || SpaceSaving::new(m));
    let mut sparse_total_err = 0u64;
    let mut full_total_err = 0u64;
    for (item, f) in oracle.top_k(k) {
        sparse_total_err += f.abs_diff(sparse.estimate(&item));
        full_total_err += f.abs_diff(full.estimate(&item));
    }
    assert!(
        full_total_err <= sparse_total_err + oracle.freqs().res1(k) / (m as u64 - k as u64),
        "full merge should not be materially worse: {full_total_err} vs {sparse_total_err}"
    );
}

#[test]
fn merging_disjoint_universes_is_lossless_with_room() {
    // two sites with disjoint items, summaries big enough to be exact
    let a: Vec<u64> = (1..=20)
        .flat_map(|i| std::iter::repeat_n(i, i as usize))
        .collect();
    let b: Vec<u64> = (101..=120)
        .flat_map(|i| std::iter::repeat_n(i, (i - 100) as usize))
        .collect();
    let mut sa = SpaceSaving::new(64);
    let mut sb = SpaceSaving::new(64);
    for &x in &a {
        sa.update(x);
    }
    for &x in &b {
        sb.update(x);
    }
    let merged = merge_full(&[sa, sb], || SpaceSaving::new(64));
    for i in 1..=20u64 {
        assert_eq!(merged.estimate(&i), i);
        assert_eq!(merged.estimate(&(i + 100)), i);
    }
}

#[test]
fn merge_is_associative_enough_for_trees() {
    // merging ((s1+s2)+(s3+s4)) keeps the heavy item recoverable —
    // hierarchical (tree) aggregation, the way distributed deployments run.
    let mut streams = Vec::new();
    for j in 0..4u64 {
        let mut s = vec![777u64; 400]; // globally heavy everywhere
        s.extend((0..300).map(|i| j * 1000 + i % 60));
        streams.push(s);
    }
    let m = 48;
    let k = 6;
    let leafs: Vec<SpaceSaving<u64>> = streams
        .iter()
        .map(|s| {
            let mut e = SpaceSaving::new(m);
            for &x in s {
                e.update(x);
            }
            e
        })
        .collect();
    let left = merge_k_sparse(&leafs[..2], k, || SpaceSaving::new(m));
    let right = merge_k_sparse(&leafs[2..], k, || SpaceSaving::new(m));
    let root = merge_k_sparse(&[left, right], k, || SpaceSaving::new(m));
    let est = root.estimate(&777);
    assert!(
        est >= 1200,
        "globally heavy item survives tree merging: {est}"
    );
    assert_eq!(root.entries()[0].0, 777);
}
