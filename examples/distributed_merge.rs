//! Distributed summarization: eight sites each summarize their local
//! stream; a coordinator merges the engines' portable snapshots without
//! ever seeing the raw streams (Section 6.2 / Theorem 11 of the paper).
//!
//! Run with: `cargo run -p hh --example distributed_merge`

use hh::prelude::*;
use hh::streamgen::generators::split;
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

fn main() {
    let sites = 8;
    let m = 96;
    let k = 8;

    // The union workload: one global Zipf stream, dealt out to the sites.
    let counts = hh::streamgen::exact_zipf_counts(30_000, 400_000, 1.2);
    let stream = stream_from_counts(&counts, StreamOrder::Shuffled(99));
    let parts = split(&stream, sites);

    // Each site runs the same engine config locally and ships its snapshot
    // as JSON — the coordinator never sees a raw stream.
    let config = EngineConfig::new(AlgoKind::SpaceSaving).counters(m);
    let mut shipped: Vec<String> = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let mut site = config.build::<u64>().expect("valid config");
        site.update_batch(part);
        let json = site.to_json();
        println!(
            "site {i}: {} items summarized into {} counters ({} bytes of JSON shipped)",
            site.stream_len(),
            m,
            json.len()
        );
        shipped.push(json);
    }

    // Coordinator: rehydrate the first snapshot, absorb the rest.
    let mut merged: Engine<u64> = Engine::from_json(&shipped[0]).expect("snapshot rehydrates");
    for json in &shipped[1..] {
        let snap: Snapshot<u64> = serde_json::from_str(json).expect("snapshot parses");
        merged.merge_snapshot(&snap).expect("same config merges");
    }

    // Theorem 11 guarantee over the UNION stream: constants (3A, A+B)=(3,2).
    let oracle = ExactCounter::from_stream(&stream);
    let freqs = oracle.freqs();
    let merged_bound = TailConstants::ONE_ONE
        .merged()
        .bound(m, k, freqs.res1(k))
        .expect("m > 2k");
    let worst = oracle
        .iter()
        .map(|(i, f)| f.abs_diff(merged.estimate(i)))
        .max()
        .unwrap_or(0);

    println!("\nmerged summary of {} total items:", merged.stream_len());
    println!("{:>8}  {:>10}  {:>10}", "item", "merged est", "exact");
    for entry in merged.report().top_k(8) {
        println!(
            "{:>8}  {:>10}  {:>10}",
            entry.item,
            entry.estimate,
            oracle.count(&entry.item)
        );
    }
    println!("\nTheorem 11 check: max error {worst} <= 3*F1res({k})/(m-2k) = {merged_bound:.1}");
    assert!((worst as f64) <= merged_bound);
}
