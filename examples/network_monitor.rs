//! Network monitoring: find the top flows *by bytes* in a synthetic packet
//! trace with a weighted engine (SPACESAVING over weights, Section 6.1 of
//! the paper).
//!
//! Each packet is `(flow_id, bytes)`; popularity is Zipfian and packet
//! sizes are LogNormal — a standard stand-in for real router traces.
//! Bytes are whole units, so `update_by` sums them exactly.
//!
//! Run with: `cargo run -p hh --example network_monitor`

use hh::prelude::*;
use hh::streamgen::WeightedStream;

fn main() {
    // 200k packets over 5k flows.
    let trace = WeightedStream::packet_trace(5_000, 200_000, 1.1, 6.0, 1.5, 2024);
    println!(
        "trace: {} packets, {:.1} MB total",
        trace.len(),
        trace.total_weight() as f64 / 1e6
    );

    // Track byte counts with 64 counters through a weighted engine.
    let m = 64;
    let mut monitor: Engine<u64> = EngineConfig::new(AlgoKind::SpaceSaving)
        .counters(m)
        .build()
        .and_then(Engine::into_weighted)
        .expect("valid config");
    // Ground truth for comparison (a real monitor wouldn't have this!).
    let mut oracle = ExactCounter::new();
    for &(flow, bytes) in &trace.updates {
        monitor.update_by(flow, bytes);
        oracle.update_by(flow, bytes);
    }

    println!("\ntop-10 flows by bytes (monitor vs exact):");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>9}",
        "flow", "estimated", "exact", "rel err"
    );
    // The same `Report` an unweighted engine answers, in bytes: every row
    // carries a certified (lower, upper) interval around the true weight.
    let report = monitor.report();
    for entry in report.top_k(10) {
        let exact = oracle.count(&entry.item);
        assert!(entry.lower <= exact && exact <= entry.upper);
        println!(
            "{:>8}  {:>12}  {:>12}  {:>8.2}%",
            entry.item,
            entry.estimate,
            exact,
            entry.estimate.abs_diff(exact) as f64 / exact as f64 * 100.0
        );
    }

    // Theorem 10: the weighted algorithms keep the A=B=1 tail guarantee.
    let k = 8;
    let bound = TailConstants::ONE_ONE
        .bound(m, k, oracle.freqs().res1(k))
        .expect("m > k");
    let worst = oracle
        .iter()
        .map(|(flow, bytes)| bytes.abs_diff(monitor.estimate(flow)))
        .max()
        .unwrap_or(0);
    println!("\nTheorem 10 check (k={k}): max byte error {worst} <= bound {bound:.0}");
    assert!(worst as f64 <= bound);

    // Heavy flows with confidence labels: a guaranteed entry's certified
    // lower bound already exceeds the threshold — zero false positives
    // among the guaranteed, zero false negatives overall.
    let phi = 0.01;
    let heavy: Vec<u64> = report
        .heavy_hitters(phi)
        .expect("phi in range")
        .into_iter()
        .filter(|h| h.confidence == Confidence::Guaranteed)
        .map(|h| h.item)
        .collect();
    println!("flows certainly above 1% of traffic: {heavy:?}");
}
