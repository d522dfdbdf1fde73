//! Network monitoring: find the top flows *by bytes* in a synthetic packet
//! trace with a weighted engine (SPACESAVINGR, Section 6.1 of the paper).
//!
//! Each packet is `(flow_id, bytes)`; popularity is Zipfian and packet
//! sizes are LogNormal — a standard stand-in for real router traces.
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
        trace.total_weight() / 1e6
    );

    // Track byte counts with 64 counters through the weighted engine.
    let m = 64;
    let mut monitor: WeightedEngine<u64> = EngineConfig::new(AlgoKind::SpaceSaving)
        .counters(m)
        .build_weighted()
        .expect("valid config");
    for &(flow, bytes) in &trace.updates {
        monitor.update(flow, bytes);
    }

    // Ground truth for comparison (a real monitor wouldn't have this!).
    let oracle = ExactWeightedCounter::from_stream(&trace.updates);

    println!("\ntop-10 flows by bytes (monitor vs exact):");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>9}",
        "flow", "estimated", "exact", "rel err"
    );
    // The same `Report` an unweighted engine answers, in bytes: every row
    // carries a certified (lower, upper) interval around the true weight
    // (up to float rounding in the sums).
    let report = monitor.report();
    let tol = 1e-9 * report.total();
    for entry in report.top_k(10) {
        let exact = oracle.weight(&entry.item);
        assert!(entry.lower <= exact + tol && exact <= entry.upper + tol);
        println!(
            "{:>8}  {:>12.0}  {:>12.0}  {:>8.2}%",
            entry.item,
            entry.estimate,
            exact,
            (entry.estimate - exact).abs() / exact * 100.0
        );
    }

    // Theorem 10: the weighted algorithms keep the A=B=1 tail guarantee.
    let k = 8;
    let bound = oracle.res1(k) / (m - k) as f64;
    let worst = oracle
        .sorted_weights()
        .into_iter()
        .map(|(flow, w)| (w - monitor.estimate(&flow)).abs())
        .fold(0.0f64, f64::max);
    println!("\nTheorem 10 check (k={k}): max byte error {worst:.0} <= bound {bound:.0}");
    assert!(worst <= bound * (1.0 + 1e-9));

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
