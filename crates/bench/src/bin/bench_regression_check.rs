//! Bench-regression smoke gate.
//!
//! Every check is a *paired same-process ratio*: a probe (the code under
//! guard) and a base (a reference that does not run that code) ingest
//! the same stream back-to-back in alternating rounds, and the gate
//! fails (exit 1) when the probe/base throughput ratio falls below its
//! floor. Machine speed cancels out of the ratio, so the floors hold on
//! any host and need no recorded baseline.
//!
//! ```text
//! cargo run --release -p bench --bin bench_regression_check
//! ```
//!
//! The gates:
//! * `spacesaving_update`, `countmin_update` — per-item SPACESAVING at
//!   256 counters and Count-Min at a 64-cell budget against an exact
//!   `FxHashMap` count of the throughput-bench Zipf stream.
//! * `spacesaving_batch`, `countmin_batch` — each backend's
//!   `update_batch` against its own per-item loop.
//! * `pipeline_4` — the 4-shard `hh::pipeline` (`Aggregate` ingest)
//!   against one `Engine::update_batch` of the pipeline-bench hot-set
//!   stream.
//! * `pipeline_key` — a 2-shard aggregating `Pipeline<Key>` against
//!   `Pipeline<u64>` on the same Zipf 1.5 ids, rendered as decimal
//!   `Key`s: what hashing, comparing and cloning a text item costs over
//!   an integer on the served ingest path.
//! * `obs_overhead` — the instrumented `Engine::update_batch` against
//!   raw `SpaceSaving::update_batch`.
//! * `fault_overhead` — the per-item update loop with a disarmed
//!   `hh::fault::fault_point` hook before every update against the same
//!   loop without it. This binary is built without the
//!   `fault-injection` feature, so the hooks are empty inline functions.
//! * `server_ingest` — loopback `hh::net` server ingest against the
//!   in-process pipeline it feeds.
//!
//! The first six floors are fixed, set from repeated runs on a 2-core
//! host with room for run-to-run spread. The last three are
//! `target × (1 − tolerance)`, and each tolerance can be overridden:
//! * `BENCH_OBS_OVERHEAD_TOLERANCE` (default 0.02, the ≤ 2%
//!   observability budget);
//! * `BENCH_FAULT_OVERHEAD_TOLERANCE` (default 0.02);
//! * `BENCH_SERVER_INGEST_TOLERANCE` (default 0.20 below a 50% target,
//!   i.e. fail below a 40% ratio; the tolerance absorbs scheduler
//!   jitter, which hits the multi-thread server lifecycle harder than
//!   the steady pipeline).

#![deny(unsafe_code)]

use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::time::Instant;

use hh::counters::fasthash::FxHashMap;
use hh::counters::Key;
use hh::engine::EngineItem;
use hh::net::{sys, NetOptions, ServeOptions, Server};
use hh::pipeline::{PipelineConfig, Routing, ShardIngest};
use hh::prelude::{EngineConfig, FrequencyEstimator};
use hh_analysis::{feed, make_estimator, Algo};
use hh_streamgen::zipf::{stream_from_counts, StreamOrder};
use hh_streamgen::{exact_zipf_counts, Item};

fn counter_workload() -> Vec<Item> {
    // Identical to crates/bench/benches/throughput.rs.
    let counts = exact_zipf_counts(20_000, 200_000, 1.2);
    stream_from_counts(&counts, StreamOrder::Shuffled(1))
}

fn pipeline_workload() -> Vec<Item> {
    // Identical to crates/bench/benches/pipeline_throughput.rs: hot-set
    // saturation traffic, 4× the counter budget in distinct items.
    let counts = exact_zipf_counts(1024, 1_000_000, 0.1);
    stream_from_counts(&counts, StreamOrder::Shuffled(1))
}

fn key_workload() -> Vec<Item> {
    // Zipf 1.5 over 10⁶ ids, the skew of the `serve_burst` benchmark
    // workload.
    let counts = exact_zipf_counts(1_000_000, 1_000_000, 1.5);
    stream_from_counts(&counts, StreamOrder::Shuffled(1))
}

/// Best-of-`rounds` throughput `(base, probe)` in items/sec of two
/// closures that each run one ingest of `items` arrivals.
///
/// One ingest is only a few milliseconds, so a single scheduler
/// preemption dwarfs the effect being measured. Noise can only ever
/// *inflate* a sample, so the minimum over many alternating rounds
/// approximates each side's uncontended runtime; the ratio of minima is
/// far more stable than a median of per-round ratios on a busy
/// single-core runner.
fn paired_min_ratio(
    items: usize,
    rounds: usize,
    mut base: impl FnMut(),
    mut probe: impl FnMut(),
) -> (f64, f64) {
    fn secs(run: &mut impl FnMut()) -> f64 {
        let start = Instant::now();
        run();
        start.elapsed().as_secs_f64()
    }
    // Warm-up: fault in the stream and both code paths before timing.
    base();
    probe();
    let mut best_base = f64::INFINITY;
    let mut best_probe = f64::INFINITY;
    for round in 0..rounds {
        // Alternate which side runs first so slow drift in machine load
        // (frequency scaling, a neighbour on the runner) hits both
        // sides symmetrically.
        if round % 2 == 0 {
            best_base = best_base.min(secs(&mut base));
            best_probe = best_probe.min(secs(&mut probe));
        } else {
            best_probe = best_probe.min(secs(&mut probe));
            best_base = best_base.min(secs(&mut base));
        }
    }
    let n = items as f64;
    (n / best_base, n / best_probe)
}

/// Rounds for the gates on the 200k-arrival Zipf stream.
const COUNTER_ROUNDS: usize = 41;

/// The reference for the per-item counter gates: an exact count of the
/// stream in an `FxHashMap`, which runs no counter-algorithm code.
fn exact_count(stream: &[Item]) {
    let mut counts: FxHashMap<Item, u64> = FxHashMap::default();
    for &x in stream {
        *counts.entry(x).or_insert(0) += 1;
    }
    black_box(counts.len());
}

/// One ingest of `stream` into a fresh `algo` estimator at `budget`:
/// one `update` call per arrival, or one whole-stream `update_batch`.
fn ingest(algo: Algo, budget: usize, stream: &[Item], batched: bool) {
    let mut est = make_estimator(algo, budget, 7);
    if batched {
        feed(est.as_mut(), stream);
    } else {
        for &x in stream {
            est.update(x);
        }
    }
    black_box(est.stored_len());
}

/// Per-item `algo` updates (probe) against the exact count (base).
fn per_item_vs_exact(algo: Algo, budget: usize, stream: &[Item]) -> (f64, f64) {
    paired_min_ratio(
        stream.len(),
        COUNTER_ROUNDS,
        || exact_count(stream),
        || ingest(algo, budget, stream, false),
    )
}

/// Batched `algo` ingest (probe) against its per-item loop (base).
fn batch_vs_per_item(algo: Algo, budget: usize, stream: &[Item]) -> (f64, f64) {
    paired_min_ratio(
        stream.len(),
        COUNTER_ROUNDS,
        || ingest(algo, budget, stream, false),
        || ingest(algo, budget, stream, true),
    )
}

/// One ingest of `stream` through a SpaceSaving/256 pipeline of
/// `shards` hash-partitioned shards with `Aggregate` ingest.
fn run_pipeline<I: EngineItem>(stream: &[I], shards: usize, batch: usize) {
    let config = EngineConfig::new(hh::engine::AlgoKind::SpaceSaving).counters(256);
    let mut pipeline = PipelineConfig::new(config)
        .shards(shards)
        .routing(Routing::HashPartition)
        .ingest(ShardIngest::Aggregate)
        .batch_size(batch)
        .spawn::<I>()
        .expect("valid pipeline config");
    pipeline.send_batch(stream).expect("shards alive");
    let merged = pipeline.finish().expect("clean shutdown");
    black_box(merged.stream_len());
}

/// The sharded-ingest gate: one `Engine::update_batch` of the hot-set
/// stream (base) against the 4-shard `Aggregate` pipeline of the
/// pipeline-bench configuration (probe).
fn measure_pipeline(stream: &[Item]) -> (f64, f64) {
    let config = EngineConfig::new(hh::engine::AlgoKind::SpaceSaving).counters(256);
    paired_min_ratio(
        stream.len(),
        21,
        || {
            let mut engine = config.build::<Item>().expect("valid config");
            engine.update_batch(stream);
            black_box(engine.stream_len());
        },
        || run_pipeline(stream, 4, 32 * 1024),
    )
}

/// The text-item gate: a 2-shard pipeline in 8 Ki batches (the `hh
/// serve` defaults) over `u64` ids (base) against the same ids as
/// decimal `Key`s (probe).
fn measure_pipeline_key(stream: &[Item]) -> (f64, f64) {
    let keys: Vec<Key> = stream
        .iter()
        .map(|id| Key::from(id.to_string().as_str()))
        .collect();
    paired_min_ratio(
        stream.len(),
        21,
        || run_pipeline(stream, 2, 8192),
        || run_pipeline(&keys, 2, 8192),
    )
}

/// The observability-overhead gate: raw `SpaceSaving::update_batch`
/// (base) against the instrumented `Engine::update_batch` with its
/// always-on `IngestStats` counters (probe).
fn measure_obs_overhead(stream: &[Item]) -> (f64, f64) {
    const BUDGET: usize = 256;
    paired_min_ratio(
        stream.len(),
        15,
        || {
            let mut raw = hh::counters::SpaceSaving::new(BUDGET);
            raw.update_batch(stream);
            black_box(raw.stored_len());
        },
        || {
            let mut engine = EngineConfig::new(hh::engine::AlgoKind::SpaceSaving)
                .counters(BUDGET)
                .build::<Item>()
                .expect("valid config");
            engine.update_batch(stream);
            black_box(engine.ingest_stats().occurrences);
        },
    )
}

/// The fault-injection-overhead gate: the raw per-item
/// `SpaceSaving::update` loop (base) against the same loop with an
/// `hh::fault::fault_point` call before every update (probe) — one hook
/// per item, a strictly more pessimistic placement than the real shard
/// loop's one-hook-per-batch.
fn measure_fault_overhead(stream: &[Item]) -> (f64, f64) {
    const BUDGET: usize = 256;
    paired_min_ratio(
        stream.len(),
        15,
        || {
            let mut s = hh::counters::SpaceSaving::new(BUDGET);
            for &x in stream {
                s.update(x);
            }
            black_box(s.stored_len());
        },
        || {
            let mut s = hh::counters::SpaceSaving::new(BUDGET);
            for &x in stream {
                hh::fault::fault_point(hh::fault::sites::SHARD_BATCH);
                s.update(x);
            }
            black_box(s.stored_len());
        },
    )
}

/// The server-ingest gate: the in-process 4-shard pipeline (base)
/// against loopback `hh::net` server ingest of the same stream arriving
/// as the line protocol over TCP (probe). Mirrors
/// `crates/bench/benches/server_ingest.rs` — same engine config, shard
/// count, and 8 Ki batch on both sides, so the ratio isolates the
/// network stack.
fn measure_server_ingest(stream: &[Item]) -> (f64, f64) {
    const SHARDS: usize = 4;
    const BATCH: usize = 8192;
    let config = EngineConfig::new(hh::engine::AlgoKind::SpaceSaving).counters(256);
    // The stream rendered as the wire protocol: one item per line.
    let mut lines = Vec::with_capacity(stream.len() * 5);
    for item in stream {
        lines.extend_from_slice(item.to_string().as_bytes());
        lines.push(b'\n');
    }

    paired_min_ratio(
        stream.len(),
        5,
        || run_pipeline(stream, SHARDS, BATCH),
        || {
            sys::reset_drain();
            let serve = ServeOptions::new(config.clone())
                .shards(Some(SHARDS))
                .batch_size(BATCH);
            let net = NetOptions::new().tcp("127.0.0.1:0");
            let server: Server<Item> = Server::bind(serve, net).expect("bind loopback");
            let addr = server.tcp_addr().expect("tcp address");
            // lint:allow(spawn-confinement) the paired server/pipeline gate must run a real Server::run loop concurrently with the timed client; there is no pipeline-shaped way to host a blocking event loop
            let handle = std::thread::spawn(move || {
                let mut out = Vec::new();
                server.run(&mut out).expect("server run")
            });
            let mut conn = std::net::TcpStream::connect(addr).expect("connect");
            let _ =
                sys::set_socket_buffers(std::os::fd::AsRawFd::as_raw_fd(&conn), 4 * 1024 * 1024);
            conn.write_all(&lines).expect("stream lines");
            conn.write_all(b"?shutdown\n").expect("request drain");
            conn.shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut ack = Vec::new();
            conn.read_to_end(&mut ack).expect("drain ack");
            let merged = handle.join().expect("server thread");
            black_box(merged.stream_len());
        },
    )
}

/// The lowest probe/base ratio a gate accepts.
enum Floor {
    /// A fixed ratio.
    Fixed(f64),
    /// `target × (1 − tolerance)`, the tolerance overridable from `env`.
    Tolerance {
        target: f64,
        default: f64,
        env: &'static str,
    },
}

impl Floor {
    fn ratio(&self) -> f64 {
        match *self {
            Floor::Fixed(floor) => floor,
            Floor::Tolerance {
                target,
                default,
                env,
            } => {
                let tolerance = std::env::var(env)
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(default);
                target * (1.0 - tolerance)
            }
        }
    }
}

/// A paired same-process ratio gate: both sides run back-to-back on the
/// same machine in the same run, so machine speed cancels and the gate
/// stays tight even on shared CI runners.
struct PairedGate {
    name: &'static str,
    /// Names the sides in the result line, probe first.
    label: &'static str,
    floor: Floor,
    /// The stream both sides ingest.
    workload: fn() -> Vec<Item>,
    /// Best-of-rounds `(base, probe)` items/sec.
    measure: fn(&[Item]) -> (f64, f64),
}

const PAIRED_GATES: [PairedGate; 9] = [
    PairedGate {
        name: "spacesaving_update",
        label: "SpaceSaving/256 per-item / exact count",
        floor: Floor::Fixed(0.145),
        workload: counter_workload,
        measure: |s| per_item_vs_exact(Algo::SpaceSaving, 256, s),
    },
    PairedGate {
        name: "spacesaving_batch",
        label: "SpaceSaving/256 batched / per-item",
        floor: Floor::Fixed(0.8),
        workload: counter_workload,
        measure: |s| batch_vs_per_item(Algo::SpaceSaving, 256, s),
    },
    PairedGate {
        name: "countmin_update",
        label: "CountMin/64 per-item / exact count",
        floor: Floor::Fixed(0.045),
        workload: counter_workload,
        measure: |s| per_item_vs_exact(Algo::CountMin, 64, s),
    },
    PairedGate {
        name: "countmin_batch",
        label: "CountMin/64 batched / per-item",
        floor: Floor::Fixed(1.8),
        workload: counter_workload,
        measure: |s| batch_vs_per_item(Algo::CountMin, 64, s),
    },
    PairedGate {
        name: "pipeline_4",
        label: "pipeline/4 / single engine",
        floor: Floor::Fixed(2.5),
        workload: pipeline_workload,
        measure: measure_pipeline,
    },
    PairedGate {
        name: "pipeline_key",
        label: "pipeline/2 Key / u64",
        floor: Floor::Fixed(0.26),
        workload: key_workload,
        measure: measure_pipeline_key,
    },
    PairedGate {
        name: "obs_overhead",
        label: "instrumented/raw",
        floor: Floor::Tolerance {
            target: 1.0,
            default: 0.02,
            env: "BENCH_OBS_OVERHEAD_TOLERANCE",
        },
        workload: counter_workload,
        measure: measure_obs_overhead,
    },
    PairedGate {
        name: "fault_overhead",
        label: "hooked/raw",
        floor: Floor::Tolerance {
            target: 1.0,
            default: 0.02,
            env: "BENCH_FAULT_OVERHEAD_TOLERANCE",
        },
        workload: counter_workload,
        measure: measure_fault_overhead,
    },
    PairedGate {
        name: "server_ingest",
        label: "server/pipeline",
        floor: Floor::Tolerance {
            target: 0.5,
            default: 0.20,
            env: "BENCH_SERVER_INGEST_TOLERANCE",
        },
        workload: pipeline_workload,
        measure: measure_server_ingest,
    },
];

/// Whether a measured ratio clears its floor. A NaN or infinite ratio
/// or floor (a side that measured nothing, a garbled tolerance) fails.
fn passes(ratio: f64, floor: f64) -> bool {
    ratio.is_finite() && floor.is_finite() && ratio >= floor
}

/// Runs one paired gate and prints its result line. Returns true on
/// failure.
fn check_paired(gate: &PairedGate, stream: &[Item]) -> bool {
    let floor = gate.floor.ratio();
    let (base_rate, probe_rate) = (gate.measure)(stream);
    let ratio = probe_rate / base_rate;
    let ok = passes(ratio, floor);
    println!(
        "{:>4}  {} ({}): {:.1} / {:.1} Melem/s = {ratio:.3} (floor {floor:.3})",
        if ok { "ok" } else { "FAIL" },
        gate.name,
        gate.label,
        probe_rate / 1e6,
        base_rate / 1e6,
    );
    !ok
}

/// The host the ratios were measured on: cores, CPU model and rustc.
fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    format!("host: nproc={nproc} cpu={cpu} rustc={rustc}")
}

fn main() {
    println!("bench regression gate, {}", host_line());
    let mut failed = false;
    for gate in &PAIRED_GATES {
        if check_paired(gate, &(gate.workload)()) {
            failed = true;
        }
    }
    if failed {
        eprintln!("bench regression gate FAILED");
        std::process::exit(1);
    }
    println!("bench regression gate passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ratio_below_its_floor_fails() {
        assert!(passes(1.0, 1.0));
        assert!(passes(3.2, 2.5));
        assert!(!passes(0.99, 1.0));
        assert!(!passes(0.0, 0.045));
    }

    #[test]
    fn nan_and_infinite_ratios_never_pass() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!passes(bad, 0.5), "ratio {bad} passed");
            assert!(!passes(1.0, bad), "floor {bad} passed");
        }
    }

    #[test]
    fn every_gate_is_documented_once() {
        let module_docs: String = include_str!("bench_regression_check.rs")
            .lines()
            .filter(|l| l.starts_with("//!"))
            .collect();
        let performance_md = include_str!("../../../../docs/PERFORMANCE.md");
        for gate in &PAIRED_GATES {
            let row = format!("| `{}` |", gate.name);
            let rows = performance_md.lines().filter(|l| l.starts_with(&row));
            assert_eq!(
                rows.count(),
                1,
                "{}: PERFORMANCE.md §8 gate table",
                gate.name
            );
            assert!(
                module_docs.contains(&format!("`{}`", gate.name)),
                "{}: module docs",
                gate.name
            );
        }
    }

    #[test]
    fn gate_names_are_unique() {
        let mut names: Vec<&str> = PAIRED_GATES.iter().map(|g| g.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PAIRED_GATES.len());
    }
}
