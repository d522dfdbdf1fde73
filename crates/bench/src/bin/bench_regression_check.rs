//! Bench-regression smoke gate.
//!
//! Re-measures the sentinel hot-path configurations — SPACESAVING at 256
//! counters and Count-Min at a 64-cell budget on the throughput-bench
//! workload, plus the 4-shard `hh::pipeline` ingest on the
//! pipeline-bench workload — and fails (exit 1) if median items/sec
//! drops more than the tolerance below the checked-in `BENCH_*.json`
//! baselines. This keeps the PR 4 hot-path gains and the sharded
//! pipeline's concurrency wins from silently rotting.
//!
//! ```text
//! cargo run --release -p bench --bin bench_regression_check
//! ```
//!
//! Knobs (environment):
//! * `BENCH_BASELINE_DIR` — where the `BENCH_updates_per_sec{,_batched}.json`
//!   baselines live (default: current directory, i.e. the repo root in CI).
//! * `BENCH_REGRESSION_TOLERANCE` — allowed fractional drop (default 0.20,
//!   i.e. fail below 80% of baseline). The default suits same-machine
//!   comparisons; CI sets a much larger value because shared runners are
//!   arbitrarily slower than the machines that recorded the baselines, so
//!   cross-machine absolute throughput can only catch order-of-magnitude
//!   rot, not jitter.
//! * `BENCH_OBS_OVERHEAD_TOLERANCE` — allowed fractional slowdown of the
//!   instrumented `Engine::update_batch` path versus the raw
//!   `SpaceSaving::update_batch` path (default 0.02, the issue's ≤ 2%
//!   observability budget). Unlike the throughput sentinels this is a
//!   *paired same-process ratio* — both sides run back-to-back on the
//!   same machine in the same run — so it stays tight even on shared CI
//!   runners.
//! * `BENCH_FAULT_OVERHEAD_TOLERANCE` — allowed fractional slowdown of
//!   the per-item update loop with a disarmed `hh::fault::fault_point`
//!   hook before every update versus the same loop without it (default
//!   0.02). This binary is built without the `fault-injection` feature,
//!   so the hooks are empty inline functions and the paired ratio
//!   certifies the crash-safety layer stays free on release hot paths.
//! * `BENCH_SERVER_INGEST_TOLERANCE` — allowed fractional shortfall of
//!   the loopback `hh::net` server's ingest rate below half the
//!   in-process pipeline rate (default 0.20, i.e. fail below a 40%
//!   ratio). Also a paired same-process ratio: both sides run
//!   back-to-back, so machine speed cancels and only the network stack's
//!   relative cost is gated. The 50% target itself holds on a quiet
//!   machine; the tolerance absorbs scheduler jitter, which hits the
//!   multi-thread server lifecycle harder than the steady pipeline.

#![deny(unsafe_code)]

use std::io::{Read as _, Write as _};
use std::time::Instant;

use hh::net::{sys, NetOptions, ServeOptions, Server};
use hh::pipeline::{PipelineConfig, Routing, ShardIngest};
use hh::prelude::{EngineConfig, FrequencyEstimator};
use hh_analysis::{feed, make_estimator, Algo};
use hh_streamgen::zipf::{stream_from_counts, StreamOrder};
use hh_streamgen::{exact_zipf_counts, Item};

/// How a sentinel drives its ingest.
#[derive(Clone, Copy)]
enum Mode {
    /// One `update` call per element.
    PerItem,
    /// One whole-stream `update_batch` call.
    Batched,
    /// Sharded `hh::pipeline` ingest at the given shard count.
    Pipeline(usize),
}

/// The sentinel configurations: (algo, budget, baseline file, id, mode).
const SENTINELS: [(Algo, usize, &str, &str, Mode); 5] = [
    (
        Algo::SpaceSaving,
        256,
        "BENCH_updates_per_sec.json",
        "SpaceSaving/256",
        Mode::PerItem,
    ),
    (
        Algo::CountMin,
        64,
        "BENCH_updates_per_sec.json",
        "CountMin/64",
        Mode::PerItem,
    ),
    (
        Algo::SpaceSaving,
        256,
        "BENCH_updates_per_sec_batched.json",
        "SpaceSaving/256",
        Mode::Batched,
    ),
    (
        Algo::CountMin,
        64,
        "BENCH_updates_per_sec_batched.json",
        "CountMin/64",
        Mode::Batched,
    ),
    (
        Algo::SpaceSaving,
        256,
        "BENCH_pipeline_throughput.json",
        "pipeline/4",
        Mode::Pipeline(4),
    ),
];

const SAMPLES: usize = 7;

fn workload() -> Vec<Item> {
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

/// Median items/sec over `SAMPLES` runs of one full-stream ingest.
fn measure(algo: Algo, budget: usize, mode: Mode, stream: &[Item]) -> f64 {
    let mut rates: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start;
            match mode {
                Mode::PerItem | Mode::Batched => {
                    let mut est = make_estimator(algo, budget, 7);
                    start = Instant::now();
                    if matches!(mode, Mode::Batched) {
                        feed(est.as_mut(), stream);
                    } else {
                        for &x in stream {
                            est.update(x);
                        }
                    }
                    std::hint::black_box(est.stored_len());
                }
                Mode::Pipeline(shards) => {
                    // Mirrors the pipeline_throughput bench configuration.
                    let kind = algo
                        .kind()
                        .expect("pipeline sentinels must use engine-covered algorithms");
                    start = Instant::now();
                    let mut pipeline =
                        PipelineConfig::new(EngineConfig::new(kind).counters(budget))
                            .shards(shards)
                            .routing(Routing::HashPartition)
                            .ingest(ShardIngest::Aggregate)
                            .batch_size(32 * 1024)
                            .spawn::<Item>()
                            .expect("valid pipeline config");
                    pipeline.send_batch(stream).expect("shards alive");
                    let merged = pipeline.finish().expect("clean shutdown");
                    std::hint::black_box(merged.stream_len());
                }
            }
            let secs = start.elapsed().as_secs_f64();
            stream.len() as f64 / secs
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
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

/// The observability-overhead sentinel: raw `SpaceSaving::update_batch`
/// (base) against the instrumented `Engine::update_batch` with its
/// always-on `IngestStats` counters (probe), on the batched SPACESAVING
/// sentinel workload.
fn measure_obs_overhead(stream: &[Item]) -> (f64, f64) {
    const BUDGET: usize = 256;
    paired_min_ratio(
        stream.len(),
        15,
        || {
            let mut raw = hh::counters::SpaceSaving::new(BUDGET);
            raw.update_batch(stream);
            std::hint::black_box(raw.stored_len());
        },
        || {
            let mut engine = EngineConfig::new(hh::engine::AlgoKind::SpaceSaving)
                .counters(BUDGET)
                .build::<Item>()
                .expect("valid config");
            engine.update_batch(stream);
            std::hint::black_box(engine.ingest_stats().occurrences);
        },
    )
}

/// The fault-injection-overhead sentinel: the raw per-item
/// `SpaceSaving::update` loop (base) against the same loop with an
/// `hh::fault::fault_point` call before every update (probe) — one hook
/// per item, a strictly more pessimistic placement than the real shard
/// loop's one-hook-per-batch. Without the `fault-injection` feature
/// (this binary is always built without it) the hooks are empty inline
/// functions, so the ratio certifies that the crash-safety layer costs
/// the release hot path nothing.
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
            std::hint::black_box(s.stored_len());
        },
        || {
            let mut s = hh::counters::SpaceSaving::new(BUDGET);
            for &x in stream {
                hh::fault::fault_point(hh::fault::sites::SHARD_BATCH);
                s.update(x);
            }
            std::hint::black_box(s.stored_len());
        },
    )
}

/// The server-ingest sentinel: the in-process 4-shard pipeline (base)
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
        || {
            let mut pipeline = PipelineConfig::new(config.clone())
                .shards(SHARDS)
                .routing(Routing::HashPartition)
                .ingest(ShardIngest::Aggregate)
                .batch_size(BATCH)
                .spawn::<Item>()
                .expect("valid pipeline config");
            pipeline.send_batch(stream).expect("shards alive");
            let merged = pipeline.finish().expect("clean shutdown");
            std::hint::black_box(merged.stream_len());
        },
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
            std::hint::black_box(merged.stream_len());
        },
    )
}

/// How a paired gate's result line reads.
#[derive(Clone, Copy)]
enum Line {
    /// Slowdown of the probe against the base, against a budget.
    Overhead,
    /// Both rates and the probe's share of the base, against a floor.
    Share,
}

/// A paired same-process ratio gate: both sides run back-to-back on the
/// same machine in the same run, so machine speed cancels and the gate
/// stays tight even on shared CI runners. It fails when the probe/base
/// throughput ratio falls below `target × (1 − tolerance)`, or when its
/// baseline file lacks either id (a gate without its baseline is
/// measuring nothing).
struct PairedGate {
    name: &'static str,
    file: &'static str,
    base_id: &'static str,
    probe_id: &'static str,
    /// Names the sides in the result line, probe first.
    label: &'static str,
    /// Environment variable overriding `default_tolerance`.
    env: &'static str,
    default_tolerance: f64,
    target: f64,
    line: Line,
    /// Runs on the pipeline-bench hot-set stream instead of the
    /// throughput-bench Zipf stream.
    hot_set: bool,
    /// Best-of-rounds `(base, probe)` items/sec.
    measure: fn(&[Item]) -> (f64, f64),
}

const PAIRED_GATES: [PairedGate; 3] = [
    PairedGate {
        name: "obs_overhead",
        file: "BENCH_obs_overhead.json",
        base_id: "raw/SpaceSaving/update_batch/256",
        probe_id: "instrumented/Engine/update_batch/256",
        label: "instrumented/raw",
        env: "BENCH_OBS_OVERHEAD_TOLERANCE",
        default_tolerance: 0.02,
        target: 1.0,
        line: Line::Overhead,
        hot_set: false,
        measure: measure_obs_overhead,
    },
    PairedGate {
        name: "fault_overhead",
        file: "BENCH_fault_overhead.json",
        base_id: "raw/SpaceSaving/update/256",
        probe_id: "hooked/SpaceSaving/update/256",
        label: "hooked/raw",
        env: "BENCH_FAULT_OVERHEAD_TOLERANCE",
        default_tolerance: 0.02,
        target: 1.0,
        line: Line::Overhead,
        hot_set: false,
        measure: measure_fault_overhead,
    },
    PairedGate {
        name: "server_ingest",
        file: "BENCH_server_ingest.json",
        base_id: "pipeline/4",
        probe_id: "server_loopback/4",
        label: "server/pipeline",
        env: "BENCH_SERVER_INGEST_TOLERANCE",
        default_tolerance: 0.20,
        target: 0.5,
        line: Line::Share,
        hot_set: true,
        measure: measure_server_ingest,
    },
];

/// A fractional tolerance from the environment, or `default`.
fn env_tolerance(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs one paired gate and prints its result line. Returns true on
/// failure.
fn check_paired(gate: &PairedGate, dir: &str, stream: &[Item]) -> bool {
    let tolerance = env_tolerance(gate.env, gate.default_tolerance);
    let file = gate.file;
    let baseline_ratio = match (
        baseline(dir, file, gate.base_id),
        baseline(dir, file, gate.probe_id),
    ) {
        (Ok(base), Ok(probe)) => probe / base,
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("FAIL {} ({file}): baseline unavailable: {e}", gate.name);
            return true;
        }
    };
    let (base_rate, probe_rate) = (gate.measure)(stream);
    let ratio = probe_rate / base_rate;
    let floor = gate.target * (1.0 - tolerance);
    let ok = ratio >= floor;
    let verdict = if ok { "ok" } else { "FAIL" };
    match gate.line {
        Line::Overhead => println!(
            "{verdict:>4}  {file} {}: {:.1}% overhead (baseline {:.1}%, budget {:.0}%)",
            gate.label,
            (1.0 - ratio) * 100.0,
            (1.0 - baseline_ratio) * 100.0,
            tolerance * 100.0
        ),
        Line::Share => println!(
            "{verdict:>4}  {file} {}: {:.1} / {:.1} Melem/s = {:.0}% (baseline {:.0}%, floor {:.0}%)",
            gate.label,
            probe_rate / 1e6,
            base_rate / 1e6,
            ratio * 100.0,
            baseline_ratio * 100.0,
            floor * 100.0
        ),
    }
    !ok
}

/// Baselines that are not re-measured here (their benches take minutes,
/// or they record paired ratios already gated above) but still must stay
/// structurally sound: present, parseable, and carrying the schema the
/// analysis notebooks and `xtask lint`'s drift rule expect. Each entry
/// is `(file, expected "group" field)`. A baseline missing from both
/// this table and the sentinel gates is an `artifact-drift` lint error.
const AUDITED_BASELINES: [(&str, &str); 9] = [
    ("BENCH_engine_overhead.json", "engine_overhead"),
    ("BENCH_frequent_backend.json", "frequent_backend"),
    ("BENCH_merge_summaries.json", "merge_summaries"),
    ("BENCH_point_queries.json", "point_queries"),
    ("BENCH_spacesaving_backend.json", "spacesaving_backend"),
    (
        "BENCH_stream_summary_evict_insert.json",
        "stream_summary_evict_insert",
    ),
    (
        "BENCH_stream_summary_increment.json",
        "stream_summary_increment",
    ),
    (
        "BENCH_stream_summary_snapshot.json",
        "stream_summary_snapshot",
    ),
    (
        "BENCH_updates_per_sec_chunked.json",
        "updates_per_sec_chunked",
    ),
];

/// Validates every audited baseline's schema: readable JSON whose
/// `group` matches, with a non-empty `benchmarks` array where every
/// entry has a non-empty `id`, a positive `median_ns_per_iter`, and a
/// positive `items_per_sec` when present. Returns true on failure.
fn check_audited_baselines(dir: &str) -> bool {
    let mut failed = false;
    for (file, group) in AUDITED_BASELINES {
        if let Err(e) = audit_baseline(dir, file, group) {
            eprintln!("FAIL {file}: {e}");
            failed = true;
        } else {
            println!("  ok  {file} schema audit ({group})");
        }
    }
    failed
}

fn audit_baseline(dir: &str, file: &str, group: &str) -> Result<(), String> {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("bad json in {path}: {e}"))?;
    if value["group"].as_str() != Some(group) {
        return Err(format!("{path}: group != {group:?}"));
    }
    let benchmarks = value["benchmarks"]
        .as_array()
        .filter(|b| !b.is_empty())
        .ok_or_else(|| format!("{path}: missing or empty benchmarks array"))?;
    for b in benchmarks {
        let id = b["id"]
            .as_str()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| format!("{path}: benchmark entry without an id"))?;
        if !b["median_ns_per_iter"].as_f64().is_some_and(|v| v > 0.0) {
            return Err(format!("{path}: {id} has no positive median_ns_per_iter"));
        }
        if !matches!(b["items_per_sec"], serde_json::Value::Null)
            && !b["items_per_sec"].as_f64().is_some_and(|v| v > 0.0)
        {
            return Err(format!("{path}: {id} has a non-positive items_per_sec"));
        }
    }
    Ok(())
}

/// Reads the baseline items/sec for `id` out of a BENCH json file.
fn baseline(dir: &str, file: &str, id: &str) -> Result<f64, String> {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("bad json in {path}: {e}"))?;
    let benchmarks = value["benchmarks"]
        .as_array()
        .ok_or_else(|| format!("{path}: missing benchmarks array"))?;
    for b in benchmarks {
        if b["id"].as_str() == Some(id) {
            return b["items_per_sec"]
                .as_f64()
                .ok_or_else(|| format!("{path}: {id} has no items_per_sec"));
        }
    }
    Err(format!("{path}: no benchmark with id {id:?}"))
}

fn main() {
    let dir = std::env::var("BENCH_BASELINE_DIR").unwrap_or_else(|_| ".".to_string());
    let tolerance = env_tolerance("BENCH_REGRESSION_TOLERANCE", 0.20);
    let stream = workload();
    let pipeline_stream = pipeline_workload();

    let mut failed = false;
    println!(
        "bench regression gate (tolerance: -{:.0}%)",
        tolerance * 100.0
    );
    for (algo, budget, file, id, mode) in SENTINELS {
        let base = match baseline(&dir, file, id) {
            Ok(b) => b,
            Err(e) => {
                // A gate that cannot find its baselines must not pass
                // vacuously: a misconfigured dir or a renamed bench id
                // would otherwise keep CI green while measuring nothing.
                eprintln!("FAIL {id} ({file}): baseline unavailable: {e}");
                failed = true;
                continue;
            }
        };
        let sentinel_stream = match mode {
            Mode::Pipeline(_) => &pipeline_stream,
            _ => &stream,
        };
        let measured = measure(algo, budget, mode, sentinel_stream);
        let ratio = measured / base;
        let verdict = if ratio >= 1.0 - tolerance {
            "ok"
        } else {
            "FAIL"
        };
        println!(
            "{verdict:>4}  {file} {id}: {:.1} Melem/s vs baseline {:.1} Melem/s ({:+.1}%)",
            measured / 1e6,
            base / 1e6,
            (ratio - 1.0) * 100.0
        );
        if ratio < 1.0 - tolerance {
            failed = true;
        }
    }
    if check_audited_baselines(&dir) {
        failed = true;
    }
    for gate in &PAIRED_GATES {
        let gate_stream = if gate.hot_set {
            &pipeline_stream
        } else {
            &stream
        };
        if check_paired(gate, &dir, gate_stream) {
            failed = true;
        }
    }
    if failed {
        eprintln!("bench regression gate FAILED");
        std::process::exit(1);
    }
    println!("bench regression gate passed");
}
