//! The repository benchmark. One command runs one workload for a fixed
//! time, checks every answer against the exact counts, and prints every
//! metric with its unit; the last stdout line is the JSON result.
//!
//! ```text
//! hh-perfbench --workload <serve_burst|serve_query|pipeline_hotset>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload with spans recorded and then the per-layer ledger. See
//! `README.md` beside this crate for the catalog.

mod hotset;
mod ledger;
mod os;
mod serve;
mod span;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use hh::engine::{AlgoKind, EngineConfig};
use hh::pipeline::{PipelineConfig, Routing, ShardIngest};

use span::Tracer;
use trace::{median, quantile, Accuracy, Trace, TraceSpec};

/// Counters per shard summary (`hh serve -m 256`).
pub const M: usize = 256;
/// Shards (`hh serve --shards 2`).
pub const SHARDS: usize = 2;
/// Items of the trace the serve ledgers replay per layer.
const LADDER_ITEMS: usize = 1_000_000;
/// Measured seconds per round. A run repeats rounds until their wall time
/// reaches `--seconds`; each starts a fresh server or pipeline, and the
/// reported figures are medians over rounds, so second-scale host noise
/// averages out. A round can outlast `ROUND_S`: a burst round also drains
/// the socket backlog its writes left, and a hot-set round also scores
/// recall untimed.
const ROUND_S: f64 = 1.0;
/// A generator further behind schedule than this at the end of an
/// open-loop run is flagged.
const BEHIND_MS: f64 = 10.0;

/// The pipeline every workload runs: 2 hash-partitioned shards of
/// SpaceSaving with 256 counters, batch-aggregating ingest — the
/// configuration `hh serve --shards 2 -m 256` builds.
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
        .shards(SHARDS)
        .routing(Routing::HashPartition)
        .ingest(ShardIngest::Aggregate)
}

/// Maps an error to a message naming what failed.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// What one round of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every start-up measured this round.
    pub setups: Vec<f64>,
    pub items: u64,
    pub ingest_items_per_s: f64,
    pub cpu_ns_per_item: f64,
    pub peak_rss_mb: f64,
    pub query_ms: Vec<f64>,
    pub queries_answered: u64,
    pub accuracy: Accuracy,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures (certificate, `stream_len`, protocol).
    pub problems: Vec<String>,
    pub max_late_ms: f64,
    pub backlog_ms: f64,
    pub open_loop: bool,
}

/// A run's rounds reduced to the reported figures: medians over rounds
/// for every rate, cost, size and latency quantile; the mean recall;
/// sums for counts.
#[derive(Debug, Default)]
struct Summary {
    setup_s: f64,
    setup_samples: usize,
    items: u64,
    ingest_items_per_s: f64,
    cpu_ns_per_item: f64,
    peak_rss_mb: f64,
    query_p50_ms: f64,
    query_p90_ms: f64,
    query_p99_ms: f64,
    query_samples: usize,
    queries_answered: u64,
    recall: f64,
    width_per_pass: f64,
    violations: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    max_late_ms: f64,
    backlog_ms: f64,
    open_loop: bool,
}

impl Summary {
    fn of(rounds: &[Outcome]) -> Summary {
        let med = |f: &dyn Fn(&Outcome) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let setups: Vec<f64> = rounds
            .iter()
            .flat_map(|o| o.setups.iter().copied())
            .collect();
        let pooled: Vec<f64> = rounds
            .iter()
            .flat_map(|o| o.query_ms.iter().copied())
            .collect();
        Summary {
            setup_s: median(&setups),
            setup_samples: setups.len(),
            items: rounds.iter().map(|o| o.items).sum(),
            ingest_items_per_s: med(&|o| o.ingest_items_per_s),
            cpu_ns_per_item: med(&|o| o.cpu_ns_per_item),
            peak_rss_mb: med(&|o| o.peak_rss_mb),
            query_p50_ms: med(&|o| quantile(&o.query_ms, 0.5)),
            query_p90_ms: med(&|o| quantile(&o.query_ms, 0.9)),
            query_p99_ms: quantile(&pooled, 0.99),
            query_samples: pooled.len(),
            queries_answered: rounds.iter().map(|o| o.queries_answered).sum(),
            // A mean: on the hot set every round scores the same number of
            // arrival orders, so this is the mean over all of them.
            recall: rounds.iter().map(|o| o.accuracy.recall).sum::<f64>() / rounds.len() as f64,
            width_per_pass: med(&|o| o.accuracy.width_per_pass),
            violations: rounds.iter().map(|o| o.accuracy.violations).sum(),
            attempted: rounds.iter().map(|o| o.attempted).sum(),
            failed: rounds.iter().map(|o| o.failed).sum(),
            problems: rounds
                .iter()
                .flat_map(|o| o.problems.iter().cloned())
                .collect(),
            max_late_ms: rounds.iter().map(|o| o.max_late_ms).fold(0.0, f64::max),
            backlog_ms: med(&|o| o.backlog_ms),
            open_loop: rounds.iter().any(|o| o.open_loop),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeBurst,
    ServeQuery,
    PipelineHotset,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve_burst" => Some(Workload::ServeBurst),
            "serve_query" => Some(Workload::ServeQuery),
            "pipeline_hotset" => Some(Workload::PipelineHotset),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeBurst => "serve_burst",
            Workload::ServeQuery => "serve_query",
            Workload::PipelineHotset => "pipeline_hotset",
        }
    }

    fn spec(self) -> TraceSpec {
        match self {
            Workload::ServeBurst => TraceSpec {
                ids: 1_000_000,
                pass_len: 2_000_000,
                alpha: 1.5,
            },
            // One pass is one second of offered load.
            Workload::ServeQuery => TraceSpec {
                ids: 1_000_000,
                pass_len: serve::OFFERED_RATE,
                alpha: 1.1,
            },
            // 1024 ids: four times the 256-counter budget.
            Workload::PipelineHotset => TraceSpec {
                ids: 1024,
                pass_len: 1_000_000,
                alpha: 0.1,
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Builds the release `hh` binary from the checkout's own sources.
fn build_hh() -> Result<PathBuf, String> {
    if !Path::new("crates/hh-cli/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/hh-cli not found)".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "hh-cli"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p hh-cli failed ({status})"));
    }
    let hh = target_dir().join("release").join("hh");
    if !hh.is_file() {
        return Err(format!("{} was not built", hh.display()));
    }
    Ok(hh)
}

/// Runs one workload, prints the host stamp, the human summary and the
/// JSON result line; returns whether every check passed.
fn run(args: &Args) -> Result<bool, String> {
    let hh = match args.workload {
        Workload::PipelineHotset => None,
        _ => Some(build_hh()?),
    };
    println!("{}", host_stamp(args));
    let work = target_dir().join("perfbench-work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = measure(args, hh, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(args: &Args, hh: Option<PathBuf>, work: &Path) -> Result<bool, String> {
    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin);
    let spec = args.workload.spec();
    let trace = Trace::new(spec, args.seed);
    let resume_path = work.join("resume.ckpt");
    let env = serve::Env {
        hh: hh.unwrap_or_default(),
        work: work.to_path_buf(),
    };
    // The resumed prefix of `serve_query`: the same multiset in another
    // order, checkpointed once (untimed).
    if args.workload == Workload::ServeQuery {
        let prefix = Trace::new(spec, args.seed ^ 0x5eed_5eed_5eed_5eed);
        serve::write_resume(&prefix, &resume_path)?;
    }
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let round = rounds.len();
        rounds.push(match args.workload {
            Workload::ServeBurst => serve::burst(&env, &trace, ROUND_S, &mut tr)?,
            Workload::ServeQuery => serve::query(&env, &trace, &resume_path, ROUND_S, &mut tr)?,
            Workload::PipelineHotset => hotset::run(&trace, round, ROUND_S, &mut tr)?,
        });
    }
    let n_rounds = rounds.len();
    let out = Summary::of(&rounds);

    let mut metrics = Vec::new();
    let ops_failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    let behind = out.open_loop && out.backlog_ms > BEHIND_MS;
    println!(
        "{} seed {}: {} items in {n_rounds} rounds; medians over rounds: ingest {:.0} items/s, \
         server CPU {:.1} ns/item, peak RSS {:.2} MB; setup {:.6} s (median of {})",
        args.workload.name(),
        args.seed,
        out.items,
        out.ingest_items_per_s,
        out.cpu_ns_per_item,
        out.peak_rss_mb,
        out.setup_s,
        out.setup_samples
    );
    println!(
        "query latency over {} samples: median of round p50 {:.3} ms; of round p90 {:.3} ms and \
         pooled p99 {:.3} ms (not gated)",
        out.query_samples, out.query_p50_ms, out.query_p90_ms, out.query_p99_ms
    );
    println!(
        "top-{}: recall {:.3}, width sum {:.1} per pass, {} certificate violations; \
         ops_failed_frac {ops_failed_frac} ({} of {})",
        trace::TOP_K,
        out.recall,
        out.width_per_pass,
        out.violations,
        out.failed,
        out.attempted
    );
    println!(
        "generator: {} loop, max late {:.3} ms, backlog {:.3} ms{}",
        if out.open_loop { "open" } else { "closed" },
        out.max_late_ms,
        out.backlog_ms,
        if behind {
            " - FELL BEHIND: offered load was not delivered on schedule"
        } else {
            ""
        }
    );
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }

    if args.trace {
        let l = match args.workload {
            Workload::PipelineHotset => ledger::run(&trace.ids, &trace.bytes, None, &mut tr)?,
            _ => {
                let n = LADDER_ITEMS.min(trace.ids.len());
                let items: Vec<String> = trace.ids[..n].iter().map(u64::to_string).collect();
                let end = trace.chunk_offsets(n)[1];
                let resume = match args.workload {
                    Workload::ServeQuery => Some(
                        std::fs::read_to_string(&resume_path)
                            .map_err(|e| format!("read resume checkpoint: {e}"))?,
                    ),
                    _ => None,
                };
                ledger::run(&items, &trace.bytes[..end], resume.as_deref(), &mut tr)?
            }
        };
        // The top in-process layer this workload's end-to-end CPU is
        // compared with: the whole server, or the pipeline alone.
        let top = match args.workload {
            Workload::PipelineHotset => l.pipeline_ns,
            _ => l.server_ns,
        };
        let query_marginal = out.queries_answered as f64 * l.query_ns() / out.items as f64;
        let sum = top + query_marginal;
        let e2e = out.cpu_ns_per_item;
        let rows: [(&str, f64, &str); 28] = [
            ("counters.update_ns_per_item", l.counters_ns, "ns"),
            ("engine.update_ns_per_item", l.engine_ns, "ns"),
            (
                "engine.marginal_ns_per_item",
                l.engine_ns - l.counters_ns,
                "ns",
            ),
            (
                "engine.overhead_ratio",
                l.engine_ns / l.counters_ns,
                "ratio",
            ),
            ("pipeline.ns_per_item", l.pipeline_ns, "ns"),
            (
                "pipeline.marginal_ns_per_item",
                l.pipeline_ns - l.engine_ns,
                "ns",
            ),
            ("pipeline.send_block_p90_us", l.send_block_p90_us, "us"),
            ("pipeline.shard_skew", l.shard_skew, "ratio"),
            ("proto.parse_ns_per_line", l.parse_ns, "ns"),
            ("server.ns_per_item", l.server_ns, "ns"),
            (
                "server.marginal_ns_per_item",
                l.server_ns - l.pipeline_ns,
                "ns",
            ),
            ("query.snapshot_us", l.snapshot_us, "us"),
            ("query.merge_us", l.merge_us, "us"),
            ("query.report_us", l.report_us, "us"),
            ("query.encode_us", l.encode_us, "us"),
            ("query.marginal_ns_per_item", query_marginal, "ns"),
            ("checkpoint.encode_us", l.ckpt_encode_us, "us"),
            ("checkpoint.decode_us", l.ckpt_decode_us, "us"),
            ("checkpoint.bytes", l.ckpt_bytes, "bytes"),
            ("ledger.e2e_cpu_ns_per_item", e2e, "ns"),
            ("ledger.sum_marginal_ns_per_item", sum, "ns"),
            ("ledger.residual_frac", ((e2e - sum) / e2e).abs(), "frac"),
            ("loadgen.max_late_ms", out.max_late_ms, "ms"),
            ("loadgen.backlog_ms", out.backlog_ms, "ms"),
            (
                "traced.ingest_items_per_s",
                out.ingest_items_per_s,
                "items/s",
            ),
            ("traced.query_p50_ms", out.query_p50_ms, "ms"),
            ("traced.query_p90_ms", out.query_p90_ms, "ms"),
            ("tracing.spans", tr.len() as f64, "count"),
        ];
        metrics.extend(rows);
        println!("ledger (CPU ns per item unless noted):");
        for (name, value, unit) in &rows {
            println!("  {name:<34} {value:>16.4} {unit}");
        }
        let spans_dir = target_dir().join("perfbench-spans");
        let path = spans_dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        std::fs::create_dir_all(&spans_dir)
            .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
            .map_err(|e| format!("write spans: {e}"))?;
        println!("{} spans written to {}", tr.len(), path.display());
    } else {
        metrics.extend([
            ("setup_s", out.setup_s, "s"),
            ("ingest_items_per_s", out.ingest_items_per_s, "items/s"),
            ("server_cpu_ns_per_item", out.cpu_ns_per_item, "ns"),
            ("server_peak_rss_mb", out.peak_rss_mb, "MB"),
            ("query_p50_ms", out.query_p50_ms, "ms"),
            ("topk_recall", out.recall, "frac"),
            ("topk_width_sum", out.width_per_pass, "count"),
        ]);
    }

    let mut correct = out.problems.is_empty();
    let mut json = String::from("{\"metrics\":{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            println!("CHECK FAILED: metric {name} is not a finite number");
            correct = false;
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    let _ = write!(
        json,
        "}},\"correct\":{correct},\"attempted\":{},\"failed\":{}}}",
        out.attempted.max(1),
        out.failed
    );
    println!("{json}");
    Ok(correct)
}

/// Host, toolchain, code and seed identification for every result.
fn host_stamp(args: &Args) -> String {
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
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let commit = git_head().unwrap_or_else(|| "none (not a git checkout)".into());
    let digest = source_digest();
    format!(
        "{{\"host\":{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"commit\":{},\
         \"source_fnv64\":\"{digest:016x}\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\
         \"trace\":{}}}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&commit),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"?\"".into())
}

/// The checked-out commit, read straight from `.git` (no git binary).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            }),
        None => Some(head.to_string()),
    }
}

/// FNV-1a over the paths and contents of every `.rs` and `Cargo.toml`
/// under `crates/`, `vendor/` and `perfbench/`: identifies the code
/// measured even where there is no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" {
                    walk(&path, out);
                }
            } else if name.to_string_lossy().ends_with(".rs") || name == "Cargo.toml" {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for top in ["crates", "vendor", "perfbench"] {
        walk(Path::new(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
