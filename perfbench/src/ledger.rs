//! The traced run's per-layer ledger: the workload's own trace and item
//! type driven through the stack one layer at a time, cumulatively, with
//! a span around every call into a layer.
//!
//! Ingest layers are measured in CPU nanoseconds per item, so their
//! marginal costs add up and can be compared with the served process's
//! CPU time per item (`ledger.residual_frac`).

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

use hh::counters::{FrequencyEstimator, SpaceSaving};
use hh::engine::{AlgoKind, Engine, EngineConfig, Snapshot};
use hh::net::checkpoint::{self, Checkpoint};
use hh::net::{proto, NetOptions, ServeItem, ServeOptions, Server};
use hh::pipeline::hash_shard;

use crate::serve::Conn;
use crate::span::{SpanId, Tracer};
use crate::trace::{median, TOP_K};
use crate::{err, os, pipeline_config, M, SHARDS};

/// Repetitions of each ingest layer; the median is reported.
const REPS: usize = 3;
/// Repetitions of each query-path step.
const QUERY_REPS: usize = 15;
/// Arrivals per batch, as the shard router ships them.
const BATCH: usize = 8192;

/// Per-layer costs of one trace.
#[derive(Debug, Default)]
pub struct Ladder {
    pub counters_ns: f64,
    pub engine_ns: f64,
    pub pipeline_ns: f64,
    pub send_block_p90_us: f64,
    pub shard_skew: f64,
    pub parse_ns: f64,
    pub server_ns: f64,
    pub snapshot_us: f64,
    pub merge_us: f64,
    pub report_us: f64,
    pub encode_us: f64,
    pub ckpt_encode_us: f64,
    pub ckpt_decode_us: f64,
    pub ckpt_bytes: f64,
}

impl Ladder {
    /// CPU time one `?topk` costs, in nanoseconds.
    pub fn query_ns(&self) -> f64 {
        (self.snapshot_us + self.merge_us + self.report_us + self.encode_us) * 1e3
    }
}

fn per_item(ns: u64, items: usize) -> f64 {
    ns as f64 / items.max(1) as f64
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs `f` [`REPS`] times inside spans named `name` and returns the
/// median of what it reports.
fn repeat(
    tr: &mut Tracer,
    parent: SpanId,
    name: &'static str,
    items: usize,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let mut values = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let span = tr.begin(name, Some(parent));
        values.push(f()?);
        tr.end(span, items as u64);
    }
    Ok(median(&values))
}

/// Measures every layer on `items` (the workload's item type) and
/// `lines` (the same items rendered as protocol lines). `resume` is the
/// checkpoint text a resumed server folds into every query.
pub fn run<I: ServeItem>(
    items: &[I],
    lines: &[u8],
    resume: Option<&str>,
    tr: &mut Tracer,
) -> Result<Ladder, String> {
    let n = items.len();
    let mut l = Ladder::default();
    let root = tr.begin("ledger", None);
    let mut parts: Vec<Vec<I>> = vec![Vec::new(); SHARDS];
    for item in items {
        parts[hash_shard(SHARDS, item)].push(item.clone());
    }

    // L0: the counter backend alone, per shard partition.
    l.counters_ns = repeat(tr, root, "counters.update_batch", n, || {
        let cpu = os::thread_cpu_ns();
        for part in &parts {
            let mut ss = SpaceSaving::<I>::new(M);
            for batch in part.chunks(BATCH) {
                ss.update_batch(black_box(batch));
            }
            black_box(&ss);
        }
        Ok(per_item(os::thread_cpu_ns() - cpu, n))
    })?;

    // L1: the same through `Engine` dispatch.
    let engine_config = EngineConfig::new(AlgoKind::SpaceSaving).counters(M);
    l.engine_ns = repeat(tr, root, "engine.update_batch", n, || {
        let cpu = os::thread_cpu_ns();
        for part in &parts {
            let mut e = engine_config.build::<I>().map_err(err("engine"))?;
            for batch in part.chunks(BATCH) {
                e.update_batch(black_box(batch));
            }
            black_box(&e);
        }
        Ok(per_item(os::thread_cpu_ns() - cpu, n))
    })?;
    drop(parts);

    // L2: routing, channels and shard workers (all threads' CPU).
    let mut blocks = Vec::new();
    let mut skews = Vec::new();
    l.pipeline_ns = repeat(tr, root, "pipeline.send_batch+finish", n, || {
        let cpu = os::process_cpu_ns();
        let mut p = pipeline_config().spawn::<I>().map_err(err("spawn"))?;
        for batch in items.chunks(BATCH) {
            p.send_batch(batch).map_err(err("send_batch"))?;
        }
        p.flush().map_err(err("flush"))?;
        let stats = p.stats();
        black_box(p.finish().map_err(err("finish"))?);
        let ns = per_item(os::process_cpu_ns() - cpu, n);
        let p90 = stats.shards.iter().map(|s| s.send_block_ns.p90).max();
        blocks.push(p90.unwrap_or(0) as f64 / 1e3);
        skews.push(stats.imbalance);
        Ok(ns)
    })?;
    l.send_block_p90_us = median(&blocks);
    l.shard_skew = median(&skews);

    // L3: protocol line parsing over the rendered trace.
    let text = std::str::from_utf8(lines).map_err(err("trace text"))?;
    let line_count = text.lines().count();
    l.parse_ns = repeat(tr, root, "proto.parse_line", line_count, || {
        let cpu = os::thread_cpu_ns();
        for line in text.lines() {
            black_box(proto::parse_line(black_box(line)));
        }
        Ok(per_item(os::thread_cpu_ns() - cpu, line_count))
    })?;

    // L4: the whole `Server<String>` on loopback, minus the client.
    l.server_ns = repeat(tr, root, "server.loopback", line_count, || {
        server_cpu_ns(lines, line_count as u64).map(|ns| ns / line_count as f64)
    })?;

    query_path(&mut l, items, resume, tr, root)?;
    tr.end(root, n as u64);
    Ok(l)
}

/// One in-process `Server<String>` ingest of `lines`; returns the
/// process CPU spent minus the client thread's own.
fn server_cpu_ns(lines: &[u8], expect: u64) -> Result<f64, String> {
    let opts = ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
        .shards(Some(SHARDS))
        .top_k(TOP_K);
    let server: Server<String> =
        Server::bind(opts, NetOptions::new().tcp("127.0.0.1:0")).map_err(err("bind"))?;
    let addr: SocketAddr = server.tcp_addr().ok_or("server has no TCP address")?;
    let cpu = os::process_cpu_ns();
    let client_cpu = os::thread_cpu_ns();
    let (engine, client) = std::thread::scope(|s| {
        let handle = s.spawn(move || server.run(&mut std::io::sink()));
        let client = (|| {
            let mut conn = Conn::connect(addr)?;
            conn.send(lines)?;
            let mut failed = 0;
            conn.request("?shutdown", &mut failed)?;
            Ok::<u64, String>(failed)
        })();
        (handle.join(), client)
    });
    let client_cpu = os::thread_cpu_ns() - client_cpu;
    let total = os::process_cpu_ns() - cpu;
    let engine = engine
        .map_err(|_| "server thread panicked".to_string())?
        .map_err(err("server"))?;
    if client? != 0 || engine.stream_len() != expect {
        return Err(format!(
            "in-process server ingested {} of {expect} lines",
            engine.stream_len()
        ));
    }
    Ok(total.saturating_sub(client_cpu) as f64)
}

/// The query path on a loaded pipeline: epoch snapshots, the replay
/// merge (resume snapshot included), `top_k`, NDJSON encode, and the
/// checkpoint envelope of the same epoch.
fn query_path<I: ServeItem>(
    l: &mut Ladder,
    items: &[I],
    resume: Option<&str>,
    tr: &mut Tracer,
    root: SpanId,
) -> Result<(), String> {
    let resume: Option<Snapshot<I>> = match resume {
        Some(text) => {
            let ckpt = checkpoint::decode::<I>(text).map_err(err("resume decode"))?;
            checkpoint::merge_to_snapshot(ckpt.shards).map_err(err("resume merge"))?
        }
        None => None,
    };
    let mut p = pipeline_config().spawn::<I>().map_err(err("spawn"))?;
    for batch in items.chunks(BATCH) {
        p.send_batch(batch).map_err(err("send_batch"))?;
    }
    let mut steps: [Vec<f64>; 7] = Default::default();
    for _ in 0..QUERY_REPS {
        let span = tr.begin("query.snapshots", Some(root));
        let t = Instant::now();
        let snaps = p.snapshots().map_err(err("snapshots"))?;
        steps[0].push(us_since(t));
        tr.end(span, 0);

        let mut shards = snaps.clone();
        let span = tr.begin("query.merge", Some(root));
        let t = Instant::now();
        let mut it = snaps.into_iter();
        let first = it.next().ok_or("pipeline returned no snapshots")?;
        let mut merged = Engine::from_snapshot(first).map_err(err("merge"))?;
        for snap in it {
            merged.merge_snapshot(&snap).map_err(err("merge"))?;
        }
        if let Some(r) = &resume {
            merged.merge_snapshot(r).map_err(err("merge"))?;
        }
        steps[1].push(us_since(t));
        tr.end(span, 0);

        let span = tr.begin("query.top_k", Some(root));
        let t = Instant::now();
        black_box(merged.report().top_k(TOP_K));
        steps[2].push(us_since(t));
        tr.end(span, 0);

        let span = tr.begin("query.top_json", Some(root));
        let t = Instant::now();
        black_box(proto::top_json(&merged, TOP_K).map_err(err("encode"))?);
        steps[3].push(us_since(t));
        tr.end(span, 0);

        if let Some(r) = &resume {
            shards.push(r.clone());
        }
        let ckpt = Checkpoint {
            shards,
            unobserved: 0,
        };
        let span = tr.begin("checkpoint.encode", Some(root));
        let t = Instant::now();
        let text = checkpoint::encode(&ckpt).map_err(err("checkpoint encode"))?;
        steps[4].push(us_since(t));
        tr.end(span, 0);
        steps[6].push(text.len() as f64);

        let span = tr.begin("checkpoint.decode", Some(root));
        let t = Instant::now();
        black_box(checkpoint::decode::<I>(&text).map_err(err("checkpoint decode"))?);
        steps[5].push(us_since(t));
        tr.end(span, 0);
    }
    black_box(p.finish().map_err(err("finish"))?);
    l.snapshot_us = median(&steps[0]);
    l.merge_us = median(&steps[1]);
    l.report_us = median(&steps[2]);
    l.encode_us = median(&steps[3]);
    l.ckpt_encode_us = median(&steps[4]);
    l.ckpt_decode_us = median(&steps[5]);
    l.ckpt_bytes = median(&steps[6]);
    Ok(())
}
