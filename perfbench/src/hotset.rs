//! `pipeline_hotset`: the in-process library with no network, no
//! `String` and no query on the ingest path — counter churn and routing
//! do all the work.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hh::engine::Engine;

use crate::span::Tracer;
use crate::trace::{score, Row, Trace, TOP_K};
use crate::{err, os, pipeline_config, Outcome};

/// Pipeline spawns per round; each `spawn()` time is a `setup_s` sample.
const SPAWN_TRIALS: usize = 20;
/// Items per `send_batch` call.
const SEND_BATCH: usize = 8192;
/// Epoch queries timed per round after the ingest phase.
const QUERIES: usize = 30;
/// One-pass pipelines per round whose final top-k is scored for recall,
/// each fed the pass rotated to a different start. On a near-uniform hot
/// set one summary's top-k recall is mostly chance, so the reported
/// recall is the mean over arrival orders.
const RECALL_TRIALS: usize = 32;

/// Round `round`: one producer replays whole passes with `send_batch`
/// for `seconds`, then `finish()`; then [`RECALL_TRIALS`] one-pass
/// pipelines are scored, and the last answers the timed epoch queries.
pub fn run(trace: &Trace, round: usize, seconds: f64, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tr.begin("pipeline_hotset", None);
    let config = pipeline_config();

    let span = tr.begin("setup", Some(root));
    let mut spawn_s = Vec::with_capacity(SPAWN_TRIALS);
    for _ in 0..SPAWN_TRIALS {
        let t = Instant::now();
        let p = config.spawn::<u64>().map_err(err("spawn"))?;
        spawn_s.push(t.elapsed().as_secs_f64());
        p.finish().map_err(err("finish"))?;
    }
    tr.end(span, 0);
    out.setups = spawn_s;

    let mut p = config.spawn::<u64>().map_err(err("spawn"))?;
    let ingest = tr.begin("ingest", Some(root));
    let cpu0 = os::process_cpu_ns();
    let t0 = Instant::now();
    let mut passes = 0u64;
    let mut max_block = Duration::ZERO;
    while passes == 0 || t0.elapsed().as_secs_f64() < seconds {
        for batch in trace.ids.chunks(SEND_BATCH) {
            let span = tr.begin("send_batch", Some(ingest));
            let t = Instant::now();
            p.send_batch(batch).map_err(err("send_batch"))?;
            max_block = max_block.max(t.elapsed());
            tr.end(span, batch.len() as u64);
        }
        passes += 1;
    }
    let last_send = t0.elapsed();
    let span = tr.begin("finish", Some(ingest));
    let engine = p.finish().map_err(err("finish"))?;
    tr.end(span, 0);
    let elapsed = t0.elapsed();
    let cpu = os::process_cpu_ns().saturating_sub(cpu0);
    out.items = passes * trace.len();
    tr.end(ingest, out.items);
    out.ingest_items_per_s = out.items as f64 / elapsed.as_secs_f64();
    out.cpu_ns_per_item = cpu as f64 / out.items as f64;
    out.max_late_ms = max_block.as_secs_f64() * 1e3;
    out.backlog_ms = (elapsed - last_send).as_secs_f64() * 1e3;

    if engine.stream_len() != out.items {
        out.problems.push(format!(
            "finish() stream_len {} != {} items sent",
            engine.stream_len(),
            out.items
        ));
    }
    let certified = score(&top_rows(&engine), &trace.counts, passes);
    out.accuracy.width_per_pass = certified.width_per_pass;
    out.accuracy.violations = certified.violations;

    let n = trace.ids.len();
    let mut recall = 0.0;
    let mut last = None;
    for trial in 0..RECALL_TRIALS {
        let start = (round * RECALL_TRIALS + trial) * 7919 % n;
        let mut q = config.spawn::<u64>().map_err(err("spawn"))?;
        q.send_batch(&trace.ids[start..])
            .map_err(err("send_batch"))?;
        q.send_batch(&trace.ids[..start])
            .map_err(err("send_batch"))?;
        let merged = q.merged().map_err(err("merged"))?;
        let acc = score(&top_rows(&merged), &trace.counts, 1);
        recall += acc.recall / RECALL_TRIALS as f64;
        out.accuracy.violations += acc.violations;
        if let Some(prev) = last.replace(q) {
            prev.finish().map_err(err("finish"))?;
        }
    }
    out.accuracy.recall = recall;
    if out.accuracy.violations > 0 {
        out.problems.push(format!(
            "{} top-k intervals miss the true count",
            out.accuracy.violations
        ));
    }

    let mut q = last.ok_or("no recall trial ran")?;
    for _ in 0..QUERIES {
        let span = tr.begin("epoch_topk", Some(root));
        let t = Instant::now();
        let merged = q.merged().map_err(err("merged"))?;
        let json = hh::net::proto::top_json(&merged, TOP_K).map_err(err("top_json"))?;
        out.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end(span, 0);
        if merged.stream_len() != trace.len() {
            out.failed += 1;
        }
        black_box(json);
    }
    q.finish().map_err(err("finish"))?;
    out.queries_answered = QUERIES as u64;
    out.peak_rss_mb = os::peak_rss_mb(std::process::id()).unwrap_or(f64::NAN);
    out.attempted = out.items + (QUERIES + SPAWN_TRIALS + RECALL_TRIALS) as u64;
    tr.end(root, out.items);
    Ok(out)
}

fn top_rows(engine: &Engine<u64>) -> Vec<Row> {
    engine
        .report()
        .top_k(TOP_K)
        .into_iter()
        .map(|r| Row {
            item: r.item,
            lower: r.lower,
            upper: r.upper,
        })
        .collect()
}
