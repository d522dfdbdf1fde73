//! The serve workloads: the release `hh serve` binary as a child process,
//! driven over loopback by this one generator process (at most two
//! threads and two connections).

use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hh::net::checkpoint::{self, Checkpoint};
use serde_json::Value;

use crate::span::{SpanId, Tracer};
use crate::trace::{parse_report, score, Trace, TOP_K};
use crate::{err, os, pipeline_config, Outcome, M, SHARDS};

/// Server starts per round (the last one serves the round); every
/// start is a `setup_s` sample.
const SETUP_TRIALS: usize = 2;
/// Closed-loop `?topk` samples per round on the idle server after a burst.
const IDLE_QUERIES: usize = 300;
/// Bytes per `write` in the closed-loop burst.
const WRITE_CHUNK: usize = 256 * 1024;

/// Open-loop ingest rate of `serve_query`, items per second: about 30%
/// of the burst capacity of a 2-core host. At 1.5 M/s (about 40%), spells
/// of a slower host pushed the query p90 from under 3 ms to 11-14 ms.
pub const OFFERED_RATE: u64 = 1_000_000;
/// Open-loop `?topk` rate of `serve_query`, per second.
const QUERY_RATE: f64 = 100.0;
/// Items per open-loop ingest write.
const CHUNK_ITEMS: usize = 2000;
/// Longest wait for any reply before the run is declared failed.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Where the served binary and the run's scratch files live.
#[derive(Debug)]
pub struct Env {
    pub hh: PathBuf,
    pub work: PathBuf,
}

/// A line-oriented client connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(err("connect"))?;
        stream.set_nodelay(true).map_err(err("nodelay"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream.write_all(bytes).map_err(err("write"))
    }

    /// The next reply line, or `None` once `deadline` passes without one.
    /// Every read re-arms `TCP_QUICKACK`: `hh serve` replies without
    /// `TCP_NODELAY`, so a delayed client ACK would let Nagle hold the
    /// next reply until the client's next packet.
    fn read_line_until(&mut self, deadline: Instant) -> Result<Option<String>, String> {
        let fd = self.stream.as_raw_fd();
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(Some(String::from_utf8_lossy(&line[..pos]).into_owned()));
            }
            let wait = deadline.saturating_duration_since(Instant::now());
            if !os::wait_readable(fd, wait).map_err(err("ppoll"))? {
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                continue;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection closed by server".into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    os::quickack(fd);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        self.read_line_until(Instant::now() + IO_TIMEOUT)?
            .ok_or_else(|| "no reply within the I/O timeout".to_string())
    }

    /// Sends one command line and returns the first reply that is not an
    /// error record; error records are counted into `failed`.
    pub fn request(&mut self, line: &str, failed: &mut u64) -> Result<String, String> {
        self.send(format!("{line}\n").as_bytes())?;
        loop {
            let reply = self.read_line()?;
            if reply.contains("\"error\"") {
                *failed += 1;
                continue;
            }
            return Ok(reply);
        }
    }
}

/// A running `hh serve` child; killed and reaped if dropped unstopped.
#[derive(Debug)]
struct ServerProc {
    child: Child,
    reaped: bool,
    err_path: PathBuf,
}

impl ServerProc {
    fn stderr_tail(&self) -> String {
        let text = fs::read_to_string(&self.err_path).unwrap_or_default();
        let lines: Vec<&str> = text.lines().rev().take(5).collect();
        lines.into_iter().rev().collect::<Vec<_>>().join(" | ")
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = os::reap(self.child.id());
        }
    }
}

struct Started {
    server: ServerProc,
    addr: SocketAddr,
    conn: Conn,
    setup_s: f64,
}

/// Spawns `hh serve` and times it from spawn to the first answered
/// `?ping` (the resume decode, when `resume` is given, included).
fn spawn(env: &Env, tag: usize, resume: Option<&Path>) -> Result<Started, String> {
    let addr_file = env.work.join(format!("addr-{tag}"));
    let _ = fs::remove_file(&addr_file);
    let err_path = env.work.join(format!("server-{tag}.stderr"));
    let stderr = File::create(&err_path).map_err(err("create server stderr file"))?;
    let mut cmd = Command::new(&env.hh);
    cmd.args(["serve", "--listen", "127.0.0.1:0", "--shards"])
        .arg(SHARDS.to_string())
        .arg("-m")
        .arg(M.to_string())
        .args(["--algo", "spacesaving", "-k"])
        .arg(TOP_K.to_string())
        .arg("--json")
        .arg("--addr-file")
        .arg(&addr_file);
    if let Some(path) = resume {
        cmd.arg("--snapshot-in").arg(path);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(stderr));
    let t0 = Instant::now();
    let child = cmd.spawn().map_err(err("spawn hh serve"))?;
    let mut server = ServerProc {
        child,
        reaped: false,
        err_path,
    };
    let addr = loop {
        if let Ok(text) = fs::read_to_string(&addr_file) {
            if text.ends_with('\n') {
                break text
                    .trim()
                    .parse::<SocketAddr>()
                    .map_err(err("addr file"))?;
            }
        }
        if let Ok(Some(status)) = server.child.try_wait() {
            server.reaped = true;
            return Err(format!(
                "hh serve exited during start-up ({status}): {}",
                server.stderr_tail()
            ));
        }
        if t0.elapsed() > IO_TIMEOUT {
            return Err("hh serve did not bind in time".into());
        }
        std::thread::sleep(Duration::from_micros(100));
    };
    let mut conn = Conn::connect(addr)?;
    let mut ignored = 0;
    let pong = conn.request("?ping", &mut ignored)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let v: Value = serde_json::from_str(&pong).map_err(err("pong record"))?;
    hh::net::proto::check_version(&v).map_err(err("pong record"))?;
    if v["pong"] != Value::Bool(true) {
        return Err(format!("unexpected ?ping reply: {pong}"));
    }
    Ok(Started {
        server,
        addr,
        conn,
        setup_s,
    })
}

/// What a drained server reported.
struct Stopped {
    routed: u64,
    /// `VmHWM` just before the drain. (`wait4`'s `ru_maxrss` cannot be
    /// used: Linux carries the spawning process's peak into the child's
    /// across `exec`.)
    peak_rss_mb: f64,
    final_line: String,
    usage: os::Rusage,
}

/// `?shutdown`, then reads the final report from the child's stdout and
/// reaps it with its resource usage.
fn stop(mut server: ServerProc, mut conn: Conn, failed: &mut u64) -> Result<Stopped, String> {
    let peak_rss_mb = os::peak_rss_mb(server.child.id()).unwrap_or(f64::NAN);
    let ack = conn.request("?shutdown", failed)?;
    let v: Value = serde_json::from_str(&ack).map_err(err("shutdown record"))?;
    hh::net::proto::check_version(&v).map_err(err("shutdown record"))?;
    let routed = match (&v["shutdown"], v["routed"].as_u64()) {
        (Value::Bool(true), Some(routed)) => routed,
        _ => return Err(format!("unexpected ?shutdown reply: {ack}")),
    };
    drop(conn);
    let mut out = String::new();
    if let Some(mut stdout) = server.child.stdout.take() {
        stdout
            .read_to_string(&mut out)
            .map_err(err("read server stdout"))?;
    }
    let (code, usage) = os::reap(server.child.id()).map_err(err("wait4"))?;
    server.reaped = true;
    if code != Some(0) {
        return Err(format!(
            "hh serve exited with {code:?}: {}",
            server.stderr_tail()
        ));
    }
    let final_line = out
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("hh serve printed no final report")?
        .to_string();
    Ok(Stopped {
        routed,
        peak_rss_mb,
        final_line,
        usage,
    })
}

/// Starts [`SETUP_TRIALS`] servers, stopping all but the last; returns
/// the last and every start-up time.
fn start(
    env: &Env,
    resume: Option<&Path>,
    failed: &mut u64,
) -> Result<(Started, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_TRIALS);
    for tag in 1..SETUP_TRIALS {
        let s = spawn(env, tag, resume)?;
        times.push(s.setup_s);
        stop(s.server, s.conn, failed)?;
    }
    let s = spawn(env, 0, resume)?;
    times.push(s.setup_s);
    Ok((s, times))
}

/// Checks the final drain report and folds the child's usage into `out`.
fn finish(
    out: &mut Outcome,
    stopped: &Stopped,
    trace: &Trace,
    passes_in_summary: u64,
    expected_len: u64,
) {
    if stopped.routed != out.items {
        out.problems.push(format!(
            "?shutdown routed {} items, {} were sent",
            stopped.routed, out.items
        ));
    }
    match parse_report(&stopped.final_line) {
        Ok(report) => {
            if report.stream_len != expected_len {
                out.problems.push(format!(
                    "final stream_len {} != {expected_len}",
                    report.stream_len
                ));
            }
            let acc = score(&report.rows, &trace.counts, passes_in_summary);
            if acc.violations > 0 {
                out.problems.push(format!(
                    "{} final-report intervals miss the true count",
                    acc.violations
                ));
            }
        }
        Err(e) => out.problems.push(format!("final report: {e}")),
    }
    out.cpu_ns_per_item = stopped.usage.cpu_ns() as f64 / out.items as f64;
    out.peak_rss_mb = stopped.peak_rss_mb;
}

/// Scores the drain-ack `?topk` reply.
fn score_drain(out: &mut Outcome, line: &str, trace: &Trace, passes: u64, expected_len: u64) {
    match parse_report(line) {
        Ok(report) => {
            if report.stream_len != expected_len {
                out.problems.push(format!(
                    "drain ?topk stream_len {} != {expected_len}",
                    report.stream_len
                ));
            }
            out.accuracy = score(&report.rows, &trace.counts, passes);
            if out.accuracy.violations > 0 {
                out.problems.push(format!(
                    "{} ?topk intervals miss the true count",
                    out.accuracy.violations
                ));
            }
        }
        Err(e) => out.problems.push(format!("drain ?topk: {e}")),
    }
}

/// One `serve_burst` round: one connection streams whole passes as fast
/// as TCP backpressure allows for `seconds`, then `?topk 50` (the drain
/// ack), idle-server query samples, and `?shutdown`.
pub fn burst(env: &Env, trace: &Trace, seconds: f64, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tr.begin("serve_burst", None);
    let span = tr.begin("setup", Some(root));
    let (started, setups) = start(env, None, &mut out.failed)?;
    tr.end(span, 0);
    out.setups = setups;
    let Started {
        server, mut conn, ..
    } = started;

    let ingest = tr.begin("ingest", Some(root));
    let t0 = Instant::now();
    let mut passes = 0u64;
    let mut max_stall = Duration::ZERO;
    while passes == 0 || t0.elapsed().as_secs_f64() < seconds {
        let pass = tr.begin("pass", Some(ingest));
        for chunk in trace.bytes.chunks(WRITE_CHUNK) {
            let w = Instant::now();
            conn.send(chunk)?;
            max_stall = max_stall.max(w.elapsed());
        }
        tr.end(pass, trace.len());
        passes += 1;
    }
    let last_byte = t0.elapsed();
    out.items = passes * trace.len();
    let drain = tr.begin("drain_topk", Some(ingest));
    let line = conn.request(&format!("?topk {TOP_K}"), &mut out.failed)?;
    let elapsed = t0.elapsed();
    tr.end(drain, 0);
    tr.end(ingest, out.items);
    out.ingest_items_per_s = out.items as f64 / elapsed.as_secs_f64();
    out.max_late_ms = max_stall.as_secs_f64() * 1e3;
    out.backlog_ms = (elapsed - last_byte).as_secs_f64() * 1e3;
    let expected = out.items;
    score_drain(&mut out, &line, trace, passes, expected);

    for _ in 0..IDLE_QUERIES {
        let span = tr.begin("idle_topk", Some(root));
        let t = Instant::now();
        let line = conn.request(&format!("?topk {TOP_K}"), &mut out.failed)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.end(span, 0);
        match parse_report(&line) {
            Ok(r) if r.stream_len == out.items => out.query_ms.push(ms),
            _ => out.failed += 1,
        }
    }
    out.queries_answered = 1 + IDLE_QUERIES as u64;

    let stopped = stop(server, conn, &mut out.failed)?;
    finish(&mut out, &stopped, trace, passes, expected);
    out.attempted = out.items + out.queries_answered + 2 * SETUP_TRIALS as u64;
    tr.end(root, out.items);
    Ok(out)
}

/// Writes the `serve_query` resume checkpoint: one pass of `prefix`
/// through an in-process `Pipeline<String>`, checkpointed at its epoch
/// boundary exactly as `hh serve --checkpoint-every` would.
pub fn write_resume(prefix: &Trace, path: &Path) -> Result<(), String> {
    let items: Vec<String> = prefix.ids.iter().map(u64::to_string).collect();
    let mut p = pipeline_config()
        .spawn::<String>()
        .map_err(err("spawn pipeline"))?;
    p.send_batch(&items).map_err(err("send_batch"))?;
    let shards = p.snapshots().map_err(err("snapshots"))?;
    p.finish().map_err(err("finish"))?;
    let path = path.to_str().ok_or("work path is not UTF-8")?;
    checkpoint::write(
        path,
        &Checkpoint {
            shards,
            unobserved: 0,
        },
    )
    .map_err(err("write checkpoint"))
}

/// What the open-loop ingest writer measured.
struct Paced {
    max_late: Duration,
    backlog: Duration,
}

/// Writes `passes` whole passes of `trace` in [`CHUNK_ITEMS`]-line
/// chunks, chunk `c` at `start + c · CHUNK_ITEMS / OFFERED_RATE`, late
/// or not; lateness is measured from each chunk's due time.
fn paced_ingest(
    conn: &mut Conn,
    trace: &Trace,
    passes: u64,
    start: Instant,
    tr: &mut Tracer,
    parent: SpanId,
) -> Result<Paced, String> {
    let offsets = trace.chunk_offsets(CHUNK_ITEMS);
    let per_pass = offsets.len() - 1;
    let dt = Duration::from_secs_f64(CHUNK_ITEMS as f64 / OFFERED_RATE as f64);
    let mut max_late = Duration::ZERO;
    let mut due = start;
    for c in 0..passes * per_pass as u64 {
        due = start + dt.mul_f64(c as f64);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        max_late = max_late.max(Instant::now().saturating_duration_since(due));
        let k = (c % per_pass as u64) as usize;
        let span = tr.begin("chunk", Some(parent));
        conn.send(&trace.bytes[offsets[k]..offsets[k + 1]])?;
        tr.end(span, CHUNK_ITEMS as u64);
    }
    Ok(Paced {
        max_late,
        backlog: Instant::now().saturating_duration_since(due),
    })
}

/// Open-loop `?topk` sender on its own connection: query `i` is due at
/// `start + i · every` and timed from then to its reply.
struct QueryLoop {
    latencies_ms: Vec<f64>,
    sent: u64,
    failed: u64,
    tracer: Tracer,
}

fn query_loop(
    conn: &mut Conn,
    start: Instant,
    n: u64,
    every: Duration,
    min_len: u64,
    mut tracer: Tracer,
) -> QueryLoop {
    let command = format!("?topk {TOP_K}\n");
    let mut pending: VecDeque<(Instant, SpanId)> = VecDeque::new();
    let mut latencies_ms = Vec::with_capacity(n as usize);
    let mut sent = 0u64;
    let mut failed = 0u64;
    loop {
        let next_due = start + every.mul_f64(sent as f64);
        let now = Instant::now();
        if sent < n && now >= next_due {
            let span = tracer.begin("topk", None);
            if conn.send(command.as_bytes()).is_err() {
                failed += n - sent + pending.len() as u64;
                break;
            }
            pending.push_back((next_due, span));
            sent += 1;
            continue;
        }
        if sent >= n && pending.is_empty() {
            break;
        }
        let deadline = if sent < n { next_due } else { now + IO_TIMEOUT };
        if pending.is_empty() {
            std::thread::sleep(deadline.saturating_duration_since(now));
            continue;
        }
        match conn.read_line_until(deadline) {
            Ok(Some(line)) => {
                let got = Instant::now();
                let Some((due, span)) = pending.pop_front() else {
                    failed += 1;
                    continue;
                };
                tracer.end(span, 0);
                match parse_report(&line) {
                    Ok(r) if r.stream_len >= min_len => {
                        latencies_ms.push(got.saturating_duration_since(due).as_secs_f64() * 1e3)
                    }
                    _ => failed += 1,
                }
            }
            Ok(None) if sent >= n => {
                failed += pending.len() as u64;
                break;
            }
            Ok(None) => {}
            Err(_) => {
                failed += n - sent + pending.len() as u64;
                break;
            }
        }
    }
    QueryLoop {
        latencies_ms,
        sent,
        failed,
        tracer,
    }
}

/// One `serve_query` round: resume from a checkpoint, ingest open loop
/// at [`OFFERED_RATE`] on one connection while a second sends `?topk 50`
/// open loop at 100/s, for `seconds`.
pub fn query(
    env: &Env,
    trace: &Trace,
    resume: &Path,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let root = tr.begin("serve_query", None);
    let span = tr.begin("setup", Some(root));
    let (started, setups) = start(env, Some(resume), &mut out.failed)?;
    tr.end(span, 0);
    out.setups = setups;
    let Started {
        server,
        addr,
        mut conn,
        ..
    } = started;
    let mut qconn = Conn::connect(addr)?;

    let passes = (seconds * OFFERED_RATE as f64 / trace.len() as f64)
        .round()
        .max(1.0) as u64;
    let n_queries = (seconds * QUERY_RATE).round().max(1.0) as u64;
    let every = Duration::from_secs_f64(1.0 / QUERY_RATE);
    let prefix_len = trace.len();
    let t0 = Instant::now() + Duration::from_millis(5);
    // Queries fall due half a write period after ingest writes, so the two
    // schedules never coincide.
    let q0 = t0 + Duration::from_secs_f64(CHUNK_ITEMS as f64 / OFFERED_RATE as f64 / 2.0);

    let ingest = tr.begin("ingest", Some(root));
    let qtracer = tr.fork();
    let (paced, ql) = std::thread::scope(|s| {
        let queries = s.spawn(|| query_loop(&mut qconn, q0, n_queries, every, prefix_len, qtracer));
        let paced = paced_ingest(&mut conn, trace, passes, t0, tr, ingest);
        (paced, queries.join())
    });
    let paced = paced?;
    let ql = ql.map_err(|_| "query thread panicked".to_string())?;
    out.items = passes * trace.len();
    let drain = tr.begin("drain_topk", Some(ingest));
    let line = conn.request(&format!("?topk {TOP_K}"), &mut out.failed)?;
    let elapsed = t0.elapsed();
    tr.end(drain, 0);
    tr.end(ingest, out.items);
    tr.absorb(ql.tracer);
    out.ingest_items_per_s = out.items as f64 / elapsed.as_secs_f64();
    out.max_late_ms = paced.max_late.as_secs_f64() * 1e3;
    out.backlog_ms = paced.backlog.as_secs_f64() * 1e3;
    out.open_loop = true;
    out.query_ms = ql.latencies_ms;
    out.failed += ql.failed;
    out.queries_answered = ql.sent + 1;
    let expected = out.items + prefix_len;
    score_drain(&mut out, &line, trace, passes + 1, expected);
    drop(qconn);

    let stopped = stop(server, conn, &mut out.failed)?;
    finish(&mut out, &stopped, trace, passes + 1, expected);
    out.attempted = out.items + out.queries_answered + 2 * SETUP_TRIALS as u64;
    tr.end(root, out.items);
    Ok(out)
}
