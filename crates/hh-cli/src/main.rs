//! `hh` — command-line heavy hitters over the unified `hh::engine` API.
//!
//! Reads a stream of items (one per line; with `--weighted`, lines are
//! `item weight`, the weight counted in thousandths) from stdin or a file
//! and reports heavy hitters with the
//! PODS 2009 residual guarantees. Engine state round-trips through
//! `--snapshot-out`/`--snapshot-in`, and `hh merge` combines snapshots
//! produced on different machines (Theorem 11).
//!
//! ```text
//! hh topk  -k 10 -m 256 [--algo spacesaving|frequent|...] [FILE]
//! hh topk  -k 10 --eps 0.001 [FILE]            # Theorem 6/7 auto-sizing
//! hh heavy --phi 0.01 -m 256 [--weighted] [FILE]
//! hh estimate -m 256 --items 1,2,3 [FILE]
//! hh residual -k 10 -m 256 [FILE]
//! hh topk --weighted -k 5 [FILE]               # lines: "<item> <weight>"
//! hh topk --snapshot-out shard.json [FILE]     # checkpoint after ingest
//! hh merge a.json b.json [--snapshot-out merged.json]
//! hh gen --zipf 10000,1000000,1.2,7            # synthetic trace to stdout
//! hh serve --shards 4 --report-every 100000 -k 10 [FILE]
//! #   sharded pipeline ingest (hh::pipeline) with live top-k reports
//! hh serve --stats-every 50000 --json [FILE]   # + NDJSON telemetry records
//! hh serve --listen 127.0.0.1:7777             # network server (docs/PROTOCOL.md)
//! hh client --connect 127.0.0.1:7777 --query 'topk 5' [FILE]
//! hh stats run.ndjson                          # validate/render a stats stream
//! ```
//!
//! Add `--json` for machine-readable output. Items are arbitrary
//! whitespace-free strings, held as [`Key`]s (inline up to 22 bytes).

#![deny(unsafe_code)]

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write as _};
use std::process::ExitCode;

mod cli;
mod weight;

use cli::{parse_args, Command, Options};
use hh::counters::{Confidence, Key};
use hh::engine::{Engine, HeavyHitterEntry, Report, ReportEntry, Snapshot};
use hh::net::checkpoint::{self, Checkpoint};
use hh::net::{proto, NetOptions, Record, ServeOptions, ServeSession, Server};
use hh::pipeline::{hash_shard, ShardedView};
use hh::Error;

fn main() -> ExitCode {
    // Chaos runs arm HH_FAULT_PLAN before anything else touches the
    // pipeline. Errors loudly on a malformed spec — or when the plan is
    // set but this binary was built without `--features fault-injection`,
    // where silently ignoring it would make a chaos run vacuously green.
    if let Err(e) = hh::fault::install_from_env() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };

    let result = match (opts.command, &opts.net) {
        (Command::Gen, _) => run_gen(&opts),
        // `merge` reads its FILEs as snapshots and ingests nothing.
        (Command::Merge, _) => run(opts, std::io::empty()),
        // The network server never opens FILE/stdin: all ingest arrives
        // over the socket.
        (Command::Serve, Some(net)) => {
            let stdout = std::io::stdout();
            run_serve_net(&opts.serve, net, &mut stdout.lock())
        }
        _ => {
            let reader: Box<dyn Read> = match opts.inputs.first() {
                Some(path) => match std::fs::File::open(path) {
                    Ok(f) => Box::new(f),
                    Err(e) => {
                        eprintln!("error: cannot open {path}: {e}");
                        return ExitCode::from(1);
                    }
                },
                // With a snapshot to resume from and no FILE, query the
                // snapshot directly instead of blocking on stdin.
                None if opts.snapshot_in.is_some() && opts.command != Command::Client => {
                    Box::new(std::io::empty())
                }
                None => Box::new(std::io::stdin()),
            };
            match opts.command {
                Command::Serve => {
                    let stdout = std::io::stdout();
                    run_serve(&opts, BufReader::new(reader), &mut stdout.lock())
                        .map(|()| String::new())
                }
                Command::Client => run_client(&opts, BufReader::new(reader)),
                Command::Stats => run_stats(&opts, BufReader::new(reader)),
                _ => run(opts, BufReader::new(reader)),
            }
        }
    };

    match result {
        // `serve` writes every record itself, the final one too.
        Ok(output) if output.is_empty() => ExitCode::SUCCESS,
        Ok(output) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                // A reader that stopped early (`| head`) took all it wanted.
                Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                    eprintln!("error: cannot write output: {e}");
                    ExitCode::from(1)
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// The offline commands: load the snapshot files (`merge`'s FILEs or
/// `--snapshot-in`) through [`checkpoint::load_shards`], ingest `reader`,
/// answer, and write `--snapshot-out`. The loaded shards (or one fresh
/// engine) take each item at its [`hash_shard`], stay one hash partition
/// and answer through a [`ShardedView`], as `hh serve` does. With
/// `--weighted` (or for `merge`, weighted files) every line carries a
/// weight, added in thousandths to a weighted engine.
fn run(opts: Options, mut reader: impl BufRead) -> Result<String, Error> {
    let paths = match opts.command {
        Command::Merge => opts.inputs.as_slice(),
        _ => opts.snapshot_in.as_slice(),
    };
    let (ckpt, fallbacks) = checkpoint::load_shards(paths)?;
    fallbacks.iter().for_each(warn_fallback);
    let weighted = match opts.command {
        Command::Merge if ckpt.shards.is_empty() => {
            return Err(Error::parse("the snapshot files hold no snapshots"))
        }
        Command::Merge => ckpt.shards.iter().any(Snapshot::is_weighted),
        _ => opts.weighted,
    };
    let mut shards = ckpt
        .shards
        .into_iter()
        .map(Engine::from_snapshot)
        .collect::<Result<Vec<Engine<Key>>, Error>>()?;
    if shards.is_empty() {
        let engine = opts.engine_config().build()?;
        shards.push(if weighted {
            engine.into_weighted()?
        } else {
            engine
        });
    }
    if shards.iter().any(|engine| engine.is_weighted() != weighted) {
        let kind = |weighted| {
            if weighted {
                "weighted snapshots (--weighted)"
            } else {
                "count snapshots"
            }
        };
        let (expected, found) = (kind(weighted).to_string(), kind(!weighted).to_string());
        return Err(Error::SnapshotMismatch { expected, found });
    }

    // Items route to their shard only when there is more than one.
    let shard_count = shards.len();
    let owner = |item: &Key| match shard_count {
        1 => 0,
        n => hash_shard(n, item),
    };
    // Chunked ingest (one `Engine::update_batch` per shard chunk as the
    // reader fills it): each buffer goes through the engine's batched fast
    // path — run-length / pre-aggregated per backend — instead of one
    // dispatch per line. A weighted line is one `update_by`.
    let mut chunks: Vec<Vec<Key>> = vec![Vec::new(); shard_count];
    let shard_totals = shards.iter().map(Engine::stream_len);
    let mut total = shard_totals.fold(ckpt.unobserved, u64::saturating_add);
    let (mut line, mut lineno) = (String::new(), 0);
    while let Some(text) = next_item(&mut reader, &mut line, &mut lineno)? {
        if weighted {
            let (item, units) = weighted_line(text, lineno)?;
            total = total.checked_add(units).ok_or_else(|| {
                let largest = weight::text(u64::MAX);
                Error::Overflow(format!(
                    "line {lineno}: the total weight would pass {largest}"
                ))
            })?;
            shards[owner(&item)].update_by(item, units);
            continue;
        }
        let item = Key::from(text);
        let shard = owner(&item);
        chunks[shard].push(item);
        if chunks[shard].len() == INGEST_CHUNK {
            shards[shard].update_batch(&chunks[shard]);
            chunks[shard].clear();
        }
    }
    for (engine, chunk) in shards.iter_mut().zip(&chunks) {
        if !chunk.is_empty() {
            engine.update_batch(chunk);
        }
    }

    let lost = vec![0; shard_count];
    let view = ShardedView::new(&shards, &lost, ckpt.unobserved)?;
    let unit = if weighted { &WEIGHTS } else { &COUNTS };
    let out = answer(&opts, &view.report(), unit)?;
    if let Some(path) = &opts.snapshot_out {
        let ckpt = Checkpoint {
            shards: shards.iter().map(Engine::snapshot).collect(),
            unobserved: ckpt.unobserved,
        };
        checkpoint::write(path, &ckpt)?;
    }
    Ok(out)
}

/// Lines buffered per [`Engine::update_batch`] chunk: large enough that the
/// per-chunk dispatch and pre-aggregation setup are noise, small enough
/// to stay cache-resident.
const INGEST_CHUNK: usize = 8192;

/// An `item weight` line's item and weight in thousandths; `lineno` names
/// the line in errors.
fn weighted_line(text: &str, lineno: u64) -> Result<(Key, u64), Error> {
    let mut parts = text.split_whitespace();
    let (Some(item), Some(w)) = (parts.next(), parts.next()) else {
        return Err(Error::parse(format!(
            "line {lineno}: weighted mode needs 'item weight' lines, got {text:?}"
        )));
    };
    let units = weight::parse(w)
        .map_err(|why| Error::parse(format!("line {lineno}: weight {w:?} {why}")))?;
    Ok((Key::from(item), units))
}

/// Reads the next non-blank line into `buf` and returns it trimmed, or
/// `None` at the end of the input; `lineno` counts the lines read, blank
/// ones included. `buf` is reused, so with [`Key`] items an input line
/// costs no allocation.
fn next_item<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut String,
    lineno: &mut u64,
) -> Result<Option<&'b str>, Error> {
    loop {
        buf.clear();
        if reader.read_line(buf)? == 0 {
            return Ok(None);
        }
        *lineno += 1;
        if !buf.trim().is_empty() {
            return Ok(Some(buf.trim()));
        }
    }
}

/// The one TopK/Heavy/Estimate/Residual dispatch (`merge` reports its
/// top-k), over counts or weights.
fn answer(opts: &Options, report: &Report<'_, Key>, unit: &Unit) -> Result<String, Error> {
    let total = report.total();
    Ok(match opts.command {
        Command::TopK | Command::Merge => {
            render_counts(&report.top_k(opts.k), total, unit, opts.json)
        }
        Command::Heavy => {
            let hits = report.heavy_hitters(opts.phi)?;
            render_heavy(&hits, opts.phi, total, unit, opts.json)
        }
        Command::Estimate => {
            let rows: Vec<ReportEntry<Key>> = opts.items.iter().map(|i| report.entry(i)).collect();
            render_counts(&rows, total, unit, opts.json)
        }
        Command::Residual => {
            let res = report.residual(opts.k);
            if opts.json {
                format!(
                    "{{\"k\":{},\"residual_estimate\":{},\"{}\":{}}}",
                    opts.k,
                    (unit.json)(res),
                    unit.total_key,
                    (unit.json)(total)
                )
            } else {
                format!(
                    "F1^res({}) ~= {}   ({} {})",
                    opts.k,
                    (unit.text)(res),
                    unit.total,
                    (unit.text)(total)
                )
            }
        }
        Command::Gen | Command::Serve | Command::Client | Command::Stats => {
            unreachable!("handled in main")
        }
    })
}

/// Tells the operator that a checkpoint's previous generation answered:
/// up to one checkpoint interval of the stream is missing.
fn warn_fallback(fallback: &checkpoint::Fallback) {
    eprintln!("warning: {fallback}");
}

/// `hh serve`: long-lived sharded ingest over the `hh::pipeline` service,
/// configured through the same [`hh::net::ServeOptions`] the network
/// server uses. N worker shards (default: available cores) each own an
/// engine built from the same config; the session writes every record to
/// `out` in the order it shares with `--listen` (see [`ServeSession`]):
/// live top-k reports from the shards' epoch view (each item's
/// owner-shard interval) while ingest continues, then the final report
/// before `--snapshot-out`. With `--snapshot-in`, shard j resumes from
/// checkpoint snapshot j, so the shard counts must match (an unset
/// `--shards` takes the checkpoint's).
fn run_serve(
    opts: &Options,
    mut reader: impl BufRead,
    out: &mut impl std::io::Write,
) -> Result<(), Error> {
    let mut session: ServeSession<Key> = ServeSession::spawn(&opts.serve)?;
    if let Some(fallback) = session.fallback() {
        warn_fallback(fallback);
    }
    let mut render = |record: Record<'_, Key>| serve_record(record, opts.json);
    let (mut line, mut lineno) = (String::new(), 0);
    // A failed record write stops the reading; the drain still runs, so
    // `--snapshot-out` holds everything sent so far.
    let mut written = Ok(());
    while let Some(item) = next_item(&mut reader, &mut line, &mut lineno)? {
        // Per-item sends keep cadence boundaries exact: a report due at
        // item N fires at item N, not at the end of a chunk containing it.
        let due = session.send(Key::from(item))?;
        if due.any() {
            written = session.emit(due, out, &mut render);
            if written.is_err() {
                break;
            }
        }
    }
    let drained = session.drain(out, &mut render).map(drop);
    match drained.and(written) {
        // A reader that stopped early took all it wanted; the drain still
        // wrote the checkpoint.
        Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        result => result,
    }
}

/// `hh serve --listen`: the network server. Binds the configured
/// listeners, installs SIGTERM/SIGINT drain handlers, and multiplexes
/// client connections onto the shard pipeline until a drain is requested
/// (signal or in-band `?shutdown`). Query responses go to the clients;
/// every other record, the final one included, goes to `out` as NDJSON,
/// and `--snapshot-out` captures the drained shards for a `--snapshot-in`
/// resume, where shard j resumes from snapshot j and the shard counts
/// must match. Returns nothing to print.
fn run_serve_net(
    serve: &ServeOptions,
    net: &NetOptions,
    out: &mut impl std::io::Write,
) -> Result<String, Error> {
    let server: Server<Key> = Server::bind(serve.clone(), net.clone())?;
    if let Some(fallback) = server.fallback() {
        warn_fallback(fallback);
    }
    if let Some(addr) = server.tcp_addr() {
        eprintln!("listening on {addr}");
    }
    hh::net::sys::install_drain_signal_handlers();
    server.run(out)?;
    Ok(String::new())
}

/// `hh client`: stream FILE/stdin to a `serve --listen` server, then send
/// each `--query` (and `--shutdown`, if asked) and print every NDJSON
/// response the server wrote back. Connects with a per-attempt timeout
/// and capped exponential backoff (seeded jitter from `--seed`), and
/// bounds reads so a wedged server cannot hang the client forever.
fn run_client(opts: &Options, mut reader: impl BufRead) -> Result<String, Error> {
    let stream = connect_with_retry(opts)?;
    if opts.read_timeout_ms > 0 {
        stream.set_read_timeout(Some(std::time::Duration::from_millis(opts.read_timeout_ms)))?;
    }
    let mut writer = std::io::BufWriter::new(stream.try_clone()?);

    std::io::copy(&mut reader, &mut writer)?;
    // Ingest may not end in a newline; a blank line is ignored server-side.
    writer.write_all(b"\n")?;
    for q in &opts.queries {
        writeln!(writer, "?{q}")?;
    }
    if opts.shutdown {
        writer.write_all(b"?shutdown\n")?;
    }
    writer.flush()?;
    // Half-close: the server sees EOF, finishes our batches, flushes any
    // responses, and closes — so read-to-EOF collects everything.
    stream.shutdown(std::net::Shutdown::Write)?;

    let mut responses = String::new();
    BufReader::new(stream).read_to_string(&mut responses)?;
    Ok(responses.trim_end().to_string())
}

/// One connection attempt per address the name resolves to, retried
/// under the `--retries` budget with `hh::fault::RetryPolicy`'s capped
/// equal-jitter backoff (deterministic per `--seed`).
fn connect_with_retry(opts: &Options) -> Result<std::net::TcpStream, Error> {
    use std::net::{TcpStream, ToSocketAddrs};
    let addr = opts.connect.as_deref().expect("validated by parse_args");
    let timeout = std::time::Duration::from_millis(opts.connect_timeout_ms);
    let attempt = || -> std::io::Result<TcpStream> {
        let mut last = None;
        for sa in addr.to_socket_addrs()? {
            let conn = if opts.connect_timeout_ms > 0 {
                TcpStream::connect_timeout(&sa, timeout)
            } else {
                TcpStream::connect(sa)
            };
            match conn {
                Ok(s) => return Ok(s),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to no endpoints",
            )
        }))
    };
    let policy = hh::fault::RetryPolicy::new(opts.retries, 50, 2_000, opts.seed);
    let mut delays = policy.delays();
    loop {
        match attempt() {
            Ok(stream) => return Ok(stream),
            Err(e) => match delays.next() {
                Some(delay) => {
                    eprintln!(
                        "connect to {addr} failed ({e}); retrying in {} ms",
                        delay.as_millis()
                    );
                    std::thread::sleep(delay);
                }
                None => {
                    return Err(Error::parse(format!(
                        "cannot connect to {addr} after {} attempt(s): {e}",
                        opts.retries.max(1)
                    )))
                }
            },
        }
    }
}

/// Renders one `hh serve` record. JSON records come from `hh::net::proto`:
/// the same versioned (`"v":1`) NDJSON objects the network server writes,
/// without its `net` section. Stats records are tagged `"stats":true`, so
/// consumers (and `hh stats`) can separate them from the
/// `"epoch"`/`"final"` top-k reports sharing the stream. In text, a report
/// is a table (a live one under a header line) and a stats record is a
/// small per-shard table.
fn serve_record(record: Record<'_, Key>, json: bool) -> String {
    match record {
        Record::Report(view, epoch, k) if json => proto::report_record(view.report(), epoch, k),
        Record::Report(view, epoch, k) => {
            let report = view.report();
            let table = render_counts(&report.top_k(k), report.total(), &COUNTS, false);
            match epoch {
                Some(e) => format!(
                    "-- live report (epoch {e}, {} items) --\n{table}\n",
                    report.total()
                ),
                None => table,
            }
        }
        Record::Stats(stats, fin) if json => proto::stats_record(stats, None, fin),
        Record::Stats(stats, fin) => {
            let label = if fin { "final stats" } else { "stats" };
            let mut out = format!(
                "-- {label} (epoch {}, {} items, imbalance {:.2}, snapshot p50 {} ns) --\n",
                stats.epochs, stats.routed, stats.imbalance, stats.snapshot_ns.p50
            );
            let _ = writeln!(
                out,
                "{:>5} {:>12} {:>10} {:>12} {:>7} {:>16}",
                "shard", "items", "batches", "routed", "queue", "send p99 (ns)"
            );
            for s in &stats.shards {
                let _ = writeln!(
                    out,
                    "{:>5} {:>12} {:>10} {:>12} {:>7} {:>16}",
                    s.shard,
                    s.items_ingested,
                    s.batches_ingested,
                    s.routed_items,
                    s.queue_depth,
                    s.send_block_ns.p99
                );
            }
            out.trim_end().to_string()
        }
    }
}

/// `hh stats`: read an NDJSON stream produced by `serve --stats-every`
/// (possibly interleaved with top-k report objects), validate every
/// stats record, and render a summary of the run. Fails on malformed
/// JSON, records missing the `"v"` schema version (or carrying an
/// unknown one), or stats records missing required fields — which is
/// what makes it usable as a smoke validator in CI.
fn run_stats(opts: &Options, reader: impl BufRead) -> Result<String, Error> {
    let mut records = 0u64;
    let mut last: Option<serde_json::Value> = None;
    let mut last_routed = 0u64;
    let mut last_restarts = 0u64;
    let mut last_lost = 0u64;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let v: serde_json::Value = serde_json::from_str(&line)
            .map_err(|e| Error::parse(format!("line {}: invalid JSON: {e}", lineno + 1)))?;
        // Every record — stats or report — carries the schema version.
        proto::check_version(&v).map_err(|e| Error::parse(format!("line {}: {e}", lineno + 1)))?;
        if v["stats"] != true {
            continue; // an interleaved top-k report (or the final report)
        }
        for field in ["epoch", "routed", "imbalance"] {
            if v[field].as_f64().is_none() {
                return Err(Error::parse(format!(
                    "line {}: stats record missing {field:?}",
                    lineno + 1
                )));
            }
        }
        let shards = v["shards"].as_array().ok_or_else(|| {
            Error::parse(format!(
                "line {}: stats record missing \"shards\"",
                lineno + 1
            ))
        })?;
        for (i, s) in shards.iter().enumerate() {
            for field in ["shard", "items", "routed", "queue_depth"] {
                if s[field].as_f64().is_none() {
                    return Err(Error::parse(format!(
                        "line {}: shard {i} missing {field:?}",
                        lineno + 1
                    )));
                }
            }
        }
        let routed = v["routed"].as_u64().unwrap_or(0);
        if routed < last_routed {
            return Err(Error::parse(format!(
                "line {}: routed went backwards ({routed} < {last_routed})",
                lineno + 1
            )));
        }
        last_routed = routed;
        // Supervision counters (PR 9, additive): monotone when present.
        for (field, prev) in [("restarts", &mut last_restarts), ("lost", &mut last_lost)] {
            if let Some(n) = v[field].as_u64() {
                if n < *prev {
                    return Err(Error::parse(format!(
                        "line {}: {field} went backwards ({n} < {prev})",
                        lineno + 1
                    )));
                }
                *prev = n;
            }
        }
        records += 1;
        last = Some(v);
    }
    let Some(last) = last else {
        return Err(Error::parse("no stats records in input"));
    };
    if opts.json {
        let last = serde_json::to_string(&last).map_err(|e| Error::parse(e.to_string()))?;
        Ok(format!("{{\"records\":{records},\"last\":{last}}}"))
    } else {
        let shards = last["shards"].as_array().expect("validated above");
        let mut out = format!(
            "{} stats records; last: epoch {}, {} items routed, imbalance {:.2}, {} shards\n",
            records,
            last["epoch"].as_u64().unwrap_or(0),
            last["routed"].as_u64().unwrap_or(0),
            last["imbalance"].as_f64().unwrap_or(1.0),
            shards.len()
        );
        let _ = writeln!(
            out,
            "{:>5} {:>12} {:>12} {:>7}",
            "shard", "items", "routed", "queue"
        );
        for s in shards {
            let _ = writeln!(
                out,
                "{:>5} {:>12} {:>12} {:>7}",
                s["shard"].as_u64().unwrap_or(0),
                s["items"].as_u64().unwrap_or(0),
                s["routed"].as_u64().unwrap_or(0),
                s["queue_depth"].as_u64().unwrap_or(0)
            );
        }
        Ok(out.trim_end().to_string())
    }
}

/// `hh gen`: emit a shuffled Zipf trace, one item per line.
fn run_gen(opts: &Options) -> Result<String, Error> {
    use hh::streamgen::zipf::{stream_from_counts, StreamOrder};
    let z = opts.zipf.expect("validated by parse_args");
    let counts = hh::streamgen::exact_zipf_counts(z.n, z.total, z.alpha);
    let stream = stream_from_counts(&counts, StreamOrder::Shuffled(z.seed));
    let mut out = String::with_capacity(stream.len() * 6);
    for item in stream {
        let _ = writeln!(out, "{item}");
    }
    Ok(out.trim_end().to_string())
}

fn confidence_str(c: Confidence) -> &'static str {
    match c {
        Confidence::Guaranteed => "guaranteed",
        Confidence::Candidate => "candidate",
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("string serializes")
}

/// How the CLI prints a count: occurrences as integers under `count`,
/// or a weighted engine's thousandths as weights under `weight` (three
/// decimals in text, the shortest exact decimal in JSON).
struct Unit {
    /// JSON key and text column header of a row's estimate.
    key: &'static str,
    /// JSON key of the stream total.
    total_key: &'static str,
    /// The stream total in text headers.
    total: &'static str,
    /// The stream in the heavy-hitter text header.
    stream: &'static str,
    /// Text column width of an estimate.
    width: usize,
    /// Decimals of the heavy-hitter threshold in text output.
    threshold_decimals: usize,
    /// One count in text output.
    text: fn(u64) -> String,
    /// One count in JSON output.
    json: fn(u64) -> String,
    /// One count as the number a threshold scales.
    value: fn(u64) -> f64,
}

const COUNTS: Unit = Unit {
    key: "count",
    total_key: "stream_len",
    total: "stream length",
    stream: "stream",
    width: 12,
    threshold_decimals: 1,
    text: |n| n.to_string(),
    json: |n| n.to_string(),
    value: |n| n as f64,
};

const WEIGHTS: Unit = Unit {
    key: "weight",
    total_key: "total_weight",
    total: "total weight",
    stream: "total weight",
    width: 14,
    threshold_decimals: 3,
    text: weight::text,
    json: weight::json,
    value: weight::value,
};

fn render_counts(rows: &[ReportEntry<Key>], total: u64, unit: &Unit, json: bool) -> String {
    if json {
        let cells: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"item\":{},\"{}\":{},\"lower\":{},\"upper\":{}}}",
                    json_str(r.item.as_str()),
                    unit.key,
                    (unit.json)(r.estimate),
                    (unit.json)(r.lower),
                    (unit.json)(r.upper)
                )
            })
            .collect();
        format!("[{}]", cells.join(","))
    } else {
        let mut out = format!(
            "{:<24} {:>w$} {:>18}   ({} {})\n",
            "item",
            unit.key,
            "certified range",
            unit.total,
            (unit.text)(total),
            w = unit.width
        );
        for r in rows {
            out.push_str(&format!(
                "{:<24} {:>w$} {:>18}\n",
                r.item,
                (unit.text)(r.estimate),
                format!("[{}..={}]", (unit.text)(r.lower), (unit.text)(r.upper)),
                w = unit.width
            ));
        }
        out.trim_end().to_string()
    }
}

fn render_heavy(
    rows: &[HeavyHitterEntry<Key>],
    phi: f64,
    total: u64,
    unit: &Unit,
    json: bool,
) -> String {
    if json {
        let cells: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"item\":{},\"{}\":{},\"confidence\":\"{}\"}}",
                    json_str(r.item.as_str()),
                    unit.key,
                    (unit.json)(r.estimate),
                    confidence_str(r.confidence)
                )
            })
            .collect();
        format!("[{}]", cells.join(","))
    } else {
        let mut out = format!(
            "items above phi={phi} of {} (threshold {:.p$}):\n",
            unit.stream,
            phi * (unit.value)(total),
            p = unit.threshold_decimals
        );
        for r in rows {
            out.push_str(&format!(
                "{:<24} {:>w$}  {}\n",
                r.item,
                (unit.text)(r.estimate),
                confidence_str(r.confidence),
                w = unit.width
            ));
        }
        out.trim_end().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cli::parse_args;

    fn opts(args: &[&str]) -> Options {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&v).expect("valid args")
    }

    #[test]
    fn topk_plain_text() {
        let o = opts(&["topk", "-k", "2", "-m", "8"]);
        let input = "a\nb\na\nc\na\nb\n";
        let out = run(o, input.as_bytes()).unwrap();
        assert!(out.contains('a'));
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with('a'), "most frequent first: {out}");
        assert!(lines[2].starts_with('b'));
    }

    #[test]
    fn topk_json_carries_bounds() {
        let o = opts(&["topk", "-k", "1", "-m", "8", "--json"]);
        let out = run(o, "x\nx\ny\n".as_bytes()).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).expect("valid json");
        assert_eq!(parsed[0]["item"], "x");
        assert_eq!(parsed[0]["count"], 2);
        assert_eq!(parsed[0]["lower"], 2);
        assert_eq!(parsed[0]["upper"], 2);
    }

    #[test]
    fn every_algo_runs_topk() {
        for algo in ["spacesaving", "frequent", "lossy", "sticky", "cm", "cs"] {
            let o = opts(&["topk", "--algo", algo, "-k", "1", "-m", "64"]);
            let out = run(o, "q\nq\nq\nr\n".as_bytes()).unwrap();
            assert!(
                out.lines().nth(1).unwrap().starts_with('q'),
                "{algo}: {out}"
            );
        }
    }

    #[test]
    fn estimate_specific_items() {
        let o = opts(&["estimate", "-m", "8", "--items", "a,zzz"]);
        let out = run(o, "a\na\nb\n".as_bytes()).unwrap();
        assert!(out.contains("a"));
        assert!(out.contains("zzz"));
    }

    #[test]
    fn heavy_hitters_with_confidence() {
        let o = opts(&["heavy", "--phi", "0.4", "-m", "8"]);
        let out = run(o, "a\na\na\nb\n".as_bytes()).unwrap();
        assert!(out.contains("a"));
        assert!(out.contains("guaranteed"));
    }

    #[test]
    fn weighted_topk_and_heavy() {
        let o = opts(&["topk", "--weighted", "-k", "1", "-m", "8"]);
        let out = run(o, "a 1.5\nb 10.0\na 2.0\n".as_bytes()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with('b'), "{out}");
        // heavy is now supported in weighted mode through the engine
        let o2 = opts(&["heavy", "--weighted", "--phi", "0.5", "-m", "8"]);
        let out2 = run(o2, "a 1.5\nb 10.0\na 2.0\n".as_bytes()).unwrap();
        assert!(out2.contains('b') && out2.contains("guaranteed"), "{out2}");
    }

    #[test]
    fn weighted_rejects_bad_lines() {
        let o = opts(&["topk", "--weighted", "-m", "8"]);
        assert!(run(o, "a notanumber\n".as_bytes()).is_err());
        let o2 = opts(&["topk", "--weighted", "-m", "8"]);
        assert!(run(o2, "a -3\n".as_bytes()).is_err());
    }

    #[test]
    fn residual_output() {
        let o = opts(&["residual", "-k", "1", "-m", "8"]);
        let out = run(o, "a\na\na\nb\nc\n".as_bytes()).unwrap();
        assert!(out.contains("F1^res(1) ~= 2"), "{out}");
    }

    #[test]
    fn frequent_algo_selectable() {
        let o = opts(&["topk", "--algo", "frequent", "-k", "1", "-m", "4"]);
        let out = run(o, "q\nq\nq\nr\n".as_bytes()).unwrap();
        assert!(out.lines().nth(1).unwrap().starts_with('q'));
    }

    #[test]
    fn eps_sizing_builds_bigger_summaries() {
        let o = opts(&["topk", "--eps", "0.1", "-k", "5"]);
        assert_eq!(o.engine_config().resolved_counters().unwrap(), 55);
        let out = run(o, "a\nb\na\n".as_bytes()).unwrap();
        assert!(out.lines().nth(1).unwrap().starts_with('a'));
    }

    #[test]
    fn snapshot_roundtrip_and_merge_via_files() {
        let dir = std::env::temp_dir().join(format!("hh-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s1 = dir.join("s1.json");
        let s2 = dir.join("s2.json");
        let merged = dir.join("merged.json");
        let s1s = s1.to_str().unwrap();
        let s2s = s2.to_str().unwrap();

        // two shards summarize disjoint halves
        let o = opts(&["topk", "-m", "8", "--snapshot-out", s1s]);
        run(o, "a\na\nb\n".as_bytes()).unwrap();
        let o = opts(&["topk", "-m", "8", "--snapshot-out", s2s]);
        run(o, "a\nc\n".as_bytes()).unwrap();

        // merge them and check the combined counts
        let o = opts(&[
            "merge",
            "-k",
            "2",
            "--snapshot-out",
            merged.to_str().unwrap(),
            s1s,
            s2s,
        ]);
        let out = run(o, std::io::empty()).unwrap();
        assert!(out.lines().nth(1).unwrap().starts_with('a'), "{out}");

        // resume from the merged snapshot without any new input
        let o = opts(&[
            "estimate",
            "--items",
            "a",
            "--json",
            "--snapshot-in",
            merged.to_str().unwrap(),
        ]);
        let out = run(o, "".as_bytes()).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed[0]["count"], 3);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs `hh serve` over `input` and returns everything it wrote.
    fn serve(o: &Options, input: &str) -> String {
        let mut out = Vec::new();
        run_serve(o, input.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn serve_reports_live_and_final() {
        let o = opts(&[
            "serve",
            "--shards",
            "2",
            "--report-every",
            "4",
            "-k",
            "2",
            "-m",
            "16",
        ]);
        let out = serve(&o, "a\nb\na\nc\na\nb\na\n");
        // 7 items at --report-every 4: exactly one live report (epoch 1),
        // then a blank line and the final table.
        let (live, final_report) = out.rsplit_once("\n\n").unwrap();
        assert!(live.contains("live report (epoch 1, 4 items)"), "{live}");
        let lines: Vec<&str> = final_report.lines().collect();
        assert!(lines[0].contains("stream length 7"), "{final_report}");
        assert!(lines[1].starts_with('a'), "{final_report}");
    }

    #[test]
    fn serve_json_reports_are_ndjson_objects() {
        let o = opts(&[
            "serve",
            "--shards",
            "3",
            "--report-every",
            "2",
            "-k",
            "1",
            "--json",
        ]);
        let out = serve(&o, "x\nx\ny\nx\n");
        let (live, final_report) = out.trim_end().rsplit_once('\n').unwrap();
        for line in live.lines().filter(|l| !l.is_empty()) {
            let v: serde_json::Value = serde_json::from_str(line).expect("live line parses");
            assert!(v["epoch"].as_f64().is_some(), "{line}");
        }
        let v: serde_json::Value = serde_json::from_str(final_report).expect("final parses");
        assert_eq!(v["final"], true);
        assert_eq!(v["stream_len"], 4);
        assert_eq!(v["top"][0]["item"], "x");
        assert_eq!(v["top"][0]["count"], 3);
    }

    #[test]
    fn serve_counts_match_sequential_topk() {
        // sharded serve and single-engine topk agree on exact counts when
        // the table has headroom
        let input: String = (0..200).map(|i| format!("w{}\n", i % 7)).collect();
        let o = opts(&["serve", "--shards", "4", "-k", "7", "-m", "64", "--json"]);
        let served = serve(&o, &input);
        let v: serde_json::Value = serde_json::from_str(&served).unwrap();
        let top = v["top"].as_array().unwrap();
        assert_eq!(top.len(), 7);
        // 200 = 7 * 28 + 4: words w0..w3 occur 29 times, w4..w6 28 times
        let total: f64 = top.iter().map(|e| e["count"].as_f64().unwrap()).sum();
        assert_eq!(total, 200.0);
        for entry in top {
            let c = entry["count"].as_f64().unwrap();
            assert!(c == 28.0 || c == 29.0, "{entry:?}");
        }
    }

    /// What a record sequence must agree on across the two transports:
    /// each record's kind, `epoch`, `stream_len`, `routed` and top rows
    /// (sorted, since tie order follows batch boundaries, which `--listen`
    /// does not fix). Timing and the listener's `net` section are left out.
    fn record_keys(ndjson: &str) -> Vec<String> {
        ndjson
            .lines()
            .map(|line| {
                let v: serde_json::Value = serde_json::from_str(line).expect("NDJSON line");
                let kind = match (v["stats"] == true, v["final"] == true) {
                    (true, false) => "stats",
                    (true, true) => "final stats",
                    (false, false) => "report",
                    (false, true) => "final report",
                };
                let mut top: Vec<String> = v["top"]
                    .as_array()
                    .map(|rows| {
                        rows.iter()
                            .map(|r| serde_json::to_string(r).unwrap())
                            .collect()
                    })
                    .unwrap_or_default();
                top.sort();
                format!(
                    "{kind} epoch={:?} stream_len={:?} routed={:?} top={top:?}",
                    v["epoch"].as_u64(),
                    v["stream_len"].as_u64(),
                    v["routed"].as_u64()
                )
            })
            .collect()
    }

    #[test]
    fn stdin_and_listen_serve_write_the_same_records() {
        let o = opts(&[
            "serve",
            "--json",
            "--shards",
            "2",
            "-k",
            "20",
            "-m",
            "64",
            "--report-every",
            "25",
            "--stats-every",
            "40",
        ]);
        // 17 distinct items: every shard counts exactly.
        let input: String = (0..200u64).map(|i| format!("w{}\n", i * i % 17)).collect();
        let stdin = serve(&o, &input);

        let net = NetOptions::new().tcp("127.0.0.1:0");
        let server: Server<Key> = Server::bind(o.serve.clone(), net).unwrap();
        let addr = server.tcp_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            conn.write_all(input.as_bytes()).unwrap();
            conn.write_all(b"?shutdown\n").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut replies = String::new();
            conn.read_to_string(&mut replies).unwrap();
            replies
        });
        let mut listen = Vec::new();
        server.run(&mut listen).unwrap();
        let replies = client.join().unwrap();
        assert!(
            replies.contains("\"shutdown\":true,\"routed\":200"),
            "{replies}"
        );

        let want = record_keys(&stdin);
        // 8 reports, 5 stats records, final stats, final report.
        assert_eq!(want.len(), 8 + 5 + 2, "{stdin}");
        assert_eq!(record_keys(&String::from_utf8(listen).unwrap()), want);
    }

    #[test]
    fn serve_writes_the_final_report_before_a_failed_snapshot_out() {
        let dir = std::env::temp_dir().join(format!("hh-no-such-dir-{}", std::process::id()));
        let snap = dir.join("x.ckpt");
        let o = opts(&[
            "serve",
            "--json",
            "--shards",
            "1",
            "--stats-every",
            "2",
            "--snapshot-out",
            snap.to_str().unwrap(),
        ]);
        let mut out = Vec::new();
        assert!(run_serve(&o, "1\n2\n2\n".as_bytes(), &mut out).is_err());
        let keys = record_keys(&String::from_utf8(out).unwrap());
        assert_eq!(keys.len(), 3, "{keys:?}");
        assert!(keys[0].starts_with("stats epoch=Some(1) "), "{keys:?}");
        assert!(
            keys[1].starts_with("final stats epoch=Some(2) "),
            "{keys:?}"
        );
        assert!(
            keys[2].starts_with("final report epoch=None stream_len=Some(3) "),
            "{keys:?}"
        );
    }

    /// A stdout that takes `room` bytes and then refuses every write.
    struct FailingOut {
        room: usize,
        kind: std::io::ErrorKind,
    }

    impl std::io::Write for FailingOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(self.kind.into());
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_record_write_still_gets_serve_its_checkpoint() {
        use std::io::ErrorKind;
        let dir = std::env::temp_dir().join(format!("hh-cli-failing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input: String = (0..5_000).map(|i| format!("{}\n", i % 37)).collect();
        for (kind, room) in [(ErrorKind::BrokenPipe, 300), (ErrorKind::Other, 0)] {
            let path = dir.join(format!("{kind:?}.ckpt"));
            let path = path.to_str().unwrap();
            let args = [
                "serve",
                "--shards",
                "2",
                "--report-every",
                "100",
                "--snapshot-out",
                path,
            ];
            let o = opts(&args);
            let result = run_serve(&o, input.as_bytes(), &mut FailingOut { room, kind });
            match kind {
                // a reader that left took all it wanted
                ErrorKind::BrokenPipe => assert!(result.is_ok(), "{result:?}"),
                _ => assert!(matches!(&result, Err(Error::Io(e)) if e.kind() == kind)),
            }
            let ckpt = checkpoint::load::<Key>(path).unwrap();
            let shards: Vec<Engine<Key>> = ckpt
                .shards
                .into_iter()
                .map(|s| Engine::from_snapshot(s).unwrap())
                .collect();
            let total: u64 = shards.iter().map(Engine::stream_len).sum();
            assert!((1..=5_000).contains(&total), "{kind:?}: {total}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_snapshot_out_resumes_elsewhere() {
        let dir = std::env::temp_dir().join(format!("hh-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("served.json");
        let o = opts(&[
            "serve",
            "--shards",
            "2",
            "-m",
            "16",
            "--snapshot-out",
            snap.to_str().unwrap(),
        ]);
        serve(&o, "a\na\nb\n");
        let snap = snap.to_str().unwrap();
        let o = opts(&["residual", "-k", "1", "--json", "--snapshot-in", snap]);
        let out = run(o, std::io::empty()).unwrap();
        assert_eq!(out, r#"{"k":1,"residual_estimate":1,"stream_len":3}"#);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn topk_reads_what_a_checkpointing_serve_writes() {
        let dir = std::env::temp_dir().join(format!("hh-ckpt-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("served.ckpt");
        let snap = snap.to_str().unwrap();
        let input = "a\nb\na\nc\na\nb\na\nd\n";
        let o = opts(&[
            "serve",
            "--shards",
            "2",
            "-k",
            "3",
            "-m",
            "16",
            "--checkpoint-every",
            "3",
            "--snapshot-out",
            snap,
        ]);
        let served = serve(&o, input);
        let o = opts(&["topk", "-k", "3", "--snapshot-in", snap]);
        assert_eq!(run(o, "".as_bytes()).unwrap() + "\n", served);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_emits_trace() {
        let o = opts(&["gen", "--zipf", "10,100,1.5,3"]);
        let out = run_gen(&o).unwrap();
        assert_eq!(out.lines().count(), 100);
        assert!(out.lines().all(|l| l.parse::<u64>().is_ok()));
    }

    #[test]
    fn serve_stats_every_emits_ndjson_stats_records() {
        let o = opts(&[
            "serve",
            "--shards",
            "3",
            "--stats-every",
            "4",
            "--report-every",
            "5",
            "-k",
            "1",
            "--json",
        ]);
        let input: String = (0..12).map(|i| format!("s{}\n", i % 4)).collect();
        let out = serve(&o, &input);
        let (live, _final_report) = out.trim_end().rsplit_once('\n').unwrap();

        let mut stats = Vec::new();
        let mut reports = 0;
        for line in live.lines().filter(|l| !l.is_empty()) {
            let v: serde_json::Value = serde_json::from_str(line).expect("NDJSON line parses");
            if v["stats"] == true {
                stats.push(v);
            } else {
                reports += 1;
                assert!(v["epoch"].as_f64().is_some(), "report line: {line}");
            }
        }
        assert!(reports >= 1, "report records interleave: {live}");
        // 12 items / every 4 = 3 interval records, plus the final one.
        assert_eq!(stats.len(), 4, "{live}");
        assert_eq!(stats.last().unwrap()["final"], true);
        for (i, s) in stats.iter().enumerate() {
            // Interval records fire at an epoch boundary: exact counters.
            assert!(s["routed"].as_u64().unwrap() <= 12);
            assert!(s["imbalance"].as_f64().unwrap() >= 1.0);
            assert!(s["snapshot_ns"]["count"].as_u64().unwrap() >= 1, "{s:?}");
            // Views do not replay: `hh serve` never records a merge.
            assert_eq!(s["merge_ns"]["count"].as_u64(), Some(0), "{s:?}");
            let shards = s["shards"].as_array().unwrap();
            assert_eq!(shards.len(), 3);
            let ingested: u64 = shards.iter().map(|sh| sh["items"].as_u64().unwrap()).sum();
            assert_eq!(ingested, s["routed"].as_u64().unwrap(), "record {i}: {s:?}");
            for sh in shards {
                assert_eq!(sh["queue_depth"].as_u64().unwrap(), 0, "boundary drained");
                assert!(sh["send_block_ns"]["count"].as_u64().is_some());
            }
        }
        assert_eq!(stats.last().unwrap()["routed"].as_u64().unwrap(), 12);
    }

    #[test]
    fn serve_stats_text_mode_renders_table() {
        let o = opts(&["serve", "--shards", "2", "--stats-every", "3", "-m", "16"]);
        let live = serve(&o, "a\nb\nc\nd\n");
        assert!(live.contains("-- stats (epoch"), "{live}");
        assert!(live.contains("-- final stats (epoch"), "{live}");
        assert!(live.contains("send p99"), "{live}");
    }

    #[test]
    fn stats_validates_and_summarizes_a_serve_stream() {
        // end-to-end: serve --stats-every produces a stream that hh stats
        // accepts, in both text and JSON output modes
        let o = opts(&[
            "serve",
            "--shards",
            "2",
            "--stats-every",
            "2",
            "--report-every",
            "3",
            "-k",
            "1",
            "--json",
        ]);
        let stream = serve(&o, "x\ny\nx\nz\nx\n");

        let so = opts(&["stats"]);
        let summary = run_stats(&so, stream.as_bytes()).unwrap();
        assert!(summary.contains("stats records"), "{summary}");
        assert!(summary.contains("5 items routed"), "{summary}");

        let sj = opts(&["stats", "--json"]);
        let json = run_stats(&sj, stream.as_bytes()).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).expect("summary parses");
        // 5 items / every 2 = 2 interval records + 1 final
        assert_eq!(v["records"], 3);
        assert_eq!(v["last"]["final"], true);
        assert_eq!(v["last"]["routed"], 5);
    }

    #[test]
    fn stats_rejects_malformed_streams() {
        let o = opts(&["stats"]);
        assert!(run_stats(&o, "not json\n".as_bytes()).is_err(), "bad JSON");

        let o = opts(&["stats"]);
        let err = run_stats(&o, "{\"v\":1,\"stats\":true,\"epoch\":1}\n".as_bytes());
        assert!(err.is_err(), "missing fields");

        let o = opts(&["stats"]);
        assert!(
            run_stats(&o, "{\"v\":1,\"epoch\":1,\"top\":[]}\n".as_bytes()).is_err(),
            "stream with zero stats records"
        );

        // records must carry the schema version, and a known one
        let o = opts(&["stats"]);
        assert!(
            run_stats(&o, "{\"stats\":true,\"epoch\":1,\"routed\":1}\n".as_bytes()).is_err(),
            "record without \"v\""
        );
        let o = opts(&["stats"]);
        assert!(
            run_stats(&o, "{\"v\":99,\"epoch\":1,\"top\":[]}\n".as_bytes()).is_err(),
            "unknown schema version"
        );

        // routed must be monotone across records
        let o = opts(&["stats"]);
        let shardless = |routed: u64| {
            format!(
                "{{\"v\":1,\"stats\":true,\"epoch\":1,\"routed\":{routed},\"imbalance\":1.0,\"shards\":[]}}"
            )
        };
        let stream = format!("{}\n{}\n", shardless(9), shardless(4));
        assert!(
            run_stats(&o, stream.as_bytes()).is_err(),
            "routed regressed"
        );

        // the supervision counters must be monotone too (when present)
        let o = opts(&["stats"]);
        let with_restarts = |routed: u64, restarts: u64| {
            format!(
                "{{\"v\":1,\"stats\":true,\"epoch\":1,\"routed\":{routed},\"restarts\":{restarts},\
                 \"lost\":0,\"imbalance\":1.0,\"shards\":[]}}"
            )
        };
        let stream = format!("{}\n{}\n", with_restarts(1, 2), with_restarts(3, 1));
        assert!(
            run_stats(&o, stream.as_bytes()).is_err(),
            "restarts regressed"
        );
        let o = opts(&["stats"]);
        let stream = format!("{}\n{}\n", with_restarts(1, 1), with_restarts(3, 2));
        assert!(run_stats(&o, stream.as_bytes()).is_ok(), "monotone is fine");
    }
}
