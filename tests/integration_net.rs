//! Loopback end-to-end tests for `hh::net`: a real [`Server`] on an
//! ephemeral TCP port (and a Unix socket), concurrent writers speaking the
//! docs/PROTOCOL.md line protocol, in-band queries, and the full
//! drain -> snapshot -> resume cycle.
//!
//! The load-bearing claim is Theorem 11's merge soundness end to end:
//! items partitioned across connections and shards produce the same
//! answers as one engine ingesting the union stream (exactly so while the
//! summary has headroom).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use hh::engine::{AlgoKind, Engine, EngineConfig};
use hh::net::{sys, NetOptions, ServeOptions, Server};

/// The drain flag is process-global (it models SIGTERM), so server
/// lifecycles in this binary must not overlap.
static SERVER_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`SERVER_LOCK`]. A test that fails while holding it poisons it;
/// every test resets the drain flag after taking the lock, so the poison
/// is ignored and one failure does not fail the tests after it.
fn server_lock() -> MutexGuard<'static, ()> {
    SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn config() -> EngineConfig {
    // Plenty of headroom for the handful of distinct items below: every
    // counter is exact, so cross-process comparisons can use equality.
    EngineConfig::new(AlgoKind::SpaceSaving).counters(64)
}

fn spawn_server(
    serve: ServeOptions,
    net: NetOptions,
) -> (SocketAddr, thread::JoinHandle<Engine<String>>) {
    let server: Server<String> = Server::bind(serve, net).expect("bind");
    let addr = server.tcp_addr().expect("tcp listener");
    let handle = thread::spawn(move || {
        let mut out = Vec::new();
        server.run(&mut out).expect("server run")
    });
    (addr, handle)
}

/// Sends one query line and reads one NDJSON response line.
fn query(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, q: &str) -> serde_json::Value {
    writeln!(writer, "{q}").expect("write query");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("bad NDJSON {line:?}: {e}"))
}

/// Polls `?stats` until the pipeline has routed `expect` items (the
/// writers' batches are only visible once the event loop has read them).
fn await_routed(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, expect: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let v = query(writer, reader, "?stats");
        assert_eq!(v["v"], 1, "{v:?}");
        assert_eq!(v["stats"], true, "{v:?}");
        if v["routed"].as_u64() == Some(expect) {
            // The stats record doubles as the net-telemetry surface.
            assert!(v["net"]["accepted"].as_u64().unwrap() >= 1, "{v:?}");
            assert!(v["net"]["lines"].as_u64().unwrap() >= expect, "{v:?}");
            return;
        }
        assert!(Instant::now() < deadline, "routed stuck at {v:?}");
        thread::sleep(Duration::from_millis(20));
    }
}

const WRITERS: usize = 4;
const PER_WRITER: usize = 500;
const DISTINCT: usize = 7;

/// One writer's deterministic slice of the stream.
fn writer_items() -> Vec<String> {
    (0..PER_WRITER)
        .map(|j| format!("w{}", j % DISTINCT))
        .collect()
}

#[test]
fn loopback_ingest_matches_single_engine_and_resumes() {
    let _guard = server_lock();
    sys::reset_drain();

    let dir = std::env::temp_dir().join(format!("hh-net-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("drained.json");
    let snap_path = snap.to_str().unwrap().to_string();

    let serve = ServeOptions::new(config())
        .shards(Some(2))
        .top_k(DISTINCT)
        .snapshot_out(Some(snap_path.clone()));
    let net = NetOptions::new().tcp("127.0.0.1:0").idle_timeout_ms(60_000);
    let (addr, server) = spawn_server(serve, net);

    // N concurrent writers, each streaming its slice and half-closing.
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect writer");
                for item in writer_items() {
                    writeln!(conn, "{item}").expect("write item");
                }
                conn.shutdown(Shutdown::Write).expect("half-close");
                // Wait for the server to finish and close our connection,
                // so every batch is read before the assertions below.
                let mut rest = Vec::new();
                conn.read_to_end(&mut rest).expect("drain responses");
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }

    let total = (WRITERS * PER_WRITER) as u64;
    let mut qconn = TcpStream::connect(addr).expect("connect query client");
    let mut qreader = BufReader::new(qconn.try_clone().unwrap());
    await_routed(&mut qconn, &mut qreader, total);

    // Liveness check plus the versioned envelope.
    let pong = query(&mut qconn, &mut qreader, "?ping");
    assert_eq!(pong["v"], 1);
    assert_eq!(pong["pong"], true);

    // The merged report over all connections/shards equals one engine
    // ingesting the union stream (exact, thanks to counter headroom).
    let mut oracle: Engine<String> = config().build().unwrap();
    for _ in 0..WRITERS {
        oracle.update_batch(&writer_items());
    }
    let top = query(&mut qconn, &mut qreader, &format!("?topk {DISTINCT}"));
    assert_eq!(top["v"], 1);
    assert_eq!(top["stream_len"].as_u64(), Some(total));
    let rows = top["top"].as_array().expect("top array");
    assert_eq!(rows.len(), DISTINCT);
    for row in rows {
        let item = row["item"].as_str().unwrap().to_string();
        assert_eq!(
            row["count"].as_u64().unwrap(),
            oracle.estimate(&item),
            "{row:?}"
        );
    }

    // `?snapshot` is no query: an error record, and the connection
    // lives on (the drain below answers on it).
    let unknown = query(&mut qconn, &mut qreader, "?snapshot");
    assert_eq!(unknown["v"], 1);
    assert_eq!(unknown["error"], "unknown query command", "{unknown:?}");

    // Graceful drain: acknowledged in-band, then the server flushes,
    // writes --snapshot-out, and returns the merged engine.
    let ack = query(&mut qconn, &mut qreader, "?shutdown");
    assert_eq!(ack["shutdown"], true);
    assert_eq!(ack["routed"].as_u64(), Some(total));
    let drained = server.join().expect("server thread");
    assert_eq!(drained.stream_len(), total);
    for d in 0..DISTINCT {
        let item = format!("w{d}");
        assert_eq!(drained.estimate(&item), oracle.estimate(&item));
    }

    // Resume: a second server folds the snapshot into every answer and
    // keeps counting from where the first left off.
    sys::reset_drain();
    let serve2 = ServeOptions::new(config())
        .shards(Some(2))
        .top_k(3)
        .snapshot_in(Some(snap_path));
    let net2 = NetOptions::new().tcp("127.0.0.1:0").idle_timeout_ms(60_000);
    let (addr2, server2) = spawn_server(serve2, net2);

    let mut conn = TcpStream::connect(addr2).expect("connect resume client");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for _ in 0..100 {
        writeln!(conn, "extra").unwrap();
    }
    // Same connection, so the ingest lines are processed before the query.
    let top = query(&mut conn, &mut reader, "?topk 3");
    assert_eq!(top["stream_len"].as_u64(), Some(total + 100));
    let ack = query(&mut conn, &mut reader, "?shutdown");
    assert_eq!(ack["shutdown"], true);
    let resumed = server2.join().expect("resumed server thread");
    assert_eq!(resumed.stream_len(), total + 100);
    assert_eq!(resumed.estimate(&"extra".to_string()), 100);
    assert_eq!(
        resumed.estimate(&"w0".to_string()),
        oracle.estimate(&"w0".to_string())
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Cadence records fire at their boundary item in network mode too: one
/// client write of 7 items crosses the every-3 boundaries twice, so the
/// server reports at exactly 3 and 6 items, and the last periodic
/// checkpoint covers 6.
#[test]
fn cadence_records_fire_at_the_boundary_item_over_tcp() {
    let _guard = server_lock();
    sys::reset_drain();

    let dir = std::env::temp_dir().join(format!("hh-net-cadence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cadence.ckpt").to_str().unwrap().to_string();
    let serve = ServeOptions::new(config())
        .shards(Some(2))
        .report_every(3)
        .checkpoint_every(3)
        .snapshot_out(Some(path.clone()));
    let server: Server<String> =
        Server::bind(serve, NetOptions::new().tcp("127.0.0.1:0")).expect("bind");
    let addr = server.tcp_addr().expect("tcp listener");
    let handle = thread::spawn(move || {
        let mut out = Vec::new();
        let engine = server.run(&mut out).expect("server run");
        (engine, String::from_utf8(out).expect("UTF-8 records"))
    });

    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(b"a\nb\na\nc\na\nb\nd\n?shutdown\n")
        .expect("write");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut acks = String::new();
    conn.read_to_string(&mut acks).expect("read until close");
    let (engine, out) = handle.join().expect("server thread");
    assert_eq!(engine.stream_len(), 7);

    let reports: Vec<u64> = out
        .lines()
        .map(|l| serde_json::from_str::<serde_json::Value>(l).expect("NDJSON record"))
        .filter(|v| v["epoch"].as_u64().is_some())
        .map(|v| v["stream_len"].as_u64().expect("stream_len"))
        .collect();
    assert_eq!(reports, [3, 6], "{out}");

    // The drain's final snapshot rotated the last periodic checkpoint
    // to the previous generation.
    let periodic = hh::net::checkpoint::load::<String>(&format!("{path}.prev")).expect("load");
    let mut covered: Engine<String> = config().build().unwrap();
    for shard in &periodic.shards {
        covered.merge_snapshot(shard).expect("same config");
    }
    assert_eq!(covered.stream_len(), 6);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_lines_are_rejected_without_killing_the_connection() {
    let _guard = server_lock();
    sys::reset_drain();

    let serve = ServeOptions::new(config()).shards(Some(1));
    let net = NetOptions::new().tcp("127.0.0.1:0").idle_timeout_ms(60_000);
    let (addr, server) = spawn_server(serve, net);

    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    conn.write_all(b"good\n").unwrap();
    // Three fields and a zero count: both rejected with error records.
    conn.write_all(b"a\tb\tc\n").unwrap();
    conn.write_all(b"zero\t0\n").unwrap();
    conn.write_all(b"good\t2\n").unwrap();

    let err1 = query(&mut conn, &mut reader, "?ping");
    // The two error records were queued before the pong.
    assert!(err1["error"].as_str().is_some(), "{err1:?}");
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let err2: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    assert!(err2["error"].as_str().is_some(), "{err2:?}");
    line.clear();
    reader.read_line(&mut line).unwrap();
    let pong: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(pong["pong"], true);

    // Valid lines on the same connection still counted.
    let top = query(&mut conn, &mut reader, "?topk 1");
    assert_eq!(top["top"][0]["item"], "good");
    assert_eq!(top["top"][0]["count"], 3);

    // Malformed traffic shows up in the stats record's net section.
    let stats = query(&mut conn, &mut reader, "?stats");
    assert_eq!(stats["net"]["malformed"].as_u64(), Some(2), "{stats:?}");

    query(&mut conn, &mut reader, "?shutdown");
    let engine = server.join().expect("server thread");
    assert_eq!(engine.stream_len(), 3);
}

/// A line over the 64 KiB cap gets one error record naming its line and
/// is skipped through its newline, however the reads split it; a line of
/// exactly 64 KiB is an item.
#[test]
fn lines_over_the_64_kib_cap_are_rejected_and_skipped() {
    let _guard = server_lock();
    sys::reset_drain();

    let serve = ServeOptions::new(config()).shards(Some(1));
    let net = NetOptions::new().tcp("127.0.0.1:0").idle_timeout_ms(60_000);
    let (addr, server) = spawn_server(serve, net);

    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    const CAP: usize = 64 * 1024;
    for len in [CAP, CAP + 1, 70_000, 3 * CAP] {
        let mut line = vec![b'x'; len];
        line.push(b'\n');
        conn.write_all(&line).unwrap();
    }
    conn.write_all(b"good\n").unwrap();

    // The error records were queued before the pong.
    writeln!(conn, "?ping").unwrap();
    let mut errors = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let record: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
        if record["pong"] == true {
            break;
        }
        errors.push((
            record["error"].as_str().map(String::from),
            record["line"].as_u64(),
        ));
    }
    let reason = Some("line exceeds max_line_bytes".to_string());
    let expected: Vec<_> = (2..=4).map(|line| (reason.clone(), Some(line))).collect();
    assert_eq!(errors, expected);

    let top = query(&mut conn, &mut reader, "?topk 2");
    assert_eq!(top["stream_len"], 2, "the 64 KiB line and `good`");
    query(&mut conn, &mut reader, "?shutdown");
    assert_eq!(server.join().expect("server thread").stream_len(), 2);
}

/// `?topk` accepts any positive `usize`; the largest returns every
/// stored row, in descending order, without sizing anything by `k`, and
/// the connection keeps being served.
#[test]
fn topk_with_the_largest_k_returns_every_stored_row() {
    let _guard = server_lock();
    sys::reset_drain();

    let serve = ServeOptions::new(config()).shards(Some(2));
    let net = NetOptions::new().tcp("127.0.0.1:0").idle_timeout_ms(60_000);
    let (addr, server) = spawn_server(serve, net);

    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for item in writer_items() {
        writeln!(conn, "{item}").unwrap();
    }
    let top = query(&mut conn, &mut reader, &format!("?topk {}", usize::MAX));
    assert_eq!(
        top["stream_len"].as_u64(),
        Some(PER_WRITER as u64),
        "{top:?}"
    );
    let rows = top["top"].as_array().expect("top array");
    assert_eq!(rows.len(), DISTINCT, "{top:?}");
    let counts: Vec<u64> = rows.iter().map(|r| r["count"].as_u64().unwrap()).collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
    assert_eq!(counts.iter().sum::<u64>(), PER_WRITER as u64);

    assert_eq!(query(&mut conn, &mut reader, "?ping")["pong"], true);
    let again = query(&mut conn, &mut reader, "?topk 2");
    assert_eq!(
        again["top"].as_array().map(|rows| rows.len()),
        Some(2),
        "{again:?}"
    );

    query(&mut conn, &mut reader, "?shutdown");
    let engine = server.join().expect("server thread");
    assert_eq!(engine.stream_len(), PER_WRITER as u64);
}

/// Items routed between queries reach the shards whenever the read loop
/// drains, not only at the next epoch: three 100-item chunks about 50 ms
/// apart, with no epoch query between them, give every shard at least
/// three batches by the first `?stats` (the epoch's own flush finds the
/// buffers empty), and every interval still brackets the exact count.
#[test]
fn idle_read_loop_ships_buffered_items_to_the_shards() {
    let _guard = server_lock();
    sys::reset_drain();

    // Fewer counters than distinct items, so intervals are not all exact.
    let engine = EngineConfig::new(AlgoKind::SpaceSaving).counters(8);
    let serve = ServeOptions::new(engine).shards(Some(2)).top_k(64);
    let net = NetOptions::new().tcp("127.0.0.1:0").idle_timeout_ms(60_000);
    let (addr, server) = spawn_server(serve, net);

    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let chunk: Vec<String> = (0..100u64)
        .map(|i| format!("i{}", (i * i + 11 * i) % 31 % (1 + i % 7)))
        .collect();
    for _ in 0..3 {
        let mut text = chunk.join("\n");
        text.push('\n');
        conn.write_all(text.as_bytes()).expect("write chunk");
        // `?ping` crosses no epoch; its reply shows the chunk was read.
        assert_eq!(query(&mut conn, &mut reader, "?ping")["pong"], true);
        thread::sleep(Duration::from_millis(50));
    }

    let stats = query(&mut conn, &mut reader, "?stats");
    assert_eq!(stats["routed"].as_u64(), Some(300), "{stats:?}");
    for shard in stats["shards"].as_array().expect("shards array") {
        assert!(shard["batches"].as_u64().unwrap() >= 3, "{stats:?}");
    }

    let top = query(&mut conn, &mut reader, "?topk 64");
    assert_eq!(top["stream_len"].as_u64(), Some(300), "{top:?}");
    let rows = top["top"].as_array().expect("top array");
    assert!(!rows.is_empty(), "{top:?}");
    for row in rows {
        let item = row["item"].as_str().unwrap();
        let exact = 3 * chunk.iter().filter(|x| *x == item).count() as u64;
        let (lower, upper) = (
            row["lower"].as_u64().unwrap(),
            row["upper"].as_u64().unwrap(),
        );
        assert!(lower <= exact && exact <= upper, "{row:?} vs {exact}");
    }

    query(&mut conn, &mut reader, "?shutdown");
    let engine = server.join().expect("server thread");
    assert_eq!(engine.stream_len(), 300);
}

/// Writes `bytes` with no final newline, half-closes, and returns every
/// response record the server sends before closing the connection.
fn send_unterminated(addr: SocketAddr, bytes: &[u8]) -> Vec<serde_json::Value> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(bytes).unwrap();
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    conn.read_to_string(&mut rest).expect("read until close");
    rest.lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("bad NDJSON {l:?}: {e}")))
        .collect()
}

#[test]
fn unterminated_final_line_is_processed_at_eof() {
    let _guard = server_lock();
    sys::reset_drain();

    let serve = ServeOptions::new(config()).shards(Some(1));
    let net = NetOptions::new().tcp("127.0.0.1:0").idle_timeout_ms(60_000);
    let (addr, server) = spawn_server(serve, net);

    // The trailing line counts like a terminated one, in every shape.
    assert!(send_unterminated(addr, b"plain\nplain").is_empty());
    assert!(send_unterminated(addr, b"tabbed\t3").is_empty());
    let bad = send_unterminated(addr, b"ok\n\xff\xfe");
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(bad[0]["error"].as_str().is_some(), "{bad:?}");
    let pong = send_unterminated(addr, b"?ping");
    assert_eq!(pong.len(), 1, "{pong:?}");
    assert_eq!(pong[0]["pong"], true);

    let mut conn = TcpStream::connect(addr).expect("connect query client");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let top = query(&mut conn, &mut reader, "?topk 3");
    assert_eq!(top["stream_len"].as_u64(), Some(6), "{top:?}");
    assert_eq!(top["top"][0]["item"], "tabbed");
    assert_eq!(top["top"][0]["count"], 3);
    assert_eq!(top["top"][1]["item"], "plain");
    assert_eq!(top["top"][1]["count"], 2);
    let stats = query(&mut conn, &mut reader, "?stats");
    assert_eq!(stats["net"]["malformed"].as_u64(), Some(1), "{stats:?}");

    query(&mut conn, &mut reader, "?shutdown");
    let engine = server.join().expect("server thread");
    assert_eq!(engine.stream_len(), 6);
}

#[test]
fn unix_socket_listener_speaks_the_same_protocol() {
    let _guard = server_lock();
    sys::reset_drain();

    let path = std::env::temp_dir().join(format!("hh-net-uds-{}.sock", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();

    let serve = ServeOptions::new(config()).shards(Some(1));
    let net = NetOptions::new()
        .unix(path_str.clone())
        .idle_timeout_ms(60_000);
    let server: Server<String> = Server::bind(serve, net).expect("bind unix");
    assert!(server.tcp_addr().is_none());
    let handle = thread::spawn(move || {
        let mut out = Vec::new();
        server.run(&mut out).expect("server run")
    });

    let mut conn = std::os::unix::net::UnixStream::connect(&path).expect("connect unix");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(b"u\nu\nv\n?topk 1\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let top: serde_json::Value = serde_json::from_str(line.trim()).unwrap();
    assert_eq!(top["top"][0]["item"], "u");
    assert_eq!(top["top"][0]["count"], 2);

    conn.write_all(b"?shutdown\n").unwrap();
    let engine = handle.join().expect("server thread");
    assert_eq!(engine.stream_len(), 3);
    assert!(!path.exists(), "socket file cleaned up on drain");
}

#[test]
fn idle_connections_are_reaped() {
    let _guard = server_lock();
    sys::reset_drain();

    let serve = ServeOptions::new(config()).shards(Some(1));
    let net = NetOptions::new().tcp("127.0.0.1:0").idle_timeout_ms(100);
    let (addr, server) = spawn_server(serve, net);

    let mut idle = TcpStream::connect(addr).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    // The sweep closes us without a byte ever flowing: read returns EOF.
    let n = idle.read(&mut buf).expect("read after idle close");
    assert_eq!(n, 0, "idle connection reaped with EOF");

    // A fresh, active connection still works and sees the reap count.
    let mut conn = TcpStream::connect(addr).expect("connect active");
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let stats = query(&mut conn, &mut reader, "?stats");
    assert_eq!(stats["net"]["idle_timeouts"].as_u64(), Some(1), "{stats:?}");

    query(&mut conn, &mut reader, "?shutdown");
    server.join().expect("server thread");
}
