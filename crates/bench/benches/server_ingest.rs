//! Loopback server ingest throughput: `hh::net::Server` fed over a real
//! TCP socket against the in-process `hh::pipeline` it multiplexes onto.
//!
//! The workload is the pipeline bench's hot-set saturation traffic (1024
//! distinct items, 4x the counter budget), but arriving as the line
//! protocol: one decimal item per `\n`-terminated line, pre-rendered into
//! a single contiguous byte buffer so the client write path costs nothing
//! to speak of. The delta between the two benchmarks is therefore the
//! whole network stack — loopback TCP, the epoll event loop, line
//! splitting, `u64` parsing, and restaging into shard batches.
//!
//! `bench_regression_check`'s `server_ingest` gate measures the same
//! pair as a same-run ratio and fails if the server side falls below
//! its floor (half the in-process figure, less a tolerance).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hh::net::{sys, NetOptions, ServeOptions, Server};
use hh::pipeline::PipelineConfig;
use hh::prelude::*;
use hh_streamgen::zipf::{stream_from_counts, StreamOrder};
use hh_streamgen::{exact_zipf_counts, Item};

/// Kept in sync with `pipeline_throughput.rs` and the regression gate.
const DISTINCT: usize = 1024;
const TOTAL: u64 = 1_000_000;
const ALPHA: f64 = 0.1;
const M: usize = 256;
const SHARDS: usize = 4;
/// Server staging ships 8 Ki-item batches; the in-process twin uses the
/// same batch size so the comparison isolates the network stack.
const BATCH: usize = 8192;

fn workload() -> Vec<Item> {
    let counts = exact_zipf_counts(DISTINCT, TOTAL, ALPHA);
    stream_from_counts(&counts, StreamOrder::Shuffled(1))
}

fn engine_config() -> EngineConfig {
    EngineConfig::new(AlgoKind::SpaceSaving).counters(M)
}

/// The stream rendered as the wire protocol: one item per line.
fn render_lines(stream: &[Item]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(stream.len() * 5);
    for item in stream {
        buf.extend_from_slice(item.to_string().as_bytes());
        buf.push(b'\n');
    }
    buf
}

/// One full server lifecycle: bind, stream `lines` over loopback TCP,
/// drain, and return the merged stream length.
fn serve_once(lines: &[u8]) -> u64 {
    sys::reset_drain();
    let serve = ServeOptions::new(engine_config())
        .shards(Some(SHARDS))
        .batch_size(BATCH);
    let net = NetOptions::new().tcp("127.0.0.1:0");
    let server: Server<Item> = Server::bind(serve, net).expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp address");
    let handle = std::thread::spawn(move || {
        let mut out = Vec::new();
        server.run(&mut out).expect("server run")
    });

    let mut conn = TcpStream::connect(addr).expect("connect");
    // Deep client-side send buffer: the writer dumps the whole burst into
    // the kernel instead of context-switching against the server for every
    // 16 KiB window refill (both threads share one core on small hosts).
    let _ = sys::set_socket_buffers(std::os::fd::AsRawFd::as_raw_fd(&conn), 4 * 1024 * 1024);
    conn.write_all(lines).expect("stream lines");
    conn.write_all(b"?shutdown\n").expect("request drain");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut ack = Vec::new();
    conn.read_to_end(&mut ack).expect("drain ack");

    let merged = handle.join().expect("server thread");
    merged.stream_len()
}

fn bench_server_ingest(c: &mut Criterion) {
    let stream = workload();
    let lines = render_lines(&stream);
    let mut group = c.benchmark_group("server_ingest");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.sample_size(10);

    group.bench_with_input(BenchmarkId::new("pipeline", SHARDS), &(), |b, ()| {
        b.iter(|| {
            let mut pipeline = PipelineConfig::new(engine_config())
                .shards(SHARDS)
                .batch_size(BATCH)
                .spawn::<Item>()
                .expect("valid config");
            pipeline.send_batch(&stream).expect("shards alive");
            let merged = pipeline.finish().expect("clean shutdown");
            std::hint::black_box(merged.stream_len())
        });
    });

    group.bench_with_input(BenchmarkId::new("server_loopback", SHARDS), &(), |b, ()| {
        b.iter(|| std::hint::black_box(serve_once(&lines)));
    });
    group.finish();
}

criterion_group!(benches, bench_server_ingest);
criterion_main!(benches);
