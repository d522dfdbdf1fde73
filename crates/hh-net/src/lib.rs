//! `hh-net` — the network-facing ingest/query server over the
//! `hh::pipeline` shard service.
//!
//! Theorem 11 (BCIS 2009) makes heavy-hitter summaries a *distributed*
//! primitive: per-shard `(A, B)` summaries merge to a `(3A, A + B)`
//! summary of the union stream regardless of how arrivals were
//! partitioned. This crate carries summaries across the process
//! boundary — many concurrent writers stream newline-delimited items
//! over TCP or Unix-domain sockets into one bounded, hash-partitioned
//! shard pipeline, and any client can ask, in-band, for the live
//! certified answer (each item's owner-shard interval) or for the
//! Theorem 11 merged snapshot.
//!
//! Three layers:
//!
//! * [`ServeOptions`] / [`ServeSession`] — the shared serving runtime
//!   (shards, batch/queue sizing, report/stats/checkpoint cadence,
//!   snapshot in/out; always hash-partitioned) driven identically by
//!   `hh serve` reading stdin and by the network server, one
//!   [`ServeSession::send`] per item and one record policy that both
//!   only render, so the two modes cannot drift;
//! * [`proto`] — the wire protocol: `item` / `item\tcount` ingest lines,
//!   `?topk` / `?stats` / `?ping` / `?shutdown` queries,
//!   and the versioned (`"v":1`) NDJSON record renderers;
//! * [`Server`] — a single-threaded edge-triggered epoll event loop
//!   (vendored [`sys`] bindings; no crates.io) multiplexing client
//!   connections onto the pipeline's bounded channels, with genuine
//!   backpressure: while any shard queue is full the server stops
//!   *reading*, so TCP flow control pushes back on writers instead of
//!   buffering unboundedly.
//!
//! The workspace's algorithm crates forbid `unsafe`; this crate needs
//! exactly four syscalls' worth (`epoll_create1`/`epoll_ctl`/
//! `epoll_wait`/`signal`), confined to [`sys`] — the rest of the crate
//! denies `unsafe` like its siblings. Linux-only by construction.
//!
//! ```no_run
//! use hh_net::{NetOptions, ServeOptions, Server};
//! use hh_sketches::engine::{AlgoKind, EngineConfig};
//!
//! let serve = ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(256))
//!     .shards(Some(4))
//!     .top_k(10);
//! let net = NetOptions::new().tcp("127.0.0.1:7070");
//! let server: Server<u64> = Server::bind(serve, net).unwrap();
//! hh_net::sys::install_drain_signal_handlers();
//! let mut out = std::io::stdout();
//! let merged = server.run(&mut out).unwrap(); // until SIGTERM/?shutdown
//! assert!(merged.stream_len() > 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod options;
pub mod poll;
pub mod proto;
pub mod server;
pub mod sys;

pub use checkpoint::Checkpoint;
pub use options::{Due, NetOptions, Record, ServeItem, ServeOptions, ServeSession};
pub use proto::{Query, PROTOCOL_VERSION};
pub use server::Server;
