//! The shared serving configuration: one [`ServeOptions`] drives both the
//! CLI's stdin/trace `serve` loop and the network [`crate::Server`], so
//! the two ingest modes cannot drift apart, plus the [`ServeSession`]
//! runtime that both loops tick.
//!
//! `ServeOptions` owns every knob the two modes share — shard count,
//! batch size, queue depth, report/stats/checkpoint cadence, snapshot
//! in/out — and `hh serve`'s flags map 1:1 onto it. The shard policy is
//! fixed: hash-partition routing with per-batch aggregation (Theorem 11
//! makes the merged guarantee hold for any partition and any order).
//! [`NetOptions`] adds the listener-only knobs (addresses, connection
//! limits, timeouts).

use std::fmt::Display;

use hh_counters::error::Error;
use hh_sketches::engine::{Engine, EngineConfig, EngineItem, Snapshot};
use hh_sketches::pipeline::{Pipeline, PipelineConfig, PipelineStats};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{self, Checkpoint};

/// Everything the stdin/trace serve path and the network serve path have
/// in common. Build one from an [`EngineConfig`], tune it with the
/// builder methods, then [`ServeSession::spawn`] it.
///
/// # Invariants
///
/// [`ServeOptions::validate`] (called by `spawn`) returns
/// [`Error::InvalidConfig`] — never panics, never silently clamps — when
/// `shards`, `batch_size` or `queue_depth` is out of the range
/// [`PipelineConfig::validate`] accepts, or when the embedded engine
/// config itself cannot build.
///
/// ```
/// use hh_net::ServeOptions;
/// use hh_sketches::engine::{AlgoKind, EngineConfig};
///
/// let opts = ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(64))
///     .shards(Some(2))
///     .report_every(10_000)
///     .top_k(5);
/// assert!(opts.validate().is_ok());
/// assert!(ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(64))
///     .batch_size(0)
///     .validate()
///     .is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ServeOptions {
    engine: EngineConfig,
    shards: Option<usize>,
    batch_size: usize,
    queue_depth: usize,
    report_every: u64,
    stats_every: Option<u64>,
    checkpoint_every: u64,
    snapshot_in: Option<String>,
    snapshot_out: Option<String>,
    k: usize,
}

impl ServeOptions {
    /// Serving defaults over `engine`: auto shard count (one per
    /// available core), 8192-item batches, 4-deep queues, final-only
    /// reports, no stats records, no snapshots, `k = 10`.
    pub fn new(engine: EngineConfig) -> Self {
        ServeOptions {
            engine,
            shards: None,
            batch_size: 8192,
            queue_depth: 4,
            report_every: 0,
            stats_every: None,
            checkpoint_every: 0,
            snapshot_in: None,
            snapshot_out: None,
            k: 10,
        }
    }

    /// Sets the shard count (`1..=2^10`; `None` = one per core).
    pub fn shards(mut self, shards: Option<usize>) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the router batch size (`1..=2^20` items).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the per-shard queue depth (`1..=2^10` batches).
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Emits a live top-k report record every `n` ingested items
    /// (0: final report only).
    pub fn report_every(mut self, n: u64) -> Self {
        self.report_every = n;
        self
    }

    /// Emits a telemetry record every `n` ingested items (`Some(0)`:
    /// only a final stats record; `None`: no stats records).
    pub fn stats_every(mut self, n: Option<u64>) -> Self {
        self.stats_every = n;
        self
    }

    /// Writes a durable checkpoint (tmp + fsync + atomic rename, CRC'd
    /// envelope, two generations — see [`crate::checkpoint`]) to the
    /// `snapshot_out` path every `n` ingested items (0: no periodic
    /// checkpoints). Requires `snapshot_out`.
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Resumes from a snapshot file written by `--snapshot-out` (merged
    /// into every report through the Theorem 11 snapshot merge). The file
    /// is a checkpoint envelope, verified and falling back to the previous
    /// generation if torn or missing.
    pub fn snapshot_in(mut self, path: Option<String>) -> Self {
        self.snapshot_in = path;
        self
    }

    /// Writes the final merged snapshot to this path on drain.
    pub fn snapshot_out(mut self, path: Option<String>) -> Self {
        self.snapshot_out = path;
        self
    }

    /// Sets `k` for report records.
    pub fn top_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// The embedded engine config.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.engine
    }

    /// The stats cadence in items (`None`: no stats records).
    pub fn stats_cadence(&self) -> Option<u64> {
        self.stats_every
    }

    /// `k` for report records.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The pipeline configuration these options describe (the pipeline
    /// always hash-partitions and aggregates per batch).
    pub fn pipeline_config(&self) -> PipelineConfig {
        let mut config = PipelineConfig::new(self.engine.clone())
            .batch_size(self.batch_size)
            .queue_depth(self.queue_depth);
        if let Some(shards) = self.shards {
            config = config.shards(shards);
        }
        config
    }

    /// Checks the serving invariants without spawning anything.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] on pipeline sizing that
    /// [`PipelineConfig::validate`] rejects (`shards`, `batch_size` or
    /// `queue_depth` out of range), a zero report `k`, or an unbuildable
    /// engine config.
    pub fn validate(&self) -> Result<(), Error> {
        self.pipeline_config().validate()?;
        if self.k == 0 {
            return Err(Error::invalid_config("report k must be at least 1"));
        }
        if self.checkpoint_every > 0 && self.snapshot_out.is_none() {
            return Err(Error::invalid_config(
                "checkpoint-every needs a snapshot-out path to write to",
            ));
        }
        // Surfaces engine-config errors (0 counters, bad eps, …) here
        // instead of at first use.
        self.engine.build::<u64>()?;
        Ok(())
    }
}

/// Fires at every multiple of `every` routed items; `every == 0` never
/// fires.
#[derive(Debug)]
struct Cadence {
    every: u64,
    /// The routed count of the next boundary item (`u64::MAX`: never).
    next: u64,
}

impl Cadence {
    fn new(every: u64) -> Self {
        let next = if every == 0 { u64::MAX } else { every };
        Cadence { every, next }
    }

    /// Whether item number `routed` is a boundary item (then arms the
    /// next boundary). Items must be offered one by one, in order.
    fn fire(&mut self, routed: u64) -> bool {
        if routed < self.next {
            return false;
        }
        self.next += self.every;
        true
    }
}

/// Which cadence boundaries the item just routed landed on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Due {
    /// A live top-k report record is due.
    pub report: bool,
    /// A telemetry stats record is due.
    pub stats: bool,
    /// A durable checkpoint write is due
    /// (call [`ServeSession::checkpoint`]).
    pub checkpoint: bool,
}

impl Due {
    /// True when anything is due.
    pub fn any(self) -> bool {
        self.report || self.stats || self.checkpoint
    }
}

/// The running half of [`ServeOptions`], shared verbatim by the CLI's
/// stdin loop and the network server: a spawned [`Pipeline`], the resume
/// snapshot (folded into every merged view), and the report/stats
/// cadence countdowns.
///
/// ```
/// use hh_net::{ServeOptions, ServeSession};
/// use hh_sketches::engine::{AlgoKind, EngineConfig};
///
/// let opts = ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(16))
///     .shards(Some(2))
///     .report_every(3);
/// let mut session: ServeSession<u64> = ServeSession::spawn(&opts).unwrap();
/// assert!(!session.send(1).unwrap().report);
/// assert!(!session.send(2).unwrap().report);
/// assert!(session.send(3).unwrap().report); // the boundary item
/// let merged = session.finish().unwrap();
/// assert_eq!(merged.stream_len(), 3);
/// ```
#[derive(Debug)]
pub struct ServeSession<I: EngineItem> {
    pipeline: Pipeline<I>,
    resume: Option<Snapshot<I>>,
    /// Mass the resumed checkpoint had already charged as unobserved
    /// (lost shards in the previous run); widens every merged view.
    resume_unobserved: u64,
    /// Whether the resume load fell back to the previous checkpoint
    /// generation because the current one was torn or corrupt.
    resumed_from_fallback: bool,
    report_cadence: Cadence,
    stats_cadence: Cadence,
    checkpoint_cadence: Cadence,
    /// The earliest `next` of the three cadences, so an item that is no
    /// boundary costs one compare (0 until the first item sets it).
    next_due: u64,
    snapshot_out: Option<String>,
    k: usize,
}

impl<I: EngineItem> ServeSession<I> {
    /// Validates `opts`, loads the resume snapshot (if configured) and
    /// spawns the shard pipeline.
    ///
    /// A `snapshot_in` checkpoint envelope is CRC-verified and falls back
    /// to the previous generation when the current one is torn or missing
    /// ([`checkpoint::load_latest`]).
    ///
    /// # Errors
    ///
    /// Everything [`ServeOptions::validate`] rejects, plus I/O,
    /// verification ([`Error::CorruptSnapshot`]) or deserialization
    /// failures on the `snapshot_in` file, and [`Error::SnapshotMismatch`]
    /// when that snapshot does not merge into the configured engine.
    pub fn spawn(opts: &ServeOptions) -> Result<Self, Error>
    where
        I: Deserialize,
    {
        opts.validate()?;
        let mut resume_unobserved = 0u64;
        let mut resumed_from_fallback = false;
        let resume = match &opts.snapshot_in {
            Some(path) => {
                let (ckpt, fell_back) = checkpoint::load_latest::<I>(path)?;
                resume_unobserved = ckpt.unobserved;
                resumed_from_fallback = fell_back;
                checkpoint::merge_to_snapshot(ckpt.shards)?
            }
            None => None,
        };
        if let Some(snap) = resume.as_ref().filter(|s| s.is_weighted()) {
            return Err(Error::Unsupported {
                algo: snap.algo().name().to_string(),
                operation: "resuming a serve session from a weighted snapshot",
            });
        }
        if let Some(snap) = &resume {
            // Every merged view folds the resume snapshot in; a checkpoint
            // of another algorithm or shape must fail here, before any item
            // is accepted, not at the first query.
            opts.engine.build::<I>()?.merge_snapshot(snap)?;
        }
        let pipeline = opts.pipeline_config().spawn()?;
        Ok(ServeSession {
            pipeline,
            resume,
            resume_unobserved,
            resumed_from_fallback,
            report_cadence: Cadence::new(opts.report_every),
            stats_cadence: Cadence::new(opts.stats_every.unwrap_or(0)),
            checkpoint_cadence: Cadence::new(opts.checkpoint_every),
            next_due: 0,
            snapshot_out: opts.snapshot_out.clone(),
            k: opts.k,
        })
    }

    /// Whether the resume load skipped a torn/corrupt current checkpoint
    /// and used the previous generation instead.
    pub fn resumed_from_fallback(&self) -> bool {
        self.resumed_from_fallback
    }

    /// `k` for report records.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying pipeline (live stats, registry, …).
    pub fn pipeline(&self) -> &Pipeline<I> {
        &self.pipeline
    }

    /// Items routed into the pipeline this session (excludes the resumed
    /// snapshot's stream).
    pub fn routed(&self) -> u64 {
        self.pipeline.routed()
    }

    /// Whether any shard queue is full — routing more would block the
    /// producer. The network server stops consuming sockets while this
    /// holds (backpressure propagates to clients through TCP).
    pub fn saturated(&self) -> bool {
        self.pipeline.saturated()
    }

    /// A live telemetry sample (see [`Pipeline::stats`]).
    pub fn stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    /// Routes one item — the only way items enter a session — and
    /// returns which cadence boundaries it landed on, so every record
    /// fires at its boundary item.
    #[inline]
    pub fn send(&mut self, item: I) -> Result<Due, Error> {
        self.pipeline.send(item)?;
        let routed = self.pipeline.routed();
        if routed < self.next_due {
            return Ok(Due::default());
        }
        let due = Due {
            report: self.report_cadence.fire(routed),
            stats: self.stats_cadence.fire(routed),
            checkpoint: self.checkpoint_cadence.fire(routed),
        };
        self.next_due = self
            .report_cadence
            .next
            .min(self.stats_cadence.next)
            .min(self.checkpoint_cadence.next);
        Ok(due)
    }

    /// The live merged view at an epoch boundary, with the resume
    /// snapshot (and its unobserved mass) folded in, so reports always
    /// cover the resumed stream too. See [`Pipeline::merged`].
    pub fn merged(&mut self) -> Result<Engine<I>, Error> {
        let mut merged = self.pipeline.merged()?;
        if let Some(resume) = &self.resume {
            merged.merge_snapshot(resume)?;
        }
        merged.add_unobserved(self.resume_unobserved);
        Ok(merged)
    }

    /// Writes a durable checkpoint of the current epoch boundary to the
    /// `snapshot_out` path: every shard's snapshot plus the resume
    /// snapshot, with the total unobserved mass in the envelope header
    /// (see [`crate::checkpoint`] for the format and crash discipline).
    /// A no-op without a `snapshot_out` path.
    pub fn checkpoint(&mut self) -> Result<(), Error>
    where
        I: Serialize,
    {
        let Some(path) = self.snapshot_out.clone() else {
            return Ok(());
        };
        let mut shards = self.pipeline.snapshots()?;
        if let Some(resume) = &self.resume {
            shards.push(resume.clone());
        }
        let unobserved = self
            .pipeline
            .lost_items()
            .saturating_add(self.resume_unobserved);
        checkpoint::write(&path, &Checkpoint { shards, unobserved })
    }

    /// Drains the pipeline, folds in the resume snapshot, writes the
    /// final snapshot to the configured `snapshot_out` path (a one-shard
    /// checkpoint envelope, see [`checkpoint::write`]), and returns the
    /// final merged engine.
    pub fn finish(self) -> Result<Engine<I>, Error>
    where
        I: Serialize,
    {
        let ServeSession {
            pipeline,
            resume,
            resume_unobserved,
            snapshot_out,
            ..
        } = self;
        let mut merged = pipeline.finish()?;
        if let Some(resume) = &resume {
            merged.merge_snapshot(resume)?;
        }
        merged.add_unobserved(resume_unobserved);
        if let Some(path) = &snapshot_out {
            let ckpt = Checkpoint {
                shards: vec![merged.snapshot()],
                unobserved: merged.unobserved(),
            };
            checkpoint::write(path, &ckpt)?;
        }
        Ok(merged)
    }
}

/// Listener-side options for the network server: where to listen and the
/// per-connection robustness knobs.
///
/// # Invariants
///
/// [`NetOptions::validate`] (called by [`crate::Server::bind`]) returns
/// [`Error::InvalidConfig`] — never panics — when no listener address is
/// configured, `max_conns` is zero, or `max_line_bytes` is under 2.
#[derive(Debug, Clone)]
pub struct NetOptions {
    tcp: Option<String>,
    unix: Option<String>,
    idle_timeout_ms: u64,
    max_conns: usize,
    max_line_bytes: usize,
    addr_file: Option<String>,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            tcp: None,
            unix: None,
            idle_timeout_ms: 30_000,
            max_conns: 1024,
            max_line_bytes: 64 * 1024,
            addr_file: None,
        }
    }
}

impl NetOptions {
    /// No listeners, 30 s idle timeout, ≤ 1024 connections, 64 KiB line
    /// limit. Configure at least one listener before binding.
    pub fn new() -> Self {
        NetOptions::default()
    }

    /// Listens on a TCP address (`host:port`; port 0 binds an ephemeral
    /// port — read it back via [`crate::Server::tcp_addr`] or the
    /// addr file).
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.tcp = Some(addr.into());
        self
    }

    /// Listens on a Unix-domain socket path (removed and re-created at
    /// bind).
    pub fn unix(mut self, path: impl Into<String>) -> Self {
        self.unix = Some(path.into());
        self
    }

    /// Closes connections idle longer than this (0 disables the sweep).
    pub fn idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms;
        self
    }

    /// Caps concurrent connections (must be ≥ 1); excess accepts get an
    /// error record and an immediate close.
    pub fn max_conns(mut self, n: usize) -> Self {
        self.max_conns = n;
        self
    }

    /// Caps a single protocol line (must be ≥ 2); longer lines are
    /// rejected as malformed and skipped to the next newline.
    pub fn max_line_bytes(mut self, n: usize) -> Self {
        self.max_line_bytes = n;
        self
    }

    /// After binding, writes the actual listening TCP address
    /// (`host:port`, one line) to this path — how scripts find an
    /// ephemeral port.
    pub fn addr_file(mut self, path: Option<String>) -> Self {
        self.addr_file = path;
        self
    }

    pub(crate) fn tcp_addr_spec(&self) -> Option<&str> {
        self.tcp.as_deref()
    }

    pub(crate) fn unix_path_spec(&self) -> Option<&str> {
        self.unix.as_deref()
    }

    pub(crate) fn idle_timeout(&self) -> Option<std::time::Duration> {
        (self.idle_timeout_ms > 0).then(|| std::time::Duration::from_millis(self.idle_timeout_ms))
    }

    pub(crate) fn max_conns_cap(&self) -> usize {
        self.max_conns
    }

    pub(crate) fn max_line_cap(&self) -> usize {
        self.max_line_bytes
    }

    pub(crate) fn addr_file_path(&self) -> Option<&str> {
        self.addr_file.as_deref()
    }

    /// Checks the listener invariants.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when no listener is configured,
    /// `max_conns == 0`, or `max_line_bytes < 2`.
    pub fn validate(&self) -> Result<(), Error> {
        if self.tcp.is_none() && self.unix.is_none() {
            return Err(Error::invalid_config(
                "server needs at least one listener (tcp or unix)",
            ));
        }
        if self.max_conns == 0 {
            return Err(Error::invalid_config("max_conns must be at least 1"));
        }
        if self.max_line_bytes < 2 {
            return Err(Error::invalid_config(
                "max_line_bytes must be at least 2 (item + newline)",
            ));
        }
        Ok(())
    }
}

/// Items a [`crate::Server`] can serve: engine items that also parse from
/// a protocol line and render into report records. Blanket-implemented;
/// `String` and every integer type qualify.
pub trait ServeItem: EngineItem + std::str::FromStr + Display + Serialize + Deserialize {}

impl<T: EngineItem + std::str::FromStr + Display + Serialize + Deserialize> ServeItem for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_sketches::engine::AlgoKind;

    fn opts() -> ServeOptions {
        ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(32))
    }

    #[test]
    fn validate_rejects_degenerate_values_with_typed_errors() {
        for bad in [
            opts().shards(Some(0)),
            opts().shards(Some(100_000)),
            opts().batch_size(0),
            opts().batch_size(10_000_000_000),
            opts().queue_depth(0),
            opts().queue_depth(10_000_000_000),
            opts().top_k(0),
            ServeOptions::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(0)),
        ] {
            match bad.validate() {
                Err(Error::InvalidConfig(_)) => {}
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        assert!(opts().validate().is_ok());
    }

    #[test]
    fn net_options_validate() {
        assert!(matches!(
            NetOptions::new().validate(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            NetOptions::new().tcp("127.0.0.1:0").max_conns(0).validate(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(matches!(
            NetOptions::new()
                .tcp("127.0.0.1:0")
                .max_line_bytes(1)
                .validate(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(NetOptions::new().tcp("127.0.0.1:0").validate().is_ok());
        assert!(NetOptions::new().unix("/tmp/x.sock").validate().is_ok());
    }

    #[test]
    fn cadence_boundaries_fire_once_per_crossing() {
        let o = opts().shards(Some(1)).report_every(5).stats_every(Some(3));
        let mut s: ServeSession<u64> = ServeSession::spawn(&o).unwrap();
        // Item 3: stats boundary only.
        assert!(!s.send(1).unwrap().any());
        assert!(!s.send(2).unwrap().any());
        let due = s.send(3).unwrap();
        assert_eq!(
            due,
            Due {
                report: false,
                stats: true,
                checkpoint: false
            }
        );
        // Item 5: report boundary; stats not yet (next at 6).
        assert!(!s.send(4).unwrap().any());
        let due = s.send(5).unwrap();
        assert!(due.report && !due.stats);
        // Countdowns stay aligned: each fires at its multiples only.
        for n in 6..=25u64 {
            let due = s.send(n).unwrap();
            assert_eq!(
                (due.report, due.stats),
                (n % 5 == 0, n % 3 == 0),
                "item {n}"
            );
        }
        s.finish().unwrap();
    }

    #[test]
    fn session_round_trips_snapshot_out_and_resume() {
        let dir = std::env::temp_dir().join(format!("hh-net-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("resume.json").to_str().unwrap().to_string();

        let first = opts().shards(Some(2)).snapshot_out(Some(snap.clone()));
        let mut s: ServeSession<u64> = ServeSession::spawn(&first).unwrap();
        for item in [1, 1, 2] {
            s.send(item).unwrap();
        }
        let merged = s.finish().unwrap();
        assert_eq!(merged.stream_len(), 3);

        // Resume: live merged views and the final engine include the
        // snapshot's stream.
        let second = opts().shards(Some(2)).snapshot_in(Some(snap));
        let mut s: ServeSession<u64> = ServeSession::spawn(&second).unwrap();
        s.send(1).unwrap();
        s.send(3).unwrap();
        let live = s.merged().unwrap();
        assert_eq!(live.stream_len(), 5);
        assert_eq!(live.estimate(&1), 3);
        let fin = s.finish().unwrap();
        assert_eq!(fin.stream_len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spawn_surfaces_missing_snapshot_in() {
        let o = opts().snapshot_in(Some("/nonexistent/hh-net-nope.json".into()));
        assert!(matches!(ServeSession::<u64>::spawn(&o), Err(Error::Io(_))));
    }

    #[test]
    fn spawn_rejects_a_snapshot_in_of_another_config() {
        let path = std::env::temp_dir().join(format!("hh-net-mismatch-{}", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let resume_under = |written: EngineConfig, served: EngineConfig| {
            let mut e = written.build::<u64>().unwrap();
            e.update_batch(&[1, 1, 2]);
            let ckpt = Checkpoint {
                shards: vec![e.snapshot()],
                unobserved: 0,
            };
            checkpoint::write(&path, &ckpt).unwrap();
            ServeSession::<u64>::spawn(&ServeOptions::new(served).snapshot_in(Some(path.clone())))
        };
        for (written, served) in [
            (
                EngineConfig::new(AlgoKind::SpaceSaving).counters(4),
                EngineConfig::new(AlgoKind::Frequent).counters(128),
            ),
            (
                EngineConfig::new(AlgoKind::CountMin).counters(64),
                EngineConfig::new(AlgoKind::CountMin).counters(128),
            ),
        ] {
            match resume_under(written, served) {
                Err(Error::SnapshotMismatch { .. }) => {}
                other => panic!("expected SnapshotMismatch, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(format!("{path}.prev")).ok();
    }

    /// A fresh temp path whose `.prev` generation holds a one-shard
    /// checkpoint over `items`, with no current file.
    fn path_with_prev(name: &str, items: &[u64]) -> String {
        let path = std::env::temp_dir().join(format!("hh-net-{}-{name}", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let mut e = opts().pipeline_config().engine_config().build().unwrap();
        e.update_batch(items);
        let shards = vec![e.snapshot()];
        checkpoint::write(
            &format!("{path}.prev"),
            &Checkpoint {
                shards,
                unobserved: 0,
            },
        )
        .unwrap();
        path
    }

    #[test]
    fn resume_falls_back_to_prev_when_the_current_checkpoint_is_missing() {
        // A crash between the two renames of `checkpoint::write` leaves
        // only `<path>.prev` on disk.
        let path = path_with_prev("missing.ckpt", &[1, 1, 2]);
        let mut s = ServeSession::<u64>::spawn(&opts().snapshot_in(Some(path.clone()))).unwrap();
        assert!(s.resumed_from_fallback());
        assert_eq!(s.merged().unwrap().stream_len(), 3);
        std::fs::remove_file(format!("{path}.prev")).ok();
    }

    #[test]
    fn checkpoint_every_requires_snapshot_out() {
        assert!(matches!(
            opts().checkpoint_every(100).validate(),
            Err(Error::InvalidConfig(_))
        ));
        assert!(opts()
            .checkpoint_every(100)
            .snapshot_out(Some("x.ckpt".into()))
            .validate()
            .is_ok());
    }

    #[test]
    fn checkpointed_session_resumes_through_the_envelope() {
        let dir = std::env::temp_dir().join(format!("hh-net-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt").to_str().unwrap().to_string();

        // Periodic checkpoints fire on the item cadence and persist the
        // epoch's shards; the drain writes the envelope format too.
        let first = opts()
            .shards(Some(2))
            .checkpoint_every(4)
            .snapshot_out(Some(path.clone()));
        let mut s: ServeSession<u64> = ServeSession::spawn(&first).unwrap();
        for item in [1, 1, 2] {
            assert!(!s.send(item).unwrap().checkpoint);
        }
        assert!(s.send(3).unwrap().checkpoint);
        s.checkpoint().unwrap();
        let mid = crate::checkpoint::load::<u64>(&path).unwrap();
        assert_eq!(mid.unobserved, 0);
        s.send(4).unwrap();
        s.send(4).unwrap();
        let merged = s.finish().unwrap();
        assert_eq!(merged.stream_len(), 6);
        // final drain rotated the mid-stream checkpoint to .prev
        assert!(std::fs::metadata(format!("{path}.prev")).is_ok());

        // Resume from the envelope: the whole prior stream is covered.
        let second = opts().shards(Some(2)).snapshot_in(Some(path.clone()));
        let mut s: ServeSession<u64> = ServeSession::spawn(&second).unwrap();
        assert!(!s.resumed_from_fallback());
        s.send(1).unwrap();
        let live = s.merged().unwrap();
        assert_eq!(live.stream_len(), 7);
        assert_eq!(live.estimate(&1), 3);

        // Tear the current generation: resume falls back to .prev (the
        // mid-stream checkpoint covering the first 4 items).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let third = opts().shards(Some(1)).snapshot_in(Some(path.clone()));
        let mut s: ServeSession<u64> = ServeSession::spawn(&third).unwrap();
        assert!(s.resumed_from_fallback());
        assert_eq!(s.merged().unwrap().stream_len(), 4);

        // Tear both generations: the typed corruption error surfaces.
        std::fs::write(format!("{path}.prev"), "hhckpt vX garbage\n{}").unwrap();
        let bad = opts().snapshot_in(Some(path));
        assert!(matches!(
            ServeSession::<u64>::spawn(&bad),
            Err(Error::CorruptSnapshot(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
