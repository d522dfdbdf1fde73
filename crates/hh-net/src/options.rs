//! The shared serving configuration: one [`ServeOptions`] drives both the
//! CLI's stdin/trace `serve` loop and the network [`crate::Server`], so
//! the two ingest modes cannot drift apart, plus the [`ServeSession`]
//! runtime that both loops tick and whose record policy both only render.
//!
//! `ServeOptions` owns every knob the two modes share — the pipeline
//! sizing (held in its [`PipelineConfig`]: engine, batch size, queue
//! depth), shard count, report/stats/checkpoint cadence, snapshot in/out
//! — and `hh serve` parses its flags straight into it. The shard policy is
//! fixed: hash-partition routing with per-batch aggregation (Theorem 11
//! makes the merged guarantee hold for any partition and any order), and
//! a resumed session restores shard `j` from checkpoint snapshot `j`.
//! [`NetOptions`] adds the listener-only knobs (addresses, connection
//! limits, timeouts).

use std::fmt::Display;
use std::io::Write;

use hh_counters::error::Error;
use hh_sketches::engine::{Engine, EngineConfig, EngineItem};
use hh_sketches::pipeline::{Pipeline, PipelineConfig, PipelineStats, ShardedView};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{self, Checkpoint, Fallback};

/// Everything the stdin/trace serve path and the network serve path have
/// in common. Build one from an [`EngineConfig`], tune it with the
/// builder methods, then [`ServeSession::spawn`] it.
///
/// The pipeline sizing (engine, batch size, queue depth) lives in the
/// embedded [`PipelineConfig`], its one home; the builder methods forward
/// to it.
///
/// # Invariants
///
/// [`ServeOptions::validate`] (called by `spawn`) returns
/// [`Error::InvalidConfig`] — never panics, never silently clamps — when
/// `shards`, `batch_size` or `queue_depth` is out of the range
/// [`PipelineConfig::validate`] accepts, or when the engine config's
/// counter budget does not resolve.
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
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    pipeline: PipelineConfig,
    /// `None`: the pipeline's default count, or the `snapshot_in`
    /// checkpoint's.
    shards: Option<usize>,
    report_every: u64,
    stats_every: Option<u64>,
    checkpoint_every: u64,
    snapshot_in: Option<String>,
    snapshot_out: Option<String>,
    k: usize,
}

impl ServeOptions {
    /// Serving defaults over `engine`: [`PipelineConfig::new`]'s sizing
    /// (one shard per available core), final-only reports, no stats
    /// records, no snapshots, `k = 10`.
    pub fn new(engine: EngineConfig) -> Self {
        ServeOptions {
            pipeline: PipelineConfig::new(engine),
            shards: None,
            report_every: 0,
            stats_every: None,
            checkpoint_every: 0,
            snapshot_in: None,
            snapshot_out: None,
            k: 10,
        }
    }

    /// Replaces the per-shard engine config ([`PipelineConfig::engine`]).
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.pipeline = self.pipeline.engine(engine);
        self
    }

    /// Sets the shard count (`1..=2^10`; `None` = one per core, or the
    /// `snapshot_in` checkpoint's count). Shard `j` resumes from snapshot
    /// `j`, so a set count must match the checkpoint's.
    pub fn shards(mut self, shards: Option<usize>) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the router batch size ([`PipelineConfig::batch_size`]).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.pipeline = self.pipeline.batch_size(batch_size);
        self
    }

    /// Sets the per-shard queue depth ([`PipelineConfig::queue_depth`]).
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.pipeline = self.pipeline.queue_depth(queue_depth);
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

    /// Resumes from a checkpoint written by `snapshot_out`, verified and
    /// falling back to the previous generation if torn or missing. Shard
    /// `j` resumes from snapshot `j` ([`PipelineConfig::resume`]); counts
    /// must match.
    pub fn snapshot_in(mut self, path: Option<String>) -> Self {
        self.snapshot_in = path;
        self
    }

    /// Writes checkpoints to this path: every `checkpoint_every` items
    /// and at the drain, each one snapshot per shard, so shard `j`
    /// resumes from snapshot `j` through `snapshot_in`.
    pub fn snapshot_out(mut self, path: Option<String>) -> Self {
        self.snapshot_out = path;
        self
    }

    /// Sets `k` for report records.
    pub fn top_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// `k` for report records.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The pipeline configuration these options describe, with a set
    /// shard count applied (the pipeline always hash-partitions and
    /// aggregates per batch).
    pub fn pipeline_config(&self) -> PipelineConfig {
        match self.shards {
            Some(shards) => self.pipeline.clone().shards(shards),
            None => self.pipeline.clone(),
        }
    }

    /// Checks the serving invariants without spawning or allocating an
    /// engine.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] on pipeline sizing that
    /// [`PipelineConfig::validate`] rejects (`shards`, `batch_size` or
    /// `queue_depth` out of range), a zero report `k`, a
    /// `checkpoint_every` without a `snapshot_out` path, or a counter
    /// budget that does not resolve (0 counters, bad eps, …). A sketch
    /// budget too small to split is reported by the engine build in
    /// [`PipelineConfig::resume`].
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
        self.pipeline.engine_config().resolved_counters()?;
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
    /// A durable checkpoint write is due.
    pub checkpoint: bool,
}

impl Due {
    /// True when anything is due.
    pub fn any(self) -> bool {
        self.report || self.stats || self.checkpoint
    }
}

/// One record a [`ServeSession`] writes; the caller renders it to a line.
#[derive(Debug)]
pub enum Record<'a, I: EngineItem> {
    /// A top-k report: the view, its epoch (`None`: the final report), `k`.
    Report(&'a ShardedView<'a, I>, Option<u64>, usize),
    /// A [`ServeSession::fresh_stats`] sample, and whether it is the final one.
    Stats(&'a PipelineStats, bool),
}

/// The running half of [`ServeOptions`], shared verbatim by the CLI's
/// stdin loop and the network server: a spawned [`Pipeline`] — resumed
/// shard by shard from a checkpoint if one is configured — the
/// report/stats/checkpoint cadence countdowns, and the record policy.
///
/// The record policy lives here alone: [`ServeSession::emit`] writes a
/// boundary item's live report, then its stats, then its checkpoint;
/// [`ServeSession::drain`] writes the final stats (with a stats cadence),
/// then the final report, then the `snapshot_out` checkpoint.
///
/// Every answer, the final report included, reads [`ServeSession::view`]:
/// each item gets its owner shard's interval, widened by the owner's own
/// lost mass and by the resumed checkpoint's unobserved mass. Only
/// [`ServeSession::finish`] replays the shards into one engine (Theorem
/// 11), for a caller that ships it. Checkpoints, the drain's included,
/// hold one snapshot per shard: shard `j` resumes from snapshot `j`, and
/// the counts must match.
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
    /// Why the resume load fell back to the previous checkpoint
    /// generation, if it did.
    fallback: Option<Fallback>,
    report_cadence: Cadence,
    stats_cadence: Cadence,
    checkpoint_cadence: Cadence,
    /// The earliest `next` of the three cadences, so an item that is no
    /// boundary costs one compare (0 until the first item sets it).
    next_due: u64,
    /// Whether the drain writes a final stats record (any stats cadence).
    stats_final: bool,
    snapshot_out: Option<String>,
    k: usize,
}

impl<I: EngineItem> ServeSession<I> {
    /// Validates `opts`, loads the resume checkpoint (if configured) and
    /// spawns the shard pipeline: shard `j` resumes from snapshot `j`
    /// ([`PipelineConfig::resume`]), at the checkpoint's shard count
    /// when [`ServeOptions::shards`] is unset.
    ///
    /// A `snapshot_in` checkpoint envelope is CRC-verified and falls back
    /// to the previous generation when the current one is torn or missing
    /// ([`checkpoint::load_latest`]).
    ///
    /// # Errors
    ///
    /// Everything [`ServeOptions::validate`] rejects, plus I/O,
    /// verification ([`Error::CorruptSnapshot`]) or deserialization
    /// failures on the `snapshot_in` file, and, before any worker starts,
    /// [`Error::SnapshotMismatch`] when the checkpoint's shard count
    /// differs from a set [`ServeOptions::shards`], a snapshot comes from
    /// another engine config, or a snapshot stores an item of another
    /// shard.
    pub fn spawn(opts: &ServeOptions) -> Result<Self, Error>
    where
        I: Deserialize,
    {
        opts.validate()?;
        let mut config = opts.pipeline_config();
        let (pipeline, fallback) = match &opts.snapshot_in {
            Some(path) => {
                let (ckpt, fallback) = checkpoint::load_latest::<I>(path)?;
                if opts.shards.is_none() && !ckpt.shards.is_empty() {
                    config = config.shards(ckpt.shards.len());
                }
                (config.resume(ckpt.shards, ckpt.unobserved)?, fallback)
            }
            None => (config.spawn()?, None),
        };
        Ok(ServeSession {
            pipeline,
            fallback,
            report_cadence: Cadence::new(opts.report_every),
            stats_cadence: Cadence::new(opts.stats_every.unwrap_or(0)),
            checkpoint_cadence: Cadence::new(opts.checkpoint_every),
            next_due: 0,
            stats_final: opts.stats_every.is_some(),
            snapshot_out: opts.snapshot_out.clone(),
            k: opts.k,
        })
    }

    /// Why the resume load skipped the current checkpoint and used the
    /// previous generation instead, if it did; `hh serve` prints it.
    pub fn fallback(&self) -> Option<&Fallback> {
        self.fallback.as_ref()
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
    /// checkpoint's stream).
    pub fn routed(&self) -> u64 {
        self.pipeline.routed()
    }

    /// Whether any shard queue is full — routing more would block the
    /// producer. The network server stops consuming sockets while this
    /// holds (backpressure propagates to clients through TCP).
    pub fn saturated(&self) -> bool {
        self.pipeline.saturated()
    }

    /// A telemetry sample ([`Pipeline::stats`]) after a fresh epoch, so
    /// its counters are exact: what every stats record and `?stats` read.
    pub fn fresh_stats(&mut self) -> Result<PipelineStats, Error> {
        self.pipeline.view()?;
        Ok(self.pipeline.stats())
    }

    /// Routes one item — the only way items enter a session — and
    /// returns which cadence boundaries it landed on, for
    /// [`ServeSession::emit`], so every record fires at its boundary item.
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

    /// Ships the buffered items of every shard with an empty queue (see
    /// [`Pipeline::ship_idle`]), so a later query waits only for what
    /// arrives after this call. The network server calls it whenever its
    /// read loop drains.
    ///
    /// # Errors
    ///
    /// As [`ServeSession::send`].
    pub fn ship_idle(&mut self) -> Result<(), Error> {
        self.pipeline.ship_idle()
    }

    /// The live answer at an epoch boundary (see [`Pipeline::view`]):
    /// each item's interval is its owner shard's, which covers the
    /// resumed stream too, widened by the owner's own lost mass and the
    /// resumed checkpoint's unobserved mass.
    pub fn view(&mut self) -> Result<ShardedView<'_, I>, Error> {
        self.pipeline.view()
    }
}

/// Records and checkpoints serialize items.
impl<I: EngineItem + Serialize> ServeSession<I> {
    /// Writes the records `due` calls for, in the record order (see
    /// [`ServeSession`]), then its checkpoint.
    #[cold]
    pub fn emit<R>(&mut self, due: Due, out: &mut impl Write, render: &mut R) -> Result<(), Error>
    where
        R: FnMut(Record<'_, I>) -> String,
    {
        if due.report {
            let view = self.pipeline.view()?;
            let line = render(Record::Report(&view, Some(view.epoch()), self.k));
            writeln!(out, "{line}")?;
        }
        if due.stats {
            let line = render(Record::Stats(&self.fresh_stats()?, false));
            writeln!(out, "{line}")?;
        }
        out.flush()?;
        if due.checkpoint {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Writes a durable checkpoint of the current epoch boundary to the
    /// `snapshot_out` path: every shard's snapshot, in shard order, with
    /// the lost and resumed unobserved mass ([`Pipeline::lost_items`]) in
    /// the envelope header (see [`crate::checkpoint`] for the format and
    /// crash discipline). A no-op without a `snapshot_out` path.
    pub fn checkpoint(&mut self) -> Result<(), Error> {
        let Some(path) = &self.snapshot_out else {
            return Ok(());
        };
        let ckpt = Checkpoint {
            shards: self.pipeline.snapshots()?,
            unobserved: self.pipeline.lost_items(),
        };
        checkpoint::write(path, &ckpt)
    }

    /// Writes a last [checkpoint](ServeSession::checkpoint) to the
    /// configured `snapshot_out` path — one snapshot per shard, so a
    /// drained session resumes exactly too — then drains the pipeline
    /// and returns the final merged engine ([`Pipeline::finish`]), the
    /// form to ship; [`ServeSession::drain`] writes the records first.
    pub fn finish(mut self) -> Result<Engine<I>, Error> {
        self.checkpoint()?;
        self.pipeline.finish()
    }

    /// The drain: the final stats (with a stats cadence), the final
    /// report, then [`ServeSession::finish`], even when `out` fails.
    /// Returns the `finish` error first, else the records' error.
    pub fn drain<R>(mut self, out: &mut impl Write, render: &mut R) -> Result<Engine<I>, Error>
    where
        R: FnMut(Record<'_, I>) -> String,
    {
        let mut write = || -> Result<(), Error> {
            if self.stats_final {
                writeln!(out, "{}", render(Record::Stats(&self.fresh_stats()?, true)))?;
            }
            let view = self.pipeline.view()?;
            writeln!(out, "{}", render(Record::Report(&view, None, self.k)))?;
            Ok(out.flush()?)
        };
        let written = write();
        let merged = self.finish()?;
        written.map(|()| merged)
    }
}

/// Listener-side options for the network server: where to listen and the
/// per-connection robustness knobs. The server reads the fields directly.
///
/// # Invariants
///
/// [`NetOptions::validate`] (called by [`crate::Server::bind`]) returns
/// [`Error::InvalidConfig`] — never panics — when no listener address is
/// configured or `max_conns` is zero.
#[derive(Debug, Clone, PartialEq)]
pub struct NetOptions {
    pub(crate) tcp: Option<String>,
    pub(crate) unix: Option<String>,
    /// 0 disables the idle sweep.
    pub(crate) idle_timeout_ms: u64,
    pub(crate) max_conns: usize,
    pub(crate) addr_file: Option<String>,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            tcp: None,
            unix: None,
            idle_timeout_ms: 30_000,
            max_conns: 1024,
            addr_file: None,
        }
    }
}

impl NetOptions {
    /// No listeners, 30 s idle timeout, ≤ 1024 connections. Configure at
    /// least one listener before binding.
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

    /// After binding, writes the actual listening TCP address
    /// (`host:port`, one line) to this path — how scripts find an
    /// ephemeral port.
    pub fn addr_file(mut self, path: Option<String>) -> Self {
        self.addr_file = path;
        self
    }

    /// Checks the listener invariants.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when no listener is configured or
    /// `max_conns == 0`.
    pub fn validate(&self) -> Result<(), Error> {
        if self.tcp.is_none() && self.unix.is_none() {
            return Err(Error::invalid_config(
                "server needs at least one listener (tcp or unix)",
            ));
        }
        if self.max_conns == 0 {
            return Err(Error::invalid_config("max_conns must be at least 1"));
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
            opts().engine(EngineConfig::new(AlgoKind::SpaceSaving).counters(0)),
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

        // Resume: the live view and the final engine include the
        // snapshot's stream.
        let second = opts().shards(Some(2)).snapshot_in(Some(snap));
        let mut s: ServeSession<u64> = ServeSession::spawn(&second).unwrap();
        s.send(1).unwrap();
        s.send(3).unwrap();
        let view = s.view().unwrap();
        assert_eq!(view.report().total(), 5);
        assert_eq!(view.report().entry(&1).estimate, 3);
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
            (
                EngineConfig::new(AlgoKind::SpaceSaving).counters(64),
                EngineConfig::new(AlgoKind::SpaceSaving).counters(128),
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

    #[test]
    fn spawn_rejects_a_checkpoint_of_another_shard_layout() {
        let path = std::env::temp_dir().join(format!("hh-net-layout-{}", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let mut p = opts()
            .shards(Some(2))
            .pipeline_config()
            .spawn::<u64>()
            .unwrap();
        p.send_batch(&(0..200).map(|i| i % 40).collect::<Vec<u64>>())
            .unwrap();
        let shards = p.snapshots().unwrap();
        // The previous layout of a resumed session: its shards, then the
        // resumed summary folded into one extra snapshot.
        let mut donor = p.finish().unwrap();
        donor.update_batch(&[7, 7, 41]);
        let mut old_layout = shards.clone();
        old_layout.push(donor.snapshot());
        for (written, served) in [
            (shards, Some(3)),
            (old_layout.clone(), Some(2)),
            // Unset, the session runs the checkpoint's 3 shards, and the
            // 2-shard partition is not the 3-shard one.
            (old_layout, None),
        ] {
            let ckpt = Checkpoint {
                shards: written,
                unobserved: 0,
            };
            checkpoint::write(&path, &ckpt).unwrap();
            let resumed = opts().shards(served).snapshot_in(Some(path.clone()));
            match ServeSession::<u64>::spawn(&resumed) {
                Err(Error::SnapshotMismatch { .. }) => {}
                other => panic!("{served:?} shards: expected SnapshotMismatch, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(format!("{path}.prev")).ok();
    }

    #[test]
    fn a_checkpoint_of_no_shards_resumes_fresh_with_its_unobserved_mass() {
        let path = std::env::temp_dir().join(format!("hh-net-empty-{}", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let ckpt = Checkpoint::<u64> {
            shards: Vec::new(),
            unobserved: 5,
        };
        checkpoint::write(&path, &ckpt).unwrap();
        let resumed = opts().shards(Some(3)).snapshot_in(Some(path.clone()));
        let mut s = ServeSession::<u64>::spawn(&resumed).unwrap();
        assert_eq!(s.pipeline().shards(), 3);
        s.send(1).unwrap();
        let view = s.view().unwrap();
        assert_eq!(view.report().total(), 1 + 5);
        assert_eq!(view.report().interval(&1), (1, 1 + 5));
        assert_eq!(s.finish().unwrap().stream_len(), 1 + 5);
        std::fs::remove_file(&path).ok();
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
        assert!(s.fallback().is_some());
        assert_eq!(s.view().unwrap().report().total(), 3);
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
        assert!(s.fallback().is_none());
        s.send(1).unwrap();
        let live = s.view().unwrap().report();
        assert_eq!(live.total(), 7);
        assert_eq!(live.entry(&1).estimate, 3);

        // Tear the current generation: resume falls back to .prev (the
        // mid-stream checkpoint covering the first 4 items).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        let third = opts().shards(Some(2)).snapshot_in(Some(path.clone()));
        let mut s: ServeSession<u64> = ServeSession::spawn(&third).unwrap();
        let fallback = s.fallback().expect("the torn generation falls back");
        assert_eq!(fallback.path, path);
        assert!(matches!(fallback.reason, Error::CorruptSnapshot(_)));
        assert_eq!(s.view().unwrap().report().total(), 4);

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
