//! `hh::pipeline` — a long-lived sharded ingest service with live queries.
//!
//! [`crate::engine`] turned the paper's algorithms into one serving
//! surface; this module turns that surface into a *concurrent* one. A
//! [`Pipeline`] owns `N` worker threads, each holding a private
//! [`Engine`] built from one [`EngineConfig`], fed through bounded
//! channels by a routing coordinator. Queries are **live**: at any point
//! the coordinator collects per-shard [`Snapshot`]s at an epoch boundary
//! and merges them through [`Engine::merge_snapshot`] (full counter
//! replay with bound bookkeeping), so a merged report carries certified
//! intervals while ingest keeps running.
//!
//! Everything rests on the paper's Theorem 11 (Section 6.2): summaries
//! of separate sub-streams merge with only a constant-factor loss —
//! `(A, B)` per shard becomes `(3A, A+B)` merged — **regardless of how
//! the stream was partitioned or ordered**. The pipeline runs one shard
//! policy that leans on both halves of that:
//!
//! * **hash partition** — every item goes to the shard [`hash_shard`]
//!   picks, so all occurrences of an item live on one shard and each
//!   shard summarizes a disjoint slice of the universe;
//! * **per-batch aggregation** — a shard feeds each delivered batch to
//!   its engine as one `update_by` per distinct item, in first-occurrence
//!   order (a large constant-factor win on hot-set traffic). Shard `j`
//!   therefore equals a sequential engine fed partition `j` in
//!   consecutive `batch_size`-item chunks, each aggregated that way; an
//!   epoch query's flush cuts every shard's open chunk short.
//!
//! Backpressure is part of the contract: channels hold at most
//! `queue_depth` batches per shard, so a producer that outruns the
//! workers blocks in [`Pipeline::send`] instead of queuing unboundedly.
//!
//! **Supervision.** Shard workers run under `catch_unwind`, and the
//! coordinator notices a dead shard at its next interaction with it (a
//! ship, an epoch marker or the drain — detection is lazy, there is no
//! watchdog thread). Every shard has a *restore point* from the moment
//! it is spawned: the snapshot of its fresh engine, replaced by its
//! snapshot at every epoch boundary. A dead shard is rebuilt from its
//! restore point and the mass shipped to it since then is charged to the
//! pipeline's *lost* account: merged views widen `stream_len`, upper
//! estimates and error terms by the lost mass (see
//! [`Engine::add_unobserved`]), so certified intervals and the
//! `(3A, A+B)` guarantee stay sound — the true count of any item still
//! lies inside its reported interval, because at most `lost` occurrences
//! went unobserved. An operation reports the typed [`Error::ShardDown`]
//! only when a restore point fails to rehydrate or a rebuilt worker dies
//! again at once.
//!
//! ```
//! use hh_sketches::engine::{AlgoKind, EngineConfig};
//! use hh_sketches::pipeline::PipelineConfig;
//!
//! let mut pipeline = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(16))
//!     .shards(2)
//!     .spawn::<u64>()
//!     .unwrap();
//! for i in 0..1000u64 {
//!     pipeline.send(i % 7).unwrap();
//! }
//! // live query: merged snapshot at an epoch boundary, ingest continues
//! let live = pipeline.merged().unwrap();
//! assert_eq!(live.stream_len(), 1000);
//! pipeline.send_batch(&[3, 3, 3]).unwrap();
//! let merged = pipeline.finish().unwrap();
//! assert_eq!(merged.stream_len(), 1003);
//! assert_eq!(merged.report().top_k(1)[0].item, 3);
//! ```

use std::hash::{BuildHasher, Hash};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

use hh_counters::error::Error;
use hh_counters::fasthash::FxBuildHasher;
use hh_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

use crate::engine::{Engine, EngineConfig, EngineItem, Snapshot};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Largest accepted [`PipelineConfig::shards`]: one worker thread each.
/// Near a host's thread or memory-map limit, the OS can refuse a thread
/// after it was created (its signal stack), which aborts the process
/// instead of failing the spawn; this cap keeps a pipeline well clear of
/// that. The default shard count is clamped to it.
const MAX_SHARDS: usize = 1 << 10;

/// Largest accepted [`PipelineConfig::batch_size`], in items. Shard
/// buffers are preallocated at the batch size, so this bounds them; it
/// also keeps the per-batch aggregator's `u32` slot index in range.
const MAX_BATCH: usize = 1 << 20;

/// Largest accepted [`PipelineConfig::queue_depth`], in batches per
/// shard (each channel preallocates its slots).
const MAX_QUEUE: usize = 1 << 10;

/// The pipeline's routing policy: hash partition, the only one.
///
/// Each item goes to the shard [`hash_shard`] picks, so all occurrences
/// of an item land on one shard. Named only through
/// [`PipelineConfig::routing`], which keeps it for existing callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    /// Route by [`hash_shard`]. The default and only value.
    #[default]
    HashPartition,
}

/// How a shard worker consumes a delivered batch: per-batch
/// aggregation, the only mode.
///
/// Named only through [`PipelineConfig::ingest`], which keeps it for
/// existing callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardIngest {
    /// One `update_by` per distinct item of the batch, in
    /// first-occurrence order — a permutation of the batch, which
    /// Theorem 11 licenses: the merged `(3A, A+B)` guarantee never
    /// conditions on arrival order. The default and only value.
    #[default]
    Aggregate,
}

/// Builder for a [`Pipeline`]: one [`EngineConfig`] describing every
/// shard's summary, plus the concurrency knobs.
///
/// ```
/// use hh_sketches::engine::{AlgoKind, EngineConfig};
/// use hh_sketches::pipeline::PipelineConfig;
///
/// let config = PipelineConfig::new(EngineConfig::new(AlgoKind::Frequent).counters(64))
///     .shards(4)
///     .batch_size(1024)
///     .queue_depth(2);
/// assert_eq!(config.shard_count(), 4);
/// assert!(config.validate().is_ok());
/// let pipeline = config.spawn::<u64>().unwrap();
/// assert_eq!(pipeline.shards(), 4);
/// pipeline.finish().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    engine: EngineConfig,
    shards: usize,
    batch: usize,
    queue: usize,
}

impl PipelineConfig {
    /// Starts a pipeline config: engines per `engine`, one shard per unit
    /// of available parallelism, 8192-item batches, 4 queued batches per
    /// shard. Routing (hash partition), per-batch aggregation and shard
    /// supervision are fixed (see the [module docs](self)).
    ///
    /// # Invariants
    ///
    /// `shards` must be in `1..=2^10`, `batch_size` in `1..=2^20` and
    /// `queue_depth` in `1..=2^10`. [`PipelineConfig::validate`] (called
    /// by [`PipelineConfig::spawn`]) reports a violation as a typed
    /// [`Error::InvalidConfig`] — it never panics and never silently
    /// clamps a degenerate value.
    pub fn new(engine: EngineConfig) -> Self {
        PipelineConfig {
            engine,
            shards: std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(MAX_SHARDS),
            batch: 8192,
            queue: 4,
        }
    }

    /// Sets the number of worker shards (`1..=2^10`).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Stores and changes nothing: hash partition is the only routing.
    /// Kept only because the repo benchmark (`perfbench/`) names it.
    pub fn routing(self, _routing: Routing) -> Self {
        self
    }

    /// Stores and changes nothing: per-batch aggregation is the only
    /// shard ingest. Kept only because the repo benchmark (`perfbench/`)
    /// names it.
    pub fn ingest(self, _ingest: ShardIngest) -> Self {
        self
    }

    /// Sets the router's flush threshold: a shard buffer is shipped once
    /// it holds this many items (`1..=2^20`).
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the bounded channel capacity, in batches per shard
    /// (`1..=2^10`); a full queue blocks the producer (backpressure).
    pub fn queue_depth(mut self, queue: usize) -> Self {
        self.queue = queue;
        self
    }

    /// The configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The per-shard [`EngineConfig`].
    pub fn engine_config(&self) -> &EngineConfig {
        &self.engine
    }

    /// Checks the sizing bounds without spawning anything.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] on a shard count, batch size or queue
    /// depth of zero or above its maximum (2^10 shards, 2^20 items, 2^10
    /// batches).
    pub fn validate(&self) -> Result<(), Error> {
        if !(1..=MAX_SHARDS).contains(&self.shards) {
            return Err(Error::invalid_config(format!(
                "shard count must be in 1..={MAX_SHARDS}, got {}",
                self.shards
            )));
        }
        if !(1..=MAX_BATCH).contains(&self.batch) {
            return Err(Error::invalid_config(format!(
                "batch size must be in 1..={MAX_BATCH}, got {}",
                self.batch
            )));
        }
        if !(1..=MAX_QUEUE).contains(&self.queue) {
            return Err(Error::invalid_config(format!(
                "queue depth must be in 1..={MAX_QUEUE}, got {}",
                self.queue
            )));
        }
        Ok(())
    }

    /// Validates the config and spawns the shard workers.
    ///
    /// # Errors
    ///
    /// Everything [`PipelineConfig::validate`] rejects; the
    /// [`Error::InvalidConfig`] a plain [`EngineConfig::build`] would
    /// report for an invalid engine config; and [`Error::Pipeline`] when
    /// the OS refuses a worker thread (the workers already started are
    /// shut down and joined first).
    pub fn spawn<I: EngineItem>(&self) -> Result<Pipeline<I>, Error> {
        self.validate()?;
        let metrics = PipelineMetrics::new(self.shards);
        let mut senders = Vec::with_capacity(self.shards);
        let mut workers = Vec::with_capacity(self.shards);
        let mut last_snapshots = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            // Engines are built on the coordinator thread so config errors
            // surface here, before any thread exists.
            let engine = self.engine.build::<I>()?;
            last_snapshots.push(engine.snapshot());
            match spawn_worker(engine, self.queue, metrics.shards[shard].clone()) {
                Ok((tx, handle)) => {
                    senders.push(tx);
                    workers.push(handle);
                }
                Err(e) => {
                    // Disconnect the started workers' channels, then reap
                    // them: each sees an empty, closed queue and returns.
                    drop(senders);
                    for handle in workers {
                        // lint:allow(error-swallow) a fresh worker that received nothing has nothing to report; the spawn error is what the caller needs
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Pipeline {
            config: self.clone(),
            senders,
            workers,
            buffers: (0..self.shards)
                .map(|_| Vec::with_capacity(self.batch))
                .collect(),
            last_snapshots,
            shipped_since: vec![0; self.shards],
            lost: 0,
            routed: 0,
            epoch: 0,
            metrics,
        })
    }
}

/// The shard an item routes to:
/// `((hash >> 32) * shards) >> 32`, where `hash` is the item's 64-bit Fx
/// hash — its high 32 bits scaled onto `0..shards`. Public because it is
/// part of the pipeline's partition contract — tests (and external
/// shards reproducing a pipeline's partition) rely on it.
///
/// ```
/// use std::hash::BuildHasher;
/// use hh_counters::fasthash::FxBuildHasher;
/// use hh_sketches::pipeline::hash_shard;
///
/// for item in [0u64, 42, 0xdead_beef, u64::MAX] {
///     let hash = FxBuildHasher::default().hash_one(item);
///     for shards in [1usize, 2, 3, 4, 7] {
///         let expected = ((hash >> 32) * shards as u64) >> 32;
///         assert_eq!(hash_shard(shards, &item) as u64, expected);
///         assert!(hash_shard(shards, &item) < shards);
///     }
/// }
/// ```
pub fn hash_shard<I: Hash>(shards: usize, item: &I) -> usize {
    // Multiply-shift on the high 32 bits: the well-mixed half of the Fx
    // product (its low bits are a bijection of the key's low bits for
    // integer keys, so `hash % shards` with a power-of-two shard count
    // would route strided IDs onto a single shard).
    let high = FxBuildHasher::default().hash_one(item) >> 32;
    ((high * shards as u64) >> 32) as usize
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Shared metric handles for one shard. The router holds one clone, the
/// shard worker another; all mutations are relaxed atomics on the
/// *per-batch* paths (ship / receive), never per item — which is what
/// keeps the instrumented send hot path within noise of the bare one.
#[derive(Debug, Clone)]
struct ShardMetrics {
    /// Worker side: occurrences the shard engine has consumed.
    items_ingested: Counter,
    /// Worker side: batches consumed.
    batches_ingested: Counter,
    /// Router side: items shipped to this shard (the routing
    /// distribution; feeds the imbalance ratio).
    routed_items: Counter,
    /// Batches in flight on the shard's channel: `+1` at ship, `−1` when
    /// the worker dequeues — a live sample of backpressure.
    queue_depth: Gauge,
    /// Nanoseconds the producer spent inside `send` per shipped batch —
    /// grows when the bounded channel is full (backpressure blocking).
    send_block_ns: Histogram,
    /// Times this shard's worker was respawned after a panic.
    restarts: Counter,
}

/// All pipeline telemetry, owned by the coordinator and exposed through
/// [`Pipeline::stats`] / [`Pipeline::registry`].
#[derive(Debug)]
struct PipelineMetrics {
    registry: Registry,
    shards: Vec<ShardMetrics>,
    /// Wall time of each epoch-boundary snapshot collection.
    snapshot_ns: Histogram,
    /// Wall time of each snapshot-set merge ([`Pipeline::merged`]).
    merge_ns: Histogram,
    epochs: Counter,
    /// Occurrences charged to dead shards across all restarts (the mass
    /// merged views widen their intervals by).
    lost_items: Counter,
}

impl PipelineMetrics {
    fn new(shards: usize) -> Self {
        let registry = Registry::new();
        let shard_metrics = (0..shards)
            .map(|i| {
                let shard = i.to_string();
                let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
                ShardMetrics {
                    items_ingested: registry.counter_with(
                        "hh_pipeline_shard_items_total",
                        labels,
                        "occurrences consumed by the shard worker",
                    ),
                    batches_ingested: registry.counter_with(
                        "hh_pipeline_shard_batches_total",
                        labels,
                        "batches consumed by the shard worker",
                    ),
                    routed_items: registry.counter_with(
                        "hh_pipeline_shard_routed_total",
                        labels,
                        "items the router shipped to this shard",
                    ),
                    queue_depth: registry.gauge_with(
                        "hh_pipeline_shard_queue_depth",
                        labels,
                        "batches in flight on the shard channel",
                    ),
                    send_block_ns: registry.histogram_with(
                        "hh_pipeline_send_block_ns",
                        labels,
                        "producer time inside send per shipped batch",
                    ),
                    restarts: registry.counter_with(
                        "hh_pipeline_shard_restarts_total",
                        labels,
                        "times the shard worker was respawned after a panic",
                    ),
                }
            })
            .collect();
        let snapshot_ns = registry.histogram(
            "hh_pipeline_snapshot_ns",
            "epoch-boundary snapshot collection wall time",
        );
        let merge_ns =
            registry.histogram("hh_pipeline_merge_ns", "epoch snapshot-set merge wall time");
        let epochs = registry.counter(
            "hh_pipeline_epochs_total",
            "completed epoch-boundary queries",
        );
        let lost_items = registry.counter(
            "hh_pipeline_lost_items_total",
            "occurrences charged to dead shards (widens merged intervals)",
        );
        PipelineMetrics {
            registry,
            shards: shard_metrics,
            snapshot_ns,
            merge_ns,
            epochs,
            lost_items,
        }
    }
}

/// Point-in-time telemetry for one shard (see [`PipelineStats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index (position in routing order).
    pub shard: usize,
    /// Occurrences the shard worker has consumed so far.
    pub items_ingested: u64,
    /// Batches the shard worker has consumed so far.
    pub batches_ingested: u64,
    /// Items the router has shipped to this shard (routing distribution).
    pub routed_items: u64,
    /// Batches currently in flight on the shard's channel. A live sample:
    /// transiently `−1`/`+1` around a dequeue while ingest runs, exactly
    /// `0` right after an epoch boundary.
    pub queue_depth: i64,
    /// Distribution of producer time inside `send` per shipped batch.
    pub send_block_ns: HistogramSnapshot,
    /// Times this shard's worker was respawned after a panic.
    pub restarts: u64,
}

/// A point-in-time read-out of a running [`Pipeline`]'s telemetry,
/// returned by [`Pipeline::stats`].
///
/// Sampling is live and lock-free: values mutate while ingest runs, and
/// cross-counter identities are only exact at quiescent points. Right
/// after an epoch-boundary query ([`Pipeline::snapshots`] or any method
/// built on it), every queue is drained, so
/// `Σ shards[i].items_ingested == routed` exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineStats {
    /// Items accepted by the router (mirror of [`Pipeline::routed`]).
    pub routed: u64,
    /// Completed epoch-boundary queries (mirror of [`Pipeline::epoch`]).
    pub epochs: u64,
    /// Routing imbalance: max over shards of shipped items divided by the
    /// per-shard mean. `1.0` is perfectly balanced (and the value before
    /// anything shipped); `shards as f64` means one shard took it all.
    pub imbalance: f64,
    /// Distribution of epoch-boundary snapshot collection wall time.
    pub snapshot_ns: HistogramSnapshot,
    /// Distribution of epoch snapshot-set merge wall time.
    pub merge_ns: HistogramSnapshot,
    /// Shard-worker respawns across all shards (`Σ shards[i].restarts`).
    pub restarts: u64,
    /// Occurrences charged to dead shards so far — the mass every merged
    /// view widens its `stream_len`, upper estimates and error terms by.
    /// `0` on a pipeline that never lost a worker.
    pub lost_items: u64,
    /// Per-shard telemetry, in shard order.
    pub shards: Vec<ShardStats>,
}

impl PipelineStats {
    /// Total items shipped to shards (`Σ routed_items`); trails
    /// [`PipelineStats::routed`] by whatever is still buffered in the
    /// router.
    pub fn shipped(&self) -> u64 {
        self.shards.iter().map(|s| s.routed_items).sum()
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

enum Msg<I> {
    /// A routed batch of arrivals.
    Batch(Vec<I>),
    /// Epoch marker: reply with the shard's current snapshot. FIFO
    /// channel order makes the reply reflect exactly the batches routed
    /// to this shard before the marker.
    Checkpoint(SyncSender<Snapshot<I>>),
}

/// What a shard worker hands back through its join handle: the drained
/// engine on a clean shutdown, or the panic message when the worker died.
type ShardOutcome<I> = Result<Engine<I>, String>;

/// A running shard worker: the sending end of its channel and its join
/// handle.
type Worker<I> = (SyncSender<Msg<I>>, JoinHandle<ShardOutcome<I>>);

fn shard_worker<I: EngineItem>(
    mut engine: Engine<I>,
    rx: Receiver<Msg<I>>,
    metrics: ShardMetrics,
) -> Engine<I> {
    let mut aggregator = BatchAggregator::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(batch) => {
                // Injection site: a crash here models a worker dying with
                // a dequeued-but-unapplied batch (free unless armed).
                hh_fault::fault_point(hh_fault::sites::SHARD_BATCH);
                metrics.queue_depth.sub(1);
                aggregator.ingest(&mut engine, &batch);
                metrics.items_ingested.add(batch.len() as u64);
                metrics.batches_ingested.inc();
            }
            Msg::Checkpoint(reply) => {
                // Injection site: a crash between marker receipt and the
                // reply exercises the coordinator's phase-2 recovery.
                hh_fault::fault_point(hh_fault::sites::SHARD_CHECKPOINT);
                // A dropped reply receiver means the coordinator gave up
                // on this epoch; ingest continues regardless.
                // lint:allow(error-swallow) send fails only when the coordinator dropped the receiver, and the shard must keep ingesting
                let _ = reply.send(engine.snapshot());
            }
        }
    }
    // Channel disconnected: the coordinator is finishing (or dropped the
    // pipeline). Hand the engine back through the join handle.
    engine
}

/// Spawns one shard worker under `catch_unwind`, so a panic in a worker
/// (a backend bug, or an injected fault) is reported through the join
/// handle as an `Err(panic message)` instead of silently poisoning the
/// pipeline. `AssertUnwindSafe` is sound here: on panic the engine and
/// aggregator are dropped with the closure — supervision rebuilds state
/// from the shard's restore point and never observes the torn values.
///
/// The OS refusing a thread is a typed [`Error::Pipeline`], not a panic.
fn spawn_worker<I: EngineItem>(
    engine: Engine<I>,
    queue: usize,
    metrics: ShardMetrics,
) -> Result<Worker<I>, Error> {
    let (tx, rx) = std::sync::mpsc::sync_channel::<Msg<I>>(queue);
    let handle = std::thread::Builder::new()
        .spawn(move || {
            std::panic::catch_unwind(AssertUnwindSafe(|| shard_worker(engine, rx, metrics)))
                .map_err(|payload| panic_message(payload.as_ref()))
        })
        .map_err(|e| Error::pipeline(format!("cannot spawn a shard worker thread: {e}")))?;
    Ok((tx, handle))
}

/// Best-effort text of a caught panic payload (`&str` and `String`
/// payloads cover `panic!`; anything else gets a fixed marker).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-batch multiset aggregation scratch for the shard workers:
/// an open-addressing table mapping items to a first-occurrence-ordered
/// `(item, count)` list, cleared between batches.
struct BatchAggregator<I> {
    /// Slot → `index + 1` into `pairs`; 0 is empty.
    table: Vec<u32>,
    mask: usize,
    pairs: Vec<(I, u64)>,
    build: FxBuildHasher,
}

impl<I: EngineItem> BatchAggregator<I> {
    fn new() -> Self {
        BatchAggregator {
            table: Vec::new(),
            mask: 0,
            pairs: Vec::new(),
            build: FxBuildHasher::default(),
        }
    }

    /// Feeds `batch` into `engine` as one `update_by` per distinct item,
    /// counts aggregated, items in first-occurrence order — a fixed,
    /// deterministic permutation of the batch.
    fn ingest(&mut self, engine: &mut Engine<I>, batch: &[I]) {
        if batch.is_empty() {
            return;
        }
        // ≤ 1/2 load even if every batch item is distinct.
        let want = (batch.len() * 2).next_power_of_two().max(16);
        if self.table.len() < want {
            self.table = vec![0u32; want];
            self.mask = want - 1;
        } else {
            self.table.fill(0);
        }
        for item in batch {
            // probe with the well-mixed high half of the hash (the low
            // bits of an unmixed Fx product cluster on strided keys)
            let mut pos = (self.build.hash_one(item) >> 32) as usize & self.mask;
            loop {
                let slot = self.table[pos];
                if slot == 0 {
                    self.pairs.push((item.clone(), 1));
                    self.table[pos] = self.pairs.len() as u32;
                    break;
                }
                let idx = (slot - 1) as usize;
                if self.pairs[idx].0 == *item {
                    self.pairs[idx].1 += 1;
                    break;
                }
                pos = (pos + 1) & self.mask;
            }
        }
        for (item, count) in self.pairs.drain(..) {
            engine.update_by(item, count);
        }
    }
}

// ---------------------------------------------------------------------------
// The coordinator handle
// ---------------------------------------------------------------------------

/// A running sharded ingest service (see the [module docs](self)).
///
/// The handle is the single producer: [`Pipeline::send`] /
/// [`Pipeline::send_batch`] route arrivals, the query methods
/// ([`Pipeline::snapshots`], [`Pipeline::merged`]) collect an
/// epoch-consistent view while ingest stays live, and
/// [`Pipeline::finish`] drains everything and returns the final merged
/// engine.
pub struct Pipeline<I: EngineItem> {
    config: PipelineConfig,
    senders: Vec<SyncSender<Msg<I>>>,
    workers: Vec<JoinHandle<ShardOutcome<I>>>,
    /// Pending per-shard batches, shipped at `batch_size` items.
    buffers: Vec<Vec<I>>,
    /// Supervision state: each shard's restore point — the snapshot of
    /// its fresh engine at spawn, then its last epoch-boundary snapshot.
    /// A dead shard is rebuilt from it.
    last_snapshots: Vec<Snapshot<I>>,
    /// Items shipped to each shard since its snapshot in
    /// `last_snapshots` was taken — the mass charged as lost if the
    /// worker dies before the next epoch.
    shipped_since: Vec<u64>,
    /// Total occurrences charged to dead shards; folded into every
    /// merged view via [`Engine::add_unobserved`].
    lost: u64,
    routed: u64,
    epoch: u64,
    metrics: PipelineMetrics,
}

impl<I: EngineItem> std::fmt::Debug for Pipeline<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("shards", &self.senders.len())
            .field("routed", &self.routed)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl<I: EngineItem> Pipeline<I> {
    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Items accepted by the router so far (buffered or shipped). After
    /// an [`Error::Pipeline`], counts exactly the items accepted before
    /// the failure.
    pub fn routed(&self) -> u64 {
        self.routed
    }

    /// Completed epoch-boundary queries so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Occurrences charged to dead shards so far — the mass every merged
    /// view is widened by ([`Engine::add_unobserved`]). `0` unless a
    /// shard worker died and was rebuilt.
    pub fn lost_items(&self) -> u64 {
        self.lost
    }

    /// A live telemetry sample: per-shard ingest counters, queue depths,
    /// send-block and epoch-latency distributions, and the derived
    /// routing imbalance ratio. Non-blocking (relaxed atomic loads); see
    /// [`PipelineStats`] for which identities are exact when.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// use hh_sketches::pipeline::PipelineConfig;
    ///
    /// let mut p = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(16))
    ///     .shards(2)
    ///     .batch_size(8)
    ///     .spawn::<u64>()
    ///     .unwrap();
    /// p.send_batch(&(0..100).collect::<Vec<u64>>()).unwrap();
    /// p.merged().unwrap(); // epoch boundary: queues drained
    /// let stats = p.stats();
    /// assert_eq!(stats.routed, 100);
    /// assert_eq!(stats.shards.iter().map(|s| s.items_ingested).sum::<u64>(), 100);
    /// assert!(stats.imbalance >= 1.0);
    /// p.finish().unwrap();
    /// ```
    pub fn stats(&self) -> PipelineStats {
        let shards: Vec<ShardStats> = self
            .metrics
            .shards
            .iter()
            .enumerate()
            .map(|(i, m)| ShardStats {
                shard: i,
                items_ingested: m.items_ingested.get(),
                batches_ingested: m.batches_ingested.get(),
                routed_items: m.routed_items.get(),
                queue_depth: m.queue_depth.get(),
                send_block_ns: m.send_block_ns.snapshot(),
                restarts: m.restarts.get(),
            })
            .collect();
        let shipped: u64 = shards.iter().map(|s| s.routed_items).sum();
        let imbalance = if shipped == 0 {
            1.0
        } else {
            let max = shards.iter().map(|s| s.routed_items).max().unwrap_or(0);
            let mean = shipped as f64 / shards.len() as f64;
            max as f64 / mean
        };
        PipelineStats {
            routed: self.routed,
            epochs: self.metrics.epochs.get(),
            imbalance,
            snapshot_ns: self.metrics.snapshot_ns.snapshot(),
            merge_ns: self.metrics.merge_ns.snapshot(),
            restarts: shards.iter().map(|s| s.restarts).sum(),
            lost_items: self.lost,
            shards,
        }
    }

    /// The pipeline's metric [`Registry`] — every counter, gauge and
    /// histogram behind [`Pipeline::stats`], renderable as Prometheus
    /// text or JSON.
    ///
    /// ```
    /// # use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// # use hh_sketches::pipeline::PipelineConfig;
    /// let p = PipelineConfig::new(EngineConfig::new(AlgoKind::Frequent).counters(8))
    ///     .shards(1)
    ///     .spawn::<u64>()
    ///     .unwrap();
    /// assert!(p.registry().to_prometheus().contains("hh_pipeline_shard_items_total"));
    /// p.finish().unwrap();
    /// ```
    pub fn registry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Whether any shard's bounded channel is currently full — the next
    /// [`Pipeline::send`] routed to it would block the producer.
    ///
    /// A live, advisory sample (workers drain concurrently, so saturation
    /// can clear a microsecond later): event-driven producers like
    /// `hh-net` poll it to *pause* pulling from upstream sources instead
    /// of parking the whole event loop inside a blocking `send`, turning
    /// channel backpressure into source backpressure.
    pub fn saturated(&self) -> bool {
        let cap = self.config.queue as i64;
        self.metrics
            .shards
            .iter()
            .any(|m| m.queue_depth.get() >= cap)
    }

    /// Routes one arrival to its [`hash_shard`]. Blocks when the
    /// destination shard's queue is full (backpressure). A dead shard
    /// worker is respawned from its restore point; if that fails the call
    /// reports [`Error::ShardDown`].
    #[inline]
    pub fn send(&mut self, item: I) -> Result<(), Error> {
        self.routed += 1;
        let shard = hash_shard(self.senders.len(), &item);
        self.buffers[shard].push(item);
        if self.buffers[shard].len() >= self.config.batch {
            self.ship(shard)?;
        }
        Ok(())
    }

    /// Routes a slice of arrivals in order: [`Pipeline::send`] per
    /// element.
    pub fn send_batch(&mut self, items: &[I]) -> Result<(), Error> {
        for item in items {
            self.send(item.clone())?;
        }
        Ok(())
    }

    /// Ships every buffered item to its shard, leaving the buffers empty.
    /// Called implicitly by the query methods and by [`Pipeline::finish`].
    pub fn flush(&mut self) -> Result<(), Error> {
        for shard in 0..self.buffers.len() {
            if !self.buffers[shard].is_empty() {
                self.ship(shard)?;
            }
        }
        Ok(())
    }

    /// The single shipping point: all telemetry is per *batch* here (a
    /// counter add, a gauge bump, one timed send), so the per-item
    /// [`Pipeline::send`] stays exactly as lean as before instrumentation.
    fn ship(&mut self, shard: usize) -> Result<(), Error> {
        let batch = std::mem::replace(
            &mut self.buffers[shard],
            Vec::with_capacity(self.config.batch),
        );
        let len = batch.len() as u64;
        self.metrics.shards[shard].routed_items.add(len);
        let start = Instant::now();
        let sent = self.deliver(shard, Msg::Batch(batch));
        let metrics = &self.metrics.shards[shard];
        metrics.send_block_ns.record_duration(start.elapsed());
        sent?;
        // Counted once delivered: a batch lost with a dead channel was
        // never in flight, and a recovery resets the gauge.
        metrics.queue_depth.add(1);
        self.shipped_since[shard] += len;
        Ok(())
    }

    /// Sends `msg` to `shard`. A failed send means the worker died: the
    /// shard is respawned from its restore point and the message — handed
    /// back intact by the send error — goes to the rebuilt worker, so it
    /// is never part of the lost mass. One attempt: a rebuilt worker that
    /// is already dead again (e.g. a persistent injected fault) surfaces
    /// as [`Error::ShardDown`].
    fn deliver(&mut self, shard: usize, msg: Msg<I>) -> Result<(), Error> {
        let Err(undelivered) = self.senders[shard].send(msg) else {
            return Ok(());
        };
        self.respawn(shard)?;
        self.senders[shard]
            .send(undelivered.0)
            .map_err(|_| Error::ShardDown {
                shard,
                recovered: true,
            })
    }

    /// Replaces a dead shard worker with a new one running the
    /// [recovered](Self::recover) engine, and reaps the dead worker.
    fn respawn(&mut self, shard: usize) -> Result<(), Error> {
        let engine = self.recover(shard)?;
        let (tx, handle) = spawn_worker(
            engine,
            self.config.queue,
            self.metrics.shards[shard].clone(),
        )?;
        drop(std::mem::replace(&mut self.senders[shard], tx));
        let dead = std::mem::replace(&mut self.workers[shard], handle);
        // The worker already exited (that is why we are here); reap its
        // panic payload so the thread is not leaked.
        // lint:allow(error-swallow) the Err payload is the panic we are recovering from; recover already recorded the restart
        let _ = dead.join();
        Ok(())
    }

    /// The one recovery step for a dead shard, whoever noticed the death:
    /// rebuilds its engine from the restore point and charges everything
    /// shipped to it since then as lost. Batches queued at the crash died
    /// with the channel, so the shard's in-flight gauge restarts at zero.
    fn recover(&mut self, shard: usize) -> Result<Engine<I>, Error> {
        let engine = Engine::from_snapshot(self.last_snapshots[shard].clone()).map_err(|_| {
            Error::ShardDown {
                shard,
                recovered: false,
            }
        })?;
        let lost = std::mem::take(&mut self.shipped_since[shard]);
        self.lost = self.lost.saturating_add(lost);
        let metrics = &self.metrics.shards[shard];
        metrics.queue_depth.set(0);
        metrics.restarts.inc();
        self.metrics.lost_items.add(lost);
        Ok(engine)
    }

    /// Collects one snapshot per shard at an epoch boundary: every item
    /// routed before this call is reflected, no item sent after is. The
    /// pipeline keeps ingesting afterwards; the epoch counter increments.
    ///
    /// A shard found dead here is respawned and its restored engine
    /// answers the epoch (sound: the lost mass is in the pipeline's lost
    /// account, which merged views widen by). On success the collected
    /// snapshots become the shards' new restore points.
    pub fn snapshots(&mut self) -> Result<Vec<Snapshot<I>>, Error> {
        let start = Instant::now();
        self.flush()?;
        // Phase 1: post a checkpoint marker to every shard...
        let mut replies = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            replies.push(self.post_checkpoint(shard)?);
        }
        // ...then collect, so shards drain their queues concurrently
        // instead of one at a time.
        let mut snaps = Vec::with_capacity(replies.len());
        for (shard, rx) in replies.into_iter().enumerate() {
            match rx.recv() {
                Ok(snap) => snaps.push(snap),
                Err(_) => {
                    // The shard died between the marker and its reply.
                    // Respawn it and ask the rebuilt worker: its state
                    // *is* the restore point, exactly what this epoch can
                    // still soundly report for the shard.
                    self.respawn(shard)?;
                    let retry = self.post_checkpoint(shard)?;
                    snaps.push(retry.recv().map_err(|_| Error::ShardDown {
                        shard,
                        recovered: true,
                    })?);
                }
            }
        }
        // The epoch is the new restore point for every shard.
        self.last_snapshots.clone_from(&snaps);
        self.shipped_since.fill(0);
        self.epoch += 1;
        self.metrics.snapshot_ns.record_duration(start.elapsed());
        self.metrics.epochs.inc();
        Ok(snaps)
    }

    /// Posts one epoch marker to `shard` and returns the receiver its
    /// snapshot reply arrives on.
    fn post_checkpoint(&mut self, shard: usize) -> Result<Receiver<Snapshot<I>>, Error> {
        let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
        self.deliver(shard, Msg::Checkpoint(reply_tx))?;
        Ok(reply_rx)
    }

    /// The live merged view: per-shard snapshots collected at an epoch
    /// boundary and combined through [`Engine::merge_snapshot`] — full
    /// counter replay with the donors' bound bookkeeping folded in, so
    /// the returned engine's certified intervals and `stream_len` are
    /// sound for the combined stream and its [`Engine::report`] is the
    /// pipeline's live query surface. Carries the Theorem 11 `(3A, A+B)`
    /// k-tail guarantee when shards carry `(A, B)`.
    ///
    /// If shards were lost and respawned, the result is widened by the
    /// lost mass ([`Engine::add_unobserved`]): `stream_len` still counts
    /// every routed item and certified intervals still contain the true
    /// counts.
    pub fn merged(&mut self) -> Result<Engine<I>, Error> {
        let snaps = self.snapshots()?;
        let start = Instant::now();
        let merged = merge_snapshots(snaps);
        self.metrics.merge_ns.record_duration(start.elapsed());
        let mut merged = merged?;
        merged.add_unobserved(self.lost);
        Ok(merged)
    }

    /// Drains every buffer, stops the workers, and returns the final
    /// merged engine (same merge as [`Pipeline::merged`], including the
    /// lost-mass widening if shards were ever respawned).
    pub fn finish(mut self) -> Result<Engine<I>, Error> {
        let mut engines = self.drain_shards()?.into_iter();
        // lint:allow(panic-freedom) unreachable: PipelineConfig::spawn rejects shards == 0, and drain_shards returns exactly one engine per shard
        let mut merged = engines.next().expect("spawn enforces at least one shard");
        for engine in engines {
            merged.merge(&engine)?;
        }
        merged.add_unobserved(self.lost);
        Ok(merged)
    }

    /// Drains every buffer, stops the workers, and returns the per-shard
    /// engines in shard order. A shard found dead at the drain is
    /// replaced by its restore point (the caller can read the charged
    /// loss off [`Pipeline::stats`] beforehand — after this the pipeline
    /// is consumed).
    pub fn finish_shards(mut self) -> Result<Vec<Engine<I>>, Error> {
        self.drain_shards()
    }

    /// The common drain: disconnect every channel, join every worker, and
    /// [recover](Self::recover) the shards whose workers died.
    fn drain_shards(&mut self) -> Result<Vec<Engine<I>>, Error> {
        self.flush()?;
        // Dropping the senders disconnects the channels; workers drain
        // what is queued and return their engines.
        self.senders.clear();
        let workers = std::mem::take(&mut self.workers);
        let mut engines = Vec::with_capacity(workers.len());
        for (shard, handle) in workers.into_iter().enumerate() {
            let engine = match handle.join() {
                Ok(Ok(engine)) => engine,
                // The worker died somewhere before the drain.
                _ => self.recover(shard)?,
            };
            engines.push(engine);
        }
        Ok(engines)
    }
}

/// Folds a snapshot set into one engine via the snapshot-merge path.
fn merge_snapshots<I: EngineItem>(snaps: Vec<Snapshot<I>>) -> Result<Engine<I>, Error> {
    let mut snaps = snaps.into_iter();
    let first = snaps
        .next()
        .ok_or_else(|| Error::pipeline("no shard snapshots to merge"))?;
    let mut merged = Engine::from_snapshot(first)?;
    for snap in snaps {
        merged.merge_snapshot(&snap)?;
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AlgoKind;
    use hh_counters::key::Key;

    fn stream(len: u64, modulus: u64) -> Vec<u64> {
        (0..len).map(|i| (i * i + 11 * i) % modulus).collect()
    }

    fn ss_config(m: usize) -> PipelineConfig {
        PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(m))
    }

    #[test]
    fn spawn_validates_config() {
        for bad in [
            ss_config(8).shards(0),
            ss_config(8).shards(MAX_SHARDS + 1),
            ss_config(8).shards(100_000),
            ss_config(8).batch_size(0),
            ss_config(8).batch_size(MAX_BATCH + 1),
            ss_config(8).batch_size(10_000_000_000),
            ss_config(8).queue_depth(0),
            ss_config(8).queue_depth(MAX_QUEUE + 1),
            ss_config(8).queue_depth(10_000_000_000),
        ] {
            assert!(
                matches!(bad.validate(), Err(Error::InvalidConfig(_))),
                "{bad:?}"
            );
            assert!(
                matches!(bad.spawn::<u64>(), Err(Error::InvalidConfig(_))),
                "{bad:?}"
            );
        }
        assert!(ss_config(0).shards(2).spawn::<u64>().is_err()); // engine config error
                                                                 // The maxima themselves are accepted.
        assert!(ss_config(8).shards(MAX_SHARDS).validate().is_ok());
        let edge = ss_config(8)
            .shards(1)
            .batch_size(MAX_BATCH)
            .queue_depth(MAX_QUEUE);
        assert!(edge.validate().is_ok());
        edge.spawn::<u64>().unwrap().finish().unwrap();
    }

    #[test]
    fn saturated_is_false_at_quiescent_points() {
        let mut p = ss_config(64)
            .shards(2)
            .batch_size(4)
            .queue_depth(1)
            .spawn::<u64>()
            .unwrap();
        assert!(!p.saturated(), "fresh pipeline has empty queues");
        p.send_batch(&stream(1_000, 97)).unwrap();
        // An epoch boundary drains every queue; the advisory sample must
        // read empty again.
        p.merged().unwrap();
        assert!(!p.saturated(), "queues drained at the epoch boundary");
        p.finish().unwrap();
    }

    #[test]
    fn merged_counts_the_whole_stream_for_every_mode() {
        let s = stream(20_000, 997);
        for (shards, batch) in [(1, 1), (3, 512), (4, 30_000)] {
            let mut p = ss_config(64)
                .shards(shards)
                .batch_size(batch)
                .spawn::<u64>()
                .unwrap();
            p.send_batch(&s).unwrap();
            let merged = p.finish().unwrap();
            assert_eq!(
                merged.stream_len(),
                20_000,
                "{shards} shards, batch {batch}"
            );
            assert!(merged.stored_len() <= 64);
        }
    }

    #[test]
    fn live_queries_are_epoch_consistent_and_nondestructive() {
        let mut p = ss_config(32)
            .shards(4)
            .batch_size(64)
            .spawn::<u64>()
            .unwrap();
        p.send_batch(&stream(5_000, 37)).unwrap();
        let first = p.merged().unwrap();
        assert_eq!(first.stream_len(), 5_000);
        assert_eq!(p.epoch(), 1);

        // ingest continues; the next epoch sees strictly more
        p.send_batch(&stream(2_500, 37)).unwrap();
        let second = p.merged().unwrap();
        assert_eq!(second.stream_len(), 7_500);
        assert_eq!(p.epoch(), 2);

        let fin = p.finish().unwrap();
        assert_eq!(fin.stream_len(), 7_500);
    }

    #[test]
    fn hash_partition_sends_all_occurrences_to_one_shard() {
        let s = stream(8_000, 101);
        let mut p = ss_config(128)
            .shards(4)
            .batch_size(256)
            .spawn::<u64>()
            .unwrap();
        p.send_batch(&s).unwrap();
        let shards = p.finish_shards().unwrap();
        // every item is fully counted on exactly its hash shard
        for item in 0..101u64 {
            let exact = s.iter().filter(|&&x| x == item).count() as u64;
            if exact == 0 {
                continue;
            }
            let home = hash_shard(4, &item);
            assert_eq!(shards[home].estimate(&item), exact, "item {item}");
            for (j, shard) in shards.iter().enumerate() {
                if j != home {
                    assert_eq!(shard.estimate(&item), 0, "item {item} leaked to shard {j}");
                }
            }
        }
    }

    /// `hash_shard` at 2, 3, 4 and 7 shards, recorded from the
    /// `copy_from_slice` Fx construction: the partition is a public
    /// contract, so these must not move.
    #[test]
    fn hash_shard_matches_the_recorded_goldens() {
        fn at<I: Hash>(item: &I) -> [usize; 4] {
            [2, 3, 4, 7].map(|n| hash_shard(n, item))
        }
        for (x, want) in [
            (0u64, [0, 0, 0, 0]),
            (1, [0, 0, 1, 2]),
            (42, [0, 1, 1, 2]),
            (0xdead_beef, [0, 1, 1, 2]),
            (u64::MAX, [1, 2, 2, 4]),
        ] {
            assert_eq!(at(&x), want, "u64 {x}");
        }
        for (text, want) in [
            ("", [0, 0, 0, 1]),
            ("user:42", [1, 2, 3, 5]),
            // 22 bytes: the longest inline `Key`.
            ("abcdefghijklmnopqrstuv", [1, 2, 2, 4]),
            // 32 bytes: a boxed `Key`.
            ("a-boxed-key-longer-than-22-bytes", [0, 1, 1, 2]),
        ] {
            assert_eq!(at(&Key::from(text)), want, "Key {text:?}");
            assert_eq!(at(&text.to_string()), want, "String {text:?}");
        }
    }

    #[test]
    fn aggregate_mode_is_deterministic_and_exact_below_capacity() {
        let s = stream(12_000, 61); // 61 distinct < m: summaries stay exact
        let run = || {
            let mut p = ss_config(128)
                .shards(3)
                .batch_size(100)
                .spawn::<u64>()
                .unwrap();
            p.send_batch(&s).unwrap();
            p.finish().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.entries(), b.entries(), "two identical runs must agree");
        for item in 0..61u64 {
            let exact = s.iter().filter(|&&x| x == item).count() as u64;
            assert_eq!(a.estimate(&item), exact, "item {item}");
        }
    }

    #[test]
    fn count_min_shards_match_one_sequential_engine() {
        // Count-Min cell updates are linear, so neither the hash partition
        // nor batch aggregation is visible to the merged sketch: its point
        // estimates equal one engine (same seed) fed the whole stream.
        let s = stream(9_000, 211);
        let config = EngineConfig::new(AlgoKind::CountMin).counters(256).seed(3);
        let mut p = PipelineConfig::new(config.clone())
            .shards(2)
            .batch_size(128)
            .spawn::<u64>()
            .unwrap();
        p.send_batch(&s).unwrap();
        let merged = p.finish().unwrap();
        let mut sequential = config.build::<u64>().unwrap();
        sequential.update_batch(&s);
        for item in 0..211u64 {
            assert_eq!(
                merged.estimate(&item),
                sequential.estimate(&item),
                "item {item}"
            );
        }
    }

    #[test]
    fn every_algo_runs_through_the_pipeline() {
        let s = stream(4_000, 53);
        for algo in AlgoKind::ALL {
            let mut p = PipelineConfig::new(EngineConfig::new(algo).counters(64).seed(5))
                .shards(2)
                .batch_size(256)
                .spawn::<u64>()
                .unwrap();
            p.send_batch(&s).unwrap();
            let merged = p.finish().unwrap();
            assert_eq!(merged.stream_len(), 4_000, "{algo}");
            assert!(!merged.report().top_k(3).is_empty(), "{algo}");
        }
    }

    #[test]
    fn string_items_route_and_merge() {
        let words = ["the", "cat", "sat", "the", "mat", "the"];
        let mut p = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(8))
            .shards(2)
            .batch_size(2)
            .spawn::<String>()
            .unwrap();
        for w in words {
            p.send(w.to_string()).unwrap();
        }
        let merged = p.finish().unwrap();
        assert_eq!(merged.estimate(&"the".to_string()), 3);
        assert_eq!(merged.stream_len(), 6);
    }

    #[test]
    fn stats_are_exact_at_epoch_boundaries() {
        let s = stream(10_000, 313);
        let mut p = ss_config(64)
            .shards(3)
            .batch_size(128)
            .spawn::<u64>()
            .unwrap();
        p.send_batch(&s).unwrap();
        p.merged().unwrap();

        let stats = p.stats();
        assert_eq!(stats.routed, 10_000);
        assert_eq!(stats.epochs, 1);
        assert_eq!(stats.shipped(), 10_000, "epoch boundary flushes buffers");
        let ingested: u64 = stats.shards.iter().map(|s| s.items_ingested).sum();
        assert_eq!(ingested, 10_000, "checkpoint implies queues drained");
        for shard in &stats.shards {
            assert_eq!(shard.queue_depth, 0, "shard {} not drained", shard.shard);
            assert_eq!(shard.items_ingested, shard.routed_items);
            assert_eq!(shard.send_block_ns.count, shard.batches_ingested);
        }
        assert!(stats.imbalance >= 1.0 && stats.imbalance <= 3.0);
        assert_eq!(stats.snapshot_ns.count, 1);
        assert_eq!(stats.merge_ns.count, 1);
        p.finish().unwrap();
    }

    #[test]
    fn registry_exposes_pipeline_metrics() {
        let mut p = ss_config(8)
            .shards(2)
            .batch_size(16)
            .spawn::<u64>()
            .unwrap();
        p.send_batch(&(0..64).collect::<Vec<u64>>()).unwrap();
        p.snapshots().unwrap();
        let text = p.registry().to_prometheus();
        for family in [
            "hh_pipeline_shard_items_total",
            "hh_pipeline_shard_queue_depth",
            "hh_pipeline_send_block_ns",
            "hh_pipeline_snapshot_ns",
            "hh_pipeline_epochs_total",
            "hh_pipeline_shard_restarts_total",
            "hh_pipeline_lost_items_total",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        let json = p.registry().to_json();
        assert!(json.contains("\"hh_pipeline_epochs_total\""));
        p.finish().unwrap();
    }

    #[test]
    fn dropping_a_pipeline_does_not_hang() {
        let mut p = ss_config(8).shards(2).batch_size(4).spawn::<u64>().unwrap();
        p.send_batch(&[1, 2, 3]).unwrap();
        drop(p); // workers exit on disconnect; nothing to join
    }

    #[test]
    fn healthy_pipelines_report_no_restarts_or_loss() {
        // Supervision must be invisible while no shard dies: zero
        // restarts, zero lost mass, exact stream_len.
        let mut p = ss_config(32)
            .shards(2)
            .batch_size(64)
            .spawn::<u64>()
            .unwrap();
        p.send_batch(&stream(3_000, 71)).unwrap();
        p.merged().unwrap();
        let stats = p.stats();
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.lost_items, 0);
        assert_eq!(p.lost_items(), 0);
        for shard in &stats.shards {
            assert_eq!(shard.restarts, 0);
        }
        let merged = p.finish().unwrap();
        assert_eq!(merged.stream_len(), 3_000);
        assert_eq!(merged.unobserved(), 0);
    }
}
