//! `hh::pipeline` — a long-lived sharded ingest service with live queries.
//!
//! [`crate::engine`] turned the paper's algorithms into one serving
//! surface; this module turns that surface into a *concurrent* one. A
//! [`Pipeline`] owns `N` worker threads, each applying its batches to
//! its own [`Engine`] built from one [`EngineConfig`], fed through bounded
//! channels by a routing coordinator. Queries are **live**: at any point
//! the coordinator copies every shard's engine at an epoch boundary and
//! answers from the copies while ingest keeps running.
//!
//! The pipeline runs one shard policy:
//!
//! * **hash partition** — every item goes to the shard [`hash_shard`]
//!   picks, so all occurrences of an item live on one shard and each
//!   shard summarizes a disjoint slice of the universe;
//! * **per-batch aggregation** — a shard feeds each delivered batch to
//!   its engine as one `update_by` per distinct item, in first-occurrence
//!   order (a large constant-factor win on hot-set traffic). Driven
//!   through [`Pipeline::send`] alone, shard `j` therefore equals a
//!   sequential engine fed partition `j` in consecutive
//!   `batch_size`-item chunks, each aggregated that way; an epoch
//!   query's flush cuts every shard's open chunk short, and so does
//!   [`Pipeline::ship_idle`] for the shards it ships.
//!
//! Two query surfaces follow. Answers read the live one,
//! [`Pipeline::view`], a [`ShardedView`]: an item's certified interval
//! is its owner shard's interval (the other shards hold none of it),
//! widened only by the mass
//! the owner shard lost and by the unobserved mass a resumed checkpoint
//! carried — so each shard keeps its own `(A, B)` k-tail bound. Resuming
//! ([`PipelineConfig::resume`]) merges nothing either: shard `j` resumes
//! from snapshot `j` once [`check_partition`] passes, and offline
//! readers answer a checkpoint that passes through [`ShardedView::new`].
//! Only one-engine summaries replay: [`Pipeline::merged`] and
//! [`Pipeline::finish`] fold every shard into one engine through
//! [`Engine::merge`]. The paper's Theorem 11 (Section 6.2) keeps a
//! `(3A, A+B)` guarantee for that merge **regardless of how the stream
//! was partitioned or ordered**, at the price of a wider certificate —
//! the form for shards that are not known to be one partition.
//!
//! Backpressure is part of the contract: channels hold at most
//! `queue_depth` batches per shard, so a producer that outruns the
//! workers blocks in [`Pipeline::send`] instead of queuing unboundedly.
//!
//! **Epochs.** Each shard's engine sits behind a mutex shared by its
//! worker, which applies every batch under the lock and then counts it
//! as applied, and the coordinator, which counts the batches it ships.
//! An epoch boundary flushes the router, posts a marker only to the
//! shards that have not applied every shipped batch and waits for their
//! acknowledgements (FIFO order puts every earlier batch ahead of the
//! marker), then locks each shard and copies its engine. A caught-up
//! shard — on an idle pipeline, all of them — costs no worker round
//! trip.
//!
//! **Supervision.** A panic ends a shard worker's thread, and the
//! coordinator notices the dead shard at its next interaction with it (a
//! ship, an epoch marker's dropped acknowledgement, a poisoned engine
//! lock or the drain — detection is lazy, there is no watchdog thread).
//! Every shard has a *restore point* from the moment it is spawned: a
//! copy of its fresh engine, replaced by the coordinator's copy at every
//! epoch boundary (the same copies a [`ShardedView`] reads). A dead
//! shard is rebuilt from its restore point and the mass shipped to it
//! since then is charged to that shard's *lost* account. A view
//! widens the upper bounds of the items the shard owns by it; merged
//! engines widen `stream_len`, upper estimates and error terms by the
//! total over shards (see [`Engine::add_unobserved`]). Either way the
//! true count of any item still lies inside its reported interval,
//! because at most that many of its occurrences went unobserved. An
//! operation reports the typed [`Error::ShardDown`] only when a rebuilt
//! worker dies again at once.
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
//! // live query: a view of the shards at an epoch boundary, ingest continues
//! let live = pipeline.view().unwrap();
//! assert_eq!(live.report().total(), 1000);
//! assert_eq!(live.report().top_k(usize::MAX).len(), 7);
//! pipeline.send_batch(&[3, 3, 3]).unwrap();
//! let merged = pipeline.finish().unwrap();
//! assert_eq!(merged.stream_len(), 1003);
//! assert_eq!(merged.report().top_k(1)[0].item, 3);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use hh_counters::error::Error;
use hh_counters::fasthash::FxBuildHasher;
use hh_counters::traits::FrequencyEstimator;
use hh_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

use crate::engine::{Engine, EngineConfig, EngineItem, Report, Snapshot};

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
#[derive(Debug, Clone, PartialEq)]
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

    /// Replaces the per-shard [`EngineConfig`], keeping the concurrency
    /// knobs.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
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

    /// Validates the config and spawns the shard workers over fresh
    /// engines: [`PipelineConfig::resume`] from no snapshots.
    ///
    /// # Errors
    ///
    /// As [`PipelineConfig::resume`].
    pub fn spawn<I: EngineItem>(&self) -> Result<Pipeline<I>, Error> {
        self.resume(Vec::new(), 0)
    }

    /// Validates the config and spawns the shard workers, shard `j`
    /// starting from `snapshots[j]` (a [`Pipeline::snapshots`]
    /// checkpoint), which is also its restore point. `unobserved` is the
    /// mass the checkpoint had charged to lost shards; every answer is
    /// widened by it ([`Pipeline::lost_items`]). With no snapshots every
    /// shard starts fresh.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// use hh_sketches::pipeline::PipelineConfig;
    ///
    /// let config = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(8));
    /// let mut first = config.clone().shards(2).spawn::<u64>().unwrap();
    /// first.send_batch(&[4, 4, 7]).unwrap();
    /// let mut resumed = config.shards(2).resume(first.snapshots().unwrap(), 5).unwrap();
    /// assert_eq!(resumed.view().unwrap().report().interval(&4), (2, 2 + 5));
    /// ```
    ///
    /// # Errors
    ///
    /// [`Error::SnapshotMismatch`], before any worker thread exists, when
    /// `snapshots` is neither empty nor one per shard, or a snapshot comes
    /// from another engine config or stores an item of another shard; the
    /// errors of [`PipelineConfig::validate`], [`EngineConfig::build`] and
    /// [`Engine::from_snapshot`]; and [`Error::Pipeline`] when the OS
    /// refuses a worker thread (the started workers are joined first).
    pub fn resume<I: EngineItem>(
        &self,
        snapshots: Vec<Snapshot<I>>,
        unobserved: u64,
    ) -> Result<Pipeline<I>, Error> {
        self.validate()?;
        // Engines are built and checked on the coordinator thread so
        // config and snapshot errors surface here, before any thread
        // exists.
        let restore = self.start_engines(snapshots)?;
        let metrics = PipelineMetrics::new(self.shards);
        // Enough slots for every batch buffer that can exist outside the
        // router: `queue` queued per shard plus one being applied.
        let (pool_tx, pool) = std::sync::mpsc::sync_channel(self.shards * (self.queue + 1));
        let mut workers = Vec::with_capacity(self.shards);
        for (shard, engine) in restore.iter().enumerate() {
            let shard_metrics = metrics.shards[shard].clone();
            match spawn_worker(engine.clone(), self.queue, shard_metrics, pool_tx.clone()) {
                Ok(worker) => workers.push(worker),
                Err(e) => {
                    // Disconnect the started workers' channels, then reap
                    // them: each sees an empty, closed queue and returns.
                    let handles: Vec<_> = workers.into_iter().map(|w| w.handle).collect();
                    for handle in handles {
                        // lint:allow(error-swallow) a fresh worker that received nothing has nothing to report; the spawn error is what the caller needs
                        let _ = handle.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok(Pipeline {
            config: self.clone(),
            workers,
            buffers: (0..self.shards)
                .map(|_| Vec::with_capacity(self.batch))
                .collect(),
            pool,
            pool_tx,
            restore,
            shipped_since: vec![0; self.shards],
            lost: vec![0; self.shards],
            unobserved,
            routed: 0,
            epoch: 0,
            metrics,
        })
    }

    /// Each shard's starting engine: a fresh one, or snapshot `j`
    /// rehydrated for shard `j` once it is checked against the shard
    /// count, the configured engine and the partition.
    fn start_engines<I: EngineItem>(
        &self,
        snapshots: Vec<Snapshot<I>>,
    ) -> Result<Vec<Engine<I>>, Error> {
        let mismatch = |expected, found| Error::SnapshotMismatch { expected, found };
        let fresh = self.engine.build::<I>()?;
        if snapshots.is_empty() {
            return Ok(vec![fresh; self.shards]);
        } else if snapshots.len() != self.shards {
            let (want, got) = (self.shards, snapshots.len());
            return Err(mismatch(format!("{want} shards"), format!("{got} shards")));
        }
        check_partition(&snapshots, &fresh.snapshot())?;
        snapshots.into_iter().map(Engine::from_snapshot).collect()
    }
}

/// Checks that `snapshots` are one hash partition in shard order: each has
/// the shape of `like`, and snapshot `j` stores only items [`hash_shard`]
/// routes to shard `j`; if not, only the Theorem 11 fold is sound.
///
/// # Errors
///
/// [`Error::SnapshotMismatch`] naming the first snapshot of another
/// shape, or the first item a shard stores that another shard owns.
pub fn check_partition<I: EngineItem>(
    snapshots: &[Snapshot<I>],
    like: &Snapshot<I>,
) -> Result<(), Error> {
    let mismatch = |expected, found| Err(Error::SnapshotMismatch { expected, found });
    let expected = shape(like);
    for (shard, snap) in snapshots.iter().enumerate() {
        if shape(snap) != expected {
            return mismatch(expected, shape(snap));
        }
        let mut owners = stored_items(snap)
            .into_iter()
            .map(|item| hash_shard(snapshots.len(), item));
        if let Some(owner) = owners.find(|&owner| owner != shard) {
            return mismatch(
                format!("shard {shard}'s items"),
                format!("an item of shard {owner}"),
            );
        }
    }
    Ok(())
}

/// What an engine's config fixes in its snapshot — the algorithm, its
/// sizing, and for sketches the shape, seed and update rule — so a
/// snapshot can be checked against a config without a merge.
fn shape<I>(snap: &Snapshot<I>) -> String {
    let sizing = match snap {
        Snapshot::SpaceSaving(s) | Snapshot::WeightedSpaceSaving(s) => format!("m={}", s.capacity),
        Snapshot::Frequent(s) | Snapshot::WeightedFrequent(s) => format!("m={}", s.capacity),
        Snapshot::LossyCounting(s) => format!("w={}", s.width),
        Snapshot::StickySampling(s) => format!("eps={} w={}", s.epsilon, s.window),
        Snapshot::CountMin(s) => format!("{:?}", (s.depth, s.width, s.seed, s.conservative, s.cap)),
        Snapshot::CountSketch(s) => format!("{:?}", (s.depth, s.width, s.seed, s.cap)),
    };
    let weighted = if snap.is_weighted() { " weighted" } else { "" };
    format!("{}{weighted} {sizing}", snap.algo())
}

/// The items a snapshot stores: a counter backend's entries, a sketch's
/// candidates.
fn stored_items<I>(snap: &Snapshot<I>) -> Vec<&I> {
    match snap {
        Snapshot::SpaceSaving(s) | Snapshot::WeightedSpaceSaving(s) => {
            s.entries.iter().map(|e| &e.0).collect()
        }
        Snapshot::Frequent(s) | Snapshot::WeightedFrequent(s) => {
            s.entries.iter().map(|e| &e.0).collect()
        }
        Snapshot::LossyCounting(s) => s.entries.iter().map(|e| &e.0).collect(),
        Snapshot::StickySampling(s) => s.entries.iter().map(|e| &e.0).collect(),
        Snapshot::CountMin(s) => s.candidates.iter().collect(),
        Snapshot::CountSketch(s) => s.candidates.iter().collect(),
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
    /// the worker dequeues — a live sample of backpressure. Between the
    /// router's own calls it never reads below the channel's length
    /// (the router adds after each send completes), so `≤ 0` means the
    /// channel is empty.
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
    /// Wall time of each [`Pipeline::merged`] replay.
    merge_ns: Histogram,
    epochs: Counter,
    /// Occurrences charged to dead shards across all restarts.
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
        let merge_ns = registry.histogram(
            "hh_pipeline_merge_ns",
            "merged-engine replay wall time (Pipeline::merged)",
        );
        let epochs = registry.counter(
            "hh_pipeline_epochs_total",
            "completed epoch-boundary queries",
        );
        let lost_items = registry.counter(
            "hh_pipeline_lost_items_total",
            "occurrences charged to dead shards (widens their items' upper bounds)",
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
    /// Distribution of [`Pipeline::merged`] replay wall time (a view's
    /// cost is its epoch crossing, in `snapshot_ns`).
    pub merge_ns: HistogramSnapshot,
    /// Shard-worker respawns across all shards (`Σ shards[i].restarts`).
    pub restarts: u64,
    /// Occurrences charged to dead shards so far, summed over shards —
    /// the mass a merged engine widens its `stream_len`, upper estimates
    /// and error terms by, on top of a resumed checkpoint's unobserved
    /// mass ([`Pipeline::lost_items`] counts both; a [`ShardedView`]
    /// widens each item by its own shard's share only). `0` on a
    /// pipeline that never lost a worker.
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

enum Msg<I: EngineItem> {
    /// A routed batch of arrivals.
    Batch(Vec<I>),
    /// Epoch marker, posted only to a shard that has not yet applied
    /// every batch shipped to it: acknowledge once dequeued. FIFO channel
    /// order makes the acknowledgement mean that every batch routed to
    /// this shard before the marker is in its engine.
    Checkpoint(SyncSender<()>),
}

/// One shard's engine, shared by its worker and the coordinator. The
/// worker applies each batch under the lock; the coordinator locks it
/// only at an epoch boundary, once `applied` shows the shard caught up,
/// so the lock is uncontended.
struct ShardState<I: EngineItem> {
    engine: Mutex<Engine<I>>,
    /// Batches applied to `engine`, bumped as the worker's last step for
    /// each batch.
    applied: AtomicU64,
}

/// A running shard worker: its channel, its thread, the state it shares
/// with the coordinator, and the batches shipped to it so far (set back
/// to 0 with a fresh `state` when the shard is respawned).
struct Worker<I: EngineItem> {
    tx: SyncSender<Msg<I>>,
    handle: JoinHandle<()>,
    state: Arc<ShardState<I>>,
    shipped: u64,
}

impl<I: EngineItem> Worker<I> {
    /// Whether the worker has applied every batch shipped to it, so its
    /// engine already holds the shard's state at this epoch.
    fn caught_up(&self) -> bool {
        // lint:allow(atomic-ordering) pairs with the worker's Release bump: the applied batches and their ingest counters are visible once it reads `shipped`
        self.state.applied.load(Ordering::Acquire) >= self.shipped
    }

    /// A copy of the worker's engine, or `None` when its lock is
    /// poisoned: the worker died applying a batch.
    fn copy_engine(&self) -> Option<Engine<I>> {
        match self.state.engine.lock() {
            Ok(engine) => Some(engine.clone()),
            Err(_) => None,
        }
    }
}

fn shard_worker<I: EngineItem>(
    state: &ShardState<I>,
    rx: Receiver<Msg<I>>,
    metrics: ShardMetrics,
    pool: SyncSender<Vec<I>>,
) {
    let mut aggregator = BatchAggregator::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(mut batch) => {
                // Injection site: a crash here models a worker dying with
                // a dequeued-but-unapplied batch (free unless armed).
                hh_fault::fault_point(hh_fault::sites::SHARD_BATCH);
                metrics.queue_depth.sub(1);
                // Only this worker's own panic, which ends it, can poison
                // the lock; the coordinator then rebuilds the shard.
                let Ok(mut engine) = state.engine.lock() else {
                    return;
                };
                aggregator.ingest(&mut engine, &batch);
                drop(engine);
                metrics.items_ingested.add(batch.len() as u64);
                metrics.batches_ingested.inc();
                // Hand the emptied buffer back for the router's next
                // batch.
                batch.clear();
                // lint:allow(error-swallow) the error hands the buffer back when the pool is full or the router is gone; dropping it is the intended fallback
                let _ = pool.try_send(batch);
                // lint:allow(atomic-ordering) publishes the batch and the ingest counters above to the coordinator's Acquire load in `Worker::caught_up`
                state.applied.fetch_add(1, Ordering::Release);
            }
            Msg::Checkpoint(ack) => {
                // Injection site: a crash between marker receipt and the
                // acknowledgement exercises the epoch's recovery.
                hh_fault::fault_point(hh_fault::sites::SHARD_CHECKPOINT);
                // lint:allow(error-swallow) send fails only when the coordinator dropped the receiver, and the shard must keep ingesting
                let _ = ack.send(());
            }
        }
    }
    // Channel disconnected: the coordinator is finishing (or dropped the
    // pipeline) and takes the engine back out of the shared state.
}

/// Spawns one shard worker over `engine`. A panic in a worker (a backend
/// bug, or an injected fault) ends its thread: the coordinator sees the
/// closed channel, the dropped acknowledgement, the poisoned lock or the
/// failed join, and rebuilds the shard from its restore point, never
/// reading the torn engine.
///
/// The OS refusing a thread is a typed [`Error::Pipeline`], not a panic.
fn spawn_worker<I: EngineItem>(
    engine: Engine<I>,
    queue: usize,
    metrics: ShardMetrics,
    pool: SyncSender<Vec<I>>,
) -> Result<Worker<I>, Error> {
    let (tx, rx) = std::sync::mpsc::sync_channel::<Msg<I>>(queue);
    let state = Arc::new(ShardState {
        engine: Mutex::new(engine),
        applied: AtomicU64::new(0),
    });
    let shared = Arc::clone(&state);
    let handle = std::thread::Builder::new()
        .spawn(move || shard_worker(&shared, rx, metrics, pool))
        .map_err(|e| Error::pipeline(format!("cannot spawn a shard worker thread: {e}")))?;
    Ok(Worker {
        tx,
        handle,
        state,
        shipped: 0,
    })
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
        // ≤ 1/2 load even if every batch item is distinct. Only the
        // prefix this batch probes is cleared, so a small batch after a
        // full one costs its own size, not the table's.
        let want = (batch.len() * 2).next_power_of_two().max(16);
        if self.table.len() < want {
            self.table.resize(want, 0);
        }
        self.table[..want].fill(0);
        self.mask = want - 1;
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
/// ([`Pipeline::view`], [`Pipeline::snapshots`], [`Pipeline::merged`])
/// collect an epoch-consistent view while ingest stays live, and
/// [`Pipeline::finish`] drains everything and returns the final merged
/// engine.
pub struct Pipeline<I: EngineItem> {
    config: PipelineConfig,
    workers: Vec<Worker<I>>,
    /// Pending per-shard batches, shipped at `batch_size` items (or
    /// earlier by [`Pipeline::ship_idle`]).
    buffers: Vec<Vec<I>>,
    /// Emptied batch buffers the workers handed back, reused by
    /// [`Pipeline::ship`] instead of allocating a fresh one per batch.
    pool: Receiver<Vec<I>>,
    /// The workers' end of `pool`, cloned into every (re)spawned worker.
    pool_tx: SyncSender<Vec<I>>,
    /// Supervision state: each shard's restore point — a copy of its
    /// starting engine at spawn, then the coordinator's copy of its engine
    /// at the last epoch boundary. A dead shard is rebuilt from it, and a
    /// [`ShardedView`] reads it.
    restore: Vec<Engine<I>>,
    /// Items shipped to each shard since its restore point was taken —
    /// the mass charged as lost if the worker dies before the next epoch.
    shipped_since: Vec<u64>,
    /// Occurrences charged to each shard's deaths so far.
    lost: Vec<u64>,
    /// The unobserved mass of the checkpoint the pipeline resumed from
    /// (0 for a fresh one): part of the stream, on no shard.
    unobserved: u64,
    routed: u64,
    epoch: u64,
    metrics: PipelineMetrics,
}

impl<I: EngineItem> std::fmt::Debug for Pipeline<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("shards", &self.workers.len())
            .field("routed", &self.routed)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl<I: EngineItem> Pipeline<I> {
    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
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

    /// Occurrences charged to dead shards so far, summed over shards,
    /// plus the unobserved mass of the checkpoint the pipeline resumed
    /// from — the mass every merged engine is widened by
    /// ([`Engine::add_unobserved`]). `0` unless a shard worker died and
    /// was rebuilt, or the resumed checkpoint carried unobserved mass.
    pub fn lost_items(&self) -> u64 {
        self.lost
            .iter()
            .fold(self.unobserved, |sum, &l| sum.saturating_add(l))
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
    /// p.view().unwrap(); // epoch boundary: queues drained
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
            lost_items: self.metrics.lost_items.get(),
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
        let shard = hash_shard(self.workers.len(), &item);
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

    /// Ships the buffer of every shard whose channel is empty, so its
    /// idle worker applies the items now instead of when the buffer
    /// fills or the next epoch marker flushes it. Never blocks: a shard
    /// with a batch in flight keeps its buffer. Sound at any point,
    /// since each shard's k-tail bound holds for any split of its stream
    /// into batches; the cost is smaller, less aggregated batches.
    ///
    /// For producers that know when their input has gone quiet — the
    /// network server calls it each time its read loop drains. A
    /// pipeline fed through [`Pipeline::send`] alone keeps full batches.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// use hh_sketches::pipeline::PipelineConfig;
    ///
    /// let mut p = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(8))
    ///     .shards(1)
    ///     .spawn::<u64>()
    ///     .unwrap();
    /// p.send_batch(&[1, 2, 2]).unwrap();
    /// assert_eq!(p.stats().shipped(), 0); // buffered below batch_size
    /// p.ship_idle().unwrap();
    /// assert_eq!(p.stats().shipped(), 3);
    /// ```
    ///
    /// # Errors
    ///
    /// As [`Pipeline::send`]: [`Error::ShardDown`] when a dead shard's
    /// rebuilt worker dies again at once.
    pub fn ship_idle(&mut self) -> Result<(), Error> {
        for shard in 0..self.buffers.len() {
            let idle = self.metrics.shards[shard].queue_depth.get() <= 0;
            if idle && !self.buffers[shard].is_empty() {
                self.ship(shard)?;
            }
        }
        Ok(())
    }

    /// The single shipping point: all telemetry is per *batch* here (a
    /// counter add, a gauge bump, one timed send), so the per-item
    /// [`Pipeline::send`] stays exactly as lean as before instrumentation.
    fn ship(&mut self, shard: usize) -> Result<(), Error> {
        let spare = self
            .pool
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.config.batch));
        let batch = std::mem::replace(&mut self.buffers[shard], spare);
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
        self.workers[shard].shipped += 1;
        Ok(())
    }

    /// Sends `msg` to `shard`. A failed send means the worker died: the
    /// shard is respawned from its restore point and the message — handed
    /// back intact by the send error — goes to the rebuilt worker, so it
    /// is never part of the lost mass. One attempt: a rebuilt worker that
    /// is already dead again (e.g. a persistent injected fault) surfaces
    /// as [`Error::ShardDown`].
    fn deliver(&mut self, shard: usize, msg: Msg<I>) -> Result<(), Error> {
        let Err(undelivered) = self.workers[shard].tx.send(msg) else {
            return Ok(());
        };
        self.respawn(shard)?;
        self.workers[shard]
            .tx
            .send(undelivered.0)
            .map_err(|_| Error::ShardDown { shard })
    }

    /// Replaces a dead shard worker with a new one running the
    /// [recovered](Self::recover) engine, and reaps the dead worker.
    fn respawn(&mut self, shard: usize) -> Result<(), Error> {
        let engine = self.recover(shard);
        let fresh = spawn_worker(
            engine,
            self.config.queue,
            self.metrics.shards[shard].clone(),
            self.pool_tx.clone(),
        )?;
        let dead = std::mem::replace(&mut self.workers[shard], fresh);
        drop(dead.tx);
        // The worker already exited (that is why we are here); reap its
        // thread so it is not leaked.
        // lint:allow(error-swallow) the Err payload is the panic we are recovering from; recover already recorded the restart
        let _ = dead.handle.join();
        Ok(())
    }

    /// The one recovery step for a dead shard, whoever noticed the death:
    /// rebuilds its engine from the restore point and charges everything
    /// shipped to it since then as the shard's lost mass. Batches queued
    /// at the crash died with the channel, so the shard's in-flight gauge
    /// restarts at zero.
    fn recover(&mut self, shard: usize) -> Engine<I> {
        let lost = std::mem::take(&mut self.shipped_since[shard]);
        self.lost[shard] = self.lost[shard].saturating_add(lost);
        let metrics = &self.metrics.shards[shard];
        metrics.queue_depth.set(0);
        metrics.restarts.inc();
        self.metrics.lost_items.add(lost);
        self.restore[shard].clone()
    }

    /// Crosses an epoch boundary: every item routed before this call is
    /// reflected in the shards' new restore points, no item sent after
    /// is. The pipeline keeps ingesting afterwards; the epoch counter
    /// increments.
    ///
    /// Only a shard still applying shipped batches gets an epoch marker
    /// and is waited for; a caught-up shard's engine is read in place, so
    /// a query on an idle pipeline makes no worker round trip. A shard
    /// found dead here is respawned and its restored engine answers the
    /// epoch (sound: the lost mass is in the shard's lost account, which
    /// every query surface widens by).
    fn epoch_boundary(&mut self) -> Result<(), Error> {
        let start = Instant::now();
        self.flush()?;
        // Phase 1: post a marker to every shard that is behind...
        let mut acks = Vec::new();
        for shard in 0..self.workers.len() {
            if !self.workers[shard].caught_up() {
                acks.push((shard, self.post_checkpoint(shard)?));
            }
        }
        // ...then wait, so shards drain their queues concurrently instead
        // of one at a time. A dropped acknowledgement means the shard died
        // first: its rebuilt worker holds the restore point, which is what
        // this epoch can still soundly report for it.
        for (shard, ack) in acks {
            if ack.recv().is_err() {
                self.respawn(shard)?;
            }
        }
        // Phase 2: every shard is caught up and idle; its engine is the
        // shard's new restore point.
        for shard in 0..self.workers.len() {
            match self.workers[shard].copy_engine() {
                Some(engine) => {
                    self.restore[shard] = engine;
                    self.shipped_since[shard] = 0;
                }
                None => self.respawn(shard)?,
            }
        }
        self.epoch += 1;
        self.metrics.snapshot_ns.record_duration(start.elapsed());
        self.metrics.epochs.inc();
        Ok(())
    }

    /// Posts one epoch marker to `shard` and returns the receiver its
    /// acknowledgement arrives on.
    fn post_checkpoint(&mut self, shard: usize) -> Result<Receiver<()>, Error> {
        let (ack_tx, ack_rx) = std::sync::mpsc::sync_channel(1);
        self.deliver(shard, Msg::Checkpoint(ack_tx))?;
        Ok(ack_rx)
    }

    /// The live query surface: crosses an epoch boundary and returns a
    /// [`ShardedView`] over the shards' engines there. Ingest continues
    /// once the view is dropped.
    ///
    /// Each item's interval comes from its [`hash_shard`] owner, widened
    /// only by that shard's lost mass and a resumed checkpoint's
    /// unobserved mass, so the view is never wider than
    /// [`Pipeline::merged`] and answers without a counter replay.
    ///
    /// ```
    /// use hh_sketches::engine::{AlgoKind, EngineConfig};
    /// use hh_sketches::pipeline::PipelineConfig;
    ///
    /// let mut p = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(8))
    ///     .shards(3)
    ///     .spawn::<u64>()
    ///     .unwrap();
    /// p.send_batch(&[5, 5, 5, 9, 9, 1]).unwrap();
    /// let view = p.view().unwrap();
    /// let report = view.report();
    /// assert_eq!(report.total(), 6);
    /// assert_eq!(report.interval(&5), (3, 3)); // the owner shard is exact
    /// let top: Vec<u64> = report.top_k(2).into_iter().map(|r| r.item).collect();
    /// assert_eq!(top, vec![5, 9]);
    /// ```
    pub fn view(&mut self) -> Result<ShardedView<'_, I>, Error> {
        self.epoch_boundary()?;
        let view = ShardedView::new(&self.restore, &self.lost, self.unobserved)?;
        Ok(ShardedView {
            epoch: self.epoch,
            ..view
        })
    }

    /// Collects one snapshot per shard at an epoch boundary (see
    /// [`Pipeline::view`] for what the boundary reflects). A shard found
    /// dead here answers with its restore point; its lost mass is not
    /// part of any snapshot ([`Pipeline::lost_items`]).
    pub fn snapshots(&mut self) -> Result<Vec<Snapshot<I>>, Error> {
        self.epoch_boundary()?;
        Ok(self.restore.iter().map(Engine::snapshot).collect())
    }

    /// The merged engine at an epoch boundary: the shards' engines there,
    /// replayed into one (see [`Pipeline::finish`] for the replay). The
    /// form to ship; answers read [`Pipeline::view`], which is never
    /// wider.
    pub fn merged(&mut self) -> Result<Engine<I>, Error> {
        self.epoch_boundary()?;
        let start = Instant::now();
        let merged = self.replay(&self.restore);
        self.metrics.merge_ns.record_duration(start.elapsed());
        merged
    }

    /// Drains every buffer, stops the workers, and replays the drained
    /// engines into one: shard 0's copy absorbs the others through
    /// [`Engine::merge`] (full counter replay with the donors' bound
    /// bookkeeping), then is widened by [`Pipeline::lost_items`]. The
    /// result is sound for the combined stream and carries the Theorem 11
    /// `(3A, A+B)` k-tail guarantee when shards carry `(A, B)`.
    pub fn finish(mut self) -> Result<Engine<I>, Error> {
        let engines = self.drain_shards()?;
        self.replay(&engines)
    }

    /// Drains every buffer, stops the workers, and returns the per-shard
    /// engines in shard order. A shard found dead at the drain is
    /// replaced by its restore point (the caller can read the charged
    /// loss off [`Pipeline::stats`] beforehand — after this the pipeline
    /// is consumed).
    pub fn finish_shards(mut self) -> Result<Vec<Engine<I>>, Error> {
        self.drain_shards()
    }

    /// The common drain: disconnect every channel, join every worker, take
    /// each engine back, and [recover](Self::recover) the shards whose
    /// workers died.
    fn drain_shards(&mut self) -> Result<Vec<Engine<I>>, Error> {
        self.flush()?;
        // Dropping the senders disconnects the channels; workers drain
        // what is queued and exit.
        let running: Vec<_> = std::mem::take(&mut self.workers)
            .into_iter()
            .map(|worker| (worker.handle, worker.state))
            .collect();
        let mut engines = Vec::with_capacity(running.len());
        for (shard, (handle, state)) in running.into_iter().enumerate() {
            // A joined worker has dropped its handle on the state.
            let engine = handle
                .join()
                .ok()
                .and_then(|()| Arc::into_inner(state))
                .and_then(|state| state.engine.into_inner().ok());
            // `None`: the worker died somewhere before the drain.
            engines.push(engine.unwrap_or_else(|| self.recover(shard)));
        }
        Ok(engines)
    }

    /// The one Theorem 11 replay, behind [`Pipeline::merged`] and
    /// [`Pipeline::finish`].
    fn replay(&self, engines: &[Engine<I>]) -> Result<Engine<I>, Error> {
        let Some((first, rest)) = engines.split_first() else {
            return Err(Error::pipeline("no shard engines to merge"));
        };
        let mut merged = first.clone();
        for engine in rest {
            merged.merge(engine)?;
        }
        merged.add_unobserved(self.lost_items());
        Ok(merged)
    }
}

// ---------------------------------------------------------------------------
// The live view
// ---------------------------------------------------------------------------

/// The query surface over one hash partition's shard engines, borrowed
/// from [`Pipeline::view`] or built by [`ShardedView::new`]; read it
/// through [`ShardedView::report`].
///
/// Hash partitioning sends every occurrence of an item to its
/// [`hash_shard`] owner, so the owner's certified interval is the item's
/// interval: the other shards hold none of it. The view therefore
/// answers from the owner alone, with the owner backend's own bounds:
///
/// * `interval` and `estimate` come from the owner shard; only the upper
///   bound is widened, by the mass that shard lost to worker deaths and
///   by the unobserved mass of the checkpoint the pipeline resumed from;
/// * `top_k` merges each shard's first `k` stored rows, largest first
///   (their items are disjoint), and stops at `k`, or at the last row;
/// * `total` is every shard's `stream_len` plus the lost and unobserved
///   mass — the same `F1` a [`Pipeline::merged`] engine reports.
///
/// Each shard keeps its own `(A, B)` k-tail bound over its slice of the
/// stream, instead of the Theorem 11 `(3A, A+B)` bound of a replay merge,
/// and no interval is wider than the merged engine's.
///
/// One engine is the one-shard case ([`Engine::report`]): every item is
/// its own, so the view reads it without hashing or merging.
#[derive(Debug)]
pub struct ShardedView<'a, I: EngineItem> {
    shards: &'a [Engine<I>],
    lost: &'a [u64],
    unobserved: u64,
    epoch: u64,
}

impl<I: EngineItem> Clone for ShardedView<'_, I> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<I: EngineItem> Copy for ShardedView<'_, I> {}

impl<'a, I: EngineItem> ShardedView<'a, I> {
    /// A view over `shards`, one hash partition in shard order, where
    /// shard `j` lost `lost[j]` occurrences and `unobserved` are on none.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `shards` is empty or `lost` does not
    /// hold one mass per shard.
    pub fn new(shards: &'a [Engine<I>], lost: &'a [u64], unobserved: u64) -> Result<Self, Error> {
        if shards.is_empty() || lost.len() != shards.len() {
            let (n, m) = (shards.len(), lost.len());
            let msg = format!("a view needs shards and one lost mass each: {n} shards, {m} masses");
            return Err(Error::invalid_config(msg));
        }
        Ok(ShardedView {
            shards,
            lost,
            unobserved,
            epoch: 0,
        })
    }

    /// The view over one engine, with no lost or unobserved mass beyond
    /// the engine's own.
    pub(crate) fn one(engine: &'a Engine<I>) -> Self {
        ShardedView {
            shards: std::slice::from_ref(engine),
            lost: &[0],
            unobserved: 0,
            epoch: 0,
        }
    }

    /// The epoch boundary this view reflects ([`Pipeline::epoch`] when
    /// it was taken; 0 from [`ShardedView::new`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The query surface over this view.
    pub fn report(&self) -> Report<'a, I> {
        Report { view: *self }
    }

    /// The stream total the view is over (`F1`).
    pub(crate) fn total(&self) -> u64 {
        let shards = self.shards.iter().map(Engine::stream_len);
        shards
            .chain(self.lost.iter().copied())
            .fold(self.unobserved, u64::saturating_add)
    }

    /// The [`hash_shard`] owner of `item`.
    fn owner(&self, item: &I) -> usize {
        match self.shards.len() {
            1 => 0,
            n => hash_shard(n, item),
        }
    }

    /// The point estimate of any item: its owner's.
    pub(crate) fn estimate(&self, item: &I) -> u64 {
        self.shards[self.owner(item)].estimate(item)
    }

    /// The certified `(lower, upper)` interval of any item: its owner's,
    /// the upper bound widened by the owner's lost mass and the
    /// unobserved mass.
    pub(crate) fn interval(&self, item: &I) -> (u64, u64) {
        let shard = self.owner(item);
        let engine = &self.shards[shard];
        let widen = self.lost[shard].saturating_add(self.unobserved);
        let upper = engine.upper_estimate(item).saturating_add(widen);
        (engine.lower_estimate(item), upper)
    }

    /// The first `k` stored `(item, estimate)` pairs, largest first, into
    /// `out` (cleared first). Never allocates by `k`: any `usize` is a
    /// valid request, and `usize::MAX` lists every pair.
    pub(crate) fn top_pairs_into(&self, k: usize, out: &mut Vec<(I, u64)>) {
        if let [engine] = self.shards {
            engine.top_entries_into(k, out);
            return;
        }
        out.clear();
        // A k-way merge of each shard's first `k` rows, largest first; the
        // heap holds one head per shard, ties going to the lower shard
        // index.
        let mut lists: Vec<_> = self
            .shards
            .iter()
            .map(|engine| {
                let mut top = Vec::new();
                engine.top_entries_into(k, &mut top);
                top.into_iter().peekable()
            })
            .collect();
        let mut heads: BinaryHeap<(u64, Reverse<usize>)> = lists
            .iter_mut()
            .enumerate()
            .filter_map(|(shard, list)| list.peek().map(|&(_, c)| (c, Reverse(shard))))
            .collect();
        while out.len() < k {
            let Some((_, Reverse(shard))) = heads.pop() else {
                break;
            };
            let list = &mut lists[shard];
            out.extend(list.next());
            if let Some(&(_, c)) = list.peek() {
                heads.push((c, Reverse(shard)));
            }
        }
    }

    /// The Theorem 6 residual estimate `F1^res(k)`: the total minus the
    /// mass of the `k` largest stored pairs.
    pub(crate) fn residual(&self, k: usize) -> u64 {
        let mut top = Vec::new();
        self.top_pairs_into(k, &mut top);
        let head = top
            .iter()
            .fold(0, |sum: u64, &(_, c)| sum.saturating_add(c));
        self.total().saturating_sub(head)
    }
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
    fn view_merges_the_shard_lists() {
        let s = stream(12_000, 61); // ≤ 61 distinct < m: every shard is exact
        let exact = |item: u64| s.iter().filter(|&&x| x == item).count() as u64;
        let distinct = (0..61).filter(|&x| exact(x) > 0).count();
        let mut p = ss_config(64)
            .shards(3)
            .batch_size(100)
            .spawn::<u64>()
            .unwrap();
        p.send_batch(&s).unwrap();
        let view = p.view().unwrap();
        assert_eq!(view.epoch(), 1);
        let report = view.report();
        assert_eq!(report.total(), 12_000);
        let all = report.top_k(usize::MAX);
        assert_eq!(all.len(), distinct);
        assert!(all.windows(2).all(|w| w[0].estimate >= w[1].estimate));
        for row in &all {
            let f = exact(row.item);
            assert_eq!((row.estimate, row.lower, row.upper), (f, f, f));
        }
        assert_eq!(report.top_k(5), all[..5]);
        let head: u64 = all[..5].iter().map(|r| r.estimate).sum();
        assert_eq!(report.residual(5), 12_000 - head);
        p.finish().unwrap();
        assert!(ShardedView::<u64>::new(&[], &[], 0).is_err());
        let one = [ss_config(8).engine_config().build::<u64>().unwrap()];
        assert!(ShardedView::new(&one, &[0, 0], 0).is_err());
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
    fn ship_idle_ships_only_shards_with_an_empty_queue() {
        let s = stream(3_000, 61); // 61 distinct < m: every shard is exact
        let mut p = ss_config(64)
            .shards(2)
            .batch_size(4_096) // above the stream: nothing ships by size
            .spawn::<u64>()
            .unwrap();
        let ships = |p: &Pipeline<u64>| -> Vec<u64> {
            let stats = p.stats();
            stats.shards.iter().map(|s| s.send_block_ns.count).collect()
        };
        p.ship_idle().unwrap();
        assert_eq!(ships(&p), [0, 0], "empty buffers ship nothing");

        p.send_batch(&s).unwrap();
        let on_1 = s.iter().filter(|&&x| hash_shard(2, &x) == 1).count() as u64;
        // Shard 0 looks busy: one batch in flight on its channel.
        p.metrics.shards[0].queue_depth.add(1);
        p.ship_idle().unwrap();
        p.metrics.shards[0].queue_depth.sub(1);
        let stats = p.stats();
        assert_eq!(ships(&p), [0, 1]);
        assert_eq!(stats.shards[0].routed_items, 0);
        assert_eq!(stats.shards[1].routed_items, on_1);

        p.ship_idle().unwrap();
        assert_eq!(ships(&p), [1, 1]);
        assert_eq!(p.stats().shipped(), p.routed());
        p.ship_idle().unwrap();
        assert_eq!(ships(&p), [1, 1], "shipped buffers are empty");

        // The epoch after idle shipping still sees every item, exactly.
        let view = p.view().unwrap();
        let report = view.report();
        assert_eq!(report.total(), 3_000);
        for item in 0..61u64 {
            let f = s.iter().filter(|&&x| x == item).count() as u64;
            assert_eq!(report.interval(&item), (f, f), "item {item}");
        }
        let stats = p.stats();
        assert_eq!(stats.shipped(), 3_000);
        for shard in &stats.shards {
            assert_eq!(shard.batches_ingested, 1, "the flush had nothing left");
            assert_eq!(shard.items_ingested, shard.routed_items);
        }
        p.finish().unwrap();
    }

    #[test]
    fn aggregator_reused_after_a_full_batch_matches_a_fresh_one() {
        // More distinct items than counters, so the update order matters.
        let config = EngineConfig::new(AlgoKind::SpaceSaving).counters(16);
        let mut reused_engine = config.build::<u64>().unwrap();
        let mut fresh_engine = config.build::<u64>().unwrap();
        let mut reused = BatchAggregator::new();
        let mut batches = vec![stream(8_192, 1_009)];
        batches.extend((0..6).map(|i| stream(20 + 40 * i, 37 + 2 * i)));
        for batch in &batches {
            reused.ingest(&mut reused_engine, batch);
            BatchAggregator::new().ingest(&mut fresh_engine, batch);
            assert_eq!(reused_engine.entries(), fresh_engine.entries());
        }
        // The last batch (220 items) sized the probe, not the full one.
        assert_eq!(reused.mask, 512 - 1);
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
