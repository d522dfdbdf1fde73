//! Chaos tests: seeded fault injection against the supervised pipeline,
//! the durable checkpoint cycle, and the client retry policy.
//!
//! Fault plans are process-global (`hh::fault::install`), so every test
//! that arms one — or runs pipeline code that could observe one —
//! serializes through [`Chaos`]. This file is the *only* test binary
//! that installs plans; unit tests elsewhere stay fault-free so an
//! armed plan can never leak into an unrelated concurrent test.
//!
//! The soundness claim under test is the PR 9 loss-accounting rule: when
//! a shard worker dies mid-epoch, the pipeline rebuilds it from its last
//! epoch-boundary restore point and charges every item shipped to it
//! since then as that shard's lost mass. A merged engine widens
//! `stream_len` and every upper bound by the total lost mass; the live
//! `ShardedView` widens only the upper bounds of the dead shard's own
//! items. Lower bounds come from observed occurrences only, so for every
//! item the certified interval must still bracket the true count — both
//! the merged `(3A, A + B)` certificate (Theorem 11) and the per-shard
//! owner certificate survive the crash.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use proptest::prelude::*;

use hh::engine::ReportEntry;
use hh::fault::{sites, FaultPlan, RetryPolicy};
use hh::net::{checkpoint, sys, Checkpoint, NetOptions, ServeOptions, ServeSession, Server};
use hh::pipeline::{hash_shard, PipelineConfig, ShardedView};
use hh::prelude::*;
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

static PLAN: Mutex<()> = Mutex::new(());

/// The boxed signature `std::panic::take_hook` returns.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// Serializes chaos tests, arms a plan, and silences the default panic
/// hook (injected worker panics are expected, not noise). Disarms and
/// restores the hook on drop.
struct Chaos {
    _guard: MutexGuard<'static, ()>,
    prev_hook: Option<PanicHook>,
}

impl Chaos {
    fn arm(plan: FaultPlan) -> Self {
        let guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        hh::fault::install(plan);
        Chaos {
            _guard: guard,
            prev_hook: Some(prev),
        }
    }
}

impl Drop for Chaos {
    fn drop(&mut self) {
        hh::fault::clear();
        if let Some(hook) = self.prev_hook.take() {
            std::panic::set_hook(hook);
        }
    }
}

const M: usize = 64;
const K: usize = 6;

/// Items the view oracle asks about: the 200 the streams draw from, plus
/// 40 that never occur.
const UNIVERSE: u64 = 240;

/// A skewed stream over 200 distinct items (more than `M`, so summaries
/// genuinely truncate), deterministically shuffled per seed.
fn skewed_stream(seed: u64) -> Vec<u64> {
    let counts: Vec<u64> = (1..=200u64).map(|i| seed % 5 + 2400 / i).collect();
    stream_from_counts(&counts, StreamOrder::Shuffled(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kill one shard worker mid-epoch at a seeded batch; the pipeline
    /// must keep ingesting, respawn the shard from its last snapshot,
    /// record the restart and the lost mass, and keep every certified
    /// interval of the final merged report bracketing the single-engine
    /// oracle's true count.
    #[test]
    fn killed_shard_keeps_certificates_sound(seed in 0u64..500, kill_batch in 1u64..40) {
        let stream = skewed_stream(seed);
        let _chaos = Chaos::arm(FaultPlan::new(seed).panic_on(sites::SHARD_BATCH, kill_batch));

        let mut pipeline: Pipeline<u64> =
            PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
                .shards(3)
                .batch_size(64)
                .queue_depth(2)
                .spawn()
                .expect("valid pipeline config");
        // Epoch boundaries every chunk: each merged() stores fresh
        // restore points, so the kill lands mid-epoch by construction.
        for chunk in stream.chunks(1500) {
            pipeline.send_batch(chunk).expect("supervised ingest survives the kill");
            pipeline.merged().expect("epoch query survives the kill");
        }

        let stats = pipeline.stats();
        prop_assert_eq!(stats.restarts, 1, "exactly one injected kill");
        prop_assert!(stats.lost_items <= stream.len() as u64);
        prop_assert_eq!(stats.lost_items, pipeline.lost_items());

        let merged = pipeline.finish().expect("drain succeeds after recovery");
        prop_assert_eq!(merged.unobserved(), stats.lost_items);
        // Lost mass still counts toward the summarized stream length.
        prop_assert_eq!(merged.stream_len(), stream.len() as u64);

        // The oracle certificate: every reported interval brackets truth.
        let oracle = ExactCounter::from_stream(&stream);
        let report = merged.report();
        for entry in report.top_k(K) {
            let truth = oracle.count(&entry.item);
            prop_assert!(
                entry.lower <= truth && truth <= entry.upper,
                "item {}: certified [{}, {}] misses true count {} (lost {})",
                entry.item, entry.lower, entry.upper, truth, stats.lost_items
            );
        }
    }

    /// Torn checkpoint writes at seeded truncation points never produce
    /// a loadable-but-wrong checkpoint: load either rejects the file
    /// (typed corruption error) or falls back to the intact previous
    /// generation.
    #[test]
    fn torn_checkpoint_never_loads_wrong(seed in 0u64..200) {
        let _chaos = Chaos::arm(
            FaultPlan::new(seed).torn_write_on(sites::CHECKPOINT_WRITE, 2),
        );
        let dir = std::env::temp_dir().join(format!(
            "hh-fault-torn-{}-{seed}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt").to_str().unwrap().to_string();

        let mut engine = EngineConfig::new(AlgoKind::SpaceSaving)
            .counters(16)
            .build::<u64>()
            .unwrap();
        engine.update_batch(&[1, 1, 2, seed]);
        let good = Checkpoint { shards: vec![engine.snapshot()], unobserved: 0 };
        engine.update_batch(&[3, 3, 3]);
        let newer = Checkpoint { shards: vec![engine.snapshot()], unobserved: 1 };

        checkpoint::write(&path, &good).unwrap();   // generation 1: clean
        checkpoint::write(&path, &newer).unwrap();  // generation 2: torn (hit #2)

        let (loaded, fell_back) = checkpoint::load_latest::<u64>(&path)
            .expect("previous generation still loads");
        prop_assert!(fell_back, "torn current generation must not verify");
        prop_assert_eq!(loaded, good);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every epoch's view intervals over [`UNIVERSE`], and each shard's
/// restart count.
type ViewRun = (Vec<Vec<(u64, u64)>>, Vec<u64>);

/// One serve session's live view, checked at every epoch against the
/// exact counts and against the session's merged engine at the same
/// boundary.
fn view_oracle_run(
    opts: &ServeOptions,
    prefix: &[u64],
    stream: &[u64],
) -> Result<ViewRun, TestCaseError> {
    let mut session: ServeSession<u64> = ServeSession::spawn(opts).expect("valid serve options");
    let mut truth = vec![0u64; UNIVERSE as usize];
    for &x in prefix {
        truth[x as usize] += 1;
    }
    let mut epochs = Vec::new();
    for chunk in stream.chunks(1_500) {
        for &x in chunk {
            session
                .send(x)
                .expect("supervised ingest survives the kill");
            truth[x as usize] += 1;
        }
        let (intervals, total) = {
            let view = session.view().expect("epoch view survives the kill");
            let report = view.report();
            let top = report.top_k(usize::MAX);
            prop_assert!(top.windows(2).all(|w| w[0].estimate >= w[1].estimate));
            prop_assert_eq!(&report.top_k(K)[..], &top[..K.min(top.len())]);
            let intervals: Vec<(u64, u64)> = (0..UNIVERSE).map(|x| report.interval(&x)).collect();
            (intervals, report.total())
        };
        // No item arrives in between, so the merge sees the same shards.
        let merged = session.merged().expect("merged epoch");
        prop_assert_eq!(total, merged.stream_len());
        let merged = merged.report();
        for (x, &(lower, upper)) in (0..UNIVERSE).zip(&intervals) {
            let t = truth[x as usize];
            prop_assert!(
                lower <= t && t <= upper,
                "item {}: view [{}, {}] misses true count {}",
                x,
                lower,
                upper,
                t
            );
            let (m_lower, m_upper) = merged.interval(&x);
            prop_assert!(
                upper - lower <= m_upper - m_lower,
                "item {}: view [{}, {}] wider than merged [{}, {}]",
                x,
                lower,
                upper,
                m_lower,
                m_upper
            );
        }
        epochs.push(intervals);
    }
    let restarts = session.stats().shards.iter().map(|s| s.restarts).collect();
    session.finish().expect("drain succeeds after recovery");
    Ok((epochs, restarts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The live `ShardedView` oracle, over 1–8 shards, every unweighted
    /// backend, with and without a resumed prefix, in a run without and
    /// a run with a seeded shard kill: at every epoch every view interval
    /// contains the exact count and is no wider than the merged engine's,
    /// and the view's total equals the merged `stream_len`. The run
    /// without the kill pins the shards that survived it: their items'
    /// intervals are exactly the no-kill intervals, untouched by the dead
    /// shard's loss.
    #[test]
    fn sharded_view_is_sound_and_never_wider_than_the_merge(
        seed in 0u64..500,
        shards in 1usize..=8,
        algo in 0usize..6,
        resumed in 0u8..2,
        kill_batch in 1u64..120,
    ) {
        let (algo, resumed) = (AlgoKind::ALL[algo], resumed == 1);
        let config = EngineConfig::new(algo).counters(M).seed(seed);
        let stream = skewed_stream(seed);
        let mut opts = ServeOptions::new(config.clone())
            .shards(Some(shards))
            .batch_size(64)
            .queue_depth(2);
        let dir = std::env::temp_dir().join(format!(
            "hh-fault-view-{}-{seed}-{shards}-{algo}",
            std::process::id()
        ));
        let prefix: Vec<u64> = if resumed {
            let prefix: Vec<u64> = skewed_stream(seed + 1).into_iter().take(4_000).collect();
            let _chaos = Chaos::arm(FaultPlan::new(seed));
            let mut pipeline = PipelineConfig::new(config.clone())
                .shards(shards)
                .spawn::<u64>()
                .unwrap();
            pipeline.send_batch(&prefix).unwrap();
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("prefix.ckpt").to_str().unwrap().to_string();
            let ckpt = Checkpoint { shards: pipeline.snapshots().unwrap(), unobserved: seed % 7 };
            pipeline.finish().unwrap();
            checkpoint::write(&path, &ckpt).unwrap();
            opts = opts.snapshot_in(Some(path));
            prefix
        } else {
            Vec::new()
        };

        let (clean, _) = {
            let _chaos = Chaos::arm(FaultPlan::new(seed));
            view_oracle_run(&opts, &prefix, &stream)?
        };
        let (killed, restarts) = {
            let _chaos = Chaos::arm(FaultPlan::new(seed).panic_on(sites::SHARD_BATCH, kill_batch));
            view_oracle_run(&opts, &prefix, &stream)?
        };
        std::fs::remove_dir_all(&dir).ok();

        prop_assert_eq!(restarts.iter().sum::<u64>(), 1, "exactly one injected kill");
        for (epoch, (clean, killed)) in clean.iter().zip(&killed).enumerate() {
            for x in 0..UNIVERSE {
                if restarts[hash_shard(shards, &x)] == 0 {
                    prop_assert_eq!(
                        clean[x as usize], killed[x as usize],
                        "epoch {}: item {} on a surviving shard", epoch, x
                    );
                }
            }
        }
    }
}

/// Router batch size of the exact-resume oracle.
const BATCH: usize = 64;

/// The exact-resume oracle's script: feed `s1` and cross an epoch, feed
/// `killed` under `kill` (a plan for the sites it reaches, none if
/// `None`) and cross the epoch at the cut, then feed `s2`. `reference`
/// runs it through one pipeline; `resumed` through a serve session that
/// checkpoints at the cut and is dropped without `finish` (a kill -9),
/// then a second session resumed from that checkpoint.
struct Script<'a> {
    config: EngineConfig,
    shards: usize,
    s1: &'a [u64],
    killed: &'a [u64],
    kill: Option<FaultPlan>,
    s2: &'a [u64],
    dir: std::path::PathBuf,
}

impl Script<'_> {
    /// Arms `kill` (or an empty plan) over the caller's [`Chaos`] guard.
    fn arm_kill(&self) {
        hh::fault::install(self.kill.clone().unwrap_or_else(|| FaultPlan::new(0)));
    }

    /// The uninterrupted pipeline's shards at the end, and its lost mass.
    fn reference(&self) -> (Vec<Engine<u64>>, u64) {
        let mut pipeline = PipelineConfig::new(self.config.clone())
            .shards(self.shards)
            .batch_size(BATCH)
            .queue_depth(2)
            .spawn::<u64>()
            .unwrap();
        pipeline.send_batch(self.s1).unwrap();
        pipeline.snapshots().unwrap();
        self.arm_kill();
        pipeline.send_batch(self.killed).unwrap();
        pipeline.snapshots().unwrap();
        hh::fault::install(FaultPlan::new(0));
        pipeline.send_batch(self.s2).unwrap();
        let lost = pipeline.lost_items();
        (pipeline.finish_shards().unwrap(), lost)
    }

    /// The checkpoint written at the cut, and the resumed session's
    /// drain checkpoint.
    fn resumed(&self) -> (Checkpoint<u64>, Checkpoint<u64>) {
        std::fs::create_dir_all(&self.dir).unwrap();
        let path = |name: &str| Some(self.dir.join(name).to_str().unwrap().to_string());
        let opts = ServeOptions::new(self.config.clone())
            .shards(Some(self.shards))
            .batch_size(BATCH)
            .queue_depth(2);
        let mut session: ServeSession<u64> =
            ServeSession::spawn(&opts.clone().snapshot_out(path("cut.ckpt"))).unwrap();
        for &x in self.s1 {
            session.send(x).unwrap();
        }
        session.view().unwrap();
        self.arm_kill();
        for &x in self.killed {
            session.send(x).unwrap();
        }
        session.checkpoint().unwrap();
        hh::fault::install(FaultPlan::new(0));
        drop(session);

        let opts = opts
            .snapshot_in(path("cut.ckpt"))
            .snapshot_out(path("drain.ckpt"));
        let mut session: ServeSession<u64> = ServeSession::spawn(&opts).unwrap();
        for &x in self.s2 {
            session.send(x).unwrap();
        }
        session.finish().unwrap();
        let cut = checkpoint::load(&path("cut.ckpt").unwrap()).unwrap();
        let drain = checkpoint::load(&path("drain.ckpt").unwrap()).unwrap();
        std::fs::remove_dir_all(&self.dir).ok();
        (cut, drain)
    }

    /// Runs both and checks every resumed shard against the reference
    /// shard: `stream_len`, and the estimate and interval of every item
    /// of [`UNIVERSE`]. Entries are compared through those queries, not as
    /// snapshots: rehydration may reorder LossyCounting's tied entries.
    /// Returns the mass the cut's checkpoint carried as unobserved.
    fn check(&self) -> u64 {
        // Disarmed before the assertions, so a failing one reports its
        // message.
        let ((want, lost), (cut, drain)) = {
            let _chaos = Chaos::arm(FaultPlan::new(0));
            (self.reference(), self.resumed())
        };
        let case = format!("{} × {} shards", self.config.algo(), self.shards);
        assert_eq!(cut.unobserved, lost, "{case}: lost mass at the cut");
        assert_eq!(drain.unobserved, lost, "{case}: lost mass at the drain");
        assert_eq!(drain.shards.len(), self.shards, "{case}");
        for (shard, (want, snap)) in want.iter().zip(drain.shards).enumerate() {
            let got = Engine::from_snapshot(snap).unwrap();
            assert_eq!(got.stream_len(), want.stream_len(), "{case}: shard {shard}");
            let (got, want) = (got.report(), want.report());
            for x in 0..UNIVERSE {
                assert_eq!(
                    got.entry(&x),
                    want.entry(&x),
                    "{case}: shard {shard}, item {x}"
                );
            }
        }
        cut.unobserved
    }
}

/// Exact resume: a session killed after a checkpoint and resumed from it
/// holds, shard by shard, exactly what one uninterrupted pipeline holds
/// after the same items with an epoch at the same cut — for every
/// unweighted backend at 1–8 shards.
#[test]
fn resumed_shards_answer_exactly_like_an_uninterrupted_pipeline() {
    for (a, algo) in AlgoKind::ALL.into_iter().enumerate() {
        for shards in 1..=8usize {
            let seed = (a * 8 + shards) as u64;
            let stream = skewed_stream(seed);
            let (s1, s2) = stream.split_at(5_000 + (seed as usize * 97) % 3_000);
            let script = Script {
                config: EngineConfig::new(algo).counters(M).seed(seed),
                shards,
                s1,
                killed: &[],
                kill: None,
                s2,
                dir: std::env::temp_dir()
                    .join(format!("hh-fault-exact-{}-{seed}", std::process::id())),
            };
            assert_eq!(script.check(), 0);
        }
    }
}

/// The exact-resume oracle with a shard killed before the checkpoint:
/// its lost mass rides in the envelope as unobserved mass, and the
/// resumed shards still equal the uninterrupted pipeline's, which lost
/// the same shard the same way.
#[test]
fn resume_after_a_shard_kill_carries_the_lost_mass_exactly() {
    const SHARDS: usize = 3;
    const KILLED_BATCHES: u64 = 5;
    let stream = skewed_stream(17);
    let (s1, s2) = stream.split_at(6_000);
    // Only shard 0 is shipped batches between the two epochs, a whole
    // number of them, so the kill hits its last one whatever the thread
    // timing, and the epoch at the cut finds the shard dead.
    let killed: Vec<u64> = skewed_stream(18)
        .into_iter()
        .filter(|x| hash_shard(SHARDS, x) == 0)
        .take(BATCH * KILLED_BATCHES as usize)
        .collect();
    let script = Script {
        config: EngineConfig::new(AlgoKind::SpaceSaving).counters(M),
        shards: SHARDS,
        s1,
        killed: &killed,
        kill: Some(FaultPlan::new(17).panic_on(sites::SHARD_BATCH, KILLED_BATCHES)),
        s2,
        dir: std::env::temp_dir().join(format!("hh-fault-exact-kill-{}", std::process::id())),
    };
    assert_eq!(script.check(), killed.len() as u64);
}

/// A shard killed by the last batch it is ever shipped is noticed only by
/// the drain in `finish()` — no later ship or epoch marker touches it. The
/// drain must rebuild it from its restore point (the fresh engine at
/// spawn, or the last epoch) and charge exactly the items shipped since
/// then, keeping every certified interval sound.
#[test]
fn shard_killed_by_its_last_batch_is_recovered_at_the_drain() {
    const BATCH: usize = 4;
    const BATCHES: u64 = 30;
    let stream: Vec<u64> = skewed_stream(11)
        .into_iter()
        .take(BATCH * BATCHES as usize)
        .collect();
    let oracle = ExactCounter::from_stream(&stream);
    // `None`: no epoch before the kill; `Some(b)`: an epoch after `b` batches.
    for epoch_after in [None, Some(BATCHES / 2)] {
        let split = epoch_after.map_or(0, |b| b as usize * BATCH);
        // The plan is disarmed (and the panic hook restored) before the
        // assertions below, so a failing one reports its message.
        let (registry, merged) = {
            let _chaos = Chaos::arm(FaultPlan::new(5).panic_on(sites::SHARD_BATCH, BATCHES));
            let mut pipeline: Pipeline<u64> =
                PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(8))
                    .shards(1)
                    .batch_size(BATCH)
                    .spawn()
                    .expect("valid pipeline config");
            if split > 0 {
                pipeline.send_batch(&stream[..split]).unwrap();
                pipeline.snapshots().expect("epoch before the kill");
            }
            // A whole number of batches: the router buffers are empty, so
            // the drain ships nothing and only the join sees the dead worker.
            pipeline.send_batch(&stream[split..]).unwrap();
            let registry = pipeline.registry().clone();
            (registry, pipeline.finish())
        };
        let merged = merged.expect("drain recovers the dead shard");

        let lost = (stream.len() - split) as u64;
        let text = registry.to_prometheus();
        assert!(
            text.contains("hh_pipeline_shard_restarts_total{shard=\"0\"} 1\n"),
            "{epoch_after:?}: one restart expected in:\n{text}"
        );
        assert!(
            text.contains(&format!("hh_pipeline_lost_items_total {lost}\n")),
            "{epoch_after:?}: lost {lost} expected in:\n{text}"
        );
        assert_eq!(merged.unobserved(), lost, "{epoch_after:?}");
        assert_eq!(merged.stream_len(), stream.len() as u64, "{epoch_after:?}");
        let report = merged.report();
        let top = report.top_k(K);
        // The epoch's restore point holds counters; a fresh one holds none.
        assert_eq!(top.is_empty(), epoch_after.is_none(), "{epoch_after:?}");
        for entry in top {
            let truth = oracle.count(&entry.item);
            assert!(
                entry.lower <= truth && truth <= entry.upper,
                "{epoch_after:?}: item {}: certified [{}, {}] misses true count {truth}",
                entry.item,
                entry.lower,
                entry.upper
            );
        }
    }
}

/// What a report answers: its total, every item's interval over
/// [`UNIVERSE`] and its stored rows.
fn answers(report: Report<'_, u64>) -> (u64, Vec<(u64, u64)>, Vec<ReportEntry<u64>>) {
    let intervals = (0..UNIVERSE).map(|x| report.interval(&x)).collect();
    (report.total(), intervals, report.top_k(usize::MAX))
}

/// An epoch that finds every shard caught up reads the engines in place
/// and posts no marker: with a checkpoint panic armed after one view,
/// a second view and a snapshot with nothing routed in between restart
/// no shard and answer exactly as the first view did.
#[test]
fn a_caught_up_epoch_posts_no_marker() {
    let stream = skewed_stream(9);
    let (first, again, resnapped, stats) = {
        let _chaos = Chaos::arm(FaultPlan::new(9));
        let mut pipeline =
            PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
                .shards(3)
                .batch_size(64)
                .queue_depth(2)
                .spawn::<u64>()
                .unwrap();
        pipeline.send_batch(&stream).unwrap();
        let first = answers(pipeline.view().expect("epoch").report());
        hh::fault::install(FaultPlan::new(9).panic_on(sites::SHARD_CHECKPOINT, 1));
        let again = answers(pipeline.view().expect("epoch").report());
        let snapshots = pipeline.snapshots().expect("epoch snapshots");
        let stats = pipeline.stats();
        pipeline.finish().unwrap();
        let shards: Vec<Engine<u64>> = snapshots
            .into_iter()
            .map(|snap| Engine::from_snapshot(snap).unwrap())
            .collect();
        let view = ShardedView::new(&shards, &[0; 3], 0).unwrap();
        (first, again, answers(view.report()), stats)
    };
    assert_eq!(
        stats.restarts, 0,
        "a caught-up epoch must not post a marker"
    );
    assert_eq!(stats.lost_items, 0);
    assert_eq!(stats.epochs, 3);
    assert_eq!(first.0, stream.len() as u64);
    assert_eq!(again, first);
    assert_eq!(resnapped, first);
}

/// A shard that is behind still gets a marker, and the epoch waits for
/// it: with shard 0's next batch stalled in its worker and the first
/// marker armed to panic, the view rebuilds shard 0 from the restore
/// point of the epoch before, charges it exactly the items shipped to it
/// since then, leaves shard 1 (caught up, so sent no marker) alone, and
/// every interval still brackets the exact count.
#[test]
fn a_shard_behind_gets_a_marker_and_the_epoch_waits_for_it() {
    const SHARDS: usize = 2;
    let prefix = skewed_stream(21);
    let behind: Vec<u64> = skewed_stream(22)
        .into_iter()
        .filter(|x| hash_shard(SHARDS, x) == 0)
        .take(3 * 64 + 17)
        .collect();
    let mut truth = vec![0u64; UNIVERSE as usize];
    for &x in prefix.iter().chain(&behind) {
        truth[x as usize] += 1;
    }
    let ((total, intervals, _), stats) = {
        let _chaos = Chaos::arm(FaultPlan::new(21));
        let mut pipeline =
            PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(M))
                .shards(SHARDS)
                .batch_size(64)
                .queue_depth(8)
                .spawn::<u64>()
                .unwrap();
        pipeline.send_batch(&prefix).unwrap();
        pipeline.view().expect("epoch");
        hh::fault::install(
            FaultPlan::new(21)
                .stall_on(sites::SHARD_BATCH, 1, 300)
                .panic_on(sites::SHARD_CHECKPOINT, 1),
        );
        pipeline.send_batch(&behind).unwrap();
        let behind_view = answers(pipeline.view().expect("epoch").report());
        let stats = pipeline.stats();
        pipeline.finish().unwrap();
        (behind_view, stats)
    };
    let restarts: Vec<u64> = stats.shards.iter().map(|s| s.restarts).collect();
    assert_eq!(restarts, [1, 0], "the marker reached shard 0 only");
    assert_eq!(stats.lost_items, behind.len() as u64);
    assert_eq!(total, (prefix.len() + behind.len()) as u64);
    for (x, &(lower, upper)) in (0..UNIVERSE).zip(&intervals) {
        let t = truth[x as usize];
        assert!(
            lower <= t && t <= upper,
            "item {x}: [{lower}, {upper}] misses true count {t}"
        );
    }
}

/// Serves `stream` through a network [`Server`] over one connection,
/// ended by `?shutdown`, and returns the records the server wrote to its
/// own output.
fn served_records(opts: ServeOptions, stream: &[u64]) -> Vec<serde_json::Value> {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream};

    sys::reset_drain();
    let server: Server<u64> = Server::bind(opts, NetOptions::new().tcp("127.0.0.1:0")).unwrap();
    let addr = server.tcp_addr().expect("tcp listener");
    let running = std::thread::spawn(move || {
        let mut out = Vec::new();
        server.run(&mut out).expect("server run");
        String::from_utf8(out).expect("UTF-8 records")
    });
    let mut body: String = stream.iter().map(|x| format!("{x}\n")).collect();
    body.push_str("?shutdown\n");
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(body.as_bytes()).expect("write");
    conn.shutdown(Shutdown::Write).expect("half-close");
    conn.read_to_end(&mut Vec::new()).expect("read until close");
    let out = running.join().expect("server thread");
    out.lines()
        .map(|l| serde_json::from_str(l).expect("NDJSON record"))
        .collect()
}

/// The drain's `"final"` report reads the same view as the live reports:
/// served fresh, after a seeded shard kill, and resumed from a checkpoint
/// with unobserved mass, with a report cadence that divides the stream
/// length, the final record (written after the final stats record)
/// equals the last `"epoch"` record in `stream_len` and `top`, and
/// brackets the exact counts.
#[test]
fn server_final_record_equals_the_last_epoch_record() {
    const EVERY: u64 = 3_000;
    let stream: Vec<u64> = skewed_stream(29).into_iter().take(12_000).collect();
    let prefix: Vec<u64> = skewed_stream(30).into_iter().take(2_000).collect();
    let config = EngineConfig::new(AlgoKind::SpaceSaving).counters(M);
    let dir = std::env::temp_dir().join(format!("hh-fault-final-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prefix.ckpt").to_str().unwrap().to_string();
    let opts = ServeOptions::new(config.clone())
        .shards(Some(3))
        .batch_size(64)
        .queue_depth(2)
        .report_every(EVERY)
        .stats_every(Some(0))
        .top_k(K);
    let runs = [
        ("fresh", None, opts.clone(), 0),
        ("killed", Some(40), opts.clone(), 0),
        ("resumed", None, opts.snapshot_in(Some(path.clone())), 3),
    ];
    for (case, kill, opts, unobserved) in runs {
        let mut truth = ExactCounter::from_stream(&stream);
        if unobserved > 0 {
            let _chaos = Chaos::arm(FaultPlan::new(0));
            let mut pipeline = PipelineConfig::new(config.clone())
                .shards(3)
                .spawn::<u64>()
                .unwrap();
            pipeline.send_batch(&prefix).unwrap();
            let ckpt = Checkpoint {
                shards: pipeline.snapshots().unwrap(),
                unobserved,
            };
            pipeline.finish().unwrap();
            checkpoint::write(&path, &ckpt).unwrap();
            truth = ExactCounter::from_stream(&[&prefix[..], &stream[..]].concat());
        }
        let records = {
            let plan = FaultPlan::new(29);
            let _chaos = Chaos::arm(match kill {
                Some(batch) => plan.panic_on(sites::SHARD_BATCH, batch),
                None => plan,
            });
            served_records(opts, &stream)
        };
        let epochs: Vec<_> = records
            .iter()
            .filter(|r| r["epoch"].as_u64().is_some() && r["stats"] != true)
            .collect();
        assert_eq!(
            epochs.len(),
            (stream.len() as u64 / EVERY) as usize,
            "{case}"
        );
        let [.., stats, last] = &records[..] else {
            panic!("{case}: no final records in {records:?}");
        };
        assert_eq!(stats["stats"], true, "{case}: {stats:?}");
        assert_eq!(stats["final"], true, "{case}: {stats:?}");
        assert_eq!(
            stats["restarts"].as_u64(),
            Some(kill.map_or(0, |_| 1)),
            "{case}"
        );
        assert_eq!(last["final"], true, "{case}: {last:?}");
        let last_epoch = epochs.last().expect("epoch records");
        assert_eq!(last["stream_len"], last_epoch["stream_len"], "{case}");
        assert_eq!(last["top"], last_epoch["top"], "{case}");
        let total = truth.total() + unobserved;
        assert_eq!(last["stream_len"].as_u64(), Some(total), "{case}");
        let rows = last["top"].as_array().expect("top rows");
        assert_eq!(rows.len(), K, "{case}");
        for row in rows {
            let item = row["item"].as_u64().expect("u64 item");
            let (lower, upper) = (
                row["lower"].as_u64().unwrap(),
                row["upper"].as_u64().unwrap(),
            );
            let t = truth.count(&item);
            assert!(
                lower <= t && t <= upper,
                "{case}: item {item} [{lower}, {upper}] misses {t}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The full durable-checkpoint cycle under injected torn writes: a serve
/// session checkpoints cleanly, a later checkpoint tears, and the next
/// session resumes from the previous generation — reporting the
/// fallback — instead of failing or silently undercounting.
#[test]
fn serve_session_resumes_from_previous_generation_after_torn_checkpoint() {
    let dir = std::env::temp_dir().join(format!("hh-fault-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.ckpt").to_str().unwrap().to_string();
    let config = EngineConfig::new(AlgoKind::SpaceSaving).counters(16);

    {
        // Second checkpoint write tears (hit #2 of the write site).
        let _chaos = Chaos::arm(FaultPlan::new(3).torn_write_on(sites::CHECKPOINT_WRITE, 2));
        let serve = ServeOptions::new(config.clone())
            .shards(Some(2))
            .checkpoint_every(4)
            .snapshot_out(Some(path.clone()));
        let mut session: ServeSession<u64> = ServeSession::spawn(&serve).unwrap();
        for item in [1, 1, 2, 3] {
            session.send(item).unwrap();
        }
        session.checkpoint().unwrap(); // generation 1: clean, covers 4 items
        for _ in 0..4 {
            session.send(4).unwrap();
        }
        session.checkpoint().unwrap(); // generation 2: torn on disk
                                       // Crash: no finish(), the torn file stays current.
    }

    let resume = ServeOptions::new(config)
        .shards(Some(2))
        .snapshot_in(Some(path.clone()));
    let mut session: ServeSession<u64> = ServeSession::spawn(&resume).unwrap();
    assert!(
        session.resumed_from_fallback(),
        "resume must detect the torn current generation"
    );
    let merged = session.merged().unwrap();
    assert_eq!(merged.stream_len(), 4, "previous generation covers 4 items");
    assert_eq!(merged.estimate(&1), 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// The client's capped equal-jitter backoff rides out a listener that
/// comes up late (flapping restart), and its delay schedule is a pure
/// function of the seed.
#[test]
fn retry_policy_rides_out_a_flapping_listener() {
    use std::net::{TcpListener, TcpStream};

    let _guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let policy = RetryPolicy::new(6, 20, 200, 42);
    let a: Vec<Duration> = policy.delays().collect();
    let b: Vec<Duration> = policy.delays().collect();
    assert_eq!(a, b, "seeded jitter is deterministic");
    assert_eq!(a.len(), 5, "attempts - 1 sleeps");
    assert!(a.iter().all(|d| *d <= Duration::from_millis(200)));

    // Reserve a port, drop the listener, and bring it back only after a
    // delay longer than the first backoff sleeps.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener);
    let rebind = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        let listener = TcpListener::bind(addr).expect("rebind the reserved port");
        let _ = listener.accept();
    });

    let mut delays = policy.delays();
    let connected = loop {
        match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
            Ok(_) => break true,
            Err(_) => match delays.next() {
                Some(delay) => std::thread::sleep(delay),
                None => break false,
            },
        }
    };
    assert!(connected, "backoff budget must outlast the flap");
    rebind.join().unwrap();
}
