//! `hh-fault` — deterministic, seeded fault injection for crash-safety
//! tests, plus the shared retry/backoff policy the client uses.
//!
//! Production code hosts **named injection sites** (the catalog lives in
//! [`sites`]): a call like `hh_fault::fault_point(sites::SHARD_BATCH)`
//! does nothing unless a [`FaultPlan`] is installed. Plans are seeded and
//! hit-counted, so a chaos test replays the *same* failure schedule on
//! every run: "panic on the 3rd batch shard 2 ingests" is a plan entry,
//! not a race.
//!
//! Two compilation modes keep the production hot path honest:
//!
//! * **feature `active` off (default)** — every hook is an empty
//!   `#[inline(always)]` function; the optimizer erases the call and the
//!   pipeline/server hot paths are bit-identical to a hook-free build
//!   (the `fault_overhead` gate of `bench_regression_check` holds this).
//! * **feature `active` on** — hooks consult the installed plan: a
//!   relaxed-atomic fast path when no plan is installed, a shared-lock
//!   lookup when one is.
//!
//! Five fault kinds cover the crash-safety surface: [`FaultKind::Panic`]
//! (kill a shard worker), [`FaultKind::Stall`] (wedge a channel so
//! backpressure/overload paths engage), [`FaultKind::ShortRead`] /
//! [`FaultKind::Eintr`] (exercise partial-I/O retry loops), and
//! [`FaultKind::TornWrite`] (truncate a checkpoint payload so CRC
//! validation and generation fallback are reachable in tests).
//!
//! Plans parse from a compact spec (see [`FaultPlan::parse`]) so the CI
//! chaos smoke can drive a release binary through the environment:
//!
//! ```
//! use hh_fault::{FaultKind, FaultPlan, Trigger};
//! let plan = FaultPlan::parse("seed=7; panic@pipeline::shard::batch#3; eintr@net::read%0.25").unwrap();
//! assert_eq!(plan.seed(), 7);
//! assert_eq!(plan.rules()[0].kind, FaultKind::Panic);
//! assert_eq!(plan.rules()[0].trigger, Trigger::OnHit(3));
//! ```
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

/// The environment variable [`install_from_env`] reads a plan spec from.
pub const ENV_PLAN: &str = "HH_FAULT_PLAN";

/// The catalog of named injection sites compiled into the workspace.
/// Documented (with the failure each one models) in
/// `docs/RELIABILITY.md`.
pub mod sites {
    /// Shard worker, before ingesting a delivered batch. `panic` models a
    /// worker crash mid-stream; `stall` models a wedged shard (queues
    /// fill, `saturated()` engages, the server sheds load).
    pub const SHARD_BATCH: &str = "pipeline::shard::batch";
    /// Shard worker, before acknowledging an epoch checkpoint marker —
    /// posted only to a shard the epoch finds behind on its batches.
    pub const SHARD_CHECKPOINT: &str = "pipeline::shard::checkpoint";
    /// Server event loop, before a connection read. `eintr` and
    /// `shortread` exercise the partial-read retry path.
    pub const NET_READ: &str = "net::read";
    /// Server event loop, before flushing a connection's write buffer.
    pub const NET_WRITE: &str = "net::write";
    /// Server accept path.
    pub const NET_ACCEPT: &str = "net::accept";
    /// Durable checkpoint writer. `tornwrite` truncates the payload that
    /// reaches disk, modeling a crash mid-write: the CRC header must
    /// reject the file and resume must fall back a generation.
    pub const CHECKPOINT_WRITE: &str = "checkpoint::write";
}

/// What an armed rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Panic at the site (`fault_point`).
    Panic,
    /// Sleep `ms` milliseconds at the site (`fault_point`).
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Halve the byte count a read reports (`short_read`).
    ShortRead,
    /// Report a spurious `EINTR` (`eintr`).
    Eintr,
    /// Halve the byte count a write persists (`torn_write`).
    TornWrite,
}

impl FaultKind {
    /// True for the kinds [`fault_point`] executes (panic / stall).
    #[cfg_attr(not(feature = "active"), allow(dead_code))]
    fn is_exec(&self) -> bool {
        matches!(self, FaultKind::Panic | FaultKind::Stall { .. })
    }
}

/// When an armed rule fires, relative to its per-rule hit counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Fire exactly once, on the `n`-th hit (1-based).
    OnHit(u64),
    /// Fire independently per hit with this probability, derived
    /// deterministically from the plan seed, the site name and the hit
    /// number — same seed, same schedule.
    Probability(f64),
}

/// One `(site, kind, trigger)` entry of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The injection site the rule arms (exact match, see [`sites`]).
    pub site: String,
    /// The fault to inject.
    pub kind: FaultKind,
    /// When to inject it.
    pub trigger: Trigger,
}

/// A deterministic failure schedule: a seed plus a list of [`Rule`]s.
///
/// Build one programmatically ([`FaultPlan::new`] + the `*_on` /
/// `*_prob` helpers) or parse the compact spec format
/// ([`FaultPlan::parse`]), then arm it with [`install`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// An empty plan with the given seed (used by `%p` probability
    /// triggers; irrelevant for pure `#n` hit triggers).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// The plan seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed rules, in declaration order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Adds an arbitrary rule.
    pub fn rule(mut self, site: &str, kind: FaultKind, trigger: Trigger) -> Self {
        self.rules.push(Rule {
            site: site.to_string(),
            kind,
            trigger,
        });
        self
    }

    /// Panic on the `n`-th hit of `site`.
    pub fn panic_on(self, site: &str, n: u64) -> Self {
        self.rule(site, FaultKind::Panic, Trigger::OnHit(n))
    }

    /// Stall `ms` milliseconds on the `n`-th hit of `site`.
    pub fn stall_on(self, site: &str, n: u64, ms: u64) -> Self {
        self.rule(site, FaultKind::Stall { ms }, Trigger::OnHit(n))
    }

    /// Report a short read on the `n`-th hit of `site`.
    pub fn short_read_on(self, site: &str, n: u64) -> Self {
        self.rule(site, FaultKind::ShortRead, Trigger::OnHit(n))
    }

    /// Report a spurious `EINTR` on the `n`-th hit of `site`.
    pub fn eintr_on(self, site: &str, n: u64) -> Self {
        self.rule(site, FaultKind::Eintr, Trigger::OnHit(n))
    }

    /// Tear (truncate) the write on the `n`-th hit of `site`.
    pub fn torn_write_on(self, site: &str, n: u64) -> Self {
        self.rule(site, FaultKind::TornWrite, Trigger::OnHit(n))
    }

    /// Arm `kind` at `site` with independent per-hit probability `p`.
    pub fn prob(self, site: &str, kind: FaultKind, p: f64) -> Self {
        self.rule(site, kind, Trigger::Probability(p))
    }

    /// Parses the compact spec format used by [`ENV_PLAN`]:
    /// semicolon-separated entries, each either `seed=<u64>` or
    /// `<kind>@<site><trigger>` where `<kind>` is one of `panic`,
    /// `stall(<ms>)`, `shortread`, `eintr`, `tornwrite` and `<trigger>`
    /// is `#<n>` (fire once on the n-th hit) or `%<p>` (per-hit
    /// probability).
    ///
    /// ```
    /// let plan = hh_fault::FaultPlan::parse("stall(50)@net::read#2").unwrap();
    /// assert_eq!(plan.rules().len(), 1);
    /// assert!(hh_fault::FaultPlan::parse("explode@x#1").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed in {entry:?}"))?;
                continue;
            }
            let (kind, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("missing '@' in fault entry {entry:?}"))?;
            let kind = match kind.trim() {
                "panic" => FaultKind::Panic,
                "shortread" => FaultKind::ShortRead,
                "eintr" => FaultKind::Eintr,
                "tornwrite" => FaultKind::TornWrite,
                s => {
                    let ms = s
                        .strip_prefix("stall(")
                        .and_then(|t| t.strip_suffix(')'))
                        .and_then(|t| t.trim().parse().ok())
                        .ok_or_else(|| format!("unknown fault kind in {entry:?}"))?;
                    FaultKind::Stall { ms }
                }
            };
            let (site, trigger) = if let Some((site, n)) = rest.rsplit_once('#') {
                let n = n
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad hit count in {entry:?}"))?;
                if n == 0 {
                    return Err(format!("hit counts are 1-based: {entry:?}"));
                }
                (site, Trigger::OnHit(n))
            } else if let Some((site, p)) = rest.rsplit_once('%') {
                let p = p
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad probability in {entry:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability outside [0, 1]: {entry:?}"));
                }
                (site, Trigger::Probability(p))
            } else {
                return Err(format!("missing '#<n>' or '%<p>' trigger in {entry:?}"));
            };
            let site = site.trim();
            if site.is_empty() {
                return Err(format!("empty site in {entry:?}"));
            }
            plan = plan.rule(site, kind, trigger);
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// The armed-plan machinery (feature `active`)
// ---------------------------------------------------------------------------

#[cfg(feature = "active")]
mod armed {
    use super::{FaultKind, FaultPlan, Trigger};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    struct ArmedRule {
        site: String,
        kind: FaultKind,
        trigger: Trigger,
        hits: AtomicU64,
    }

    struct Armed {
        seed: u64,
        rules: Vec<ArmedRule>,
    }

    /// Fast-path flag: hooks return immediately while no plan is armed.
    /// Relaxed is enough — installers arm the plan before starting the
    /// threads that hit the sites, and a stale `false` only delays the
    /// first injection by one lock-free read.
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    fn slot() -> &'static Mutex<Option<Arc<Armed>>> {
        static SLOT: OnceLock<Mutex<Option<Arc<Armed>>>> = OnceLock::new();
        SLOT.get_or_init(|| Mutex::new(None))
    }

    pub fn install(plan: FaultPlan) {
        let armed = Armed {
            seed: plan.seed,
            rules: plan
                .rules
                .into_iter()
                .map(|r| ArmedRule {
                    site: r.site,
                    kind: r.kind,
                    trigger: r.trigger,
                    hits: AtomicU64::new(0),
                })
                .collect(),
        };
        let mut slot = slot().lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(Arc::new(armed));
        INSTALLED.store(true, Ordering::Relaxed);
    }

    pub fn clear() {
        let mut slot = slot().lock().unwrap_or_else(|e| e.into_inner());
        INSTALLED.store(false, Ordering::Relaxed);
        *slot = None;
    }

    /// The first matching armed rule that fires at `site`, filtered by
    /// hook kind. Each *matching* rule's hit counter advances exactly
    /// once per call, so schedules are deterministic per (site, hook).
    pub fn fire(site: &str, wants: fn(&FaultKind) -> bool) -> Option<FaultKind> {
        if !INSTALLED.load(Ordering::Relaxed) {
            return None;
        }
        let armed = slot().lock().unwrap_or_else(|e| e.into_inner()).clone()?;
        let mut fired = None;
        for rule in &armed.rules {
            if rule.site != site || !wants(&rule.kind) {
                continue;
            }
            let hit = rule.hits.fetch_add(1, Ordering::Relaxed) + 1;
            let fires = match rule.trigger {
                Trigger::OnHit(n) => hit == n,
                Trigger::Probability(p) => super::chance(armed.seed, site, hit) < p,
            };
            if fires && fired.is_none() {
                fired = Some(rule.kind);
            }
        }
        fired
    }
}

/// Arms `plan` process-wide; later hooks consult it. With the `active`
/// feature off this is a no-op.
#[cfg(feature = "active")]
pub fn install(plan: FaultPlan) {
    armed::install(plan);
}

/// Arms `plan` process-wide; later hooks consult it. With the `active`
/// feature off this is a no-op.
#[cfg(not(feature = "active"))]
#[inline(always)]
pub fn install(_plan: FaultPlan) {}

/// Disarms any installed plan. No-op when `active` is off.
#[cfg(feature = "active")]
pub fn clear() {
    armed::clear();
}

/// Disarms any installed plan. No-op when `active` is off.
#[cfg(not(feature = "active"))]
#[inline(always)]
pub fn clear() {}

/// Whether this build compiled the injection machinery in.
pub fn is_active() -> bool {
    cfg!(feature = "active")
}

/// Installs a plan from the [`ENV_PLAN`] environment variable. Returns
/// `Ok(true)` when a plan was parsed and armed, `Ok(false)` when the
/// variable is unset, and `Err` on a malformed spec — or, loudly, when a
/// spec is present but this binary was built without `active` (a silent
/// no-op there would make a chaos run vacuously green).
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var(ENV_PLAN) {
        Err(_) => Ok(false),
        Ok(spec) => {
            if !is_active() {
                return Err(format!(
                    "{ENV_PLAN} is set but this binary was built without the \
                     hh-fault `active` feature"
                ));
            }
            install(FaultPlan::parse(&spec)?);
            Ok(true)
        }
    }
}

/// Execution hook: panics or stalls if an armed `panic`/`stall(ms)` rule
/// fires at `site`; otherwise free. Place on paths whose crash/wedge
/// behavior is under test.
#[cfg(feature = "active")]
pub fn fault_point(site: &str) {
    match armed::fire(site, FaultKind::is_exec) {
        Some(FaultKind::Panic) => {
            // lint:allow(panic-freedom) precondition: callers arm this injection site on purpose — panicking here is the hook's contract
            panic!("hh-fault: injected panic at {site}")
        }
        Some(FaultKind::Stall { ms }) => std::thread::sleep(Duration::from_millis(ms)),
        _ => {}
    }
}

/// Execution hook: panics or stalls if an armed `panic`/`stall(ms)` rule
/// fires at `site`; otherwise free. Place on paths whose crash/wedge
/// behavior is under test.
#[cfg(not(feature = "active"))]
#[inline(always)]
pub fn fault_point(_site: &str) {}

/// I/O hook: the byte count a read at `site` should report — `len`
/// normally, roughly half when an armed `shortread` rule fires (never
/// rounded to zero, so a short read stays distinguishable from EOF).
#[cfg(feature = "active")]
pub fn short_read(site: &str, len: usize) -> usize {
    match armed::fire(site, |k| matches!(k, FaultKind::ShortRead)) {
        Some(_) if len > 1 => len / 2,
        _ => len,
    }
}

/// I/O hook: the byte count a read at `site` should report — `len`
/// normally, roughly half when an armed `shortread` rule fires (never
/// rounded to zero, so a short read stays distinguishable from EOF).
#[cfg(not(feature = "active"))]
#[inline(always)]
pub fn short_read(_site: &str, len: usize) -> usize {
    len
}

/// I/O hook: true when an armed `eintr` rule fires at `site` — the
/// caller should behave as if the syscall returned `EINTR` and retry.
#[cfg(feature = "active")]
pub fn eintr(site: &str) -> bool {
    armed::fire(site, |k| matches!(k, FaultKind::Eintr)).is_some()
}

/// I/O hook: true when an armed `eintr` rule fires at `site` — the
/// caller should behave as if the syscall returned `EINTR` and retry.
#[cfg(not(feature = "active"))]
#[inline(always)]
pub fn eintr(_site: &str) -> bool {
    false
}

/// I/O hook: `Some(truncated_len)` when an armed `tornwrite` rule fires
/// at `site` — the caller should persist only that prefix, modeling a
/// crash mid-write.
#[cfg(feature = "active")]
pub fn torn_write(site: &str, len: usize) -> Option<usize> {
    armed::fire(site, |k| matches!(k, FaultKind::TornWrite)).map(|_| len / 2)
}

/// I/O hook: `Some(truncated_len)` when an armed `tornwrite` rule fires
/// at `site` — the caller should persist only that prefix, modeling a
/// crash mid-write.
#[cfg(not(feature = "active"))]
#[inline(always)]
pub fn torn_write(_site: &str, _len: usize) -> Option<usize> {
    None
}

// ---------------------------------------------------------------------------
// Deterministic randomness + retry backoff
// ---------------------------------------------------------------------------

/// A tiny xorshift64* generator — the crate's only randomness, used for
/// `%p` probability triggers and backoff jitter. Deterministic per seed.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (a fixed scramble maps every seed, including
    /// 0, to a non-degenerate state).
    pub fn new(seed: u64) -> Self {
        XorShift(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0x1234_5678_9ABC_DEF1),
        )
    }

    /// The next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The deterministic per-hit chance draw behind [`Trigger::Probability`]:
/// uniform in `[0, 1)` from (seed, site, hit).
#[cfg_attr(not(feature = "active"), allow(dead_code))]
fn chance(seed: u64, site: &str, hit: u64) -> f64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the site name
    for b in site.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let x = XorShift::new(seed ^ h ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// A capped-exponential retry policy with seeded "equal jitter": attempt
/// `k` (1-based) waits `e/2 + uniform(0..=e/2)` where
/// `e = min(cap_ms, base_ms << (k-1))`. Deterministic per seed, so a
/// flapping-listener test replays the same schedule every run.
///
/// ```
/// use hh_fault::RetryPolicy;
/// let policy = RetryPolicy::new(4, 100, 1_000, 42);
/// let a: Vec<_> = policy.delays().collect();
/// let b: Vec<_> = policy.delays().collect();
/// assert_eq!(a, b);         // seeded: identical schedules
/// assert_eq!(a.len(), 3);   // attempts - 1 waits
/// assert!(a.iter().all(|d| d.as_millis() >= 50 && d.as_millis() <= 1_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus `attempts - 1` retries).
    pub attempts: u32,
    /// First-retry backoff ceiling in milliseconds.
    pub base_ms: u64,
    /// Backoff cap in milliseconds.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl RetryPolicy {
    /// Builds a policy; `attempts == 0` is treated as 1 (always try
    /// once) and `base_ms == 0` as 1 ms.
    pub fn new(attempts: u32, base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        RetryPolicy {
            attempts: attempts.max(1),
            base_ms: base_ms.max(1),
            cap_ms: cap_ms.max(base_ms.max(1)),
            seed,
        }
    }

    /// The inter-attempt delays, in order: one per retry.
    pub fn delays(&self) -> Backoff {
        Backoff {
            policy: *self,
            attempt: 0,
            rng: XorShift::new(self.seed),
        }
    }
}

/// Iterator over a [`RetryPolicy`]'s jittered delays.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: RetryPolicy,
    attempt: u32,
    rng: XorShift,
}

impl Iterator for Backoff {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        if self.attempt + 1 >= self.policy.attempts {
            return None;
        }
        let exp = self
            .policy
            .base_ms
            .saturating_shl(self.attempt.min(32))
            .min(self.policy.cap_ms)
            .max(1);
        self.attempt += 1;
        let half = exp / 2;
        let jitter = if half == 0 {
            0
        } else {
            self.rng.next_u64() % (half + 1)
        };
        Some(Duration::from_millis(half + jitter))
    }
}

/// `u64::checked_shl` that saturates instead of wrapping; keeps huge
/// retry counts from overflowing the backoff exponent.
trait SaturatingShl {
    fn saturating_shl(self, rhs: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, rhs: u32) -> u64 {
        if rhs > self.leading_zeros() {
            u64::MAX
        } else {
            self << rhs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_kind() {
        let plan = FaultPlan::parse(
            "seed=9; panic@a#1; stall(25)@b#2; shortread@c#3; eintr@d%0.5; tornwrite@e#4",
        )
        .unwrap();
        assert_eq!(plan.seed(), 9);
        let kinds: Vec<_> = plan.rules().iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                FaultKind::Panic,
                FaultKind::Stall { ms: 25 },
                FaultKind::ShortRead,
                FaultKind::Eintr,
                FaultKind::TornWrite,
            ]
        );
        assert_eq!(plan.rules()[3].trigger, Trigger::Probability(0.5));
        assert_eq!(plan.rules()[4].site, "e");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "panic",       // no site
            "explode@x#1", // unknown kind
            "panic@x",     // no trigger
            "panic@x#0",   // 0 is not a hit number
            "panic@#1",    // empty site
            "eintr@x%1.5", // probability out of range
            "stall(oops)@x#1",
            "seed=minus-one",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(FaultPlan::parse("  ;; ").unwrap().rules().is_empty());
    }

    #[test]
    fn chance_is_deterministic_and_in_range() {
        for hit in 1..100u64 {
            let a = chance(7, "net::read", hit);
            let b = chance(7, "net::read", hit);
            assert_eq!(a, b);
            assert!((0.0..1.0).contains(&a));
        }
        // different sites decorrelate
        assert_ne!(chance(7, "net::read", 1), chance(7, "net::write", 1));
    }

    #[test]
    fn backoff_is_capped_monotone_in_expectation_and_seeded() {
        let policy = RetryPolicy::new(10, 50, 400, 3);
        let delays: Vec<_> = policy.delays().collect();
        assert_eq!(delays.len(), 9);
        for (i, d) in delays.iter().enumerate() {
            let exp = (50u64 << i.min(32)).min(400);
            assert!(d.as_millis() as u64 >= exp / 2, "attempt {i}: {d:?}");
            assert!(d.as_millis() as u64 <= exp, "attempt {i}: {d:?}");
        }
        assert_eq!(
            delays,
            RetryPolicy::new(10, 50, 400, 3)
                .delays()
                .collect::<Vec<_>>()
        );
        // zero-retry policies yield nothing; degenerate inputs are clamped
        assert_eq!(RetryPolicy::new(0, 0, 0, 0).delays().count(), 0);
        assert_eq!(RetryPolicy::new(2, 0, 0, 0).delays().count(), 1);
        // huge attempt counts must not overflow the shift
        assert!(RetryPolicy::new(200, 1 << 40, u64::MAX, 1)
            .delays()
            .all(|d| d.as_millis() > 0));
    }

    #[cfg(feature = "active")]
    mod active {
        use super::super::*;

        /// The armed plan is process-global; these tests serialize on it.
        fn with_plan<R>(plan: FaultPlan, f: impl FnOnce() -> R) -> R {
            static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
            let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
            install(plan);
            let out = f();
            clear();
            out
        }

        #[test]
        fn nth_hit_panics_exactly_once() {
            with_plan(FaultPlan::new(0).panic_on("t::site", 3), || {
                fault_point("t::site");
                fault_point("t::site");
                let hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(|_| {}));
                let caught = std::panic::catch_unwind(|| fault_point("t::site"));
                std::panic::set_hook(hook);
                assert!(caught.is_err(), "third hit must panic");
                fault_point("t::site"); // once only: the fourth hit is free
            });
        }

        #[test]
        fn hooks_are_noops_without_a_plan() {
            // no install(): fast path
            fault_point("t::none");
            assert_eq!(short_read("t::none", 8), 8);
            assert!(!eintr("t::none"));
            assert_eq!(torn_write("t::none", 8), None);
        }

        #[test]
        fn io_hooks_fire_on_schedule_and_respect_site_and_kind() {
            let plan = FaultPlan::new(0)
                .short_read_on("t::io", 2)
                .torn_write_on("t::io", 1)
                .eintr_on("t::other", 1);
            with_plan(plan, || {
                // wrong site: untouched
                assert_eq!(short_read("t::elsewhere", 100), 100);
                // hit 1 passes, hit 2 halves — and the tornwrite rule at
                // the same site keeps its own independent counter
                assert_eq!(short_read("t::io", 100), 100);
                assert_eq!(short_read("t::io", 100), 50);
                assert_eq!(torn_write("t::io", 100), Some(50));
                assert_eq!(torn_write("t::io", 100), None);
                assert!(eintr("t::other"));
                assert!(!eintr("t::other"));
                // a short read never truncates to zero
                assert_eq!(short_read("t::io", 1), 1);
            });
        }

        #[test]
        fn probability_one_always_fires_and_zero_never_does() {
            let plan = FaultPlan::new(11)
                .prob("t::always", FaultKind::Eintr, 1.0)
                .prob("t::never", FaultKind::Eintr, 0.0);
            with_plan(plan, || {
                for _ in 0..20 {
                    assert!(eintr("t::always"));
                    assert!(!eintr("t::never"));
                }
            });
        }

        #[test]
        fn env_install_parses_and_arms() {
            // var unset: nothing happens
            std::env::remove_var(ENV_PLAN);
            assert_eq!(install_from_env(), Ok(false));
        }
    }
}
