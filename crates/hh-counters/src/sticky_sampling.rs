//! STICKY SAMPLING — Manku & Motwani's *randomized* counter algorithm,
//! the remaining counter comparator from the survey (\[10\]) the paper's
//! motivation builds on.
//!
//! The table stores sampled items with counts. The sampling rate `r`
//! doubles epoch by epoch (epoch `t` covers `2t` windows of `w = (1/ε)·
//! ln(1/(s·δ))` arrivals); a new item is admitted with probability `1/r`,
//! and at each rate change every stored entry is re-thinned by simulating
//! the coin flips it would have survived. Estimates underestimate; with
//! probability `1−δ` all items with frequency above `sN` are reported
//! with error at most `εN`.
//!
//! Unlike FREQUENT/SPACESAVING this algorithm is randomized and its
//! guarantee is probabilistic — which is exactly the contrast the paper
//! draws; it carries **no** deterministic k-tail guarantee
//! (`tail_constants()` is `None`).

use std::hash::Hash;

use crate::error::Error;
use crate::fasthash::FxHashMap;
use crate::traits::{Bias, FrequencyEstimator, TailConstants};

/// Minimal xorshift PRNG so the crate stays dependency-free (randomness
/// quality needs here are modest: geometric coin flips).
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// A uniform f64 in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    fn flip(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The STICKY SAMPLING summary.
#[derive(Debug, Clone)]
pub struct StickySampling<I: Eq + Hash + Clone> {
    table: FxHashMap<I, u64>,
    rng: XorShift64,
    /// Current sampling rate (an entry is admitted with prob 1/rate).
    rate: u64,
    /// Arrivals remaining until the next rate doubling.
    until_double: u64,
    /// Window parameter `w = (1/ε)·ln(1/(sδ))`.
    window: u64,
    epsilon: f64,
    stream_len: u64,
    max_table: usize,
}

impl<I: Eq + Hash + Ord + Clone> StickySampling<I> {
    /// Creates a summary with error `ε`, support `s`, failure probability
    /// `δ`, and a seed.
    pub fn new(epsilon: f64, support: f64, delta: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(support > 0.0 && support < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let window = ((1.0 / epsilon) * (1.0 / (support * delta)).ln())
            .ceil()
            .max(1.0) as u64;
        StickySampling {
            table: FxHashMap::default(),
            rng: XorShift64::new(seed),
            rate: 1,
            // first epoch: 2w arrivals at rate 1 (t = 1)
            until_double: 2 * window,
            window,
            epsilon,
            stream_len: 0,
            max_table: 0,
        }
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// High-water mark of the table size.
    pub fn max_table_len(&self) -> usize {
        self.max_table
    }

    /// Current sampling rate.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// The window parameter `w = (1/ε)·ln(1/(sδ))`.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Arrivals remaining until the next rate doubling.
    pub fn until_double(&self) -> u64 {
        self.until_double
    }

    /// The PRNG's current state word (snapshot capture — restoring it makes
    /// a rehydrated instance continue the exact same coin-flip sequence).
    pub fn rng_state(&self) -> u64 {
        self.rng.state
    }

    /// Stored `(item, count)` pairs in table order, unsorted, for a
    /// caller that orders or selects them itself.
    pub fn unsorted_entries(&self) -> impl Iterator<Item = (I, u64)> + '_ {
        self.table.iter().map(|(i, &c)| (i.clone(), c))
    }

    /// Rebuilds a summary from snapshot parts (the table is unordered, so
    /// entry order does not matter). The restored instance continues with
    /// the identical sampling schedule and coin-flip sequence.
    ///
    /// Returns [`Error::CorruptSnapshot`] on inconsistent parts (rate or
    /// window of 0, `epsilon ∉ (0,1)`, zero counts, duplicates).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        epsilon: f64,
        window: u64,
        rate: u64,
        until_double: u64,
        rng_state: u64,
        stream_len: u64,
        max_table: usize,
        entries: Vec<(I, u64)>,
    ) -> Result<Self, Error> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(Error::corrupt_snapshot("epsilon must be in (0, 1)"));
        }
        if window == 0 || rate == 0 || until_double == 0 {
            return Err(Error::corrupt_snapshot(
                "window, rate and until_double must be positive",
            ));
        }
        if max_table < entries.len() {
            return Err(Error::corrupt_snapshot(format!(
                "high-water mark {max_table} below table size {}",
                entries.len()
            )));
        }
        let mut table = FxHashMap::default();
        for (item, count) in entries {
            if count == 0 {
                return Err(Error::corrupt_snapshot("stored counts must be positive"));
            }
            if table.insert(item, count).is_some() {
                return Err(Error::corrupt_snapshot("duplicate item in snapshot"));
            }
        }
        Ok(StickySampling {
            table,
            rng: XorShift64 {
                state: rng_state.max(1),
            },
            rate,
            until_double,
            window,
            epsilon,
            stream_len,
            max_table,
        })
    }

    /// Absorbs another STICKY SAMPLING summary's snapshot state: a direct
    /// table union (counts add) plus the donor's stream length. O(m) — the
    /// donor's sample is *not* replayed through the sampler, which would
    /// cost O(total count) in coin flips and re-thin already-thinned
    /// counts, compounding undersampling on every merge hop. Both sides'
    /// counts underestimate their streams, so the union keeps
    /// underestimating the combined one; the local sampling schedule
    /// (rate, epoch) continues unchanged.
    ///
    /// Returns [`Error::Overflow`], leaving the summary unchanged, when the
    /// combined stream length or any merged count would exceed `u64::MAX`.
    pub fn absorb_parts(&mut self, entries: Vec<(I, u64)>, stream_len: u64) -> Result<(), Error> {
        let overflow =
            |what: &str| Error::Overflow(format!("merged StickySampling {what} exceeds u64"));
        let combined_len = self
            .stream_len
            .checked_add(stream_len)
            .ok_or_else(|| overflow("stream length"))?;
        // Every donor item's merged count, checked before the table changes.
        let mut merged = FxHashMap::default();
        for (item, count) in entries {
            if count == 0 {
                continue;
            }
            let c = merged
                .get(&item)
                .or_else(|| self.table.get(&item))
                .copied()
                .unwrap_or(0);
            merged.insert(item, c.checked_add(count).ok_or_else(|| overflow("count"))?);
        }
        self.table.extend(merged);
        self.stream_len = combined_len;
        self.max_table = self.max_table.max(self.table.len());
        Ok(())
    }

    fn double_rate(&mut self) {
        self.rate *= 2;
        // Re-thin: each stored entry repeatedly loses one count per
        // unsuccessful coin at the *new* rate; geometric thinning per [24].
        // Entries take their coins in item order, not in the table's
        // layout order, which a rehydrated table does not share: so a
        // summary restored by `from_parts` thins exactly as the original.
        let mut items: Vec<I> = self.table.keys().cloned().collect();
        items.sort_unstable();
        for item in items {
            let Some(count) = self.table.get_mut(&item) else {
                continue;
            };
            // toss an unbiased coin until success; each failure decrements
            while *count > 0 && self.rng.flip(0.5) {
                *count -= 1;
            }
            if *count == 0 {
                self.table.remove(&item);
            }
        }
    }
}

impl<I: Eq + Hash + Ord + Clone> FrequencyEstimator<I> for StickySampling<I> {
    fn name(&self) -> &'static str {
        "StickySampling"
    }

    /// No fixed budget; reports the high-water table size (like
    /// LOSSYCOUNTING).
    fn capacity(&self) -> usize {
        self.max_table
    }

    fn update(&mut self, item: I) {
        self.stream_len += 1;
        if let Some(c) = self.table.get_mut(&item) {
            *c += 1;
        } else if self.rate == 1 || self.rng.flip(1.0 / self.rate as f64) {
            self.table.insert(item, 1);
        }
        self.max_table = self.max_table.max(self.table.len());
        self.until_double -= 1;
        if self.until_double == 0 {
            self.double_rate();
            // epoch t covers t·w arrivals at rate 2^t; doubling the rate
            // doubles the epoch length
            self.until_double = 2 * self.window * self.rate;
        }
    }

    fn update_by(&mut self, item: I, count: u64) {
        for _ in 0..count {
            self.update(item.clone());
        }
    }

    fn estimate(&self, item: &I) -> u64 {
        self.table.get(item).copied().unwrap_or(0)
    }

    fn stored_len(&self) -> usize {
        self.table.len()
    }

    fn entries(&self) -> Vec<(I, u64)> {
        let mut v: Vec<(I, u64)> = self.unsorted_entries().collect();
        v.sort_unstable_by_key(|e| std::cmp::Reverse(e.1));
        v
    }

    fn stream_len(&self) -> u64 {
        self.stream_len
    }

    fn bias(&self) -> Bias {
        Bias::Under
    }

    fn tail_constants(&self) -> Option<TailConstants> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_before_first_doubling() {
        // rate stays 1 for the first 2w arrivals: counting is exact
        let mut s: StickySampling<u64> = StickySampling::new(0.1, 0.1, 0.1, 7);
        let horizon = 2 * s.window;
        for i in 0..horizon.min(40) {
            s.update(i % 5);
        }
        let n = horizon.min(40);
        for i in 0..5u64 {
            let f = (n / 5) + u64::from(i < n % 5);
            assert_eq!(s.estimate(&i), f);
        }
    }

    #[test]
    fn underestimates_always() {
        let stream: Vec<u64> = (0..20_000).map(|i| i % 113).collect();
        let mut s: StickySampling<u64> = StickySampling::new(0.01, 0.01, 0.1, 3);
        for &x in &stream {
            s.update(x);
        }
        for i in 0..113u64 {
            let f = stream.iter().filter(|&&x| x == i).count() as u64;
            assert!(s.estimate(&i) <= f, "item {i}");
        }
    }

    #[test]
    fn heavy_items_survive_with_small_error_whp() {
        // one item carries 30% of a long stream; with eps=0.01 its sampled
        // count must be within ~eps*N of exact (whp; seed fixed)
        let mut stream = Vec::new();
        for i in 0..30_000u64 {
            stream.push(if i % 10 < 3 { 999u64 } else { i % 500 });
        }
        let mut s: StickySampling<u64> = StickySampling::new(0.01, 0.05, 0.1, 11);
        for &x in &stream {
            s.update(x);
        }
        let exact = stream.iter().filter(|&&x| x == 999).count() as u64;
        let est = s.estimate(&999);
        assert!(est <= exact);
        assert!(
            exact - est <= (0.02 * stream.len() as f64) as u64,
            "heavy item error too large: {est} vs {exact}"
        );
    }

    #[test]
    fn table_stays_sublinear() {
        // 50k distinct singletons: the table must stay near O(w), far
        // below the number of distinct items
        let mut s: StickySampling<u64> = StickySampling::new(0.01, 0.01, 0.1, 5);
        for i in 0..50_000u64 {
            s.update(i);
        }
        assert!(
            s.max_table_len() < 10_000,
            "table grew to {}",
            s.max_table_len()
        );
    }

    #[test]
    fn seeded_determinism() {
        let mut a: StickySampling<u64> = StickySampling::new(0.05, 0.05, 0.1, 42);
        let mut b: StickySampling<u64> = StickySampling::new(0.05, 0.05, 0.1, 42);
        // `c` is `a` rehydrated mid-stream, before several rate doublings.
        let mut c: Option<StickySampling<u64>> = None;
        let mut rate_at_rehydration = 0;
        for i in 0..5_000u64 {
            a.update(i % 200);
            b.update(i % 200);
            if let Some(c) = c.as_mut() {
                c.update(i % 200);
            }
            if i == 400 {
                rate_at_rehydration = a.rate();
                let parts = StickySampling::from_parts(
                    a.epsilon(),
                    a.window(),
                    a.rate(),
                    a.until_double(),
                    a.rng_state(),
                    a.stream_len(),
                    a.max_table_len(),
                    a.entries(),
                );
                c = Some(parts.unwrap());
            }
        }
        assert_eq!(a.entries(), b.entries());
        let by_item = |s: &StickySampling<u64>| {
            let mut entries = s.entries();
            entries.sort_unstable();
            entries
        };
        let c = c.unwrap();
        assert!(
            c.rate() > 2 * rate_at_rehydration,
            "rate doublings after it"
        );
        assert_eq!(by_item(&a), by_item(&c));
    }
}
