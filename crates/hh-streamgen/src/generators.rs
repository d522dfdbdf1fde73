//! General stream builders: uniform, two-level, custom frequency vectors and
//! real-weighted streams (for the Section 6.1 algorithms).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

use crate::zipf::{stream_from_counts, StreamOrder};
use crate::Item;

/// Re-export of [`StreamOrder`] under the name used by the builder API.
pub type Ordering = StreamOrder;

/// Fluent builder for unweighted streams over items `1..=n`.
///
/// ```
/// use hh_streamgen::{StreamBuilder, Ordering};
/// let s = StreamBuilder::new()
///     .heavy_items(3, 100)   // 3 items with 100 occurrences each
///     .light_items(50, 2)    // 50 items with 2 occurrences each
///     .order(Ordering::Shuffled(1))
///     .build();
/// assert_eq!(s.len(), 400);
/// ```
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    counts: Vec<u64>,
    order: StreamOrder,
}

impl Default for StreamBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamBuilder {
    /// Creates an empty builder (default ordering: `Shuffled(0)`).
    pub fn new() -> Self {
        StreamBuilder {
            counts: Vec::new(),
            order: StreamOrder::Shuffled(0),
        }
    }

    /// Appends `n` items each occurring `count` times. Items are assigned
    /// consecutive ids after the ones already added.
    pub fn heavy_items(mut self, n: usize, count: u64) -> Self {
        self.counts.extend(std::iter::repeat_n(count, n));
        self
    }

    /// Alias of [`Self::heavy_items`] for readability when adding the tail.
    pub fn light_items(self, n: usize, count: u64) -> Self {
        self.heavy_items(n, count)
    }

    /// Appends an explicit frequency vector.
    pub fn counts(mut self, counts: &[u64]) -> Self {
        self.counts.extend_from_slice(counts);
        self
    }

    /// Sets the stream ordering.
    pub fn order(mut self, order: StreamOrder) -> Self {
        self.order = order;
        self
    }

    /// The frequency vector accumulated so far (item `i+1` has count
    /// `counts[i]`).
    pub fn frequency_vector(&self) -> &[u64] {
        &self.counts
    }

    /// Materializes the stream.
    pub fn build(&self) -> Vec<Item> {
        stream_from_counts(&self.counts, self.order)
    }
}

/// Uniform stream: `len` draws uniformly from `1..=n` (seeded).
pub fn uniform_stream(n: usize, len: usize, seed: u64) -> Vec<Item> {
    assert!(n > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(1..=n as u64)).collect()
}

/// A weighted stream of `(item, weight)` tuples — the Section 6.1 model
/// where each arrival carries a non-negative weight (e.g. packet bytes),
/// here a whole number of units that `update_by` applies exactly.
#[derive(Debug, Clone)]
pub struct WeightedStream {
    /// The `(item, weight)` arrivals in stream order.
    pub updates: Vec<(Item, u64)>,
}

impl WeightedStream {
    /// Total weight `F1` of the stream.
    pub fn total_weight(&self) -> u64 {
        self.updates.iter().map(|(_, w)| w).sum()
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the stream has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Synthesizes a packet-trace-like workload: item popularity is Zipfian
    /// (via an exact frequency vector shuffled into random order) and each
    /// arrival's size in whole bytes is a LogNormal(`mu`, `sigma`) draw
    /// rounded up — a standard stand-in for packet/transaction sizes.
    ///
    /// This substitutes for the real network traces the paper's motivation
    /// refers to: the tail-guarantee theorems are worst-case, so any workload
    /// exercising skewed ids with heavy-tailed weights covers the same code
    /// path.
    pub fn packet_trace(n: usize, len: usize, alpha: f64, mu: f64, sigma: f64, seed: u64) -> Self {
        let counts = crate::zipf::exact_zipf_counts(n, len as u64, alpha);
        let mut items = stream_from_counts(&counts, StreamOrder::BlocksDescending);
        let mut rng = StdRng::seed_from_u64(seed);
        items.shuffle(&mut rng);
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "packet_trace requires finite mu and sigma >= 0"
        );
        // lint:allow(panic-freedom) unreachable: the assert above covers LogNormal::new's exact failure domain
        let sizes = LogNormal::new(mu, sigma).expect("valid lognormal params");
        let updates = items
            .into_iter()
            .map(|i| (i, sizes.sample(&mut rng).ceil() as u64))
            .collect();
        WeightedStream { updates }
    }

    /// A weighted stream with explicit per-item total weights, split into
    /// `chunks` arrivals per item that differ by at most one unit and sum
    /// to the total, shuffled (seeded).
    pub fn from_totals(totals: &[(Item, u64)], chunks: usize, seed: u64) -> Self {
        assert!(chunks > 0);
        let mut updates = Vec::with_capacity(totals.len() * chunks);
        let chunks = chunks as u64;
        for &(item, total) in totals {
            let (per, extra) = (total / chunks, total % chunks);
            for chunk in 0..chunks {
                updates.push((item, per + u64::from(chunk < extra)));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        updates.shuffle(&mut rng);
        WeightedStream { updates }
    }
}

/// Concatenates streams (summary-merge experiments feed each piece to its
/// own summarizer, then merge; the concatenation is the ground truth).
pub fn concat(streams: &[Vec<Item>]) -> Vec<Item> {
    let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    for s in streams {
        out.extend_from_slice(s);
    }
    out
}

/// Splits a stream into `parts` contiguous chunks of near-equal length
/// (distributed summarization experiments).
pub fn split(stream: &[Item], parts: usize) -> Vec<Vec<Item>> {
    assert!(parts > 0);
    let chunk = stream.len().div_ceil(parts);
    if stream.is_empty() {
        return vec![Vec::new(); parts];
    }
    let mut out: Vec<Vec<Item>> = stream.chunks(chunk).map(|c| c.to_vec()).collect();
    while out.len() < parts {
        out.push(Vec::new());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactCounter;

    #[test]
    fn builder_assigns_sequential_ids() {
        let s = StreamBuilder::new()
            .heavy_items(2, 3)
            .light_items(1, 1)
            .order(StreamOrder::BlocksDescending)
            .build();
        let c = ExactCounter::from_stream(&s);
        assert_eq!(c.count(&1), 3);
        assert_eq!(c.count(&2), 3);
        assert_eq!(c.count(&3), 1);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn uniform_stream_in_range_and_seeded() {
        let a = uniform_stream(10, 1000, 5);
        let b = uniform_stream(10, 1000, 5);
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| (1..=10).contains(&x)));
        let c = ExactCounter::from_stream(&a);
        assert!(
            c.distinct() == 10,
            "with 1000 draws of 10 items all appear whp"
        );
    }

    #[test]
    fn packet_trace_weights_positive() {
        let w = WeightedStream::packet_trace(100, 2000, 1.1, 6.0, 1.0, 3);
        assert_eq!(w.len(), 2000);
        assert!(w
            .updates
            .iter()
            .all(|&(i, wt)| wt > 0 && (1..=100).contains(&i)));
        assert!(w.total_weight() > 0);
    }

    #[test]
    fn from_totals_preserves_per_item_weight() {
        let w = WeightedStream::from_totals(&[(1, 10), (2, 4)], 4, 0);
        assert_eq!(w.len(), 8);
        let mut c = ExactCounter::new();
        for &(item, weight) in &w.updates {
            c.update_by(item, weight);
        }
        assert_eq!((c.count(&1), c.count(&2)), (10, 4));
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let s: Vec<Item> = (1..=10).collect();
        let parts = split(&s, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(concat(&parts), s);
        // splitting into more parts than elements pads with empties
        let tiny = split(&[1, 2], 4);
        assert_eq!(tiny.len(), 4);
        assert_eq!(concat(&tiny), vec![1, 2]);
    }
}
