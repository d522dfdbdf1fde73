//! Merging multiple summaries (Section 6.2, Theorem 11).
//!
//! Given ℓ summaries of separate streams, each produced by an algorithm
//! with a k-tail `(A, B)` guarantee, the paper's merge procedure is:
//!
//! 1. extract the k-sparse vector `f'^(j)` from each summary (Theorem 5),
//! 2. replay each vector as a stream into a *fresh* instance of the counter
//!    algorithm.
//!
//! The result is a summary of the combined stream with a k-tail
//! `(3A, A+B)` guarantee. Since FREQUENT and SPACESAVING have `(1, 1)`
//! constants, merged summaries carry `(3, 2)`.
//!
//! [`merge_k_sparse`] implements exactly this; [`merge_full`] is the
//! practical variant that replays *all* `m` counters of each summary
//! (strictly more information, same worst-case guarantee; included so the
//! merge experiment can quantify the difference).

use std::hash::Hash;

use crate::recovery::k_sparse;
use crate::traits::FrequencyEstimator;

/// Merges summaries by replaying each one's k-sparse recovery into a fresh
/// algorithm built by `make_target` (Theorem 11's construction).
///
/// `make_target` receives no arguments and must return an empty estimator
/// with the desired capacity `m`.
pub fn merge_k_sparse<I, S, T>(summaries: &[S], k: usize, make_target: impl FnOnce() -> T) -> T
where
    I: Eq + Hash + Clone,
    S: FrequencyEstimator<I>,
    T: FrequencyEstimator<I>,
{
    let mut target = make_target();
    for s in summaries {
        for (item, count) in k_sparse(s, k) {
            target.update_by(item, count);
        }
    }
    target
}

/// Merges summaries by replaying *every* stored counter of each summary.
pub fn merge_full<I, S, T>(summaries: &[S], make_target: impl FnOnce() -> T) -> T
where
    I: Eq + Hash + Clone,
    S: FrequencyEstimator<I>,
    T: FrequencyEstimator<I>,
{
    let mut target = make_target();
    for s in summaries {
        for (item, count) in s.entries() {
            if count > 0 {
                target.update_by(item, count);
            }
        }
    }
    target
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space_saving::SpaceSaving;
    use crate::traits::TailConstants;

    fn summarize(stream: &[u64], m: usize) -> SpaceSaving<u64> {
        let mut s = SpaceSaving::new(m);
        for &x in stream {
            s.update(x);
        }
        s
    }

    #[test]
    fn merge_of_disjoint_exact_summaries_is_exact() {
        // Each summary has more capacity than distinct items => exact.
        let s1 = summarize(&[1, 1, 1, 2], 10);
        let s2 = summarize(&[3, 3, 4], 10);
        let merged = merge_full(&[s1, s2], || SpaceSaving::new(10));
        assert_eq!(merged.estimate(&1), 3);
        assert_eq!(merged.estimate(&2), 1);
        assert_eq!(merged.estimate(&3), 2);
        assert_eq!(merged.estimate(&4), 1);
    }

    #[test]
    fn merge_k_sparse_keeps_heavy_items() {
        let mut streams = Vec::new();
        for j in 0..4u64 {
            // item 100 is globally heavy; items j*10.. are local noise
            let mut s = vec![100u64; 50];
            s.extend((0..20).map(|i| j * 10 + (i % 5)));
            streams.push(s);
        }
        let summaries: Vec<_> = streams.iter().map(|s| summarize(s, 8)).collect();
        let merged = merge_k_sparse(&summaries, 2, || SpaceSaving::new(16));
        // 100 occurs 200 times in total; the merged estimate must dominate
        let est = merged.estimate(&100);
        assert!(est >= 150, "heavy item survives merging: {est}");
    }

    #[test]
    fn merged_tail_guarantee_theorem_11() {
        // 3 Zipf-ish streams, merged; check delta_i <= 3*F1res(k)/(m-2k).
        let mut streams: Vec<Vec<u64>> = Vec::new();
        for j in 0..3u64 {
            let mut s = Vec::new();
            for i in 1..=40u64 {
                let reps = 200 / i + j; // overlapping skewed support
                s.extend(std::iter::repeat_n(i, reps as usize));
            }
            streams.push(s);
        }
        let k = 4usize;
        let m = 40usize;
        let summaries: Vec<_> = streams.iter().map(|s| summarize(s, m)).collect();
        let merged = merge_k_sparse(&summaries, k, || SpaceSaving::new(m));

        // ground truth over the union
        let mut exact = std::collections::HashMap::new();
        for s in &streams {
            for &x in s {
                *exact.entry(x).or_insert(0u64) += 1;
            }
        }
        let mut freqs: Vec<u64> = exact.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let res_k: u64 = freqs.iter().skip(k).sum();
        let bound = TailConstants::ONE_ONE
            .merged()
            .bound(m, k, res_k)
            .expect("m > (A+B)k");
        for (&item, &f) in &exact {
            let err = f.abs_diff(merged.estimate(&item));
            assert!(
                err as f64 <= bound + 1e-9,
                "item {item}: err {err} > merged bound {bound}"
            );
        }
    }

    #[test]
    fn weighted_merge_keeps_heavy_flows() {
        // weights in thousandths: the merge is the count merge, exactly
        let mut sites = Vec::new();
        for j in 0..3u64 {
            let mut s = SpaceSaving::new(16);
            s.update_by(42, 500_000 + j * 1000);
            for i in 0..30u64 {
                s.update_by(j * 100 + i, 1500);
            }
            sites.push(s);
        }
        let merged = merge_k_sparse(&sites, 4, || SpaceSaving::new(16));
        let top = merged.entries();
        assert_eq!(top[0].0, 42);
        assert!(top[0].1 >= 1_500_000);
    }

    #[test]
    fn weighted_merge_tail_guarantee() {
        // three sites over a shared skewed weight vector, in thousandths
        let m = 40;
        let k = 4;
        let mut exact = std::collections::HashMap::new();
        let mut sites = Vec::new();
        for j in 0..3u64 {
            let mut s = SpaceSaving::new(m);
            for i in 1..=50u64 {
                let w = 300_000 / i + j * 250;
                s.update_by(i, w);
                *exact.entry(i).or_insert(0u64) += w;
            }
            sites.push(s);
        }
        let merged = merge_k_sparse(&sites, k, || SpaceSaving::new(m));
        let mut weights: Vec<u64> = exact.values().copied().collect();
        weights.sort_unstable_by(|a, b| b.cmp(a));
        let res: u64 = weights.iter().skip(k).sum();
        let bound = TailConstants::ONE_ONE.merged().bound(m, k, res).unwrap();
        for (&item, &w) in &exact {
            let err = w.abs_diff(merged.estimate(&item));
            assert!(err as f64 <= bound, "item {item}: {err} > {bound}");
        }
    }

    #[test]
    fn merge_empty_summaries() {
        let s1 = summarize(&[], 4);
        let s2 = summarize(&[], 4);
        let merged = merge_k_sparse(&[s1, s2], 2, || SpaceSaving::new(4));
        assert_eq!(merged.stored_len(), 0);
        assert_eq!(merged.stream_len(), 0);
    }
}
