//! Sparse recovery from counter summaries (Section 4 of the paper).
//!
//! * [`k_sparse`] — Theorem 5: keep the k largest counters; the resulting
//!   k-sparse vector `f'` has `‖f − f'‖_p ≤ ε·F1^res(k)/k^{1−1/p} +
//!   (F_p^res(k))^{1/p}` when the algorithm is run with `m = k(3A/ε + B)`
//!   counters (`2A` instead of `3A` suffices for one-sided algorithms).
//! * [`residual_estimate`] — Theorem 6: `F1 − ‖f'‖₁` brackets `F1^res(k)`
//!   within `(1 ± ε)` when `m = Bk + Ak/ε`.
//! * [`m_sparse`] — Theorem 7: keep *all* counters of an underestimating
//!   algorithm; `‖f − f'‖_p ≤ (1+ε)(ε/k)^{1−1/p} F1^res(k)`.
//!
//! These functions operate purely on summary snapshots; the experiment
//! harness in `hh-analysis` compares the recovered vectors against ground
//! truth.

use std::hash::Hash;

use crate::traits::FrequencyEstimator;

/// A sparse non-negative vector recovered from a summary: `(item, value)`
/// pairs with distinct items and positive values, sorted by decreasing
/// value.
pub type SparseVector<I> = Vec<(I, u64)>;

/// Theorem 5 recovery: the `k` largest counters of the summary.
///
/// Ties at the boundary are resolved by the summary's own entry order (its
/// eviction order), matching the arbitrary choice the theorem allows.
pub fn k_sparse<I, E>(summary: &E, k: usize) -> SparseVector<I>
where
    I: Eq + Hash + Clone,
    E: FrequencyEstimator<I> + ?Sized,
{
    let mut entries = Vec::new();
    summary.top_entries_into(k, &mut entries);
    entries.retain(|&(_, c)| c > 0);
    entries
}

/// Theorem 7 recovery: *all* stored counters. Only meaningful for
/// underestimating summaries (FREQUENT, or SPACESAVING through
/// [`crate::underestimate::UnderestimatedSpaceSaving::entries`]).
pub fn m_sparse<I, E>(summary: &E) -> SparseVector<I>
where
    I: Eq + Hash + Clone,
    E: FrequencyEstimator<I> + ?Sized,
{
    let mut entries = summary.entries();
    entries.retain(|&(_, c)| c > 0);
    entries
}

/// Theorem 6 estimator for the residual `F1^res(k)`: the stream length
/// minus the mass captured by the k largest counters.
pub fn residual_estimate<I, E>(summary: &E, k: usize) -> u64
where
    I: Eq + Hash + Clone,
    E: FrequencyEstimator<I> + ?Sized,
{
    let recovered: u64 = k_sparse(summary, k).iter().map(|&(_, c)| c).sum();
    summary.stream_len().saturating_sub(recovered)
}

/// `‖v‖₁` of a sparse vector.
pub fn l1_norm<I>(v: &[(I, u64)]) -> u64 {
    v.iter().map(|&(_, c)| c).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space_saving::SpaceSaving;

    fn summary_from(stream: &[u64], m: usize) -> SpaceSaving<u64> {
        let mut s = SpaceSaving::new(m);
        for &x in stream {
            s.update(x);
        }
        s
    }

    #[test]
    fn k_sparse_returns_top_counters() {
        let stream = [1u64, 1, 1, 2, 2, 3];
        let s = summary_from(&stream, 10);
        let v = k_sparse(&s, 2);
        assert_eq!(v, vec![(1, 3), (2, 2)]);
    }

    #[test]
    fn k_sparse_drops_zero_estimates() {
        let s = summary_from(&[], 4);
        assert!(k_sparse(&s, 3).is_empty());
    }

    #[test]
    fn k_sparse_truncates_to_k() {
        let stream = [1u64, 2, 3, 4, 5];
        let s = summary_from(&stream, 10);
        assert_eq!(k_sparse(&s, 2).len(), 2);
        assert_eq!(k_sparse(&s, 100).len(), 5);
    }

    #[test]
    fn residual_estimate_exact_when_table_big_enough() {
        // table holds everything exactly => estimate == true residual
        let stream = [1u64, 1, 1, 1, 2, 2, 3, 4];
        let s = summary_from(&stream, 10);
        // F1=8, top-2 carries 6, residual = 2
        assert_eq!(residual_estimate(&s, 2), 2);
        assert_eq!(residual_estimate(&s, 0), 8);
        assert_eq!(residual_estimate(&s, 4), 0);
    }

    #[test]
    fn weighted_recovery_and_residual() {
        // weights in thousandths go through `update_by`, exactly
        let mut s = SpaceSaving::new(10);
        for (item, w) in [(1u64, 5000), (2, 3000), (3, 1000), (1, 2000)] {
            s.update_by(item, w);
        }
        assert_eq!(k_sparse(&s, 2), vec![(1, 7000), (2, 3000)]);
        // F1 = 11, top-2 = 10, residual = 1
        assert_eq!(residual_estimate(&s, 2), 1000);
        assert_eq!(residual_estimate(&s, 0), 11_000);
    }

    #[test]
    fn m_sparse_keeps_everything_positive() {
        let stream = [1u64, 2, 2, 3, 3, 3];
        let s = summary_from(&stream, 10);
        let v = m_sparse(&s);
        assert_eq!(v.len(), 3);
        assert_eq!(l1_norm(&v), 6);
    }
}
