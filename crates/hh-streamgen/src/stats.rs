//! Frequency-vector statistics: `F1`, `F_p`, and residual moments
//! `F_p^res(k)`.
//!
//! The paper's bounds are all expressed in terms of the residual moments of
//! the frequency vector: `F_p^res(k) = Σ_{i>k} f_i^p` where items are indexed
//! in order of decreasing frequency (Section 2 of the paper). [`Freqs`] owns
//! a descending-sorted copy of the frequency vector and evaluates these
//! quantities exactly (in `u64` for p = 1, in `f64` for general p).

/// A frequency vector sorted in non-increasing order.
///
/// Construct it from any collection of per-item counts; zero counts are
/// dropped (they contribute nothing to any `F_p`).
///
/// ```
/// use hh_streamgen::Freqs;
/// let f = Freqs::from_counts([5u64, 1, 3, 0, 2]);
/// assert_eq!(f.f1(), 11);
/// assert_eq!(f.res1(1), 6); // all but the largest (5)
/// assert_eq!(f.res1(0), 11); // F1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Freqs {
    sorted_desc: Vec<u64>,
    f1: u64,
}

impl Freqs {
    /// Builds from an iterator of raw counts (unsorted, zeros allowed).
    pub fn from_counts<It: IntoIterator<Item = u64>>(counts: It) -> Self {
        let mut sorted_desc: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
        sorted_desc.sort_unstable_by(|a, b| b.cmp(a));
        let f1 = sorted_desc.iter().sum();
        Freqs { sorted_desc, f1 }
    }

    /// Number of distinct items with non-zero frequency.
    pub fn distinct(&self) -> usize {
        self.sorted_desc.len()
    }

    /// `F1`: the total stream length (sum of all frequencies).
    pub fn f1(&self) -> u64 {
        self.f1
    }

    /// The `i`-th largest frequency (0-indexed), or 0 past the end.
    pub fn nth(&self, i: usize) -> u64 {
        self.sorted_desc.get(i).copied().unwrap_or(0)
    }

    /// The frequencies in non-increasing order.
    pub fn as_slice(&self) -> &[u64] {
        &self.sorted_desc
    }

    /// `F1^res(k)`: the sum of all but the `k` largest frequencies.
    ///
    /// This is the quantity every tail bound in the paper is stated in terms
    /// of. `res1(0) == f1()`.
    pub fn res1(&self, k: usize) -> u64 {
        if k >= self.sorted_desc.len() {
            0
        } else {
            self.sorted_desc[k..].iter().sum()
        }
    }

    /// `F_p^res(k) = Σ_{i>k} f_i^p` as an `f64`, for any real `p ≥ 1`.
    pub fn res_p(&self, k: usize, p: f64) -> f64 {
        if k >= self.sorted_desc.len() {
            return 0.0;
        }
        self.sorted_desc[k..]
            .iter()
            .map(|&f| (f as f64).powf(p))
            .sum()
    }

    /// `F_p = F_p^res(0)`.
    pub fn fp(&self, p: f64) -> f64 {
        self.res_p(0, p)
    }

    /// Sum of the `k` largest frequencies (`F1 − F1^res(k)`).
    pub fn head1(&self, k: usize) -> u64 {
        let k = k.min(self.sorted_desc.len());
        self.sorted_desc[..k].iter().sum()
    }

    /// The smallest `m` such that the top-`m` items cover at least `fraction`
    /// of `F1`. Useful for characterizing skew in experiment output.
    pub fn coverage(&self, fraction: f64) -> usize {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let target = (self.f1 as f64) * fraction;
        let mut acc = 0.0;
        for (i, &f) in self.sorted_desc.iter().enumerate() {
            acc += f as f64;
            if acc >= target {
                return i + 1;
            }
        }
        self.sorted_desc.len()
    }
}

/// The Theorem 5 k-sparse recovery bound:
/// `ε · F1^res(k) / k^{1−1/p} + (F_p^res(k))^{1/p}`.
pub fn sparse_recovery_bound(eps: f64, k: usize, p: f64, res1_k: u64, res_p_k: f64) -> f64 {
    assert!(p >= 1.0, "p must be >= 1");
    assert!(k > 0, "k must be positive");
    eps * res1_k as f64 / (k as f64).powf(1.0 - 1.0 / p) + res_p_k.powf(1.0 / p)
}

/// The Theorem 7 m-sparse recovery bound for underestimating algorithms:
/// `(1+ε) · (ε/k)^{1−1/p} · F1^res(k)`.
pub fn msparse_recovery_bound(eps: f64, k: usize, p: f64, res1_k: u64) -> f64 {
    assert!(p >= 1.0, "p must be >= 1");
    assert!(k > 0, "k must be positive");
    (1.0 + eps) * (eps / k as f64).powf(1.0 - 1.0 / p) * res1_k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freqs_sorted_and_f1() {
        let f = Freqs::from_counts([3u64, 9, 1, 7]);
        assert_eq!(f.as_slice(), &[9, 7, 3, 1]);
        assert_eq!(f.f1(), 20);
        assert_eq!(f.distinct(), 4);
    }

    #[test]
    fn zeros_are_dropped() {
        let f = Freqs::from_counts([0u64, 0, 5]);
        assert_eq!(f.distinct(), 1);
        assert_eq!(f.f1(), 5);
    }

    #[test]
    fn residuals() {
        let f = Freqs::from_counts([10u64, 5, 3, 2]);
        assert_eq!(f.res1(0), 20);
        assert_eq!(f.res1(1), 10);
        assert_eq!(f.res1(2), 5);
        assert_eq!(f.res1(3), 2);
        assert_eq!(f.res1(4), 0);
        assert_eq!(f.res1(100), 0);
    }

    #[test]
    fn residual_p_moments() {
        let f = Freqs::from_counts([4u64, 2, 1]);
        // F2^res(1) = 2^2 + 1^2 = 5
        assert!((f.res_p(1, 2.0) - 5.0).abs() < 1e-12);
        // F1 via p=1 path agrees with exact
        assert!((f.res_p(0, 1.0) - 7.0).abs() < 1e-12);
        assert!((f.fp(2.0) - 21.0).abs() < 1e-12);
    }

    #[test]
    fn head_and_nth() {
        let f = Freqs::from_counts([4u64, 2, 1]);
        assert_eq!(f.head1(2), 6);
        assert_eq!(f.head1(99), 7);
        assert_eq!(f.nth(0), 4);
        assert_eq!(f.nth(2), 1);
        assert_eq!(f.nth(3), 0);
    }

    #[test]
    fn head_plus_residual_is_f1() {
        let f = Freqs::from_counts([9u64, 9, 8, 1, 1, 1]);
        for k in 0..=7 {
            assert_eq!(f.head1(k) + f.res1(k), f.f1());
        }
    }

    #[test]
    fn coverage_basic() {
        let f = Freqs::from_counts([50u64, 30, 15, 5]);
        assert_eq!(f.coverage(0.5), 1);
        assert_eq!(f.coverage(0.8), 2);
        assert_eq!(f.coverage(1.0), 4);
    }

    #[test]
    fn recovery_bounds_degenerate_p1() {
        // p = 1: k^{1-1/p} = 1 so bound is eps*res + res.
        let b = sparse_recovery_bound(0.1, 5, 1.0, 100, 100.0);
        assert!((b - (0.1 * 100.0 + 100.0)).abs() < 1e-9);
        // m-sparse at p=1: (1+eps)*res
        let mb = msparse_recovery_bound(0.1, 5, 1.0, 100);
        assert!((mb - 110.0).abs() < 1e-9);
    }

    #[test]
    fn empty_freqs() {
        let f = Freqs::from_counts(std::iter::empty::<u64>());
        assert_eq!(f.f1(), 0);
        assert_eq!(f.res1(0), 0);
        assert_eq!(f.distinct(), 0);
        assert_eq!(f.coverage(0.5), 0);
    }
}
