//! Integer-exact evaluation of the paper's error bounds.
//!
//! The paper states its guarantees with floors over integer quantities
//! (Definitions 1 and 2); these helpers evaluate them exactly in `u64`
//! so tests can assert `δ ≤ bound` without floating-point slack. The
//! floating-point bound for any constants is
//! [`TailConstants::bound`](crate::traits::TailConstants::bound).

/// Definition 2 with integer constants: `⌊A·F1^res(k) / (m − B·k)⌋`, or
/// `None` when `m ≤ B·k` (the guarantee is vacuous).
pub fn tail_bound_floor(a: u64, b: u64, m: usize, k: usize, res1_k: u64) -> Option<u64> {
    let bk = b.checked_mul(k as u64)?;
    let m = m as u64;
    if m <= bk {
        return None;
    }
    Some(a * res1_k / (m - bk))
}

/// The Appendix B/C bound for FREQUENT and SPACESAVING (`A = B = 1`):
/// `⌊F1^res(k) / (m − k)⌋`.
pub fn tail_bound_one_one(m: usize, k: usize, res1_k: u64) -> Option<u64> {
    tail_bound_floor(1, 1, m, k, res1_k)
}

/// The Appendix A lower bound: any deterministic m-counter algorithm has a
/// stream forcing error at least `F1^res(k) / (2m + 2k/X)` (→ `F1^res(k)/2m`
/// as the prefix multiplicity `X → ∞`).
pub fn lower_bound(m: usize, k: usize, x: u64, res1_k: u64) -> f64 {
    res1_k as f64 / (2.0 * m as f64 + 2.0 * k as f64 / x as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::TailConstants;

    #[test]
    fn tail_bounds_exact() {
        assert_eq!(tail_bound_one_one(10, 2, 17), Some(2)); // 17/8
        assert_eq!(tail_bound_one_one(3, 3, 17), None);
    }

    #[test]
    fn one_one_no_weaker_than_generic() {
        for m in 3..20 {
            for k in 1..(m / 2) {
                for res in [0u64, 5, 100] {
                    let tight = tail_bound_one_one(m, k, res).unwrap();
                    let generic = TailConstants::GENERIC.bound(m, k, res);
                    if let Some(g) = generic {
                        assert!(tight as f64 <= g, "m={m} k={k} res={res}");
                    }
                }
            }
        }
    }

    #[test]
    fn lower_bound_approaches_half() {
        let lb = lower_bound(10, 2, 1_000_000, 10 * 1_000_000);
        assert!((lb / ((10.0 * 1_000_000.0) / 20.0) - 1.0).abs() < 1e-3);
    }
}
