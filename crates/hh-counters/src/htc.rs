//! Empirical machinery for the *heavy-tolerant counter* (HTC) definitions
//! (Definitions 3–4) and Theorem 1.
//!
//! Definition 3 quantifies over **all subsequences** of the stream suffix,
//! so exact checking is exponential; these helpers are meant for the small
//! streams used by the model-checking style tests and the `exp_htc`
//! experiment (`run_all --only exp_htc`), where exhaustive enumeration is
//! feasible (suffix lengths up to ~16).

use std::collections::BTreeMap;
use std::hash::Hash;

use crate::traits::FrequencyEstimator;

/// Runs a fresh estimator over `stream` and returns the absolute error
/// `δ_j = |f_j − c_j|` for every distinct item of `universe`.
pub fn error_vector<I, A, F>(make: F, stream: &[I], universe: &[I]) -> BTreeMap<I, u64>
where
    I: Eq + Hash + Clone + Ord,
    A: FrequencyEstimator<I>,
    F: Fn() -> A,
{
    let mut algo = make();
    let mut exact: BTreeMap<I, u64> = BTreeMap::new();
    for x in stream {
        algo.update(x.clone());
        *exact.entry(x.clone()).or_insert(0) += 1;
    }
    universe
        .iter()
        .map(|j| {
            let f = exact.get(j).copied().unwrap_or(0);
            let c = algo.estimate(j);
            (j.clone(), f.abs_diff(c))
        })
        .collect()
}

/// Exact check of Definition 3: is `item` x-prefix guaranteed for `stream`?
///
/// Enumerates all `2^(s−x)` subsequences of the suffix and verifies the
/// item keeps a positive counter on every one. Exponential — use only on
/// short suffixes.
pub fn is_prefix_guaranteed<I, A, F>(make: F, stream: &[I], x: usize, item: &I) -> bool
where
    I: Eq + Hash + Clone,
    A: FrequencyEstimator<I>,
    F: Fn() -> A,
{
    assert!(x < stream.len(), "Definition 3 requires x < s");
    let suffix = &stream[x..];
    let n = suffix.len();
    assert!(
        n <= 24,
        "exhaustive subsequence check limited to short suffixes"
    );
    for mask in 0u64..(1u64 << n) {
        let mut algo = make();
        for u in &stream[..x] {
            algo.update(u.clone());
        }
        for (bit, u) in suffix.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                algo.update(u.clone());
            }
        }
        if algo.estimate(item) == 0 {
            return false;
        }
    }
    true
}

/// One violation of the heavy-tolerance property (Definition 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtcViolation<I> {
    /// 0-based stream position whose removal *decreased* some error.
    pub position: usize,
    /// The (prefix-guaranteed) item occurring at that position.
    pub item: I,
    /// The item whose error increased by keeping the occurrence.
    pub witness: I,
    /// `δ_witness` on the full stream.
    pub delta_with: u64,
    /// `δ_witness` with the occurrence removed.
    pub delta_without: u64,
}

/// Exhaustively checks Definition 4 on `stream`: for every position `x`
/// whose item is (x−1)-prefix guaranteed, removing that occurrence must not
/// decrease any item's estimation error. Returns all violations (empty for
/// heavy-tolerant algorithms — Theorem 1 proves FREQUENT and SPACESAVING
/// never produce any).
pub fn check_heavy_tolerance<I, A, F>(make: F, stream: &[I]) -> Vec<HtcViolation<I>>
where
    I: Eq + Hash + Clone + Ord,
    A: FrequencyEstimator<I>,
    F: Fn() -> A,
{
    let mut universe: Vec<I> = stream.to_vec();
    universe.sort();
    universe.dedup();

    let mut violations = Vec::new();
    for x in 0..stream.len() {
        let item = &stream[x];
        if !is_prefix_guaranteed(&make, stream, x, item) {
            continue;
        }
        // the stream with position x removed
        let mut without: Vec<I> = Vec::with_capacity(stream.len() - 1);
        without.extend_from_slice(&stream[..x]);
        without.extend_from_slice(&stream[x + 1..]);

        let with_deltas = error_vector(&make, stream, &universe);
        let without_deltas = error_vector(&make, &without, &universe);
        for j in &universe {
            let dw = with_deltas[j];
            let dwo = without_deltas[j];
            if dw > dwo {
                violations.push(HtcViolation {
                    position: x,
                    item: item.clone(),
                    witness: j.clone(),
                    delta_with: dw,
                    delta_without: dwo,
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frequent::Frequent;
    use crate::space_saving::SpaceSaving;

    #[test]
    fn error_vector_exact_when_room() {
        let stream = [1u64, 1, 2];
        let d = error_vector(|| SpaceSaving::new(4), &stream, &[1, 2, 3]);
        assert_eq!(d[&1], 0);
        assert_eq!(d[&2], 0);
        assert_eq!(d[&3], 0);
    }

    #[test]
    fn prefix_guarantee_detected_for_dominant_item() {
        // 1 occurs 5 times in the prefix; suffix is 3 other items with m=2.
        // After the prefix, 1's counter is 5 and can lose at most... for
        // SpaceSaving with m=2: suffix 2,3,4 can push min counter up, but
        // 1's counter stays the max; it is never the argmin => guaranteed.
        let stream = [1u64, 1, 1, 1, 1, 2, 3, 4];
        assert!(is_prefix_guaranteed(|| SpaceSaving::new(2), &stream, 5, &1));
    }

    #[test]
    fn prefix_guarantee_fails_for_singleton_under_pressure() {
        // 1 occurs once, then m=1 and another item arrives: 1 gets evicted
        // on the subsequence containing 2.
        let stream = [1u64, 2];
        assert!(!is_prefix_guaranteed(
            || SpaceSaving::new(1),
            &stream,
            1,
            &1
        ));
        assert!(!is_prefix_guaranteed(|| Frequent::new(1), &stream, 1, &1));
    }

    #[test]
    fn frequent_is_heavy_tolerant_on_small_streams() {
        let streams: [&[u64]; 4] = [
            &[1, 1, 1, 2, 3, 1, 2],
            &[1, 2, 3, 4, 1, 1, 2],
            &[5, 5, 5, 5, 1, 2, 3],
            &[1, 2, 1, 2, 3, 3, 3],
        ];
        for s in streams {
            for m in [1, 2, 3] {
                let v = check_heavy_tolerance(|| Frequent::new(m), s);
                assert!(v.is_empty(), "m={m}, stream={s:?}: {v:?}");
            }
        }
    }

    #[test]
    fn spacesaving_is_heavy_tolerant_on_small_streams() {
        let streams: [&[u64]; 4] = [
            &[1, 1, 1, 2, 3, 1, 2],
            &[1, 2, 3, 4, 1, 1, 2],
            &[5, 5, 5, 5, 1, 2, 3],
            &[2, 2, 1, 1, 3, 2, 1],
        ];
        for s in streams {
            for m in [1, 2, 3] {
                let v = check_heavy_tolerance(|| SpaceSaving::new(m), s);
                assert!(v.is_empty(), "m={m}, stream={s:?}: {v:?}");
            }
        }
    }
}
