//! Integration: sparse recovery (Theorems 5, 6, 7) end to end.

use hh::counters::recovery::{k_sparse, l1_norm, m_sparse, residual_estimate};
use hh::counters::underestimate::{Correction, UnderestimatedSpaceSaving};
use hh::prelude::*;
use hh::streamgen::exact_zipf_counts;
use hh::streamgen::stats::{msparse_recovery_bound, sparse_recovery_bound};
use hh::streamgen::zipf::{stream_from_counts, StreamOrder};

fn zipf_stream(alpha: f64, seed: u64) -> Vec<u64> {
    let counts = exact_zipf_counts(3_000, 60_000, alpha);
    stream_from_counts(&counts, StreamOrder::Shuffled(seed))
}

#[test]
fn theorem5_bound_over_parameter_grid() {
    for &alpha in &[1.05, 1.3] {
        let stream = zipf_stream(alpha, 1);
        let oracle = ExactCounter::from_stream(&stream);
        let freqs = oracle.freqs();
        for &k in &[5usize, 10, 20] {
            for &eps in &[0.4, 0.1] {
                let m = TailConstants::ONE_ONE.counters_for_sparse_recovery(k, eps, true);
                let mut ss = SpaceSaving::new(m);
                for &x in &stream {
                    ss.update(x);
                }
                let rec = k_sparse(&ss, k);
                assert!(rec.len() <= k);
                for p in [1.0, 1.5, 2.0, 3.0] {
                    let err = lp_recovery_error(&rec, &oracle, p);
                    let bound = sparse_recovery_bound(eps, k, p, freqs.res1(k), freqs.res_p(k, p));
                    assert!(
                        err <= bound + 1e-9,
                        "alpha={alpha} k={k} eps={eps} p={p}: {err} > {bound}"
                    );
                }
            }
        }
    }
}

#[test]
fn theorem5_recovery_error_never_beats_best_possible() {
    // sanity on the metric itself: recovery error >= (F_p^res(k))^{1/p}
    let stream = zipf_stream(1.2, 2);
    let oracle = ExactCounter::from_stream(&stream);
    let freqs = oracle.freqs();
    let k = 10;
    let mut ss = SpaceSaving::new(200);
    for &x in &stream {
        ss.update(x);
    }
    let rec = k_sparse(&ss, k);
    for p in [1.0, 2.0] {
        let err = lp_recovery_error(&rec, &oracle, p);
        let best = freqs.res_p(k, p).powf(1.0 / p);
        assert!(err + 1e-9 >= best, "p={p}: {err} < optimal {best}");
    }
}

/// Theorem 6's residual estimate of `est` after it consumed `stream`.
fn residual_of(mut est: impl FrequencyEstimator<u64>, stream: &[u64], k: usize) -> u64 {
    for &x in stream {
        est.update(x);
    }
    residual_estimate(&est, k)
}

#[test]
fn theorem6_residual_bracket() {
    let stream = zipf_stream(1.2, 3);
    let oracle = ExactCounter::from_stream(&stream);
    let freqs = oracle.freqs();
    for &k in &[4usize, 12] {
        for &eps in &[0.5, 0.2, 0.05] {
            let m = TailConstants::ONE_ONE.counters_for_residual_estimate(k, eps);
            for one_sided in [true, false] {
                let observed = if one_sided {
                    residual_of(SpaceSaving::new(m), &stream, k)
                } else {
                    residual_of(Frequent::new(m), &stream, k)
                } as f64;
                let truth = freqs.res1(k) as f64;
                assert!(
                    observed >= (1.0 - eps) * truth - 1e-9
                        && observed <= (1.0 + eps) * truth + 1e-9,
                    "k={k} eps={eps} one_sided={one_sided}: {observed} vs {truth}"
                );
            }
        }
    }
}

#[test]
fn theorem7_msparse_for_underestimating_summaries() {
    let stream = zipf_stream(1.1, 4);
    let oracle = ExactCounter::from_stream(&stream);
    let freqs = oracle.freqs();
    let k = 10;
    for &eps in &[0.5, 0.1] {
        let m = TailConstants::ONE_ONE.counters_for_residual_estimate(k, eps);
        // FREQUENT natively underestimates
        let mut fr = Frequent::new(m);
        let mut ss = SpaceSaving::new(m);
        for &x in &stream {
            fr.update(x);
            ss.update(x);
        }
        let frv = m_sparse(&fr);
        let under = UnderestimatedSpaceSaving::new(&ss, Correction::GlobalMin);
        let mut ssv = under.entries();
        ssv.retain(|&(_, c)| c > 0);
        for (name, rec) in [("frequent", &frv), ("ss-underest", &ssv)] {
            for p in [1.0, 2.0] {
                let err = lp_recovery_error(rec, &oracle, p);
                let bound = msparse_recovery_bound(eps, k, p, freqs.res1(k));
                assert!(
                    err <= bound + 1e-9,
                    "{name} eps={eps} p={p}: {err} > {bound}"
                );
            }
        }
    }
}

#[test]
fn recovered_norm_never_exceeds_stream_length_for_one_sided() {
    let stream = zipf_stream(1.3, 5);
    let mut ss = SpaceSaving::new(50);
    let mut fr = Frequent::new(50);
    for &x in &stream {
        ss.update(x);
        fr.update(x);
    }
    assert!(
        l1_norm(&m_sparse(&ss)) == ss.stream_len(),
        "SS counters sum to F1"
    );
    assert!(
        l1_norm(&m_sparse(&fr)) <= fr.stream_len(),
        "Frequent never overcounts"
    );
}

#[test]
fn k_sparse_of_sketch_heavy_hitters_also_works() {
    // Sketch candidates can feed the same recovery machinery (no bound
    // guarantee claimed — just that the plumbing composes).
    use hh::analysis::Algo;
    let stream = zipf_stream(1.4, 6);
    let oracle = ExactCounter::from_stream(&stream);
    let est = hh::analysis::run(Algo::CountMinCU, 512, 1, &stream);
    let rec = k_sparse(est.as_ref(), 10);
    assert_eq!(rec.len(), 10);
    let err = lp_recovery_error(&rec, &oracle, 1.0);
    // crude sanity: better than recovering nothing
    assert!(err < oracle.total() as f64);
}
