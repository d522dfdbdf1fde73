//! **Theorem 10** — FREQUENT / SPACESAVING on weighted streams.
//!
//! Feeds a synthetic packet trace (Zipfian flow popularity, LogNormal
//! packet sizes in whole bytes — the substitution for the network traces
//! the paper's motivation refers to) to both algorithms through
//! `update_by` and checks the `A = B = 1` k-tail guarantee over the
//! *weight* vector: `|f_i − c_i| ≤ F1^res(k)/(m−k)` for every item and a
//! sweep of `k`. Byte counts are whole units, so the sums are exact.

use hh_analysis::{fnum, fok, Table};
use hh_counters::{FrequencyEstimator, Frequent, SpaceSaving, TailConstants};
use hh_streamgen::{ExactCounter, WeightedStream};

use crate::report::{Report, Scale};

fn max_weighted_error<E: FrequencyEstimator<u64>>(est: &E, oracle: &ExactCounter<u64>) -> u64 {
    oracle
        .iter()
        .map(|(item, w)| w.abs_diff(est.estimate(item)))
        .max()
        .unwrap_or(0)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let n_flows = scale.pick(500, 5_000);
    let len = scale.pick(10_000, 200_000);
    let m = scale.pick(48usize, 128);
    let ks = [0usize, 4, 16, 32];

    let trace = WeightedStream::packet_trace(n_flows, len, 1.1, 6.0, 1.5, 77);
    let mut oracle = ExactCounter::new();
    let mut ss = SpaceSaving::new(m);
    let mut fr = Frequent::new(m);
    for &(item, w) in &trace.updates {
        oracle.update_by(item, w);
        ss.update_by(item, w);
        fr.update_by(item, w);
    }
    let freqs = oracle.freqs();

    let mut table = Table::new(
        format!(
            "Theorem 10: weighted tail guarantee, packet trace ({n_flows} flows, {len} packets, LogNormal sizes), m={m}"
        ),
        &["algorithm", "k", "F1res(k)", "bound", "max err", "err/bound", "ok"],
    );
    let mut all_ok = true;

    for &k in &ks {
        let res = freqs.res1(k);
        let Some(bound) = TailConstants::ONE_ONE.bound(m, k, res) else {
            continue;
        };
        for (name, err) in [
            ("SpaceSaving", max_weighted_error(&ss, &oracle)),
            ("Frequent", max_weighted_error(&fr, &oracle)),
        ] {
            let ok = err as f64 <= bound;
            all_ok &= ok;
            table.row(vec![
                name.to_string(),
                k.to_string(),
                fnum(res as f64),
                fnum(bound),
                fnum(err as f64),
                fnum(if bound > 0.0 { err as f64 / bound } else { 0.0 }),
                fok(ok),
            ]);
        }
    }

    Report {
        id: "exp_weighted",
        verdict: if all_ok {
            "A=B=1 tail guarantee holds on weighted streams for both algorithms".into()
        } else {
            "WEIGHTED TAIL VIOLATION — see table".into()
        },
        ok: all_ok,
        tables: vec![table],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_ok() {
        let r = run(Scale::Quick);
        assert!(r.ok, "{}", r.render());
    }
}
