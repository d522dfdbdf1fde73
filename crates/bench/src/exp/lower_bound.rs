//! **Theorem 13 / Appendix A** — the space lower bound.
//!
//! The adversarial two-stream construction: a prefix of `m+k` items with
//! `x` occurrences each, after which the adversary inspects the summary,
//! finds `k` items the algorithm retains no (or least) information about,
//! and continues stream A with those items and stream B with `k` fresh
//! ones. The algorithm's estimates for the continuations agree, but the
//! true frequencies differ by `x` — so the worse of the two streams incurs
//! error `≥ F1^res(k)/(2m + 2k/x)`, for *any* deterministic counter
//! algorithm. We execute the attack against both of ours and report the
//! error actually forced.

use hh_analysis::{fnum, fok, Algo, Table};
use hh_streamgen::adversarial::LowerBoundInstance;
use hh_streamgen::{ExactCounter, Item};

use crate::report::{Report, Scale};

/// Executes the Appendix A attack against `algo`; returns
/// `(forced_bound, observed_worst_error)`.
fn attack(algo: Algo, m: usize, k: usize, x: u64) -> (f64, f64) {
    let inst = LowerBoundInstance::new(m, k, x);
    let prefix = inst.prefix();

    // Adversary step: run on the prefix, pick the k prefix items with the
    // smallest estimates (ties by id) — the "forgotten" ones.
    let probe = hh_analysis::run(algo, m, 0, &prefix);
    let mut prefix_items: Vec<(u64, Item)> = (1..=(m + k) as u64)
        .map(|i| (probe.estimate(&i), i))
        .collect();
    prefix_items.sort_unstable();
    let forgotten: Vec<Item> = prefix_items.iter().take(k).map(|&(_, i)| i).collect();

    // Stream A: prefix + forgotten items; stream B: prefix + fresh items.
    let mut stream_a = prefix.clone();
    stream_a.extend(inst.continuation_a(&forgotten));
    let mut stream_b = prefix;
    stream_b.extend(inst.continuation_b());

    let worst = [stream_a, stream_b]
        .iter()
        .map(|s| {
            let oracle = ExactCounter::from_stream(s);
            let est = hh_analysis::run(algo, m, 0, s);
            oracle
                .iter()
                .map(|(i, f)| f.abs_diff(est.estimate(i)))
                .max()
                .unwrap_or(0) as f64
        })
        .fold(0.0f64, f64::max);

    (inst.forced_error(), worst)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let x = scale.pick(50u64, 500);
    let configs = [(8usize, 1usize), (8, 2), (32, 4), (32, 8), (64, 16)];

    let mut table = Table::new(
        format!("Theorem 13: adversarial lower bound, prefix multiplicity x={x}"),
        &[
            "algorithm",
            "m",
            "k",
            "forced bound",
            "observed worst err",
            "observed >= bound",
        ],
    );
    let mut all_ok = true;

    for algo in [Algo::Frequent, Algo::SpaceSaving] {
        for &(m, k) in &configs {
            let (bound, observed) = attack(algo, m, k, x);
            // The theorem says SOME stream forces error >= bound; our attack
            // realizes it, so the observation must meet the bound (up to the
            // floor in the error definition).
            let ok = observed + 1.0 >= bound;
            all_ok &= ok;
            table.row(vec![
                algo.name().to_string(),
                m.to_string(),
                k.to_string(),
                fnum(bound),
                fnum(observed),
                fok(ok),
            ]);
        }
    }

    Report {
        id: "exp_lower_bound",
        verdict: if all_ok {
            "the Appendix A attack forces error >= F1res(k)/(2m+2k/x) on both algorithms".into()
        } else {
            "ATTACK FAILED TO FORCE THE BOUND — see table".into()
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
