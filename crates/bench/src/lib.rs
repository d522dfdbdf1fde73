//! Experiment library reproducing every table, figure and theorem of
//! *Space-optimal Heavy Hitters with Strong Error Bounds* (PODS 2009).
//!
//! Each module under [`exp`] is one experiment, registered under an id
//! in [`registry`]. `run_all` executes the full suite and prints every
//! table (this is what EXPERIMENTS.md records); `run_all --only <id>`
//! runs one experiment.
//!
//! The paper is a theory paper: its evaluation artifacts are Table 1
//! (algorithm bounds summary), Figure 1 (pseudocode) and eleven theorems.
//! The experiments measure the quantity each bound constrains and print
//! observed-vs-bound tables; see DESIGN.md for the complete index.

#![deny(unsafe_code)]

pub mod exp;
pub mod report;

pub use report::{Report, Scale};

/// One registry entry: `(id, description, runner)`.
pub type Experiment = (&'static str, &'static str, fn(Scale) -> Report);

/// The experiment registry.
///
/// `run_all` and the test suite iterate this; adding an experiment means
/// adding a module and one line here.
pub fn registry() -> Vec<Experiment> {
    vec![
        (
            "table1",
            "Table 1: empirical error vs paper bounds, all algorithms",
            exp::table1::run as fn(Scale) -> Report,
        ),
        (
            "fig1_conformance",
            "Figure 1: optimized vs pseudocode state conformance",
            exp::fig1_conformance::run,
        ),
        (
            "exp_tail",
            "Thm 2 + App B/C: k-tail guarantee sweep",
            exp::tail::run,
        ),
        (
            "exp_sparse_recovery",
            "Thm 5: k-sparse recovery Lp error vs bound",
            exp::sparse_recovery::run,
        ),
        (
            "exp_residual_estimation",
            "Thm 6: F1^res(k) estimation within (1±eps)",
            exp::residual_estimation::run,
        ),
        (
            "exp_msparse",
            "Thm 7: m-sparse recovery with underestimating summaries",
            exp::msparse::run,
        ),
        (
            "exp_zipf",
            "Thm 8: Zipf error <= eps*F1 with (A+B)(1/eps)^(1/alpha) counters",
            exp::zipf::run,
        ),
        (
            "exp_topk",
            "Thm 9: Zipf top-k in correct order",
            exp::topk::run,
        ),
        (
            "exp_weighted",
            "Thm 10: weighted-stream tail guarantees",
            exp::weighted::run,
        ),
        (
            "exp_merge",
            "Thm 11: merged summaries keep a (3A, A+B) tail guarantee",
            exp::merge::run,
        ),
        (
            "exp_lower_bound",
            "Thm 13 / App A: adversarial lower-bound construction",
            exp::lower_bound::run,
        ),
        (
            "exp_htc",
            "Thm 1 / Defs 3-4: heavy tolerance, exhaustive small streams",
            exp::htc::run,
        ),
        (
            "exp_counter_vs_sketch",
            "Sec 1 motivation: counters vs sketches at equal space",
            exp::counter_vs_sketch::run,
        ),
        (
            "exp_lossy_adversarial",
            "Sec 1.1: LossyCounting space blow-up on adversarial orderings",
            exp::lossy_adversarial::run,
        ),
        (
            "exp_space_optimality",
            "Title claim: error tracks the Theta(F1res(k)/m) optimal curve",
            exp::space_optimality::run,
        ),
        (
            "exp_drift",
            "Extension: guarantees under popularity drift and flash crowds",
            exp::drift::run,
        ),
    ]
}
