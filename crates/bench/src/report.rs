//! Experiment output container.

use hh_analysis::Table;

/// How large a workload the experiment should use.
///
/// `Quick` keeps every experiment under ~a second in debug builds (used by
/// the test suite and `--quick`); `Full` is the scale recorded in
/// EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small workloads for smoke-testing.
    Quick,
    /// The full workloads recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Parses process args: `--quick` (or its CI alias `--smoke`) selects
    /// [`Scale::Quick`].
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick" || a == "--smoke") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Picks between two values by scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One experiment's rendered output: a headline verdict plus its tables.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (its key in [`crate::registry`]).
    pub id: &'static str,
    /// One-line verdict, e.g. "all 24 configurations within bound".
    pub verdict: String,
    /// Whether every checked property held.
    pub ok: bool,
    /// The result tables.
    pub tables: Vec<Table>,
}

impl Report {
    /// Renders the whole report as text.
    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n\n", self.id, self.verdict);
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// Renders as markdown (for EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {}\n\n**Verdict:** {}\n\n", self.id, self.verdict);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        out
    }
}
