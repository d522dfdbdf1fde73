//! The repo must lint clean: `cargo xtask lint` gating CI is only
//! honest if the tree at HEAD has zero findings and no dead waivers.

use xtask::engine::{lint_repo, repo_root};

#[test]
fn live_repo_lints_clean() {
    let report = lint_repo(&repo_root()).expect("walk repo");
    assert!(
        report.diagnostics.is_empty(),
        "repo has lint findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n\n")
    );
    // Coverage sanity: a walk that silently skipped the tree would
    // report clean vacuously. Floors track the tree at the time each
    // rule landed; bump them when the tree legitimately grows.
    assert!(
        report.files > 130,
        "suspiciously few files linted: {}",
        report.files
    );
    assert!(report.manifests >= 5, "vendor manifests not checked");
    assert!(
        report.artifacts >= 2,
        "drift artifacts not loaded: {} (PROTOCOL.md + ci.yml)",
        report.artifacts
    );
    assert!(
        report.waivers_honored >= 30,
        "waiver accounting broken: {} honored",
        report.waivers_honored
    );
}
