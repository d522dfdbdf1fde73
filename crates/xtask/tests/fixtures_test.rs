//! Fixture corpus for the lint engine.
//!
//! Each rule directory under `tests/fixtures/` holds a *good* case that
//! must lint clean and a *bad* case whose diagnostics must match
//! `bad.expected` byte-for-byte. A case is either a single file
//! (`good.rs` / `bad.rs`) or a directory (`good/` / `bad/`) for the
//! interprocedural and cross-artifact rules: every `.rs` member is
//! linted as one unit and artifact members (`PROTOCOL.md`, `ci.yml`)
//! are loaded under their canonical repo paths.
//!
//! Every fixture source's first line is a `//@ path: <pretend-repo-path>`
//! directive: the engine lints the source *as if* it lived at that
//! path, which is how one corpus exercises scope- and path-sensitive
//! rules (the fixtures' real location is excluded from repo sweeps by
//! `scope::classify`).
//!
//! Regenerate the `.expected` files after an intentional message
//! change with `BLESS=1 cargo test -p xtask --test fixtures_test`.

use std::fs;
use std::path::{Path, PathBuf};

use xtask::engine::{lint_files, lint_source, repo_root, Artifacts};
use xtask::manifest::check_vendor_manifest;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

/// Reads a fixture and splits off its `//@ path:` directive.
fn load(path: &Path) -> (String, String) {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let first = src.lines().next().unwrap_or("");
    let pretend = first
        .strip_prefix("//@ path:")
        .unwrap_or_else(|| panic!("{}: first line must be `//@ path: …`", path.display()))
        .trim()
        .to_string();
    // Keep the directive line in place (as a plain comment) so fixture
    // line numbers match what a reader sees in the file.
    (pretend, src)
}

/// Loads one case: `<which>.rs` as a single source, or the `<which>/`
/// directory as a multi-file unit with artifacts.
fn load_case(dir: &Path, which: &str) -> (Vec<(String, String)>, Artifacts) {
    let single = dir.join(format!("{which}.rs"));
    if single.is_file() {
        let (pretend, src) = load(&single);
        return (vec![(pretend, src)], Artifacts::none());
    }
    let sub = dir.join(which);
    let mut entries: Vec<PathBuf> = fs::read_dir(&sub)
        .unwrap_or_else(|e| panic!("read {}: {e}", sub.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    let mut files = Vec::new();
    let mut artifacts = Artifacts::none();
    for p in entries {
        let name = p
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        let read =
            || fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
        if name.ends_with(".rs") {
            let (pretend, src) = load(&p);
            files.push((pretend, src));
        } else if name == "PROTOCOL.md" {
            artifacts.protocol_md = Some(("docs/PROTOCOL.md".to_string(), read()));
        } else if name == "ci.yml" {
            artifacts.ci_yml = Some((".github/workflows/ci.yml".to_string(), read()));
        }
    }
    (files, artifacts)
}

fn render_all(diags: &[xtask::rules::Diagnostic]) -> String {
    let mut sorted = diags.to_vec();
    sorted.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    let mut out = sorted
        .iter()
        .map(|d| d.render())
        .collect::<Vec<_>>()
        .join("\n\n");
    out.push('\n');
    out
}

const RULE_DIRS: &[&str] = &[
    "unsafe-confinement",
    "panic-freedom",
    "panic-reachability",
    "hot-path-alloc",
    "error-swallow",
    "atomic-ordering",
    "spawn-confinement",
    "lossy-cast",
    "vendor-drift",
    "artifact-drift",
    "waivers",
];

/// Every rule the engine can emit must fire on at least one bad
/// fixture — the coverage floor that keeps the corpus honest.
const ALL_RULES: &[&str] = &[
    "unsafe-confinement",
    "panic-freedom",
    "panic-reachability",
    "hot-path-alloc",
    "error-swallow",
    "atomic-ordering",
    "spawn-confinement",
    "lossy-cast",
    "vendor-drift",
    "artifact-drift",
    "waiver-syntax",
    "unused-waiver",
];

#[test]
fn good_fixtures_lint_clean() {
    for dir in RULE_DIRS {
        let (files, artifacts) = load_case(&fixtures_dir().join(dir), "good");
        let report = lint_files(&files, &artifacts);
        assert!(
            report.diagnostics.is_empty(),
            "{dir}/good should be clean, got:\n{}",
            render_all(&report.diagnostics)
        );
    }
}

#[test]
fn bad_fixtures_match_expected_diagnostics() {
    for dir in RULE_DIRS {
        let dir_path = fixtures_dir().join(dir);
        let (files, artifacts) = load_case(&dir_path, "bad");
        let report = lint_files(&files, &artifacts);
        assert!(
            !report.diagnostics.is_empty(),
            "{dir}/bad produced no diagnostics"
        );
        let actual = render_all(&report.diagnostics);
        let expected_path = dir_path.join("bad.expected");
        if std::env::var_os("BLESS").is_some() {
            fs::write(&expected_path, &actual)
                .unwrap_or_else(|e| panic!("bless {}: {e}", expected_path.display()));
        }
        let expected = fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", expected_path.display()));
        assert_eq!(
            actual, expected,
            "{dir}/bad diagnostics drifted from bad.expected"
        );
    }
}

#[test]
fn every_rule_fires_on_at_least_one_bad_fixture() {
    let mut fired = std::collections::BTreeSet::new();
    for dir in RULE_DIRS {
        let (files, artifacts) = load_case(&fixtures_dir().join(dir), "bad");
        for d in lint_files(&files, &artifacts).diagnostics {
            fired.insert(d.rule);
        }
    }
    for rule in ALL_RULES {
        assert!(
            fired.contains(rule),
            "no bad fixture exercises `{rule}` — the corpus lost coverage"
        );
    }
}

#[test]
fn good_fixtures_honor_their_waivers() {
    // The waived `expect` in waivers/good.rs must register as a *used*
    // waiver — clean output via an unused waiver would be a bug twice.
    let (pretend, src) = load(&fixtures_dir().join("waivers").join("good.rs"));
    let (diags, honored) = lint_source(&pretend, &src);
    assert!(diags.is_empty());
    assert_eq!(honored, 1);
}

#[test]
fn bad_vendor_manifest_is_flagged() {
    let path = fixtures_dir()
        .join("vendor-drift")
        .join("bad_manifest.toml");
    let src = fs::read_to_string(&path).unwrap();
    let vendored: Vec<String> = vec!["rand".into(), "serde".into()];
    let mut diags = Vec::new();
    check_vendor_manifest("vendor/rand/Cargo.toml", &src, &vendored, &mut diags);
    let expected_path = fixtures_dir()
        .join("vendor-drift")
        .join("bad_manifest.expected");
    let expected = fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", expected_path.display()));
    assert_eq!(
        render_all(&diags),
        expected,
        "bad_manifest.toml diagnostics drifted from bad_manifest.expected"
    );
}

#[test]
fn fixture_corpus_is_invisible_to_repo_sweeps() {
    // The bad fixtures live inside the repo; a full-tree lint must not
    // pick them up (classify() maps the fixture dir to no scope).
    let rel = "crates/xtask/tests/fixtures/panic-freedom/bad.rs";
    let src = fs::read_to_string(repo_root().join(rel)).unwrap();
    let (diags, _) = lint_source(rel, &src);
    assert!(diags.is_empty());
}

#[test]
fn drift_fixture_catches_single_field_rename_and_missing_gate() {
    // The acceptance property of the drift rule, asserted directly:
    // starting from the *clean* fixture set, renaming one documented
    // field or dropping the bench gate from CI must surface findings.
    let dir = fixtures_dir().join("artifact-drift");
    let (files, artifacts) = load_case(&dir, "good");
    assert!(lint_files(&files, &artifacts).diagnostics.is_empty());

    // Rename a documented field out from under the emitter.
    let mut renamed = artifacts_clone(&artifacts);
    if let Some((_, doc)) = &mut renamed.protocol_md {
        *doc = doc.replace("\"count\":", "\"n\":");
    }
    let report = lint_files(&files, &renamed);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "artifact-drift"),
        "field rename in PROTOCOL.md went unnoticed"
    );

    // Drop the bench gate from the CI workflow.
    let mut ungated = artifacts_clone(&artifacts);
    if let Some((_, ci)) = &mut ungated.ci_yml {
        *ci = ci.replace("bench_regression_check", "run_all");
    }
    let report = lint_files(&files, &ungated);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "artifact-drift"),
        "bench gate missing from CI went unnoticed"
    );
}

/// `Artifacts` is deliberately plain data; clone it by hand here so the
/// library does not need to expose `Clone` for one test.
fn artifacts_clone(a: &Artifacts) -> Artifacts {
    let mut out = Artifacts::none();
    out.protocol_md = a.protocol_md.clone();
    out.ci_yml = a.ci_yml.clone();
    out
}
