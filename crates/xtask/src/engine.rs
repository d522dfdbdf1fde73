//! Orchestration: file discovery, the two-pass analysis pipeline
//! (intraprocedural rules per file, then the call-graph rules and
//! cross-artifact drift checks over the whole set), deterministic
//! diagnostic ordering.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, TokenKind};
use crate::manifest;
use crate::parser;
use crate::rules::{self, Diagnostic, FileCtx};
use crate::scope::{self, Scope};
use crate::waivers::{self, Waivers};
use crate::{callgraph, drift, rules_graph};

/// Result of linting a tree: diagnostics plus coverage counters for the
/// summary line (a lint run that silently skipped everything must not
/// read as "clean").
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (path, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files actually analyzed.
    pub files: usize,
    /// Number of vendor manifests checked.
    pub manifests: usize,
    /// Number of non-source artifacts (PROTOCOL.md, ci.yml)
    /// cross-checked by the drift rule.
    pub artifacts: usize,
    /// Number of honored (used) waivers across the tree.
    pub waivers_honored: usize,
}

/// Everything the analysis knows about one source file; the per-file
/// unit the call graph and interprocedural rules are built over.
pub struct FileAnalysis {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// File basename (`pipeline.rs`).
    pub basename: String,
    /// Scope from [`scope::classify`].
    pub scope: Scope,
    /// All tokens including comments.
    pub tokens: Vec<lexer::Token>,
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Line ranges covered by `#[test]` / `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Parsed waivers for this file.
    pub waivers: Waivers,
    /// Item-level parse: functions, bodies, call sites, `use` map.
    pub parsed: parser::ParsedFile,
}

/// The non-source artifacts the drift rule cross-checks against the
/// code. Each entry is `(repo-relative path, contents)`.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// `docs/PROTOCOL.md`, if present.
    pub protocol_md: Option<(String, String)>,
    /// `.github/workflows/ci.yml`, if present.
    pub ci_yml: Option<(String, String)>,
}

impl Artifacts {
    /// No artifacts — drift checks that need one degrade to
    /// missing-artifact findings only when the code side is present,
    /// so single-file runs (fixtures) stay quiet.
    pub fn none() -> Self {
        Self::default()
    }

    fn count(&self) -> usize {
        usize::from(self.protocol_md.is_some()) + usize::from(self.ci_yml.is_some())
    }
}

/// Lexes, region-marks and item-parses one source file. Files outside
/// every scope (the fixture corpus) return `None`.
pub fn analyze(rel_path: &str, src: &str) -> Option<FileAnalysis> {
    let file_scope = scope::classify(rel_path)?;
    let tokens = lexer::lex(src);
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokenKind::Comment)
        .map(|(i, _)| i)
        .collect();
    let test_regions = rules::test_regions(&tokens, &code);
    let waivers = waivers::collect(&tokens);
    let parsed = parser::parse(&tokens, &code, &test_regions);
    Some(FileAnalysis {
        path: rel_path.to_string(),
        basename: rel_path.rsplit('/').next().unwrap_or(rel_path).to_string(),
        scope: file_scope,
        tokens,
        code,
        test_regions,
        waivers,
        parsed,
    })
}

/// Lints a set of sources as one unit: intraprocedural rules per file,
/// then the call-graph rules (`panic-reachability`, `hot-path-alloc`)
/// and `artifact-drift` over the whole set, and finally the deferred
/// `unused-waiver` pass — deferred because the interprocedural rules
/// consume waivers too.
pub fn lint_files(files: &[(String, String)], artifacts: &Artifacts) -> LintReport {
    let mut report = LintReport::default();
    let fas: Vec<FileAnalysis> = files
        .iter()
        .filter_map(|(rel, src)| analyze(rel, src))
        .collect();
    report.files = fas.len();
    report.artifacts = artifacts.count();

    for fa in &fas {
        let ctx = FileCtx {
            path: &fa.path,
            basename: &fa.basename,
            scope: fa.scope,
            tokens: &fa.tokens,
            code: &fa.code,
            test_regions: &fa.test_regions,
            waivers: &fa.waivers,
        };
        rules::check_file(&ctx, &mut report.diagnostics);
        // Misplaced `lint:hot-path`/`lint:cold-path` annotations are
        // comment-grammar errors, same family as malformed waivers.
        for e in &fa.parsed.annotation_errors {
            report.diagnostics.push(Diagnostic {
                rule: "waiver-syntax",
                message: e.message.clone(),
                path: fa.path.clone(),
                line: e.line,
                col: e.col,
            });
        }
    }

    let graph = callgraph::build(&fas);
    rules_graph::panic_reachability(&fas, &graph, &mut report.diagnostics);
    rules_graph::hot_path_alloc(&fas, &graph, &mut report.diagnostics);
    drift::check(&fas, artifacts, &mut report.diagnostics);

    for fa in &fas {
        rules::unused_waiver_diags(&fa.path, &fa.waivers, &mut report.diagnostics);
        report.waivers_honored += fa.waivers.waivers.iter().filter(|w| w.used.get()).count();
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    report
}

/// Lints one source file in isolation (no cross-file call edges, no
/// artifacts). Files outside every scope yield no diagnostics. Returns
/// the findings and the number of honored waivers.
pub fn lint_source(rel_path: &str, src: &str) -> (Vec<Diagnostic>, usize) {
    let report = lint_files(
        &[(rel_path.to_string(), src.to_string())],
        &Artifacts::none(),
    );
    (report.diagnostics, report.waivers_honored)
}

/// Walks the repo and lints every `.rs` file under `crates/`, `vendor/`,
/// `tests/`, `examples/` as one unit, plus every `vendor/*/Cargo.toml`,
/// plus the drift artifacts (docs/PROTOCOL.md and the CI workflow).
pub fn lint_repo(root: &Path) -> std::io::Result<LintReport> {
    let vendor_crates = vendor_crate_names(root)?;

    let mut rs_files = Vec::new();
    for top in ["crates", "vendor", "tests", "examples"] {
        collect_rs(&root.join(top), &mut rs_files)?;
    }
    rs_files.sort();

    let mut files = Vec::new();
    for abs in rs_files {
        let rel = rel_path(root, &abs);
        if scope::classify(&rel).is_none() {
            continue;
        }
        files.push((rel, fs::read_to_string(&abs)?));
    }

    let artifacts = load_artifacts(root)?;
    let mut report = lint_files(&files, &artifacts);

    for name in &vendor_crates {
        let manifest_path = root.join("vendor").join(name).join("Cargo.toml");
        if manifest_path.is_file() {
            let src = fs::read_to_string(&manifest_path)?;
            let rel = rel_path(root, &manifest_path);
            manifest::check_vendor_manifest(&rel, &src, &vendor_crates, &mut report.diagnostics);
            report.manifests += 1;
        }
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(report)
}

/// Loads the drift artifacts from disk; absent files stay `None` so
/// the drift rule can report them against the code that needs them.
pub fn load_artifacts(root: &Path) -> std::io::Result<Artifacts> {
    let mut artifacts = Artifacts::none();
    let proto = root.join(drift::DOC_PATH);
    if proto.is_file() {
        artifacts.protocol_md = Some((drift::DOC_PATH.to_string(), fs::read_to_string(proto)?));
    }
    let ci = root.join(drift::CI_PATH);
    if ci.is_file() {
        artifacts.ci_yml = Some((drift::CI_PATH.to_string(), fs::read_to_string(ci)?));
    }
    Ok(artifacts)
}

/// Directory names under `vendor/` — the legal vendor dependency set.
pub fn vendor_crate_names(root: &Path) -> std::io::Result<Vec<String>> {
    let mut names = Vec::new();
    let vendor = root.join("vendor");
    if vendor.is_dir() {
        for entry in fs::read_dir(vendor)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
    }
    names.sort();
    Ok(names)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, abs: &Path) -> String {
    abs.strip_prefix(root)
        .unwrap_or(abs)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Locates the workspace root from the compiled-in manifest dir
/// (`crates/xtask` → two levels up).
pub fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}
