//! `artifact-drift`: cross-artifact consistency checks. Not waivable —
//! a drifted contract is fixed by updating the artifact, not by
//! annotating the code.
//!
//! Two contracts are enforced (scope rationale in docs/ANALYSIS.md):
//!
//! 1. **Protocol records ↔ docs/PROTOCOL.md.** `hh-net/src/proto.rs`
//!    is the single NDJSON emitter; every `"field":` name it renders
//!    must be documented, every documented field must be emitted, the
//!    version literal must interpolate `PROTOCOL_VERSION` (never a
//!    hardcoded number), and the doc's `"v": N` mentions must match
//!    the constant. Record-shaped literals (`{"v":…`) anywhere else in
//!    library/binary non-test code are emitter drift.
//! 2. **CI.** The workflow must run `xtask lint` itself and, when the
//!    bench regression gate exists, the gate.

use crate::engine::{Artifacts, FileAnalysis};
use crate::lexer::TokenKind;
use crate::rules::Diagnostic;
use crate::scope::Scope;

/// The single sanctioned NDJSON record emitter.
pub const PROTO_PATH: &str = "crates/hh-net/src/proto.rs";
/// The bench regression gate CI must run.
pub const GATE_PATH: &str = "crates/bench/src/bin/bench_regression_check.rs";
/// Where the record shapes are documented.
pub const DOC_PATH: &str = "docs/PROTOCOL.md";
/// The CI workflow that must run the gates.
pub const CI_PATH: &str = ".github/workflows/ci.yml";

/// A field name occurrence: `(name, line)`.
type Field = (String, u32);

/// Runs every artifact-drift check over the analyzed file set.
pub fn check(fas: &[FileAnalysis], artifacts: &Artifacts, out: &mut Vec<Diagnostic>) {
    let proto = fas.iter().find(|fa| fa.path == PROTO_PATH);
    if let Some(proto) = proto {
        check_protocol(proto, artifacts, out);
    }
    check_confinement(fas, out);
    check_ci(fas, artifacts, out);
}

fn diag(out: &mut Vec<Diagnostic>, path: &str, line: u32, col: u32, message: String) {
    out.push(Diagnostic {
        rule: "artifact-drift",
        message,
        path: path.to_string(),
        line,
        col,
    });
}

/// Unescapes the `\"` sequences of a string-literal token so field
/// patterns read the same in plain and raw literals.
fn unescaped(text: &str) -> String {
    text.replace("\\\"", "\"")
}

/// Extracts `"name":` field occurrences from one piece of text
/// (`name` must be ident-shaped: the value strings inside records
/// never match).
fn fields_in(text: &str, line_of: impl Fn(usize) -> u32, out: &mut Vec<Field>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        if j > start
            && j < bytes.len()
            && bytes[j] == b'"'
            && bytes.get(j + 1).is_some_and(|&b| b == b':')
            && !bytes[start].is_ascii_digit()
        {
            out.push((text[start..j].to_string(), line_of(i)));
            i = j + 2;
        } else {
            i += 1;
        }
    }
}

/// String-literal tokens of a file outside its test regions.
fn production_literals(fa: &FileAnalysis) -> impl Iterator<Item = &crate::lexer::Token> {
    fa.tokens.iter().filter(|t| {
        t.kind == TokenKind::Literal
            && t.text.contains('"')
            && !fa
                .test_regions
                .iter()
                .any(|&(a, b)| a <= t.line && t.line <= b)
    })
}

/// Contract 1: proto.rs ↔ PROTOCOL.md.
fn check_protocol(proto: &FileAnalysis, artifacts: &Artifacts, out: &mut Vec<Diagnostic>) {
    // The version constant the records must interpolate.
    let version = parse_protocol_version(proto);
    if version.is_none() {
        diag(
            out,
            PROTO_PATH,
            1,
            1,
            "cannot find `PROTOCOL_VERSION: u64 = <n>` — the drift check needs the \
             version constant to validate docs/PROTOCOL.md against"
                .to_string(),
        );
    }

    // Emitted fields + version-literal hygiene.
    let mut emitted: Vec<Field> = Vec::new();
    for t in production_literals(proto) {
        let text = unescaped(&t.text);
        fields_in(&text, |_| t.line, &mut emitted);
        // Every `"v":` in a record literal must interpolate the
        // constant, not hardcode a number.
        let mut from = 0;
        while let Some(pos) = text[from..].find("\"v\":") {
            let after = &text[from + pos + 4..];
            if !after.starts_with("{PROTOCOL_VERSION}") {
                diag(
                    out,
                    PROTO_PATH,
                    t.line,
                    t.col,
                    "record literal hardcodes its `\"v\":` value — interpolate \
                     `{PROTOCOL_VERSION}` so a version bump cannot miss a record"
                        .to_string(),
                );
            }
            from += pos + 4;
        }
    }

    let Some((doc_path, doc)) = &artifacts.protocol_md else {
        diag(
            out,
            PROTO_PATH,
            1,
            1,
            format!("`{DOC_PATH}` is missing — the record shapes emitted here must be documented"),
        );
        return;
    };

    // Documented fields, with the line each first appears on.
    let mut documented: Vec<Field> = Vec::new();
    for (ln, line) in doc.lines().enumerate() {
        fields_in(line, |_| (ln + 1) as u32, &mut documented);
    }

    // Emitted but undocumented (first occurrence per name).
    let mut seen = std::collections::BTreeSet::new();
    for (name, line) in &emitted {
        if !seen.insert(name.clone()) {
            continue;
        }
        if !documented.iter().any(|(d, _)| d == name) {
            diag(
                out,
                PROTO_PATH,
                *line,
                1,
                format!(
                    "record field `\"{name}\"` is emitted here but not documented in \
                     {doc_path} — document it (additive fields keep the version)"
                ),
            );
        }
    }
    // Documented but never emitted.
    let mut seen = std::collections::BTreeSet::new();
    for (name, line) in &documented {
        if !seen.insert(name.clone()) {
            continue;
        }
        if !emitted.iter().any(|(e, _)| e == name) {
            diag(
                out,
                doc_path,
                *line,
                1,
                format!(
                    "{doc_path} documents record field `\"{name}\"` but no record \
                     emitter in {PROTO_PATH} produces it — fix whichever side drifted"
                ),
            );
        }
    }

    // The doc's version mentions must match the constant.
    if let Some(v) = version {
        for (ln, line) in doc.lines().enumerate() {
            let mut from = 0;
            while let Some(pos) = line[from..].find("\"v\":") {
                let after = line[from + pos + 4..].trim_start();
                let digits: String = after.chars().take_while(|c| c.is_ascii_digit()).collect();
                if let Ok(doc_v) = digits.parse::<u64>() {
                    if doc_v != v {
                        diag(
                            out,
                            doc_path,
                            (ln + 1) as u32,
                            1,
                            format!(
                                "documented protocol version {doc_v} != PROTOCOL_VERSION {v} \
                                 in {PROTO_PATH}"
                            ),
                        );
                    }
                }
                from += pos + 4;
            }
        }
    }
}

/// Reads `PROTOCOL_VERSION: u64 = <n>` from the token stream.
fn parse_protocol_version(proto: &FileAnalysis) -> Option<u64> {
    let tok = |i: usize| &proto.tokens[proto.code[i]];
    for i in 0..proto.code.len().saturating_sub(4) {
        if tok(i).is_ident("PROTOCOL_VERSION")
            && tok(i + 1).is_punct(":")
            && tok(i + 2).is_ident("u64")
            && tok(i + 3).is_punct("=")
        {
            return tok(i + 4).text.replace('_', "").parse().ok();
        }
    }
    None
}

/// Contract 1b: record-shaped literals stay confined to proto.rs.
fn check_confinement(fas: &[FileAnalysis], out: &mut Vec<Diagnostic>) {
    for fa in fas {
        if fa.path == PROTO_PATH || !matches!(fa.scope, Scope::Library | Scope::Binary) {
            continue;
        }
        for t in production_literals(fa) {
            if unescaped(&t.text).contains("{\"v\":") {
                diag(
                    out,
                    &fa.path,
                    t.line,
                    t.col,
                    format!(
                        "NDJSON record literal outside `{PROTO_PATH}` — all record \
                         shapes are rendered by the proto module so they cannot drift"
                    ),
                );
            }
        }
    }
}

/// Contract 2: CI runs the gates.
fn check_ci(fas: &[FileAnalysis], artifacts: &Artifacts, out: &mut Vec<Diagnostic>) {
    let has = |path: &str| fas.iter().any(|fa| fa.path == path);
    let have_gate = has(GATE_PATH);
    let Some((ci_path, ci)) = &artifacts.ci_yml else {
        if have_gate || has(PROTO_PATH) {
            diag(
                out,
                CI_PATH,
                1,
                1,
                format!("`{CI_PATH}` is missing — the bench gate and lint must run in CI"),
            );
        }
        return;
    };
    if have_gate && !ci.contains("bench_regression_check") {
        diag(
            out,
            ci_path,
            1,
            1,
            "CI workflow never runs `bench_regression_check` — the paired \
             regression gates guard nothing without it"
                .to_string(),
        );
    }
    if !ci.contains("xtask lint") && !ci.contains("cargo lint") {
        diag(
            out,
            ci_path,
            1,
            1,
            "CI workflow never runs `cargo xtask lint` — the static analysis \
             gate must be wired into CI"
                .to_string(),
        );
    }
}
