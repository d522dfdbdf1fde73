//! The rule framework and the intraprocedural rules (the
//! interprocedural ones live in [`crate::rules_graph`], the
//! cross-artifact ones in [`crate::drift`]).
//!
//! Every rule here matches against the token stream from
//! [`crate::lexer`] (never raw text) and reports [`Diagnostic`]s.
//! Rules come in two temperaments:
//!
//! - **Hard invariants** (`unsafe-confinement`, `vendor-drift`, and the
//!   `SeqCst` arm of `atomic-ordering`): not waivable. Moving `unsafe`
//!   out of `hh-net/src/sys.rs` is an engine change, i.e. a reviewed
//!   decision, not a comment.
//! - **Audits** (`panic-freedom`, `error-swallow`, the non-`SeqCst`
//!   arm of `atomic-ordering`, `spawn-confinement`, `lossy-cast`):
//!   waivable per site with `// lint:allow(<rule>) <justification>` —
//!   the point is that every exception carries its rationale in the
//!   source.
//!
//! Two meta-rules keep the waiver system honest: `waiver-syntax`
//! (malformed `lint:allow` comments) and `unused-waiver` (waivers that
//! no longer suppress anything).

use crate::lexer::Token;
use crate::scope::{self, Scope};
use crate::waivers::Waivers;

/// One finding, rendered as `error[rule]: message\n  --> path:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (`panic-freedom`, …).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Diagnostic {
    /// The two-line rustc-style rendering used by the CLI and fixtures.
    pub fn render(&self) -> String {
        format!(
            "error[{}]: {}\n  --> {}:{}:{}",
            self.rule, self.message, self.path, self.line, self.col
        )
    }
}

/// Memory orderings that demand a written rationale.
const AUDITED_ORDERINGS: &[&str] = &["Acquire", "Release", "AcqRel"];

/// Cast targets that cannot represent every `u64`/`usize` value.
/// (`usize`/`u64`/`i64` are excluded: the supported targets are 64-bit,
/// see docs/ANALYSIS.md.)
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Per-file lint context handed to each rule.
pub struct FileCtx<'a> {
    /// Repo-relative path with forward slashes.
    pub path: &'a str,
    /// File basename (`pipeline.rs`).
    pub basename: &'a str,
    /// Scope from [`scope::classify`].
    pub scope: Scope,
    /// All tokens including comments.
    pub tokens: &'a [Token],
    /// Indices into `tokens` of non-comment tokens, in order.
    pub code: &'a [usize],
    /// Line ranges covered by `#[test]` / `#[cfg(test)]` items.
    pub test_regions: &'a [(u32, u32)],
    /// Parsed waivers for this file.
    pub waivers: &'a Waivers,
}

impl FileCtx<'_> {
    fn tok(&self, code_idx: usize) -> &Token {
        &self.tokens[self.code[code_idx]]
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// True if a waiver for `rule` covers `line` (marks it used).
    fn waived(&self, rule: &str, line: u32) -> bool {
        self.waivers.consume(rule, line).is_some()
    }

    fn emit(&self, out: &mut Vec<Diagnostic>, rule: &'static str, tok: &Token, message: String) {
        out.push(Diagnostic {
            rule,
            message,
            path: self.path.to_string(),
            line: tok.line,
            col: tok.col,
        });
    }
}

/// Computes `#[test]`/`#[cfg(test)]` item line-ranges from the token
/// stream: the attribute plus the attributed item (to its closing `}` or
/// `;`). `#[cfg(all(test, …))]` counts; `#[cfg(miri)]` does not.
pub fn test_regions(tokens: &[Token], code: &[usize]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let at = |i: usize| -> &Token { &tokens[code[i]] };
    let mut i = 0;
    while i < code.len() {
        // Outer attribute start: `#` `[` (inner attrs `#![…]` skipped).
        if !(at(i).is_punct("#") && i + 1 < code.len() && at(i + 1).is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_start = i;
        // Find the matching `]`.
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < code.len() {
            if at(j).is_punct("[") {
                depth += 1;
            } else if at(j).is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if j >= code.len() {
            break;
        }
        let body: Vec<&Token> = (attr_start + 2..j).map(at).collect();
        let is_test_attr = match body.first() {
            Some(t) if t.is_ident("test") && body.len() == 1 => true,
            Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
            _ => false,
        };
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut k = j + 1;
        while k + 1 < code.len() && at(k).is_punct("#") && at(k + 1).is_punct("[") {
            let mut d = 0i32;
            let mut m = k + 1;
            while m < code.len() {
                if at(m).is_punct("[") {
                    d += 1;
                } else if at(m).is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            k = m + 1;
        }
        // The item ends at the first top-level `;`, or at the `}`
        // matching the first `{`.
        let mut paren = 0i32;
        let mut brace = 0i32;
        let mut end = k;
        while end < code.len() {
            let t = at(end);
            if t.is_punct("(") || t.is_punct("[") {
                paren += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                paren -= 1;
            } else if t.is_punct("{") {
                brace += 1;
            } else if t.is_punct("}") {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            } else if t.is_punct(";") && paren == 0 && brace == 0 {
                break;
            }
            end += 1;
        }
        let end_line = if end < code.len() {
            at(end).line
        } else {
            at(code.len() - 1).line
        };
        regions.push((at(attr_start).line, end_line));
        i = end + 1;
    }
    regions
}

/// Runs every applicable intraprocedural rule over one file. The
/// `unused-waiver` meta-rule is *not* run here — the engine defers it
/// until the interprocedural rules (which also consume waivers) have
/// run; see [`unused_waiver_diags`].
pub fn check_file(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    rule_unsafe_confinement(ctx, out);
    rule_panic_freedom(ctx, out);
    rule_error_swallow(ctx, out);
    rule_atomic_ordering(ctx, out);
    rule_spawn_confinement(ctx, out);
    rule_lossy_cast(ctx, out);
    rule_vendor_drift_source(ctx, out);
    waiver_syntax(ctx, out);
}

/// `unsafe` is confined to `hh-net/src/sys.rs`; every shipped crate root
/// carries `#![deny(unsafe_code)]`/`#![forbid(unsafe_code)]`. Vendor
/// sources are owned by `vendor-drift` instead. Not waivable.
fn rule_unsafe_confinement(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.scope == Scope::Vendor {
        return;
    }
    if ctx.path != scope::UNSAFE_CARVE_OUT {
        for i in 0..ctx.code.len() {
            let t = ctx.tok(i);
            if t.is_ident("unsafe") {
                ctx.emit(
                    out,
                    "unsafe-confinement",
                    t,
                    format!(
                        "`unsafe` outside `{}` — the FFI shim is the only unsafe module; \
                         this rule is not waivable",
                        scope::UNSAFE_CARVE_OUT
                    ),
                );
            }
        }
    }
    if scope::is_crate_root(ctx.path) {
        let is_hh_net = scope::crate_name(ctx.path) == Some("hh-net");
        match root_unsafe_attr(ctx) {
            Some(attr) if is_hh_net && attr == "forbid" => {
                let t = ctx.tok(0);
                ctx.emit(
                    out,
                    "unsafe-confinement",
                    t,
                    "`hh-net` must use `#![deny(unsafe_code)]` (not `forbid`) so the \
                     `sys.rs` carve-out can `#![allow(unsafe_code)]`"
                        .to_string(),
                );
            }
            Some(_) => {}
            None => {
                if let Some(t) = ctx.code.first().map(|&i| &ctx.tokens[i]) {
                    ctx.emit(
                        out,
                        "unsafe-confinement",
                        t,
                        "crate root is missing `#![deny(unsafe_code)]` (or `forbid`)".to_string(),
                    );
                }
            }
        }
    }
}

/// Finds `#![deny(unsafe_code)]` / `#![forbid(unsafe_code)]` among the
/// file's inner attributes; returns "deny"/"forbid".
fn root_unsafe_attr(ctx: &FileCtx<'_>) -> Option<&'static str> {
    for i in 0..ctx.code.len().saturating_sub(6) {
        if ctx.tok(i).is_punct("#")
            && ctx.tok(i + 1).is_punct("!")
            && ctx.tok(i + 2).is_punct("[")
            && ctx.tok(i + 4).is_punct("(")
            && ctx.tok(i + 5).is_ident("unsafe_code")
            && ctx.tok(i + 6).is_punct(")")
        {
            if ctx.tok(i + 3).is_ident("deny") {
                return Some("deny");
            }
            if ctx.tok(i + 3).is_ident("forbid") {
                return Some("forbid");
            }
        }
    }
    None
}

/// `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` are banned in
/// library-crate non-test code. Waivable for provably-unreachable sites.
fn rule_panic_freedom(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.scope != Scope::Library {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.tok(i);
        if ctx.in_test(t.line) {
            continue;
        }
        let finding = if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && ctx.tok(i - 1).is_punct(".")
            && i + 1 < ctx.code.len()
            && ctx.tok(i + 1).is_punct("(")
        {
            Some(format!("`.{}()` in library code", t.text))
        } else if (t.is_ident("panic") || t.is_ident("todo") || t.is_ident("unimplemented"))
            && i + 1 < ctx.code.len()
            && ctx.tok(i + 1).is_punct("!")
        {
            Some(format!("`{}!` in library code", t.text))
        } else {
            None
        };
        if let Some(what) = finding {
            if ctx.waived("panic-freedom", t.line) {
                continue;
            }
            ctx.emit(
                out,
                "panic-freedom",
                t,
                format!(
                    "{what} — return `hh::Error` instead, or waive a provably-unreachable site"
                ),
            );
        }
    }
}

/// A discarded `Result` in library non-test code hides a failure the
/// caller was owed: `let _ = fallible();` and a terminal `.ok();` both
/// need a waiver saying why ignoring the error is sound. Two shapes are
/// exempt by design: `let _ = <no call>;` (a value discard, nothing
/// fallible) and `let _ = write!(buf, …)` / `writeln!` (the repo's
/// fmt-to-`String` idiom, infallible by construction).
fn rule_error_swallow(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.scope != Scope::Library {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.tok(i);
        if ctx.in_test(t.line) {
            continue;
        }
        if t.is_ident("let")
            && i + 2 < ctx.code.len()
            && ctx.tok(i + 1).is_ident("_")
            && ctx.tok(i + 2).is_punct("=")
        {
            // `let _ = write!(…)` / `writeln!(…)` is the fmt idiom.
            if i + 4 < ctx.code.len()
                && (ctx.tok(i + 3).is_ident("write") || ctx.tok(i + 3).is_ident("writeln"))
                && ctx.tok(i + 4).is_punct("!")
            {
                continue;
            }
            // Scan the discarded expression to its terminal `;`; only a
            // call (some `(`) can produce a `Result` worth flagging.
            let mut depth = 0i32;
            let mut has_call = false;
            for j in i + 3..ctx.code.len() {
                let u = ctx.tok(j);
                if u.is_punct("(") || u.is_punct("[") || u.is_punct("{") {
                    depth += 1;
                    if u.is_punct("(") {
                        has_call = true;
                    }
                } else if u.is_punct(")") || u.is_punct("]") || u.is_punct("}") {
                    depth -= 1;
                } else if u.is_punct(";") && depth == 0 {
                    break;
                }
            }
            if !has_call || ctx.waived("error-swallow", t.line) {
                continue;
            }
            ctx.emit(
                out,
                "error-swallow",
                t,
                "`let _ =` discards a fallible call's `Result` — handle or propagate \
                 the error, or waive with the reason ignoring it is sound"
                    .to_string(),
            );
        } else if t.is_ident("ok")
            && i > 0
            && ctx.tok(i - 1).is_punct(".")
            && i + 3 < ctx.code.len()
            && ctx.tok(i + 1).is_punct("(")
            && ctx.tok(i + 2).is_punct(")")
            && ctx.tok(i + 3).is_punct(";")
        {
            if ctx.waived("error-swallow", t.line) {
                continue;
            }
            ctx.emit(
                out,
                "error-swallow",
                t,
                "terminal `.ok();` swallows this `Result` — handle or propagate the \
                 error, or waive with the reason ignoring it is sound"
                    .to_string(),
            );
        }
    }
}

/// Every non-`Relaxed` atomic ordering needs a written rationale;
/// `SeqCst` is never accepted (use the weakest sufficient ordering).
fn rule_atomic_ordering(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.scope == Scope::Vendor {
        return;
    }
    for i in 0..ctx.code.len().saturating_sub(2) {
        if !(ctx.tok(i).is_ident("Ordering") && ctx.tok(i + 1).is_punct("::")) {
            continue;
        }
        let t = ctx.tok(i + 2);
        if t.is_ident("SeqCst") {
            ctx.emit(
                out,
                "atomic-ordering",
                t,
                "`Ordering::SeqCst` — globally-ordered atomics hide the actual \
                 synchronization protocol; use the weakest sufficient ordering \
                 (not waivable)"
                    .to_string(),
            );
        } else if AUDITED_ORDERINGS.iter().any(|o| t.is_ident(o)) {
            if ctx.waived("atomic-ordering", t.line) {
                continue;
            }
            ctx.emit(
                out,
                "atomic-ordering",
                t,
                format!(
                    "`Ordering::{}` without an ordering-rationale waiver — state what \
                     this synchronizes with: // lint:allow(atomic-ordering) <why>",
                    t.text
                ),
            );
        }
    }
}

/// Threads are spawned only from the shard pipeline (`pipeline.rs`), the
/// server (`server.rs`) and test code.
fn rule_spawn_confinement(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.scope == Scope::TestCode || ctx.scope == Scope::Vendor {
        return;
    }
    if scope::SPAWN_SITES.contains(&ctx.basename) {
        return;
    }
    for i in 0..ctx.code.len().saturating_sub(2) {
        if !(ctx.tok(i).is_ident("thread") && ctx.tok(i + 1).is_punct("::")) {
            continue;
        }
        let t = ctx.tok(i + 2);
        if !(t.is_ident("spawn") || t.is_ident("scope")) {
            continue;
        }
        if ctx.in_test(t.line) || ctx.waived("spawn-confinement", t.line) {
            continue;
        }
        ctx.emit(
            out,
            "spawn-confinement",
            t,
            format!(
                "`thread::{}` outside {} — route work through the pipeline, \
                 or waive with a justification",
                t.text,
                scope::SPAWN_SITES.join("/")
            ),
        );
    }
}

/// In the hot-path modules, `as`-casts to a type that cannot represent
/// every `u64`/`usize` value require `try_from` or a waiver stating why
/// the value fits.
fn rule_lossy_cast(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !scope::HOT_CAST_FILES.contains(&ctx.basename) {
        return;
    }
    for i in 0..ctx.code.len().saturating_sub(1) {
        if !ctx.tok(i).is_ident("as") {
            continue;
        }
        let t = ctx.tok(i + 1);
        if !NARROW_CASTS.iter().any(|c| t.is_ident(c)) {
            continue;
        }
        if ctx.in_test(t.line) || ctx.waived("lossy-cast", t.line) {
            continue;
        }
        ctx.emit(
            out,
            "lossy-cast",
            t,
            format!(
                "potentially-truncating `as {}` in a hot-path module — use \
                 `{}::try_from`, or waive with the reason the value fits",
                t.text, t.text
            ),
        );
    }
}

/// Vendored stand-ins stay `unsafe`-free (their whole point is to be
/// auditable at a glance) and their roots keep `#![forbid(unsafe_code)]`.
/// The dependency half of vendor-drift lives in [`crate::manifest`].
fn rule_vendor_drift_source(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.scope != Scope::Vendor {
        return;
    }
    for i in 0..ctx.code.len() {
        let t = ctx.tok(i);
        if t.is_ident("unsafe") {
            ctx.emit(
                out,
                "vendor-drift",
                t,
                "`unsafe` in a vendored stand-in — vendor/ must stay auditable; \
                 this rule is not waivable"
                    .to_string(),
            );
        }
    }
    if scope::is_crate_root(ctx.path) && root_unsafe_attr(ctx).is_none() {
        if let Some(t) = ctx.code.first().map(|&i| &ctx.tokens[i]) {
            ctx.emit(
                out,
                "vendor-drift",
                t,
                "vendored crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
    }
}

/// Reports malformed `lint:allow` comments.
fn waiver_syntax(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for e in &ctx.waivers.errors {
        out.push(Diagnostic {
            rule: "waiver-syntax",
            message: e.message.clone(),
            path: ctx.path.to_string(),
            line: e.line,
            col: e.col,
        });
    }
}

/// The deferred half of the waiver meta-rules: waivers that suppressed
/// nothing. The engine calls this once per file *after* the
/// interprocedural rules have run, so waivers consumed at chain level
/// (`panic-reachability`, `hot-path-alloc`) are not spuriously flagged.
pub fn unused_waiver_diags(path: &str, waivers: &Waivers, out: &mut Vec<Diagnostic>) {
    for w in waivers.unused() {
        out.push(Diagnostic {
            rule: "unused-waiver",
            message: format!(
                "waiver for `{}` does not match any finding on line {} — \
                 remove it or move it to the offending line",
                w.rule, w.target_line
            ),
            path: path.to_string(),
            line: w.comment_line,
            col: 1,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokenKind};

    fn regions(src: &str) -> Vec<(u32, u32)> {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind != TokenKind::Comment)
            .map(|(i, _)| i)
            .collect();
        test_regions(&tokens, &code)
    }

    #[test]
    fn cfg_test_mod_region_spans_the_block() {
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn t() {}
}
fn also_live() {}
";
        let r = regions(src);
        assert_eq!(r[0], (2, 7));
        assert!(!r.iter().any(|&(a, b)| a <= 8 && 8 <= b));
    }

    #[test]
    fn test_attribute_on_fn() {
        let src = "#[test]\nfn t() { body(); }\nfn live() {}\n";
        let r = regions(src);
        assert_eq!(r[0], (1, 2));
    }

    #[test]
    fn cfg_all_test_counts_cfg_miri_does_not() {
        assert_eq!(regions("#[cfg(all(test, unix))]\nmod m { }\n").len(), 1);
        assert_eq!(regions("#[cfg(miri)]\nmod m { }\n").len(), 0);
        assert_eq!(regions("#[cfg_attr(miri, ignore)]\nfn f() { }\n").len(), 0);
    }

    #[test]
    fn attribute_with_semicolon_item() {
        let src = "#[cfg(test)]\nuse std::sync::Arc;\nfn live() {}\n";
        assert_eq!(regions(src)[0], (1, 2));
    }

    #[test]
    fn stacked_attributes_before_item() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn t() {\n  x();\n}\n";
        assert_eq!(regions(src)[0], (1, 5));
    }
}
