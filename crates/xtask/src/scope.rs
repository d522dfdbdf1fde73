//! Maps a repo-relative path to the analysis scope that decides which
//! rules apply. The mapping is deliberately repo-specific — this engine
//! checks *our* invariants, not generic Rust style.

/// How a `.rs` file is treated by the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// `crates/{hh,hh-obs,hh-counters,hh-sketches,hh-streamgen,hh-analysis,hh-net}/src`
    /// — the shipped library surface. Every rule applies.
    Library,
    /// `crates/hh-cli` and `crates/bench` sources — shipped binaries and
    /// the bench/experiment drivers. Panic-freedom does not apply (a CLI
    /// terminating on bad input via `ExitCode` paths is its own policy;
    /// bench drivers assert), everything else does.
    Binary,
    /// `tests/`, `benches/`, `examples/` anywhere — panic-freedom and
    /// spawn-confinement do not apply; unsafe-confinement and
    /// atomic-ordering still do.
    TestCode,
    /// `vendor/` sources — covered by vendor-drift and
    /// unsafe-confinement; the stand-ins are not our library code, so
    /// panic-freedom does not apply.
    Vendor,
    /// `crates/xtask` itself — a dev tool: unsafe-confinement,
    /// spawn-confinement and atomic-ordering apply; panic-freedom does
    /// not (diagnostics tooling may abort).
    Tooling,
}

/// The library crates panic-freedom polices.
pub const LIBRARY_CRATES: &[&str] = &[
    "hh",
    "hh-fault",
    "hh-obs",
    "hh-counters",
    "hh-sketches",
    "hh-streamgen",
    "hh-analysis",
    "hh-net",
];

/// The one file allowed to contain `unsafe` (the epoll/libc FFI shim).
pub const UNSAFE_CARVE_OUT: &str = "crates/hh-net/src/sys.rs";

/// Files `std::thread` may be spawned from (plus test code).
pub const SPAWN_SITES: &[&str] = &["pipeline.rs", "server.rs"];

/// Hot-path modules under the lossy-cast audit.
pub const HOT_CAST_FILES: &[&str] = &["stream_summary.rs", "oaindex.rs", "fasthash.rs", "proto.rs"];

/// Classifies a repo-relative path (forward slashes). Returns `None` for
/// files the engine does not lint (e.g. the bad-fixture corpus).
pub fn classify(path: &str) -> Option<Scope> {
    // The fixture corpus exists to *fail* lints; never sweep it up.
    if path.starts_with("crates/xtask/tests/fixtures/") {
        return None;
    }
    let segments: Vec<&str> = path.split('/').collect();
    // Test-shaped directories win over crate identity: a `tests/` or
    // `benches/` dir inside any crate is test code.
    if segments
        .iter()
        .any(|s| *s == "tests" || *s == "benches" || *s == "examples")
    {
        return Some(Scope::TestCode);
    }
    if path.starts_with("vendor/") {
        return Some(Scope::Vendor);
    }
    if path.starts_with("crates/xtask/") {
        return Some(Scope::Tooling);
    }
    if path.starts_with("crates/hh-cli/") || path.starts_with("crates/bench/") {
        return Some(Scope::Binary);
    }
    if segments.first() == Some(&"crates") && segments.len() > 2 {
        return Some(Scope::Library);
    }
    None
}

/// The crate name for a `crates/<name>/…` or `vendor/<name>/…` path.
pub fn crate_name(path: &str) -> Option<&str> {
    let mut it = path.split('/');
    match it.next() {
        Some("crates") | Some("vendor") => it.next(),
        _ => None,
    }
}

/// Is this path a crate root that must carry `#![deny(unsafe_code)]` /
/// `#![forbid(unsafe_code)]`? Covers every shipped target root: library
/// roots, binary roots, and each `src/bin/*.rs`.
pub fn is_crate_root(path: &str) -> bool {
    if path.starts_with("crates/xtask/tests/") {
        return false;
    }
    path.ends_with("/src/lib.rs")
        || path.ends_with("/src/main.rs")
        || (path.contains("/src/bin/") && path.ends_with(".rs"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(
            classify("crates/hh-counters/src/merge.rs"),
            Some(Scope::Library)
        );
        assert_eq!(classify("crates/hh-fault/src/lib.rs"), Some(Scope::Library));
        assert!(LIBRARY_CRATES.contains(&"hh-fault"));
        assert_eq!(classify("crates/hh-cli/src/main.rs"), Some(Scope::Binary));
        assert_eq!(
            classify("crates/bench/src/bin/run_all.rs"),
            Some(Scope::Binary)
        );
        assert_eq!(classify("tests/integration_net.rs"), Some(Scope::TestCode));
        assert_eq!(
            classify("crates/hh-counters/tests/x.rs"),
            Some(Scope::TestCode)
        );
        assert_eq!(
            classify("crates/bench/benches/queries.rs"),
            Some(Scope::TestCode)
        );
        assert_eq!(classify("examples/live_monitor.rs"), Some(Scope::TestCode));
        assert_eq!(classify("vendor/rand/src/lib.rs"), Some(Scope::Vendor));
        assert_eq!(classify("crates/xtask/src/main.rs"), Some(Scope::Tooling));
        assert_eq!(classify("crates/xtask/tests/fixtures/panic/bad.rs"), None);
    }

    #[test]
    fn crate_roots() {
        assert!(is_crate_root("crates/hh/src/lib.rs"));
        assert!(is_crate_root("crates/hh-cli/src/main.rs"));
        assert!(is_crate_root("crates/bench/src/bin/run_all.rs"));
        assert!(is_crate_root("vendor/rand/src/lib.rs"));
        assert!(!is_crate_root("crates/hh-counters/src/merge.rs"));
        assert!(!is_crate_root("tests/integration_obs.rs"));
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_name("crates/hh-net/src/sys.rs"), Some("hh-net"));
        assert_eq!(crate_name("vendor/serde/src/lib.rs"), Some("serde"));
        assert_eq!(crate_name("tests/x.rs"), None);
    }
}
