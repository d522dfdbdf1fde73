//! `xtask` — the repo-specific static analysis engine behind
//! `cargo xtask lint` (alias: `cargo lint`).
//!
//! Generic tooling (`clippy -D warnings`, rustfmt, rustdoc) already
//! gates this repo; what it cannot see are *our* invariants — `unsafe`
//! confined to the epoll FFI shim, Relaxed-only telemetry counters,
//! thread spawns confined to the scheduler/pipeline/server, vendored
//! stand-ins that stay dependency-free, allocation-free ingest hot
//! paths, panics that never reach a public entry point, artifacts
//! (protocol doc, CI) that cannot drift from the
//! code. This crate checks exactly those, against a real token stream
//! (see [`lexer`]) so string literals and comments can never
//! false-positive; the interprocedural rules run over an item-level
//! parse (see [`parser`]) and a conservatively-resolved workspace
//! call graph (see [`callgraph`]), with per-site waivers that force a
//! written rationale (see [`waivers`]).
//!
//! Rule catalog, annotation/waiver grammar and the sanitizer/Miri
//! recipes live in `docs/ANALYSIS.md`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod drift;
pub mod engine;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod rules;
pub mod rules_graph;
pub mod scope;
pub mod waivers;
