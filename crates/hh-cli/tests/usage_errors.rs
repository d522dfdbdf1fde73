//! Out-of-range serve settings and flags given to a command they do not
//! belong to are usage errors: `hh` exits 2 with the usage text while
//! parsing, before it opens a FILE, reads stdin or binds a socket.

use std::process::{Command, Stdio};

const HH: &str = env!("CARGO_BIN_EXE_hh");

/// A FILE that cannot be opened: reaching the ingest stage would end
/// `hh` with exit 1, not 2.
const MISSING: &str = "/nonexistent/hh-usage-errors.txt";

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(HH)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    assert!(
        stderr.contains("\nusage: hh <command>"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn out_of_range_serve_settings_are_usage_errors() {
    for (flag, value) in [
        ("--shards", "0"),
        ("--shards", "5000"),
        ("--batch-size", "0"),
        ("--batch-size", "2000000"),
        ("--queue-depth", "0"),
        ("--queue-depth", "5000"),
    ] {
        assert_usage_error(&["serve", flag, value, MISSING]);
    }
    assert_usage_error(&["serve", "--listen", "127.0.0.1:0", "--max-conns", "0"]);
}

/// Each command-specific flag with a value it would accept.
const SERVE_FLAGS: [&[&str]; 6] = [
    &["--shards", "2"],
    &["--batch-size", "7"],
    &["--queue-depth", "2"],
    &["--report-every", "9"],
    &["--stats-every", "3"],
    &["--checkpoint-every", "5"],
];
const LISTENER_FLAGS: [&[&str]; 5] = [
    &["--listen", "127.0.0.1:0"],
    &["--listen-unix", "hh-usage-errors.sock"],
    &["--addr-file", "hh-usage-errors.addr"],
    &["--idle-timeout", "5"],
    &["--max-conns", "2"],
];
const CLIENT_FLAGS: [&[&str]; 6] = [
    &["--connect", "127.0.0.1:1"],
    &["--query", "stats"],
    &["--shutdown"],
    &["--connect-timeout", "5"],
    &["--read-timeout", "5"],
    &["--retries", "2"],
];

#[test]
fn flags_of_another_command_are_usage_errors() {
    for flag in SERVE_FLAGS
        .iter()
        .chain(&LISTENER_FLAGS)
        .chain(&CLIENT_FLAGS)
    {
        assert_usage_error(&[&["topk"], *flag, &[MISSING]].concat());
    }
    for flag in CLIENT_FLAGS {
        assert_usage_error(&[&["serve"], flag, &[MISSING]].concat());
    }
    for flag in SERVE_FLAGS.iter().chain(&LISTENER_FLAGS) {
        assert_usage_error(&[&["client", "--connect", "127.0.0.1:1"], *flag, &[MISSING]].concat());
    }
    // The whole probe at once: every flag ignored before, rejected now.
    assert_usage_error(&[
        "topk",
        "--shards",
        "3",
        "--batch-size",
        "7",
        "--report-every",
        "9",
        "--idle-timeout",
        "5",
        "--max-conns",
        "2",
        "--addr-file",
        "x",
    ]);
}

#[test]
fn listener_settings_need_a_listener() {
    for flag in &LISTENER_FLAGS[2..] {
        assert_usage_error(&[&["serve"], *flag, &[MISSING]].concat());
    }
}
