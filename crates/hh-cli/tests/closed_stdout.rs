//! A reader that stops early (`hh gen ... | head -c 10`) closes `hh`'s
//! stdout under it. That is a clean end of the command: exit 0, no panic
//! and nothing on stderr.

use std::io::{Read, Write};
use std::process::{Child, Command, Stdio};

const HH: &str = env!("CARGO_BIN_EXE_hh");

fn spawn(args: &[&str]) -> Child {
    Command::new(HH)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap()
}

fn assert_clean_exit(child: Child, what: &str) {
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{what}: {stderr}");
    assert!(stderr.is_empty(), "{what}: {stderr}");
}

#[test]
fn a_reader_that_stops_early_ends_gen_cleanly() {
    // About 2 MB of output: far more than a pipe holds, so `hh` is still
    // writing when the reader goes away.
    let mut child = spawn(&["gen", "--zipf", "1000,400000,1.1,7"]);
    drop(child.stdin.take());
    let mut stdout = child.stdout.take().unwrap();
    let mut head = [0u8; 10];
    stdout.read_exact(&mut head).unwrap();
    drop(stdout);
    assert_clean_exit(child, "gen | head -c 10");
}

#[test]
fn a_stdout_closed_before_the_report_ends_topk_cleanly() {
    let mut child = spawn(&["topk", "-k", "2", "-m", "8", "--json"]);
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"a\nb\na\n").unwrap();
    drop(stdin);
    assert_clean_exit(child, "topk --json > closed pipe");
}

#[test]
fn a_stdout_closed_before_the_final_report_still_gets_serve_its_checkpoint() {
    let snap = std::env::temp_dir().join(format!("hh-closed-stdout-{}.ckpt", std::process::id()));
    let path = snap.to_str().unwrap();
    let mut child = spawn(&["serve", "--shards", "1", "--json", "--snapshot-out", path]);
    drop(child.stdout.take());
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"a\nb\na\n").unwrap();
    drop(stdin);
    assert_clean_exit(child, "serve --json > closed pipe");
    let out = Command::new(HH)
        .args(["topk", "--json", "-k", "1", "--snapshot-in", path])
        .output()
        .unwrap();
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        r#"[{"item":"a","count":2,"lower":2,"upper":2}]"#
    );
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(format!("{path}.prev")).ok();
}

#[test]
fn a_stdout_closed_at_a_live_report_still_gets_serve_its_checkpoint() {
    // `hh gen --zipf 500,60000,1.2,9 | hh serve --shards 2 --report-every
    // 1000 --snapshot-out x.ckpt | head -2`: the reader leaves after the
    // first live report, long before the stream ends.
    let snap = std::env::temp_dir().join(format!("hh-closed-live-{}.ckpt", std::process::id()));
    let path = snap.to_str().unwrap();
    let args = [
        "serve",
        "--shards",
        "2",
        "--report-every",
        "1000",
        "--snapshot-out",
        path,
    ];
    let mut child = spawn(&args);
    const SENT: u64 = 60_000;
    let mut stdin = child.stdin.take().unwrap();
    let feeder = std::thread::spawn(move || {
        // `hh` stops reading once its stdout is gone: a refused write ends
        // the feed.
        for i in 0..SENT {
            if writeln!(stdin, "{}", i % 500).is_err() {
                break;
            }
        }
    });
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    for _ in 0..2 {
        std::io::BufRead::read_line(&mut stdout, &mut line).unwrap();
    }
    drop(stdout);
    feeder.join().unwrap();
    assert_clean_exit(child, "serve --report-every 1000 | head -2");
    let out = Command::new(HH)
        .args(["residual", "--json", "-k", "1", "--snapshot-in", path])
        .output()
        .unwrap();
    let answer: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let total = answer["stream_len"].as_u64().unwrap();
    assert!((1..=SENT).contains(&total), "{total}");
    std::fs::remove_file(&snap).ok();
    std::fs::remove_file(format!("{path}.prev")).ok();
}
