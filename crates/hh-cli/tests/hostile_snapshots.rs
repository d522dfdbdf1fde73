//! Hostile inputs — snapshot files that pass the envelope's CRC but carry
//! hostile payloads, and flag values far outside any sane range — must
//! end `hh` with an error or a normal answer, never an abort; a torn
//! checkpoint is answered from its previous generation, never silently.

use std::collections::HashMap;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use hh::engine::{AlgoKind, EngineConfig};
use hh::net::checkpoint::{self, crc32, Checkpoint, MAGIC};
use hh::pipeline::PipelineConfig;

const HH: &str = env!("CARGO_BIN_EXE_hh");

/// Writes a CRC-valid one-shard envelope around `payload`; returns its path.
fn envelope(name: &str, payload: &str) -> String {
    envelope_of(name, payload, 1)
}

/// Writes a CRC-valid envelope of `shards` shards around `payload`.
fn envelope_of(name: &str, payload: &str, shards: usize) -> String {
    let path = std::env::temp_dir().join(format!("hh-hostile-{}-{name}", std::process::id()));
    let crc = crc32(payload.as_bytes());
    let len = payload.len();
    let text =
        format!("{MAGIC} v1 crc={crc:08x} len={len} shards={shards} unobserved=0\n{payload}");
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

fn hh(args: &[&str]) -> Output {
    Command::new(HH).args(args).output().unwrap()
}

#[test]
fn deeply_nested_payload_is_an_error() {
    let path = envelope("deep", &"[".repeat(200_000));
    for args in [
        ["topk", "--snapshot-in", &path, "/dev/null"],
        ["serve", "--snapshot-in", &path, "/dev/null"],
    ] {
        let out = hh(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn huge_declared_capacity_is_not_allocated() {
    let payload = r#"[{"algo":"space_saving","state":{"capacity":4000000000000,"stream_len":3,"absorbed_slack":0,"entries":[["a",2,0],["b",1,0]]}}]"#;
    let path = envelope("capacity", payload);
    let out = hh(&[
        "topk",
        "-k",
        "1",
        "--json",
        "--snapshot-in",
        &path,
        "/dev/null",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "[{\"item\":\"a\",\"count\":2,\"lower\":2,\"upper\":2}]\n"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn serve_rejects_an_item_stored_by_a_shard_that_does_not_own_it() {
    // Both shards store "a", so one of them holds an item that the hash
    // partition routes to the other: resuming it shard by shard would
    // count "a" twice.
    let shard = r#"{"algo":"space_saving","state":{"capacity":256,"stream_len":2,"absorbed_slack":0,"entries":[["a",2,0]]}}"#;
    let path = envelope_of("stray", &format!("[{shard},{shard}]"), 2);
    let out = hh(&["serve", "--snapshot-in", &path, "/dev/null"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("snapshot mismatch"), "{stderr}");
    std::fs::remove_file(path).ok();
}

/// Runs `hh topk` over `path` and `hh merge` of `path` with itself and
/// checks that both exit 0 and that every interval they report brackets
/// the true count: `truth` for the file, twice that for the merge.
fn assert_offline_reads_bracket(path: &str, truth: &HashMap<String, u64>) {
    let topk = [
        "topk",
        "-k",
        "100",
        "--json",
        "--snapshot-in",
        path,
        "/dev/null",
    ];
    let merge = ["merge", "-k", "100", "--json", path, path];
    for (args, times) in [(&topk[..], 1), (&merge[..], 2)] {
        let out = hh(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        let rows: serde_json::Value =
            serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
        let rows = rows.as_array().unwrap();
        assert!(!rows.is_empty(), "{args:?}");
        for row in rows {
            let item = row["item"].as_str().unwrap();
            let f = times * truth.get(item).copied().unwrap_or(0);
            let (lower, upper) = (
                row["lower"].as_u64().unwrap(),
                row["upper"].as_u64().unwrap(),
            );
            assert!(
                lower <= f && f <= upper,
                "{args:?}: {item} = {f} outside [{lower}, {upper}]"
            );
        }
    }
}

#[test]
fn layouts_that_are_not_one_partition_fold_soundly() {
    // Both shards store "a": read shard by shard, "a" would count 2, not 4.
    let shard = r#"{"algo":"space_saving","state":{"capacity":256,"stream_len":2,"absorbed_slack":0,"entries":[["a",2,0]]}}"#;
    let stray = envelope_of("stray-read", &format!("[{shard},{shard}]"), 2);
    assert_offline_reads_bracket(&stray, &HashMap::from([("a".to_string(), 4)]));
    std::fs::remove_file(stray).ok();

    // The earlier release's layout of a resumed session: two hash shards
    // of the new stream, then a donor shard holding the resumed summary,
    // which stores items every shard owns.
    let config = EngineConfig::new(AlgoKind::SpaceSaving).counters(64);
    let fresh: Vec<String> = (0..3_000).map(|i| format!("k{}", (i * i) % 97)).collect();
    let resumed: Vec<String> = (0..2_000).map(|i| format!("k{}", i % 41)).collect();
    let mut p = PipelineConfig::new(config.clone())
        .shards(2)
        .spawn::<String>()
        .unwrap();
    p.send_batch(&fresh).unwrap();
    let mut shards = p.snapshots().unwrap();
    p.finish().unwrap();
    let mut donor = config.build::<String>().unwrap();
    donor.update_batch(&resumed);
    shards.push(donor.snapshot());
    let path = std::env::temp_dir().join(format!("hh-hostile-{}-donor", std::process::id()));
    let path = path.to_str().unwrap();
    let unobserved = 0;
    checkpoint::write(path, &Checkpoint { shards, unobserved }).unwrap();
    let mut truth = HashMap::new();
    for item in fresh.iter().chain(&resumed) {
        *truth.entry(item.clone()).or_insert(0) += 1;
    }
    assert_offline_reads_bracket(path, &truth);
    std::fs::remove_file(path).ok();
}

#[test]
fn merging_past_u64_is_an_error() {
    // Each file alone is valid: one item counted 2^63. Together they
    // count 2^64, which must not wrap to a stream length of 0.
    let payloads = [
        r#"[{"algo":"space_saving","state":{"capacity":4,"stream_len":9223372036854775808,"absorbed_slack":0,"entries":[["a",9223372036854775808,0]]}}]"#,
        r#"[{"algo":"frequent","state":{"capacity":4,"stream_len":9223372036854775808,"decrements":0,"entries":[["a",9223372036854775808]]}}]"#,
        r#"[{"algo":"lossy_counting","state":{"width":4611686018427387904,"window":3,"stream_len":9223372036854775808,"max_table":1,"entries":[["a",9223372036854775808,0]]}}]"#,
        r#"[{"algo":"sticky_sampling","state":{"epsilon":0.01,"window":100,"rate":1,"until_double":100,"rng_state":1,"stream_len":9223372036854775808,"max_table":1,"entries":[["a",9223372036854775808]]}}]"#,
    ];
    for (i, payload) in payloads.iter().enumerate() {
        let path = envelope(&format!("half-{i}"), payload);
        let out = hh(&["merge", "-k", "1", &path, &path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{payload}: {stderr}");
        assert!(stderr.contains("overflow"), "{stderr}");
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn out_of_range_pipeline_sizing_is_an_error() {
    // Each would ask for hundreds of GB (a 10^10-item shard buffer, a
    // 10^10-slot channel) or for 10^5 worker threads. Parsing runs the
    // pipeline's validator, so each is a usage error (exit 2).
    for args in [
        ["serve", "--batch-size", "10000000000", "/dev/null"],
        ["serve", "--queue-depth", "10000000000", "/dev/null"],
        ["serve", "--shards", "100000", "/dev/null"],
    ] {
        let out = hh(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// A torn current checkpoint generation is never answered from in
/// silence: `topk --snapshot-in`, `merge`, and `serve --snapshot-in` from
/// stdin and with `--listen` each print one stderr line per torn file,
/// naming it, the reason and the fallback, and answer from `PATH.prev`.
#[test]
fn a_torn_checkpoint_falls_back_out_loud() {
    let dir = std::env::temp_dir().join(format!("hh-hostile-{}-torn", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.ckpt").to_str().unwrap().to_string();
    // The CLI's default engine, so `serve` resumes it.
    let mut engine = EngineConfig::new(AlgoKind::SpaceSaving)
        .counters(256)
        .build::<String>()
        .unwrap();
    for items in [&["a", "a", "b"][..], &["c"]] {
        engine.update_batch(&items.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let shards = vec![engine.snapshot()];
        checkpoint::write(
            &path,
            &Checkpoint {
                shards,
                unobserved: 0,
            },
        )
        .unwrap();
    }
    let text = std::fs::read(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let warned = |stderr: &[u8], times: usize| {
        let stderr = String::from_utf8_lossy(stderr);
        let head = format!("warning: checkpoint {path} failed to load (corrupt snapshot: ");
        let tail = format!("); answering from {path}.prev");
        let lines = stderr.lines().filter(|l| l.starts_with("warning:"));
        let warnings: Vec<_> = lines.collect();
        assert_eq!(warnings.len(), times, "{stderr}");
        for line in warnings {
            assert!(line.starts_with(&head) && line.ends_with(&tail), "{line}");
        }
    };

    let topk = ["topk", "--json", "--snapshot-in", &path, "/dev/null"];
    let merge = ["merge", "--json", &path, &path];
    let serve = ["serve", "--json", "--snapshot-in", &path, "/dev/null"];
    for (args, files, stream_len) in [(&topk[..], 1, 3), (&merge, 2, 6), (&serve, 1, 3)] {
        let out = hh(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        warned(&out.stderr, files);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let count = format!("{{\"item\":\"a\",\"count\":{}", stream_len * 2 / 3);
        assert!(stdout.contains(&count), "{args:?}: {stdout}");
    }

    let addr_file = dir.join("addr.txt");
    let server = Command::new(HH)
        .args([
            "serve",
            "--snapshot-in",
            &path,
            "--listen",
            "127.0.0.1:0",
            "--addr-file",
        ])
        .arg(&addr_file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        match std::fs::read_to_string(&addr_file) {
            Ok(a) if !a.trim().is_empty() => break a.trim().to_string(),
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            _ => panic!("server never published its address"),
        }
    };
    hh(&["client", "--connect", &addr, "--shutdown", "/dev/null"]);
    let out = server.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    warned(&out.stderr, 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"final\":true,\"stream_len\":3"),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
