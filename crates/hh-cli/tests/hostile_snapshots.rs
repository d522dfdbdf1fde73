//! Hostile inputs — snapshot files that pass the envelope's CRC but carry
//! hostile payloads, and flag values far outside any sane range — must
//! end `hh` with an error or a normal answer, never an abort.

use std::process::{Command, Output};

use hh::net::checkpoint::{crc32, MAGIC};

const HH: &str = env!("CARGO_BIN_EXE_hh");

/// Writes a CRC-valid one-shard envelope around `payload`; returns its path.
fn envelope(name: &str, payload: &str) -> String {
    let path = std::env::temp_dir().join(format!("hh-hostile-{}-{name}", std::process::id()));
    let crc = crc32(payload.as_bytes());
    let len = payload.len();
    let text = format!("{MAGIC} v1 crc={crc:08x} len={len} shards=1 unobserved=0\n{payload}");
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
    // 10^10-slot channel) or for 10^5 worker threads.
    for args in [
        ["serve", "--batch-size", "10000000000", "/dev/null"],
        ["serve", "--queue-depth", "10000000000", "/dev/null"],
        ["serve", "--shards", "100000", "/dev/null"],
    ] {
        let out = hh(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
