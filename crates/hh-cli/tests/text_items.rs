//! Text items through the shipped `hh` binary: keys longer than the 22
//! bytes a `Key` stores inline and non-ASCII keys go through `topk`,
//! `merge`, `serve` (stdin and `--listen`) and a `--snapshot-in` resume of
//! a checkpoint that an in-process `Pipeline<String>` wrote. The expected
//! outputs were recorded from the binary as it stood when its items were
//! `String`s, so they pin the output byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use hh::engine::{AlgoKind, EngineConfig};
use hh::net::checkpoint::{self, Checkpoint};
use hh::pipeline::PipelineConfig;

const HH: &str = env!("CARGO_BIN_EXE_hh");

/// Thirty keys: short and long, ASCII and not, on both sides of the
/// 22-byte inline limit.
fn vocab() -> Vec<String> {
    let mut v: Vec<String> = [
        "x",
        "naïve",
        "日本語",
        "ключ",
        "😀",
        "exactly-twenty-two-b22",
        "twenty-three-bytes-long",
        "a-much-longer-key-of-exactly-forty-bytes",
        "ελληνικό-κλειδί-που-ζει-στο-σωρό",
    ]
    .map(String::from)
    .to_vec();
    let mut i = 0;
    while v.len() < 30 {
        v.push(if i % 2 == 0 {
            format!("item{i}")
        } else {
            format!("a-longer-item-{i}-that-lives-on-the-heap")
        });
        i += 1;
    }
    v
}

/// 930 lines: key `i` occurs `60 − 2i` times, interleaved round by round,
/// so every count is distinct and the top of the table is unambiguous.
fn stream() -> Vec<String> {
    let vocab = vocab();
    let mut out = Vec::new();
    for round in 0..60 {
        for (i, key) in vocab.iter().enumerate() {
            if round < 60 - 2 * i {
                out.push(key.clone());
            }
        }
    }
    out
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hh-text-items-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_lines(path: &Path, lines: &[String]) -> String {
    std::fs::write(path, lines.join("\n") + "\n").unwrap();
    path.to_str().unwrap().to_string()
}

fn stdout_of(out: Output) -> String {
    assert!(
        out.status.success(),
        "hh failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn hh(args: &[&str]) -> String {
    stdout_of(Command::new(HH).args(args).output().unwrap())
}

const TOPK_TEXT: &str = r#"item                            count    certified range   (stream length 930)
x                                  73          [32..=73]
naïve                              71          [30..=71]
日本語                                69          [28..=69]
ключ                               67          [26..=67]
😀                                  65          [24..=65]
exactly-twenty-two-b22             63          [22..=63]
twenty-three-bytes-long            61          [20..=61]
a-much-longer-key-of-exactly-forty-bytes           59          [18..=59]
ελληνικό-κλειδί-που-ζει-στο-σωρό           57          [16..=57]
item0                              55          [14..=55]
"#;

const TOPK_JSON: &str = r#"[{"item":"x","count":73,"lower":32,"upper":73},{"item":"naïve","count":71,"lower":30,"upper":71},{"item":"日本語","count":69,"lower":28,"upper":69},{"item":"ключ","count":67,"lower":26,"upper":67},{"item":"😀","count":65,"lower":24,"upper":65},{"item":"exactly-twenty-two-b22","count":63,"lower":22,"upper":63},{"item":"twenty-three-bytes-long","count":61,"lower":20,"upper":61},{"item":"a-much-longer-key-of-exactly-forty-bytes","count":59,"lower":18,"upper":59},{"item":"ελληνικό-κλειδί-που-ζει-στο-σωρό","count":57,"lower":16,"upper":57},{"item":"item0","count":55,"lower":14,"upper":55}]
"#;

#[test]
fn topk_and_merge_render_long_and_non_ascii_keys_unchanged() {
    let dir = scratch("topk");
    let lines = stream();
    let all = write_lines(&dir.join("all.txt"), &lines);
    assert_eq!(hh(&["topk", "-k", "10", "-m", "16", &all]), TOPK_TEXT);
    assert_eq!(
        hh(&["topk", "-k", "10", "-m", "16", "--json", &all]),
        TOPK_JSON
    );

    let (head, tail) = lines.split_at(400);
    let head = write_lines(&dir.join("head.txt"), head);
    let tail = write_lines(&dir.join("tail.txt"), tail);
    let a = dir.join("a.ckpt");
    let b = dir.join("b.ckpt");
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    hh(&["topk", "-m", "16", "--snapshot-out", a, &head]);
    hh(&["topk", "-m", "16", "--snapshot-out", b, &tail]);
    assert_eq!(hh(&["merge", "-k", "10", "--json", a, b]), MERGE_JSON);
    std::fs::remove_dir_all(&dir).ok();
}

const MERGE_JSON: &str = r#"[{"item":"x","count":73,"lower":32,"upper":92},{"item":"naïve","count":71,"lower":30,"upper":90},{"item":"日本語","count":69,"lower":28,"upper":88},{"item":"ключ","count":67,"lower":26,"upper":86},{"item":"😀","count":65,"lower":24,"upper":84},{"item":"exactly-twenty-two-b22","count":63,"lower":22,"upper":82},{"item":"twenty-three-bytes-long","count":61,"lower":20,"upper":80},{"item":"a-much-longer-key-of-exactly-forty-bytes","count":59,"lower":18,"upper":78},{"item":"ελληνικό-κλειδί-που-ζει-στο-σωρό","count":57,"lower":16,"upper":76},{"item":"item0","count":55,"lower":14,"upper":74}]
"#;

const SERVE_JSON: &str = r#"{"v":1,"final":true,"stream_len":930,"top":[{"item":"x","count":60,"lower":60,"upper":60},{"item":"naïve","count":58,"lower":58,"upper":58},{"item":"日本語","count":56,"lower":56,"upper":56},{"item":"ключ","count":54,"lower":54,"upper":54},{"item":"😀","count":52,"lower":52,"upper":52},{"item":"exactly-twenty-two-b22","count":50,"lower":50,"upper":50},{"item":"twenty-three-bytes-long","count":48,"lower":48,"upper":48},{"item":"a-much-longer-key-of-exactly-forty-bytes","count":46,"lower":46,"upper":46}]}
"#;

#[test]
fn serve_from_stdin_and_over_tcp_agree_byte_for_byte() {
    let dir = scratch("serve");
    let all = write_lines(&dir.join("all.txt"), &stream());
    let serve = ["serve", "--shards", "2", "-k", "8", "-m", "64", "--json"];

    let mut args = serve.to_vec();
    args.push(&all);
    assert_eq!(hh(&args), SERVE_JSON);

    let addr_file = dir.join("addr.txt");
    let server = Command::new(HH)
        .args(serve)
        .args(["--listen", "127.0.0.1:0", "--addr-file"])
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
    hh(&["client", "--connect", &addr, "--shutdown", &all]);
    assert_eq!(stdout_of(server.wait_with_output().unwrap()), SERVE_JSON);
    std::fs::remove_dir_all(&dir).ok();
}

const RESUMED_TOPK: &str = r#"[{"item":"x","count":60,"lower":60,"upper":60},{"item":"naïve","count":58,"lower":58,"upper":58},{"item":"日本語","count":56,"lower":56,"upper":56},{"item":"ключ","count":54,"lower":54,"upper":54},{"item":"😀","count":52,"lower":52,"upper":52},{"item":"exactly-twenty-two-b22","count":50,"lower":50,"upper":50},{"item":"twenty-three-bytes-long","count":48,"lower":48,"upper":48},{"item":"a-much-longer-key-of-exactly-forty-bytes","count":46,"lower":46,"upper":46}]
"#;

const RESUMED_SERVE: &str = r#"{"v":1,"final":true,"stream_len":930,"top":[{"item":"x","count":60,"lower":60,"upper":60},{"item":"naïve","count":58,"lower":58,"upper":58},{"item":"日本語","count":56,"lower":56,"upper":56},{"item":"ключ","count":54,"lower":54,"upper":54},{"item":"😀","count":52,"lower":52,"upper":52},{"item":"exactly-twenty-two-b22","count":50,"lower":50,"upper":50},{"item":"twenty-three-bytes-long","count":48,"lower":48,"upper":48},{"item":"a-much-longer-key-of-exactly-forty-bytes","count":46,"lower":46,"upper":46}]}
"#;

#[test]
fn a_string_pipeline_checkpoint_resumes_in_topk_and_serve() {
    let dir = scratch("resume");
    let lines = stream();
    let (head, tail) = lines.split_at(500);
    let tail = write_lines(&dir.join("tail.txt"), tail);

    // What `hh serve --checkpoint-every` writes, from `String` items.
    let ckpt = dir.join("string.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let mut p = PipelineConfig::new(EngineConfig::new(AlgoKind::SpaceSaving).counters(64))
        .shards(2)
        .spawn::<String>()
        .unwrap();
    p.send_batch(head).unwrap();
    let shards = p.snapshots().unwrap();
    p.finish().unwrap();
    checkpoint::write(
        ckpt,
        &Checkpoint {
            shards,
            unobserved: 0,
        },
    )
    .unwrap();

    assert_eq!(
        hh(&["topk", "-k", "8", "--json", "--snapshot-in", ckpt, &tail]),
        RESUMED_TOPK
    );
    let served = hh(&[
        "serve",
        "--shards",
        "2",
        "-k",
        "8",
        "-m",
        "64",
        "--json",
        "--snapshot-in",
        ckpt,
        &tail,
    ]);
    assert_eq!(served, RESUMED_SERVE);
    std::fs::remove_dir_all(&dir).ok();
}
