//! `--weighted` end to end on the `hh` binary: weights are counted in
//! thousandths, so sums are exact, a weight or total that does not fit is
//! a typed error that writes nothing, and weighted snapshots never mix
//! with count snapshots.

use std::process::{Command, Output};

use hh::net::checkpoint::{crc32, MAGIC};

const HH: &str = env!("CARGO_BIN_EXE_hh");

fn hh(args: &[&str], stdin: &str) -> Output {
    use std::io::Write;
    let mut child = Command::new(HH)
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// Exit 1 with `expected` on stderr.
fn fails_with(out: &Output, expected: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(expected), "{stderr}");
}

fn tmp(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("hh-weights-{}-{name}", std::process::id()));
    path.to_str().unwrap().to_string()
}

fn file(name: &str, text: &str) -> String {
    let path = tmp(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn a_huge_weight_plus_many_small_ones_is_exact() {
    let mut input = String::from("a 1e16\n");
    input.push_str(&"a 1\n".repeat(200_000));
    let out = hh(
        &["estimate", "--weighted", "--items", "a", "-m", "4"],
        &input,
    );
    let text = stdout(&out);
    assert!(
        text.contains("[10000000000200000.000..=10000000000200000.000]"),
        "{text}"
    );
}

#[test]
fn decimal_weights_add_exactly() {
    let out = hh(
        &["estimate", "--weighted", "--items", "a", "--json"],
        "a 0.1\na 0.2\n",
    );
    assert_eq!(
        stdout(&out),
        "[{\"item\":\"a\",\"weight\":0.3,\"lower\":0.3,\"upper\":0.3}]\n"
    );
}

#[test]
fn a_weight_or_total_past_u64_thousandths_is_a_typed_error_that_writes_nothing() {
    let snap = tmp("overflow.ckpt");
    for (input, expected) in [
        (
            "a 1e308\na 1e308\n",
            "parse error: line 1: weight \"1e308\"",
        ),
        (
            "x 0.001\n\na 18446744073709551\nb 0.614\nc 0.001\n",
            "arithmetic overflow: line 5",
        ),
        (
            "a 0.0001\n",
            "line 1: weight \"0.0001\" has more than 3 decimals",
        ),
        ("a -1\n", "line 1: weight \"-1\" is negative"),
        ("a inf\n", "line 1: weight \"inf\" is not a decimal number"),
    ] {
        let out = hh(
            &[
                "heavy",
                "--weighted",
                "--phi",
                "0.1",
                "--snapshot-out",
                &snap,
            ],
            input,
        );
        fails_with(&out, expected);
        assert!(out.stdout.is_empty());
        assert!(!std::path::Path::new(&snap).exists(), "{input:?}");
    }
}

#[test]
fn a_snapshot_at_the_largest_total_loads_again() {
    let snap = tmp("largest.ckpt");
    let largest = "18446744073709551.615";
    let out = hh(
        &["topk", "--weighted", "--json", "--snapshot-out", &snap],
        &format!("a {largest}\n"),
    );
    let row = format!(
        "[{{\"item\":\"a\",\"weight\":{largest},\"lower\":{largest},\"upper\":{largest}}}]\n"
    );
    assert_eq!(stdout(&out), row);
    let out = hh(
        &["topk", "--weighted", "--json", "--snapshot-in", &snap],
        "",
    );
    assert_eq!(stdout(&out), row);
    // and one more thousandth is an overflow that leaves the file alone
    let before = std::fs::read(&snap).unwrap();
    let more = file("one-more.txt", "b 0.001\n");
    let out = hh(
        &[
            "topk",
            "--weighted",
            "--snapshot-in",
            &snap,
            "--snapshot-out",
            &snap,
            &more,
        ],
        "",
    );
    fails_with(&out, "arithmetic overflow: line 1");
    assert_eq!(std::fs::read(&snap).unwrap(), before);
    for path in [snap.clone(), format!("{snap}.prev"), more] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn weighted_and_count_snapshots_do_not_mix() {
    let weights = tmp("w.ckpt");
    let counts = tmp("c.ckpt");
    stdout(&hh(
        &["topk", "--weighted", "-m", "4", "--snapshot-out", &weights],
        "a 1.5\n",
    ));
    stdout(&hh(&["topk", "-m", "4", "--snapshot-out", &counts], "a\n"));
    fails_with(&hh(&["merge", &weights, &counts], ""), "snapshot mismatch");
    fails_with(
        &hh(&["topk", "--snapshot-in", &weights], ""),
        "snapshot mismatch",
    );
    fails_with(
        &hh(&["topk", "--weighted", "--snapshot-in", &counts], ""),
        "snapshot mismatch",
    );
    fails_with(
        &hh(&["serve", "--snapshot-in", &weights], ""),
        "snapshot mismatch",
    );
    // weighted files merge with each other
    let out = hh(&["merge", "--json", &weights, &weights], "");
    assert_eq!(
        stdout(&out),
        "[{\"item\":\"a\",\"weight\":3,\"lower\":3,\"upper\":3}]\n"
    );
    for path in [weights, counts] {
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn floating_point_weight_snapshots_of_earlier_releases_are_corrupt() {
    for (name, legacy) in [
        (
            "ss",
            include_str!("../../../tests/golden/snapshot_space_saving_r.json"),
        ),
        (
            "fr",
            include_str!("../../../tests/golden/snapshot_frequent_r.json"),
        ),
        (
            "int",
            include_str!("../../../tests/golden/snapshot_space_saving_r_integral.json"),
        ),
    ] {
        let payload = format!("[{legacy}]");
        let crc = crc32(payload.as_bytes());
        let len = payload.len();
        let path = file(
            name,
            &format!("{MAGIC} v1 crc={crc:08x} len={len} shards=1 unobserved=0\n{payload}"),
        );
        for args in [
            vec!["topk", "--weighted", "--snapshot-in", &path],
            vec!["merge", &path, &path],
        ] {
            fails_with(&hh(&args, ""), "corrupt snapshot");
        }
        std::fs::remove_file(path).ok();
    }
}

/// A seeded stream of multiples of 0.5: every weight and sum is exact in
/// `f64` too, so an earlier release's output is the reference.
fn half_units() -> String {
    let mut x = 7u64;
    let mut out = String::new();
    for _ in 0..3000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let item = (x >> 33) % 97;
        let item = if item.is_multiple_of(3) {
            item * item % 97
        } else {
            item % 23
        };
        let halves = (x >> 13) % 40 + 1;
        let weight = if halves.is_multiple_of(2) {
            (halves / 2).to_string()
        } else {
            format!("{}.5", halves / 2)
        };
        out.push_str(&format!("k{item} {weight}\n"));
    }
    out
}

/// One output's rows with the order inside runs of equal weights dropped
/// (`weights` keeps the order of the runs), and the upper bound of an
/// unstored item's row taken out (`unstored`, in order).
struct Canonical {
    header: String,
    weights: Vec<String>,
    rows: Vec<String>,
    unstored: Vec<f64>,
}

fn canonical(output: &str) -> Canonical {
    let (header, rows): (String, Vec<String>) = match output.strip_prefix('[') {
        Some(json) => {
            let json = json.trim_end().trim_end_matches(']');
            let rows = json.split("},{").map(str::to_string).collect();
            (String::new(), rows)
        }
        None => {
            let mut lines = output.lines().map(str::to_string);
            (lines.next().unwrap_or_default(), lines.collect())
        }
    };
    let (mut weights, mut kept, mut unstored) = (Vec::new(), Vec::new(), Vec::new());
    for row in rows {
        let row = row.replace("..", " ");
        let fields: Vec<&str> = row
            .split([' ', ',', ':', '[', ']', '"', '{', '}', '='])
            .filter(|f| !f.is_empty())
            .collect();
        let numbers: Vec<&str> = fields
            .iter()
            .copied()
            .filter(|f| f.parse::<f64>().is_ok())
            .collect();
        weights.push(numbers.first().copied().unwrap_or_default().to_string());
        // an estimate of 0 with bounds [0, upper]: an item the summary does not store
        if numbers.len() == 3 && numbers[..2].iter().all(|n| n.parse::<f64>() == Ok(0.0)) {
            unstored.push(numbers[2].parse().unwrap());
            kept.push(fields[..fields.len() - 1].join(" "));
        } else {
            kept.push(fields.join(" "));
        }
    }
    kept.sort();
    Canonical {
        header,
        weights,
        rows: kept,
        unstored,
    }
}

#[test]
fn half_unit_weights_answer_as_the_floating_point_release_did() {
    let golden = include_str!("golden/half_units_f64_release.txt");
    let stream = file("half-units.txt", &half_units());
    let mut sections = golden.split("== ").filter(|s| !s.is_empty());
    let mut byte_identical = 0;
    for section in &mut sections {
        let (args, expected) = section.split_once(" ==\n").unwrap();
        let mut argv: Vec<&str> = args.split(' ').collect();
        argv.push(&stream);
        let actual = stdout(&hh(&argv, ""));
        if actual == expected {
            byte_identical += 1;
            continue;
        }
        // Two intended differences: rows of equal weight list in the
        // summary's bucket order (not by item), and an unstored
        // SpaceSaving item's upper bound is the minimum counter, no longer
        // the total weight.
        let (a, e) = (canonical(&actual), canonical(expected));
        assert_eq!(
            (&a.header, &a.weights, &a.rows),
            (&e.header, &e.weights, &e.rows),
            "{args}"
        );
        assert_eq!(a.unstored.len(), e.unstored.len(), "{args}");
        for (new, old) in a.unstored.iter().zip(&e.unstored) {
            assert!(new <= old, "{args}: {new} > {old}");
        }
    }
    assert!(
        byte_identical >= 10,
        "{byte_identical} of 16 byte-identical"
    );
    std::fs::remove_file(stream).ok();
}
