//! The wire formats byte for byte: one `Snapshot` per variant, a 3-shard
//! `hhckpt` envelope and the served records that embed items, against
//! goldens in `tests/golden/`. Encoding must reproduce each golden
//! exactly, and decoding it must give back the value it was made from.
//!
//! The items cover every string the encoder escapes or copies — non-ASCII
//! text, `"`, `\`, a control character, a key past the 22-byte inline
//! limit, the empty string — and the numbers cover `u64::MAX`,
//! `i64::MIN` and the `f64` value `0.1`. Snapshots of floating-point
//! weights from earlier releases (`space_saving_r`, `frequent_r`) are kept
//! as legacy fixtures: each decodes to a typed corrupt-snapshot error.

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hh::engine::{
    AlgoKind, CountMinState, CountSketchState, Engine, EngineConfig, FrequentState,
    LossyCountingState, Snapshot, SpaceSavingState, StickySamplingState, CS_HASH_REV,
};
use hh::net::checkpoint::{self, Checkpoint};
use hh::net::proto;
use hh::prelude::Key;
use hh::Error;

const NON_ASCII: &str = "naïve 語 😀";
const QUOTE: &str = "say \"hi\"";
const BACKSLASH: &str = "C:\\dir\\file";
const UNIT_SEP: &str = "a\u{1f}b";
const CONTROL: &str = "tab\tnl\ncr\r";
const LONG: &str = "a key well over twenty-two bytes long";
const EMPTY: &str = "";

fn k(s: &str) -> Key {
    Key::from(s)
}

fn space_saving(stream_len: u64, entries: &[(&str, u64, u64)]) -> Snapshot<Key> {
    Snapshot::SpaceSaving(SpaceSavingState {
        capacity: 8,
        stream_len,
        absorbed_slack: 2,
        entries: entries.iter().map(|&(s, c, e)| (k(s), c, e)).collect(),
    })
}

/// One snapshot of every variant, named by its wire tag.
fn snapshots() -> Vec<(&'static str, Snapshot<Key>)> {
    vec![
        (
            "space_saving",
            space_saving(
                u64::MAX,
                &[(NON_ASCII, 40, 0), (QUOTE, 30, 1), (BACKSLASH, 20, 2)],
            ),
        ),
        (
            "frequent",
            Snapshot::Frequent(FrequentState {
                capacity: 4,
                stream_len: 100,
                decrements: 7,
                entries: vec![(k(UNIT_SEP), 9), (k(EMPTY), 3)],
            }),
        ),
        (
            "lossy_counting",
            Snapshot::LossyCounting(LossyCountingState {
                width: 10,
                window: 5,
                stream_len: 50,
                max_table: 6,
                entries: vec![(k(LONG), 12, 3), (k(CONTROL), 1, 4)],
            }),
        ),
        (
            "sticky_sampling",
            Snapshot::StickySampling(StickySamplingState {
                epsilon: 0.1,
                window: 20,
                rate: 2,
                until_double: 17,
                rng_state: u64::MAX,
                stream_len: 123,
                max_table: 9,
                entries: vec![(k("s"), 4), (k(NON_ASCII), 2)],
            }),
        ),
        (
            "count_min",
            Snapshot::CountMin(CountMinState {
                depth: 2,
                width: 3,
                seed: 42,
                conservative: true,
                stream_len: 6,
                cells: vec![1, 2, 3, 0, 5, u64::MAX],
                candidates: vec![k(QUOTE), k(EMPTY)],
                cap: 4,
            }),
        ),
        (
            "count_sketch",
            Snapshot::CountSketch(CountSketchState {
                depth: 2,
                width: 2,
                seed: 9,
                hash_rev: CS_HASH_REV,
                stream_len: 5,
                cells: vec![-3, 4, i64::MIN, 0],
                candidates: vec![k(LONG)],
                cap: 2,
            }),
        ),
        (
            "space_saving_weighted",
            Snapshot::WeightedSpaceSaving(SpaceSavingState {
                capacity: 4,
                stream_len: u64::MAX,
                absorbed_slack: 1,
                entries: vec![(k(LONG), 123_456_789, 0), (k(BACKSLASH), 100, 1)],
            }),
        ),
        (
            "frequent_weighted",
            Snapshot::WeightedFrequent(FrequentState {
                capacity: 2,
                stream_len: 123_456_789,
                decrements: 1,
                entries: vec![(k(UNIT_SEP), 2_500)],
            }),
        ),
    ]
}

fn golden_snapshot(tag: &str) -> &'static str {
    match tag {
        "space_saving" => include_str!("golden/snapshot_space_saving.json"),
        "frequent" => include_str!("golden/snapshot_frequent.json"),
        "lossy_counting" => include_str!("golden/snapshot_lossy_counting.json"),
        "sticky_sampling" => include_str!("golden/snapshot_sticky_sampling.json"),
        "count_min" => include_str!("golden/snapshot_count_min.json"),
        "count_sketch" => include_str!("golden/snapshot_count_sketch.json"),
        "space_saving_weighted" => include_str!("golden/snapshot_space_saving_weighted.json"),
        "frequent_weighted" => include_str!("golden/snapshot_frequent_weighted.json"),
        other => panic!("no golden for {other}"),
    }
}

fn three_shards() -> Checkpoint<Key> {
    Checkpoint {
        shards: vec![
            space_saving(7, &[(NON_ASCII, 4, 0), (EMPTY, 3, 0)]),
            space_saving(5, &[(LONG, 5, 0)]),
            space_saving(3, &[(UNIT_SEP, 2, 1), (QUOTE, 1, 0), (BACKSLASH, 1, 1)]),
        ],
        unobserved: 11,
    }
}

#[test]
fn every_snapshot_variant_encodes_to_its_golden_and_back() {
    for (tag, snap) in snapshots() {
        let golden = golden_snapshot(tag);
        let json = serde_json::to_string(&snap).unwrap();
        assert_eq!(json, golden, "{tag}");
        assert!(golden.starts_with(&format!("{{\"algo\":\"{tag}\",\"state\":{{")));
        let back: Snapshot<Key> = serde_json::from_str(golden).unwrap();
        assert_eq!(back, snap, "{tag}");
        // A String summary reads the same bytes.
        let strings: Snapshot<String> = serde_json::from_str(golden).unwrap();
        assert_eq!(serde_json::to_string(&strings).unwrap(), golden, "{tag}");
        // The state may come before its tag; the tag may not come twice.
        let head = format!("{{\"algo\":\"{tag}\",\"state\":");
        let state = &golden[head.len()..golden.len() - 1];
        let reordered = format!("{{\"state\":{state},\"algo\":\"{tag}\"}}");
        let back: Snapshot<Key> = serde_json::from_str(&reordered).unwrap();
        assert_eq!(back, snap, "{tag}");
        let twice = golden.replacen(
            &head,
            &format!("{head}{state},\"algo\":\"{tag}\",\"x\":"),
            1,
        );
        let err = serde_json::from_str::<Snapshot<Key>>(&twice).unwrap_err();
        assert_eq!(err.to_string(), "duplicate field `algo`", "{tag}");
    }
}

/// Floating-point weight snapshots of earlier releases, including one of
/// integral weights (`"total_weight":10`), which read as thousandths would
/// silently lose a factor of 1000.
const LEGACY: [&str; 3] = [
    include_str!("golden/snapshot_space_saving_r.json"),
    include_str!("golden/snapshot_frequent_r.json"),
    include_str!("golden/snapshot_space_saving_r_integral.json"),
];

#[test]
fn legacy_weight_snapshots_are_typed_corrupt_snapshots() {
    for legacy in LEGACY {
        let err = Engine::<Key>::from_json(legacy).unwrap_err();
        assert!(
            matches!(&err, Error::CorruptSnapshot(m) if m.contains("floating-point weights")),
            "{legacy}: {err}"
        );
        // the same through a CRC-valid envelope, as `hh` reads files
        let crc = checkpoint::crc32(format!("[{legacy}]").as_bytes());
        let envelope = format!(
            "{} v1 crc={crc:08x} len={} shards=1 unobserved=0\n[{legacy}]",
            checkpoint::MAGIC,
            legacy.len() + 2
        );
        let err = checkpoint::decode::<Key>(&envelope).unwrap_err();
        assert!(matches!(err, Error::CorruptSnapshot(_)), "{legacy}: {err}");
    }
}

#[test]
fn three_shard_envelope_encodes_to_its_golden_and_back() {
    let golden = include_str!("golden/envelope_3_shards.hhckpt");
    let ckpt = three_shards();
    assert_eq!(checkpoint::encode(&ckpt).unwrap(), golden);
    assert_eq!(checkpoint::decode::<Key>(golden).unwrap(), ckpt);
}

/// The served records that embed items or reasons: a `"top"` cell and an
/// error record, one per line.
fn proto_records() -> String {
    let mut e = EngineConfig::new(AlgoKind::SpaceSaving)
        .counters(8)
        .build::<Key>()
        .unwrap();
    let stream = [
        QUOTE, QUOTE, QUOTE, NON_ASCII, NON_ASCII, BACKSLASH, UNIT_SEP, LONG, EMPTY,
    ];
    e.update_batch(&stream.map(k));
    e.add_unobserved(3);
    [
        proto::top_json(&e, 6).unwrap(),
        proto::error_record("bad \"count\"\tnear \\ é", 12),
    ]
    .join("\n")
}

#[test]
fn served_records_encode_to_their_goldens() {
    assert_eq!(proto_records(), include_str!("golden/proto_records.ndjson"));
}

/// Text of 0..=48 chars drawn from every UTF-8 width, the characters
/// JSON escapes, and the whole control range.
fn text(rng: &mut TestRng) -> String {
    let len = (0usize..=48).generate(rng);
    (0..len)
        .map(|_| match (0u8..4).generate(rng) {
            0 => char::from_u32((0u32..0x20).generate(rng)).unwrap(),
            1 => ['"', '\\', '/', '\u{7f}', 'é', '€'][(0usize..6).generate(rng)],
            2 => char::from((0x20u8..0x7f).generate(rng)),
            _ => loop {
                if let Some(c) = char::from_u32((0x80u32..=0x10ffff).generate(rng)) {
                    break c;
                }
            },
        })
        .collect()
}

struct Texts;

impl Strategy for Texts {
    type Value = Vec<String>;

    fn generate(&self, rng: &mut TestRng) -> Vec<String> {
        (0..(1usize..6).generate(rng)).map(|_| text(rng)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Arbitrary text round-trips as a `String`, as a `Key` and inside a
    /// summary's entry list, and a `Key` encodes like its `String`.
    #[test]
    fn strings_and_keys_round_trip(texts in Texts) {
        for s in &texts {
            let json = serde_json::to_string(s).unwrap();
            prop_assert_eq!(&serde_json::from_str::<String>(&json).unwrap(), s);
            prop_assert_eq!(&serde_json::to_string(&k(s)).unwrap(), &json);
            prop_assert_eq!(serde_json::from_str::<Key>(&json).unwrap(), k(s));
        }
        let entries: Vec<(Key, u64)> = texts.iter().map(|s| (k(s), s.len() as u64)).collect();
        let json = serde_json::to_string(&entries).unwrap();
        prop_assert_eq!(serde_json::from_str::<Vec<(Key, u64)>>(&json).unwrap(), entries);
    }
}
