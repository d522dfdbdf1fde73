//! `Key` against `String`: every property a summary, a shard router or a
//! snapshot reads must agree between a `Key` and the `String` with the
//! same text, over arbitrary UTF-8 of 0..=64 bytes — across the 22/23-byte
//! boundary between inline and boxed keys.

use std::hash::BuildHasher;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use hh::counters::fasthash::FxBuildHasher;
use hh::engine::{AlgoKind, EngineConfig};
use hh::pipeline::hash_shard;
use hh::prelude::Key;

/// Characters of every UTF-8 width (1, 2, 3 and 4 bytes), plus the ones
/// JSON escapes.
const PALETTE: &[char] = &[
    'a', 'b', 'z', '0', '"', '\\', '\n', '\t', '\u{1}', 'é', 'ß', 'Ж', '語', '€', '😀', '𝄞',
];

/// Text of 0..=64 bytes from palette picks (the length is drawn first,
/// so lengths on both sides of the inline limit come up often).
fn text(rng: &mut TestRng) -> String {
    let max_len = (0usize..=64).generate(rng);
    let mut s = String::new();
    loop {
        let c = PALETTE[(0..PALETTE.len()).generate(rng)];
        if s.len() + c.len_utf8() > max_len {
            return s;
        }
        s.push(c);
    }
}

/// Two texts; half the time the second starts with a prefix of the
/// first, so orderings are also decided deep into the bytes.
struct TextPair;

impl Strategy for TextPair {
    type Value = (String, String);

    fn generate(&self, rng: &mut TestRng) -> (String, String) {
        let a = text(rng);
        let mut b = text(rng);
        if (0..2u8).generate(rng) == 0 {
            let mut keep = (0..=a.len()).generate(rng);
            while !a.is_char_boundary(keep) {
                keep -= 1;
            }
            b = format!("{}{b}", &a[..keep]);
        }
        (a, b)
    }
}

/// A stream of short and long texts for the summary comparison.
struct TextStream;

impl Strategy for TextStream {
    type Value = Vec<String>;

    fn generate(&self, rng: &mut TestRng) -> Vec<String> {
        // A small vocabulary, so items repeat and counters compete.
        let vocab: Vec<String> = (0..40).map(|_| text(rng)).collect();
        let len = (1usize..400).generate(rng);
        (0..len)
            .map(|_| vocab[(0..vocab.len()).generate(rng)].clone())
            .collect()
    }
}

fn fx(v: impl std::hash::Hash) -> u64 {
    FxBuildHasher::default().hash_one(v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn key_agrees_with_string(pair in TextPair) {
        let (a, b) = pair;
        let (ka, kb) = (Key::from(a.as_str()), Key::from(b.as_str()));
        prop_assert_eq!(ka.as_str(), a.as_str());
        prop_assert_eq!(kb.as_str(), b.as_str());
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(fx(&ka), fx(&a));
        prop_assert_eq!(fx(&kb), fx(&b));
        for shards in [2, 3, 4, 7] {
            prop_assert_eq!(hash_shard(shards, &ka), hash_shard(shards, &a));
        }
        prop_assert_eq!(ka.to_string(), a.clone());
        prop_assert_eq!(format!("{ka:?}"), format!("{a:?}"));
        let json = serde_json::to_string(&ka).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&a).unwrap());
        let back: Key = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, ka);
        let parsed: Key = a.parse().unwrap();
        prop_assert_eq!(parsed, ka);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A summary over `Key`s is the summary over the same `String`s:
    /// same entries in the same order, and snapshots that read back as
    /// either type.
    #[test]
    fn summaries_over_keys_equal_summaries_over_strings(
        strings in TextStream,
        algo in 0usize..2,
    ) {
        let algo = [AlgoKind::SpaceSaving, AlgoKind::Frequent][algo];
        let keys: Vec<Key> = strings.iter().map(|s| Key::from(s.as_str())).collect();
        let config = EngineConfig::new(algo).counters(16);
        let mut by_string = config.build::<String>().unwrap();
        let mut by_key = config.build::<Key>().unwrap();
        by_string.update_batch(&strings);
        by_key.update_batch(&keys);
        let key_rows: Vec<(String, u64)> =
            by_key.entries().into_iter().map(|(k, c)| (k.to_string(), c)).collect();
        prop_assert_eq!(key_rows, by_string.entries());
        let json = by_key.to_json();
        prop_assert_eq!(&json, &by_string.to_json());
        let as_string = hh::engine::Engine::<String>::from_json(&json).unwrap();
        prop_assert_eq!(as_string.entries(), by_string.entries());
    }
}
