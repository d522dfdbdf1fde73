//! A small, fast, FxHash-style hasher for the hot item-index maps.
//!
//! SipHash (the `std` default) is unnecessarily slow for the integer-ish
//! keys our counter structures index by, and HashDoS resistance is
//! irrelevant for an in-process summary. This is the well-known Fx
//! multiply-rotate construction (as used by rustc), implemented in-crate to
//! avoid a dependency.

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx word-at-a-time hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add_to_hash(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if !bytes.is_empty() {
            self.add_to_hash(tail_word(bytes));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The 1..=7 trailing bytes of a `write`, zero-padded to a little-endian
/// word, built from one or two overlapping fixed-width loads instead of
/// a copy into a stack buffer (a `memcpy` call for the variable length).
/// Where the two loads overlap they carry the same bytes at the same
/// positions, so OR-ing them gives exactly the padded word.
#[inline]
fn tail_word(tail: &[u8]) -> u64 {
    debug_assert!((1..8).contains(&tail.len()), "a tail is 1..=7 bytes");
    let shift = |width: usize| 8 * (tail.len() - width);
    if let (Some(lo), Some(hi)) = (tail.first_chunk::<4>(), tail.last_chunk::<4>()) {
        u64::from(u32::from_le_bytes(*lo)) | u64::from(u32::from_le_bytes(*hi)) << shift(4)
    } else if let (Some(lo), Some(hi)) = (tail.first_chunk::<2>(), tail.last_chunk::<2>()) {
        u64::from(u16::from_le_bytes(*lo)) | u64::from(u16::from_le_bytes(*hi)) << shift(2)
    } else {
        tail.first().map_or(0, |&b| u64::from(b))
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("abc"), hash_one("abc"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_one(1u64), hash_one(2u64));
        assert_ne!(hash_one("a"), hash_one("b"));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // >=10k-op loop: too slow interpreted
    fn map_works_with_collisionsy_keys() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..10_000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m[&i], i * 2);
        }
    }

    /// The construction `write` must match: whole 8-byte words, then the
    /// tail copied into a zeroed buffer.
    fn reference_write(h: &mut FxHasher, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            h.add_to_hash(u64::from_le_bytes(word));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            h.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[test]
    fn write_matches_the_zero_padded_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut bytes = [0u8; 40];
        for round in 0..64 {
            for b in &mut bytes {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = (state >> 24) as u8;
            }
            for len in 0..=bytes.len() {
                let mut fast = FxHasher::default();
                fast.write(&bytes[..len]);
                let mut slow = FxHasher::default();
                reference_write(&mut slow, &bytes[..len]);
                assert_eq!(fast.finish(), slow.finish(), "round {round}, len {len}");
            }
        }
    }

    /// `hash_one` of every prefix of a 40-byte string, recorded from the
    /// `copy_from_slice` construction. Shard routing, batch aggregation
    /// and the counter index all key on these values, so they must not
    /// move.
    #[test]
    fn str_hashes_match_the_recorded_goldens() {
        const TEXT: &str = "abcdefghijklmnopqrstuvwxyz0123456789ABCD";
        #[rustfmt::skip]
        const GOLDEN: [u64; 41] = [
            0x2b44f56ffae88a6b, 0xaa44c3c5b8e22aff, 0x3326e72fb14cbfa7,
            0xfc799d93d812df66, 0x65fab557a3117e21, 0xe3657cf37f34e9fb,
            0xc37213407bef738c, 0x456c058742df1ee4, 0xdc23285da99c6aff,
            0x5d5247d4d678b8f9, 0x889b51a5132398b8, 0x027da59c57bccfa9,
            0xbfca222b4d22ef68, 0xb84ef8a7e9ab19bc, 0x76ad7dcd5f11397b,
            0x8c77a7806256afea, 0xbb5738a7e9ab19bc, 0x89a6d06da4d58d9e,
            0xb2f177885f438287, 0x2770e34ae54c562b, 0xb52528f4f671234a,
            0xf0e9d84c1d932ddf, 0xabf8e0dfe13d62c8, 0x60456b2acc09a246,
            0x0ec8a973a4e797b1, 0xc344809bf02769d2, 0x97fb76cbb37c8a13,
            0x2ff1399bb0166a54, 0xa9655afec98b7d76, 0x902a03e01b15090f,
            0x18b0c86da8f45fbf, 0x9779a597423713a4, 0xb71d52b893c09f3d,
            0xcd18cccbcdd4a4f5, 0x97980a721458c473, 0x60d1489c32019817,
            0xb5495ab1a38b23b0, 0x8419d53bcdf2a4b4, 0x38e622f50702f95c,
            0x922c30ae40134e04, 0xb525b41c8e57632e,
        ];
        for (len, &want) in GOLDEN.iter().enumerate() {
            assert_eq!(hash_one(&TEXT[..len]), want, "len {len}");
        }
    }

    #[test]
    fn handles_unaligned_byte_tails() {
        // 9 bytes exercises the chunk + remainder path
        let mut h = FxHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a, h2.finish());
    }
}
