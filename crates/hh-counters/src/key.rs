//! [`Key`]: a text item that stores short keys inline.
//!
//! A `String` item costs a heap allocation wherever it is created or
//! cloned: when a line is parsed, when a batch is routed to a shard, when
//! a counter takes the item over. On a served stream that allocation,
//! and the free on another thread, costs more than the counter update it
//! feeds. A `Key` holds up to 22 bytes in place — the size of a `String`
//! — so creating, cloning and dropping a short key never touches the
//! allocator; longer keys fall back to a `Box<str>`.
//!
//! A `Key` behaves exactly like the `String` with the same text:
//!
//! * `Eq` and `Ord` compare bytes, which is `str`'s order;
//! * `Hash` feeds the bytes and then `0xff`, which is what `str`'s `Hash`
//!   feeds, so a `Key` hashes — and routes to a shard — like its `String`;
//! * `Display` and `Debug` render like `str`;
//! * `Serialize`/`Deserialize` use a JSON string, so snapshots of `Key`
//!   and `String` summaries are interchangeable.
//!
//! ```
//! use hh_counters::key::Key;
//!
//! let k: Key = "alpha".parse().unwrap();
//! assert_eq!(k.as_str(), "alpha");
//! assert_eq!(k.to_string(), "alpha");
//! assert!(Key::from("alpha") < Key::from("beta"));
//! assert_eq!(std::mem::size_of::<Key>(), std::mem::size_of::<String>());
//! ```

use std::cmp::Ordering;
use std::convert::Infallible;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use serde::{Deserialize, Reader, Serialize};

/// Longest text stored inline: a one-byte length plus this many bytes
/// beside the enum tag keep a `Key` as small as a `String`.
const INLINE: usize = 22;

/// A text item, inline up to 22 bytes and boxed beyond. See the
/// [module docs](self) for the contract it shares with `String`.
///
/// The representation is canonical — text of at most 22 bytes is always
/// inline, with the unused bytes zeroed — so the derived equality is
/// byte equality.
#[derive(Clone, PartialEq, Eq)]
pub struct Key(Repr);

#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Key>() == std::mem::size_of::<String>());

impl Key {
    /// The key's text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // The inline bytes were copied whole from a `&str`, so they
            // are valid UTF-8 and the fallback is never taken.
            Repr::Inline { .. } => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            Repr::Heap(s) => s,
        }
    }

    /// The key's text as bytes.
    #[inline]
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            // `len <= INLINE` always; the `min` lets every inlined copy of
            // this slice drop its bounds-check panic branch.
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len).min(INLINE)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Inline text, or `None` when `s` is too long to store in place.
    #[inline]
    fn inline(s: &str) -> Option<Key> {
        let src = s.as_bytes();
        let len = u8::try_from(src.len())
            .ok()
            .filter(|&n| usize::from(n) <= INLINE)?;
        let mut bytes = [0u8; INLINE];
        bytes[..src.len()].copy_from_slice(src);
        Some(Key(Repr::Inline { len, bytes }))
    }
}

impl From<&str> for Key {
    #[inline]
    fn from(s: &str) -> Self {
        Key::inline(s).unwrap_or_else(|| Key(Repr::Heap(s.into())))
    }
}

impl FromStr for Key {
    type Err = Infallible;

    #[inline]
    fn from_str(s: &str) -> Result<Self, Infallible> {
        Ok(Key::from(s))
    }
}

impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// `Hash` and the accessors under it are `#[inline]` because `Key` is
// hashed in other crates (shard routing, batch aggregation), where an
// out-of-line `as_bytes` call costs more than the Fx hash itself.
impl Hash for Key {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `str`'s `Hash` through the default `Hasher::write_str`.
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Serialize for Key {
    fn serialize(&self, out: &mut String) {
        self.as_str().serialize(out);
    }
}

impl Deserialize for Key {
    /// Reads the string in place when it holds no escape, so a short key
    /// costs no allocation.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, serde::Error> {
        Ok(Key::from(&*r.string()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_keys_are_inline_and_long_keys_boxed() {
        let at = "a".repeat(INLINE);
        let over = "a".repeat(INLINE + 1);
        assert!(matches!(Key::from(at.as_str()).0, Repr::Inline { .. }));
        assert!(matches!(Key::from(over.as_str()).0, Repr::Heap(_)));
        assert_eq!(Key::from(at.as_str()).as_str(), at);
        assert_eq!(Key::from(over.as_str()).as_str(), over);
        assert_eq!(Key::from("").as_str(), "");
    }

    #[test]
    fn renders_like_str() {
        let k = Key::from("tab\there \"é\"");
        assert_eq!(format!("{k}"), "tab\there \"é\"");
        assert_eq!(format!("{k:?}"), format!("{:?}", "tab\there \"é\""));
        // Width and alignment pass through, as the CLI's tables rely on.
        assert_eq!(format!("{:<6}|", Key::from("ab")), format!("{:<6}|", "ab"));
    }

    #[test]
    fn deserialize_rejects_non_strings() {
        assert!(Key::deserialize(&mut Reader::new("7")).is_err());
        let k = Key::deserialize(&mut Reader::new("\"w\"")).unwrap();
        assert_eq!(k, Key::from("w"));
    }
}
