//! The *Stream-Summary* data structure of Metwally et al. (the SPACESAVING
//! paper), generalized so it also backs our FREQUENT implementation.
//!
//! It maintains a set of `(item, count)` pairs organized as a doubly-linked
//! list of *buckets* in strictly increasing count order; each bucket holds a
//! doubly-linked FIFO of the entries sharing that exact count. This gives
//!
//! * O(1) `increment by 1` (move an entry to the adjacent bucket),
//! * O(1) `evict_min` (detach the oldest entry of the head bucket),
//! * O(1) amortized "decrement all by 1" for FREQUENT via an *offset* trick
//!   (bump a global offset, then pop head buckets whose raw count fell to
//!   the offset — each pop is charged to the insertion that created the
//!   entry).
//!
//! # Memory layout
//!
//! Both linked lists are index-based arenas (no `unsafe`), stored
//! *struct-of-arrays* along the hot/cold split an update actually has: the
//! per-entry **link record** (bucket id + FIFO links, 12 bytes) is one flat
//! array, the per-bucket **counts** another, the per-bucket link/FIFO
//! metadata a third — while the items themselves, their cold error
//! annotations and their hashes live out of line and are only read on
//! insert, eviction, lookup confirmation and snapshot. The item index is
//! a custom open-addressing `(tag, slot)` table
//! ([`crate::oaindex::RawIndex`]) instead of a general `HashMap`, so the
//! per-update probe is a single flat-array scan that never drags item
//! keys through the cache and never stalls on a rehash (see
//! `docs/PERFORMANCE.md`). Storing each entry's hash means an update
//! hashes its item at most once: the `_hashed` variants take the
//! caller's hash, and freeing an entry removes it from the index under
//! the stored one.
//!
//! # Tie-breaking discipline
//!
//! Within a bucket, entries form a FIFO: arrivals attach at the *front* and
//! `evict_min` removes from the *back*. Hence among entries with equal
//! count, the one whose count changed least recently is evicted first. The
//! reference pseudocode executors in [`crate::reference`] implement the same
//! rule, which is what makes exact state-conformance testing possible.

use std::hash::{BuildHasher, Hash};

use crate::fasthash::FxBuildHasher;
use crate::oaindex::RawIndex;

const NIL: u32 = u32::MAX;

/// Per-entry link record: everything an update touches about an entry, in
/// one 12-byte load.
#[derive(Debug, Clone, Copy)]
struct EntryLink {
    /// Bucket the entry belongs to.
    bucket: u32,
    /// Neighbour towards the front (more recently attached) of the bucket.
    prev: u32,
    /// Neighbour towards the back (least recently attached) of the bucket.
    next: u32,
}

const DETACHED: EntryLink = EntryLink {
    bucket: NIL,
    prev: NIL,
    next: NIL,
};

/// Per-bucket link/FIFO metadata (counts live in their own array so count
/// scans stay dense).
#[derive(Debug, Clone, Copy)]
struct BucketMeta {
    /// Bucket with the next smaller count.
    prev: u32,
    /// Bucket with the next larger count.
    next: u32,
    /// Most recently attached entry.
    front: u32,
    /// Least recently attached entry.
    back: u32,
    /// Number of entries in the bucket.
    len: u32,
}

const EMPTY_BUCKET: BucketMeta = BucketMeta {
    prev: NIL,
    next: NIL,
    front: NIL,
    back: NIL,
    len: 0,
};

/// A snapshot row: `(item, raw_count, err)`.
pub type SummaryEntry<I> = (I, u64, u64);

/// Bucket-list counter collection with O(1) increment/evict-min.
///
/// Counts stored here are *raw*; wrappers like FREQUENT may interpret them
/// relative to an offset. All operations preserve the invariant that bucket
/// counts are strictly increasing from head to tail and every entry lives in
/// exactly one bucket.
#[derive(Debug, Clone)]
pub struct StreamSummary<I> {
    // ---- entry arenas (parallel arrays indexed by entry id) ----
    /// Item payloads, out of line from the hot link arrays. `None` only
    /// while the slot sits on the free list.
    items: Vec<Option<I>>,
    /// Error annotation carried with each entry (SPACESAVING stores the
    /// evicted count here; FREQUENT stores the offset at insertion). Cold:
    /// read only on eviction, merge and snapshot.
    eerr: Vec<u64>,
    /// Each entry's item hash, kept so that freeing an entry removes it
    /// from the index without hashing the item again.
    ehash: Vec<u64>,
    /// Hot per-entry link records.
    elink: Vec<EntryLink>,
    free_entries: Vec<u32>,
    // ---- bucket arenas (parallel arrays indexed by bucket id) ----
    /// Raw count shared by every entry in the bucket.
    bcount: Vec<u64>,
    /// Bucket list/FIFO metadata.
    bmeta: Vec<BucketMeta>,
    free_buckets: Vec<u32>,
    head: u32,
    tail: u32,
    /// Open-addressing item index: item hash → entry id.
    index: RawIndex,
    hasher: FxBuildHasher,
    len: usize,
    /// Running sum of all raw counts (cheap `F1`-style invariant checks).
    counter_sum: u64,
}

impl<I: Eq + Hash + Clone> Default for StreamSummary<I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<I: Eq + Hash + Clone> StreamSummary<I> {
    /// Creates an empty summary.
    pub fn new() -> Self {
        StreamSummary {
            items: Vec::new(),
            eerr: Vec::new(),
            ehash: Vec::new(),
            elink: Vec::new(),
            free_entries: Vec::new(),
            bcount: Vec::new(),
            bmeta: Vec::new(),
            free_buckets: Vec::new(),
            head: NIL,
            tail: NIL,
            index: RawIndex::default(),
            hasher: FxBuildHasher::default(),
            len: 0,
            counter_sum: 0,
        }
    }

    /// Creates an empty summary with capacity pre-allocated for `m` entries
    /// (the index is sized so it never rehashes while at most `m` items are
    /// stored).
    pub fn with_capacity(m: usize) -> Self {
        let mut s = Self::new();
        s.items.reserve(m);
        s.eerr.reserve(m);
        s.ehash.reserve(m);
        s.elink.reserve(m);
        s.bcount.reserve(m + 1);
        s.bmeta.reserve(m + 1);
        s.index = RawIndex::with_capacity(m);
        s
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all raw counts.
    pub fn counter_sum(&self) -> u64 {
        self.counter_sum
    }

    /// The hash the index keys `item` by. Callers that both probe and
    /// insert compute it once and pass it to the `_hashed` variants.
    #[inline]
    pub(crate) fn hash_of(&self, item: &I) -> u64 {
        self.hasher.hash_one(item)
    }

    /// Index probe: entry id of `item`, if stored.
    #[inline]
    fn find(&self, item: &I) -> Option<u32> {
        self.find_hashed(self.hash_of(item), item)
    }

    /// [`Self::find`] with `hash == self.hash_of(item)` already computed.
    #[inline]
    fn find_hashed(&self, hash: u64, item: &I) -> Option<u32> {
        let items = &self.items;
        self.index
            .get(hash, |e| items[e as usize].as_ref() == Some(item))
    }

    /// Whether `item` is stored.
    pub fn contains(&self, item: &I) -> bool {
        self.find(item).is_some()
    }

    /// Raw count of `item`, if stored.
    pub fn count(&self, item: &I) -> Option<u64> {
        self.find(item)
            .map(|e| self.bcount[self.elink[e as usize].bucket as usize])
    }

    /// Error annotation of `item`, if stored.
    pub fn err(&self, item: &I) -> Option<u64> {
        self.find(item).map(|e| self.eerr[e as usize])
    }

    /// Smallest raw count currently stored.
    pub fn min_count(&self) -> Option<u64> {
        if self.head == NIL {
            None
        } else {
            Some(self.bcount[self.head as usize])
        }
    }

    // ---- arena plumbing -------------------------------------------------

    fn alloc_entry(&mut self, item: I, hash: u64, err: u64) -> u32 {
        if let Some(idx) = self.free_entries.pop() {
            self.items[idx as usize] = Some(item);
            self.eerr[idx as usize] = err;
            self.ehash[idx as usize] = hash;
            self.elink[idx as usize] = DETACHED;
            idx
        } else {
            // lint:allow(lossy-cast) in-range: entry slots are bounded by the summary capacity m, and the SoA link records are 32-bit by design — a summary would exhaust memory long before 2^32 entries
            let idx = self.items.len() as u32;
            self.items.push(Some(item));
            self.eerr.push(err);
            self.ehash.push(hash);
            self.elink.push(DETACHED);
            idx
        }
    }

    /// Frees detached entry `e`: drops it from the index under its stored
    /// hash and returns its item.
    fn free_entry(&mut self, e: u32) -> I {
        // lint:allow(panic-freedom) unreachable: callers pass entries reached via live bucket links, and linked entries always hold their item (SoA invariant)
        let item = self.items[e as usize].take().expect("freeing a live entry");
        self.index.remove(self.ehash[e as usize], |v| v == e);
        self.elink[e as usize] = DETACHED;
        self.free_entries.push(e);
        self.len -= 1;
        item
    }

    fn alloc_bucket(&mut self, count: u64) -> u32 {
        if let Some(idx) = self.free_buckets.pop() {
            self.bcount[idx as usize] = count;
            self.bmeta[idx as usize] = EMPTY_BUCKET;
            idx
        } else {
            // lint:allow(lossy-cast) in-range: live buckets never exceed live entries, which are bounded by the u32-wide SoA design (see alloc_entry)
            let idx = self.bcount.len() as u32;
            self.bcount.push(count);
            self.bmeta.push(EMPTY_BUCKET);
            idx
        }
    }

    /// Links bucket `b` immediately before `next_b` (or at the very end when
    /// `next_b == NIL`).
    fn link_bucket_before(&mut self, b: u32, next_b: u32) {
        let prev_b = if next_b == NIL {
            self.tail
        } else {
            self.bmeta[next_b as usize].prev
        };
        self.bmeta[b as usize].prev = prev_b;
        self.bmeta[b as usize].next = next_b;
        if prev_b == NIL {
            self.head = b;
        } else {
            self.bmeta[prev_b as usize].next = b;
        }
        if next_b == NIL {
            self.tail = b;
        } else {
            self.bmeta[next_b as usize].prev = b;
        }
    }

    fn unlink_bucket(&mut self, b: u32) {
        let BucketMeta { prev, next, .. } = self.bmeta[b as usize];
        debug_assert_eq!(
            self.bmeta[b as usize].len, 0,
            "only empty buckets are unlinked"
        );
        if prev == NIL {
            self.head = next;
        } else {
            self.bmeta[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.bmeta[next as usize].prev = prev;
        }
        self.free_buckets.push(b);
    }

    /// Attaches entry `e` at the front of bucket `b`.
    #[inline]
    fn attach_front(&mut self, e: u32, b: u32) {
        let old_front = self.bmeta[b as usize].front;
        self.elink[e as usize] = EntryLink {
            bucket: b,
            prev: NIL,
            next: old_front,
        };
        if old_front != NIL {
            self.elink[old_front as usize].prev = e;
        } else {
            self.bmeta[b as usize].back = e;
        }
        self.bmeta[b as usize].front = e;
        self.bmeta[b as usize].len += 1;
    }

    /// Detaches entry `e` from its bucket; does *not* remove the bucket even
    /// if it becomes empty (callers may still need it as a list anchor).
    /// The entry's own link record is left stale — every caller either
    /// re-attaches (overwriting it) or frees the entry.
    #[inline]
    fn detach(&mut self, e: u32) {
        let EntryLink {
            bucket: b,
            prev,
            next,
        } = self.elink[e as usize];
        if prev == NIL {
            self.bmeta[b as usize].front = next;
        } else {
            self.elink[prev as usize].next = next;
        }
        if next == NIL {
            self.bmeta[b as usize].back = prev;
        } else {
            self.elink[next as usize].prev = prev;
        }
        self.bmeta[b as usize].len -= 1;
    }

    /// Finds the bucket holding exactly `count`, creating one in order if it
    /// does not exist. `start` is a bucket known to have `bucket.count <
    /// count` (or `NIL` to scan from the head); the walk is O(1) for the +1
    /// increments that dominate streaming workloads.
    fn bucket_at(&mut self, count: u64, start: u32) -> u32 {
        let mut cur = if start == NIL { self.head } else { start };
        while cur != NIL && self.bcount[cur as usize] < count {
            cur = self.bmeta[cur as usize].next;
        }
        if cur != NIL && self.bcount[cur as usize] == count {
            cur
        } else {
            let b = self.alloc_bucket(count);
            self.link_bucket_before(b, cur);
            b
        }
    }

    // ---- public mutators -------------------------------------------------

    /// Inserts a new `item` with the given raw `count` and `err` annotation.
    ///
    /// Panics in debug builds if the item is already stored.
    pub fn insert(&mut self, item: I, count: u64, err: u64) {
        self.insert_hashed(self.hash_of(&item), item, count, err);
    }

    /// [`Self::insert`] with `hash == self.hash_of(&item)` already
    /// computed.
    pub(crate) fn insert_hashed(&mut self, hash: u64, item: I, count: u64, err: u64) {
        debug_assert_eq!(hash, self.hash_of(&item), "insert under a foreign hash");
        debug_assert!(!self.contains(&item), "insert of an already-stored item");
        let e = self.alloc_entry(item, hash, err);
        let b = self.bucket_at(count, NIL);
        self.attach_front(e, b);
        self.index.insert(hash, e);
        self.len += 1;
        self.counter_sum += count;
    }

    /// Adds `extra` to `item`'s error annotation (returns `false` when the
    /// item is not stored). Counts and bucket order are untouched — used by
    /// the snapshot-merge path, where an absorbed counter carries its own
    /// overcount bound.
    pub fn add_err(&mut self, item: &I, extra: u64) -> bool {
        let Some(e) = self.find(item) else {
            return false;
        };
        self.eerr[e as usize] += extra;
        true
    }

    /// Increases `item`'s raw count by `by` (returns `false` when the item
    /// is not stored). O(1) for `by == 1`; for larger `by` the cost is the
    /// number of distinct counts skipped over.
    // lint:hot-path
    pub fn increment(&mut self, item: &I, by: u64) -> bool {
        self.increment_hashed(self.hash_of(item), item, by)
    }

    /// [`Self::increment`] with `hash == self.hash_of(item)` already
    /// computed.
    // lint:hot-path
    pub(crate) fn increment_hashed(&mut self, hash: u64, item: &I, by: u64) -> bool {
        let Some(e) = self.find_hashed(hash, item) else {
            return false;
        };
        if by == 0 {
            return true;
        }
        self.counter_sum += by;
        let b = self.elink[e as usize].bucket;
        let new_count = self.bcount[b as usize] + by;
        let BucketMeta { len, next, .. } = self.bmeta[b as usize];
        // In-place bump: sole occupant and the next bucket (if any) is still
        // strictly larger. Keeps the hot path allocation-free.
        if len == 1 && (next == NIL || self.bcount[next as usize] > new_count) {
            self.bcount[b as usize] = new_count;
            return true;
        }
        // Common streaming case: the exact target bucket is the immediate
        // neighbour (`+1` increments with both counts populated).
        self.detach(e);
        let target = if next != NIL && self.bcount[next as usize] == new_count {
            next
        } else {
            self.bucket_at(new_count, b)
        };
        self.attach_front(e, target);
        if self.bmeta[b as usize].len == 0 {
            self.unlink_bucket(b);
        }
        true
    }

    /// Removes and returns the minimum entry — the *least recently updated*
    /// among those with the smallest raw count (FIFO within the bucket).
    pub fn evict_min(&mut self) -> Option<SummaryEntry<I>> {
        if self.head == NIL {
            return None;
        }
        let b = self.head;
        let e = self.bmeta[b as usize].back;
        debug_assert_ne!(e, NIL, "head bucket cannot be empty");
        let count = self.bcount[b as usize];
        self.detach(e);
        if self.bmeta[b as usize].len == 0 {
            self.unlink_bucket(b);
        }
        let err = self.eerr[e as usize];
        let item = self.free_entry(e);
        self.counter_sum -= count;
        Some((item, count, err))
    }

    /// Removes a specific item, returning its `(raw_count, err)`.
    pub fn remove(&mut self, item: &I) -> Option<(u64, u64)> {
        let e = self.find(item)?;
        let b = self.elink[e as usize].bucket;
        let count = self.bcount[b as usize];
        self.detach(e);
        if self.bmeta[b as usize].len == 0 {
            self.unlink_bucket(b);
        }
        let err = self.eerr[e as usize];
        self.free_entry(e);
        self.counter_sum -= count;
        Some((count, err))
    }

    /// Removes every entry whose raw count is `<= threshold`, dropping the
    /// removed items in place. This is FREQUENT's "drop zeroed counters"
    /// step under the offset interpretation; amortized O(1) per removed
    /// entry.
    pub fn drop_le(&mut self, threshold: u64) {
        while self.head != NIL && self.bcount[self.head as usize] <= threshold {
            let b = self.head;
            let count = self.bcount[b as usize];
            let mut e = self.bmeta[b as usize].front;
            while e != NIL {
                let next = self.elink[e as usize].next;
                self.detach(e);
                self.free_entry(e);
                self.counter_sum -= count;
                e = next;
            }
            self.unlink_bucket(b);
        }
    }

    /// Snapshot of all entries in ascending count order (FIFO order within a
    /// bucket: oldest first).
    pub fn snapshot_asc(&self) -> Vec<SummaryEntry<I>> {
        let mut out = Vec::with_capacity(self.len);
        let mut b = self.head;
        while b != NIL {
            let count = self.bcount[b as usize];
            let mut e = self.bmeta[b as usize].back;
            while e != NIL {
                out.push((
                    // lint:allow(panic-freedom) unreachable: the walk follows live bucket links, and linked entries always hold their item (SoA invariant)
                    self.items[e as usize].clone().expect("live entry"),
                    count,
                    self.eerr[e as usize],
                ));
                e = self.elink[e as usize].prev;
            }
            b = self.bmeta[b as usize].next;
        }
        out
    }

    /// Snapshot in descending count order: exactly the reverse of
    /// [`StreamSummary::snapshot_asc`], produced by walking the lists
    /// backwards instead of reversing.
    pub fn snapshot_desc(&self) -> Vec<SummaryEntry<I>> {
        let mut out = Vec::with_capacity(self.len);
        self.while_desc(|item, count, err| {
            out.push((item.clone(), count, err));
            true
        });
        out
    }

    /// Visits entries in descending count order (the
    /// [`StreamSummary::snapshot_desc`] order) without cloning items or
    /// allocating, until `f` returns `false` — so reading the `k` largest
    /// entries walks `k` entries, not the whole summary. The primitive
    /// behind SPACESAVING's and FREQUENT's `top_entries_into`.
    pub fn while_desc(&self, mut f: impl FnMut(&I, u64, u64) -> bool) {
        let mut b = self.tail;
        while b != NIL {
            let count = self.bcount[b as usize];
            let mut e = self.bmeta[b as usize].front;
            while e != NIL {
                let more = f(
                    // lint:allow(panic-freedom) unreachable: the walk follows live bucket links, and linked entries always hold their item (SoA invariant)
                    self.items[e as usize].as_ref().expect("live entry"),
                    count,
                    self.eerr[e as usize],
                );
                if !more {
                    return;
                }
                e = self.elink[e as usize].next;
            }
            b = self.bmeta[b as usize].prev;
        }
    }

    /// Exhaustive structural self-check used by the property tests: list
    /// linkage, strict bucket ordering, index agreement, `len` and
    /// `counter_sum` bookkeeping.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        self.index.check_invariants();
        let mut seen_entries = 0usize;
        let mut sum = 0u64;
        let mut b = self.head;
        let mut prev_b = NIL;
        let mut prev_count: Option<u64> = None;
        while b != NIL {
            assert_eq!(self.bmeta[b as usize].prev, prev_b, "bucket back-link");
            let count = self.bcount[b as usize];
            if let Some(pc) = prev_count {
                assert!(count > pc, "bucket counts strictly increasing");
            }
            assert!(
                self.bmeta[b as usize].len > 0,
                "no empty buckets in the list"
            );
            // walk entries front -> back
            let mut e = self.bmeta[b as usize].front;
            let mut prev_e = NIL;
            let mut n = 0u32;
            while e != NIL {
                assert_eq!(self.elink[e as usize].prev, prev_e, "entry back-link");
                assert_eq!(self.elink[e as usize].bucket, b, "entry bucket pointer");
                let item = self.items[e as usize]
                    .as_ref()
                    // lint:allow(panic-freedom) precondition: validate() is a corruption checker whose contract is to panic on broken invariants (test/debug support)
                    .expect("live entry has item");
                let hash = self.ehash[e as usize];
                assert_eq!(hash, self.hash_of(item), "stored hash is the item's");
                assert_eq!(
                    self.index.get(hash, |v| v == e),
                    Some(e),
                    "index holds the entry under its stored hash"
                );
                assert_eq!(self.find(item), Some(e), "index points at entry");
                n += 1;
                sum += count;
                prev_e = e;
                e = self.elink[e as usize].next;
            }
            assert_eq!(self.bmeta[b as usize].back, prev_e, "bucket back pointer");
            assert_eq!(self.bmeta[b as usize].len, n, "bucket len bookkeeping");
            seen_entries += n as usize;
            prev_count = Some(count);
            prev_b = b;
            b = self.bmeta[b as usize].next;
        }
        assert_eq!(self.tail, prev_b, "tail pointer");
        assert_eq!(seen_entries, self.len, "len bookkeeping");
        assert_eq!(seen_entries, self.index.len(), "index size");
        assert_eq!(sum, self.counter_sum, "counter_sum bookkeeping");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(pairs: &[(u64, u64)]) -> StreamSummary<u64> {
        let mut s = StreamSummary::new();
        for &(item, count) in pairs {
            s.insert(item, count, 0);
        }
        s.check_invariants();
        s
    }

    /// The largest raw count stored.
    fn top_count(s: &StreamSummary<u64>) -> Option<u64> {
        s.snapshot_desc().first().map(|&(_, c, _)| c)
    }

    #[test]
    fn insert_and_lookup() {
        let s = summary_of(&[(1, 5), (2, 3), (3, 5)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.count(&1), Some(5));
        assert_eq!(s.count(&2), Some(3));
        assert_eq!(s.count(&3), Some(5));
        assert_eq!(s.count(&9), None);
        assert_eq!(s.min_count(), Some(3));
        assert_eq!(top_count(&s), Some(5));
        assert_eq!(s.counter_sum(), 13);
    }

    #[test]
    fn increment_moves_between_buckets() {
        let mut s = summary_of(&[(1, 1), (2, 1), (3, 2)]);
        assert!(s.increment(&1, 1)); // joins the bucket of 3
        s.check_invariants();
        assert_eq!(s.count(&1), Some(2));
        assert!(s.increment(&1, 1)); // creates bucket 3
        s.check_invariants();
        assert_eq!(s.count(&1), Some(3));
        assert_eq!(s.min_count(), Some(1));
        assert!(!s.increment(&42, 1));
    }

    #[test]
    fn increment_in_place_when_alone() {
        let mut s = summary_of(&[(1, 1)]);
        assert!(s.increment(&1, 1));
        s.check_invariants();
        assert_eq!(s.count(&1), Some(2));
        // bucket structure should have exactly one bucket
        assert_eq!(s.min_count(), top_count(&s));
    }

    #[test]
    fn increment_by_large_jump() {
        let mut s = summary_of(&[(1, 1), (2, 2), (3, 3), (4, 4)]);
        assert!(s.increment(&1, 10)); // jumps past everything
        s.check_invariants();
        assert_eq!(s.count(&1), Some(11));
        assert_eq!(top_count(&s), Some(11));
    }

    #[test]
    fn evict_min_is_fifo_within_bucket() {
        let mut s = StreamSummary::new();
        s.insert(10u64, 1, 0);
        s.insert(20, 1, 0);
        s.insert(30, 1, 0);
        // 10 was attached first => least recently updated => evicted first
        assert_eq!(s.evict_min().map(|(i, c, _)| (i, c)), Some((10, 1)));
        s.check_invariants();
        assert_eq!(s.evict_min().map(|(i, c, _)| (i, c)), Some((20, 1)));
        assert_eq!(s.evict_min().map(|(i, c, _)| (i, c)), Some((30, 1)));
        assert_eq!(s.evict_min(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn increment_refreshes_fifo_position() {
        let mut s = StreamSummary::new();
        s.insert(1u64, 1, 0);
        s.insert(2, 1, 0);
        s.insert(3, 2, 0);
        // bump 1 into the count-2 bucket *after* 3 arrived there
        assert!(s.increment(&1, 1));
        s.check_invariants();
        // min bucket holds only 2
        assert_eq!(s.evict_min().map(|(i, _, _)| i), Some(2));
        // in the count-2 bucket, 3 is older than 1
        assert_eq!(s.evict_min().map(|(i, _, _)| i), Some(3));
        assert_eq!(s.evict_min().map(|(i, _, _)| i), Some(1));
    }

    #[test]
    fn remove_specific_item() {
        let mut s = summary_of(&[(1, 5), (2, 3)]);
        assert_eq!(s.remove(&1), Some((5, 0)));
        s.check_invariants();
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(&1), None);
        assert_eq!(s.counter_sum(), 3);
    }

    #[test]
    fn drop_le_removes_low_buckets() {
        let mut s = summary_of(&[(1, 1), (2, 1), (3, 2), (4, 5)]);
        s.drop_le(2);
        s.check_invariants();
        assert!([1, 2, 3].iter().all(|i| !s.contains(i)));
        assert_eq!(s.snapshot_asc(), vec![(4, 5, 0)]);
        assert_eq!(s.counter_sum(), 5);
        // threshold below everything: no-op
        s.drop_le(4);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn snapshots_ordered() {
        let s = summary_of(&[(1, 3), (2, 1), (3, 7), (4, 3)]);
        let asc = s.snapshot_asc();
        let counts: Vec<u64> = asc.iter().map(|&(_, c, _)| c).collect();
        assert_eq!(counts, vec![1, 3, 3, 7]);
        let desc = s.snapshot_desc();
        assert_eq!(desc.first().map(|&(i, c, _)| (i, c)), Some((3, 7)));
    }

    #[test]
    fn desc_is_exact_reverse_of_asc() {
        let s = summary_of(&[(1, 3), (2, 1), (3, 7), (4, 3), (5, 3), (6, 1)]);
        let mut asc = s.snapshot_asc();
        asc.reverse();
        assert_eq!(asc, s.snapshot_desc());
    }

    #[test]
    fn err_annotation_is_stored() {
        let mut s = StreamSummary::new();
        s.insert(1u64, 4, 3);
        assert_eq!(s.err(&1), Some(3));
        assert_eq!(s.err(&9), None);
        let (item, count, err) = s.evict_min().unwrap();
        assert_eq!((item, count, err), (1, 4, 3));
    }

    #[test]
    fn arena_reuse_after_churn() {
        let mut s: StreamSummary<u64> = StreamSummary::new();
        for round in 0..5u64 {
            for i in 0..100u64 {
                s.insert(i, i + 1 + round, 0);
            }
            s.check_invariants();
            for i in 0..100u64 {
                assert!(s.remove(&i).is_some());
            }
            s.check_invariants();
            assert!(s.is_empty());
        }
        // arena should not have grown past one round's worth
        assert!(s.items.len() <= 100);
        assert!(s.bcount.len() <= 101);
    }

    #[test]
    fn zero_increment_is_noop() {
        let mut s = summary_of(&[(1, 5)]);
        assert!(s.increment(&1, 0));
        assert_eq!(s.count(&1), Some(5));
        s.check_invariants();
    }

    #[test]
    fn stored_hashes_stay_consistent_under_churn() {
        use crate::key::Key;
        // Inline and boxed keys, so the hashes cover both representations.
        let key = |id: u64| {
            let text = if id.is_multiple_of(3) {
                format!("a-boxed-key-longer-than-22-bytes-{id}")
            } else {
                format!("k{id}")
            };
            Key::from(text.as_str())
        };
        let mut s: StreamSummary<Key> = StreamSummary::with_capacity(64);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..4000u32 {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let item = key(state % 200);
            let arg = (state >> 40) % 8;
            match (state >> 32) % 10 {
                0..=3 if !s.contains(&item) => s.insert(item, 1 + arg, 0),
                0..=6 => {
                    s.increment(&item, arg);
                }
                7 => {
                    s.evict_min();
                }
                8 => {
                    s.remove(&item);
                }
                _ => {
                    let floor = s.min_count().unwrap_or(0);
                    let low: Vec<Key> = (s.snapshot_asc().into_iter())
                        .take_while(|&(_, c, _)| c <= floor)
                        .map(|(k, _, _)| k)
                        .collect();
                    s.drop_le(floor);
                    assert!(low.iter().all(|k| !s.contains(k)));
                }
            }
            s.check_invariants();
        }
    }

    #[test]
    fn presized_summary_index_never_rehashes() {
        // fill to capacity and churn; the RawIndex was pre-sized for m so
        // the probe table must never grow (no rehash stall)
        let mut s: StreamSummary<u64> = StreamSummary::with_capacity(512);
        for i in 0..512u64 {
            s.insert(i, 1, 0);
        }
        for i in 0..512u64 {
            s.increment(&i, i + 1);
        }
        s.check_invariants();
        assert_eq!(s.len(), 512);
    }
}
