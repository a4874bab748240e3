//! In-memory write buffer (memtable).
//!
//! Entries are kept in internal-key order (user key ascending, sequence
//! descending) so lookups find the newest visible version first and
//! flushes emit sorted runs directly.
//!
//! There is one representation: a `BTreeMap` behind a reader-writer lock,
//! mutated through `&self`. Accounting (approximate bytes, first/last
//! sequence) sits beside it as atomics. `memtable_factory` is still a
//! recognised option, but nothing here reads it.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard};

use crate::error::Result;
use crate::merge::Cursor;
use crate::options::MemtableRep;
use crate::sstable::bloom::{BloomBuilder, BloomFilter};
use crate::types::{internal_key_cmp, split_tag, InternalKey, SequenceNumber, ValueType};

/// A byte key ordered by the internal-key comparator.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OrderedKey(Vec<u8>);

impl PartialOrd for OrderedKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedKey {
    fn cmp(&self, other: &Self) -> Ordering {
        internal_key_cmp(&self.0, &other.0)
    }
}

type Map = BTreeMap<OrderedKey, Vec<u8>>;

/// An ordered in-memory buffer of recent writes.
///
/// All mutation goes through `&self`: the map locks internally, so the
/// surrounding `Db` can share one `Arc<MemTable>` between writers,
/// readers, cursors, and flush without an outer lock.
///
/// Memory accounting is approximate (key + value + fixed per-entry
/// overhead), mirroring how RocksDB charges its arena.
pub struct MemTable {
    map: RwLock<Map>,
    /// Optional bloom filter over user keys, enabled by
    /// `memtable_prefix_bloom_size_ratio > 0`.
    bloom: Option<MemTableBloom>,
    approximate_bytes: AtomicUsize,
    /// `u64::MAX` = no entry yet; kept with `fetch_min` so concurrent
    /// appliers agree on the smallest sequence.
    first_seq: AtomicU64,
    last_seq: AtomicU64,
}

struct MemTableBloom {
    bits: Vec<AtomicU64>,
    num_probes: u32,
}

impl MemTableBloom {
    /// Sizes the bit array from `size_bytes` (rounded up to a power of
    /// two) and derives the probe count from the actual bits-per-key the
    /// caller expects, exactly like [`BloomFilter::build`] does — a fixed
    /// probe count saturates small filters and short-circuits nothing.
    fn new(size_bytes: usize, expected_entries: usize) -> Self {
        let bits = (size_bytes.max(64) * 8).next_power_of_two();
        let bits_per_key = bits as f64 / expected_entries.max(1) as f64;
        let num_probes =
            ((bits_per_key * std::f64::consts::LN_2).round() as u32).clamp(1, 6);
        MemTableBloom {
            bits: (0..bits / 64).map(|_| AtomicU64::new(0)).collect(),
            num_probes,
        }
    }

    fn add(&self, key: &[u8]) {
        let (mut h, delta) = bloom_hashes(key);
        let nbits = self.bits.len() * 64;
        for _ in 0..self.num_probes {
            let bit = (h as usize) % nbits;
            self.bits[bit / 64].fetch_or(1u64 << (bit % 64), AtomicOrdering::Relaxed);
            h = h.wrapping_add(delta);
        }
    }

    fn may_contain(&self, key: &[u8]) -> bool {
        let (mut h, delta) = bloom_hashes(key);
        let nbits = self.bits.len() * 64;
        for _ in 0..self.num_probes {
            let bit = (h as usize) % nbits;
            if self.bits[bit / 64].load(AtomicOrdering::Relaxed) & (1u64 << (bit % 64)) == 0 {
                return false;
            }
            h = h.wrapping_add(delta);
        }
        true
    }
}

fn bloom_hashes(key: &[u8]) -> (u64, u64) {
    let h = crate::util::fnv1a(key);
    (h, h.rotate_right(17) | 1)
}

const ENTRY_OVERHEAD: usize = 48;

impl MemTable {
    /// Creates an empty memtable. `bloom_bytes > 0` enables the in-memory
    /// bloom filter at roughly that size, sized for ~1 entry per filter
    /// byte (which lands on the historical 6 probes).
    pub fn new(bloom_bytes: usize) -> Self {
        Self::with_config(MemtableRep::default(), bloom_bytes, bloom_bytes, 0)
    }

    /// Creates an empty memtable with explicit bloom sizing (`bloom_bytes`
    /// of filter for roughly `expected_entries` keys). The first and last
    /// parameters are ignored: `perf/src/ladder.rs` passes four arguments
    /// and is frozen.
    pub fn with_config(
        _rep: MemtableRep,
        bloom_bytes: usize,
        expected_entries: usize,
        _unused: usize,
    ) -> Self {
        MemTable {
            map: RwLock::new(BTreeMap::new()),
            bloom: if bloom_bytes > 0 {
                Some(MemTableBloom::new(bloom_bytes, expected_entries))
            } else {
                None
            },
            approximate_bytes: AtomicUsize::new(0),
            first_seq: AtomicU64::new(u64::MAX),
            last_seq: AtomicU64::new(0),
        }
    }

    /// Inserts a value or tombstone. The owned internal key and the owned
    /// value the map stores are the only two allocations an entry costs.
    pub fn add(&self, seq: SequenceNumber, ty: ValueType, user_key: &[u8], value: &[u8]) {
        if let Some(bloom) = &self.bloom {
            bloom.add(user_key);
        }
        let key = InternalKey::new(user_key, seq, ty).into_encoded();
        let charged = key.len() + value.len() + ENTRY_OVERHEAD;
        self.map.write().insert(OrderedKey(key), value.to_vec());
        self.approximate_bytes.fetch_add(charged, AtomicOrdering::Relaxed);
        self.first_seq.fetch_min(seq, AtomicOrdering::Relaxed);
        self.last_seq.fetch_max(seq, AtomicOrdering::Relaxed);
    }

    /// Looks up the newest entry for `user_key` visible at `snapshot`: its
    /// type and stored bytes (for [`ValueType::TtlValue`], the user bytes
    /// followed by the 8-byte write stamp). What the entry means to a
    /// reader is the caller's business; the memtable knows neither the
    /// clock nor the configured TTL.
    pub fn get(&self, user_key: &[u8], snapshot: SequenceNumber) -> Option<(ValueType, Vec<u8>)> {
        if let Some(bloom) = &self.bloom {
            if !bloom.may_contain(user_key) {
                return None;
            }
        }
        let lookup = crate::types::lookup_key(user_key, snapshot);
        // Entries are newest-first per user key; the first one at or
        // below the snapshot decides.
        let map = self.map.read();
        let start = Bound::Included(OrderedKey(lookup.into_encoded()));
        let (k, v) = map.range((start, Bound::Unbounded)).next()?;
        let (found_user, tag) = split_tag(&k.0);
        (found_user == user_key).then(|| {
            let ty = ValueType::from_u8(tag as u8).expect("memtable keys are valid");
            (ty, v.clone())
        })
    }

    /// Approximate memory footprint in bytes.
    pub fn approximate_memory_usage(&self) -> usize {
        self.approximate_bytes.load(AtomicOrdering::Relaxed)
            + self.bloom.as_ref().map_or(0, |b| b.bits.len() * 8)
    }

    /// Number of entries (including tombstones and shadowed versions).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// Whether the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Smallest sequence number inserted, if any.
    pub fn first_sequence(&self) -> Option<SequenceNumber> {
        let v = self.first_seq.load(AtomicOrdering::Relaxed);
        (v != u64::MAX).then_some(v)
    }

    /// Largest sequence number inserted.
    pub fn last_sequence(&self) -> SequenceNumber {
        self.last_seq.load(AtomicOrdering::Relaxed)
    }

    /// A stable iteration view over the entries, in internal-key order.
    ///
    /// The view holds the read lock for its lifetime. This is the full
    /// pass flush makes over an immutable memtable: nothing contends for
    /// the lock, and the map is walked in place instead of re-seeking and
    /// cloning per entry as [`MemTableCursor`] must.
    pub fn view(&self) -> MemTableView<'_> {
        MemTableView(self.map.read())
    }

    /// The first entry within `from`, copied out under a momentary read
    /// lock.
    fn entry_from(&self, from: Bound<&[u8]>) -> Option<(Vec<u8>, Vec<u8>)> {
        let from = from.map(|k| OrderedKey(k.to_vec()));
        self.map
            .read()
            .range((from, Bound::Unbounded))
            .next()
            .map(|(k, v)| (k.0.clone(), v.clone()))
    }

    /// Builds an optional SST-style bloom filter over the distinct user
    /// keys, reusing the table bloom implementation. Construction is
    /// streaming: keys are hashed as the entries are walked, so no second
    /// copy of the key set is materialized.
    pub fn build_table_bloom(&self, bits_per_key: f64) -> Option<BloomFilter> {
        if bits_per_key <= 0.0 {
            return None;
        }
        let mut builder = BloomBuilder::new(bits_per_key);
        let view = self.view();
        // Entries are sorted by user key; dedup consecutive runs with one
        // reused buffer instead of collecting every key.
        let mut last_user: Vec<u8> = Vec::new();
        let mut any = false;
        for (k, _) in view.iter() {
            let user = &k[..k.len() - 8];
            if !any || last_user.as_slice() != user {
                builder.add_key(user);
                last_user.clear();
                last_user.extend_from_slice(user);
                any = true;
            }
        }
        Some(builder.finish())
    }
}

impl fmt::Debug for MemTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemTable")
            .field("len", &self.len())
            .field("approximate_bytes", &self.approximate_bytes.load(AtomicOrdering::Relaxed))
            .finish()
    }
}

/// A borrowed, ordered view of a memtable's entries; see
/// [`MemTable::view`].
pub struct MemTableView<'a>(RwLockReadGuard<'a, Map>);

impl MemTableView<'_> {
    /// Iterates entries in internal-key order as `(encoded_key, value)`.
    pub fn iter(&self) -> MemViewIter<'_> {
        MemViewIter(self.0.iter())
    }

    /// The view as a merge source, positioned at its first entry.
    pub(crate) fn cursor(&self) -> impl Cursor + '_ {
        let mut iter = self.iter();
        ViewCursor { current: iter.next(), iter }
    }
}

struct ViewCursor<'a> {
    iter: MemViewIter<'a>,
    current: Option<(&'a [u8], &'a [u8])>,
}

impl Cursor for ViewCursor<'_> {
    fn key(&self) -> Option<&[u8]> {
        self.current.map(|(k, _)| k)
    }

    fn value(&self) -> &[u8] {
        self.current.map_or(&[], |(_, v)| v)
    }

    fn advance(&mut self) -> Result<()> {
        self.current = self.iter.next();
        Ok(())
    }
}

/// Iterator over a [`MemTableView`].
pub struct MemViewIter<'a>(std::collections::btree_map::Iter<'a, OrderedKey, Vec<u8>>);

impl<'a> Iterator for MemViewIter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k.0.as_slice(), v.as_slice()))
    }
}

/// A stepping cursor over one memtable, positioned at or after a seek
/// target and advanced entry by entry.
///
/// It owns a copy of the current entry and re-seeks past it on each step,
/// so no lock is held between steps. That is what scans need over the
/// live memtable, where a [`MemTable::view`] would block writers for as
/// long as the scan waits on table reads. The cursor shares ownership of
/// the memtable, so it stays valid after the memtable is rotated out of
/// the active slot or scheduled for flush.
pub struct MemTableCursor {
    mem: Arc<MemTable>,
    current: Option<(Vec<u8>, Vec<u8>)>,
}

impl MemTableCursor {
    /// Positions a cursor at the first entry with internal key >=
    /// `target`.
    pub fn seek(mem: Arc<MemTable>, target: &[u8]) -> Self {
        let current = mem.entry_from(Bound::Included(target));
        MemTableCursor { mem, current }
    }

    /// Current internal key, or `None` when exhausted.
    pub fn key(&self) -> Option<&[u8]> {
        self.current.as_ref().map(|(k, _)| k.as_slice())
    }

    /// Current value, or `None` when exhausted.
    pub fn value(&self) -> Option<&[u8]> {
        self.current.as_ref().map(|(_, v)| v.as_slice())
    }

    /// Advances to the next entry in internal-key order.
    pub fn advance(&mut self) {
        if let Some((k, _)) = self.current.take() {
            self.current = self.mem.entry_from(Bound::Excluded(&k));
        }
    }
}

impl Cursor for MemTableCursor {
    fn key(&self) -> Option<&[u8]> {
        MemTableCursor::key(self)
    }

    fn value(&self) -> &[u8] {
        MemTableCursor::value(self).unwrap_or(&[])
    }

    fn advance(&mut self) -> Result<()> {
        MemTableCursor::advance(self);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_then_get() {
        let mt = MemTable::new(0);
        mt.add(1, ValueType::Value, b"alpha", b"1");
        mt.add(2, ValueType::Value, b"beta", b"2");
        assert_eq!(mt.get(b"alpha", 100), Some((ValueType::Value, b"1".to_vec())));
        assert_eq!(mt.get(b"gamma", 100), None);
    }

    #[test]
    fn newer_version_shadows_older() {
        let mt = MemTable::new(0);
        mt.add(1, ValueType::Value, b"k", b"old");
        mt.add(5, ValueType::Value, b"k", b"new");
        assert_eq!(mt.get(b"k", 100), Some((ValueType::Value, b"new".to_vec())));
        // Snapshot between versions sees the old value.
        assert_eq!(mt.get(b"k", 3), Some((ValueType::Value, b"old".to_vec())));
    }

    #[test]
    fn deletion_is_visible() {
        let mt = MemTable::new(0);
        mt.add(1, ValueType::Value, b"k", b"v");
        mt.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(mt.get(b"k", 100), Some((ValueType::Deletion, Vec::new())));
        assert_eq!(mt.get(b"k", 1), Some((ValueType::Value, b"v".to_vec())));
    }

    #[test]
    fn snapshot_before_any_version_sees_nothing() {
        let mt = MemTable::new(0);
        mt.add(10, ValueType::Value, b"k", b"v");
        assert_eq!(mt.get(b"k", 5), None);
    }

    #[test]
    fn iteration_is_sorted_by_user_key() {
        let mt = MemTable::new(0);
        mt.add(1, ValueType::Value, b"c", b"");
        mt.add(2, ValueType::Value, b"a", b"");
        mt.add(3, ValueType::Value, b"b", b"");
        let view = mt.view();
        let keys: Vec<Vec<u8>> = view
            .iter()
            .map(|(k, _)| InternalKey::decode(k).unwrap().user_key().to_vec())
            .collect();
        assert_eq!(keys, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
    }

    #[test]
    fn memory_usage_grows() {
        let mt = MemTable::new(0);
        let before = mt.approximate_memory_usage();
        mt.add(1, ValueType::Value, b"key", &[0u8; 100]);
        assert!(mt.approximate_memory_usage() >= before + 100);
    }

    #[test]
    fn bloom_filters_absent_keys() {
        let mt = MemTable::new(4096);
        for i in 0..100 {
            mt.add(i + 1, ValueType::Value, format!("key-{i}").as_bytes(), b"v");
        }
        assert_eq!(mt.get(b"key-42", 1000), Some((ValueType::Value, b"v".to_vec())));
        // Bloom short-circuits most absent lookups; correctness-wise all
        // must return NotFound.
        for i in 200..300 {
            assert_eq!(mt.get(format!("key-{i}").as_bytes(), 1000), None);
        }
    }

    #[test]
    fn bloom_probe_count_tracks_bits_per_key() {
        // Generous filter: probes land at the classic bpk*ln2 (clamped 6).
        let roomy = MemTableBloom::new(1 << 16, 1000);
        assert_eq!(roomy.num_probes, 6);
        // Starved filter (more keys than bits): a single probe, where the
        // old hardcoded 6 would saturate the array.
        let starved = MemTableBloom::new(64, 100_000);
        assert_eq!(starved.num_probes, 1);
    }

    #[test]
    fn starved_bloom_still_rejects_some_absent_keys() {
        // Regression for the hardcoded num_probes=6: a filter with ~1 bit
        // per key saturates at 6 probes (FP rate ~98%) but stays useful at
        // the derived 1 probe (FP rate ~63%).
        let bloom = MemTableBloom::new(64, 512);
        let nbits = bloom.bits.len() * 64;
        assert_eq!(nbits, 512);
        for i in 0..512 {
            bloom.add(format!("present-{i}").as_bytes());
        }
        let fp = (0..2000)
            .filter(|i| bloom.may_contain(format!("absent-{i}").as_bytes()))
            .count();
        let rate = fp as f64 / 2000.0;
        assert!(rate < 0.8, "saturated filter: fp rate {rate}");
    }

    #[test]
    fn roomy_bloom_keeps_low_fp_rate() {
        let bloom = MemTableBloom::new(1 << 14, 1000);
        for i in 0..1000 {
            bloom.add(format!("present-{i}").as_bytes());
        }
        let fp = (0..5000)
            .filter(|i| bloom.may_contain(format!("absent-{i}").as_bytes()))
            .count();
        let rate = fp as f64 / 5000.0;
        assert!(rate < 0.02, "roomy filter: fp rate {rate}");
    }

    #[test]
    fn sequences_tracked() {
        let mt = MemTable::new(0);
        assert_eq!(mt.first_sequence(), None);
        mt.add(7, ValueType::Value, b"a", b"");
        mt.add(9, ValueType::Value, b"b", b"");
        assert_eq!(mt.first_sequence(), Some(7));
        assert_eq!(mt.last_sequence(), 9);
    }

    #[test]
    fn table_bloom_built_over_distinct_user_keys() {
        let mt = MemTable::new(0);
        mt.add(1, ValueType::Value, b"k", b"v1");
        mt.add(2, ValueType::Value, b"k", b"v2");
        mt.add(3, ValueType::Value, b"other", b"v");
        let bloom = mt.build_table_bloom(10.0).unwrap();
        assert!(bloom.may_contain(b"k"));
        assert!(bloom.may_contain(b"other"));
        assert!(mt.build_table_bloom(0.0).is_none());
    }

    #[test]
    fn cursor_steps_in_order() {
        let mt = Arc::new(MemTable::new(0));
        for i in 0..100u64 {
            mt.add(i + 1, ValueType::Value, format!("k{:03}", 99 - i).as_bytes(), b"v");
        }
        let start = crate::types::lookup_key(b"k010", crate::types::MAX_SEQUENCE);
        let mut cursor = MemTableCursor::seek(Arc::clone(&mt), start.encoded());
        let mut seen = Vec::new();
        while let Some(k) = cursor.key() {
            seen.push(InternalKey::decode(k).unwrap().user_key().to_vec());
            assert!(cursor.value().is_some());
            cursor.advance();
        }
        assert_eq!(seen.len(), 90);
        assert_eq!(seen.first().unwrap(), b"k010");
        assert_eq!(seen.last().unwrap(), b"k099");
        let mut sorted = seen.clone();
        sorted.sort();
        assert_eq!(seen, sorted);
    }

    #[test]
    fn cursor_survives_concurrent_inserts() {
        let mt = Arc::new(MemTable::new(0));
        for i in 0..1000u64 {
            mt.add(i + 1, ValueType::Value, format!("k{:06}", i * 2).as_bytes(), b"v");
        }
        let start = crate::types::lookup_key(b"k000000", crate::types::MAX_SEQUENCE);
        let mut cursor = MemTableCursor::seek(Arc::clone(&mt), start.encoded());
        std::thread::scope(|s| {
            let writer_mt = Arc::clone(&mt);
            s.spawn(move || {
                for i in 0..1000u64 {
                    writer_mt.add(
                        2000 + i,
                        ValueType::Value,
                        format!("k{:06}", i * 2 + 1).as_bytes(),
                        b"w",
                    );
                }
            });
            let mut last: Option<Vec<u8>> = None;
            let mut count = 0usize;
            while let Some(k) = cursor.key() {
                if let Some(prev) = &last {
                    assert!(internal_key_cmp(prev, k).is_lt(), "cursor went backwards");
                }
                last = Some(k.to_vec());
                count += 1;
                cursor.advance();
            }
            // At least the pre-existing entries, in order, no torn reads.
            assert!(count >= 1000);
        });
    }
}
