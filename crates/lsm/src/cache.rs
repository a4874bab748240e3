//! Sharded LRU block cache and the table-reader cache.
//!
//! The block cache stores *parsed* data blocks (`Arc<Block>`) keyed by
//! `(file, offset)`; hits hand the same parsed block to every reader with
//! no payload copy or re-parse. It is the main lever behind the paper's
//! read-heavy tuning wins. The table cache bounds how many SST readers stay open
//! (`max_open_files`), charging reopen I/O on miss.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sstable::block::Block;
use crate::types::FileNumber;
use crate::util::fnv1a;

/// A multiplicative (Fx-style) hasher for the two caches' keys: file
/// numbers and block offsets the engine made, so SipHash's resistance to
/// chosen keys buys nothing. Nothing iterates either map: the LRU list
/// orders the entries. The memtable's key index feeds it user keys a
/// word at a time.
#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        // A product's high bits mix all of its input, but a word's top
        // byte reaches only the top byte of its product; the tables index
        // with the low bits. So the high half is folded into the low one
        // and multiplied again, and that product's high bits, rotated
        // down, mix every bit written.
        (self.0 ^ (self.0 >> 32)).wrapping_mul(0xf135_7aea_2e62_a9c5).rotate_left(26)
    }
}

/// Key identifying a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// SST file number.
    pub file: FileNumber,
    /// Block offset within the file.
    pub offset: u64,
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct LruEntry<K, V> {
    key: K,
    /// `None` while the slot is on the free list, so an evicted value is
    /// released when it leaves the cache, not when its slot is reused.
    value: Option<V>,
    charge: u64,
    prev: usize,
    next: usize,
}

/// The one LRU both caches use: a hash map into a slab of entries
/// threaded on an intrusive doubly-linked recency list (O(1) get, insert
/// and evict). Each entry carries a charge, and an insert evicts from the
/// cold end until the charges fit the capacity again.
#[derive(Debug)]
struct Lru<K, V> {
    map: HashMap<K, usize, BuildHasherDefault<IntHasher>>,
    entries: Vec<LruEntry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    used: u64,
    capacity: u64,
}

impl<K: Copy + Eq + Hash, V: Clone> Lru<K, V> {
    fn new(capacity: u64) -> Self {
        Lru {
            map: HashMap::default(),
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used: 0,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    fn get(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        self.entries[idx].value.clone()
    }

    fn remove_index(&mut self, idx: usize) -> Option<V> {
        self.unlink(idx);
        let entry = &mut self.entries[idx];
        self.map.remove(&entry.key);
        self.free.push(idx);
        let value = entry.value.take()?;
        self.used -= entry.charge;
        Some(value)
    }

    /// Removes `key`, returning its value.
    fn remove(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.remove_index(idx)
    }

    /// Inserts `value` charged at `charge`, handing every value it
    /// displaces (a same-key replacement, then the LRU victims) to
    /// `displaced`. A value charged more than the whole capacity bypasses
    /// the cache.
    fn insert(&mut self, key: K, value: V, charge: u64, mut displaced: impl FnMut(V)) {
        if charge > self.capacity {
            return;
        }
        if let Some(old) = self.remove(&key) {
            displaced(old);
        }
        let entry = LruEntry {
            key,
            value: Some(value),
            charge,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.entries[i] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        self.used += charge;
        while self.used > self.capacity && self.tail != idx {
            if let Some(old) = self.remove_index(self.tail) {
                displaced(old);
            }
        }
    }
}

/// A sharded LRU cache of uncompressed blocks with a byte capacity. Each
/// block is charged its bytes plus 64 for bookkeeping.
///
/// # Examples
///
/// ```
/// use lsm_kvs::{BlockCache, FileNumber};
/// use std::sync::Arc;
///
/// let cache = BlockCache::new(1 << 20);
/// let key = lsm_kvs::cache_key(FileNumber(1), 0);
/// assert!(cache.get(&key).is_none());
/// cache.insert(key, std::sync::Arc::new(lsm_kvs::Block::sentinel(4096)));
/// assert!(cache.get(&key).is_some());
/// ```
#[derive(Debug)]
pub struct BlockCache {
    shards: Vec<Mutex<Lru<BlockKey, Arc<Block>>>>,
}

/// Builds a [`BlockKey`] (convenience for examples and tests).
pub fn cache_key(file: FileNumber, offset: u64) -> BlockKey {
    BlockKey { file, offset }
}

/// The most shards a block cache has, and the least a shard holds
/// (RocksDB's minimum shard size): a smaller cache has fewer shards, so
/// that each can still hold a block.
const MAX_SHARDS: u64 = 16;
const MIN_SHARD_BYTES: u64 = 512 << 10;

impl BlockCache {
    /// Creates a cache with `capacity` bytes. It has 16 shards, halved
    /// while a shard would hold under 512 KiB, and at least one: a cache
    /// of 8 MiB or more has 16.
    pub fn new(capacity: u64) -> Self {
        let mut num_shards = MAX_SHARDS;
        while num_shards > 1 && capacity / num_shards < MIN_SHARD_BYTES {
            num_shards /= 2;
        }
        let per_shard = (capacity / num_shards).max(1);
        BlockCache {
            shards: (0..num_shards)
                .map(|_| Mutex::new(Lru::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &BlockKey) -> &Mutex<Lru<BlockKey, Arc<Block>>> {
        let h = fnv1a(&key.file.0.to_le_bytes()) ^ key.offset.wrapping_mul(0x9e3779b97f4a7c15);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Looks up a block, refreshing its recency on hit.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<Block>> {
        self.shard(key).lock().get(key)
    }

    /// Inserts a block, evicting LRU entries past capacity.
    pub fn insert(&self, key: BlockKey, value: Arc<Block>) {
        let charge = value.data_len() as u64 + 64;
        self.shard(&key).lock().insert(key, value, charge, drop);
    }

    /// Total bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().used).sum()
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().capacity).sum()
    }
}

/// An LRU cache of open table readers bounded by `max_open_files`, each
/// reader charged 1.
///
/// `T` is the reader type (kept generic to avoid a dependency cycle with
/// the table module).
#[derive(Debug)]
pub struct TableCache<T> {
    inner: Mutex<Lru<FileNumber, Arc<T>>>,
}

impl<T> TableCache<T> {
    /// Creates a cache holding up to `max_open_files` readers
    /// (`-1`/very large = effectively unbounded).
    pub fn new(max_open_files: i64) -> Self {
        let capacity = u64::try_from(max_open_files).map_or(u64::MAX, |n| n.max(16));
        TableCache {
            inner: Mutex::new(Lru::new(capacity)),
        }
    }

    /// Returns the cached reader for `file`, if open, refreshing its
    /// recency.
    pub fn get(&self, file: FileNumber) -> Option<Arc<T>> {
        self.inner.lock().get(&file)
    }

    /// Inserts a freshly opened reader, evicting the LRU one if full.
    ///
    /// Returns every reader displaced by this insert — a same-key
    /// replacement and any capacity-driven LRU victims — so the caller
    /// can release whatever accounting (memory reservations) it holds
    /// against them.
    pub fn insert(&self, file: FileNumber, reader: Arc<T>) -> Vec<Arc<T>> {
        let mut displaced = Vec::new();
        self.inner
            .lock()
            .insert(file, reader, 1, |r| displaced.push(r));
        displaced
    }

    /// Removes a reader (when its file is deleted), returning it so the
    /// caller can release accounting held against it.
    pub fn evict(&self, file: FileNumber) -> Option<Arc<T>> {
        self.inner.lock().remove(&file)
    }

    /// Number of open readers.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether no readers are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(f: u64, off: u64) -> BlockKey {
        cache_key(FileNumber(f), off)
    }

    fn block(n: usize) -> Arc<Block> {
        Arc::new(Block::sentinel(n))
    }

    #[test]
    fn get_after_insert_hits() {
        let c = BlockCache::new(1 << 20);
        c.insert(key(1, 0), block(100));
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(1, 4096)).is_none());
    }

    #[test]
    fn capacity_evicts_lru() {
        // A cache this small has one shard: a deterministic eviction order.
        let c = BlockCache::new(4096);
        c.insert(key(1, 0), block(1500));
        c.insert(key(1, 1), block(1500));
        // Touch the first entry so the second becomes LRU.
        assert!(c.get(&key(1, 0)).is_some());
        c.insert(key(1, 2), block(1500));
        assert!(c.get(&key(1, 0)).is_some(), "recently used survives");
        assert!(c.get(&key(1, 1)).is_none(), "LRU evicted");
        assert_eq!(c.used_bytes(), 2 * 1564);
    }

    #[test]
    fn an_evicted_block_is_released() {
        let c = BlockCache::new(4096);
        let first = block(3000);
        let weak = Arc::downgrade(&first);
        c.insert(key(1, 0), first);
        c.insert(key(1, 1), block(3000));
        assert!(c.get(&key(1, 0)).is_none(), "evicted");
        assert!(weak.upgrade().is_none(), "the cache still holds the evicted block");
    }

    #[test]
    fn oversized_blocks_bypass() {
        let c = BlockCache::new(1024);
        c.insert(key(1, 0), block(10_000));
        assert!(c.get(&key(1, 0)).is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn used_bytes_tracks_contents() {
        let c = BlockCache::new(1 << 20);
        c.insert(key(1, 0), block(1000));
        c.insert(key(2, 0), block(2000));
        assert_eq!(c.used_bytes(), 3000 + 2 * 64, "each block charged its bytes + 64");
        assert_eq!(c.capacity(), 1 << 20);
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let c = BlockCache::new(1 << 20);
        c.insert(key(1, 0), block(1000));
        c.insert(key(1, 0), block(500));
        assert_eq!(c.get(&key(1, 0)).unwrap().data_len(), 500);
        assert!(c.used_bytes() < 1000);
    }

    /// Sixteen shards from 8 MiB up, halved while a shard would hold
    /// under 512 KiB, and one below 1 MiB.
    #[test]
    fn shard_count_follows_capacity() {
        for (capacity, shards) in
            [(0, 1), (64 << 10, 1), ((1 << 20) - 1, 1), (1 << 20, 2), (2 << 20, 4), (4 << 20, 8), (8 << 20, 16), (1 << 34, 16)]
        {
            assert_eq!(BlockCache::new(capacity).shards.len(), shards, "{capacity} bytes");
        }
    }

    #[test]
    fn table_cache_bounds_open_files() {
        let tc: TableCache<String> = TableCache::new(16);
        let mut displaced = 0usize;
        for i in 0..40 {
            displaced += tc.insert(FileNumber(i), Arc::new(format!("reader-{i}"))).len();
        }
        assert_eq!(tc.len(), 16);
        // Every insert past capacity hands its victim back to the caller.
        assert_eq!(displaced, 24);
        // Most recent files survive.
        assert!(tc.get(FileNumber(39)).is_some());
        assert!(tc.get(FileNumber(0)).is_none());
    }

    #[test]
    fn table_cache_get_refreshes_recency() {
        let tc: TableCache<u64> = TableCache::new(16);
        for i in 0..16 {
            assert!(tc.insert(FileNumber(i), Arc::new(i)).is_empty());
        }
        assert!(tc.get(FileNumber(0)).is_some());
        let displaced = tc.insert(FileNumber(16), Arc::new(16));
        assert_eq!(displaced.iter().map(|r| **r).collect::<Vec<_>>(), vec![1]);
        assert!(tc.get(FileNumber(0)).is_some(), "the file just read stays");
        assert!(tc.get(FileNumber(1)).is_none(), "the least recent file goes");
    }

    #[test]
    fn table_cache_insert_returns_replaced_reader() {
        let tc: TableCache<u32> = TableCache::new(-1);
        assert!(tc.insert(FileNumber(1), Arc::new(7)).is_empty());
        let displaced = tc.insert(FileNumber(1), Arc::new(8));
        assert_eq!(displaced.len(), 1);
        assert_eq!(*displaced[0], 7);
        assert_eq!(tc.len(), 1, "replacement is not a capacity eviction");
    }

    #[test]
    fn table_cache_unbounded_with_minus_one() {
        let tc: TableCache<u32> = TableCache::new(-1);
        for i in 0..1000 {
            assert!(tc.insert(FileNumber(i), Arc::new(i as u32)).is_empty());
        }
        assert_eq!(tc.len(), 1000);
    }

    #[test]
    fn table_cache_evict_removes() {
        let tc: TableCache<u32> = TableCache::new(-1);
        tc.insert(FileNumber(1), Arc::new(1));
        assert_eq!(tc.evict(FileNumber(1)).map(|r| *r), Some(1));
        assert!(tc.evict(FileNumber(1)).is_none());
        assert!(tc.get(FileNumber(1)).is_none());
        assert!(tc.is_empty());
    }
}
