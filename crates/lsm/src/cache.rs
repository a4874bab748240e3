//! Sharded LRU block cache and the table-reader cache.
//!
//! The block cache stores *parsed* data blocks (`Arc<Block>`) keyed by
//! `(file, offset)`; hits hand the same parsed block to every reader with
//! no payload copy or re-parse. It is the main lever behind the paper's
//! read-heavy tuning wins. The table cache bounds how many SST readers stay open
//! (`max_open_files`), charging reopen I/O on miss.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::sstable::block::Block;
use crate::types::FileNumber;
use crate::util::fnv1a;

/// A multiplicative (Fx-style) hasher for the two caches' keys: file
/// numbers and block offsets the engine made, so SipHash's resistance to
/// chosen keys buys nothing. Nothing iterates either map in an order
/// anything sees: the LRU list orders blocks, and the table cache picks
/// its victim by the smallest tick, which is unique.
#[derive(Default)]
struct IntHasher(u64);

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
        // The product's high bits mix all of its input; the table indexes
        // with the low ones.
        self.0.rotate_left(26)
    }
}

type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Insertions.
    pub inserts: u64,
    /// Evictions due to capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Adds another cache's counters to these.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
    }

    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A mutually consistent view of the whole cache.
///
/// Every shard contributes its counters *and* its byte usage from a
/// single lock acquisition, so derived invariants (e.g. bytes implied by
/// `inserts - evictions`) hold even while other threads are hitting the
/// cache. Summing [`BlockCache::stats`] and [`BlockCache::used_bytes`]
/// separately does not give that guarantee.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Aggregated hit/miss/insert/eviction counters.
    pub stats: CacheStats,
    /// Total bytes currently cached (including bookkeeping overhead).
    pub used_bytes: u64,
    /// Total configured capacity in bytes.
    pub capacity: u64,
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
struct LruEntry {
    key: BlockKey,
    /// `None` while the slot is on the free list, so an evicted block is
    /// released when it leaves the cache, not when its slot is reused.
    value: Option<Arc<Block>>,
    prev: usize,
    next: usize,
}

/// One cache shard: a hash map into a slab of entries threaded on an
/// intrusive doubly-linked recency list (O(1) get/insert/evict).
#[derive(Debug)]
struct LruShard {
    map: IntMap<BlockKey, usize>,
    entries: Vec<LruEntry>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    used_bytes: u64,
    stats: CacheStats,
}

impl LruShard {
    fn new() -> Self {
        LruShard {
            map: IntMap::default(),
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used_bytes: 0,
            stats: CacheStats::default(),
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

    fn get(&mut self, key: &BlockKey) -> Option<Arc<Block>> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.unlink(idx);
                self.push_front(idx);
                self.stats.hits += 1;
                self.entries[idx].value.clone()
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn remove_index(&mut self, idx: usize) {
        self.unlink(idx);
        let entry = &mut self.entries[idx];
        if let Some(value) = entry.value.take() {
            self.used_bytes = self.used_bytes.saturating_sub(value.data_len() as u64 + 64);
        }
        self.map.remove(&entry.key);
        self.free.push(idx);
    }

    fn insert(&mut self, key: BlockKey, value: Arc<Block>, capacity: u64) {
        let len = value.data_len() as u64 + 64; // block + bookkeeping overhead
        if len > capacity {
            return; // oversized blocks bypass the cache
        }
        if let Some(idx) = self.map.get(&key).copied() {
            self.remove_index(idx);
        }
        let entry = LruEntry {
            key,
            value: Some(value),
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
        self.used_bytes += len;
        self.stats.inserts += 1;
        while self.used_bytes > capacity && self.tail != NIL && self.tail != idx {
            let victim = self.tail;
            self.remove_index(victim);
            self.stats.evictions += 1;
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used_bytes = 0;
    }
}

/// A sharded LRU cache of uncompressed blocks with a byte capacity.
///
/// # Examples
///
/// ```
/// use lsm_kvs::{BlockCache, FileNumber};
/// use std::sync::Arc;
///
/// let cache = BlockCache::new(1 << 20, 4);
/// let key = lsm_kvs::cache_key(FileNumber(1), 0);
/// assert!(cache.get(&key).is_none());
/// cache.insert(key, std::sync::Arc::new(lsm_kvs::Block::sentinel(4096)));
/// assert!(cache.get(&key).is_some());
/// ```
#[derive(Debug)]
pub struct BlockCache {
    shards: Vec<Mutex<LruShard>>,
    capacity_per_shard: u64,
}

/// Builds a [`BlockKey`] (convenience for examples and tests).
pub fn cache_key(file: FileNumber, offset: u64) -> BlockKey {
    BlockKey { file, offset }
}

impl BlockCache {
    /// Creates a cache with `capacity` bytes across `2^shard_bits` shards.
    pub fn new(capacity: u64, shard_bits: u32) -> Self {
        let num_shards = 1usize << shard_bits.min(8);
        BlockCache {
            shards: (0..num_shards).map(|_| Mutex::new(LruShard::new())).collect(),
            capacity_per_shard: (capacity / num_shards as u64).max(1),
        }
    }

    fn shard(&self, key: &BlockKey) -> &Mutex<LruShard> {
        let h = fnv1a(&key.file.0.to_le_bytes()) ^ key.offset.wrapping_mul(0x9e3779b97f4a7c15);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Looks up a block, refreshing its recency on hit.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<Block>> {
        self.shard(key).lock().get(key)
    }

    /// Inserts a block, evicting LRU entries past capacity.
    pub fn insert(&self, key: BlockKey, value: Arc<Block>) {
        self.shard(&key).lock().insert(key, value, self.capacity_per_shard);
    }

    /// Total bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.snapshot().used_bytes
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity_per_shard * self.shards.len() as u64
    }

    /// Aggregated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.snapshot().stats
    }

    /// Captures counters and byte usage together, reading each shard
    /// under one lock acquisition so the two stay mutually consistent.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut snap = CacheSnapshot {
            capacity: self.capacity(),
            ..CacheSnapshot::default()
        };
        for s in &self.shards {
            let shard = s.lock();
            snap.stats.merge(&shard.stats);
            snap.used_bytes += shard.used_bytes;
        }
        snap
    }

    /// Drops every cached block (used when options change between runs).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Table cache
// ---------------------------------------------------------------------------

/// An LRU cache of open table readers bounded by `max_open_files`.
///
/// `T` is the reader type (kept generic to avoid a dependency cycle with
/// the table module).
#[derive(Debug)]
pub struct TableCache<T> {
    inner: Mutex<TableCacheInner<T>>,
    capacity: usize,
}

#[derive(Debug)]
struct TableCacheInner<T> {
    map: IntMap<FileNumber, (Arc<T>, u64)>,
    tick: u64,
    evictions: u64,
}

impl<T> TableCache<T> {
    /// Creates a cache holding up to `max_open_files` readers
    /// (`-1`/very large = effectively unbounded).
    pub fn new(max_open_files: i64) -> Self {
        let capacity = if max_open_files < 0 {
            usize::MAX
        } else {
            (max_open_files as usize).max(16)
        };
        TableCache {
            inner: Mutex::new(TableCacheInner {
                map: IntMap::default(),
                tick: 0,
                evictions: 0,
            }),
            capacity,
        }
    }

    /// Returns the cached reader for `file`, if open.
    pub fn get(&self, file: FileNumber) -> Option<Arc<T>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(&file).map(|(r, t)| {
            *t = tick;
            Arc::clone(r)
        })
    }

    /// Inserts a freshly opened reader, evicting the LRU one if full.
    ///
    /// Returns every reader displaced by this insert — a same-key
    /// replacement and any capacity-driven LRU victims — so the caller
    /// can release whatever accounting (memory reservations) it holds
    /// against them.
    pub fn insert(&self, file: FileNumber, reader: Arc<T>) -> Vec<Arc<T>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let mut displaced = Vec::new();
        if let Some((old, _)) = inner.map.insert(file, (reader, tick)) {
            displaced.push(old);
        }
        while inner.map.len() > self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| *k)
                .expect("non-empty when over capacity");
            if let Some((old, _)) = inner.map.remove(&victim) {
                displaced.push(old);
            }
            inner.evictions += 1;
        }
        displaced
    }

    /// Removes a reader (when its file is deleted), returning it so the
    /// caller can release accounting held against it.
    pub fn evict(&self, file: FileNumber) -> Option<Arc<T>> {
        self.inner.lock().map.remove(&file).map(|(r, _)| r)
    }

    /// Number of open readers.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether no readers are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity-driven evictions so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Drops all open readers, returning them for accounting release.
    pub fn clear(&self) -> Vec<Arc<T>> {
        self.inner
            .lock()
            .map
            .drain()
            .map(|(_, (r, _))| r)
            .collect()
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
        let c = BlockCache::new(1 << 20, 2);
        c.insert(key(1, 0), block(100));
        assert!(c.get(&key(1, 0)).is_some());
        assert!(c.get(&key(1, 4096)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn capacity_evicts_lru() {
        // Single shard for deterministic eviction order.
        let c = BlockCache::new(4096, 0);
        c.insert(key(1, 0), block(1500));
        c.insert(key(1, 1), block(1500));
        // Touch the first entry so the second becomes LRU.
        assert!(c.get(&key(1, 0)).is_some());
        c.insert(key(1, 2), block(1500));
        assert!(c.get(&key(1, 0)).is_some(), "recently used survives");
        assert!(c.get(&key(1, 1)).is_none(), "LRU evicted");
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn an_evicted_block_is_released() {
        let c = BlockCache::new(4096, 0);
        let first = block(3000);
        let weak = Arc::downgrade(&first);
        c.insert(key(1, 0), first);
        c.insert(key(1, 1), block(3000));
        assert!(c.get(&key(1, 0)).is_none(), "evicted");
        assert!(weak.upgrade().is_none(), "the cache still holds the evicted block");
    }

    #[test]
    fn oversized_blocks_bypass() {
        let c = BlockCache::new(1024, 0);
        c.insert(key(1, 0), block(10_000));
        assert!(c.get(&key(1, 0)).is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn used_bytes_tracks_contents() {
        let c = BlockCache::new(1 << 20, 2);
        c.insert(key(1, 0), block(1000));
        c.insert(key(2, 0), block(2000));
        assert!(c.used_bytes() >= 3000);
        c.clear();
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn reinsert_same_key_replaces() {
        let c = BlockCache::new(1 << 20, 0);
        c.insert(key(1, 0), block(1000));
        c.insert(key(1, 0), block(500));
        assert_eq!(c.get(&key(1, 0)).unwrap().data_len(), 500);
        assert!(c.used_bytes() < 1000);
    }

    #[test]
    fn hit_ratio_computes() {
        let c = BlockCache::new(1 << 20, 0);
        c.insert(key(1, 0), block(10));
        c.get(&key(1, 0));
        c.get(&key(9, 9));
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn snapshot_is_internally_consistent() {
        let c = BlockCache::new(8192, 2);
        for i in 0..50 {
            c.insert(key(i, 0), block(936)); // 936 + 64 = 1000 charged bytes
            c.get(&key(i, 0));
        }
        let snap = c.snapshot();
        // Distinct fixed-size keys: bytes in cache are exactly the net
        // insert count times the per-entry charge.
        assert_eq!(
            snap.used_bytes,
            (snap.stats.inserts - snap.stats.evictions) * 1000
        );
        assert_eq!(snap.capacity, c.capacity());
        assert_eq!(snap.stats, c.stats());
    }

    #[test]
    fn table_cache_bounds_open_files() {
        let tc: TableCache<String> = TableCache::new(16);
        let mut displaced = 0usize;
        for i in 0..40 {
            displaced += tc.insert(FileNumber(i), Arc::new(format!("reader-{i}"))).len();
        }
        assert_eq!(tc.len(), 16);
        assert!(tc.evictions() >= 24);
        // Every insert past capacity hands its victim back to the caller.
        assert_eq!(displaced as u64, tc.evictions());
        // Most recent files survive.
        assert!(tc.get(FileNumber(39)).is_some());
        assert!(tc.get(FileNumber(0)).is_none());
    }

    #[test]
    fn table_cache_insert_returns_replaced_reader() {
        let tc: TableCache<u32> = TableCache::new(-1);
        assert!(tc.insert(FileNumber(1), Arc::new(7)).is_empty());
        let displaced = tc.insert(FileNumber(1), Arc::new(8));
        assert_eq!(displaced.len(), 1);
        assert_eq!(*displaced[0], 7);
        assert_eq!(tc.evictions(), 0, "replacement is not a capacity eviction");
    }

    #[test]
    fn table_cache_unbounded_with_minus_one() {
        let tc: TableCache<u32> = TableCache::new(-1);
        for i in 0..1000 {
            tc.insert(FileNumber(i), Arc::new(i as u32));
        }
        assert_eq!(tc.len(), 1000);
        assert_eq!(tc.evictions(), 0);
    }

    #[test]
    fn table_cache_evict_removes() {
        let tc: TableCache<u32> = TableCache::new(-1);
        tc.insert(FileNumber(1), Arc::new(1));
        assert_eq!(tc.evict(FileNumber(1)).map(|r| *r), Some(1));
        assert!(tc.evict(FileNumber(1)).is_none());
        assert!(tc.get(FileNumber(1)).is_none());
        assert!(tc.is_empty());
        let tc2: TableCache<u32> = TableCache::new(-1);
        tc2.insert(FileNumber(2), Arc::new(2));
        tc2.insert(FileNumber(3), Arc::new(3));
        assert_eq!(tc2.clear().len(), 2);
        assert!(tc2.is_empty());
    }
}
