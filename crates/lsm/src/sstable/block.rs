//! Data/index block format: prefix-compressed entries with restart points.
//!
//! The layout follows LevelDB/RocksDB:
//!
//! ```text
//! entry*: varint32 shared | varint32 non_shared | varint32 value_len
//!         | key_delta[non_shared] | value[value_len]
//! trailer: fixed32 restart_offset* | fixed32 num_restarts
//! ```
//!
//! Keys are *encoded internal keys*; ordering uses the internal-key
//! comparator.

use std::ops::Deref;

use crate::error::{Error, Result};
use crate::merge::Cursor;
use crate::types::internal_key_cmp;
use crate::util::{common_prefix_len, get_fixed32, get_varint32, put_fixed32, put_varint32};

/// Every key ends in the 8-byte tag the comparator reads; a shorter one
/// is refused before it can reach it.
const TAG_LEN: usize = 8;

/// Builds one block of sorted key/value entries.
#[derive(Debug)]
pub struct BlockBuilder {
    buf: Vec<u8>,
    restarts: Vec<u32>,
    restart_interval: usize,
    count_since_restart: usize,
    last_key: Vec<u8>,
    num_entries: usize,
}

impl BlockBuilder {
    /// Creates a builder with a restart point every `restart_interval`
    /// entries (values below 1 are clamped to 1).
    pub fn new(restart_interval: usize) -> Self {
        BlockBuilder {
            buf: Vec::new(),
            restarts: vec![0],
            restart_interval: restart_interval.max(1),
            count_since_restart: 0,
            last_key: Vec::new(),
            num_entries: 0,
        }
    }

    /// Appends an entry. Keys must arrive in strictly increasing
    /// internal-key order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when keys are out of order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) {
        debug_assert!(
            self.num_entries == 0
                || internal_key_cmp(&self.last_key, key) == std::cmp::Ordering::Less,
            "keys must be added in sorted order"
        );
        let shared = if self.count_since_restart < self.restart_interval {
            common_prefix_len(&self.last_key, key)
        } else {
            self.restarts.push(self.buf.len() as u32);
            self.count_since_restart = 0;
            0
        };
        let non_shared = key.len() - shared;
        put_varint32(&mut self.buf, shared as u32);
        put_varint32(&mut self.buf, non_shared as u32);
        put_varint32(&mut self.buf, value.len() as u32);
        self.buf.extend_from_slice(&key[shared..]);
        self.buf.extend_from_slice(value);
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.count_since_restart += 1;
        self.num_entries += 1;
    }

    /// Current serialized size estimate, including the trailer.
    pub fn size_estimate(&self) -> usize {
        self.buf.len() + self.restarts.len() * 4 + 4
    }

    /// Number of entries added.
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Whether the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.num_entries == 0
    }

    /// Serializes the block and resets the builder. The next block starts
    /// with room for one as large, so it is allocated once, not grown.
    pub fn finish(&mut self) -> Vec<u8> {
        let next = Vec::with_capacity(self.size_estimate());
        let mut out = std::mem::replace(&mut self.buf, next);
        for r in &self.restarts {
            put_fixed32(&mut out, *r);
        }
        put_fixed32(&mut out, self.restarts.len() as u32);
        self.restarts.clear();
        self.restarts.push(0);
        self.count_since_restart = 0;
        self.last_key.clear();
        self.num_entries = 0;
        out
    }
}

/// A parsed, immutable block supporting seek and scan. The restart
/// array is read from the trailer in place: [`parse`](Self::parse) checks
/// it once and keeps only where it starts and how many entries it has.
#[derive(Debug, Clone)]
pub struct Block {
    data: Vec<u8>,
    restarts_offset: usize,
    num_restarts: usize,
}

/// Where one entry's parts lie in a block's bytes: `shared` leading key
/// bytes come from the previous key, the rest run from `key_start` to the
/// start of `value`.
struct Entry {
    shared: usize,
    key_start: usize,
    value: (usize, usize),
}

impl Block {
    /// Parses a serialized block.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) if the trailer is malformed.
    pub fn parse(data: Vec<u8>) -> Result<Block> {
        if data.len() < 4 {
            return Err(Error::corruption("block too small for trailer"));
        }
        let num_restarts = get_fixed32(&data, data.len() - 4)
            .ok_or_else(|| Error::corruption("block trailer unreadable"))? as usize;
        let trailer = num_restarts
            .checked_mul(4)
            .and_then(|n| n.checked_add(4))
            .ok_or_else(|| Error::corruption("restart count overflow"))?;
        if trailer > data.len() {
            return Err(Error::corruption("restart array past block end"));
        }
        let restarts_offset = data.len() - trailer;
        let block = Block { data, restarts_offset, num_restarts };
        if (0..num_restarts).any(|i| block.restart(i) > restarts_offset) {
            return Err(Error::corruption("restart offset out of range"));
        }
        Ok(block)
    }

    /// Creates an unparseable placeholder block of `len` bytes.
    ///
    /// Used as a block-cache sentinel that charges the cache for resident
    /// table metadata without representing a real block: iteration yields
    /// nothing and seeks find nothing.
    pub fn sentinel(len: usize) -> Block {
        Block { data: vec![0u8; len], restarts_offset: 0, num_restarts: 0 }
    }

    /// Length of the serialized block payload (what the cache charges).
    pub fn data_len(&self) -> usize {
        self.data.len()
    }

    /// Returns an iterator positioned before the first entry.
    pub fn iter(&self) -> BlockIter<&Block> {
        BlockIter::new(self)
    }

    /// Finds the first entry with internal key >= `target`; returns its
    /// key and value copied out, or `None` when every entry is smaller.
    ///
    /// No engine path calls this: readers seek a [`BlockIter`] and borrow
    /// what it points at. It stays because the frozen benchmark ladder
    /// (`perf/src/ladder.rs`) times it.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) if entry decoding fails.
    pub fn seek(&self, target: &[u8]) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let mut it = self.iter();
        if it.seek(target)? {
            Ok(Some((it.key().to_vec(), it.value().to_vec())))
        } else {
            Ok(None)
        }
    }

    /// The `idx`-th restart offset, read from the trailer.
    fn restart(&self, idx: usize) -> usize {
        get_fixed32(&self.data, self.restarts_offset + idx * 4)
            .expect("parse bounded the restart array") as usize
    }

    /// Decodes the header of the entry at `offset`; `None` at the end of
    /// the entry region.
    fn entry_at(&self, offset: usize) -> Result<Option<Entry>> {
        if offset >= self.restarts_offset {
            return Ok(None);
        }
        let data = &self.data;
        let (shared, n1) = get_varint32(&data[offset..])
            .ok_or_else(|| Error::corruption("entry: bad shared len"))?;
        let (non_shared, n2) = get_varint32(&data[offset + n1..])
            .ok_or_else(|| Error::corruption("entry: bad non-shared len"))?;
        let (value_len, n3) = get_varint32(&data[offset + n1 + n2..])
            .ok_or_else(|| Error::corruption("entry: bad value len"))?;
        let key_start = offset + n1 + n2 + n3;
        let value_start = key_start + non_shared as usize;
        let value_end = value_start + value_len as usize;
        if value_end > self.restarts_offset {
            return Err(Error::corruption("entry extends past block data"));
        }
        Ok(Some(Entry { shared: shared as usize, key_start, value: (value_start, value_end) }))
    }

    /// Binary-searches the restart array for the offset of the last
    /// restart whose key is `< target`.
    fn restart_offset_before(&self, target: &[u8]) -> Result<usize> {
        if self.num_restarts == 0 {
            return Ok(0);
        }
        let mut lo = 0usize;
        let mut hi = self.num_restarts;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if internal_key_cmp(self.key_at_restart(mid)?, target) == std::cmp::Ordering::Less {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(self.restart(lo))
    }

    /// The key of the entry at restart `idx`, which shares nothing with
    /// its predecessor and so lies whole in the block.
    fn key_at_restart(&self, idx: usize) -> Result<&[u8]> {
        let entry = self
            .entry_at(self.restart(idx))?
            .ok_or_else(|| Error::corruption("restart points at empty region"))?;
        let key = &self.data[entry.key_start..entry.value.0];
        if entry.shared != 0 || key.len() < TAG_LEN {
            return Err(Error::corruption("restart entry's key does not lie whole in the block"));
        }
        Ok(key)
    }
}

/// Forward iterator over a [`Block`], generic over how the block is held.
///
/// `BlockIter<&Block>` (from [`Block::iter`]) borrows; `BlockIter<Arc<Block>>`
/// shares ownership, which is the zero-copy handoff for cached blocks:
/// cursors hold the `Arc<Block>` straight out of the block cache and read
/// values as slices into it, instead of re-parsing the payload or copying
/// every entry out of the block.
#[derive(Debug)]
pub struct BlockIter<B> {
    block: B,
    offset: usize,
    key: Vec<u8>,
    value_range: (usize, usize),
    valid: bool,
}

impl<B: Deref<Target = Block>> BlockIter<B> {
    /// Creates an iterator positioned before the first entry.
    pub fn new(block: B) -> Self {
        BlockIter { block, offset: 0, key: Vec::new(), value_range: (0, 0), valid: false }
    }

    /// Creates an iterator positioned at the first entry with internal
    /// key >= `target` (the first entry of all when `None`), or past the
    /// end when there is none.
    pub(crate) fn at(block: B, target: Option<&[u8]>) -> Result<Self> {
        let mut it = BlockIter::new(block);
        match target {
            Some(target) => it.seek(target)?,
            None => it.advance()?,
        };
        Ok(it)
    }

    /// Advances to the next entry; returns `false` at the end.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on malformed entries.
    pub fn advance(&mut self) -> Result<bool> {
        self.valid = false;
        let Some(entry) = self.block.entry_at(self.offset)? else {
            return Ok(false);
        };
        if entry.shared > self.key.len() {
            return Err(Error::corruption("entry shares more than previous key"));
        }
        self.key.truncate(entry.shared);
        self.key.extend_from_slice(&self.block.data[entry.key_start..entry.value.0]);
        if self.key.len() < TAG_LEN {
            return Err(Error::corruption("entry key shorter than an internal key's tag"));
        }
        self.value_range = entry.value;
        self.offset = entry.value.1;
        self.valid = true;
        Ok(true)
    }

    /// Repositions at the first entry with internal key >= `target`;
    /// returns `false` when every entry is smaller.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on malformed entries.
    pub fn seek(&mut self, target: &[u8]) -> Result<bool> {
        self.offset = self.block.restart_offset_before(target)?;
        self.key.clear();
        while self.advance()? {
            if internal_key_cmp(self.key(), target) != std::cmp::Ordering::Less {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The current entry's encoded internal key.
    ///
    /// Only meaningful after [`advance`](Self::advance) returned `true`.
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The current entry's value, as a slice into the block.
    pub fn value(&self) -> &[u8] {
        &self.block.data[self.value_range.0..self.value_range.1]
    }

    /// Whether the iterator is positioned at an entry.
    pub fn valid(&self) -> bool {
        self.valid
    }
}

/// A positioned block iterator is a cursor over the rest of its block.
impl<B: Deref<Target = Block>> Cursor for BlockIter<B> {
    fn key(&self) -> Option<&[u8]> {
        self.valid.then_some(self.key.as_slice())
    }

    fn value(&self) -> &[u8] {
        BlockIter::value(self)
    }

    fn advance(&mut self) -> Result<()> {
        BlockIter::advance(self).map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{InternalKey, ValueType};

    fn ikey(user: &str, seq: u64) -> Vec<u8> {
        InternalKey::new(user.as_bytes(), seq, ValueType::Value)
            .encoded()
            .to_vec()
    }

    fn build(entries: &[(&str, &str)], restart_interval: usize) -> Block {
        let mut b = BlockBuilder::new(restart_interval);
        for (i, (k, v)) in entries.iter().enumerate() {
            b.add(&ikey(k, (entries.len() - i) as u64), v.as_bytes());
        }
        Block::parse(b.finish()).unwrap()
    }

    #[test]
    fn iterate_all_entries() {
        let entries = [("apple", "1"), ("banana", "2"), ("cherry", "3")];
        let block = build(&entries, 16);
        let mut it = block.iter();
        let mut seen = Vec::new();
        while it.advance().unwrap() {
            let ik = InternalKey::decode(it.key()).unwrap();
            seen.push((
                String::from_utf8(ik.user_key().to_vec()).unwrap(),
                String::from_utf8(it.value().to_vec()).unwrap(),
            ));
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, "apple");
        assert_eq!(seen[2], ("cherry".to_string(), "3".to_string()));
    }

    #[test]
    fn seek_finds_exact_and_following() {
        let entries = [("aa", "1"), ("bb", "2"), ("dd", "3")];
        let block = build(&entries, 2);
        let target = crate::types::lookup_key(b"bb", u64::MAX);
        let (k, v) = block.seek(target.encoded()).unwrap().unwrap();
        assert_eq!(InternalKey::decode(&k).unwrap().user_key(), b"bb");
        assert_eq!(v, b"2");
        // "cc" is absent; seek lands on "dd".
        let target = crate::types::lookup_key(b"cc", u64::MAX);
        let (k, _) = block.seek(target.encoded()).unwrap().unwrap();
        assert_eq!(InternalKey::decode(&k).unwrap().user_key(), b"dd");
        // Past the end.
        let target = crate::types::lookup_key(b"zz", u64::MAX);
        assert!(block.seek(target.encoded()).unwrap().is_none());
    }

    #[test]
    fn prefix_compression_shrinks_blocks() {
        let keys: Vec<String> = (0..100).map(|i| format!("common-prefix-key-{i:04}")).collect();
        let mut with = BlockBuilder::new(16);
        let mut without = BlockBuilder::new(1);
        for (i, k) in keys.iter().enumerate() {
            let ik = ikey(k, (keys.len() - i) as u64);
            with.add(&ik, b"v");
            without.add(&ik, b"v");
        }
        assert!(with.finish().len() < without.finish().len());
    }

    #[test]
    fn restart_interval_one_still_seeks() {
        let entries = [("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")];
        let block = build(&entries, 1);
        for (k, v) in entries {
            let target = crate::types::lookup_key(k.as_bytes(), u64::MAX);
            let (_, got) = block.seek(target.encoded()).unwrap().unwrap();
            assert_eq!(got, v.as_bytes());
        }
    }

    #[test]
    fn large_block_roundtrips() {
        let mut b = BlockBuilder::new(16);
        let n = 5_000;
        for i in 0..n {
            b.add(&ikey(&format!("key-{i:08}"), (n - i) as u64), format!("value-{i}").as_bytes());
        }
        assert_eq!(b.num_entries(), n);
        let block = Block::parse(b.finish()).unwrap();
        let mut it = block.iter();
        let mut count = 0;
        while it.advance().unwrap() {
            count += 1;
        }
        assert_eq!(count, n);
    }

    #[test]
    fn owned_iter_seeks_and_scans_shared_block() {
        use std::sync::Arc;

        let entries = [("aa", "1"), ("bb", "2"), ("dd", "3")];
        let block = Arc::new(build(&entries, 2));
        let mut it = BlockIter::new(Arc::clone(&block));
        let target = crate::types::lookup_key(b"bb", u64::MAX);
        assert!(it.seek(target.encoded()).unwrap());
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key(), b"bb");
        assert_eq!(it.value(), b"2");
        assert!(it.advance().unwrap());
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key(), b"dd");
        assert!(!it.advance().unwrap());
        assert!(!it.valid());
        // Seeking past the end invalidates.
        let target = crate::types::lookup_key(b"zz", u64::MAX);
        assert!(!it.seek(target.encoded()).unwrap());
    }

    #[test]
    fn sentinel_blocks_are_inert() {
        let s = Block::sentinel(936);
        assert_eq!(s.data_len(), 936);
        let mut it = s.iter();
        assert!(!it.advance().unwrap());
        let target = crate::types::lookup_key(b"k", u64::MAX);
        assert!(s.seek(target.encoded()).unwrap().is_none());
    }

    #[test]
    fn parse_rejects_corrupt_trailers() {
        assert!(Block::parse(vec![]).is_err());
        assert!(Block::parse(vec![0xff, 0xff, 0xff, 0xff]).is_err());
        // Valid trailer count but offsets point past the data.
        let mut bad = vec![0u8; 4];
        put_fixed32(&mut bad, 9999);
        put_fixed32(&mut bad, 1);
        assert!(Block::parse(bad).is_err());
    }

    #[test]
    fn builder_resets_after_finish() {
        let mut b = BlockBuilder::new(16);
        b.add(&ikey("a", 1), b"1");
        let first = b.finish();
        assert!(b.is_empty());
        b.add(&ikey("a", 1), b"1");
        let second = b.finish();
        assert_eq!(first, second);
    }
}
