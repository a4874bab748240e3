//! In-memory write buffer (memtable).
//!
//! There is one representation, and it puts entries in order only when a
//! reader asks for order:
//!
//! - **An append log.** Each entry's encoded internal key (user key ++
//!   8-byte tag) and value are appended, contiguous and in arrival order,
//!   to an arena of 64 KiB chunks. The 16-byte records that say where an
//!   entry's bytes are live in tables of fixed-size chunks too, so nothing
//!   is moved or copied as the memtable grows.
//! - **A hash index.** Each user key is a node in a chained hash table.
//!   The node holds the key's newest entry, and each entry names the key's
//!   next-older one in a log of displaced versions. Versions stay linked
//!   newest first by sequence whatever order they arrive in, so a point
//!   lookup at the latest snapshot is one hash probe and one entry; an
//!   older snapshot walks past the versions written after it. The array
//!   of chain heads is the one allocation that grows with the memtable:
//!   it doubles with the distinct keys, at 4 to 8 bytes a key, so a
//!   memtable of a few hot keys does not pay for an index sized to its
//!   write buffer.
//! - **Order on demand.** Internal-key order is built only when asked for:
//!   the user keys not yet ordered are sorted (on an 8-byte prefix taken
//!   past the bytes every key shares, then the full key) into runs of at
//!   most 64 Ki keys, and readers merge the runs, each key's versions
//!   following it newest first. A flush's [`MemTable::view`] sorts an
//!   immutable memtable once; a [`MemTableCursor`] over the live memtable
//!   sorts only the keys that arrived since the last one and folds small
//!   runs together, so scans between inserts do not re-sort the table.
//!
//! All of it sits behind one reader-writer lock, mutated through `&self`;
//! the runs sit behind a second lock of their own. The approximate
//! byte count sits beside them as an atomic and charges each entry its
//! user key + 8 + value + 48 bytes, whatever the layout. `memtable_factory` is still a recognised option, but
//! nothing here reads it.

use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use crate::cache::IntHasher;
use crate::error::Result;
use crate::merge::Cursor;
use crate::options::MemtableRep;
use crate::types::{split_tag, SequenceNumber, ValueType, MAX_SEQUENCE, VALUE_TYPE_FOR_SEEK};

/// No entry: the end of a version chain.
const NIL: u32 = u32::MAX;

/// Items per chunk of the entry log and of the key table.
const CHUNK_ITEMS: usize = 4096;

/// A vector grown a fixed-size chunk at a time: a push never moves what
/// is already there, and no allocation grows with the item count.
struct Chunked<T> {
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new(), len: 0 }
    }
}

impl<T> Chunked<T> {
    /// Appends `item` and returns its index.
    fn push(&mut self, item: T) -> u32 {
        let index = u32::try_from(self.len).ok().filter(|&i| i < NIL - 1);
        let index = index.expect("fewer than 2^32 - 2 items");
        if self.len.is_multiple_of(CHUNK_ITEMS) {
            self.chunks.push(Vec::with_capacity(CHUNK_ITEMS));
        }
        self.chunks.last_mut().expect("a chunk").push(item);
        self.len += 1;
        index
    }

    fn get(&self, index: u32) -> &T {
        let index = index as usize;
        &self.chunks[index / CHUNK_ITEMS][index % CHUNK_ITEMS]
    }

    fn get_mut(&mut self, index: u32) -> &mut T {
        let index = index as usize;
        &mut self.chunks[index / CHUNK_ITEMS][index % CHUNK_ITEMS]
    }
}

/// The size of an arena chunk. An entry larger than this gets a chunk of
/// its own.
const CHUNK: usize = 64 << 10;

/// Append-only storage for a memtable's entries, each its encoded
/// internal key followed by its value: 64 KiB chunks filled in order and
/// freed together when the memtable drops. An entry's bytes are never
/// moved or overwritten.
#[derive(Default)]
struct Arena {
    chunks: Vec<Vec<u8>>,
    /// The chunk small entries are appended to. Oversized entries are
    /// pushed after it and leave it filling.
    filling: usize,
}

impl Arena {
    /// Appends `user_key ++ fixed64(tag) ++ value`; returns its chunk and
    /// offset.
    fn push(&mut self, user_key: &[u8], tag: u64, value: &[u8]) -> (u32, u32) {
        let len = user_key.len() + 8 + value.len();
        let index = if len > CHUNK {
            self.chunks.push(Vec::with_capacity(len));
            self.chunks.len() - 1
        } else {
            let fits = |c: &Vec<u8>| c.len() + len <= CHUNK;
            if !self.chunks.get(self.filling).is_some_and(fits) {
                self.chunks.push(Vec::with_capacity(CHUNK));
                self.filling = self.chunks.len() - 1;
            }
            self.filling
        };
        let chunk = &mut self.chunks[index];
        // At most CHUNK unless the chunk is the entry's own: lossless.
        let offset = chunk.len() as u32;
        chunk.extend_from_slice(user_key);
        chunk.extend_from_slice(&tag.to_le_bytes());
        chunk.extend_from_slice(value);
        (u32::try_from(index).expect("fewer than 2^32 chunks"), offset)
    }

    /// The tag of `entry`, whose user key is `key_len` bytes long.
    fn tag(&self, entry: &Entry, key_len: u32) -> u64 {
        let at = entry.offset as usize + key_len as usize;
        let tag = &self.chunks[entry.chunk as usize][at..at + 8];
        u64::from_le_bytes(tag.try_into().expect("8 bytes"))
    }
}

/// One entry: where its bytes are (its tag among them), and the key's
/// next-older entry in the log.
#[derive(Clone, Copy)]
struct Entry {
    chunk: u32,
    offset: u32,
    value_len: u32,
    older: u32,
}

/// One user key in the hash index, holding the key's newest entry.
struct KeyNode {
    newest: Entry,
    /// The next key in the same bucket, as `1 + id`; 0 ends the chain.
    next: u32,
    /// The low 32 bits of the key's hash.
    hash: u32,
    /// The user key's length.
    len: u32,
}

/// Which entry of a key: the newest, in its node, or an older one in the
/// log.
#[derive(Clone, Copy)]
enum At {
    Newest,
    Older(u32),
}

/// The bucket array a memtable starts with.
const MIN_BUCKETS: usize = 1 << 8;

/// The key index, the log of older entries and the arena, behind one
/// lock.
struct Entries {
    /// Each key's node, in the order the keys first arrived.
    keys: Chunked<KeyNode>,
    /// Entries a newer version displaced from their key's node, and
    /// entries that arrived older than the newest, in the order they were
    /// logged.
    older: Chunked<Entry>,
    /// Heads of the hash chains, as `1 + key id`; 0 is an empty bucket.
    buckets: Vec<u32>,
    arena: Arena,
    /// How many leading bytes every user key so far shares.
    shared: usize,
}

impl Entries {
    fn new() -> Self {
        Entries {
            keys: Chunked::default(),
            older: Chunked::default(),
            buckets: vec![0; MIN_BUCKETS],
            arena: Arena::default(),
            shared: 0,
        }
    }

    fn len(&self) -> usize {
        self.keys.len + self.older.len
    }

    /// The encoded internal key and the value of `entry`, a version of
    /// `key`.
    fn bytes(&self, key: &KeyNode, entry: &Entry) -> (&[u8], &[u8]) {
        let chunk = &self.arena.chunks[entry.chunk as usize];
        let at = entry.offset as usize;
        let key_end = at + key.len as usize + 8;
        (&chunk[at..key_end], &chunk[key_end..key_end + entry.value_len as usize])
    }

    fn user_key(&self, key: u32) -> &[u8] {
        let node = self.keys.get(key);
        &self.bytes(node, &node.newest).0[..node.len as usize]
    }

    fn entry(&self, key: &KeyNode, at: At) -> Entry {
        match at {
            At::Newest => key.newest,
            At::Older(id) => *self.older.get(id),
        }
    }

    /// The newest version of `key` whose tag is at most `tag`.
    fn version_at_or_below(&self, key: &KeyNode, tag: u64) -> Option<At> {
        let mut at = At::Newest;
        loop {
            visited(Visit::Entry);
            let entry = self.entry(key, at);
            if self.arena.tag(&entry, key.len) <= tag {
                return Some(at);
            }
            at = At::Older(entry.older).filter_nil()?;
        }
    }

    /// The version of `key` after `at`, which carries `tag`: the next
    /// older one. If `at` is the newest and a newer version has since
    /// taken its place in the node, the chain is walked to below `tag`.
    fn version_after(&self, key: &KeyNode, at: At, tag: u64) -> Option<At> {
        match at {
            At::Older(id) => At::Older(self.older.get(id).older).filter_nil(),
            At::Newest => self.version_at_or_below(key, tag.checked_sub(1)?),
        }
    }

    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.buckets.len() - 1)
    }

    /// The id of `user_key`'s node, walking its hash chain.
    fn find(&self, user_key: &[u8], hash: u64) -> Option<u32> {
        let mut link = self.buckets[self.bucket(hash)];
        while link != 0 {
            let key = link - 1;
            visited(Visit::Key);
            let node = self.keys.get(key);
            if node.hash == hash as u32
                && node.len as usize == user_key.len()
                && self.user_key(key) == user_key
            {
                return Some(key);
            }
            link = node.next;
        }
        None
    }

    /// Stores an entry and links it into its key's versions, newest
    /// first by tag. An entry whose internal key is already present
    /// replaces that entry's bytes, as a map insert would.
    fn insert(&mut self, user_key: &[u8], hash: u64, tag: u64, value: &[u8]) {
        let (chunk, offset) = self.arena.push(user_key, tag, value);
        let value_len = u32::try_from(value.len()).expect("values under 4 GiB");
        let entry = Entry { chunk, offset, value_len, older: NIL };
        let Some(key) = self.find(user_key, hash) else {
            self.shared = match self.keys.len {
                0 => user_key.len(),
                _ => {
                    let shared = &self.user_key(0)[..self.shared];
                    match user_key.starts_with(shared) {
                        true => shared.len(),
                        false => shared.iter().zip(user_key).take_while(|(a, b)| a == b).count(),
                    }
                }
            };
            let bucket = self.bucket(hash);
            let len = u32::try_from(user_key.len()).expect("keys under 4 GiB");
            let next = self.buckets[bucket];
            let node = KeyNode { newest: entry, next, hash: hash as u32, len };
            self.buckets[bucket] = self.keys.push(node) + 1;
            if self.keys.len > self.buckets.len() {
                self.grow();
            }
            return;
        };
        let node = self.keys.get_mut(key);
        let newest = self.arena.tag(&node.newest, node.len);
        // Sequences arrive in order from a `Db`'s writes: the new entry
        // displaces the newest into the log. Recovery may land an older
        // one later: an open cut after it synced the re-logged WAL but
        // before CURRENT names the new manifest leaves the old logs
        // beside the re-logged one, and the next open replays both, so
        // the re-logged records arrive below newer versions of their key.
        if tag > newest {
            let displaced = self.older.push(node.newest);
            node.newest = Entry { older: displaced, ..entry };
            return;
        }
        if tag == newest {
            node.newest = Entry { older: node.newest.older, ..entry };
            return;
        }
        let (len, mut newer, mut next) = (node.len, At::Newest, node.newest.older);
        while next != NIL {
            let found = self.older.get_mut(next);
            let found_tag = self.arena.tag(found, len);
            if found_tag == tag {
                *found = Entry { older: found.older, ..entry };
                return;
            }
            if found_tag < tag {
                break;
            }
            (newer, next) = (At::Older(next), found.older);
        }
        let id = self.older.push(Entry { older: next, ..entry });
        match newer {
            At::Newest => self.keys.get_mut(key).newest.older = id,
            At::Older(newer) => self.older.get_mut(newer).older = id,
        }
    }

    /// Doubles the bucket array and relinks every key. Only the array of
    /// chain heads is reallocated, at most 8 bytes per key; the nodes stay
    /// where they are.
    fn grow(&mut self) {
        self.buckets = vec![0; self.buckets.len() * 2];
        for key in 0..self.keys.len as u32 {
            let bucket = self.bucket(u64::from(self.keys.get(key).hash));
            self.keys.get_mut(key).next = self.buckets[bucket];
            self.buckets[bucket] = key + 1;
        }
    }

    /// Orders two keys by their prefixes, then by their bytes.
    fn cmp_keys(&self, (a_prefix, a): (u64, u32), (b_prefix, b): (u64, u32)) -> Ordering {
        a_prefix.cmp(&b_prefix).then_with(|| self.user_key(a).cmp(self.user_key(b)))
    }

    /// `keys` sorted by user key into a run, through `records`.
    fn sort(&self, keys: impl Iterator<Item = u32>, records: &mut Vec<(u64, u32)>) -> Arc<[u32]> {
        records.clear();
        records.extend(keys.map(|key| (prefix_of(self.user_key(key), self.shared), key)));
        records.sort_unstable_by_key(|&(prefix, _)| prefix);
        for tied in records.chunk_by_mut(|a, b| a.0 == b.0).filter(|keys| keys.len() > 1) {
            tied.sort_unstable_by(|&(_, a), &(_, b)| self.user_key(a).cmp(self.user_key(b)));
        }
        records.iter().map(|&(_, key)| key).collect()
    }
}

impl At {
    /// `None` for an `Older` that names no entry.
    fn filter_nil(self) -> Option<At> {
        match self {
            At::Older(NIL) => None,
            at => Some(at),
        }
    }
}

/// The sort prefix of a user key: its 8 bytes after the first `shared`,
/// big-endian, zero-padded. Every key under a given `shared` begins with
/// the same `shared` bytes, so a smaller prefix is a smaller key and equal
/// prefixes leave the order to the full keys.
fn prefix_of(user_key: &[u8], shared: usize) -> u64 {
    let tail = &user_key[shared..];
    let mut word = [0; 8];
    let n = tail.len().min(8);
    word[..n].copy_from_slice(&tail[..n]);
    u64::from_be_bytes(word)
}

/// The most keys a run is sorted or folded into at once, which bounds the
/// sort's scratch to 1 MiB.
const RUN: usize = 1 << 16;

/// The memtable's user keys in order: sorted runs of key ids, disjoint,
/// together covering the ids below `covered`.
#[derive(Default)]
struct Order {
    runs: Vec<Arc<[u32]>>,
    covered: usize,
}

impl Order {
    /// Sorts the keys that arrived since the last call into runs of at
    /// most [`RUN`] keys, folds a small last run into the one before it
    /// while that one is at most twice its size (so scans between inserts
    /// leave few small runs), and returns the runs.
    fn runs(&mut self, entries: &Entries) -> &[Arc<[u32]>] {
        let total = entries.keys.len;
        if self.covered < total {
            let mut records = Vec::with_capacity((total - self.covered).min(RUN));
            for start in (self.covered..total).step_by(RUN) {
                let end = (start + RUN).min(total);
                self.runs.push(entries.sort(start as u32..end as u32, &mut records));
                while let [.., a, b] = &self.runs[..] {
                    if a.len() > 2 * b.len() || a.len() + b.len() > RUN {
                        break;
                    }
                    let folded = entries.sort(a.iter().chain(b.iter()).copied(), &mut records);
                    self.runs.truncate(self.runs.len() - 2);
                    self.runs.push(folded);
                }
            }
            self.covered = total;
        }
        &self.runs
    }
}

/// How many keys a merge reads ahead in each run. The read-ahead fetches
/// each key's node, then each key's leading bytes, in loops whose
/// iterations do not depend on each other, so the cache misses that a
/// walk in key order would take one after another overlap instead.
const AHEAD: usize = 32;

/// A merge of sorted runs of key ids into one stream in user-key order.
struct RunMerge {
    heads: Vec<Head>,
    /// The shared-prefix length the prefixes are taken after. Every key
    /// in the runs has it, whatever arrives later.
    shared: usize,
}

/// A run in a [`RunMerge`] and its next keys, with their sort prefixes.
struct Head {
    run: Arc<[u32]>,
    /// Where in `run` the read-ahead continues.
    next: usize,
    ahead: Vec<(u64, u32)>,
    /// The first key of `ahead` not yet merged.
    at: usize,
}

impl Head {
    fn peek(&self) -> Option<(u64, u32)> {
        self.ahead.get(self.at).copied()
    }

    /// Reads ahead from `next`.
    fn fill(&mut self, entries: &Entries, shared: usize) {
        let keys = &self.run[self.next..(self.next + AHEAD).min(self.run.len())];
        let mut nodes = [(0, 0, 0); AHEAD];
        for (node, &key) in nodes.iter_mut().zip(keys) {
            let KeyNode { newest, len, .. } = *entries.keys.get(key);
            *node = (newest.chunk, newest.offset, len);
        }
        self.ahead.clear();
        self.ahead.extend(nodes.iter().zip(keys).map(|(&(chunk, offset, len), &key)| {
            let at = offset as usize;
            let user_key = &entries.arena.chunks[chunk as usize][at..at + len as usize];
            (prefix_of(user_key, shared), key)
        }));
        (self.next, self.at) = (self.next + keys.len(), 0);
    }
}

impl RunMerge {
    fn new<'a>(runs: impl Iterator<Item = &'a Arc<[u32]>>, entries: &Entries) -> Self {
        let shared = entries.shared;
        let heads = runs
            .map(|run| {
                let ahead = Vec::with_capacity(AHEAD);
                let mut head = Head { run: Arc::clone(run), next: 0, ahead, at: 0 };
                head.fill(entries, shared);
                head
            })
            .collect();
        RunMerge { heads, shared }
    }

    /// Positions every run at its first key not below `user_key`.
    fn seek(&mut self, user_key: &[u8], entries: &Entries) {
        for head in &mut self.heads {
            head.next = head.run.partition_point(|&k| entries.user_key(k) < user_key);
            head.fill(entries, self.shared);
        }
    }

    /// The next key id in user-key order.
    fn next(&mut self, entries: &Entries) -> Option<u32> {
        let mut best: Option<(usize, (u64, u32))> = None;
        for (i, head) in self.heads.iter().enumerate() {
            let Some(candidate) = head.peek() else { continue };
            if best.is_none_or(|(_, least)| entries.cmp_keys(candidate, least).is_lt()) {
                best = Some((i, candidate));
            }
        }
        let (i, (_, key)) = best?;
        let head = &mut self.heads[i];
        head.at += 1;
        if head.at == head.ahead.len() {
            head.fill(entries, self.shared);
        }
        Some(key)
    }
}

/// What a point lookup examines, counted by the complexity tests.
#[derive(Clone, Copy)]
enum Visit {
    /// A key node on a hash chain.
    Key,
    /// An entry of the key found.
    Entry,
}

/// Counts nothing outside the tests (see `tests::visited`).
#[cfg(not(test))]
fn visited(_: Visit) {}

/// The index's hash of a user key: its 8-byte words, the last one
/// zero-padded, then its length.
fn hash_key(user_key: &[u8]) -> u64 {
    let mut hasher = IntHasher::default();
    let mut words = user_key.chunks_exact(8);
    for word in &mut words {
        hasher.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0; 8];
        word[..tail.len()].copy_from_slice(tail);
        hasher.write_u64(u64::from_le_bytes(word));
    }
    hasher.write_u64(user_key.len() as u64);
    hasher.finish()
}

/// An in-memory buffer of recent writes, read by key or in order.
///
/// All mutation goes through `&self`: the entries lock internally, so the
/// surrounding `Db` can share one `Arc<MemTable>` between writers,
/// readers, cursors, and flush without an outer lock.
///
/// Memory accounting is approximate (key + value + fixed per-entry
/// overhead), mirroring how RocksDB charges its arena.
pub struct MemTable {
    entries: RwLock<Entries>,
    /// Taken before `entries` by whoever builds order.
    order: Mutex<Order>,
    approximate_bytes: AtomicUsize,
}

const ENTRY_OVERHEAD: usize = 48;

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable {
            entries: RwLock::new(Entries::new()),
            order: Mutex::default(),
            approximate_bytes: AtomicUsize::new(0),
        }
    }

    /// Creates an empty memtable, as [`MemTable::new`] does: every
    /// parameter is ignored. `perf/src/ladder.rs` passes four arguments
    /// and is frozen.
    pub fn with_config(_rep: MemtableRep, _: usize, _: usize, _: usize) -> Self {
        Self::new()
    }

    /// Inserts a value or tombstone. The entry's bytes are appended to
    /// the arena and its record to the log; neither allocates unless it
    /// starts a chunk.
    pub fn add(&self, seq: SequenceNumber, ty: ValueType, user_key: &[u8], value: &[u8]) {
        let hash = hash_key(user_key);
        let charged = user_key.len() + 8 + value.len() + ENTRY_OVERHEAD;
        self.entries.write().insert(user_key, hash, (seq << 8) | ty as u64, value);
        self.approximate_bytes.fetch_add(charged, AtomicOrdering::Relaxed);
    }

    /// Looks up the newest entry for `user_key` visible at `snapshot`: its
    /// type and stored bytes.
    ///
    /// A hash probe, then the key's versions newest first: at the latest
    /// snapshot the first one decides, and an older snapshot walks past
    /// the versions written after it.
    pub fn get(&self, user_key: &[u8], snapshot: SequenceNumber) -> Option<(ValueType, Vec<u8>)> {
        let seek_tag = (snapshot.min(MAX_SEQUENCE) << 8) | VALUE_TYPE_FOR_SEEK as u64;
        let hash = hash_key(user_key);
        let entries = self.entries.read();
        let key = entries.keys.get(entries.find(user_key, hash)?);
        let entry = entries.entry(key, entries.version_at_or_below(key, seek_tag)?);
        let ty = ValueType::of_tag(entries.arena.tag(&entry, key.len) as u8);
        let ty = ty.expect("`add` stored a `ValueType`");
        Some((ty, entries.bytes(key, &entry).1.to_vec()))
    }

    /// Approximate memory footprint in bytes.
    pub fn approximate_memory_usage(&self) -> usize {
        self.approximate_bytes.load(AtomicOrdering::Relaxed)
    }

    /// Number of entries (including tombstones and shadowed versions).
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A stable iteration view over the entries, in internal-key order.
    ///
    /// The view holds the read lock for its lifetime. This is the full
    /// pass flush makes over an immutable memtable: the first view sorts
    /// the keys, a later one finds them sorted, and the entries are walked
    /// in place instead of copied out per step as [`MemTableCursor`] must.
    pub fn view(&self) -> MemTableView<'_> {
        let mut order = self.order.lock();
        let entries = self.entries.read();
        let runs = order.runs(&entries).to_vec();
        MemTableView { entries, runs }
    }
}

impl Default for MemTable {
    fn default() -> Self {
        Self::new()
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
pub struct MemTableView<'a> {
    entries: RwLockReadGuard<'a, Entries>,
    runs: Vec<Arc<[u32]>>,
}

impl MemTableView<'_> {
    /// Iterates entries in internal-key order as `(encoded_key, value)`.
    pub fn iter(&self) -> MemViewIter<'_> {
        let entries = &*self.entries;
        MemViewIter { entries, keys: RunMerge::new(self.runs.iter(), entries), at: None }
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
pub struct MemViewIter<'a> {
    entries: &'a Entries,
    keys: RunMerge,
    /// The key being walked and its next version to yield.
    at: Option<(&'a KeyNode, u32)>,
}

impl<'a> Iterator for MemViewIter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let entries = self.entries;
        let (key, entry) = match self.at {
            Some((key, older)) if older != NIL => (key, entries.older.get(older)),
            _ => {
                let key = entries.keys.get(self.keys.next(entries)?);
                (key, &key.newest)
            }
        };
        self.at = Some((key, entry.older));
        Some(entries.bytes(key, entry))
    }
}

/// A stepping cursor over one memtable, positioned at or after a seek
/// target and advanced entry by entry.
///
/// The seek orders the keys that arrived since the last seek or view and
/// keeps the runs it merges, so it yields every entry present at the
/// seek that sorts at or after the target, and none that sorts before
/// its position; a key first inserted after the seek is not yielded. It
/// owns a copy of the current entry and takes the read lock only to step,
/// so no lock is held between steps. That is what scans need over the
/// live memtable, where a [`MemTable::view`] would block writers for as
/// long as the scan waits on table reads. The cursor shares ownership of
/// the memtable, so it stays valid after the memtable is rotated out of
/// the active slot or scheduled for flush.
pub struct MemTableCursor {
    mem: Arc<MemTable>,
    keys: RunMerge,
    /// The current key id, entry and tag, `None` when exhausted.
    at: Option<(u32, At, u64)>,
    key: Vec<u8>,
    value: Vec<u8>,
}

impl MemTableCursor {
    /// Positions a cursor at the first entry with internal key >=
    /// `target`.
    pub fn seek(mem: Arc<MemTable>, target: &[u8]) -> Self {
        let (user_key, tag) = split_tag(target);
        let mut order = mem.order.lock();
        let entries = mem.entries.read();
        let mut keys = RunMerge::new(order.runs(&entries).iter(), &entries);
        drop(order);
        keys.seek(user_key, &entries);
        // The first key at or after the target's user key; if it is that
        // key, its first version at or below the target's tag.
        let at = keys.next(&entries).and_then(|key| {
            let node = entries.keys.get(key);
            match entries.user_key(key) == user_key {
                true => entries.version_at_or_below(node, tag).map(|at| (key, at)),
                false => Some((key, At::Newest)),
            }
        });
        let at = at.or_else(|| keys.next(&entries).map(|key| (key, At::Newest)));
        let (mut key, mut value) = (Vec::new(), Vec::new());
        let at = copy_entry(&entries, at, &mut key, &mut value);
        drop(entries);
        MemTableCursor { mem, keys, at, key, value }
    }

    /// Current internal key, or `None` when exhausted.
    pub fn key(&self) -> Option<&[u8]> {
        self.at.map(|_| self.key.as_slice())
    }

    /// Current value, or `None` when exhausted.
    pub fn value(&self) -> Option<&[u8]> {
        self.at.map(|_| self.value.as_slice())
    }

    /// Advances to the next entry in internal-key order: the current
    /// key's next-older version, else the newest version of the next key.
    pub fn advance(&mut self) {
        let Some((key, at, tag)) = self.at else { return };
        let entries = self.mem.entries.read();
        let next = match entries.version_after(entries.keys.get(key), at, tag) {
            Some(at) => Some((key, at)),
            None => self.keys.next(&entries).map(|key| (key, At::Newest)),
        };
        self.at = copy_entry(&entries, next, &mut self.key, &mut self.value);
    }
}

/// Copies the entry at `at` into a cursor's buffers and returns the
/// cursor's position.
fn copy_entry(
    entries: &Entries,
    at: Option<(u32, At)>,
    key_buf: &mut Vec<u8>,
    value_buf: &mut Vec<u8>,
) -> Option<(u32, At, u64)> {
    let (key, at) = at?;
    let node = entries.keys.get(key);
    let entry = entries.entry(node, at);
    let (k, v) = entries.bytes(node, &entry);
    key_buf.clear();
    key_buf.extend_from_slice(k);
    value_buf.clear();
    value_buf.extend_from_slice(v);
    Some((key, at, entries.arena.tag(&entry, node.len)))
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
use tests::visited;

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::types::{internal_key_cmp, InternalKey};

    thread_local! {
        /// Key nodes and entries the calling thread's lookups examined.
        static VISITS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn visited(what: Visit) {
        VISITS.with(|visits| {
            let (keys, entries) = visits.get();
            visits.set(match what {
                Visit::Key => (keys + 1, entries),
                Visit::Entry => (keys, entries + 1),
            });
        });
    }

    /// What `lookup` examined: hash-chain key nodes and entries.
    fn visits<T>(lookup: impl FnOnce() -> T) -> (T, (usize, usize)) {
        VISITS.with(|v| v.set((0, 0)));
        let found = lookup();
        (found, VISITS.with(Cell::get))
    }

    /// A point lookup costs its hash chain and, for a key that is there,
    /// the versions newer than its snapshot plus one: at the latest
    /// snapshot a key with 10,000 versions examines one entry, and an
    /// absent key examines its chain and no entry. (A lookup that walked
    /// every version of a hot key costs zipfian rewrites of the same keys
    /// most of their throughput.)
    #[test]
    fn get_examines_one_chain_and_the_versions_it_needs() {
        const VERSIONS: u64 = 10_000;
        let mt = MemTable::new();
        for i in 0..1_000u64 {
            mt.add(i + 1, ValueType::Value, format!("key-{i:04}").as_bytes(), b"v");
        }
        for seq in 1..=VERSIONS {
            mt.add(1_000 + seq, ValueType::Value, b"hot", &seq.to_le_bytes());
        }
        let chain_of = |user_key: &[u8]| {
            let entries = mt.entries.read();
            let hash = hash_key(user_key);
            let mut link = entries.buckets[entries.bucket(hash)];
            let mut chain = 0;
            while link != 0 {
                chain += 1;
                let key = link - 1;
                if entries.user_key(key) == user_key {
                    break;
                }
                link = entries.keys.get(key).next;
            }
            chain
        };

        let (found, seen) = visits(|| mt.get(b"hot", MAX_SEQUENCE));
        assert_eq!(found, Some((ValueType::Value, VERSIONS.to_le_bytes().to_vec())));
        assert_eq!(seen, (chain_of(b"hot"), 1));

        // The oldest snapshot walks the versions written after it.
        let (found, seen) = visits(|| mt.get(b"hot", 1_001));
        assert_eq!(found, Some((ValueType::Value, 1u64.to_le_bytes().to_vec())));
        assert_eq!(seen, (chain_of(b"hot"), VERSIONS as usize));

        for absent in [&b"cold"[..], b"key-1000", b"", b"hot\0"] {
            let (found, seen) = visits(|| mt.get(absent, MAX_SEQUENCE));
            assert_eq!(found, None);
            assert_eq!(seen, (chain_of(absent), 0), "{absent:?}");
        }
    }

    /// A cursor on a key's newest entry steps to what follows it even when
    /// a newer version lands in between and moves that entry into the
    /// log: not to the moved entry again, nor to the new one behind it.
    #[test]
    fn cursor_steps_past_an_entry_a_newer_version_displaced() {
        let mt = Arc::new(MemTable::new());
        mt.add(1, ValueType::Value, b"a", b"a1");
        mt.add(2, ValueType::Value, b"b", b"b2");
        let start = crate::types::lookup_key(b"a", MAX_SEQUENCE);
        let mut cursor = MemTableCursor::seek(Arc::clone(&mt), start.encoded());
        assert_eq!(cursor.value(), Some(&b"a1"[..]));
        mt.add(3, ValueType::Value, b"a", b"a3");
        cursor.advance();
        assert_eq!(cursor.value(), Some(&b"b2"[..]));
        cursor.advance();
        assert_eq!(cursor.key(), None);
    }

    /// `get` hands back the type `add` was given, type 2 included: the
    /// engine never writes it, but `add` takes any `ValueType`.
    #[test]
    fn get_returns_the_type_add_was_given() {
        let mt = MemTable::new();
        for (seq, ty) in [(1, ValueType::Deletion), (2, ValueType::Value), (3, ValueType::TtlValue)] {
            mt.add(seq, ty, b"k", b"v");
            assert_eq!(mt.get(b"k", seq), Some((ty, b"v".to_vec())));
        }
    }

    /// The index starts small and doubles when the keys outgrow it, and
    /// every key is still found.
    #[test]
    fn index_doubles_with_the_keys() {
        let mt = MemTable::new();
        assert_eq!(mt.entries.read().buckets.len(), MIN_BUCKETS);
        for i in 0..5_000u64 {
            mt.add(i + 1, ValueType::Value, format!("{i}").as_bytes(), &i.to_le_bytes());
        }
        assert_eq!(mt.entries.read().buckets.len(), 8192);
        for i in 0..5_000u64 {
            let found = mt.get(format!("{i}").as_bytes(), MAX_SEQUENCE);
            assert_eq!(found, Some((ValueType::Value, i.to_le_bytes().to_vec())));
        }
    }

    /// One row per size of the bucket array, taken when the keys reach
    /// it (load factor 1, the add before it doubles): the size, the key
    /// nodes the `add`s since the last doubling visited, the nodes as
    /// many absent-key `get`s as there are buckets visited, and how many
    /// chains hold 0, 1, 2, ... keys.
    fn probe_rows(keys: &[Vec<u8>], absent: impl Fn(usize) -> Vec<u8>) -> Vec<ProbeRow> {
        let mt = MemTable::new();
        let mut rows = Vec::new();
        let mut adds = 0;
        for (seq, key) in keys.iter().enumerate() {
            adds += visits(|| mt.add(seq as u64 + 1, ValueType::Value, key, b"")).1 .0;
            let entries = mt.entries.read();
            let buckets = entries.buckets.len();
            if entries.keys.len < buckets {
                continue;
            }
            let mut chains = vec![0; 1];
            for &head in &entries.buckets {
                let (mut len, mut link) = (0, head);
                while link != 0 {
                    (len, link) = (len + 1, entries.keys.get(link - 1).next);
                }
                chains.resize(chains.len().max(len + 1), 0);
                chains[len] += 1;
            }
            drop(entries);
            let absent: Vec<Vec<u8>> = (0..buckets).map(&absent).collect();
            let (found, (misses, examined)) =
                visits(|| absent.iter().filter(|k| mt.get(k, MAX_SEQUENCE).is_some()).count());
            assert_eq!((found, examined), (0, 0), "absent keys examine no entry");
            rows.push((buckets, adds, misses, chains));
            adds = 0;
        }
        rows
    }

    type ProbeRow = (usize, usize, usize, Vec<usize>);

    /// [`probe_rows`] over `db_bench`'s 16-byte zero-padded decimal keys,
    /// 64 Ki of them in shuffled order, and as many absent ones after them.
    fn decimal_probe_rows() -> Vec<ProbeRow> {
        const DECIMAL: usize = 1 << 16;
        let mut decimal: Vec<Vec<u8>> = (0..DECIMAL).map(|i| format!("{i:016}").into_bytes()).collect();
        let mut rng = testkit::Rng(0x9e37_79b9_7f4a_7c15);
        for i in (1..decimal.len()).rev() {
            decimal.swap(i, rng.below(i + 1));
        }
        probe_rows(&decimal, |i| format!("{:016}", DECIMAL + i).into_bytes())
    }

    /// At every doubling of the index, an add of `db_bench`'s decimal
    /// keys visits fewer than two key nodes on average: keys that differ
    /// only in their last digit land in different buckets.
    #[test]
    fn decimal_key_adds_visit_under_two_nodes_at_every_doubling() {
        let mut keys = 0;
        for (buckets, adds, ..) in decimal_probe_rows() {
            let added = buckets - keys;
            keys = buckets;
            assert!(adds < 2 * added, "{adds} key nodes for {added} adds up to {buckets} buckets");
        }
    }

    /// What an `add` and a miss examine on the hash index, pinned for two
    /// key streams: `db_bench`'s 16-byte zero-padded decimal keys (the
    /// ones `tune_sim`'s sessions write) in shuffled order, and
    /// `tests/put_allocs.rs`'s `key-{i:08}` keys in order. The chains are
    /// what a uniform hash gives at load 1: an add visits 0.75 nodes on
    /// average for both streams, a miss one (1.05 and 1.03 at the worst
    /// doubling), and no chain holds more than eight keys.
    #[test]
    fn memtable_probes_per_add_and_miss() {
        let decimal = decimal_probe_rows();
        let put_allocs: Vec<Vec<u8>> = (0..6_000).map(|i| format!("key-{i:08}").into_bytes()).collect();
        let put_allocs = probe_rows(&put_allocs, |i| format!("key-{:08}", 6_000 + i).into_bytes());

        let summary = |rows: &[ProbeRow]| {
            let keys = rows.last().map_or(0, |row| row.0);
            let adds: usize = rows.iter().map(|row| row.1).sum();
            let misses: usize = rows.iter().map(|row| row.2).sum();
            let probes: usize = rows.iter().map(|row| row.0).sum();
            let worst = rows.iter().map(|row| row.2 as f64 / row.0 as f64).fold(0.0, f64::max);
            let longest = rows.iter().map(|row| row.3.len() - 1).max().unwrap_or(0);
            format!(
                "{keys} keys, {:.3} nodes per add, {:.3} per miss at load 1 (worst doubling {worst:.3}), longest chain {longest}",
                adds as f64 / keys as f64,
                misses as f64 / probes as f64,
            )
        };
        println!(
            "memtable probes: 16-byte decimal, shuffled: {}; put_allocs keys: {}",
            summary(&decimal),
            summary(&put_allocs)
        );

        let pinned = |rows: &[(usize, usize, usize, &[usize])]| -> Vec<ProbeRow> {
            rows.iter().map(|&(buckets, adds, misses, chains)| (buckets, adds, misses, chains.to_vec())).collect()
        };
        assert_eq!(
            decimal,
            pinned(&[
                (256, 135, 263, &[96, 94, 43, 18, 3, 2]),
                (512, 200, 501, &[189, 187, 95, 32, 7, 1, 1]),
                (1024, 398, 1075, &[392, 353, 192, 64, 20, 3]),
                (2048, 742, 2040, &[755, 740, 390, 130, 27, 6]),
                (4096, 1551, 4054, &[1523, 1473, 768, 258, 59, 13, 2]),
                (8192, 2980, 8117, &[2975, 3054, 1535, 479, 119, 25, 5]),
                (16384, 6153, 16409, &[5999, 6055, 3051, 970, 237, 64, 7, 1]),
                (32768, 12385, 32659, &[12037, 12174, 5895, 2003, 523, 115, 20, 0, 1]),
                (65536, 24566, 65511, &[24221, 23908, 12125, 4023, 1021, 209, 24, 4, 1]),
            ])
        );
        assert_eq!(
            put_allocs,
            pinned(&[
                (256, 129, 232, &[91, 101, 45, 13, 5, 0, 1]),
                (512, 183, 487, &[184, 198, 89, 31, 7, 3]),
                (1024, 413, 1002, &[376, 392, 171, 56, 24, 4, 1]),
                (2048, 777, 2037, &[774, 712, 403, 121, 25, 11, 2]),
                (4096, 1524, 4231, &[1503, 1522, 730, 268, 60, 8, 5]),
            ])
        );
    }

    /// More keys than one run holds, arriving in a shuffled order with
    /// cursor seeks in between, leave a few runs, and the view and a cursor
    /// still walk every entry in internal-key order.
    #[test]
    fn runs_from_seeks_and_flush_merge_into_one_order() {
        let n = RUN as u64 + RUN as u64 / 2;
        let mut ids: Vec<u64> = (0..n).collect();
        let mut rng = testkit::Rng(0x1234_5678_9abc_def1);
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i + 1));
        }
        let mt = Arc::new(MemTable::new());
        let first = crate::types::lookup_key(b"", MAX_SEQUENCE);
        for (seq, &id) in ids.iter().enumerate() {
            mt.add(seq as u64 + 1, ValueType::Value, format!("{id:09}").as_bytes(), b"");
            // Early on, a scan after every few inserts: small runs that fold.
            if seq < 2_000 && seq % 7 == 0 {
                drop(MemTableCursor::seek(Arc::clone(&mt), first.encoded()));
            }
        }
        let view = mt.view();
        let runs = view.runs.len();
        assert!((2..=12).contains(&runs), "{runs} runs");
        let mut last: Option<&[u8]> = None;
        let mut count = 0;
        for (k, _) in view.iter() {
            assert!(last.is_none_or(|last| internal_key_cmp(last, k).is_lt()));
            last = Some(k);
            count += 1;
        }
        assert_eq!(count, n);
        drop(view);
        let mut cursor = MemTableCursor::seek(Arc::clone(&mt), first.encoded());
        let mut stepped = 0;
        while let Some(k) = cursor.key() {
            assert_eq!(&k[..9], format!("{stepped:09}").as_bytes());
            stepped += 1;
            cursor.advance();
        }
        assert_eq!(stepped, n);
    }

    #[test]
    fn put_then_get() {
        let mt = MemTable::new();
        mt.add(1, ValueType::Value, b"alpha", b"1");
        mt.add(2, ValueType::Value, b"beta", b"2");
        assert_eq!(mt.get(b"alpha", 100), Some((ValueType::Value, b"1".to_vec())));
        assert_eq!(mt.get(b"gamma", 100), None);
    }

    #[test]
    fn newer_version_shadows_older() {
        let mt = MemTable::new();
        mt.add(1, ValueType::Value, b"k", b"old");
        mt.add(5, ValueType::Value, b"k", b"new");
        assert_eq!(mt.get(b"k", 100), Some((ValueType::Value, b"new".to_vec())));
        // Snapshot between versions sees the old value.
        assert_eq!(mt.get(b"k", 3), Some((ValueType::Value, b"old".to_vec())));
    }

    #[test]
    fn deletion_is_visible() {
        let mt = MemTable::new();
        mt.add(1, ValueType::Value, b"k", b"v");
        mt.add(2, ValueType::Deletion, b"k", b"");
        assert_eq!(mt.get(b"k", 100), Some((ValueType::Deletion, Vec::new())));
        assert_eq!(mt.get(b"k", 1), Some((ValueType::Value, b"v".to_vec())));
    }

    #[test]
    fn snapshot_before_any_version_sees_nothing() {
        let mt = MemTable::new();
        mt.add(10, ValueType::Value, b"k", b"v");
        assert_eq!(mt.get(b"k", 5), None);
    }

    #[test]
    fn iteration_is_sorted_by_user_key() {
        let mt = MemTable::new();
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
        let mt = MemTable::new();
        let before = mt.approximate_memory_usage();
        mt.add(1, ValueType::Value, b"key", &[0u8; 100]);
        assert!(mt.approximate_memory_usage() >= before + 100);
    }

    #[test]
    fn cursor_steps_in_order() {
        let mt = Arc::new(MemTable::new());
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
        let mt = Arc::new(MemTable::new());
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

    /// User keys of every length up to 24 bytes and some longer ones, from
    /// an alphabet small enough that prefixes repeat and with the high bit
    /// set in half of it, plus keys that share their first 16 bytes and
    /// differ only after them.
    fn comparator_user_keys() -> Vec<Vec<u8>> {
        const ALPHABET: [u8; 4] = [0x00, 0x7f, 0x80, 0xff];
        let mut rng = testkit::Rng(0x0123_4567_89ab_cdef);
        let mut keys = Vec::new();
        for len in (0..=22).chain([23, 24, 31, 40]) {
            for _ in 0..4 {
                keys.push((0..len).map(|_| ALPHABET[rng.below(ALPHABET.len())]).collect());
            }
        }
        for prefix in [[0x80; 16], *b"0000000000001234"] {
            for tail in [&b""[..], b"\x00", b"\x01", b"\x80", b"\xff\xff\xff\xff\xff\xff", b"0123456"] {
                keys.push([&prefix[..], tail].concat());
            }
        }
        keys
    }

    /// The sort records order key ids as their user keys do: over every
    /// key (no shared prefix) and over the keys that share 16 bytes (the
    /// prefix is taken after them).
    #[test]
    fn sort_prefix_order_is_the_key_order() {
        let all = comparator_user_keys();
        let long: Vec<Vec<u8>> = all.iter().filter(|k| k.starts_with(&[0x80; 16])).cloned().collect();
        for (keys, shared) in [(all, 0), (long, 16)] {
            let mt = MemTable::new();
            for (seq, user) in keys.iter().enumerate() {
                mt.add(seq as u64 + 1, ValueType::Value, user, b"");
            }
            let entries = mt.entries.read();
            assert_eq!(entries.shared, shared);
            let ids = 0..entries.keys.len as u32;
            for a in ids.clone() {
                for b in ids.clone() {
                    let (ka, kb) = (entries.user_key(a), entries.user_key(b));
                    let (pa, pb) = (prefix_of(ka, shared), prefix_of(kb, shared));
                    let order = entries.cmp_keys((pa, a), (pb, b));
                    assert_eq!(order, ka.cmp(kb), "{ka:02x?} vs {kb:02x?}");
                }
            }
        }
    }

    #[test]
    fn cursor_walk_is_the_internal_key_order() {
        let mt = Arc::new(MemTable::new());
        let mut expected = Vec::new();
        let mut seq = 0;
        for user in comparator_user_keys() {
            for ty in [ValueType::Value, ValueType::Deletion] {
                seq += 1;
                mt.add(seq, ty, &user, b"");
                expected.push(InternalKey::new(&user, seq, ty).encoded().to_vec());
            }
        }
        expected.sort_by(|a, b| internal_key_cmp(a, b));
        // The smallest internal key there is: an empty user key under the
        // largest tag.
        let mut cursor = MemTableCursor::seek(Arc::clone(&mt), &u64::MAX.to_le_bytes());
        let mut walked = Vec::new();
        // Bounded: a walk that cycles fails instead of hanging.
        while let Some(k) = cursor.key().filter(|_| walked.len() <= expected.len()) {
            walked.push(k.to_vec());
            cursor.advance();
        }
        assert_eq!(walked, expected);
    }
}
