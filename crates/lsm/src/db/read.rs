//! The read path: the one point lookup (`get` is a `multi_get` of one
//! key) over an immutable snapshot of memtables + version, and timed
//! table access (table cache, block cache, bloom filters) shared with
//! the scan cursors.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hw_sim::{SimDuration, SimTime};

use super::{sim, Db, DbInner, Mode, ReadOptions};
use crate::cache::BlockKey;
use crate::error::Result;
use crate::flush::sst_file_name;
use crate::memtable::MemTable;
use crate::options::Options;
use crate::sstable::block::Block;
use crate::sstable::compress::decompress_cpu_cost;
use crate::sstable::table::{BlockHandle, TableReader};
use crate::stats::{HistogramKind, Ticker};
use crate::types::{lookup_key, refuse_stamped, split_tag, FileNumber, SequenceNumber, ValueType};
use crate::version::{FileMetadata, Version};

/// What one read operation looks at: the memtables and version current
/// when it started, and the newest sequence it may observe.
pub(super) struct ReadView {
    pub mem: Arc<MemTable>,
    /// Immutable memtables, newest first: the order a point lookup must
    /// probe them in, since the first one holding a key decides.
    pub imm: Vec<Arc<MemTable>>,
    pub version: Arc<Version>,
    pub snapshot: SequenceNumber,
}

impl DbInner {
    /// Captures a [`ReadView`] under one short state critical section.
    pub(super) fn read_view(&self, ropts: &ReadOptions) -> Result<ReadView> {
        let mut state = self.state.lock();
        self.pump(&mut state)?;
        // The published watermark, not `last_seq`, which may include a
        // group still committing (its entries not yet in the memtable).
        let visible = self.visible_seq.load(Ordering::Acquire);
        Ok(ReadView {
            mem: Arc::clone(&state.mem),
            imm: state.imm.iter().rev().map(|e| Arc::clone(&e.mem)).collect(),
            version: Arc::clone(&state.version),
            // An explicit snapshot can only look backwards: clamp it to
            // the visible watermark so a stale handle never reads
            // uncommitted state.
            snapshot: ropts.snapshot_seq.map_or(visible, |s| s.min(visible)),
        })
    }
}

impl Db {
    /// Reads the newest value for `key`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.get_opt(&ReadOptions::default(), key)
    }

    /// Reads the newest value for `key` under explicit [`ReadOptions`]:
    /// a batch of one, on the stack.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn get_opt(&self, ropts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut slot = [None];
        self.inner.lookup(ropts, &[key], &mut slot, &mut [0], HistogramKind::DbGet)?;
        let [value] = slot;
        Ok(value.flatten())
    }

    /// Reads the newest values for a batch of keys in one pass.
    ///
    /// Results are returned in input order. Compared to a loop of
    /// [`get`](Self::get) calls, the whole batch shares one snapshot,
    /// one memtable lock acquisition, one table-handle open per file,
    /// and one block fetch + parse per distinct data block — the
    /// RocksDB `MultiGet` amortization.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        self.multi_get_opt(&ReadOptions::default(), keys)
    }

    /// Reads a batch of keys under explicit [`ReadOptions`]; see
    /// [`multi_get`](Self::multi_get).
    ///
    /// Generic over the key representation so callers holding borrowed
    /// slices do not have to clone every key into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn multi_get_opt<K: AsRef<[u8]>>(
        &self,
        ropts: &ReadOptions,
        keys: &[K],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let tickers = self.inner.stats.tickers();
        let mut slots = vec![None; keys.len()];
        if !keys.is_empty() {
            let mut order = vec![0; keys.len()];
            self.inner
                .lookup(ropts, keys, &mut slots, &mut order, HistogramKind::DbMultiGet)?;
            tickers.add(Ticker::MultiGetKeysRead, keys.len() as u64);
        }
        tickers.inc(Ticker::MultiGetBatches);
        Ok(slots.into_iter().map(Option::flatten).collect())
    }
}

/// One key's outcome while a lookup runs: `None` = no layer probed so
/// far holds the key, `Some(None)` = the newest layer holding it says
/// deleted, `Some(Some(v))` = live.
type Slot = Option<Option<Vec<u8>>>;

/// The state one point lookup carries from layer to layer.
struct Lookup<'a, K> {
    keys: &'a [K],
    slots: &'a mut [Slot],
    /// How many slots are still unresolved.
    pending: usize,
    snapshot: SequenceNumber,
    ropts: &'a ReadOptions,
    /// The options current when the lookup started.
    opts: &'a Options,
    /// CPU charged so far; applied to the sim clock once, at the end.
    cpu: SimDuration,
}

impl<K> Lookup<'_, K> {
    /// Settles `keys[i]` with the newest entry found for it.
    fn resolve(&mut self, i: usize, ty: u8, stored: Vec<u8>) {
        self.slots[i] = Some((ty != ValueType::Deletion as u8).then_some(stored));
        self.pending -= 1;
    }
}

impl DbInner {
    /// The point lookup behind [`Db::get_opt`] and [`Db::multi_get_opt`]:
    /// the outcome for `keys[i]` lands in `slots[i]` (all `None` on
    /// entry). `order` is scratch of the same length for the table
    /// search's visit order. A one-key call charges the clock and the
    /// tickers exactly what each key of a larger batch is charged, minus
    /// what the batch shares: the base CPU, table handles and blocks.
    fn lookup<K: AsRef<[u8]>>(
        &self,
        ropts: &ReadOptions,
        keys: &[K],
        slots: &mut [Slot],
        order: &mut [usize],
        histogram: HistogramKind,
    ) -> Result<()> {
        let started = self.clock.now();
        let view = self.read_view(ropts)?;
        let opts = self.opts();
        let tickers = self.stats.tickers();
        let mut q = Lookup {
            keys,
            slots,
            pending: keys.len(),
            snapshot: view.snapshot,
            ropts,
            opts: &opts,
            // Paid once for the whole batch.
            cpu: sim::READ_BASE_CPU,
        };

        // The live memtable, then the immutable ones newest first; a
        // key settled by a newer memtable is skipped in older ones.
        for (age, mem) in std::iter::once(&view.mem).chain(&view.imm).enumerate() {
            for (i, key) in keys.iter().enumerate() {
                if q.slots[i].is_some() {
                    continue;
                }
                q.cpu += sim::MEMTABLE_PROBE_CPU;
                if let Some((ty, stored)) = mem.get(key.as_ref(), q.snapshot) {
                    // Only the live memtable counts as a memtable hit.
                    if age == 0 {
                        tickers.inc(Ticker::MemtableHit);
                    }
                    q.resolve(i, ty as u8, stored);
                }
            }
            if q.pending == 0 {
                break;
            }
        }

        if q.pending > 0 {
            tickers.add(Ticker::MemtableMiss, q.pending as u64);
            // Unresolved keys only, sorted so each level's files are
            // walked once, front to back (equal keys by batch position).
            let order = &mut order[..q.pending];
            let unresolved = (0..keys.len()).filter(|&i| q.slots[i].is_none());
            for (place, i) in order.iter_mut().zip(unresolved) {
                *place = i;
            }
            order.sort_unstable_by(|&a, &b| keys[a].as_ref().cmp(keys[b].as_ref()).then(a.cmp(&b)));
            self.search_files(&view.version, &mut q, order)?;
        }

        if let Mode::Sim(sim) = &self.mode {
            sim.finish_lookup(q.cpu, &opts);
        }

        let hits = q.slots.iter().filter(|s| matches!(s, Some(Some(_)))).count() as u64;
        tickers.add(Ticker::KeysRead, keys.len() as u64);
        tickers.add(Ticker::GetHit, hits);
        tickers.add(Ticker::GetMiss, keys.len() as u64 - hits);
        self.stats.record(histogram, self.clock.now().saturating_since(started));
        Ok(())
    }
}

impl DbInner {
    /// Accounts one table read of `parts` bytes that began at `started`:
    /// `BytesRead`, and in `SstReadMicros` what it took — the modelled
    /// device time in sim mode (which blocks the virtual clock on it), the
    /// measured wall time in real mode.
    fn note_table_read(&self, started: SimTime, parts: &[u64]) {
        let took = match &self.mode {
            Mode::Sim(sim) => sim.read_blocking(parts),
            Mode::Real(_) => self.clock.now().saturating_since(started),
        };
        self.stats.tickers().add(Ticker::BytesRead, parts.iter().sum());
        self.stats.record(HistogramKind::SstReadMicros, took);
    }

    /// With `cache_index_and_filter_blocks` a table's resident metadata
    /// is charged to the block cache as a sentinel under `key`.
    /// `fill_cache` governs it as it does data blocks: a no-fill read
    /// leaves it out (and the next open re-reads it).
    fn cache_table_metadata(&self, key: BlockKey, reader: &TableReader, ropts: &ReadOptions) {
        if let (Some(cache), true) = (&self.block_cache, ropts.fill_cache) {
            cache.insert(key, Arc::new(Block::sentinel(reader.resident_bytes() as usize)));
        }
    }

    pub(super) fn open_table(
        &self,
        file: &FileMetadata,
        opts: &Options,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Arc<TableReader>> {
        let metadata_key = BlockKey { file: file.number, offset: u64::MAX };
        if let Some(r) = self.table_cache.get(file.number) {
            // With cache_index_and_filter_blocks the resident metadata
            // lives in the block cache and may have been evicted. The
            // simulator charges a re-read, accounted like the cold open
            // below: the same index+filter I/O. The real reader still
            // holds its metadata, so there is no I/O to account.
            let evicted = opts.cache_index_and_filter_blocks
                && self.block_cache.as_ref().is_some_and(|c| c.get(&metadata_key).is_none());
            if evicted {
                if matches!(self.mode, Mode::Sim(_)) {
                    let bytes = r.resident_bytes().max(4096);
                    self.note_table_read(self.clock.now(), &[bytes]);
                    self.stats.tickers().inc(Ticker::TableOpens);
                }
                self.cache_table_metadata(metadata_key, &r, ropts);
            }
            return Ok(r);
        }
        let handle = self.vfs.open(&sst_file_name(file.number))?;
        let started = self.clock.now();
        let (reader, bytes_read) = TableReader::open(handle)?;
        // Footer + index + filter: three random reads.
        let third = bytes_read / 3;
        self.note_table_read(started, &[third, third, bytes_read - 2 * third]);
        *cpu += sim::TABLE_OPEN_CPU;
        self.stats.tickers().inc(Ticker::TableOpens);
        let reader = Arc::new(reader);
        if opts.cache_index_and_filter_blocks {
            self.cache_table_metadata(metadata_key, &reader, ropts);
        } else if let Mode::Sim(sim) = &self.mode {
            sim.reserve_table_memory(reader.resident_bytes());
        }
        let displaced = self.table_cache.insert(file.number, Arc::clone(&reader));
        self.stats
            .tickers()
            .add(Ticker::TableCacheEvictions, displaced.len() as u64);
        self.release_table_readers(displaced);
        Ok(reader)
    }

    /// Sim mode: releases the table-cache memory reserved against readers
    /// leaving the table cache (capacity eviction, compaction deletion, or
    /// same-file replacement). Reservations are only taken when metadata
    /// lives outside the block cache.
    pub(super) fn release_table_readers<I: IntoIterator<Item = Arc<TableReader>>>(&self, readers: I) {
        let Mode::Sim(sim) = &self.mode else { return };
        if self.opts().cache_index_and_filter_blocks {
            return;
        }
        for r in readers {
            sim.release_table_memory(r.resident_bytes());
        }
    }

    /// Fetches a parsed block through the cache, accounting the table
    /// read on a miss. The cache holds `Arc<Block>`, so hits hand the same
    /// parsed block to every reader — no payload copy, no re-parse.
    pub(super) fn fetch_block(
        &self,
        reader: &TableReader,
        file: FileNumber,
        handle: BlockHandle,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Arc<Block>> {
        let key = BlockKey {
            file,
            offset: handle.offset,
        };
        if let Some(cache) = &self.block_cache {
            if let Some(b) = cache.get(&key) {
                self.stats.tickers().inc(Ticker::BlockCacheHit);
                *cpu += sim::CACHE_HIT_CPU;
                return Ok(b);
            }
            self.stats.tickers().inc(Ticker::BlockCacheMiss);
        }
        let started = self.clock.now();
        let fetch = reader.read_block(handle)?;
        self.note_table_read(started, &[fetch.io_bytes]);
        if fetch.was_compressed {
            *cpu += decompress_cpu_cost(self.opts().compression, fetch.data.len());
        }
        let block = Arc::new(Block::parse(fetch.data)?);
        if let Some(cache) = &self.block_cache {
            if ropts.fill_cache {
                cache.insert(key, Arc::clone(&block));
            }
        }
        Ok(block)
    }

    /// Runs `user_key` through the table's bloom filter. Returns `false`
    /// when the key is definitively absent and the probe can stop here.
    fn check_filters(&self, reader: &TableReader, user_key: &[u8], cpu: &mut SimDuration) -> bool {
        if !reader.has_filter() {
            return true;
        }
        self.stats.tickers().inc(Ticker::BloomChecked);
        *cpu += sim::BLOOM_CHECK_CPU;
        if !reader.may_contain(user_key) {
            self.stats.tickers().inc(Ticker::BloomUseful);
            return false;
        }
        true
    }

    /// Searches the tables for the keys `order` lists: unresolved, sorted
    /// by key. Each file is opened and probed at most once.
    fn search_files<K: AsRef<[u8]>>(
        &self,
        version: &Version,
        q: &mut Lookup<'_, K>,
        order: &[usize],
    ) -> Result<()> {
        // L0: files newest first, ranges may overlap. The whole batch
        // goes against each file before moving on — equivalent to per-key
        // newest-first probing, since a key resolved by a newer file is
        // skipped in older ones.
        for file in version.files(0) {
            if q.pending == 0 {
                return Ok(());
            }
            self.probe_file(file, q, order, SimDuration::ZERO)?;
        }
        // Deeper levels: files are disjoint and sorted, and so are the
        // keys, so each file takes one run of `order` — the keys up to
        // its largest — and at most one file can hold each key.
        for level in 1..version.num_levels() {
            let files = version.files(level);
            let mut rest = order;
            while q.pending > 0 && !rest.is_empty() {
                let first = q.keys[rest[0]].as_ref();
                let at = files.partition_point(|f| f.largest.user_key() < first);
                let Some(file) = files.get(at) else { break };
                let run = rest.partition_point(|&i| q.keys[i].as_ref() <= file.largest.user_key());
                self.probe_file(file, q, &rest[..run], sim::LEVEL_SEARCH_CPU)?;
                rest = &rest[run..];
            }
        }
        Ok(())
    }

    /// Probes one table for the keys of `run` (sorted by key) that are
    /// still unresolved and inside the file's range, charging `locate_cpu`
    /// for each. The table handle is opened once for the whole run, and
    /// consecutive keys landing in the same data block reuse the fetched
    /// and parsed block instead of paying a cache lookup and parse each —
    /// the core MultiGet saving.
    fn probe_file<K: AsRef<[u8]>>(
        &self,
        file: &FileMetadata,
        q: &mut Lookup<'_, K>,
        run: &[usize],
        locate_cpu: SimDuration,
    ) -> Result<()> {
        let mut reader: Option<Arc<TableReader>> = None;
        let mut last_block: Option<(u64, Arc<Block>)> = None;
        for &i in run {
            let user_key = q.keys[i].as_ref();
            if q.slots[i].is_some()
                || user_key < file.smallest.user_key()
                || user_key > file.largest.user_key()
            {
                continue;
            }
            q.cpu += locate_cpu;
            let reader = match &reader {
                Some(opened) => opened,
                None => reader.insert(self.open_table(file, q.opts, q.ropts, &mut q.cpu)?),
            };
            if !self.check_filters(reader, user_key, &mut q.cpu) {
                continue;
            }
            let target = lookup_key(user_key, q.snapshot);
            q.cpu += sim::INDEX_SEEK_CPU;
            let Some(handle) = reader.find_block(target.encoded())? else {
                continue;
            };
            if last_block.as_ref().is_some_and(|(off, _)| *off == handle.offset) {
                q.cpu += sim::BLOCK_RESEEK_CPU;
            } else {
                let block = self.fetch_block(reader, file.number, handle, q.ropts, &mut q.cpu)?;
                q.cpu += sim::BLOCK_SEARCH_CPU;
                last_block = Some((handle.offset, block));
            }
            let (_, block) = last_block.as_ref().expect("block just set");
            let mut entry = block.iter();
            if entry.seek(target.encoded())? {
                let (found_user, tag) = split_tag(entry.key());
                if found_user == user_key {
                    refuse_stamped(tag as u8)?;
                    q.resolve(i, tag as u8, entry.value().to_vec());
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{env, small_opts};
    use super::*;
    use crate::options::Options;

    #[test]
    fn reads_span_memtable_flush_and_compaction() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let n = 3_000;
        for i in 0..n {
            db.put(format!("key-{i:06}").as_bytes(), format!("value-{i}").as_bytes())
                .unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        let stats = db.stats();
        assert!(stats.tickers.get(Ticker::FlushJobs) > 0, "flushes ran");
        assert!(stats.tickers.get(Ticker::CompactionJobs) > 0, "compactions ran");
        for i in (0..n).step_by(97) {
            assert_eq!(
                db.get(format!("key-{i:06}").as_bytes()).unwrap(),
                Some(format!("value-{i}").into_bytes()),
                "key-{i}"
            );
        }
    }

    #[test]
    fn bloom_filters_cut_probes() {
        let run = |bits: f64| {
            let env = env();
            let mut opts = small_opts();
            opts.bloom_filter_bits_per_key = bits;
            let db = Db::builder(opts).env(&env).open().unwrap();
            for i in 0..2_000 {
                db.put(format!("key-{i:06}").as_bytes(), b"v").unwrap();
            }
            db.flush().unwrap();
            for i in 0..500 {
                let _ = db.get(format!("key-{i:06}-absent").as_bytes()).unwrap();
            }
            db.stats()
        };
        let without = run(0.0);
        let with = run(10.0);
        assert!(with.tickers.get(Ticker::BloomChecked) > 0);
        assert!(
            with.tickers.get(Ticker::BlockCacheMiss) + with.tickers.get(Ticker::BlockCacheHit)
                < without.tickers.get(Ticker::BlockCacheMiss)
                    + without.tickers.get(Ticker::BlockCacheHit),
            "bloom avoids block fetches"
        );
    }

    #[test]
    fn newest_immutable_memtable_wins_on_every_read_path() {
        let env = env();
        let mut opts = small_opts();
        // Hold flushes back so several immutable memtables pile up.
        opts.max_write_buffer_number = 6;
        opts.min_write_buffer_number_to_merge = 4;
        let db = Db::builder(opts).env(&env).open().unwrap();
        for round in 1..=3 {
            db.put(b"k", format!("v{round}").as_bytes()).unwrap();
            let mut filler = 0;
            while db.stats().immutable_memtables < round {
                db.put(format!("fill-{round}-{filler:05}").as_bytes(), &[0u8; 100]).unwrap();
                filler += 1;
            }
        }
        let stats = db.stats();
        assert_eq!(stats.immutable_memtables, 3);
        assert_eq!(stats.tickers.get(Ticker::FlushJobs), 0, "nothing flushed yet");

        let newest = Some(b"v3".to_vec());
        assert_eq!(db.get(b"k").unwrap(), newest);
        assert_eq!(db.multi_get(&[b"k".to_vec()]).unwrap(), vec![newest.clone()]);
        assert_eq!(db.scan(b"k", 1).unwrap(), vec![(b"k".to_vec(), b"v3".to_vec())]);
    }

    #[test]
    fn read_options_snapshot_seq_pins_the_past() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"k", b"old").unwrap();
        let pinned = db.stats().last_sequence;
        db.put(b"k", b"new").unwrap();
        db.put(b"k2", b"later").unwrap();

        let ropts = ReadOptions {
            snapshot_seq: Some(pinned),
            ..ReadOptions::default()
        };
        assert_eq!(db.get_opt(&ropts, b"k").unwrap(), Some(b"old".to_vec()));
        assert_eq!(db.get_opt(&ropts, b"k2").unwrap(), None);
        assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));

        let snap_scan = db.scan_opt(&ropts, b"k", 10).unwrap();
        assert_eq!(snap_scan, vec![(b"k".to_vec(), b"old".to_vec())]);
        // A snapshot past the visible watermark clamps instead of leaking.
        let future = ReadOptions {
            snapshot_seq: Some(u64::MAX - 1),
            ..ReadOptions::default()
        };
        assert_eq!(db.get_opt(&future, b"k").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn read_options_fill_cache() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        for i in 0..2_000 {
            db.put(format!("key-{i:05}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();

        // A no-fill read on a cold cache must not populate it: repeating
        // the same read misses again.
        let no_fill = ReadOptions {
            fill_cache: false,
            ..ReadOptions::default()
        };
        let miss0 = db.stats().tickers.get(Ticker::BlockCacheMiss);
        assert_eq!(db.get_opt(&no_fill, b"key-00042").unwrap(), Some(b"v".to_vec()));
        let miss1 = db.stats().tickers.get(Ticker::BlockCacheMiss);
        assert!(miss1 > miss0, "cold read misses");
        assert_eq!(db.get_opt(&no_fill, b"key-00042").unwrap(), Some(b"v".to_vec()));
        let miss2 = db.stats().tickers.get(Ticker::BlockCacheMiss);
        assert!(miss2 > miss1, "no-fill read did not populate the cache");
    }

    /// `ttl_seconds` set at open is accepted for option-file
    /// compatibility and changes nothing: a value outlives any TTL on
    /// every read path and through a flush plus bottommost rewrite.
    #[test]
    fn ttl_seconds_at_open_expires_nothing_on_reads_or_compaction() {
        let env = env();
        let mut opts = small_opts();
        opts.ttl_seconds = 10;
        let db = Db::builder(opts).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(100.0));
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));

        db.flush().unwrap();
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.multi_get(&[b"k".to_vec()]).unwrap(), vec![Some(b"v".to_vec())]);
        assert_eq!(db.scan(b"", 10).unwrap(), vec![(b"k".to_vec(), b"v".to_vec())]);
    }

    /// `ttl_seconds` set online is accepted and, like a zero TTL,
    /// expires nothing, written before or after the change.
    #[test]
    fn ttl_seconds_set_online_is_accepted_and_expires_nothing() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        db.put(b"old", b"v").unwrap();
        db.set_options(&[("ttl_seconds", "50")]).unwrap();
        db.put(b"new", b"w").unwrap();
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(100.0));
        assert_eq!(db.get(b"old").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.get(b"new").unwrap(), Some(b"w".to_vec()));

        db.flush().unwrap();
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();
        db.set_options(&[("ttl_seconds", "0")]).unwrap();
        let both = vec![
            (b"new".to_vec(), b"w".to_vec()),
            (b"old".to_vec(), b"v".to_vec()),
        ];
        assert_eq!(db.scan(b"", 10).unwrap(), both);
        assert_eq!(
            db.multi_get(&[b"old".to_vec(), b"new".to_vec()]).unwrap(),
            vec![Some(b"v".to_vec()), Some(b"w".to_vec())]
        );
    }
}
