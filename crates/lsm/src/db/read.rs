//! The read path: point lookups (`get`, `multi_get`) over an immutable
//! snapshot of memtables + version, and timed table access (table cache,
//! block cache, bloom filters) shared with the scan cursors.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use hw_sim::{AccessPattern, MemoryUser, SimDuration};

use super::{Db, DbInner, ReadOptions};
use crate::cache::BlockKey;
use crate::error::Result;
use crate::flush::sst_file_name;
use crate::memtable::{MemTable, MemTableGet};
use crate::sstable::block::Block;
use crate::sstable::compress::decompress_cpu_cost;
use crate::sstable::table::{BlockHandle, TableReader};
use crate::stats::{HistogramKind, Ticker};
use crate::types::{FileNumber, InternalKey, SequenceNumber, ValueType};
use crate::version::{FileMetadata, Version};

/// What one read operation looks at: the memtables and version current
/// when it started, and the newest sequence it may observe.
pub(super) struct ReadView {
    pub mem: Arc<MemTable>,
    /// Immutable memtables, oldest first.
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
            imm: state.imm.iter().map(|e| Arc::clone(&e.mem)).collect(),
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

    /// Reads the newest value for `key` under explicit [`ReadOptions`].
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn get_opt(&self, ropts: &ReadOptions, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let inner = &*self.inner;
        let started = inner.env.clock().now();
        let ReadView { mem, imm, version, snapshot } = inner.read_view(ropts)?;

        let mut cpu = inner.cost.get_base_cpu + inner.cost.memtable_probe_cpu;
        let mut found: Option<Option<Vec<u8>>> = None;

        match mem.get(key, snapshot) {
            MemTableGet::Found(v) => {
                inner.stats.tickers().inc(Ticker::MemtableHit);
                found = Some(Some(v));
            }
            MemTableGet::FoundTtl(v) => {
                inner.stats.tickers().inc(Ticker::MemtableHit);
                found = Some(inner.resolve_ttl(&v));
            }
            MemTableGet::Deleted => {
                inner.stats.tickers().inc(Ticker::MemtableHit);
                found = Some(None);
            }
            MemTableGet::NotFound => {}
        }
        if found.is_none() {
            // Newest first: the first memtable holding the key decides.
            for m in imm.iter().rev() {
                cpu += inner.cost.memtable_probe_cpu;
                match m.get(key, snapshot) {
                    MemTableGet::Found(v) => {
                        found = Some(Some(v));
                        break;
                    }
                    MemTableGet::FoundTtl(v) => {
                        found = Some(inner.resolve_ttl(&v));
                        break;
                    }
                    MemTableGet::Deleted => {
                        found = Some(None);
                        break;
                    }
                    MemTableGet::NotFound => {}
                }
            }
        }
        if found.is_none() {
            inner.stats.tickers().inc(Ticker::MemtableMiss);
            found = inner.search_tables(&version, key, snapshot, ropts, &mut cpu)?;
        }

        let mut factor = inner.foreground_contention(inner.env.clock().now());
        if inner.opts().paranoid_checks {
            factor *= 1.08;
        }
        if inner.opts().use_direct_reads {
            factor *= 1.05;
        }
        factor *= inner.env.memory().penalty_factor();
        inner.env.clock().advance(cpu.mul_f64(factor));

        inner.stats.tickers().inc(Ticker::KeysRead);
        inner
            .stats
            .record(HistogramKind::DbGet, inner.env.clock().now().saturating_since(started));
        match found {
            Some(Some(v)) => {
                inner.stats.tickers().inc(Ticker::GetHit);
                Ok(Some(v))
            }
            _ => {
                inner.stats.tickers().inc(Ticker::GetMiss);
                Ok(None)
            }
        }
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
    /// slices (e.g. the sharded facade regrouping another batch's keys)
    /// do not have to clone every key into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn multi_get_opt<K: AsRef<[u8]>>(
        &self,
        ropts: &ReadOptions,
        keys: &[K],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let inner = &*self.inner;
        if keys.is_empty() {
            inner.stats.tickers().inc(Ticker::MultiGetBatches);
            return Ok(Vec::new());
        }
        let started = inner.env.clock().now();
        let ReadView { mem, imm, version, snapshot } = inner.read_view(ropts)?;

        // The per-op base CPU is paid once for the whole batch; that is
        // the first half of the amortization (the other half is shared
        // table handles and blocks below).
        let mut cpu = inner.cost.get_base_cpu;
        // `None` = unresolved, `Some(None)` = definitively deleted/absent
        // at some layer, `Some(Some(v))` = found.
        let mut results: Vec<Option<Option<Vec<u8>>>> = vec![None; keys.len()];

        // The live memtable is probed lock-free for the whole batch.
        for (i, key) in keys.iter().enumerate() {
            cpu += inner.cost.memtable_probe_cpu;
            match mem.get(key.as_ref(), snapshot) {
                MemTableGet::Found(v) => {
                    inner.stats.tickers().inc(Ticker::MemtableHit);
                    results[i] = Some(Some(v));
                }
                MemTableGet::FoundTtl(v) => {
                    inner.stats.tickers().inc(Ticker::MemtableHit);
                    results[i] = Some(inner.resolve_ttl(&v));
                }
                MemTableGet::Deleted => {
                    inner.stats.tickers().inc(Ticker::MemtableHit);
                    results[i] = Some(None);
                }
                MemTableGet::NotFound => {}
            }
        }
        for m in imm.iter().rev() {
            if results.iter().all(Option::is_some) {
                break;
            }
            for (i, key) in keys.iter().enumerate() {
                if results[i].is_some() {
                    continue;
                }
                cpu += inner.cost.memtable_probe_cpu;
                match m.get(key.as_ref(), snapshot) {
                    MemTableGet::Found(v) => results[i] = Some(Some(v)),
                    MemTableGet::FoundTtl(v) => results[i] = Some(inner.resolve_ttl(&v)),
                    MemTableGet::Deleted => results[i] = Some(None),
                    MemTableGet::NotFound => {}
                }
            }
        }

        // Sorted visit order for the table search: unresolved keys only,
        // sorted so each level's files are walked once, front to back.
        let mut unresolved: Vec<usize> = (0..keys.len())
            .filter(|&i| results[i].is_none())
            .collect();
        for _ in &unresolved {
            inner.stats.tickers().inc(Ticker::MemtableMiss);
        }
        unresolved.sort_by(|&a, &b| keys[a].as_ref().cmp(keys[b].as_ref()));
        if !unresolved.is_empty() {
            inner.multi_search_tables(
                &version,
                keys,
                &mut unresolved,
                snapshot,
                ropts,
                &mut cpu,
                &mut results,
            )?;
        }

        let mut factor = inner.foreground_contention(inner.env.clock().now());
        if inner.opts().paranoid_checks {
            factor *= 1.08;
        }
        if inner.opts().use_direct_reads {
            factor *= 1.05;
        }
        factor *= inner.env.memory().penalty_factor();
        inner.env.clock().advance(cpu.mul_f64(factor));

        let n = keys.len() as u64;
        inner.stats.tickers().add(Ticker::KeysRead, n);
        inner.stats.tickers().add(Ticker::MultiGetKeysRead, n);
        inner.stats.tickers().inc(Ticker::MultiGetBatches);
        inner.stats.record(
            HistogramKind::DbMultiGet,
            inner.env.clock().now().saturating_since(started),
        );
        Ok(results
            .into_iter()
            .map(|r| {
                let value = r.flatten();
                inner.stats.tickers().inc(if value.is_some() {
                    Ticker::GetHit
                } else {
                    Ticker::GetMiss
                });
                value
            })
            .collect())
    }
}

impl DbInner {
    /// File id used in block-cache keys. Shards of a [`crate::ShardedDb`]
    /// share one cache but allocate file numbers independently, so each
    /// shard tags its keys in the (otherwise unreachable) high bits.
    fn cache_file_id(&self, file: FileNumber) -> FileNumber {
        match &self.shard {
            Some(ctx) => FileNumber(file.0 | ctx.cache_tag()),
            None => file,
        }
    }

    pub(super) fn open_table(
        &self,
        file: &FileMetadata,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Arc<TableReader>> {
        if let Some(r) = self.table_cache.get(file.number) {
            // With cache_index_and_filter_blocks the resident metadata
            // lives in the block cache and may have been evicted; charge
            // a re-read when it is gone. The re-read is accounted like
            // the cold open below: it is the same index+filter I/O, just
            // triggered by block-cache pressure instead of a first open.
            if self.opts().cache_index_and_filter_blocks {
                if let Some(cache) = &self.block_cache {
                    let key = BlockKey {
                        file: self.cache_file_id(file.number),
                        offset: u64::MAX,
                    };
                    if cache.get(&key).is_none() {
                        let now = self.env.clock().now();
                        let bytes = r.resident_bytes().max(4096);
                        let done =
                            self.env.device().submit_read(now, bytes, AccessPattern::Random);
                        self.env.clock().advance_to(done);
                        self.stats.tickers().inc(Ticker::TableOpens);
                        self.stats.tickers().add(Ticker::BytesRead, bytes);
                        self.stats
                            .record(HistogramKind::SstReadMicros, done.saturating_since(now));
                        if ropts.fill_cache {
                            cache
                                .insert(key, Arc::new(Block::sentinel(r.resident_bytes() as usize)));
                        }
                    }
                }
            }
            return Ok(r);
        }
        let handle = self.vfs.open(&sst_file_name(file.number))?;
        let (reader, bytes_read) = TableReader::open(handle)?;
        // Footer + index + filter: three random reads.
        let now = self.env.clock().now();
        let mut done = now;
        for part in split3(bytes_read) {
            done = self.env.device().submit_read(done, part, AccessPattern::Random);
        }
        self.env.clock().advance_to(done);
        *cpu += SimDuration::from_micros(3); // parse footer/index/filter
        self.stats.tickers().inc(Ticker::TableOpens);
        self.stats.tickers().add(Ticker::BytesRead, bytes_read);
        self.stats
            .record(HistogramKind::SstReadMicros, done.saturating_since(now));
        let reader = Arc::new(reader);
        if self.opts().cache_index_and_filter_blocks {
            // `fill_cache` governs block-cache population for reads, and
            // the resident metadata lives in the block cache here — so a
            // no-fill read leaves it out (the next open re-reads it),
            // matching what fetch_block does for data blocks.
            if let Some(cache) = &self.block_cache {
                if ropts.fill_cache {
                    cache.insert(
                        BlockKey {
                            file: self.cache_file_id(file.number),
                            offset: u64::MAX,
                        },
                        Arc::new(Block::sentinel(reader.resident_bytes() as usize)),
                    );
                }
            }
        } else {
            self.env
                .memory()
                .reserve(MemoryUser::TableCache, reader.resident_bytes());
        }
        let displaced = self.table_cache.insert(file.number, Arc::clone(&reader));
        self.stats
            .tickers()
            .add(Ticker::TableCacheEvictions, displaced.len() as u64);
        self.release_table_readers(displaced);
        Ok(reader)
    }

    /// Releases the `MemoryUser::TableCache` reservation held against
    /// readers leaving the table cache (capacity eviction, compaction
    /// deletion, or same-file replacement). Reservations are only taken
    /// when metadata lives outside the block cache.
    pub(super) fn release_table_readers<I: IntoIterator<Item = Arc<TableReader>>>(&self, readers: I) {
        if self.opts().cache_index_and_filter_blocks {
            return;
        }
        for r in readers {
            self.env
                .memory()
                .release(MemoryUser::TableCache, r.resident_bytes());
        }
    }

    /// Fetches a parsed block through the cache, charging device time on
    /// miss. The cache holds `Arc<Block>`, so hits hand the same parsed
    /// block to every reader — no payload copy, no re-parse.
    pub(super) fn fetch_block(
        &self,
        reader: &TableReader,
        file: FileNumber,
        handle: BlockHandle,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Arc<Block>> {
        let key = BlockKey {
            file: self.cache_file_id(file),
            offset: handle.offset,
        };
        if let Some(cache) = &self.block_cache {
            if let Some(b) = cache.get(&key) {
                self.stats.tickers().inc(Ticker::BlockCacheHit);
                *cpu += self.cost.cache_hit_cpu;
                return Ok(b);
            }
            self.stats.tickers().inc(Ticker::BlockCacheMiss);
        }
        let fetch = reader.read_block_with(handle, ropts.verify_checksums)?;
        let now = self.env.clock().now();
        let done = self
            .env
            .device()
            .submit_read(now, fetch.io_bytes, AccessPattern::Random);
        self.env.clock().advance_to(done);
        self.stats.tickers().add(Ticker::BytesRead, fetch.io_bytes);
        self.stats
            .record(HistogramKind::SstReadMicros, done.saturating_since(now));
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

    /// Resolves the data-block handle for `target`, going through the
    /// block cache for index partitions when the table has a two-level
    /// index (a flat index is resident and needs no fetch).
    fn find_data_block(
        &self,
        reader: &TableReader,
        file: FileNumber,
        target: &[u8],
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Option<BlockHandle>> {
        if !reader.is_two_level() {
            return reader.find_block(target);
        }
        let Some(ph) = reader.find_index_partition(target)? else {
            return Ok(None);
        };
        let partition = self.fetch_block(reader, file, ph, ropts, cpu)?;
        *cpu += self.cost.index_seek_cpu; // second-level seek
        TableReader::find_block_in(&partition, target)
    }

    /// Runs `user_key` through the table's bloom filters, maintaining the
    /// whole-key and prefix ticker families. Returns `false` when the key
    /// is definitively absent and the probe can stop here.
    fn check_filters(&self, reader: &TableReader, user_key: &[u8], cpu: &mut SimDuration) -> bool {
        if !reader.has_filter() {
            return true;
        }
        self.stats.tickers().inc(Ticker::BloomChecked);
        *cpu += self.cost.bloom_check_cpu;
        if reader.prefix_len() > 0 {
            self.stats.tickers().inc(Ticker::BloomPrefixChecked);
            if reader.prefix_rejects(user_key) {
                self.stats.tickers().inc(Ticker::BloomPrefixUseful);
                self.stats.tickers().inc(Ticker::BloomUseful);
                return false;
            }
        }
        if !reader.may_contain(user_key) {
            self.stats.tickers().inc(Ticker::BloomUseful);
            return false;
        }
        true
    }

    fn search_tables(
        &self,
        version: &Version,
        key: &[u8],
        snapshot: SequenceNumber,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let target = crate::types::lookup_key(key, snapshot);
        // L0: newest first, ranges may overlap.
        for f in version.files(0) {
            if key < f.smallest.user_key() || key > f.largest.user_key() {
                continue;
            }
            if let Some(result) = self.probe_table(f, key, &target, ropts, cpu)? {
                return Ok(Some(result));
            }
        }
        // Deeper levels: at most one file can contain the key.
        for level in 1..version.num_levels() {
            let files = version.files(level);
            if files.is_empty() {
                continue;
            }
            // Binary search by largest user key.
            let idx = files.partition_point(|f| f.largest.user_key() < key);
            if idx >= files.len() {
                continue;
            }
            let f = &files[idx];
            if key < f.smallest.user_key() {
                continue;
            }
            *cpu += SimDuration::from_nanos(60); // range binary search
            if let Some(result) = self.probe_table(f, key, &target, ropts, cpu)? {
                return Ok(Some(result));
            }
        }
        Ok(None)
    }

    /// Batched table search for [`Db::multi_get_opt`]. `unresolved`
    /// holds batch indices sorted by key; resolved entries are written
    /// into `results` and removed. Each L0 file and each deeper-level
    /// file is probed at most once for the whole batch.
    #[allow(clippy::too_many_arguments)]
    fn multi_search_tables<K: AsRef<[u8]>>(
        &self,
        version: &Version,
        keys: &[K],
        unresolved: &mut Vec<usize>,
        snapshot: SequenceNumber,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
        results: &mut [Option<Option<Vec<u8>>>],
    ) -> Result<()> {
        // L0: files newest first, whole batch against each file before
        // moving on — equivalent to per-key newest-first probing, since
        // a key resolved by a newer file is skipped in older ones.
        for f in version.files(0) {
            if unresolved.is_empty() {
                return Ok(());
            }
            self.probe_file_batch(f, keys, unresolved, snapshot, ropts, cpu, results)?;
            unresolved.retain(|&i| results[i].is_none());
        }
        // Deeper levels: at most one file can contain each key. Group
        // the (sorted) keys by containing file so each file is opened
        // and probed once.
        for level in 1..version.num_levels() {
            if unresolved.is_empty() {
                return Ok(());
            }
            let files = version.files(level);
            if files.is_empty() {
                continue;
            }
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for &i in unresolved.iter() {
                let key = keys[i].as_ref();
                let idx = files.partition_point(|f| f.largest.user_key() < key);
                if idx >= files.len() || key < files[idx].smallest.user_key() {
                    continue;
                }
                *cpu += SimDuration::from_nanos(60); // range binary search
                match groups.last_mut() {
                    Some((fi, g)) if *fi == idx => g.push(i),
                    _ => groups.push((idx, vec![i])),
                }
            }
            for (fi, g) in groups {
                self.probe_file_batch(&files[fi], keys, &g, snapshot, ropts, cpu, results)?;
            }
            unresolved.retain(|&i| results[i].is_none());
        }
        Ok(())
    }

    /// Probes one table for every still-unresolved key in `idxs`
    /// (batch indices sorted by key). The table handle is opened once
    /// for the whole group, and consecutive keys landing in the same
    /// data block reuse the fetched + parsed block instead of paying a
    /// cache lookup and parse each — the core MultiGet saving.
    #[allow(clippy::too_many_arguments)]
    fn probe_file_batch<K: AsRef<[u8]>>(
        &self,
        file: &FileMetadata,
        keys: &[K],
        idxs: &[usize],
        snapshot: SequenceNumber,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
        results: &mut [Option<Option<Vec<u8>>>],
    ) -> Result<()> {
        let in_range: Vec<usize> = idxs
            .iter()
            .copied()
            .filter(|&i| results[i].is_none())
            .filter(|&i| {
                let k = keys[i].as_ref();
                k >= file.smallest.user_key() && k <= file.largest.user_key()
            })
            .collect();
        if in_range.is_empty() {
            return Ok(());
        }
        let reader = self.open_table(file, ropts, cpu)?;
        let mut last_block: Option<(u64, Arc<Block>)> = None;
        for &i in &in_range {
            let user_key = keys[i].as_ref();
            if !self.check_filters(&reader, user_key, cpu) {
                continue;
            }
            let target = crate::types::lookup_key(user_key, snapshot);
            *cpu += self.cost.index_seek_cpu;
            let Some(handle) = self.find_data_block(&reader, file.number, target.encoded(), ropts, cpu)?
            else {
                continue;
            };
            let reuse = last_block
                .as_ref()
                .is_some_and(|(off, _)| *off == handle.offset);
            if reuse {
                *cpu += SimDuration::from_nanos(100); // re-seek in parsed block
            } else {
                let block = self.fetch_block(&reader, file.number, handle, ropts, cpu)?;
                *cpu += SimDuration::from_nanos(300); // parse + binary search
                last_block = Some((handle.offset, block));
            }
            let (_, block) = last_block.as_ref().expect("block just set");
            if let Some((k, v)) = block.seek(target.encoded())? {
                let found_user = &k[..k.len() - 8];
                if found_user != user_key {
                    continue;
                }
                let tag = u64::from_le_bytes(k[k.len() - 8..].try_into().expect("tag"));
                results[i] = if (tag & 0xff) == ValueType::Deletion as u64 {
                    Some(None)
                } else if (tag & 0xff) == ValueType::TtlValue as u64 {
                    Some(self.resolve_ttl(&v))
                } else {
                    Some(Some(v))
                };
            }
        }
        Ok(())
    }

    fn probe_table(
        &self,
        file: &FileMetadata,
        user_key: &[u8],
        target: &InternalKey,
        ropts: &ReadOptions,
        cpu: &mut SimDuration,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let reader = self.open_table(file, ropts, cpu)?;
        if !self.check_filters(&reader, user_key, cpu) {
            return Ok(None);
        }
        *cpu += self.cost.index_seek_cpu;
        let Some(handle) = self.find_data_block(&reader, file.number, target.encoded(), ropts, cpu)?
        else {
            return Ok(None);
        };
        let block = self.fetch_block(&reader, file.number, handle, ropts, cpu)?;
        *cpu += SimDuration::from_nanos(300); // block binary search + scan
        match block.seek(target.encoded())? {
            Some((k, v)) => {
                let found_user = &k[..k.len() - 8];
                if found_user != user_key {
                    return Ok(None);
                }
                let tag = u64::from_le_bytes(k[k.len() - 8..].try_into().expect("tag"));
                if (tag & 0xff) == ValueType::Deletion as u64 {
                    Ok(Some(None))
                } else if (tag & 0xff) == ValueType::TtlValue as u64 {
                    Ok(Some(self.resolve_ttl(&v)))
                } else {
                    Ok(Some(Some(v)))
                }
            }
            None => Ok(None),
        }
    }
}

fn split3(total: u64) -> [u64; 3] {
    let third = total / 3;
    [third, third, total - 2 * third]
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
    fn read_options_fill_cache_and_checksum_skip() {
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

        // Checksum-skipping reads return the same data.
        let no_verify = ReadOptions {
            verify_checksums: false,
            ..ReadOptions::default()
        };
        assert_eq!(db.get_opt(&no_verify, b"key-01234").unwrap(), Some(b"v".to_vec()));
        assert_eq!(db.scan_opt(&no_verify, b"key-00000", 3).unwrap().len(), 3);
    }

    #[test]
    fn ttl_expires_on_read_path_and_under_compaction() {
        let env = env();
        let mut opts = small_opts();
        opts.ttl_seconds = 10;
        let db = Db::builder(opts).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()), "fresh value readable");
        let scanned = db.scan(b"", 10).unwrap();
        assert_eq!(scanned, vec![(b"k".to_vec(), b"v".to_vec())], "scan strips the stamp");

        // Jump the virtual clock past the TTL: the entry reads as absent
        // on every path before any compaction ran.
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(11.0));
        assert_eq!(db.get(b"k").unwrap(), None, "expired on point read");
        assert_eq!(db.multi_get(&[b"k".to_vec()]).unwrap(), vec![None]);
        assert!(db.scan(b"", 10).unwrap().is_empty(), "expired on scan");

        // Flush + bottommost rewrite physically drop the entry via the
        // TTL compaction filter.
        db.flush().unwrap();
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();
        let levels = db.stats().levels;
        let total_files: usize = levels.iter().map(|l| l.0).sum();
        assert_eq!(total_files, 0, "expired data physically dropped: {levels:?}");
    }

    #[test]
    fn ttl_zero_keeps_values_and_online_change_applies_to_old_stamps() {
        let env = env();
        let mut opts = small_opts();
        opts.ttl_seconds = 1_000_000;
        let db = Db::builder(opts).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(100.0));
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));

        // Tighten the TTL online: the existing stamp now counts as expired.
        db.set_options(&[("ttl_seconds", "50")]).unwrap();
        assert_eq!(db.get(b"k").unwrap(), None, "online TTL change governs old stamps");

        // Disable TTL: stamped data becomes immortal again.
        db.set_options(&[("ttl_seconds", "0")]).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
    }
}
