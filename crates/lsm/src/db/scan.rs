//! Range scans: a k-way merge over one stepping cursor per memtable,
//! per L0 file, and per deeper level.

use std::sync::Arc;

use hw_sim::SimDuration;

use super::read::ReadView;
use super::{Db, DbInner, ReadOptions, ScanResult};
use crate::error::Result;
use crate::filter::{split_ttl_value, ttl_expired};
use crate::memtable::{MemTable, MemTableCursor};
use crate::sstable::block::OwnedBlockIter;
use crate::sstable::table::{BlockHandle, TableReader};
use crate::stats::Ticker;
use crate::types::{internal_key_cmp, ValueType};
use crate::version::FileMetadata;

impl Db {
    /// Scans forward from `start`, returning up to `count` live entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn scan(&self, start: &[u8], count: usize) -> Result<ScanResult> {
        self.scan_opt(&ReadOptions::default(), start, count)
    }

    /// Scans forward from `start` under explicit [`ReadOptions`],
    /// returning up to `count` live entries.
    ///
    /// # Errors
    ///
    /// Propagates I/O and corruption errors from table reads.
    pub fn scan_opt(&self, ropts: &ReadOptions, start: &[u8], count: usize) -> Result<ScanResult> {
        let inner = &*self.inner;
        let ReadView { mem, imm, version, snapshot } = inner.read_view(ropts)?;

        let target = crate::types::lookup_key(start, snapshot);
        let mut cursors: Vec<Box<dyn ScanCursor>> = Vec::new();
        cursors.push(Box::new(MemCursor::new(mem, target.encoded())));
        for m in imm {
            cursors.push(Box::new(MemCursor::new(m, target.encoded())));
        }
        for f in version.files(0) {
            if f.largest.user_key() >= start {
                cursors.push(Box::new(FileCursor::open(
                    inner,
                    Arc::clone(f),
                    target.encoded(),
                    *ropts,
                )?));
            }
        }
        for level in 1..version.num_levels() {
            let files: Vec<Arc<FileMetadata>> = version
                .files(level)
                .iter()
                .filter(|f| f.largest.user_key() >= start)
                .cloned()
                .collect();
            if !files.is_empty() {
                cursors.push(Box::new(LevelCursor::open(
                    inner,
                    files,
                    target.encoded(),
                    *ropts,
                )?));
            }
        }

        let mut out = Vec::with_capacity(count.min(4096));
        // Reused dedup buffer: per-entry cost is the two owned result
        // vectors, not extra user-key clones.
        let mut last_user: Vec<u8> = Vec::new();
        let mut have_last = false;
        let mut cpu = inner.cost.get_base_cpu;
        // TTL expiry is evaluated once per scan against a single clock
        // reading so one pass applies one consistent policy.
        let ttl_seconds = inner.opts().ttl_seconds;
        let scan_now_secs = inner.now_secs();
        while out.len() < count {
            // Pick the smallest current key across cursors.
            let mut best: Option<usize> = None;
            for (i, c) in cursors.iter().enumerate() {
                if let Some(k) = c.key() {
                    match best {
                        None => best = Some(i),
                        Some(b) => {
                            let bk = cursors[b].key().expect("best cursor valid");
                            if internal_key_cmp(k, bk) == std::cmp::Ordering::Less {
                                best = Some(i);
                            }
                        }
                    }
                }
            }
            let Some(idx) = best else { break };
            let key = cursors[idx].key().expect("valid").to_vec();
            let value = cursors[idx].value().expect("valid").to_vec();
            cursors[idx].advance(inner)?;
            cpu += inner.cost.scan_entry_cpu;

            let user_len = key.len() - 8;
            let user_key = &key[..user_len];
            let tag = u64::from_le_bytes(key[user_len..].try_into().expect("tag"));
            if (tag >> 8) > snapshot {
                // The seek target only bounds the first key; entries for
                // later keys can carry sequences past our read snapshot
                // (e.g. a group commit applying concurrently). Skipping
                // them keeps scans atomic with respect to batches.
                continue;
            }
            if have_last && last_user.as_slice() == user_key {
                continue; // shadowed
            }
            last_user.clear();
            last_user.extend_from_slice(user_key);
            have_last = true;
            if (tag & 0xff) == ValueType::Deletion as u64 {
                continue; // tombstone
            }
            let mut value = value;
            if (tag & 0xff) == ValueType::TtlValue as u64 {
                let (v, written) = split_ttl_value(&value);
                if written.is_some_and(|w| ttl_expired(w, scan_now_secs, ttl_seconds)) {
                    continue; // expired: reads as absent
                }
                let keep = v.len();
                value.truncate(keep);
            }
            // The key buffer becomes the result row's user key in place.
            let mut row_key = key;
            row_key.truncate(user_len);
            out.push((row_key, value));
        }
        let factor =
            inner.foreground_contention(inner.env.clock().now()) * inner.env.memory().penalty_factor();
        inner.env.clock().advance(cpu.mul_f64(factor));
        inner.stats.tickers().add(Ticker::KeysRead, out.len() as u64);
        Ok(out)
    }
}

trait ScanCursor {
    fn key(&self) -> Option<&[u8]>;
    fn value(&self) -> Option<&[u8]>;
    fn advance(&mut self, inner: &DbInner) -> Result<()>;
}

/// Scan cursor over one memtable (active or immutable): a real stepping
/// cursor, not a re-seek per entry. On the skiplist rep a step is one
/// atomic pointer load; on the `BTreeMap` rep the cursor falls back to
/// bounded range queries internally.
struct MemCursor {
    cur: MemTableCursor,
}

impl MemCursor {
    fn new(mem: Arc<MemTable>, target: &[u8]) -> Self {
        MemCursor {
            cur: MemTableCursor::seek(mem, target),
        }
    }
}

impl ScanCursor for MemCursor {
    fn key(&self) -> Option<&[u8]> {
        self.cur.key()
    }
    fn value(&self) -> Option<&[u8]> {
        self.cur.value()
    }
    fn advance(&mut self, _inner: &DbInner) -> Result<()> {
        self.cur.advance();
        Ok(())
    }
}

/// Scan cursor over one SST file. Blocks come out of the block cache as
/// shared `Arc<Block>`s and are walked in place by an [`OwnedBlockIter`];
/// nothing is copied until an entry is emitted into the scan result.
struct FileCursor {
    file: Arc<FileMetadata>,
    reader: Arc<TableReader>,
    handles: Vec<BlockHandle>,
    next_block: usize,
    iter: Option<OwnedBlockIter>,
    ropts: ReadOptions,
}

impl FileCursor {
    fn open(
        inner: &DbInner,
        file: Arc<FileMetadata>,
        target: &[u8],
        ropts: ReadOptions,
    ) -> Result<FileCursor> {
        let mut cpu = SimDuration::ZERO;
        let reader = inner.open_table(&file, &ropts, &mut cpu)?;
        let handles = reader.block_handles()?;
        inner.env.clock().advance(cpu);
        let mut c = FileCursor {
            file,
            reader,
            handles,
            next_block: 0,
            iter: None,
            ropts,
        };
        // Skip blocks wholly before the target using the index order.
        c.load_until(inner, target)?;
        Ok(c)
    }

    fn load_until(&mut self, inner: &DbInner, target: &[u8]) -> Result<()> {
        loop {
            self.load_next_block(inner)?;
            let Some(it) = self.iter.as_mut() else {
                return Ok(()); // exhausted
            };
            if it.seek(target)? {
                return Ok(());
            }
            // Every key in this block was < target; try the next one.
        }
    }

    fn load_next_block(&mut self, inner: &DbInner) -> Result<()> {
        self.iter = None;
        let mut cpu = SimDuration::ZERO;
        while self.next_block < self.handles.len() {
            let block = inner.fetch_block(
                &self.reader,
                self.file.number,
                self.handles[self.next_block],
                &self.ropts,
                &mut cpu,
            )?;
            self.next_block += 1;
            let mut it = OwnedBlockIter::new(block);
            if it.advance()? {
                self.iter = Some(it);
                break;
            }
        }
        inner.env.clock().advance(cpu);
        Ok(())
    }
}

impl ScanCursor for FileCursor {
    fn key(&self) -> Option<&[u8]> {
        self.iter.as_ref().filter(|it| it.valid()).map(|it| it.key())
    }
    fn value(&self) -> Option<&[u8]> {
        self.iter.as_ref().filter(|it| it.valid()).map(|it| it.value())
    }
    fn advance(&mut self, inner: &DbInner) -> Result<()> {
        if let Some(it) = self.iter.as_mut() {
            if !it.advance()? {
                self.load_next_block(inner)?;
            }
        }
        Ok(())
    }
}

struct LevelCursor {
    files: Vec<Arc<FileMetadata>>,
    next_file: usize,
    current: Option<FileCursor>,
    target: Vec<u8>,
    ropts: ReadOptions,
}

impl LevelCursor {
    fn open(
        inner: &DbInner,
        files: Vec<Arc<FileMetadata>>,
        target: &[u8],
        ropts: ReadOptions,
    ) -> Result<LevelCursor> {
        let mut c = LevelCursor {
            files,
            next_file: 0,
            current: None,
            target: target.to_vec(),
            ropts,
        };
        c.open_next(inner)?;
        Ok(c)
    }

    fn open_next(&mut self, inner: &DbInner) -> Result<()> {
        self.current = None;
        while self.next_file < self.files.len() {
            let file = Arc::clone(&self.files[self.next_file]);
            self.next_file += 1;
            let cursor = FileCursor::open(inner, file, &self.target, self.ropts)?;
            if cursor.key().is_some() {
                self.current = Some(cursor);
                return Ok(());
            }
        }
        Ok(())
    }
}

impl ScanCursor for LevelCursor {
    fn key(&self) -> Option<&[u8]> {
        self.current.as_ref().and_then(|c| c.key())
    }
    fn value(&self) -> Option<&[u8]> {
        self.current.as_ref().and_then(|c| c.value())
    }
    fn advance(&mut self, inner: &DbInner) -> Result<()> {
        if let Some(c) = &mut self.current {
            c.advance(inner)?;
            if c.key().is_none() {
                self.open_next(inner)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{env, small_opts};
    use super::*;

    #[test]
    fn scan_returns_sorted_live_entries() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        for i in 0..500 {
            db.put(format!("key-{i:04}").as_bytes(), b"v").unwrap();
        }
        db.delete(b"key-0002").unwrap();
        db.flush().unwrap();
        // A few more into the memtable so the scan merges sources.
        db.put(b"key-0001", b"updated").unwrap();
        let result = db.scan(b"key-0000", 5).unwrap();
        let keys: Vec<_> = result.iter().map(|(k, _)| String::from_utf8(k.clone()).unwrap()).collect();
        assert_eq!(keys, vec!["key-0000", "key-0001", "key-0003", "key-0004", "key-0005"]);
        let v1 = &result[1].1;
        assert_eq!(v1, b"updated");
    }
}
