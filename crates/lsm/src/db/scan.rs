//! Range scans: the shared k-way merge over one stepping cursor per
//! memtable, per L0 file, and per deeper level, with the user-visible
//! filtering (snapshot bound, dedup, tombstones, TTL) on top.

use std::sync::Arc;

use hw_sim::SimDuration;

use super::read::ReadView;
use super::{sim, Db, DbInner, Mode, ReadOptions, ScanResult};
use crate::error::Result;
use crate::filter::live_value;
use crate::memtable::MemTableCursor;
use crate::merge::{Cursor, MergingCursor};
use crate::sstable::table::TableCursor;
use crate::stats::Ticker;
use crate::types::split_tag;
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
        let mut sources: Vec<Box<dyn Cursor + '_>> = Vec::new();
        for m in std::iter::once(mem).chain(imm) {
            sources.push(Box::new(MemTableCursor::seek(m, target.encoded())));
        }
        for f in version.files(0) {
            if f.largest.user_key() >= start {
                sources.push(inner.file_cursor(f, target.encoded(), *ropts)?);
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
                let mut cursor = LevelCursor {
                    inner,
                    files,
                    next_file: 0,
                    current: None,
                    target: target.encoded().to_vec(),
                    ropts: *ropts,
                };
                cursor.open_next()?;
                sources.push(Box::new(cursor));
            }
        }
        let mut merged = MergingCursor::new(sources);

        let mut out = Vec::with_capacity(count.min(4096));
        // Reused dedup buffer: per-entry cost is the two owned result
        // vectors, not extra user-key clones.
        let mut last_user: Vec<u8> = Vec::new();
        let mut have_last = false;
        let mut cpu = sim::READ_BASE_CPU;
        // TTL expiry is evaluated once per scan against a single clock
        // reading so one pass applies one consistent policy.
        let (scan_now_secs, ttl_seconds) = inner.expiry_clock(&inner.opts());
        while out.len() < count {
            let Some(key) = merged.key() else { break };
            cpu += sim::SCAN_ENTRY_CPU;
            let (user_key, tag) = split_tag(key);
            let (seq, ty) = (tag >> 8, tag as u8);
            // The seek target only bounds the first key; entries for
            // later keys can carry sequences past our read snapshot
            // (e.g. a group commit applying concurrently). Skipping
            // them keeps scans atomic with respect to batches.
            let shadowed = have_last && last_user.as_slice() == user_key;
            if seq <= snapshot && !shadowed {
                last_user.clear();
                last_user.extend_from_slice(user_key);
                have_last = true;
                if let Some(value) = live_value(ty, merged.value(), scan_now_secs, ttl_seconds) {
                    out.push((user_key.to_vec(), value.to_vec()));
                }
            }
            // Stepping past the last row too keeps the charged block
            // fetches what they have always been.
            merged.advance()?;
        }
        if let Mode::Sim(sim) = &inner.mode {
            sim.finish_scan(cpu);
        }
        inner.stats.tickers().add(Ticker::KeysRead, out.len() as u64);
        Ok(out)
    }
}

impl DbInner {
    /// Opens a cursor over `file` positioned at `target`. Blocks come out
    /// of the block cache as shared `Arc<Block>`s and are walked in
    /// place; nothing is copied until an entry is emitted into the scan
    /// result.
    fn file_cursor<'a>(
        &'a self,
        file: &FileMetadata,
        target: &[u8],
        ropts: ReadOptions,
    ) -> Result<Box<dyn Cursor + 'a>> {
        // A cursor's table-open and block-fetch CPU reaches the sim clock
        // as it is incurred, outside the scan's scaled total.
        let spend = |cpu| match &self.mode {
            Mode::Sim(sim) => sim.spend(cpu),
            Mode::Real(_) => {}
        };
        let mut cpu = SimDuration::ZERO;
        let reader = self.open_table(file, &ropts, &mut cpu)?;
        let handles = reader.block_handles()?;
        spend(cpu);
        let number = file.number;
        let fetch = move |handle| {
            let mut cpu = SimDuration::ZERO;
            let block = self.fetch_block(&reader, number, handle, &ropts, &mut cpu)?;
            spend(cpu);
            Ok(block)
        };
        Ok(Box::new(TableCursor::open(handles, fetch, Some(target))?))
    }
}

/// The files of one sorted level, end to end; each is opened when the
/// one before it runs out.
struct LevelCursor<'a> {
    inner: &'a DbInner,
    files: Vec<Arc<FileMetadata>>,
    next_file: usize,
    current: Option<Box<dyn Cursor + 'a>>,
    target: Vec<u8>,
    ropts: ReadOptions,
}

impl LevelCursor<'_> {
    fn open_next(&mut self) -> Result<()> {
        self.current = None;
        while self.next_file < self.files.len() {
            let file = &self.files[self.next_file];
            self.next_file += 1;
            let cursor = self.inner.file_cursor(file, &self.target, self.ropts)?;
            if cursor.key().is_some() {
                self.current = Some(cursor);
                break;
            }
        }
        Ok(())
    }
}

impl Cursor for LevelCursor<'_> {
    fn key(&self) -> Option<&[u8]> {
        self.current.as_ref().and_then(|c| c.key())
    }

    fn value(&self) -> &[u8] {
        self.current.as_ref().map_or(&[], |c| c.value())
    }

    fn advance(&mut self) -> Result<()> {
        if let Some(c) = &mut self.current {
            c.advance()?;
            if c.key().is_none() {
                self.open_next()?;
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
