//! Range scans: the shared k-way merge over one stepping cursor per
//! memtable, per L0 file, and per deeper level, with the user-visible
//! filtering (snapshot bound, dedup, tombstones) on top.

use std::sync::Arc;

use hw_sim::SimDuration;

use super::read::ReadView;
use super::{sim, Db, DbInner, Mode, ReadOptions, ScanResult};
use crate::error::Result;
use crate::memtable::MemTableCursor;
use crate::merge::{Concat, Cursor, MergingCursor};
use crate::options::Options;
use crate::sstable::table::table_cursor;
use crate::stats::Ticker;
use crate::types::{split_tag, ValueType};
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

        let opts = inner.opts();
        let target = crate::types::lookup_key(start, snapshot);
        let target = target.encoded();
        let mut sources: Vec<Box<dyn Cursor + '_>> = Vec::new();
        for m in std::iter::once(mem).chain(imm) {
            sources.push(Box::new(MemTableCursor::seek(m, target)));
        }
        for f in version.files(0) {
            if f.largest.user_key() >= start {
                sources.push(Box::new(inner.file_cursor(f, Some(target), &opts, *ropts)?));
            }
        }
        // A deeper level is its files end to end, from the first that can
        // hold `start`.
        for level in 1..version.num_levels() {
            let files = version.files(level);
            let from = files.partition_point(|f| f.largest.user_key() < start);
            if from < files.len() {
                let open = |file: &Arc<FileMetadata>, target: Option<&[u8]>| {
                    inner.file_cursor(file, target, &opts, *ropts)
                };
                sources.push(Box::new(Concat::open(files[from..].iter(), open, Some(target))?));
            }
        }
        let mut merged = MergingCursor::new(sources);

        let mut out = Vec::with_capacity(count.min(4096));
        // Reused dedup buffer: per-entry cost is the two owned result
        // vectors, not extra user-key clones.
        let mut last_user: Vec<u8> = Vec::new();
        let mut have_last = false;
        let mut cpu = sim::READ_BASE_CPU;
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
                if ty != ValueType::Deletion as u8 {
                    out.push((user_key.to_vec(), merged.value().to_vec()));
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
    /// Opens a cursor over `file` positioned at `target` (its first entry
    /// when `None`). Blocks come out of the block cache as shared
    /// `Arc<Block>`s and are walked in place; nothing is copied until an
    /// entry is emitted into the scan result.
    fn file_cursor<'a>(
        &'a self,
        file: &FileMetadata,
        target: Option<&[u8]>,
        opts: &Options,
        ropts: ReadOptions,
    ) -> Result<impl Cursor + 'a> {
        // A cursor's table-open and block-fetch CPU reaches the sim clock
        // as it is incurred, outside the scan's scaled total.
        let spend = |cpu| match &self.mode {
            Mode::Sim(sim) => sim.spend(cpu),
            Mode::Real(_) => {}
        };
        let mut cpu = SimDuration::ZERO;
        let reader = self.open_table(file, opts, &ropts, &mut cpu)?;
        spend(cpu);
        let number = file.number;
        let index = reader.index();
        let fetch = move |handle| {
            let mut cpu = SimDuration::ZERO;
            let block = self.fetch_block(&reader, number, handle, &ropts, &mut cpu)?;
            spend(cpu);
            Ok(block)
        };
        table_cursor(index, fetch, target)
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
