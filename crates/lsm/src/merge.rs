//! Ordered cursors over encoded internal keys, the two ways of combining
//! them, and the one routine that writes a merged stream to tables.
//!
//! Scans, flushes and compactions all read their sources through
//! [`Cursor`]: sorted runs that follow one another (a table's data
//! blocks, a level's files) are laid end to end by [`Concat`], runs that
//! overlap are merged by [`MergingCursor`]. Flushes and
//! compactions then hand the merged stream to [`write_tables`], which is
//! the only place that knows which versions of a key may be dropped; a
//! flush is simply a merge of memtable sources that is never bottommost
//! and never cuts its output.

use crate::error::Result;
use crate::filter::{live_value, FilterContext};
use crate::flush::sst_file_name;
use crate::sstable::table::{FinishedTable, TableBuilder, TableConfig};
use crate::types::{internal_key_cmp, split_tag, FileNumber, SequenceNumber, ValueType};
use crate::vfs::Vfs;

/// A forward cursor over entries in internal-key order (user key
/// ascending, sequence descending).
pub(crate) trait Cursor {
    /// The current entry's encoded internal key; `None` once exhausted.
    fn key(&self) -> Option<&[u8]>;
    /// The current entry's value. Meaningful only while [`key`](Self::key)
    /// is `Some`.
    fn value(&self) -> &[u8];
    /// Steps to the next entry.
    fn advance(&mut self) -> Result<()>;
}

/// Sorted runs laid end to end, each wholly before the next: the data
/// blocks of a table in index order, the files of a sorted level.
///
/// `runs` lists them from the one a seek found for the target onwards and
/// `open(run, target)` opens one. Only that first run is entered at the
/// target; every later one holds only larger keys, so it is opened at its
/// first entry (`None`), and only when the run before it is exhausted.
pub(crate) struct Concat<I, F, C> {
    runs: I,
    open: F,
    current: Option<C>,
}

impl<I: Iterator, F: FnMut(I::Item, Option<&[u8]>) -> Result<C>, C: Cursor> Concat<I, F, C> {
    /// Positions at the first entry with internal key >= `target` (the
    /// first entry of all when `None`).
    pub(crate) fn open(runs: I, open: F, target: Option<&[u8]>) -> Result<Self> {
        let mut concat = Concat { runs, open, current: None };
        concat.next_run(target)?;
        Ok(concat)
    }

    /// Opens runs until one has an entry.
    fn next_run(&mut self, mut target: Option<&[u8]>) -> Result<()> {
        self.current = None;
        for run in self.runs.by_ref() {
            let cursor = (self.open)(run, target.take())?;
            if cursor.key().is_some() {
                self.current = Some(cursor);
                break;
            }
        }
        Ok(())
    }
}

impl<I: Iterator, F: FnMut(I::Item, Option<&[u8]>) -> Result<C>, C: Cursor> Cursor for Concat<I, F, C> {
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
                self.next_run(None)?;
            }
        }
        Ok(())
    }
}

/// Merges several cursors into one, smallest internal key first.
///
/// Sequence numbers are unique, so two sources never hold the same
/// internal key; the newest version of a user key always comes out first.
pub(crate) struct MergingCursor<'a> {
    sources: Vec<Box<dyn Cursor + 'a>>,
    /// Index of the source holding the smallest current key.
    current: Option<usize>,
}

impl<'a> MergingCursor<'a> {
    pub(crate) fn new(sources: Vec<Box<dyn Cursor + 'a>>) -> Self {
        let mut merged = MergingCursor { sources, current: None };
        merged.pick();
        merged
    }

    fn pick(&mut self) {
        let mut best: Option<(usize, &[u8])> = None;
        for (i, source) in self.sources.iter().enumerate() {
            if let Some(key) = source.key() {
                if best.is_none_or(|(_, smallest)| internal_key_cmp(key, smallest).is_lt()) {
                    best = Some((i, key));
                }
            }
        }
        self.current = best.map(|(i, _)| i);
    }
}

impl Cursor for MergingCursor<'_> {
    fn key(&self) -> Option<&[u8]> {
        self.current.and_then(|i| self.sources[i].key())
    }

    fn value(&self) -> &[u8] {
        self.current.map_or(&[], |i| self.sources[i].value())
    }

    fn advance(&mut self) -> Result<()> {
        if let Some(i) = self.current {
            self.sources[i].advance()?;
            self.pick();
        }
        Ok(())
    }
}

/// The tables a merge wrote, with its entry accounting.
#[derive(Debug)]
pub(crate) struct MergeOutput {
    /// Output files in key order.
    pub files: Vec<(FileNumber, FinishedTable)>,
    /// Entries examined.
    pub entries_read: u64,
    /// Entries emitted.
    pub entries_written: u64,
}

/// Merges `sources` and writes the surviving entries to tables of up to
/// `target_file_size` uncompressed bytes each, numbered by `alloc_file`.
///
/// This is the retention policy of the engine, in one place:
///
/// - A shadowed (older) version of a user key is dropped unless a pinned
///   snapshot in `ctx` still resolves to it.
/// - The newest version of each key expires when [`live_value`], the rule
///   reads use, finds it expired under `ctx`'s clock and no pin can see
///   it.
/// - A tombstone, or an expired value, is dropped outright only when the
///   merge is `bottommost` (nothing deeper can hold an older version of
///   the key) and every pin already sees it; otherwise the tombstone is
///   kept, and the expired value is rewritten into a tombstone at the
///   same sequence, so deeper versions stay shadowed.
///
/// # Errors
///
/// Returns I/O or corruption errors from reading sources or writing
/// outputs; the caller cleans up partial output files.
pub(crate) fn write_tables(
    vfs: &dyn Vfs,
    sources: Vec<Box<dyn Cursor + '_>>,
    bottommost: bool,
    target_file_size: u64,
    config: &TableConfig,
    ctx: &FilterContext,
    mut alloc_file: impl FnMut() -> FileNumber,
) -> Result<MergeOutput> {
    let mut merged = MergingCursor::new(sources);
    let mut out = MergeOutput { files: Vec::new(), entries_read: 0, entries_written: 0 };
    let mut builder: Option<(FileNumber, TableBuilder)> = None;
    let mut last_user_key: Option<Vec<u8>> = None;
    // Sequence of the next-newer version of the current user key.
    let mut newer_seq: SequenceNumber = 0;
    let mut tombstone: Vec<u8> = Vec::new();

    while let Some(key) = merged.key() {
        out.entries_read += 1;
        let (user_key, tag) = split_tag(key);
        let (seq, ty) = (tag >> 8, tag as u8);
        let mut entry = Some((key, merged.value()));
        if last_user_key.as_deref() == Some(user_key) {
            if !ctx.pin_in(seq, newer_seq) {
                entry = None;
            }
        } else {
            let last = last_user_key.get_or_insert_with(Vec::new);
            last.clear();
            last.extend_from_slice(user_key);
            let (now_secs, ttl_seconds) = ctx.expiry;
            let is_tombstone = ty == ValueType::Deletion as u8;
            let expired = !is_tombstone
                && ctx.unpinned(seq)
                && live_value(ty, merged.value(), now_secs, ttl_seconds).is_none();
            if is_tombstone || expired {
                if bottommost && ctx.visible_to_all_pins(seq) {
                    entry = None;
                } else if expired {
                    tombstone.clear();
                    tombstone.extend_from_slice(user_key);
                    tombstone
                        .extend_from_slice(&((seq << 8) | ValueType::Deletion as u64).to_le_bytes());
                    entry = Some((tombstone.as_slice(), &[][..]));
                }
            }
        }
        newer_seq = seq;

        if let Some((key, value)) = entry {
            let (_, table) = match &mut builder {
                Some(open) => open,
                None => {
                    let number = alloc_file();
                    let file = vfs.create(&sst_file_name(number))?;
                    builder.insert((number, TableBuilder::new(file, config.clone())))
                }
            };
            table.add(key, value)?;
            out.entries_written += 1;
            if table.raw_bytes() >= target_file_size {
                let (number, table) = builder.take().expect("builder exists");
                out.files.push((number, table.finish()?));
            }
        }
        merged.advance()?;
    }
    if let Some((number, table)) = builder {
        out.files.push((number, table.finish()?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proptest::collection::vec;
    use proptest::prelude::*;

    use super::*;
    use crate::compaction::run_compaction;
    use crate::flush::build_l0_table;
    use crate::memtable::MemTable;
    use crate::sstable::table::table_entries;
    use crate::version::FileMetadata;
    use crate::vfs::MemVfs;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Flush is a non-bottommost merge: flushing N memtables at once
        /// leaves exactly the entries that flushing them one by one and
        /// then merging the N tables off-bottom leaves, whatever the
        /// history, the pinned snapshots and what has expired.
        #[test]
        fn flushing_at_once_equals_flushing_one_by_one_then_merging(
            ops in vec((0u8..6, any::<u8>(), 0u8..4, 0u8..8), 1..120),
            pins in vec(0u64..130, 0..4),
            use_ttl in any::<bool>(),
        ) {
            // One op per sequence number; `cut == 0` rotates the memtable.
            // Kinds 2 and 3 are stamped values: at second 0 (expired under
            // a TTL) when the value is even, at second 95 (live) when odd.
            let mut mems = vec![MemTable::new(0)];
            for (i, (key, value, kind, cut)) in ops.iter().enumerate() {
                let (ty, value) = match kind {
                    0 => (ValueType::Deletion, Vec::new()),
                    1 => (ValueType::Value, vec![*value]),
                    _ => {
                        let written: u64 = if value % 2 == 0 { 0 } else { 95 };
                        (ValueType::TtlValue, [&[*value][..], &written.to_le_bytes()].concat())
                    }
                };
                let mem = mems.last().expect("never empty");
                mem.add(i as u64 + 1, ty, &[b'k', *key], &value);
                if *cut == 0 {
                    mems.push(MemTable::new(0));
                }
            }
            let mems: Vec<Arc<MemTable>> =
                mems.into_iter().filter(|m| !m.is_empty()).map(Arc::new).collect();
            let mut pins = pins;
            pins.sort_unstable();
            pins.dedup();
            // The clock reads second 100; a TTL of 10 expires the even
            // stamped values, none when TTL is off.
            let ctx = FilterContext { pins, expiry: (100, if use_ttl { 10 } else { 0 }) };
            let config = TableConfig::default();
            let vfs = MemVfs::new();

            build_l0_table(&vfs, FileNumber(1), &mems, &config, &ctx).unwrap();
            let at_once = table_entries(&vfs, FileNumber(1));

            let mut tables = Vec::new();
            for (i, mem) in mems.iter().enumerate() {
                let number = FileNumber(10 + i as u64);
                let t = build_l0_table(&vfs, number, std::slice::from_ref(mem), &config, &ctx)
                    .unwrap()
                    .table;
                tables.push(Arc::new(FileMetadata::new(
                    number,
                    t.file_size,
                    t.smallest,
                    t.largest,
                    t.properties.num_entries,
                )));
            }
            let merged =
                run_compaction(&vfs, &tables, false, u64::MAX, &config, &ctx, || FileNumber(1000))
                    .unwrap();
            prop_assert_eq!(merged.files.len(), 1, "an off-bottom merge keeps every newest version");
            prop_assert_eq!(table_entries(&vfs, FileNumber(1000)), at_once);
        }
    }
}
