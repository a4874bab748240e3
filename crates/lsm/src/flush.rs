//! Flush: merging immutable memtables into one L0 table file.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::memtable::MemTable;
use crate::merge::{write_tables, Cursor, FilterContext};
use crate::sstable::table::{FinishedTable, TableConfig};
use crate::types::FileNumber;
use crate::vfs::Vfs;

/// Name of an SST file on the VFS.
pub fn sst_file_name(number: FileNumber) -> String {
    format!("{number}.sst")
}

/// A built L0 table plus merge accounting for the statistics registry.
#[derive(Debug)]
pub struct FlushOutput {
    /// The finished table.
    pub table: FinishedTable,
    /// Shadowed versions dropped during the merge.
    pub entries_dropped: u64,
}

/// Merges `mems` into a single L0 table, under the retention rules of
/// `merge::write_tables`. L0 is never bottommost (older versions may exist in
/// deeper levels), so tombstones are always kept; the only entries
/// dropped are shadowed versions no pinned snapshot resolves to.
///
/// # Errors
///
/// Returns [`ErrorKind::Io`](crate::ErrorKind) on write failure; the caller deletes the
/// partial file.
pub fn build_l0_table(
    vfs: &dyn Vfs,
    number: FileNumber,
    mems: &[Arc<MemTable>],
    config: &TableConfig,
    ctx: &FilterContext,
) -> Result<FlushOutput> {
    let views: Vec<_> = mems.iter().map(|m| m.view()).collect();
    let sources = views.iter().map(|v| Box::new(v.cursor()) as Box<dyn Cursor + '_>).collect();
    let mut merged = write_tables(vfs, sources, false, u64::MAX, config, ctx, || number)?;
    let (_, table) = merged
        .files
        .pop()
        .ok_or_else(|| Error::invalid_argument("cannot finish an empty table"))?;
    Ok(FlushOutput {
        table,
        entries_dropped: merged.entries_read - merged.entries_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sstable::table::table_entries;
    use crate::types::ValueType;
    use crate::vfs::MemVfs;

    #[test]
    fn single_memtable_flush() {
        let vfs = MemVfs::new();
        let mt = MemTable::new();
        for i in 0..100 {
            mt.add(i + 1, ValueType::Value, format!("k{i:03}").as_bytes(), b"v");
        }
        let out = build_l0_table(
            &vfs,
            FileNumber(1),
            &[Arc::new(mt)],
            &TableConfig::default(),
            &FilterContext::default(),
        )
        .unwrap();
        assert_eq!(out.table.properties.num_entries, 100);
        assert_eq!(out.entries_dropped, 0);
        let entries = table_entries(&vfs, FileNumber(1));
        assert_eq!(entries.len(), 100);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn merge_multiple_memtables_newest_wins() {
        let vfs = MemVfs::new();
        let old = MemTable::new();
        old.add(1, ValueType::Value, b"dup", b"old");
        old.add(2, ValueType::Value, b"only-old", b"x");
        let new = MemTable::new();
        new.add(10, ValueType::Value, b"dup", b"new");
        new.add(11, ValueType::Value, b"only-new", b"y");
        let out = build_l0_table(
            &vfs,
            FileNumber(2),
            &[Arc::new(old), Arc::new(new)],
            &TableConfig::default(),
            &FilterContext::default(),
        )
        .unwrap();
        assert_eq!(out.table.properties.num_entries, 3, "shadowed dup dropped");
        assert_eq!(out.entries_dropped, 1);
        let entries = table_entries(&vfs, FileNumber(2));
        let dup = entries.iter().find(|e| e.0 == b"dup").unwrap();
        assert_eq!(dup.3, b"new");
        assert_eq!(dup.1, 10);
    }

    #[test]
    fn tombstones_survive_flush() {
        let vfs = MemVfs::new();
        let mt = MemTable::new();
        mt.add(1, ValueType::Value, b"k", b"v");
        mt.add(2, ValueType::Deletion, b"k", b"");
        let _ = build_l0_table(
            &vfs,
            FileNumber(3),
            &[Arc::new(mt)],
            &TableConfig::default(),
            &FilterContext::default(),
        )
        .unwrap();
        let entries = table_entries(&vfs, FileNumber(3));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].2, ValueType::Deletion);
    }

    #[test]
    fn pinned_snapshot_keeps_shadowed_version() {
        let vfs = MemVfs::new();
        let mt = MemTable::new();
        mt.add(3, ValueType::Value, b"k", b"v3");
        mt.add(7, ValueType::Value, b"k", b"v7");
        // A snapshot at seq 5 still resolves `k` to the version at seq 3.
        let ctx = FilterContext { pins: vec![5] };
        let out = build_l0_table(
            &vfs,
            FileNumber(5),
            &[Arc::new(mt)],
            &TableConfig::default(),
            &ctx,
        )
        .unwrap();
        assert_eq!(out.entries_dropped, 0);
        let entries = table_entries(&vfs, FileNumber(5));
        assert_eq!(entries.len(), 2, "both versions survive");
        assert_eq!(entries[0].1, 7, "newest first");
        assert_eq!(entries[1].1, 3);
    }

    #[test]
    fn smallest_largest_span_all_inputs() {
        let vfs = MemVfs::new();
        let a = MemTable::new();
        a.add(1, ValueType::Value, b"mmm", b"");
        let b = MemTable::new();
        b.add(2, ValueType::Value, b"aaa", b"");
        b.add(3, ValueType::Value, b"zzz", b"");
        let fin = build_l0_table(
            &vfs,
            FileNumber(4),
            &[Arc::new(a), Arc::new(b)],
            &TableConfig::default(),
            &FilterContext::default(),
        )
        .unwrap()
        .table;
        assert_eq!(fin.smallest.user_key(), b"aaa");
        assert_eq!(fin.largest.user_key(), b"zzz");
    }
}
