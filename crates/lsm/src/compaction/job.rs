//! Compaction job execution: the shared merge (`merge.rs`) over input
//! tables, plus the rule for when a merge counts as bottommost.
//!
//! Execution is *logical*: the merge runs eagerly over the immutable
//! input files, read directly, while the I/O and CPU the job would occupy
//! are accounted by the scheduler in `db/jobs.rs` from the byte/entry
//! totals returned here.

use std::sync::Arc;

use hw_sim::SimDuration;

use crate::compaction::picker::{CompactionInputs, CompactionReason};
use crate::error::Result;
use crate::filter::FilterContext;
use crate::flush::sst_file_name;
use crate::merge::{write_tables, Cursor};
use crate::sstable::table::{direct_cursor, FinishedTable, TableConfig, TableReader};
use crate::types::FileNumber;
use crate::version::{FileMetadata, Version};
use crate::vfs::Vfs;

/// The result of a compaction merge.
#[derive(Debug)]
pub struct CompactionJobOutput {
    /// Output files in key order.
    pub files: Vec<(FileNumber, FinishedTable)>,
    /// Bytes read from input files (on-disk size).
    pub bytes_read: u64,
    /// Bytes written to output files (on-disk size).
    pub bytes_written: u64,
    /// Entries examined.
    pub entries_read: u64,
    /// Entries emitted (after dropping shadowed versions/tombstones).
    pub entries_written: u64,
    /// CPU spent compressing output blocks.
    pub compression_cpu: SimDuration,
}

/// Whether a merge may drop tombstones: nothing deeper than the output
/// level can hold older versions of the merged keys.
///
/// Any compaction qualifies under the global rule — the output is the
/// deepest level, or every deeper level is empty. A manual bottommost
/// rewrite ([`CompactionReason::BottommostFiles`]) additionally
/// qualifies when no deeper file overlaps the inputs' combined user-key
/// span; without the range-aware check, unrelated data elsewhere in a
/// deeper level keeps a range's bottommost tombstones alive forever.
pub fn can_drop_tombstones(version: &Version, c: &CompactionInputs) -> bool {
    let n = version.num_levels();
    let output = c.output_level;
    if output + 1 >= n || (output + 1..n).all(|l| version.files(l).is_empty()) {
        return true;
    }
    if c.reason != CompactionReason::BottommostFiles {
        return false;
    }
    let mut span: Option<(&[u8], &[u8])> = None;
    for (_, f) in &c.inputs {
        let (s, l) = (f.smallest.user_key(), f.largest.user_key());
        span = Some(match span {
            None => (s, l),
            Some((lo, hi)) => (lo.min(s), hi.max(l)),
        });
    }
    let Some((lo, hi)) = span else { return false };
    (output + 1..n).all(|l| version.overlapping_files(l, lo, hi).is_empty())
}

/// Runs the merge: reads `inputs`, writes up to `target_file_size`-sized
/// outputs via `alloc_file` (which hands out fresh file numbers).
///
/// `bottommost` says nothing deeper than the output level can hold older
/// versions of the merged key range; `ctx` carries the optional
/// compaction filter and the pinned snapshot sequences. What survives is
/// decided by [`write_tables`].
///
/// # Errors
///
/// Returns I/O or corruption errors from reading inputs or writing
/// outputs; the caller cleans up partial output files.
pub fn run_compaction(
    vfs: &dyn Vfs,
    inputs: &[Arc<FileMetadata>],
    bottommost: bool,
    target_file_size: u64,
    table_config: &TableConfig,
    ctx: &FilterContext,
    alloc_file: impl FnMut() -> FileNumber,
) -> Result<CompactionJobOutput> {
    let mut sources: Vec<Box<dyn Cursor>> = Vec::with_capacity(inputs.len());
    for f in inputs {
        let (reader, _) = TableReader::open(vfs.open(&sst_file_name(f.number))?)?;
        sources.push(Box::new(direct_cursor(reader)?));
    }
    let merged =
        write_tables(vfs, sources, bottommost, target_file_size, table_config, ctx, alloc_file)?;
    Ok(CompactionJobOutput {
        bytes_read: inputs.iter().map(|f| f.size).sum(),
        bytes_written: merged.files.iter().map(|(_, t)| t.file_size).sum(),
        entries_read: merged.entries_read,
        entries_written: merged.entries_written,
        compression_cpu: merged
            .files
            .iter()
            .fold(SimDuration::ZERO, |cpu, (_, t)| cpu + t.compression_cpu),
        files: merged.files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterDecision;
    use crate::memtable::MemTable;
    use crate::sstable::table::table_entries;
    use crate::types::{InternalKey, ValueType};
    use crate::vfs::MemVfs;

    fn make_table(
        vfs: &MemVfs,
        number: u64,
        entries: &[(&str, u64, ValueType, &str)],
    ) -> Arc<FileMetadata> {
        let mt = MemTable::new(0);
        for (k, seq, ty, v) in entries {
            mt.add(*seq, *ty, k.as_bytes(), v.as_bytes());
        }
        let fin = crate::flush::build_l0_table(
            vfs,
            FileNumber(number),
            &[Arc::new(mt)],
            &TableConfig::default(),
            &FilterContext::default(),
        )
        .unwrap()
        .table;
        Arc::new(FileMetadata::new(
            FileNumber(number),
            fin.file_size,
            fin.smallest,
            fin.largest,
            fin.properties.num_entries,
        ))
    }

    fn read_user_entries(vfs: &MemVfs, number: FileNumber) -> Vec<(String, String)> {
        table_entries(vfs, number)
            .into_iter()
            .map(|(k, _, _, v)| (String::from_utf8(k).unwrap(), String::from_utf8(v).unwrap()))
            .collect()
    }

    fn read_typed_entries(vfs: &MemVfs, number: FileNumber) -> Vec<(String, u64, ValueType)> {
        table_entries(vfs, number)
            .into_iter()
            .map(|(k, seq, ty, _)| (String::from_utf8(k).unwrap(), seq, ty))
            .collect()
    }

    #[test]
    fn merge_two_tables_newest_wins() {
        let vfs = MemVfs::new();
        let old = make_table(&vfs, 1, &[("a", 1, ValueType::Value, "old-a"), ("b", 2, ValueType::Value, "b")]);
        let new = make_table(&vfs, 2, &[("a", 10, ValueType::Value, "new-a"), ("c", 11, ValueType::Value, "c")]);
        let mut next = 10u64;
        let out = run_compaction(
            &vfs,
            &[old, new],
            false,
            u64::MAX,
            &TableConfig::default(),
            &FilterContext::default(),
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        assert_eq!(out.files.len(), 1);
        assert_eq!(out.entries_read, 4);
        assert_eq!(out.entries_written, 3);
        let entries = read_user_entries(&vfs, out.files[0].0);
        assert_eq!(
            entries,
            vec![
                ("a".to_string(), "new-a".to_string()),
                ("b".to_string(), "b".to_string()),
                ("c".to_string(), "c".to_string())
            ]
        );
    }

    #[test]
    fn tombstones_dropped_only_at_bottom() {
        let vfs = MemVfs::new();
        let t = make_table(
            &vfs,
            1,
            &[("dead", 5, ValueType::Deletion, ""), ("live", 6, ValueType::Value, "v")],
        );
        let mut next = 10u64;
        let keep = run_compaction(
            &vfs,
            &[Arc::clone(&t)],
            false,
            u64::MAX,
            &TableConfig::default(),
            &FilterContext::default(),
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        assert_eq!(keep.entries_written, 2, "tombstone kept off-bottom");

        let drop = run_compaction(
            &vfs,
            &[t],
            true,
            u64::MAX,
            &TableConfig::default(),
            &FilterContext::default(),
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        assert_eq!(drop.entries_written, 1, "tombstone dropped at bottom");
        let entries = read_user_entries(&vfs, drop.files[0].0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, "live");
    }

    #[test]
    fn output_splits_at_target_size() {
        let vfs = MemVfs::new();
        let entries: Vec<(String, String)> = (0..500)
            .map(|i| (format!("key-{i:05}"), "v".repeat(100)))
            .collect();
        let refs: Vec<(&str, u64, ValueType, &str)> = entries
            .iter()
            .enumerate()
            .map(|(i, (k, v))| (k.as_str(), (i + 1) as u64, ValueType::Value, v.as_str()))
            .collect();
        let t = make_table(&vfs, 1, &refs);
        let mut next = 10u64;
        let out = run_compaction(
            &vfs,
            &[t],
            true,
            8_000,
            &TableConfig::default(),
            &FilterContext::default(),
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        assert!(out.files.len() > 3, "got {} files", out.files.len());
        // All entries preserved across the splits, in order.
        let mut all = Vec::new();
        for (num, _) in &out.files {
            all.extend(read_user_entries(&vfs, *num));
        }
        assert_eq!(all.len(), 500);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn all_tombstones_at_bottom_can_produce_no_output() {
        let vfs = MemVfs::new();
        let t = make_table(&vfs, 1, &[("gone", 5, ValueType::Deletion, "")]);
        let mut next = 10u64;
        let out = run_compaction(
            &vfs,
            &[t],
            true,
            u64::MAX,
            &TableConfig::default(),
            &FilterContext::default(),
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        assert!(out.files.is_empty());
        assert_eq!(out.entries_written, 0);
    }

    #[test]
    fn can_drop_tombstones_is_range_aware_for_bottommost_rewrites() {
        use crate::version::VersionEdit;

        fn file(number: u64, lo: &str, hi: &str) -> Arc<FileMetadata> {
            Arc::new(FileMetadata::new(
                FileNumber(number),
                1_000,
                InternalKey::new(lo.as_bytes(), 1, ValueType::Value),
                InternalKey::new(hi.as_bytes(), 1, ValueType::Value),
                10,
            ))
        }
        fn version(files: &[(usize, Arc<FileMetadata>)]) -> Version {
            let mut edit = VersionEdit::default();
            for (l, f) in files {
                edit.added_files.push((*l, Arc::clone(f)));
            }
            Version::empty(7).apply(&edit).unwrap()
        }

        let a = file(1, "a", "c");
        let z = file(2, "x", "z");
        // Unrelated z-range data at L2 defeats the global rule for an
        // L1 merge of the a-range...
        let v = version(&[(1, Arc::clone(&a)), (2, Arc::clone(&z))]);
        let auto = CompactionInputs {
            inputs: vec![(1, Arc::clone(&a))],
            output_level: 1,
            reason: CompactionReason::LevelSize,
        };
        assert!(!can_drop_tombstones(&v, &auto), "auto merges keep the global rule");

        // ...but a manual bottommost rewrite checks the inputs' span.
        let rewrite = CompactionInputs {
            inputs: vec![(1, Arc::clone(&a))],
            output_level: 1,
            reason: CompactionReason::BottommostFiles,
        };
        assert!(can_drop_tombstones(&v, &rewrite), "no deeper overlap in [a,c]");

        // A deeper file overlapping the span blocks the drop.
        let v2 = version(&[(1, Arc::clone(&a)), (2, file(3, "b", "d"))]);
        let rewrite2 = CompactionInputs {
            inputs: vec![(1, Arc::clone(&a))],
            output_level: 1,
            reason: CompactionReason::BottommostFiles,
        };
        assert!(!can_drop_tombstones(&v2, &rewrite2));

        // Global rule still applies to every reason.
        let v3 = version(&[(1, Arc::clone(&a))]);
        let auto3 = CompactionInputs {
            inputs: vec![(1, a)],
            output_level: 1,
            reason: CompactionReason::LevelSize,
        };
        assert!(can_drop_tombstones(&v3, &auto3), "deeper levels empty");
    }

    struct DropAll;
    impl crate::filter::CompactionFilter for DropAll {
        fn name(&self) -> &str {
            "drop-all"
        }
        fn filter(&self, _k: &[u8], _ty: ValueType, _v: &[u8]) -> FilterDecision {
            FilterDecision::Remove
        }
    }

    #[test]
    fn filter_converts_to_tombstone_off_bottom_and_drops_at_bottom() {
        let vfs = MemVfs::new();
        let t = make_table(&vfs, 1, &[("k", 5, ValueType::Value, "v")]);
        let ctx = FilterContext { filter: Some(Arc::new(DropAll)), pins: Vec::new() };

        let mut next = 10u64;
        let off = run_compaction(
            &vfs,
            &[Arc::clone(&t)],
            false,
            u64::MAX,
            &TableConfig::default(),
            &ctx,
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        let entries = read_typed_entries(&vfs, off.files[0].0);
        assert_eq!(entries, vec![("k".to_string(), 5, ValueType::Deletion)]);

        let bottom = run_compaction(&vfs, &[t], true, u64::MAX, &TableConfig::default(), &ctx, || {
            next += 1;
            FileNumber(next)
        })
        .unwrap();
        assert!(bottom.files.is_empty(), "bottommost with no pins drops outright");
    }

    #[test]
    fn filtered_entry_does_not_resurrect_deeper_version() {
        // Regression: `compact_range`-style bottommost rewrites must
        // compose with the filter hook. The filtered newer version is
        // turned into a tombstone off-bottom; when that tombstone later
        // merges with the deeper old version at the bottom, both vanish
        // and the old value must NOT come back.
        let vfs = MemVfs::new();
        let newer = make_table(&vfs, 1, &[("k", 9, ValueType::Value, "new")]);
        let deeper = make_table(&vfs, 2, &[("k", 2, ValueType::Value, "old")]);
        let ctx = FilterContext { filter: Some(Arc::new(DropAll)), pins: Vec::new() };
        let mut next = 10u64;
        let upper = run_compaction(
            &vfs,
            &[newer],
            false,
            u64::MAX,
            &TableConfig::default(),
            &ctx,
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        let tomb_file = Arc::new(FileMetadata::new(
            upper.files[0].0,
            upper.files[0].1.file_size,
            upper.files[0].1.smallest.clone(),
            upper.files[0].1.largest.clone(),
            upper.files[0].1.properties.num_entries,
        ));
        let merged = run_compaction(
            &vfs,
            &[tomb_file, deeper],
            true,
            u64::MAX,
            &TableConfig::default(),
            &FilterContext::default(),
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        assert!(merged.files.is_empty(), "old version must not resurrect");
    }

    #[test]
    fn pins_preserve_shadowed_versions_and_bottommost_tombstones() {
        let vfs = MemVfs::new();
        // Two input files so both versions of `k` reach the merge.
        let old = make_table(&vfs, 1, &[("k", 3, ValueType::Value, "v3")]);
        let tomb = make_table(&vfs, 2, &[("k", 8, ValueType::Deletion, "")]);
        // A pin at seq 5 still reads k=v3; the bottommost tombstone and
        // the shadowed version must both survive.
        let ctx = FilterContext { filter: None, pins: vec![5] };
        let mut next = 10u64;
        let out = run_compaction(
            &vfs,
            &[Arc::clone(&old), Arc::clone(&tomb)],
            true,
            u64::MAX,
            &TableConfig::default(),
            &ctx,
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        let entries = read_typed_entries(&vfs, out.files[0].0);
        assert_eq!(
            entries,
            vec![
                ("k".to_string(), 8, ValueType::Deletion),
                ("k".to_string(), 3, ValueType::Value)
            ]
        );

        // Once the pin is at or above the tombstone, everything drops.
        let ctx = FilterContext { filter: None, pins: vec![9] };
        let out = run_compaction(
            &vfs,
            &[old, tomb],
            true,
            u64::MAX,
            &TableConfig::default(),
            &ctx,
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        assert!(out.files.is_empty());
    }

    #[test]
    fn ttl_filter_expires_entries_during_compaction() {
        use crate::filter::TtlFilter;

        let vfs = MemVfs::new();
        let mut stale = b"old".to_vec();
        stale.extend_from_slice(&10u64.to_le_bytes());
        let mut fresh = b"new".to_vec();
        fresh.extend_from_slice(&95u64.to_le_bytes());
        let mt = MemTable::new(0);
        mt.add(1, ValueType::TtlValue, b"a", &stale);
        mt.add(2, ValueType::TtlValue, b"b", &fresh);
        let fin = crate::flush::build_l0_table(
            &vfs,
            FileNumber(1),
            &[Arc::new(mt)],
            &TableConfig::default(),
            &FilterContext::default(),
        )
        .unwrap()
        .table;
        let t = Arc::new(FileMetadata::new(
            FileNumber(1),
            fin.file_size,
            fin.smallest,
            fin.largest,
            fin.properties.num_entries,
        ));
        let ctx = FilterContext {
            filter: Some(Arc::new(TtlFilter::new(100, 50))),
            pins: Vec::new(),
        };
        let mut next = 10u64;
        let out = run_compaction(&vfs, &[t], true, u64::MAX, &TableConfig::default(), &ctx, || {
            next += 1;
            FileNumber(next)
        })
        .unwrap();
        let entries = read_typed_entries(&vfs, out.files[0].0);
        assert_eq!(entries, vec![("b".to_string(), 2, ValueType::TtlValue)]);
    }

    #[test]
    fn byte_accounting_present() {
        let vfs = MemVfs::new();
        let t = make_table(&vfs, 1, &[("a", 1, ValueType::Value, "v"), ("b", 2, ValueType::Value, "v")]);
        let size = t.size;
        let mut next = 10u64;
        let out = run_compaction(
            &vfs,
            &[t],
            false,
            u64::MAX,
            &TableConfig::default(),
            &FilterContext::default(),
            || {
                next += 1;
                FileNumber(next)
            },
        )
        .unwrap();
        assert_eq!(out.bytes_read, size);
        assert!(out.bytes_written > 0);
    }
}
