//! LSM level metadata: versions, version edits, and the manifest format.
//!
//! A [`Version`] is an immutable snapshot of which SST files live on
//! which level. State changes (flushes, compactions) are expressed as
//! [`VersionEdit`]s, applied copy-on-write and logged to the manifest so
//! the tree can be recovered after a crash.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::types::{FileNumber, InternalKey, SequenceNumber};
use crate::util::{put_fixed64, put_varint32, Reader};

/// Metadata for one SST file.
#[derive(Debug)]
pub struct FileMetadata {
    /// File number (names the file on disk).
    pub number: FileNumber,
    /// File size in bytes.
    pub size: u64,
    /// Smallest internal key.
    pub smallest: InternalKey,
    /// Largest internal key.
    pub largest: InternalKey,
    /// Entries stored.
    pub num_entries: u64,
    /// Set while a compaction has claimed this file.
    being_compacted: AtomicBool,
}

impl FileMetadata {
    /// Creates file metadata.
    pub fn new(
        number: FileNumber,
        size: u64,
        smallest: InternalKey,
        largest: InternalKey,
        num_entries: u64,
    ) -> Self {
        FileMetadata {
            number,
            size,
            smallest,
            largest,
            num_entries,
            being_compacted: AtomicBool::new(false),
        }
    }

    /// Whether a compaction currently claims this file.
    pub fn is_being_compacted(&self) -> bool {
        self.being_compacted.load(Ordering::Acquire)
    }

    /// Claims or releases the file for compaction.
    pub fn set_being_compacted(&self, v: bool) {
        self.being_compacted.store(v, Ordering::Release);
    }

    /// Whether the file's user-key range overlaps `[lo, hi]`.
    pub fn overlaps_user_range(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.largest.user_key() >= lo && self.smallest.user_key() <= hi
    }
}

/// An immutable snapshot of the level structure.
#[derive(Debug, Clone)]
pub struct Version {
    levels: Vec<Vec<Arc<FileMetadata>>>,
}

impl Version {
    /// Creates an empty version with `num_levels` levels.
    pub fn empty(num_levels: usize) -> Self {
        Version {
            levels: vec![Vec::new(); num_levels.max(2)],
        }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Files at `level`. L0 is ordered newest-first; deeper levels are
    /// ordered by smallest key and non-overlapping.
    pub fn files(&self, level: usize) -> &[Arc<FileMetadata>] {
        &self.levels[level]
    }

    /// Total bytes at `level`.
    pub fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|f| f.size).sum()
    }

    /// Total bytes across all levels.
    pub fn total_bytes(&self) -> u64 {
        (0..self.levels.len()).map(|l| self.level_bytes(l)).sum()
    }

    /// Total file count.
    pub fn total_files(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Files at `level` overlapping the user-key range `[lo, hi]`.
    pub fn overlapping_files(&self, level: usize, lo: &[u8], hi: &[u8]) -> Vec<Arc<FileMetadata>> {
        self.levels[level]
            .iter()
            .filter(|f| f.overlaps_user_range(lo, hi))
            .cloned()
            .collect()
    }

    /// Applies an edit copy-on-write, producing the next version.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) if the edit references an unknown
    /// level.
    pub fn apply(&self, edit: &VersionEdit) -> Result<Version> {
        let mut levels = self.levels.clone();
        for (level, number) in &edit.deleted_files {
            let lvl = levels
                .get_mut(*level)
                .ok_or_else(|| Error::corruption(format!("edit deletes from level {level}")))?;
            lvl.retain(|f| f.number != *number);
        }
        for (level, file) in &edit.added_files {
            let lvl = levels
                .get_mut(*level)
                .ok_or_else(|| Error::corruption(format!("edit adds to level {level}")))?;
            lvl.push(Arc::clone(file));
        }
        // Restore ordering invariants.
        for (level, lvl) in levels.iter_mut().enumerate() {
            if level == 0 {
                lvl.sort_by_key(|f| std::cmp::Reverse(f.number)); // newest first
            } else {
                lvl.sort_by(|a, b| {
                    crate::types::internal_key_cmp(a.smallest.encoded(), b.smallest.encoded())
                });
            }
        }
        Ok(Version { levels })
    }

    /// Aggregates one row of the `Compaction Stats` table per level.
    ///
    /// `io` is the per-level job accounting from
    /// [`Statistics::level_io`](crate::stats::Statistics::level_io),
    /// `targets` the byte targets from
    /// [`level_targets`](crate::level_targets), and `l0_trigger` the L0
    /// file-count compaction trigger (scores L0 the way RocksDB does:
    /// files over trigger rather than bytes over target).
    pub fn compaction_stats(
        &self,
        io: &[crate::stats::LevelIo],
        targets: &[u64],
        l0_trigger: usize,
    ) -> Vec<CompactionLevelStats> {
        (0..self.num_levels())
            .map(|level| {
                let files = self.levels[level].len();
                let bytes = self.level_bytes(level);
                let score = if level == 0 {
                    files as f64 / l0_trigger.max(1) as f64
                } else {
                    match targets.get(level) {
                        Some(&t) if t > 0 && t != u64::MAX => bytes as f64 / t as f64,
                        _ => 0.0,
                    }
                };
                let lio = io.get(level).copied().unwrap_or_default();
                // Per-level write amplification: output bytes per input
                // byte. Flushes (L0) read nothing, so their amp is 1.
                let write_amp = if lio.bytes_read > 0 {
                    lio.bytes_written as f64 / lio.bytes_read as f64
                } else if lio.bytes_written > 0 {
                    1.0
                } else {
                    0.0
                };
                CompactionLevelStats {
                    level,
                    files,
                    bytes,
                    score,
                    bytes_read: lio.bytes_read,
                    bytes_written: lio.bytes_written,
                    jobs: lio.jobs,
                    keys_dropped: lio.keys_dropped,
                    write_amp,
                }
            })
            .collect()
    }

    /// All live file numbers (for garbage collection).
    pub fn live_files(&self) -> Vec<FileNumber> {
        let mut out: Vec<FileNumber> = self
            .levels
            .iter()
            .flat_map(|l| l.iter().map(|f| f.number))
            .collect();
        out.sort();
        out
    }
}

/// One level's row of the `Compaction Stats [default]` table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompactionLevelStats {
    /// Level index.
    pub level: usize,
    /// Files currently at this level.
    pub files: usize,
    /// Bytes currently at this level.
    pub bytes: u64,
    /// Compaction pressure score (≥ 1.0 means compaction is due).
    pub score: f64,
    /// Cumulative bytes read by jobs writing into this level.
    pub bytes_read: u64,
    /// Cumulative bytes written into this level.
    pub bytes_written: u64,
    /// Jobs completed with this level as their output.
    pub jobs: u64,
    /// Keys dropped by those jobs.
    pub keys_dropped: u64,
    /// Output bytes per input byte for those jobs.
    pub write_amp: f64,
}

/// A logged state transition: files added/removed plus counter updates.
#[derive(Debug, Clone, Default)]
pub struct VersionEdit {
    /// New WAL number after this edit (memtable switch).
    pub log_number: Option<u64>,
    /// Next file number counter.
    pub next_file_number: Option<u64>,
    /// Last sequence number persisted.
    pub last_sequence: Option<SequenceNumber>,
    /// Files added, as `(level, metadata)`.
    pub added_files: Vec<(usize, Arc<FileMetadata>)>,
    /// Files removed, as `(level, number)`.
    pub deleted_files: Vec<(usize, FileNumber)>,
}

const TAG_LOG_NUMBER: u8 = 1;
const TAG_NEXT_FILE: u8 = 2;
const TAG_LAST_SEQ: u8 = 3;
const TAG_ADD_FILE: u8 = 4;
const TAG_DELETE_FILE: u8 = 5;

impl VersionEdit {
    /// Serializes for the manifest log.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        if let Some(v) = self.log_number {
            out.push(TAG_LOG_NUMBER);
            put_fixed64(&mut out, v);
        }
        if let Some(v) = self.next_file_number {
            out.push(TAG_NEXT_FILE);
            put_fixed64(&mut out, v);
        }
        if let Some(v) = self.last_sequence {
            out.push(TAG_LAST_SEQ);
            put_fixed64(&mut out, v);
        }
        for (level, file) in &self.added_files {
            out.push(TAG_ADD_FILE);
            put_varint32(&mut out, *level as u32);
            put_fixed64(&mut out, file.number.0);
            put_fixed64(&mut out, file.size);
            put_fixed64(&mut out, file.num_entries);
            put_varint32(&mut out, file.smallest.encoded().len() as u32);
            out.extend_from_slice(file.smallest.encoded());
            put_varint32(&mut out, file.largest.encoded().len() as u32);
            out.extend_from_slice(file.largest.encoded());
        }
        for (level, number) in &self.deleted_files {
            out.push(TAG_DELETE_FILE);
            put_varint32(&mut out, *level as u32);
            put_fixed64(&mut out, number.0);
        }
        out
    }

    /// Parses a manifest record.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::Corruption`](crate::ErrorKind) on malformed input.
    pub fn decode(data: &[u8]) -> Result<VersionEdit> {
        let mut edit = VersionEdit::default();
        let mut r = Reader::new(data, "edit");
        while !r.is_empty() {
            match r.u8()? {
                TAG_LOG_NUMBER => edit.log_number = Some(r.fixed64()?),
                TAG_NEXT_FILE => edit.next_file_number = Some(r.fixed64()?),
                TAG_LAST_SEQ => edit.last_sequence = Some(r.fixed64()?),
                TAG_ADD_FILE => {
                    let level = r.varint32()? as usize;
                    let (number, size, entries) = (r.fixed64()?, r.fixed64()?, r.fixed64()?);
                    let (smallest, largest) = (internal_key(&mut r)?, internal_key(&mut r)?);
                    let file = FileMetadata::new(FileNumber(number), size, smallest, largest, entries);
                    edit.added_files.push((level, Arc::new(file)));
                }
                TAG_DELETE_FILE => {
                    let level = r.varint32()? as usize;
                    edit.deleted_files.push((level, FileNumber(r.fixed64()?)));
                }
                other => return Err(Error::corruption(format!("edit: unknown tag {other}"))),
            }
        }
        Ok(edit)
    }
}

/// A length-prefixed internal key of an added file.
fn internal_key(r: &mut Reader<'_>) -> Result<InternalKey> {
    let len = r.varint32()? as usize;
    InternalKey::decode(r.take(len)?).ok_or_else(|| Error::corruption("edit: internal key shorter than its tag"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValueType;

    fn meta(number: u64, lo: &str, hi: &str) -> Arc<FileMetadata> {
        Arc::new(FileMetadata::new(
            FileNumber(number),
            1000,
            InternalKey::new(lo.as_bytes(), 1, ValueType::Value),
            InternalKey::new(hi.as_bytes(), 1, ValueType::Value),
            10,
        ))
    }

    #[test]
    fn apply_adds_and_deletes() {
        let v0 = Version::empty(7);
        let mut edit = VersionEdit::default();
        edit.added_files.push((0, meta(1, "a", "m")));
        edit.added_files.push((0, meta(2, "n", "z")));
        let v1 = v0.apply(&edit).unwrap();
        assert_eq!(v1.files(0).len(), 2);
        assert_eq!(v1.files(0)[0].number, FileNumber(2), "L0 newest first");

        let mut edit2 = VersionEdit::default();
        edit2.deleted_files.push((0, FileNumber(1)));
        edit2.added_files.push((1, meta(3, "a", "m")));
        let v2 = v1.apply(&edit2).unwrap();
        assert_eq!(v2.files(0).len(), 1);
        assert_eq!(v2.files(1).len(), 1);
        // v1 untouched (copy-on-write).
        assert_eq!(v1.files(0).len(), 2);
    }

    #[test]
    fn deeper_levels_sorted_by_smallest() {
        let v0 = Version::empty(7);
        let mut edit = VersionEdit::default();
        edit.added_files.push((1, meta(5, "m", "r")));
        edit.added_files.push((1, meta(6, "a", "c")));
        let v1 = v0.apply(&edit).unwrap();
        assert_eq!(v1.files(1)[0].number, FileNumber(6));
    }

    #[test]
    fn overlap_queries() {
        let v0 = Version::empty(7);
        let mut edit = VersionEdit::default();
        edit.added_files.push((1, meta(1, "b", "d")));
        edit.added_files.push((1, meta(2, "f", "h")));
        let v = v0.apply(&edit).unwrap();
        assert_eq!(v.overlapping_files(1, b"c", b"g").len(), 2);
        assert_eq!(v.overlapping_files(1, b"e", b"e").len(), 0);
        assert_eq!(v.overlapping_files(1, b"a", b"b").len(), 1);
    }

    #[test]
    fn edit_roundtrip() {
        let mut edit = VersionEdit {
            log_number: Some(9),
            next_file_number: Some(42),
            last_sequence: Some(1_000_000),
            ..VersionEdit::default()
        };
        edit.added_files.push((2, meta(7, "alpha", "omega")));
        edit.deleted_files.push((1, FileNumber(3)));
        let decoded = VersionEdit::decode(&edit.encode()).unwrap();
        assert_eq!(decoded.log_number, Some(9));
        assert_eq!(decoded.next_file_number, Some(42));
        assert_eq!(decoded.last_sequence, Some(1_000_000));
        assert_eq!(decoded.added_files.len(), 1);
        let (level, f) = &decoded.added_files[0];
        assert_eq!((*level, f.number), (2, FileNumber(7)));
        assert_eq!(f.smallest.user_key(), b"alpha");
        assert_eq!(decoded.deleted_files, vec![(1, FileNumber(3))]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(VersionEdit::decode(&[99]).is_err());
        assert!(VersionEdit::decode(&[TAG_LOG_NUMBER, 1, 2]).is_err());
    }

    #[test]
    fn live_files_and_sizes() {
        let v0 = Version::empty(7);
        let mut edit = VersionEdit::default();
        edit.added_files.push((0, meta(2, "a", "b")));
        edit.added_files.push((3, meta(1, "c", "d")));
        let v = v0.apply(&edit).unwrap();
        assert_eq!(v.live_files(), vec![FileNumber(1), FileNumber(2)]);
        assert_eq!(v.total_bytes(), 2000);
        assert_eq!(v.total_files(), 2);
        assert_eq!(v.level_bytes(3), 1000);
    }

    #[test]
    fn being_compacted_flag() {
        let f = meta(1, "a", "b");
        assert!(!f.is_being_compacted());
        f.set_being_compacted(true);
        assert!(f.is_being_compacted());
    }
}
