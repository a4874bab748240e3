//! Maintenance operations driven from a foreground thread: manual flush
//! and compaction, online checkpoints, live option changes, and the
//! replication follower's sequence jump.

use std::sync::Arc;

use super::open::{manifest_file_name, write_current, write_options_file};
use super::{Db, DbState};
use crate::compaction::{pick_compaction, CompactionInputs};
use crate::error::Result;
use crate::flush::sst_file_name;
use crate::types::SequenceNumber;
use crate::version::{FileMetadata, Version, VersionEdit};
use crate::vfs::{NamespaceVfs, Vfs};
use crate::wal::WalWriter;
use crate::write_controller::WriteController;

impl Db {
    /// Flushes the active memtable and waits until it and every memtable
    /// already waiting have reached L0. The request overrides
    /// `min_write_buffer_number_to_merge`, as RocksDB's manual flush does.
    ///
    /// # Errors
    ///
    /// Propagates flush I/O errors.
    pub fn flush(&self) -> Result<()> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        inner.switch_memtable(&mut state)?;
        for entry in &mut state.imm {
            entry.flush_requested = true;
        }
        inner.drive_until(&mut state, |s| !s.imm.iter().any(|e| e.flush_requested))
    }

    /// Runs compactions until the tree is quiescent (no picks pending).
    ///
    /// # Errors
    ///
    /// Propagates compaction I/O errors.
    pub fn compact_all(&self) -> Result<()> {
        self.flush()?;
        let inner = &*self.inner;
        inner.drive_until(&mut inner.state.lock(), |s| {
            let opts = inner.opts();
            s.jobs_idle()
                && s.imm.is_empty()
                && (opts.disable_auto_compactions || pick_compaction(&opts, &s.version).is_none())
        })
    }

    /// Compacts every file overlapping the user-key range `[start, end]`
    /// down the tree until the range lives on a single level, flushing
    /// first. Useful for space reclamation and read-path benchmarks.
    ///
    /// Manual compactions run on the calling thread, like RocksDB's
    /// `CompactRange`; automatic jobs keep their workers.
    ///
    /// # Errors
    ///
    /// Propagates flush/compaction I/O errors.
    pub fn compact_range(&self, start: &[u8], end: &[u8]) -> Result<()> {
        self.flush()?;
        let inner = &*self.inner;
        // After the push-down loop drains, one final in-place rewrite of
        // the range's bottommost files drops tombstones that already sat
        // at the bottom (RocksDB's bottommost-files pass). A single pass
        // guarantees termination.
        let mut rewrite_done = false;
        loop {
            let mut state = inner.state.lock();
            inner.drive_until(&mut state, |s| s.jobs_idle())?;
            let c = match pick_range_compaction(&state.version, start, end) {
                Some(c) => c,
                None if !rewrite_done => {
                    rewrite_done = true;
                    match pick_bottommost_rewrite(&state.version, start, end) {
                        Some(c) => c,
                        None => return Ok(()),
                    }
                }
                None => return Ok(()),
            };
            let job = inner.claim_merge(&mut state, c);
            drop(state);
            inner.execute(job)?;
        }
    }

    /// Takes an online checkpoint: a point-in-time, openable copy of the
    /// database under `dir/` on the same VFS, built from hard links so no
    /// SST bytes are duplicated. The source keeps serving reads and
    /// writes throughout; writes acknowledged before this call are
    /// guaranteed to be in the checkpoint (the memtable is flushed
    /// first), concurrent writes may or may not be.
    ///
    /// The checkpoint is published by writing `dir/CURRENT` last with the
    /// usual tmp + sync + rename discipline: a crash mid-checkpoint
    /// leaves a directory without `CURRENT`, which is incomplete by
    /// definition and never mistaken for a valid database copy. Restoring
    /// is just opening the checkpoint, e.g. with a
    /// [`NamespaceVfs`](crate::NamespaceVfs) prefixed `"{dir}/"`.
    ///
    /// # Errors
    ///
    /// Propagates flush and I/O errors; `dir` must not already hold a
    /// checkpoint (links refuse to overwrite).
    pub fn checkpoint(&self, dir: &str) -> Result<()> {
        let vfs = Arc::clone(&self.inner.vfs);
        self.checkpoint_via(vfs, "", &format!("{dir}/"))
    }

    /// Checkpoint body shared with `ShardedDb::checkpoint`: links every live
    /// SST from `src_prefix` to `dst_prefix` on `base` and writes a fresh
    /// manifest + OPTIONS + CURRENT under `dst_prefix`.
    pub(crate) fn checkpoint_via(
        &self,
        base: Arc<dyn Vfs>,
        src_prefix: &str,
        dst_prefix: &str,
    ) -> Result<()> {
        // Everything acknowledged so far lands in SSTs.
        self.flush()?;
        let inner = &*self.inner;
        // Capture the version and sequence together under the lock. The
        // `Arc<Version>` pins every referenced SST: `sweep_obsolete` only
        // deletes a file once its metadata Arc has no other holders, and
        // this version holds one for each file until the links are made.
        let (version, last_seq) = {
            let state = inner.state.lock();
            (Arc::clone(&state.version), state.last_seq)
        };

        let mut max_file = 0u64;
        for level in 0..version.num_levels() {
            for f in version.files(level) {
                max_file = max_file.max(f.number.0);
                let name = sst_file_name(f.number);
                base.link(
                    &format!("{src_prefix}{name}"),
                    &format!("{dst_prefix}{name}"),
                )?;
            }
        }

        // A fresh manifest holding one full snapshot of the level
        // structure, exactly like recovery writes after replay.
        let target = NamespaceVfs::new(Arc::clone(&base), dst_prefix.to_string());
        let next_file = max_file + 1;
        let mut snapshot = VersionEdit {
            log_number: Some(next_file),
            next_file_number: Some(next_file + 1),
            last_sequence: Some(last_seq),
            ..VersionEdit::default()
        };
        for level in 0..version.num_levels() {
            for f in version.files(level) {
                snapshot.added_files.push((level, Arc::clone(f)));
            }
        }
        let mut manifest = WalWriter::new(target.create(&manifest_file_name(1))?);
        manifest.add_record(&snapshot.encode())?;
        manifest.sync()?;
        drop(manifest);
        write_options_file(&target, &inner.opts())?;
        // Publication point: CURRENT appears only over a synced manifest.
        write_current(&target, &manifest_file_name(1))
    }

    /// Blocks (advancing virtual time) until all background work is done.
    ///
    /// # Errors
    ///
    /// Propagates background job errors.
    pub fn wait_background_idle(&self) -> Result<()> {
        let inner = &*self.inner;
        inner.drive_until(&mut inner.state.lock(), |s| {
            s.jobs_idle() && !inner.has_claimable_work(s)
        })
    }

    /// Jumps the sequence counter forward to `seq` (no-op when already
    /// past it). A replication follower calls this after a snapshot
    /// bootstrap: the snapshot's entries were applied with locally
    /// assigned sequences, and from here on the follower must assign the
    /// same sequence numbers the leader did, so the two stay in lockstep.
    ///
    /// The jump is persisted through a synced manifest edit before
    /// returning: recovery derives `last_seq` from the manifest and the
    /// WAL records, and the bootstrap's WAL records carry the smaller
    /// locally assigned sequences — without the edit, a follower
    /// restarting right after its bootstrap would come back up at the
    /// local count instead of the leader position.
    ///
    /// Must not race user writes — the caller is the single apply thread.
    ///
    /// # Errors
    ///
    /// Propagates manifest append/sync failures; the in-memory counter
    /// is not advanced when the edit could not be persisted.
    pub fn advance_sequence_to(&self, seq: SequenceNumber) -> Result<()> {
        let inner = &*self.inner;
        let mut state = inner.state.lock();
        if seq <= state.last_seq {
            return Ok(());
        }
        let edit = VersionEdit { last_sequence: Some(seq), ..VersionEdit::default() };
        let record = edit.encode();
        let DbState { manifest, .. } = &mut *state;
        inner.log_manifest(manifest, &record)?;
        state.last_seq = seq;
        inner.publish_visible(seq);
        Ok(())
    }

    /// Applies `(name, value)` changes to the running database,
    /// RocksDB `SetOptions`-style, without reopen.
    ///
    /// The batch is atomic: every name is resolved through the option
    /// registry, every entry must be `mutable_online`, and the combined
    /// result must pass cross-field validation *before* anything becomes
    /// visible. On success the new config is persisted to the `OPTIONS`
    /// file (tmp + sync + rename, so a crash leaves old-or-new, never a
    /// torn file), the in-memory options snapshot is swapped, and the
    /// write controller is rebuilt — the flush scheduler, compaction
    /// picker, and stall logic pick the new values up on their next
    /// decision.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::InvalidArgument`](crate::ErrorKind) naming the
    /// offending option for unknown names, immutable options, parse
    /// failures, and validation failures; I/O errors if persisting the
    /// options file fails. On any error the running configuration is
    /// unchanged.
    pub fn set_options<K: AsRef<str>, V: AsRef<str>>(&self, changes: &[(K, V)]) -> Result<()> {
        if changes.is_empty() {
            return Ok(());
        }
        let inner = &*self.inner;
        // Hold the write lock across persist + swap so concurrent
        // retunes serialize and the file never goes backwards.
        let mut guard = inner.opts.write();
        let next = guard.with_online_changes(changes)?;
        if next == **guard {
            return Ok(());
        }
        // Persist before swapping: a crash between the two leaves the new
        // config on disk and the old one running — the same state as "set
        // applied, then restart with load_options_file" — never a config
        // that was acknowledged but lost.
        write_options_file(inner.vfs.as_ref(), &next)?;
        let next = Arc::new(next);
        *guard = Arc::clone(&next);
        *inner.controller.write() = WriteController::from_options(&next);
        drop(guard);

        // Real mode: grow the worker pool if the job budget went up, and
        // wake it — lowered triggers may make work runnable right now.
        self.grow_worker_pool()
    }
}

/// Finds the shallowest level with unclaimed files in `[start, end]`
/// worth pushing down one level (the selection behind `compact_range`).
fn pick_range_compaction(
    version: &Version,
    start: &[u8],
    end: &[u8],
) -> Option<CompactionInputs> {
    let n = version.num_levels();
    for level in 0..n - 1 {
        let overlapping = version.overlapping_files(level, start, end);
        let unclaimed: Vec<_> = overlapping
            .into_iter()
            .filter(|f| !f.is_being_compacted())
            .collect();
        if unclaimed.is_empty() {
            continue;
        }
        // Already fully pushed down? Only compact if a deeper level
        // holds overlapping data or this is not the last populated
        // level in range.
        let deeper_has_data =
            (level + 1..n).any(|l| !version.overlapping_files(l, start, end).is_empty());
        if !deeper_has_data && level > 0 && version.files(0).is_empty() {
            continue;
        }
        let output_level = level + 1;
        let bottom = version.overlapping_files(output_level, start, end);
        if bottom.iter().any(|f| f.is_being_compacted()) {
            continue;
        }
        let mut inputs: Vec<(usize, Arc<FileMetadata>)> =
            unclaimed.into_iter().map(|f| (level, f)).collect();
        inputs.extend(bottom.into_iter().map(|f| (output_level, f)));
        return Some(CompactionInputs {
            inputs,
            output_level,
            bottommost: false,
        });
    }
    None
}

/// Picks the deepest level holding files in `[start, end]` for an
/// in-place rewrite, so `compact_range` drops tombstones that already
/// sit at the bottom of the range (which the push-down loop never
/// touches again). Returns `None` when the range is empty or its files
/// are claimed by another compaction.
fn pick_bottommost_rewrite(
    version: &Version,
    start: &[u8],
    end: &[u8],
) -> Option<CompactionInputs> {
    for level in (0..version.num_levels()).rev() {
        let files = version.overlapping_files(level, start, end);
        if files.is_empty() {
            continue;
        }
        if files.iter().any(|f| f.is_being_compacted()) {
            return None;
        }
        return Some(CompactionInputs {
            inputs: files.into_iter().map(|f| (level, f)).collect(),
            output_level: level,
            bottommost: true,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use hw_sim::{DeviceModel, HardwareEnv};

    use super::*;
    use crate::options::Options;
    use crate::stats::Ticker;

    #[test]
    fn manual_flush_claims_fewer_memtables_than_min_merge() {
        let env = HardwareEnv::builder().build_sim();
        let opts = Options {
            min_write_buffer_number_to_merge: 2,
            max_write_buffer_number: 4,
            ..Options::default()
        };
        let db = Db::builder(opts).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.immutable_memtables, 0);
        assert_eq!(stats.tickers.get(Ticker::FlushJobs), 1);
        assert_eq!(stats.levels[0].0, 1, "the lone memtable reached L0");
    }

    #[test]
    fn compact_range_pushes_data_down() {
        let env = HardwareEnv::builder()
            .cores(4)
            .memory_gib(8)
            .device(DeviceModel::nvme_ssd())
            .build_sim();
        let opts = Options {
            write_buffer_size: 32 << 10,
            target_file_size_base: 32 << 10,
            max_bytes_for_level_base: 128 << 10,
            disable_auto_compactions: true, // everything stays in L0
            ..Options::default()
        };
        let db = Db::builder(opts).env(&env).open().unwrap();
        for i in 0..3_000 {
            db.put(format!("key-{i:05}").as_bytes(), &[1u8; 50]).unwrap();
        }
        db.flush().unwrap();
        let before = db.stats();
        assert!(before.levels[0].0 > 1, "L0 has files: {:?}", before.levels);

        db.compact_range(b"", b"key-99999").unwrap();
        let after = db.stats();
        assert_eq!(after.levels[0].0, 0, "L0 drained: {:?}", after.levels);
        let deeper: usize = after.levels.iter().skip(1).map(|(n, _)| n).sum();
        assert!(deeper > 0, "data moved down: {:?}", after.levels);
        for i in (0..3_000).step_by(101) {
            assert_eq!(
                db.get(format!("key-{i:05}").as_bytes()).unwrap(),
                Some(vec![1u8; 50])
            );
        }
    }

    #[test]
    fn compact_range_with_no_overlap_is_noop() {
        let env = HardwareEnv::builder().build_sim();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"a", b"1").unwrap();
        db.compact_range(b"x", b"z").unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"1".to_vec()));
    }

    /// Tombstones already at the bottom of the compacted range must still
    /// be dropped, even when unrelated data elsewhere in the keyspace
    /// sits deeper. The push-down loop alone leaves them stranded: once
    /// the range's files are at its last populated level, nothing merges
    /// them again, and the global "deeper levels empty" rule is defeated
    /// by the unrelated deep data.
    #[test]
    fn compact_range_drops_bottommost_tombstones_despite_unrelated_deep_data() {
        const N: u64 = 200;
        let env = HardwareEnv::builder()
            .cores(4)
            .memory_gib(8)
            .device(DeviceModel::nvme_ssd())
            .build_sim();
        let opts = Options {
            disable_auto_compactions: true,
            ..Options::default()
        };
        let db = Db::builder(opts).env(&env).open().unwrap();

        // Park unrelated data at the deepest level: with a file in L0,
        // the range picker keeps pushing, so one compact_range call walks
        // the z-file level by level down to the bottom.
        for i in 0..10u64 {
            db.put(format!("z-{i}").as_bytes(), b"deep").unwrap();
        }
        db.flush().unwrap();
        db.put(b"m", b"pin").unwrap();
        db.flush().unwrap();
        db.compact_range(b"z", b"z~").unwrap();
        let levels = db.stats().levels;
        let last = levels.len() - 1;
        assert!(levels[last].0 > 0, "z-data at the bottom: {levels:?}");
        db.compact_range(b"m", b"n").unwrap(); // clear the L0 pin

        // Value phase: a-keys come to rest in the upper levels.
        for i in 0..N {
            db.put(format!("a-{i:03}").as_bytes(), b"v").unwrap();
        }
        db.flush().unwrap();
        db.compact_range(b"a", b"b").unwrap();

        // Tombstone phase.
        for i in 0..N {
            db.delete(format!("a-{i:03}").as_bytes()).unwrap();
        }
        db.flush().unwrap();

        let dropped0 = db.stats().tickers.get(Ticker::CompactionKeyDropped);
        db.compact_range(b"a", b"b").unwrap();
        let delta = db.stats().tickers.get(Ticker::CompactionKeyDropped) - dropped0;

        // The merge drops the N shadowed values; the bottommost rewrite
        // must also drop the N tombstones themselves.
        assert_eq!(
            delta,
            2 * N,
            "tombstones stranded at the range's bottom level were not dropped"
        );
        for i in (0..N).step_by(37) {
            assert_eq!(db.get(format!("a-{i:03}").as_bytes()).unwrap(), None);
        }
        assert_eq!(db.get(b"z-3").unwrap(), Some(b"deep".to_vec()));
        assert_eq!(db.get(b"m").unwrap(), Some(b"pin".to_vec()));
    }
}
