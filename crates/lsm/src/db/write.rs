//! The write path: one commit pipeline for both execution modes.
//!
//! A write is encoded once, by its submitting thread: a `WriteBatch` is
//! its own WAL record. It is committed as part of a *group* under one
//! state critical section: stall check, sequence reservation (patched
//! into each record's header), one WAL append (rotating on a transient
//! failure), sink ship, sync, memtable replay, publish, memtable-switch
//! triggers. Real mode forms groups through the leader-based commit
//! queue; a sim write is a group of one whose modeled cost `Sim` charges
//! to the virtual clock.

use std::time::Instant;

use parking_lot::MutexGuard;

use super::open::new_memtable;
use super::{
    wal_file_name, Db, DbInner, DbState, ImmEntry, Mode, WriteOptions, MAX_GROUP_BATCHES,
    STALL_TIMEOUT, WAL_SYNC_RETRIES,
};
use crate::batch::WriteBatch;
use crate::error::{Error, Result};
use crate::options::Options;
use crate::runtime::{QueuedWrite, Runtime};
use crate::stats::{HistogramKind, Ticker};
use crate::wal::WalWriter;
use crate::write_controller::WriteRegime;

impl Db {
    /// Inserts one key/value pair.
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors and [`ErrorKind::Busy`](crate::ErrorKind) if the write
    /// stall cannot clear.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        self.write(batch)
    }

    /// Deletes a key (writes a tombstone).
    ///
    /// # Errors
    ///
    /// Same as [`Db::put`].
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let mut batch = WriteBatch::new();
        batch.delete(key);
        self.write(batch)
    }

    /// Applies a batch atomically with default write options.
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors and [`ErrorKind::Busy`](crate::ErrorKind) if the write
    /// stall cannot clear.
    pub fn write(&self, batch: WriteBatch) -> Result<()> {
        self.write_opt(&WriteOptions::default(), batch)
    }

    /// Applies a batch atomically.
    ///
    /// In real-concurrency mode the batch joins the group-commit queue:
    /// the first queued writer becomes leader, appends every queued
    /// batch to the WAL with one write (and one sync, if any member
    /// requested it), applies them to the memtable, and wakes the
    /// followers. In simulation mode the write is committed inline as a
    /// group of one under the modeled costs.
    ///
    /// # Errors
    ///
    /// Propagates WAL/flush I/O errors and [`ErrorKind::Busy`](crate::ErrorKind) if the write
    /// stall cannot clear.
    pub fn write_opt(&self, write_opts: &WriteOptions, batch: WriteBatch) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let inner = &*self.inner;
        let mut batch = batch;
        // While TTL is on, stamp puts with the write time; the stamp
        // travels through the WAL, group commit, and replication
        // verbatim (replay never re-stamps).
        if inner.opts().ttl_seconds > 0 {
            batch.stamp_puts(inner.now_secs());
        }
        let started = inner.clock.now();
        let sync = write_opts.sync;
        let result = match &inner.mode {
            Mode::Real(rt) => inner.write_queued(rt, batch, sync),
            Mode::Sim(_) => inner.commit_group(&mut [QueuedWrite { id: 0, batch, sync }]),
        };
        inner.stats.record(HistogramKind::DbWrite, inner.clock.now().saturating_since(started));
        result
    }
}

impl DbInner {
    /// Real-concurrency write: joins the group-commit queue. The first
    /// writer to find no active leader drains the queue front and
    /// commits the whole group; everyone else waits on the condvar for
    /// their id to pass the completion watermark.
    fn write_queued(&self, rt: &Runtime, batch: WriteBatch, sync: bool) -> Result<()> {
        // Without concurrent memtable writes, commit strictly one batch
        // at a time (the queue still serializes leaders).
        let max_group = if self.opts().allow_concurrent_memtable_write {
            MAX_GROUP_BATCHES
        } else {
            1
        };
        let mut queue = rt.commit.lock();
        let id = queue.next_id;
        queue.next_id += 1;
        queue.pending.push_back(QueuedWrite { id, batch, sync });
        loop {
            if queue.completed > id {
                return match queue.take_failure(id) {
                    Some(e) => Err(e),
                    None => Ok(()),
                };
            }
            if queue.leader_active {
                rt.commit_cv.wait(&mut queue);
                continue;
            }
            // Leadership is held until the group completes, and ids
            // complete in order: an unfinished writer that finds no
            // leader still has its own batch queued, so the drain below
            // is never empty.
            queue.leader_active = true;
            let take = queue.pending.len().min(max_group);
            let mut group: Vec<QueuedWrite> = queue.pending.drain(..take).collect();
            drop(queue);
            let result = self.commit_group(&mut group);
            queue = rt.commit.lock();
            let last_id = group.last().expect("leader drained at least one").id;
            match &result {
                Ok(()) => {
                    self.stats.tickers().inc(Ticker::GroupCommits);
                    self.stats.tickers().add(Ticker::GroupCommitBatches, group.len() as u64);
                }
                Err(e) => {
                    for write in &group {
                        queue.failures.push((write.id, e.clone()));
                    }
                }
            }
            queue.completed = last_id + 1;
            queue.leader_active = false;
            rt.commit_cv.notify_all();
            // This writer's own batch may not have been in the group it
            // led (group size capped); if so, go around again.
        }
    }

    /// Commits one group: one stall check, one sequence reservation, one
    /// WAL append (and at most one sync), one memtable application, all
    /// under a single state critical section. Durability precedes
    /// visibility: a group whose sync fails is never published.
    pub(super) fn commit_group(&self, group: &mut [QueuedWrite]) -> Result<()> {
        let opts = self.opts();
        let mut state = self.state.lock();
        self.catch_up(&mut state)?;
        let (mut stall_bytes, mut record_bytes, mut payload_bytes) = (0u64, 0u64, 0u64);
        for write in group.iter() {
            stall_bytes += write.batch.approximate_bytes() as u64;
            record_bytes += write.batch.record().len() as u64;
            payload_bytes += write.batch.payload_bytes() as u64;
        }
        self.wait_writable(&mut state, stall_bytes)?;

        // Reserve sequences and stamp them into the records' headers.
        let first_seq = state.last_seq + 1;
        let mut seq = first_seq;
        let mut group_sync = false;
        for write in group.iter_mut() {
            write.batch.set_sequence(seq);
            seq += write.batch.len() as u64;
            group_sync |= write.sync;
        }
        let last_seq = seq - 1;
        state.last_seq = last_seq;

        // One buffered append for the whole group. The append is atomic
        // at the VFS layer, so a *transient* failure leaves the log at a
        // clean frame boundary: rotate to a fresh WAL, fail only this
        // group, and keep the database alive. Anything else is fatal —
        // later appends after a torn record would be silently dropped by
        // recovery.
        if !opts.disable_wal {
            let records: Vec<&[u8]> = group.iter().map(|w| w.batch.record()).collect();
            let wal = state.wal.as_mut().expect("wal enabled");
            match wal.add_records(&records) {
                Ok(_) => {
                    self.stats.tickers().add(Ticker::WalBytes, record_bytes);
                    self.stats.tickers().inc(Ticker::WalWrites);
                    // Under the state lock: ship order is commit order.
                    if let Some(sink) = &self.wal_sink {
                        sink.ship(first_seq, last_seq, group_sync, &records);
                    }
                }
                Err(e) => {
                    let fatal = if e.is_retryable() {
                        self.rotate_wal(&mut state).err()
                    } else {
                        Some(e.clone())
                    };
                    if let Some(fatal) = fatal {
                        self.latch_fatal(&fatal);
                    }
                    return Err(e);
                }
            }
        }

        let synced = self.sync_wal(&mut state, &opts, group_sync)?;
        // Replay the records into the active memtable and make them
        // visible to readers.
        for write in group.iter() {
            write.batch.insert_into(&state.mem);
        }
        self.publish_visible(last_seq);
        self.stats.tickers().add(Ticker::KeysWritten, last_seq + 1 - first_seq);
        self.stats.tickers().add(Ticker::BytesWritten, payload_bytes);
        if let Mode::Sim(sim) = &self.mode {
            let wal_bytes = (!opts.disable_wal).then_some(record_bytes);
            sim.charge_write(&opts, self.stats.tickers(), wal_bytes, payload_bytes, group_sync, synced);
        }

        // Memtable switch triggers.
        let mem_bytes = state.mem.approximate_memory_usage() as u64;
        let wal_total: u64 = state.wal.as_ref().map(|w| w.bytes_written()).unwrap_or(0);
        let db_buffer_full = opts.db_write_buffer_size > 0
            && mem_bytes + state.imm_bytes() > opts.db_write_buffer_size;
        if mem_bytes >= opts.write_buffer_size
            || wal_total >= opts.effective_max_total_wal_size()
            || db_buffer_full
        {
            if let Err(e) = self.switch_memtable(&mut state) {
                self.latch_fatal(&e);
                return Err(e);
            }
            self.work_available(&mut state)?;
        }
        state.writes_since_account += group.len() as u64;
        if state.writes_since_account >= 1024 {
            state.writes_since_account = 0;
            self.account_memory(&state);
        }
        drop(state);
        // Replica durability before the ack, with the engine state lock
        // released: the wait spans a follower network round trip (and,
        // for a dying follower, the sink's full ack timeout), which must
        // not stall readers or background work. The caller releases this
        // group's writers only after commit_group returns, so the ack
        // still happens-after replica durability.
        if group_sync {
            if let Some(sink) = &self.wal_sink {
                sink.wait_durable(last_seq);
            }
        }
        Ok(())
    }

    /// Blocks the committing thread while the write controller reports
    /// pressure: a delayed write waits out its delay once, a stopped one
    /// waits for background completions until the stall clears.
    fn wait_writable(&self, state: &mut MutexGuard<'_, DbState>, bytes: u64) -> Result<()> {
        let mut stall_started = None;
        loop {
            let regime = self.controller.read().regime(&self.pressure(state));
            self.note_regime(regime);
            let delay = match regime {
                WriteRegime::Normal => return Ok(()),
                WriteRegime::Delayed => {
                    self.stats.tickers().inc(Ticker::WriteSlowdowns);
                    Some(self.controller.read().delay_for(bytes))
                }
                WriteRegime::Stopped => {
                    self.stats.tickers().inc(Ticker::WriteStops);
                    None
                }
            };
            let waiting_since = self.clock.now();
            let progress = self.wait_progress(state, delay)?;
            self.stats.tickers().add(
                Ticker::StallNanos,
                self.clock.now().saturating_since(waiting_since).as_nanos(),
            );
            // A stopped writer with nothing in flight that could relieve
            // the stall gives up on throttling rather than deadlock.
            if delay.is_some() || !progress {
                return Ok(());
            }
            if stall_started.get_or_insert_with(Instant::now).elapsed() >= STALL_TIMEOUT {
                return Err(Error::busy("write stall did not clear"));
            }
        }
    }

    /// Syncs the WAL if the group asked for it (or `wal_bytes_per_sync`
    /// is due) and returns how many bytes the sync covered. A failed
    /// sync persisted nothing, so transient errors are re-driven a
    /// bounded number of times; a persistent failure is fatal: the
    /// writes were already acknowledged as appended.
    fn sync_wal(&self, state: &mut DbState, opts: &Options, group_sync: bool) -> Result<Option<u64>> {
        if opts.disable_wal {
            return Ok(None);
        }
        let per_sync = opts.wal_bytes_per_sync;
        let wal = state.wal.as_mut().expect("wal enabled");
        let chunk = wal.bytes_since_sync();
        if !group_sync && (per_sync == 0 || chunk < per_sync) {
            return Ok(None);
        }
        let mut attempts = 0u32;
        while let Err(e) = wal.sync() {
            if !e.is_retryable() || attempts >= WAL_SYNC_RETRIES {
                self.latch_fatal(&e);
                return Err(e);
            }
            attempts += 1;
            self.wal_sync_retries
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(1 << attempts));
        }
        self.stats.tickers().inc(Ticker::WalSyncs);
        Ok(Some(chunk))
    }

    /// Starts a fresh WAL file and makes it the one commits append to.
    fn start_wal(&self, state: &mut DbState) -> Result<u64> {
        let wal_number = state.alloc_file_number().0;
        state.wal = Some(WalWriter::new(self.vfs.create(&wal_file_name(wal_number))?));
        state.wals_on_disk.push(wal_number);
        Ok(wal_number)
    }

    /// Rotates to a fresh WAL file after a transient append failure.
    ///
    /// `mem_wal_number` is left untouched: it names the *oldest* log
    /// holding data for the active memtable, which still includes the
    /// pre-rotation file, so WAL GC keeps both until the next flush.
    fn rotate_wal(&self, state: &mut DbState) -> Result<()> {
        self.start_wal(state)?;
        self.wal_rotations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Retires the active memtable to the immutable list (no-op while it
    /// is empty) and starts a new memtable generation with its own WAL.
    pub(super) fn switch_memtable(&self, state: &mut DbState) -> Result<()> {
        if state.mem.is_empty() {
            return Ok(());
        }
        let opts = self.opts();
        // Readers hold their own `Arc` to the old memtable; swapping the
        // state pointer never blocks them.
        let old = std::mem::replace(&mut state.mem, std::sync::Arc::new(new_memtable(&opts)));
        state.imm.push(ImmEntry {
            mem: old,
            wal_number: state.mem_wal_number,
            flushing: false,
            flush_requested: false,
        });
        if !opts.disable_wal {
            state.mem_wal_number = self.start_wal(state)?;
        }
        self.account_memory(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use parking_lot::Mutex;

    use super::super::testutil::{env, small_opts};
    use super::*;
    use crate::listener::{CompactionJobInfo, EventListener, FlushJobInfo, StallConditionsChanged};

    #[test]
    fn put_get_roundtrip() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"hello", b"world").unwrap();
        assert_eq!(db.get(b"hello").unwrap(), Some(b"world".to_vec()));
        assert_eq!(db.get(b"absent").unwrap(), None);
    }

    #[test]
    fn delete_hides_value() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
    }

    #[test]
    fn overwrite_returns_newest() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        db.put(b"k", b"v1").unwrap();
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
    }

    #[test]
    fn write_batch_is_atomic_in_order() {
        let env = env();
        let db = Db::builder(Options::default()).env(&env).open().unwrap();
        let mut b = WriteBatch::new();
        b.put(b"a", b"1");
        b.delete(b"a");
        b.put(b"b", b"2");
        db.write(b).unwrap();
        assert_eq!(db.get(b"a").unwrap(), None);
        assert_eq!(db.get(b"b").unwrap(), Some(b"2".to_vec()));
    }

    /// The bytes a write leaves in the log are the format: puts, deletes,
    /// batches, keys and values on both sides of the one-byte varint
    /// limit, and stamped entries once TTL is switched on. Length and
    /// CRC32C of the WAL were taken at 91717d9, before `WriteBatch` became
    /// its own record, and hold without change.
    #[test]
    fn wal_bytes_of_a_fixed_script_are_pinned() {
        use crate::vfs::{MemVfs, Vfs};
        let env = env();
        let vfs = Arc::new(MemVfs::new());
        let db = Db::builder(Options::default()).env(&env).vfs(vfs.clone()).open().unwrap();
        let script = |db: &Db, round: u32| {
            db.put(format!("single-{round}").as_bytes(), b"value").unwrap();
            db.delete(format!("single-{}", round + 7).as_bytes()).unwrap();
            let mut b = WriteBatch::new();
            b.put(b"", b"empty key");
            b.put(&[b'k'; 200], &[round as u8; 300]);
            b.delete(b"single-0");
            b.put(b"empty value", b"");
            db.write(b).unwrap();
        };
        script(&db, 0);
        db.set_options(&[("ttl_seconds", "3600")]).unwrap();
        script(&db, 1);
        db.write_opt(&WriteOptions { sync: true }, {
            let mut b = WriteBatch::new();
            b.put(b"last", b"synced");
            b
        })
        .unwrap();

        let mut wal = Vec::new();
        let mut logs: Vec<String> =
            vfs.list("").unwrap().into_iter().filter(|n| n.ends_with(".log")).collect();
        logs.sort();
        for name in logs {
            wal.extend_from_slice(&vfs.read_all(&name).unwrap());
        }
        assert_eq!((wal.len(), crate::util::crc32c(&wal)), (1_331, 29_032_069));
    }

    #[test]
    fn virtual_time_advances_with_work() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let t0 = env.clock().now();
        for i in 0..2_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        let t1 = env.clock().now();
        assert!(t1 > t0, "writes consume virtual time");
        // Per-op average should be in the microseconds range.
        let per_op = (t1 - t0).as_nanos() / 2_000;
        assert!(per_op > 500 && per_op < 200_000, "per-op {per_op}ns");
    }

    #[test]
    fn stalls_appear_under_write_pressure() {
        let env = env();
        let mut opts = small_opts();
        opts.level0_slowdown_writes_trigger = 2;
        opts.level0_stop_writes_trigger = 4;
        opts.max_background_jobs = 1;
        let db = Db::builder(opts).env(&env).open().unwrap();
        for i in 0..20_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        let stats = db.stats();
        assert!(
            stats.tickers.get(Ticker::WriteSlowdowns) + stats.tickers.get(Ticker::WriteStops) > 0,
            "aggressive triggers cause throttling"
        );
        assert!(stats.tickers.get(Ticker::StallNanos) > 0);
    }

    /// Collects every callback for the listener tests.
    #[derive(Default)]
    struct RecordingListener {
        flushes: Mutex<Vec<FlushJobInfo>>,
        compactions: Mutex<Vec<CompactionJobInfo>>,
        stalls: Mutex<Vec<(WriteRegime, WriteRegime)>>,
    }

    impl EventListener for RecordingListener {
        fn on_flush_completed(&self, info: &FlushJobInfo) {
            self.flushes.lock().push(info.clone());
        }
        fn on_compaction_completed(&self, info: &CompactionJobInfo) {
            self.compactions.lock().push(info.clone());
        }
        fn on_stall_conditions_changed(&self, info: &StallConditionsChanged) {
            self.stalls.lock().push((info.previous, info.current));
        }
    }

    #[test]
    fn listener_fires_once_per_stall_transition() {
        let env = env();
        let mut opts = small_opts();
        opts.level0_slowdown_writes_trigger = 2;
        opts.level0_stop_writes_trigger = 4;
        opts.max_background_jobs = 1;
        let listener = Arc::new(RecordingListener::default());
        let db = Db::builder(opts)
            .env(&env)
            .listener(listener.clone())
            .open()
            .unwrap();
        for i in 0..20_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        let stalls = listener.stalls.lock().clone();
        assert!(!stalls.is_empty(), "aggressive triggers produce transitions");
        // Exactly once per transition: no self-transitions, and each
        // event continues where the previous one left off.
        let mut prev = WriteRegime::Normal;
        for (from, to) in &stalls {
            assert_ne!(from, to, "self-transition reported");
            assert_eq!(*from, prev, "transition chain broken");
            prev = *to;
        }
        assert!(
            stalls.iter().any(|(_, to)| *to != WriteRegime::Normal),
            "at least one transition into a throttled regime"
        );
        let flushes = listener.flushes.lock();
        assert!(!flushes.is_empty(), "flushes observed");
        for f in flushes.iter() {
            assert!(f.file_size > 0);
            assert!(f.num_entries > 0);
            assert!(f.memtables_merged > 0);
        }
        for c in listener.compactions.lock().iter() {
            assert!(c.input_files > 0);
            assert!(c.bytes_read > 0);
        }
        assert!(db.stats().tickers.get(Ticker::StallNanos) > 0);
    }
}
