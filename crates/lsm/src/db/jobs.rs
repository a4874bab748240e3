//! Background jobs: one claim → run → install lifecycle for flushes,
//! merging compactions and FIFO drops, shared by both execution modes.
//!
//! - **claim** ([`DbInner::claim`]) selects work under the state lock and
//!   marks its inputs (flushing flags / `being_compacted`) so nothing
//!   else double-claims them;
//! - **run** ([`DbInner::run`]) builds the output tables and records the
//!   job's tickers, level I/O and latency histogram;
//! - **install** ([`DbInner::install`]) logs the version edit, swaps the
//!   version in, retires the inputs by identity and garbage-collects
//!   WALs, under the state lock.
//!
//! The execution mode enters through two primitives only:
//! [`DbInner::execute`] decides *when* a run job is installed and
//! [`DbInner::wait_progress`] is how a foreground thread waits for
//! background work. In sim mode the foreground thread is also the
//! scheduler ([`DbInner::catch_up`], [`DbInner::work_available`]); in
//! real mode pool workers claim for themselves ([`background_worker`]).

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Duration;

use hw_sim::{SimDuration, SimTime};
use parking_lot::MutexGuard;

use super::sim::Sim;
use super::{
    wal_file_name, DbInner, DbState, Mode, MANIFEST_RETRIES, MAX_WRITE_DELAY, WAIT_SLICE,
};
use crate::compaction::{
    can_drop_tombstones, pending_compaction_bytes, pick_compaction, run_compaction,
    CompactionInputs, CompactionJobOutput, CompactionPick,
};
use crate::error::{Error, Result};
use crate::filter::FilterContext;
use crate::flush::{build_l0_table, sst_file_name};
use crate::listener::{CompactionJobInfo, FlushJobInfo};
use crate::memtable::MemTable;
use crate::runtime::BgShared;
use crate::sstable::table::{FinishedTable, TableConfig};
use crate::stats::{HistogramKind, Ticker};
use crate::types::FileNumber;
use crate::version::{FileMetadata, VersionEdit};
use crate::wal::WalWriter;

/// A merging compaction with its inputs claimed and its output
/// parameters (and filter + snapshot pins) frozen at claim time.
pub(super) struct MergeJob {
    pub(super) inputs: Vec<(usize, Arc<FileMetadata>)>,
    output_level: usize,
    bottommost: bool,
    target_file_size: u64,
    config: TableConfig,
    ctx: FilterContext,
}

/// A background job claimed under the state lock.
pub(super) enum Job {
    Flush {
        file_number: FileNumber,
        mems: Vec<Arc<MemTable>>,
    },
    Merge(Box<MergeJob>),
    /// FIFO compaction: delete these L0 files outright.
    Drop { files: Vec<Arc<FileMetadata>> },
}

/// A job whose build finished, waiting for its install.
pub(super) enum Done {
    Flush {
        file_number: FileNumber,
        mems: Vec<Arc<MemTable>>,
        table: FinishedTable,
    },
    Merge {
        job: Box<MergeJob>,
        output: CompactionJobOutput,
    },
    Drop { files: Vec<Arc<FileMetadata>> },
}

/// What listeners are told once a job is installed.
pub(super) enum Completed {
    Flush(FlushJobInfo),
    Compaction(CompactionJobInfo),
    FifoDrop,
}

fn file_metadata(number: FileNumber, table: &FinishedTable) -> Arc<FileMetadata> {
    Arc::new(FileMetadata::new(
        number,
        table.file_size,
        table.smallest.clone(),
        table.largest.clone(),
        table.properties.num_entries,
    ))
}

/// Main loop of a real-mode background pool worker.
///
/// Holds only a `Weak` database handle plus the shared signal state, so
/// the pool never keeps the database alive; the handle is re-upgraded
/// per cycle and dropped before idling.
pub(super) fn background_worker(db: Weak<DbInner>, bg: Arc<BgShared>) {
    let mut seen = 0u64;
    while !bg.is_shutdown() {
        let Some(inner) = db.upgrade() else { return };
        let jobs_run = inner.run_background_cycle();
        drop(inner);
        if jobs_run == 0 {
            seen = bg.wait_for_work(seen, Duration::from_millis(50));
        }
    }
}

// ---------------------------------------------------------------------------
// Claim
// ---------------------------------------------------------------------------

/// The next piece of claimable work.
enum Pick {
    /// Indices into `DbState::imm` of the memtables to flush together.
    Flush(Vec<usize>),
    Compaction(CompactionPick),
}

impl DbInner {
    /// Selects the next claimable job without claiming it: a flush
    /// first (it relieves write stalls), then the compaction picker's
    /// choice, each within its `max_background_*` budget.
    fn pick_job(&self, state: &DbState) -> Option<Pick> {
        let opts = self.opts();
        if state.running_flushes < opts.effective_max_flushes() {
            let min_merge = opts.min_write_buffer_number_to_merge.max(1) as usize;
            let waiting: Vec<usize> = state
                .imm
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.flushing)
                .map(|(i, _)| i)
                .collect();
            // Flush when enough memtables accumulated, when the write path
            // is blocked on memtable count (can't wait for more), or when
            // a manual flush is waiting on one of them.
            let forced = state.imm.len() + 1 > opts.max_write_buffer_number as usize
                || waiting.iter().any(|&i| state.imm[i].flush_requested);
            if !waiting.is_empty() && (waiting.len() >= min_merge || forced) {
                return Some(Pick::Flush(waiting.into_iter().take(min_merge).collect()));
            }
        }
        if !opts.disable_auto_compactions
            && state.running_compactions < opts.effective_max_compactions()
        {
            return pick_compaction(&opts, &state.version).map(Pick::Compaction);
        }
        None
    }

    /// Whether a job could be claimed right now (used by idle waits).
    pub(super) fn has_claimable_work(&self, state: &DbState) -> bool {
        self.pick_job(state).is_some()
    }

    /// Claims the next job under the state lock, marking its inputs so
    /// concurrent claims cannot take them again.
    fn claim(&self, state: &mut DbState) -> Option<Job> {
        Some(match self.pick_job(state)? {
            Pick::Flush(take) => {
                let mems = take.iter().map(|i| Arc::clone(&state.imm[*i].mem)).collect();
                for i in take {
                    state.imm[i].flushing = true;
                }
                state.running_flushes += 1;
                Job::Flush { file_number: state.alloc_file_number(), mems }
            }
            Pick::Compaction(CompactionPick::Drop { files, .. }) => {
                for f in &files {
                    f.set_being_compacted(true);
                }
                state.running_compactions += 1;
                Job::Drop { files }
            }
            Pick::Compaction(CompactionPick::Merge(c)) => self.claim_merge(state, c),
        })
    }

    /// Claims a merge over `c` (picked automatically or by
    /// `compact_range`): marks its inputs and freezes its output
    /// parameters.
    pub(super) fn claim_merge(&self, state: &mut DbState, c: CompactionInputs) -> Job {
        for (_, f) in &c.inputs {
            f.set_being_compacted(true);
        }
        state.running_compactions += 1;
        let opts = self.opts();
        let output_level = c.output_level;
        let bottommost = can_drop_tombstones(&state.version, &c);
        let target_file_size = opts.target_file_size_base.max(64 << 10)
            * (opts.target_file_size_multiplier.max(1) as u64)
                .pow(output_level.saturating_sub(1) as u32);
        let config = if bottommost {
            self.bottom_table_config()
        } else {
            self.table_config()
        };
        Job::Merge(Box::new(MergeJob {
            inputs: c.inputs,
            output_level,
            bottommost,
            target_file_size,
            config,
            ctx: self.filter_context(),
        }))
    }

    /// Returns a job whose build failed to the claimable pool.
    fn unclaim(&self, state: &mut DbState, job: &Job) {
        match job {
            Job::Flush { file_number, mems } => {
                for entry in state.imm.iter_mut() {
                    if mems.iter().any(|m| Arc::ptr_eq(m, &entry.mem)) {
                        entry.flushing = false;
                    }
                }
                state.running_flushes -= 1;
                let _ = self.vfs.delete(&sst_file_name(*file_number));
            }
            Job::Merge(job) => {
                for (_, f) in &job.inputs {
                    f.set_being_compacted(false);
                }
                state.running_compactions -= 1;
            }
            Job::Drop { files } => {
                for f in files {
                    f.set_being_compacted(false);
                }
                state.running_compactions -= 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

impl DbInner {
    /// Builds a claimed job's output (no engine lock needed; `alloc`
    /// hands out output file numbers) and records its tickers, level I/O
    /// and latency histogram. Returns the finished job together with the
    /// instant it finished on the mode's clock; on failure the job comes
    /// back so the caller can [`unclaim`](Self::unclaim) it.
    fn run(
        &self,
        job: Job,
        started: SimTime,
        alloc: impl FnMut() -> FileNumber,
    ) -> std::result::Result<(Done, SimTime), (Job, Error)> {
        let t = self.stats.tickers();
        let (done, histogram) = match job {
            Job::Flush { file_number, mems } => {
                let ctx = self.filter_context();
                let built =
                    build_l0_table(self.vfs.as_ref(), file_number, &mems, &self.table_config(), &ctx);
                match built {
                    Ok(out) => {
                        t.inc(Ticker::FlushJobs);
                        t.add(Ticker::FlushBytesWritten, out.table.file_size);
                        self.stats.add_level_io(0, 0, out.table.file_size, out.entries_dropped);
                        let done = Done::Flush { file_number, mems, table: out.table };
                        (done, Some(HistogramKind::FlushTime))
                    }
                    Err(e) => return Err((Job::Flush { file_number, mems }, e)),
                }
            }
            Job::Merge(job) => {
                let files: Vec<Arc<FileMetadata>> =
                    job.inputs.iter().map(|(_, f)| Arc::clone(f)).collect();
                let merged = run_compaction(
                    self.vfs.as_ref(),
                    &files,
                    job.bottommost,
                    job.target_file_size,
                    &job.config,
                    &job.ctx,
                    alloc,
                );
                match merged {
                    Ok(output) => {
                        let keys_dropped = output.entries_read - output.entries_written;
                        t.inc(Ticker::CompactionJobs);
                        t.add(Ticker::CompactionBytesRead, output.bytes_read);
                        t.add(Ticker::CompactionBytesWritten, output.bytes_written);
                        t.add(Ticker::CompactionKeyDropped, keys_dropped);
                        self.stats.add_level_io(
                            job.output_level,
                            output.bytes_read,
                            output.bytes_written,
                            keys_dropped,
                        );
                        (Done::Merge { job, output }, Some(HistogramKind::CompactionTime))
                    }
                    Err(e) => return Err((Job::Merge(job), e)),
                }
            }
            Job::Drop { files } => (Done::Drop { files }, None),
        };
        let finished = match &self.mode {
            Mode::Sim(sim) => sim.job_finished(started, &done, &self.opts()),
            Mode::Real(_) => self.clock.now(),
        };
        if let Some(kind) = histogram {
            self.stats.record(kind, finished.saturating_since(started));
        }
        Ok((done, finished))
    }
}

// ---------------------------------------------------------------------------
// Install
// ---------------------------------------------------------------------------

impl DbInner {
    /// Installs a finished job under the state lock and returns what to
    /// tell the listeners (the caller decides whether that happens with
    /// the lock held).
    ///
    /// Install-phase failures (after bounded in-place retries) are not
    /// recoverable by re-running the job — a flush's memtables are
    /// already detached — so they are escalated as non-retryable.
    fn install(&self, state: &mut DbState, done: Done) -> Result<Completed> {
        let completed = match done {
            Done::Flush { file_number, mems, table } => {
                Completed::Flush(self.install_flush(state, file_number, &mems, &table)?)
            }
            Done::Merge { job, output } => {
                Completed::Compaction(self.install_merge(state, *job, output)?)
            }
            Done::Drop { files } => {
                let mut edit = VersionEdit::default();
                edit.deleted_files.extend(files.iter().map(|f| (0, f.number)));
                self.apply_edit(state, &edit)?;
                self.retire(state, files);
                Completed::FifoDrop
            }
        };
        self.sweep_obsolete(state);
        Ok(completed)
    }

    fn install_flush(
        &self,
        state: &mut DbState,
        file_number: FileNumber,
        mems: &[Arc<MemTable>],
        table: &FinishedTable,
    ) -> Result<FlushJobInfo> {
        // Remove exactly the memtables this job consumed, identified by
        // pointer: with several flushes in flight, completions arrive in
        // any order.
        state
            .imm
            .retain(|e| !mems.iter().any(|m| Arc::ptr_eq(m, &e.mem)));
        // WALs older than every remaining memtable can go.
        let min_wal = state
            .imm
            .iter()
            .map(|e| e.wal_number)
            .chain(std::iter::once(state.mem_wal_number))
            .min()
            .unwrap_or(state.mem_wal_number);
        let mut edit = VersionEdit {
            log_number: Some(min_wal),
            next_file_number: Some(state.next_file),
            last_sequence: Some(state.last_seq),
            ..VersionEdit::default()
        };
        edit.added_files.push((0, file_metadata(file_number, table)));
        self.apply_edit(state, &edit)?;
        state.wals_on_disk.retain(|n| {
            if *n < min_wal {
                let _ = self.vfs.delete(&wal_file_name(*n));
                false
            } else {
                true
            }
        });
        state.running_flushes -= 1;
        self.account_memory(state);
        Ok(FlushJobInfo {
            file_number,
            file_size: table.file_size,
            num_entries: table.properties.num_entries,
            memtables_merged: mems.len(),
        })
    }

    fn install_merge(
        &self,
        state: &mut DbState,
        job: MergeJob,
        output: CompactionJobOutput,
    ) -> Result<CompactionJobInfo> {
        let mut edit = VersionEdit {
            next_file_number: Some(state.next_file),
            last_sequence: Some(state.last_seq),
            ..VersionEdit::default()
        };
        edit.deleted_files
            .extend(job.inputs.iter().map(|(level, f)| (*level, f.number)));
        for (number, table) in &output.files {
            edit.added_files
                .push((job.output_level, file_metadata(*number, table)));
        }
        self.apply_edit(state, &edit)?;
        let input_files = job.inputs.len();
        self.retire(state, job.inputs.into_iter().map(|(_, f)| f));
        Ok(CompactionJobInfo {
            output_level: job.output_level,
            input_files,
            output_files: output.files.len(),
            bytes_read: output.bytes_read,
            bytes_written: output.bytes_written,
            keys_dropped: output.entries_read - output.entries_written,
        })
    }

    /// Makes `edit` durable in the manifest, then swaps the new version
    /// in and refreshes the compaction debt the write controller sees.
    fn apply_edit(&self, state: &mut DbState, edit: &VersionEdit) -> Result<()> {
        self.log_manifest(&mut state.manifest, &edit.encode())
            .map_err(|e| e.retryable(false))?;
        state.version = Arc::new(state.version.apply(edit)?);
        state.pending_compaction_bytes = pending_compaction_bytes(&self.opts(), &state.version);
        Ok(())
    }

    /// Releases a finished compaction's claim on its inputs and queues
    /// them for physical deletion.
    fn retire(&self, state: &mut DbState, files: impl IntoIterator<Item = Arc<FileMetadata>>) {
        for f in files {
            f.set_being_compacted(false);
            state.obsolete_files.push(f);
        }
        state.running_compactions -= 1;
    }

    /// Physically deletes obsolete SSTs whose only remaining reference
    /// is the obsolete list itself (no version or in-flight reader can
    /// still open them).
    fn sweep_obsolete(&self, state: &mut DbState) {
        let pending = std::mem::take(&mut state.obsolete_files);
        for f in pending {
            if Arc::strong_count(&f) == 1 {
                let _ = self.vfs.delete(&sst_file_name(f.number));
                self.release_table_readers(self.table_cache.evict(f.number));
                self.stats.tickers().inc(Ticker::FilesDeleted);
            } else {
                state.obsolete_files.push(f);
            }
        }
    }

    /// Appends one record to the manifest and syncs it, re-driving each
    /// step a bounded number of times on transient (retryable) errors.
    ///
    /// The append is atomic at the VFS layer (one buffered write per
    /// frame), so retrying it cannot duplicate an edit; a failed sync
    /// persisted nothing, so re-syncing is always safe.
    pub(super) fn log_manifest(&self, manifest: &mut WalWriter, record: &[u8]) -> Result<()> {
        self.retry_manifest_io(|| manifest.add_record(record).map(|_| ()))?;
        self.retry_manifest_io(|| manifest.sync())
    }

    fn retry_manifest_io(&self, mut op: impl FnMut() -> Result<()>) -> Result<()> {
        let mut attempts = 0u32;
        loop {
            match op() {
                Err(e) if e.is_retryable() && attempts < MANIFEST_RETRIES => {
                    attempts += 1;
                    self.manifest_resyncs.fetch_add(1, Ordering::Relaxed);
                }
                result => return result,
            }
        }
    }

    fn notify(&self, completed: &Completed) {
        for l in &self.listeners {
            match completed {
                Completed::Flush(info) => l.on_flush_completed(info),
                Completed::Compaction(info) => l.on_compaction_completed(info),
                Completed::FifoDrop => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sim mode: the foreground thread schedules, the install queue installs
// ---------------------------------------------------------------------------

impl DbInner {
    /// Claims everything claimable at `now` and starts it.
    fn schedule(&self, sim: &Sim, state: &mut DbState, now: SimTime) -> Result<()> {
        while let Some(job) = self.claim(state) {
            self.start(sim, state, job, now)?;
        }
        Ok(())
    }

    /// Runs `job` eagerly and queues its install for the virtual instant
    /// the cost model says it finishes.
    fn start(&self, sim: &Sim, state: &mut DbState, job: Job, now: SimTime) -> Result<()> {
        let ran = self.run(job, now, || state.alloc_file_number());
        match ran {
            Ok((done, at)) => {
                sim.queue_install(at, done);
                Ok(())
            }
            Err((job, e)) => {
                self.unclaim(state, &job);
                Err(e)
            }
        }
    }

    /// Installs every queued job whose virtual completion instant has
    /// passed, then schedules whatever that made claimable. A no-op in
    /// real mode, which queues nothing.
    pub(super) fn pump(&self, state: &mut DbState) -> Result<()> {
        let Mode::Sim(sim) = &self.mode else { return Ok(()) };
        while let Some((at, done)) = sim.pop_due() {
            let completed = self.install(state, done)?;
            sim.charge_manifest_edit(at, &completed);
            self.notify(&completed);
            self.schedule(sim, state, at)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Real mode: pool workers claim for themselves and install right away
// ---------------------------------------------------------------------------

impl DbInner {
    /// Claims and runs background jobs until none are claimable.
    /// Returns how many jobs ran.
    fn run_background_cycle(&self) -> usize {
        let Mode::Real(rt) = &self.mode else { unreachable!("pool workers run in real mode only") };
        let mut jobs_run = 0;
        let mut consecutive_failures = 0u32;
        while !rt.bg.is_shutdown() {
            // Once the database is latched fatal, re-claiming work would
            // spin on the same failing job; leave everything parked.
            if rt.fatal_error().is_some() {
                break;
            }
            // A budget shared with other databases: take a permit before
            // claiming and hand it back once the job lands.
            let budget = self.job_budget.as_deref();
            if budget.is_some_and(|b| !b.try_acquire()) {
                break;
            }
            let job = self.claim(&mut self.state.lock());
            let Some(job) = job else {
                // Quiet release: nothing ran, so waking the other holders
                // for this permit would only restart their empty claims.
                if let Some(b) = budget {
                    b.release(false, &rt.bg);
                }
                break;
            };
            let result = self.run_and_install(job);
            if let Some(b) = budget {
                b.release(true, &rt.bg);
            }
            match result {
                Ok(()) => consecutive_failures = 0,
                // A retryable build-phase failure already unclaimed its
                // inputs (flushing flags / `being_compacted`), so the same
                // work is claimable again: park briefly with exponential
                // backoff and re-claim instead of latching the fatal state.
                Err(e) if e.is_retryable() && !rt.bg.is_shutdown() => {
                    consecutive_failures += 1;
                    self.bg_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(
                        1u64 << consecutive_failures.min(6),
                    ));
                }
                Err(e) => rt.set_fatal(e),
            }
            jobs_run += 1;
            // Completion may unblock stalled writers and unlock further
            // claims (all waits use timeouts, so notifying without the
            // state mutex held cannot lose a wakeup permanently).
            rt.done_cv.notify_all();
            rt.bg.kick();
        }
        jobs_run
    }

    /// Builds `job` off-lock (output file numbers are allocated through
    /// short re-locks) and installs the result under a short critical
    /// section as soon as the build returns.
    fn run_and_install(&self, job: Job) -> Result<()> {
        let started = self.clock.now();
        let ran = self.run(job, started, || self.state.lock().alloc_file_number());
        let mut state = self.state.lock();
        let completed = match ran {
            Ok((done, _)) => self.install(&mut state, done)?,
            Err((job, e)) => {
                self.unclaim(&mut state, &job);
                return Err(e);
            }
        };
        drop(state);
        self.notify(&completed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Mode primitives
// ---------------------------------------------------------------------------

impl DbInner {
    /// Runs a claimed job on the calling thread (which must not hold the
    /// state lock). The mode decides when its result is installed: sim
    /// queues the install for the job's modeled completion instant, real
    /// installs as soon as the build returns.
    pub(super) fn execute(&self, job: Job) -> Result<()> {
        match &self.mode {
            Mode::Real(_) => self.run_and_install(job),
            Mode::Sim(sim) => self.start(sim, &mut self.state.lock(), job, self.clock.now()),
        }
    }

    /// Blocks the calling foreground thread until background work may
    /// have progressed — for `limit` when given, else until the next job
    /// lands. Sim advances the virtual clock (to the next queued install
    /// when unbounded) and installs what came due; real wakes the pool
    /// and sleeps on `done_cv`. Returns `false` when nothing is in
    /// flight that waiting could help with.
    pub(super) fn wait_progress(
        &self,
        state: &mut MutexGuard<'_, DbState>,
        limit: Option<SimDuration>,
    ) -> Result<bool> {
        let sim = match &self.mode {
            Mode::Sim(sim) => sim,
            Mode::Real(rt) => {
                rt.bg.kick();
                let slice = limit.map_or(WAIT_SLICE, |d| {
                    Duration::from_nanos(d.as_nanos()).min(MAX_WRITE_DELAY)
                });
                rt.done_cv.wait_for(state, slice);
                return Ok(true);
            }
        };
        let now = self.clock.now();
        let until = match limit {
            Some(d) => now + d,
            None => {
                // Schedule-then-wait: make sure any claimable work is in
                // flight *before* deciding there is nothing to wait for.
                self.schedule(sim, state, now)?;
                match sim.next_install_at() {
                    Some(at) => at,
                    None => return Ok(false),
                }
            }
        };
        self.clock.advance_to(until);
        self.pump(state)?;
        Ok(true)
    }

    /// Called under the state lock at the start of a foreground operation
    /// that depends on background state. Sim (where the foreground thread
    /// is the scheduler) installs what came due and starts whatever is
    /// claimable; real surfaces the sticky fatal error.
    pub(super) fn catch_up(&self, state: &mut DbState) -> Result<()> {
        match &self.mode {
            Mode::Real(rt) => rt.fatal_error().map_or(Ok(()), Err),
            Mode::Sim(sim) => {
                self.pump(state)?;
                self.schedule(sim, state, self.clock.now())
            }
        }
    }

    /// Announces newly claimable work (a memtable was just retired)
    /// without installing anything: sim starts it now, real wakes the
    /// pool.
    pub(super) fn work_available(&self, state: &mut DbState) -> Result<()> {
        match &self.mode {
            Mode::Real(rt) => {
                rt.bg.kick();
                Ok(())
            }
            Mode::Sim(sim) => self.schedule(sim, state, self.clock.now()),
        }
    }

    /// Drives background work from a foreground thread until `done`
    /// holds, or until nothing in flight could still make it hold.
    pub(super) fn drive_until(
        &self,
        state: &mut MutexGuard<'_, DbState>,
        mut done: impl FnMut(&DbState) -> bool,
    ) -> Result<()> {
        loop {
            self.catch_up(state)?;
            if done(state) || !self.wait_progress(state, None)? {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use hw_sim::{DeviceModel, HardwareEnv};

    use super::super::testutil::{env, small_opts};
    use super::super::{Db, ReadOptions};
    use super::*;

    #[test]
    fn hdd_is_slower_than_nvme_for_same_work() {
        let run = |model: DeviceModel| {
            let env = HardwareEnv::builder().cores(2).memory_gib(4).device(model).build_sim();
            let db = Db::builder(small_opts()).env(&env).open().unwrap();
            for i in 0..3_000 {
                db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
            }
            db.flush().unwrap();
            for i in 0..300 {
                let _ = db.get(format!("key-{:06}", i * 7).as_bytes()).unwrap();
            }
            env.clock().now().as_nanos()
        };
        let nvme = run(DeviceModel::nvme_ssd());
        let hdd = run(DeviceModel::sata_hdd());
        assert!(hdd > nvme, "hdd {hdd} should exceed nvme {nvme}");
    }

    #[test]
    fn disable_auto_compactions_holds_l0() {
        let env = env();
        let mut opts = small_opts();
        opts.disable_auto_compactions = true;
        let db = Db::builder(opts).env(&env).open().unwrap();
        for i in 0..5_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 50]).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.tickers.get(Ticker::CompactionJobs), 0);
        assert!(stats.levels[0].0 > 0);
    }

    #[test]
    fn pinned_snapshot_survives_flush_and_compaction() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        db.put(b"k", b"old").unwrap();
        let pin = db.pin_snapshot();
        db.put(b"k", b"new").unwrap();
        db.delete(b"gone").unwrap();
        db.flush().unwrap();
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();

        let at_pin = ReadOptions { snapshot_seq: Some(pin.sequence()), ..ReadOptions::default() };
        assert_eq!(db.get_opt(&at_pin, b"k").unwrap(), Some(b"old".to_vec()));
        assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));

        // Dropping the pin lets the next rewrite reclaim the version.
        drop(pin);
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn ttl_filter_never_drops_entry_visible_to_pin() {
        let env = env();
        let mut opts = small_opts();
        opts.ttl_seconds = 10;
        let db = Db::builder(opts).env(&env).open().unwrap();
        db.put(b"k", b"v").unwrap();
        let pin = db.pin_snapshot();
        env.clock().advance(hw_sim::SimDuration::from_secs_f64(100.0));
        db.flush().unwrap();
        db.compact_range(b"", b"\xff").unwrap();
        db.wait_background_idle().unwrap();

        // Unpinned readers see the entry as expired (time-based expiry),
        // but the bytes must still exist for the pinned snapshot: turn
        // TTL off and the pinned read resolves the preserved version.
        db.set_options(&[("ttl_seconds", "0")]).unwrap();
        let at_pin = ReadOptions { snapshot_seq: Some(pin.sequence()), ..ReadOptions::default() };
        assert_eq!(
            db.get_opt(&at_pin, b"k").unwrap(),
            Some(b"v".to_vec()),
            "pinned entry survived the filter"
        );
        drop(pin);
    }
}
