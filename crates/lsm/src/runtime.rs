//! Real-concurrency runtime: group-commit plumbing and the background
//! job pool's shared signalling state.
//!
//! A [`Db`](crate::Db) opened against a wall clock (`Db::builder` with a
//! non-sim `HardwareEnv`) owns a `Runtime` where a simulated one owns a
//! `Sim`: writers coalesce through a leader-based commit queue, and a pool
//! of OS worker threads executes flushes and compactions off the
//! foreground path.
//!
//! The types here are deliberately free of engine logic: the commit
//! pipeline and the job claim/run/install steps live in `db/` where the
//! engine state is, shared by both modes. This module owns the queueing,
//! signalling, and lifecycle (worker spawn/join) mechanics.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::batch::WriteBatch;
use crate::error::Error;

/// One write on its way through a commit: the id the queue gave it (0
/// for a simulated write, which is never queued), the batch, and whether
/// its writer asked for a durable WAL sync.
pub(crate) struct QueuedWrite {
    pub id: u64,
    pub batch: WriteBatch,
    pub sync: bool,
}

/// FIFO queue of writes awaiting commit, drained in groups by a leader.
///
/// Ids are assigned contiguously at enqueue time and the leader always
/// drains from the front, so `completed` is a watermark: every id below
/// it has either committed or failed (failed ids park their error in
/// `failures` until the owner collects it).
pub(crate) struct CommitQueue {
    /// Writes not yet taken by a leader, in id order.
    pub pending: VecDeque<QueuedWrite>,
    /// Id the next enqueued write receives.
    pub next_id: u64,
    /// All ids `< completed` are finished.
    pub completed: u64,
    /// Whether some thread is currently committing a group.
    pub leader_active: bool,
    /// Errors for completed-but-failed ids, awaiting pickup.
    pub failures: Vec<(u64, Error)>,
}

impl CommitQueue {
    fn new() -> Self {
        CommitQueue {
            pending: VecDeque::new(),
            next_id: 0,
            completed: 0,
            leader_active: false,
            failures: Vec::new(),
        }
    }

    /// Removes and returns the parked error for `id`, if it failed.
    pub fn take_failure(&mut self, id: u64) -> Option<Error> {
        let at = self.failures.iter().position(|(fid, _)| *fid == id)?;
        Some(self.failures.swap_remove(at).1)
    }
}

/// Signalling shared between the worker pool and the rest of the engine.
///
/// Workers hold only this (plus a `Weak` handle to the engine), so the
/// pool never keeps the database alive on its own.
pub(crate) struct BgShared {
    /// Monotonic work-arrival counter; bumped by [`kick`](Self::kick).
    work: Mutex<u64>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl BgShared {
    fn new() -> Self {
        BgShared {
            work: Mutex::new(0),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Announces that background work may be available.
    pub fn kick(&self) {
        *self.work.lock() += 1;
        self.cv.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until the work counter moves past `last_seen`, shutdown is
    /// requested, or `timeout` elapses. Returns the current counter.
    pub fn wait_for_work(&self, last_seen: u64, timeout: Duration) -> u64 {
        let mut work = self.work.lock();
        if *work == last_seen && !self.is_shutdown() {
            self.cv.wait_for(&mut work, timeout);
        }
        *work
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        // Touch the mutex so a worker between its shutdown check and its
        // wait cannot miss the wake.
        let _work = self.work.lock();
        self.cv.notify_all();
    }
}

/// A counting permit budget for background jobs that several databases
/// can be given ([`DbBuilder::job_budget`](crate::db::DbBuilder)), so
/// that together they run `max_background_jobs` jobs at once instead of
/// that many each. Each database keeps the capacity at its own effective
/// `max_background_jobs` (at open and on every retune); the holders run
/// one configuration, so they agree.
///
/// A worker takes one permit per job and returns it when the job has
/// installed, so no holder keeps the budget longer than its running
/// jobs. A holder that found the budget empty is woken by the next
/// release instead of waiting out its poll interval.
///
/// The budget is tracked as `capacity` minus `in_use` (rather than one
/// free-permit counter) so live retuning can resize it: shrinking a
/// free-counter below the permits currently out would underflow, whereas
/// a capacity store simply stops new acquires until enough jobs finish.
#[derive(Debug, Default)]
pub(crate) struct JobBudget {
    capacity: AtomicU64,
    in_use: AtomicU64,
    /// Set when an acquire failed; the next release after a finished job
    /// wakes the pools. Waking only on real starvation matters: an
    /// unconditional wake-on-release livelocks — every woken worker that
    /// finds no job would wake the other pools in turn.
    starved: AtomicBool,
    /// Worker pools of the databases holding this budget. `Weak`, so the
    /// budget never keeps a closed database's pool alive.
    pools: Mutex<Vec<Weak<BgShared>>>,
}

impl JobBudget {
    /// Registers a holder's worker pool for wake-ups.
    pub fn attach(&self, pool: &Arc<BgShared>) {
        self.pools.lock().push(Arc::downgrade(pool));
    }

    /// Takes one permit; `false` when the budget is exhausted.
    pub fn try_acquire(&self) -> bool {
        let cap = self.capacity.load(Ordering::Acquire);
        let got = self
            .in_use
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok();
        if !got {
            self.starved.store(true, Ordering::Release);
        }
        got
    }

    /// Returns one permit taken by a worker of pool `from`. Only a
    /// release that follows a *completed job* (`ran_job`) may wake starved
    /// holders: a permit freed by an empty claim was never scarce, and
    /// waking on it lets idle workers wake each other in a storm — every
    /// woken worker finds no job, releases, and re-wakes. The other pools
    /// are woken in attach order starting after `from`, so the one woken
    /// first (which tends to win the permit) is not always the same.
    pub fn release(&self, ran_job: bool, from: &BgShared) {
        self.in_use.fetch_sub(1, Ordering::AcqRel);
        if !ran_job || !self.starved.swap(false, Ordering::AcqRel) {
            return;
        }
        let pools = self.pools.lock();
        let me = pools.iter().position(|p| std::ptr::eq(p.as_ptr(), from)).unwrap_or(0);
        for off in 1..pools.len() {
            if let Some(pool) = pools[(me + off) % pools.len()].upgrade() {
                pool.kick();
            }
        }
    }

    /// Resizes the budget (live retuning of `max_background_jobs`). Jobs
    /// already running are never cancelled; a shrink just blocks new
    /// acquires until `in_use` drains below the new capacity, and a
    /// raise wakes the pools: claims that failed a moment ago can succeed.
    pub fn set_capacity(&self, permits: usize) {
        if self.capacity.swap(permits as u64, Ordering::AcqRel) < permits as u64 {
            for pool in self.pools.lock().iter().filter_map(Weak::upgrade) {
                pool.kick();
            }
        }
    }
}

/// Per-database concurrency state for wall-clock (real) execution mode.
pub(crate) struct Runtime {
    /// Group-commit queue; writers park here and a leader drains it.
    pub commit: Mutex<CommitQueue>,
    /// Wakes queued writers when a group completes.
    pub commit_cv: Condvar,
    /// Wakes foreground threads waiting on background progress. Paired
    /// with the engine's state mutex; all waits use timeouts, so
    /// notifying without that mutex held is safe.
    pub done_cv: Condvar,
    /// Worker-pool signalling.
    pub bg: Arc<BgShared>,
    /// Sticky fatal error (WAL append or background job failure). Once
    /// set, writes and maintenance calls fail with a clone of it rather
    /// than risk acknowledging writes that recovery would drop.
    fatal: Mutex<Option<Error>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Runtime {
    /// Backstop: `Db::drop` normally joined the pool already; this covers
    /// panics that skipped it.
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

impl Runtime {
    /// Creates the runtime of one database.
    pub fn new() -> Self {
        Runtime {
            commit: Mutex::new(CommitQueue::new()),
            commit_cv: Condvar::new(),
            done_cv: Condvar::new(),
            bg: Arc::new(BgShared::new()),
            fatal: Mutex::new(None),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// Returns the sticky fatal error, if any.
    pub fn fatal_error(&self) -> Option<Error> {
        self.fatal.lock().clone()
    }

    /// Records a fatal error (first one wins).
    pub fn set_fatal(&self, err: Error) {
        let mut slot = self.fatal.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// Registers a spawned worker handle for join-at-drop.
    pub fn register_worker(&self, handle: JoinHandle<()>) {
        self.workers.lock().push(handle);
    }

    /// Number of workers spawned so far (live retuning grows the pool
    /// when `max_background_jobs` is raised).
    pub fn worker_count(&self) -> usize {
        self.workers.lock().len()
    }

    /// Signals shutdown and joins all workers (skipping the current
    /// thread: the last `Arc` holding the database may be dropped *by* a
    /// worker, which must not join itself).
    pub fn shutdown_and_join(&self) {
        self.bg.request_shutdown();
        let handles = std::mem::take(&mut *self.workers.lock());
        let me = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}
