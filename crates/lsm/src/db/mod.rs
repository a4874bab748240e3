//! The database: ties memtables, WAL, levels, caches, background jobs,
//! and the hardware model together.
//!
//! # Execution model
//!
//! One engine, two execution modes ([`Mode`]), selected once at
//! [`Db::builder`] from the environment's clock: simulation (virtual
//! clock, one thread, modelled hardware — `sim`) and real concurrency
//! (wall clock, OS threads — `crate::runtime`). Both share the commit
//! pipeline (`write`; real mode coalesces concurrent writers into groups,
//! a sim write is a group of one) and the background-job lifecycle
//! (`jobs`, which documents the two primitives the mode enters through:
//! when a job's result is installed and how a foreground thread waits for
//! background progress). Reads traverse immutable snapshots (`Arc`ed
//! memtables and versions) without holding the state mutex for the
//! lookup in either mode.

mod jobs;
mod maintenance;
mod open;
mod read;
mod report;
mod scan;
mod sim;
mod write;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hw_sim::{Clock, SimTime};
use parking_lot::{Mutex, RwLock};

use crate::cache::{BlockCache, CacheStats, TableCache};
use crate::filter::{FilterContext, TtlFilter};
use crate::listener::{EventListener, StallConditionsChanged};
use crate::memtable::MemTable;
use crate::options::Options;
use crate::runtime::{JobBudget, Runtime};
use crate::sstable::table::{TableConfig, TableReader};
use crate::stats::{Statistics, Ticker, TickerSnapshot};
use crate::types::{FileNumber, SequenceNumber};
use crate::version::{FileMetadata, Version};
use crate::vfs::Vfs;
use crate::wal::WalWriter;
use crate::write_controller::{WriteController, WritePressure, WriteRegime};

pub use open::DbBuilder;

/// Encodes a [`WriteRegime`] for the atomic transition tracker.
fn regime_code(r: WriteRegime) -> u8 {
    match r {
        WriteRegime::Normal => 0,
        WriteRegime::Delayed => 1,
        WriteRegime::Stopped => 2,
    }
}

fn regime_from_code(code: u8) -> WriteRegime {
    match code {
        1 => WriteRegime::Delayed,
        2 => WriteRegime::Stopped,
        _ => WriteRegime::Normal,
    }
}

fn wal_file_name(number: u64) -> String {
    format!("{number:06}.log")
}

struct ImmEntry {
    mem: Arc<MemTable>,
    wal_number: u64,
    flushing: bool,
    /// A manual [`Db::flush`] is waiting on this memtable: claim it even
    /// below `min_write_buffer_number_to_merge`.
    flush_requested: bool,
}

struct DbState {
    mem: Arc<MemTable>,
    mem_wal_number: u64,
    imm: Vec<ImmEntry>,
    version: Arc<Version>,
    wal: Option<WalWriter>,
    wals_on_disk: Vec<u64>,
    manifest: WalWriter,
    next_file: u64,
    last_seq: SequenceNumber,
    running_flushes: usize,
    running_compactions: usize,
    pending_compaction_bytes: u64,
    writes_since_account: u64,
    /// Input SSTs replaced by a compaction but possibly still referenced
    /// by readers holding an older `Arc<Version>`. Physically deleted
    /// once their only remaining reference is this list.
    obsolete_files: Vec<Arc<FileMetadata>>,
}

impl DbState {
    fn new(
        mem: MemTable,
        wal_number: u64,
        version: Version,
        wal: Option<WalWriter>,
        manifest: WalWriter,
        next_file: u64,
        last_seq: SequenceNumber,
    ) -> DbState {
        DbState {
            mem: Arc::new(mem),
            mem_wal_number: wal_number,
            imm: Vec::new(),
            version: Arc::new(version),
            wal,
            wals_on_disk: vec![wal_number],
            manifest,
            next_file,
            last_seq,
            running_flushes: 0,
            running_compactions: 0,
            pending_compaction_bytes: 0,
            writes_since_account: 0,
            obsolete_files: Vec::new(),
        }
    }

    fn imm_bytes(&self) -> u64 {
        self.imm
            .iter()
            .map(|e| e.mem.approximate_memory_usage() as u64)
            .sum()
    }

    /// No flush or compaction is in flight.
    fn jobs_idle(&self) -> bool {
        self.running_flushes == 0 && self.running_compactions == 0
    }

    fn alloc_file_number(&mut self) -> FileNumber {
        let n = self.next_file;
        self.next_file += 1;
        FileNumber(n)
    }
}

/// Aggregate statistics exposed for prompts, reports, and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbStats {
    /// Ticker counters.
    pub tickers: TickerSnapshot,
    /// `(files, bytes)` per level.
    pub levels: Vec<(usize, u64)>,
    /// Current memtable + immutable memtable bytes.
    pub memtable_bytes: u64,
    /// Immutable memtables waiting to flush.
    pub immutable_memtables: usize,
    /// Block cache statistics.
    pub block_cache: CacheStats,
    /// Block cache capacity in bytes.
    pub block_cache_capacity: u64,
    /// Estimated pending compaction debt in bytes.
    pub pending_compaction_bytes: u64,
    /// Background jobs currently in flight.
    pub running_background_jobs: usize,
    /// Last sequence number assigned.
    pub last_sequence: SequenceNumber,
    /// Background jobs that hit a transient error and were retried
    /// instead of aborting.
    pub background_retries: u64,
    /// WAL files rotated after a transient append failure.
    pub wal_rotations: u64,
    /// Manifest append/sync operations re-driven after a transient error.
    pub manifest_resyncs: u64,
    /// WAL syncs re-driven after a transient error.
    pub wal_sync_retries: u64,
}

impl DbStats {
    /// Write amplification so far: total bytes written by flush+compaction
    /// per byte of user data written.
    pub fn write_amplification(&self) -> f64 {
        let user = self.tickers.get(Ticker::BytesWritten).max(1);
        let physical = self.tickers.get(Ticker::FlushBytesWritten)
            + self.tickers.get(Ticker::CompactionBytesWritten);
        physical as f64 / user as f64
    }

    /// Folds in the statistics of another database serving a different
    /// key range: counters, level shapes, debt and block cache (each
    /// database has its own) sum, `last_sequence` takes the larger.
    pub fn merge(&mut self, other: &DbStats) {
        self.tickers.merge(&other.tickers);
        self.block_cache.merge(&other.block_cache);
        self.block_cache_capacity += other.block_cache_capacity;
        if self.levels.len() < other.levels.len() {
            self.levels.resize(other.levels.len(), (0, 0));
        }
        for (mine, (files, bytes)) in self.levels.iter_mut().zip(&other.levels) {
            mine.0 += files;
            mine.1 += bytes;
        }
        self.memtable_bytes += other.memtable_bytes;
        self.immutable_memtables += other.immutable_memtables;
        self.pending_compaction_bytes =
            self.pending_compaction_bytes.saturating_add(other.pending_compaction_bytes);
        self.running_background_jobs += other.running_background_jobs;
        self.last_sequence = self.last_sequence.max(other.last_sequence);
        self.background_retries += other.background_retries;
        self.wal_rotations += other.wal_rotations;
        self.manifest_resyncs += other.manifest_resyncs;
        self.wal_sync_retries += other.wal_sync_retries;
    }
}

/// One key/value pair returned by a scan.
pub type ScanResult = Vec<(Vec<u8>, Vec<u8>)>;

/// Per-write durability options (RocksDB `WriteOptions` analog).
#[derive(Debug, Clone, Default)]
pub struct WriteOptions {
    /// Block until the WAL is durably synced before acknowledging the
    /// write. In real-concurrency mode the sync is amortized across the
    /// whole commit group, which is where multi-threaded write
    /// throughput comes from.
    pub sync: bool,
}

impl WriteOptions {
    /// Options requesting a durable (synced) write.
    pub fn synced() -> Self {
        WriteOptions { sync: true }
    }
}

/// Per-read options (RocksDB `ReadOptions` analog), consumed by
/// [`Db::get_opt`] and [`Db::scan_opt`]. Plain [`Db::get`]/[`Db::scan`]
/// use the defaults.
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions {
    /// Verify block checksums on every read that misses the block cache.
    /// Disabling trades integrity checking for CPU.
    pub verify_checksums: bool,
    /// Insert blocks read on a cache miss into the block cache. Disable
    /// for one-off scans that would wipe the working set.
    pub fill_cache: bool,
    /// Read as of this sequence number instead of the latest visible
    /// one. Clamped to the currently visible watermark; `None` reads the
    /// newest visible state.
    pub snapshot_seq: Option<SequenceNumber>,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            verify_checksums: true,
            fill_cache: true,
            snapshot_seq: None,
        }
    }
}

/// Upper bound on batches coalesced into one commit group.
const MAX_GROUP_BATCHES: usize = 128;

/// How long (wall time) a stopped writer waits before giving up.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Wait slice for real-mode foreground threads blocked on background
/// progress.
const WAIT_SLICE: Duration = Duration::from_millis(20);

/// Longest single real-mode sleep of a delayed writer.
const MAX_WRITE_DELAY: Duration = Duration::from_millis(100);

/// Bounded retries for manifest append/sync on transient errors.
const MANIFEST_RETRIES: u32 = 5;

/// Bounded re-sync attempts for an acknowledged-append WAL sync.
const WAL_SYNC_RETRIES: u32 = 3;

/// The execution mode, fixed at open by the environment's clock. Each
/// side owns what only it needs, so neither can reach the other's.
enum Mode {
    /// Virtual clock: one thread, modelled hardware (`sim.rs`).
    Sim(sim::Sim),
    /// Wall clock: OS threads, group commit, a worker pool (`runtime.rs`).
    Real(Runtime),
}

struct DbInner {
    /// Current effective options. Swapped wholesale (never mutated in
    /// place) by [`Db::set_options`]; readers grab an `Arc` snapshot so a
    /// concurrent retune can never show them a half-applied config.
    opts: RwLock<Arc<Options>>,
    /// The environment's clock: virtual in sim mode, wall in real mode.
    clock: Arc<Clock>,
    vfs: Arc<dyn Vfs>,
    state: Mutex<DbState>,
    /// `Some` when background jobs draw on a permit budget shared with
    /// other databases (see [`DbBuilder::job_budget`]).
    job_budget: Option<Arc<JobBudget>>,
    block_cache: Option<Arc<BlockCache>>,
    table_cache: TableCache<TableReader>,
    stats: Statistics,
    listeners: Vec<Arc<dyn EventListener>>,
    /// Last stall regime reported to listeners (encoded via
    /// [`regime_code`]); transitions are deduplicated on this value.
    last_regime: AtomicU8,
    /// Clock position when the database was opened (drives uptime).
    opened_at: SimTime,
    /// Rebuilt from the new options by [`Db::set_options`] so stall
    /// decisions follow the tuned triggers without reopen.
    controller: RwLock<WriteController>,
    mode: Mode,
    /// Largest sequence number visible to readers. Published under the
    /// state lock once a commit group is in the memtable, read by
    /// `get`/`scan` instead of `last_seq` (which also covers a group
    /// still committing and ranges abandoned by failed groups).
    visible_seq: AtomicU64,
    /// Number of live user-facing [`Db`] handles (workers hold `Weak`s).
    handles: AtomicUsize,
    /// Background jobs retried (parked, not aborted) on transient errors.
    bg_retries: AtomicU64,
    /// WAL rotations after transient append failures.
    wal_rotations: AtomicU64,
    /// Manifest append/sync attempts re-driven on transient errors.
    manifest_resyncs: AtomicU64,
    /// Acknowledged-append WAL syncs re-driven on transient errors.
    wal_sync_retries: AtomicU64,
    /// `Some` when a replication layer observes committed WAL groups.
    wal_sink: Option<Arc<dyn WalSink>>,
    /// Pinned snapshot sequences (seq -> pin count). Flush and
    /// compaction consult these so no version a [`SnapshotPin`] can
    /// still see is dropped or filtered away.
    pins: Mutex<BTreeMap<SequenceNumber, usize>>,
}

impl std::fmt::Debug for DbInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbInner").field("opts", &"..").finish_non_exhaustive()
    }
}

impl DbInner {
    /// A consistent snapshot of the effective options. Cheap (one `Arc`
    /// clone under a read lock); callers that read several fields in one
    /// decision should take one snapshot rather than re-reading, so a
    /// concurrent [`Db::set_options`] cannot interleave configs.
    fn opts(&self) -> Arc<Options> {
        Arc::clone(&self.opts.read())
    }

    /// The current time in seconds for TTL stamping and expiry checks.
    ///
    /// Simulation uses the virtual clock (so TTL behavior is
    /// deterministic and the table5 gate holds); real mode uses UNIX
    /// epoch seconds so stamps stay meaningful across process restarts.
    fn now_secs(&self) -> u64 {
        match &self.mode {
            Mode::Sim(_) => self.clock.now().as_nanos() / 1_000_000_000,
            Mode::Real(_) => std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// The clock reading and `ttl_seconds` one read pass hands to
    /// [`live_value`](crate::filter::live_value) for every entry it
    /// meets. The clock is left unread while TTL is off: nothing can
    /// expire then, and a point lookup is short enough to notice.
    fn expiry_clock(&self, opts: &Options) -> (u64, u64) {
        let ttl_seconds = opts.ttl_seconds;
        (if ttl_seconds > 0 { self.now_secs() } else { 0 }, ttl_seconds)
    }

    /// The filter + pins handed to one flush or compaction job: the
    /// built-in TTL filter (when `ttl_seconds > 0`) frozen at the
    /// current clock, plus the pinned snapshot sequences (sorted
    /// ascending). With TTL off and no pins this is the empty context —
    /// merges behave byte-identically to the unfiltered engine.
    fn filter_context(&self) -> FilterContext {
        let ttl = self.opts().ttl_seconds;
        FilterContext {
            filter: if ttl > 0 {
                Some(Arc::new(TtlFilter::new(self.now_secs(), ttl)))
            } else {
                None
            },
            pins: self.pins.lock().keys().copied().collect(),
        }
    }

    /// Publishes a new reader-visible sequence watermark.
    fn publish_visible(&self, seq: SequenceNumber) {
        self.visible_seq.store(seq, Ordering::Release);
    }

    /// Latches `err` as the database's sticky fatal error. Only real
    /// mode has other threads that must be kept from acknowledging
    /// writes after it; sim hands the error to its single caller.
    fn latch_fatal(&self, err: &crate::Error) {
        if let Mode::Real(rt) = &self.mode {
            rt.set_fatal(err.clone());
        }
    }

    /// Records the current write regime and fires
    /// `on_stall_conditions_changed` exactly once per transition.
    fn note_regime(&self, current: WriteRegime) {
        let code = regime_code(current);
        let prev = self.last_regime.swap(code, Ordering::Relaxed);
        if prev != code {
            let info = StallConditionsChanged {
                previous: regime_from_code(prev),
                current,
            };
            for l in &self.listeners {
                l.on_stall_conditions_changed(&info);
            }
        }
    }

    fn table_config(&self) -> TableConfig {
        let opts = self.opts();
        TableConfig {
            block_size: opts.block_size as usize,
            restart_interval: opts.block_restart_interval.max(1) as usize,
            compression: opts.compression,
            // Whole keys are the only thing the filter holds, so turning
            // them off means no filter.
            bloom_bits_per_key: if opts.whole_key_filtering {
                opts.bloom_filter_bits_per_key
            } else {
                0.0
            },
        }
    }

    fn bottom_table_config(&self) -> TableConfig {
        let mut c = self.table_config();
        c.compression = self.opts().effective_bottommost_compression();
        if self.opts().optimize_filters_for_hits {
            c.bloom_bits_per_key = 0.0;
        }
        c
    }

    fn pressure(&self, state: &DbState) -> WritePressure {
        WritePressure {
            l0_files: state.version.files(0).len(),
            immutable_memtables: state.imm.len(),
            total_memtables: state.imm.len() + 1,
            pending_compaction_bytes: state.pending_compaction_bytes,
        }
    }

    /// Sim mode: reports memtable and block-cache use to the memory model.
    fn account_memory(&self, state: &DbState) {
        if let Mode::Sim(sim) = &self.mode {
            let mem_bytes = state.mem.approximate_memory_usage() as u64 + state.imm_bytes();
            sim.account_memory(mem_bytes, self.block_cache.as_ref().map_or(0, |c| c.used_bytes()));
        }
    }
}

/// RAII guard pinning a snapshot sequence: while alive, no version of
/// any key visible at the pinned sequence is dropped or filtered away by
/// flush or compaction. Obtained from [`Db::pin_snapshot`]; pass the
/// [`SnapshotPin::sequence`] as [`ReadOptions::snapshot_seq`] to read at
/// the pin.
#[derive(Debug)]
pub struct SnapshotPin {
    inner: Arc<DbInner>,
    seq: SequenceNumber,
}

impl SnapshotPin {
    /// The pinned sequence number.
    pub fn sequence(&self) -> SequenceNumber {
        self.seq
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut pins = self.inner.pins.lock();
        if let Some(n) = pins.get_mut(&self.seq) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&self.seq);
            }
        }
    }
}

/// An LSM-tree key-value store.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Db {
    inner: Arc<DbInner>,
}

impl Clone for Db {
    fn clone(&self) -> Db {
        self.inner.handles.fetch_add(1, Ordering::AcqRel);
        Db {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        // When the last user handle goes away in real mode, stop and
        // join the worker pool *before* returning: a worker may hold a
        // transient strong reference, and letting it drop `DbInner`
        // later would race a caller that immediately reopens the path
        // (the buffered manifest tail would still be in flight).
        if let Mode::Real(rt) = &self.inner.mode {
            if self.inner.handles.fetch_sub(1, Ordering::AcqRel) == 1 {
                rt.shutdown_and_join();
            }
        }
    }
}

/// Observer of committed WAL groups, the hook a replication layer hangs
/// off the write path (see [`DbBuilder::wal_sink`]).
///
/// The engine calls [`ship`](Self::ship) after a group's records were
/// appended to the local WAL, *while still holding the commit critical
/// section* — so ship order equals sequence order and implementations
/// must only enqueue, never block. For a group written with
/// `WriteOptions { sync: true }` the engine then calls
/// [`wait_durable`](Self::wait_durable) after the local fsync and before
/// the group's writers are released, so an implementation can hold the
/// ack until replicas confirm durability (bounded — a sink must time out
/// and demote a dead replica rather than stall writers forever).
pub trait WalSink: Send + Sync {
    /// One committed group: WAL record payloads covering sequences
    /// `first_seq..=last_seq`, in commit order.
    fn ship(&self, first_seq: u64, last_seq: u64, sync: bool, records: &[&[u8]]);
    /// Blocks (bounded) until the group ending at `last_seq` is durable
    /// on every replica the sink still considers live.
    fn wait_durable(&self, last_seq: u64);
}

impl Db {
    /// The newest sequence number visible to readers right now. Pass it
    /// as [`ReadOptions::snapshot_seq`] to pin a consistent snapshot.
    pub fn snapshot_seq(&self) -> u64 {
        self.inner.visible_seq.load(Ordering::Acquire)
    }

    /// Pins the current snapshot: until the returned guard drops, flush
    /// and compaction keep every version visible at this sequence (and
    /// the compaction filter never touches them). Read at the pin via
    /// [`ReadOptions::snapshot_seq`].
    pub fn pin_snapshot(&self) -> SnapshotPin {
        let inner = &*self.inner;
        // Register under the pins lock using a sequence captured inside
        // it, so a background job that read the pin set cannot have
        // missed a pin at a sequence it had yet to observe.
        let mut pins = inner.pins.lock();
        let seq = self.snapshot_seq();
        *pins.entry(seq).or_insert(0) += 1;
        drop(pins);
        SnapshotPin { inner: Arc::clone(&self.inner), seq }
    }

    /// The VFS this database stores its files in — for sidecar files
    /// (e.g. the replication bootstrap marker) that must live and die
    /// with the database directory.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.inner.vfs)
    }

    /// A snapshot of the options this database currently runs with.
    ///
    /// Returned by value: [`set_options`](Db::set_options) can swap the
    /// effective config at any time, so there is no stable reference to
    /// hand out.
    pub fn options(&self) -> Options {
        (*self.inner.opts()).clone()
    }

    /// The current ini rendering of the options (what tuning feeds the
    /// LLM).
    pub fn options_ini(&self) -> String {
        crate::options::ini::to_ini(&self.inner.opts())
    }
}

/// Fixtures shared by the per-module unit tests.
#[cfg(test)]
mod testutil {
    use super::*;
    use hw_sim::{DeviceModel, HardwareEnv};

    pub fn env() -> HardwareEnv {
        HardwareEnv::builder()
            .cores(4)
            .memory_gib(8)
            .device(DeviceModel::nvme_ssd())
            .build_sim()
    }

    /// Tiny buffers and files, to exercise flush/compaction.
    pub fn small_opts() -> Options {
        Options {
            write_buffer_size: 64 << 10,
            target_file_size_base: 64 << 10,
            max_bytes_for_level_base: 256 << 10,
            ..Options::default()
        }
    }
}
