//! Simulation mode: what the engine's work costs in virtual time.
//!
//! The counterpart of `runtime.rs`. A database opened on a simulated
//! clock owns a [`Sim`]: the hardware models, the calibration constants,
//! and the queue of finished jobs awaiting their modelled completion.
//! Every charge against `hw_sim` is made here, from a handful of call
//! sites where the engine reports what it did: a read's CPU by stage, a
//! table read, a committed group, a finished job. A wall-clock database
//! owns a `Runtime` instead and never reaches this module.

use hw_sim::{AccessPattern, HardwareEnv, MemoryUser, SimDuration, SimTime};
use parking_lot::Mutex;

use super::jobs::{Completed, Done};
use crate::options::{CompressionType, Options};
use crate::sstable::compress::decompress_cpu_cost;
use crate::stats::{Ticker, Tickers};

// Calibration to `db_bench`-like magnitudes, in reference-core time. A
// read path names the stages it went through; what each costs is here.
/// Fixed CPU of one point lookup (a whole batch pays it once) or scan.
pub(super) const READ_BASE_CPU: SimDuration = SimDuration::from_nanos(500);
pub(super) const MEMTABLE_PROBE_CPU: SimDuration = SimDuration::from_nanos(300);
/// Locating a key's file in a sorted level (range binary search).
pub(super) const LEVEL_SEARCH_CPU: SimDuration = SimDuration::from_nanos(60);
/// Parsing a freshly opened table's footer, index and filter.
pub(super) const TABLE_OPEN_CPU: SimDuration = SimDuration::from_micros(3);
pub(super) const BLOOM_CHECK_CPU: SimDuration = SimDuration::from_nanos(120);
pub(super) const INDEX_SEEK_CPU: SimDuration = SimDuration::from_nanos(200);
/// A block-cache hit: hash plus seek in the block.
pub(super) const CACHE_HIT_CPU: SimDuration = SimDuration::from_nanos(250);
/// Parse plus binary search of a fetched block.
pub(super) const BLOCK_SEARCH_CPU: SimDuration = SimDuration::from_nanos(300);
/// Re-seek in the block the previous key of a batch already parsed.
pub(super) const BLOCK_RESEEK_CPU: SimDuration = SimDuration::from_nanos(100);
pub(super) const SCAN_ENTRY_CPU: SimDuration = SimDuration::from_nanos(180);
const WRITE_BASE_CPU: SimDuration = SimDuration::from_nanos(900);
const WRITE_PER_BYTE_CPU_NS: f64 = 1.2;
const WAL_RECORD_CPU: SimDuration = SimDuration::from_nanos(250);
const WAL_PER_BYTE_CPU_NS: f64 = 0.3;
const FLUSH_CPU_BPS: f64 = 350e6;
const COMPACTION_CPU_BPS: f64 = 300e6;
const COMPACTION_ENTRY_CPU_NS: u64 = 100;
/// Dirty pages that trigger an OS writeback burst when `bytes_per_sync` /
/// `wal_bytes_per_sync` are zero.
const OS_WRITEBACK_BURST: u64 = 64 << 20;

/// Per-database simulation state; see the module docs.
pub(super) struct Sim {
    env: HardwareEnv,
    state: Mutex<SimState>,
}

#[derive(Default)]
struct SimState {
    /// Finished jobs and their install instants, in queueing order: a
    /// handful at most, one per running background job.
    installs: Vec<(SimTime, Done)>,
    /// Unsynced WAL bytes the modelled OS has yet to write back.
    dirty_wal_bytes: u64,
    /// Memtable and block-cache bytes last reported to the memory model.
    reported_memtable_bytes: u64,
    reported_cache_bytes: u64,
}

impl Drop for Sim {
    fn drop(&mut self) {
        // A closed database holds no memtable and no cache.
        self.account_memory(0, 0);
    }
}

impl Sim {
    pub fn new(env: &HardwareEnv) -> Sim {
        Sim { env: env.clone(), state: Mutex::default() }
    }

    // -- The install queue --------------------------------------------------

    /// Queues a finished job for install at `at`, its modelled completion.
    pub fn queue_install(&self, at: SimTime, done: Done) {
        self.state.lock().installs.push((at, done));
    }

    /// The job with the earliest install instant (the first queued, among
    /// equals), once the clock has reached it.
    pub fn pop_due(&self) -> Option<(SimTime, Done)> {
        let installs = &mut self.state.lock().installs;
        let first = (0..installs.len()).min_by_key(|&i| installs[i].0)?;
        (installs[first].0 <= self.env.clock().now()).then(|| installs.remove(first))
    }

    pub fn next_install_at(&self) -> Option<SimTime> {
        self.state.lock().installs.iter().map(|(at, _)| *at).min()
    }

    // -- Foreground ---------------------------------------------------------

    /// Slowdown applied to foreground CPU when background jobs occupy
    /// cores.
    fn contention(&self, now: SimTime) -> f64 {
        let cores = self.env.cpu().num_cores().max(1);
        let busy = self.env.cpu().busy_cores(now).min(cores);
        1.0 + 0.6 * busy as f64 / cores as f64
    }

    /// Moves the clock by `cpu` scaled by `factor` (the operation's own
    /// modifiers times core contention) and by memory pressure.
    fn advance_foreground(&self, cpu: SimDuration, factor: f64) {
        let factor = factor * self.env.memory().penalty_factor();
        self.env.clock().advance(cpu.mul_f64(factor));
    }

    /// Ends a point lookup.
    pub fn finish_lookup(&self, cpu: SimDuration, opts: &Options) {
        let mut factor = self.contention(self.env.clock().now());
        if opts.paranoid_checks {
            factor *= 1.08;
        }
        if opts.use_direct_reads {
            factor *= 1.05;
        }
        self.advance_foreground(cpu, factor);
    }

    /// Ends a scan.
    pub fn finish_scan(&self, cpu: SimDuration) {
        self.advance_foreground(cpu, self.contention(self.env.clock().now()));
    }

    /// Moves the clock by a scan cursor's table-open or block-fetch CPU as
    /// it is incurred, unscaled.
    pub fn spend(&self, cpu: SimDuration) {
        self.env.clock().advance(cpu);
    }

    /// Queues random reads of `parts` bytes back to back, blocks the
    /// foreground on the last, and returns how long that took.
    pub fn read_blocking(&self, parts: &[u64]) -> SimDuration {
        let now = self.env.clock().now();
        let mut done = now;
        for &part in parts {
            done = self.env.device().submit_read(done, part, AccessPattern::Random);
        }
        self.env.clock().advance_to(done);
        done.saturating_since(now)
    }

    /// Charges a committed group: its WAL device traffic (`wal_bytes` of
    /// records, `None` with the WAL off; `synced` bytes covered by a sync)
    /// and foreground CPU, moving the clock by what the writer waited for.
    pub fn charge_write(
        &self,
        opts: &Options,
        tickers: &Tickers,
        wal_bytes: Option<u64>,
        inserted_bytes: u64,
        group_sync: bool,
        synced: Option<u64>,
    ) {
        let now = self.env.clock().now();
        let device = self.env.device();
        let mut cpu = WRITE_BASE_CPU;
        if let Some(record_len) = wal_bytes {
            cpu += WAL_RECORD_CPU
                + SimDuration::from_nanos((record_len as f64 * WAL_PER_BYTE_CPU_NS) as u64);
            if let Some(chunk) = synced {
                let done = device.submit_write(now, chunk, AccessPattern::Sequential);
                if group_sync {
                    // Durable write: the foreground blocks on the device sync.
                    self.env.clock().advance_to(device.submit_sync(done));
                } else if opts.strict_bytes_per_sync {
                    self.env.clock().advance_to(done);
                }
            } else if opts.wal_bytes_per_sync == 0 {
                let mut state = self.state.lock();
                state.dirty_wal_bytes += record_len;
                if state.dirty_wal_bytes >= OS_WRITEBACK_BURST {
                    // The OS flushes a big burst of dirty pages; it does
                    // not block the writer but hogs the device.
                    device.submit_write(now, state.dirty_wal_bytes, AccessPattern::Sequential);
                    state.dirty_wal_bytes = 0;
                    tickers.inc(Ticker::WalSyncs);
                }
            }
        }
        cpu += SimDuration::from_nanos((inserted_bytes as f64 * WRITE_PER_BYTE_CPU_NS) as u64);

        // Pipelining and concurrency-control modifiers.
        let mut factor = 1.0;
        if opts.enable_pipelined_write {
            factor *= if self.env.cpu().num_cores() >= 4 { 0.88 } else { 1.05 };
        }
        if !opts.allow_concurrent_memtable_write {
            factor *= 0.98; // single-writer skips the coordination
        }
        factor *= self.contention(now);
        self.advance_foreground(cpu, factor);
    }

    // -- Background jobs ----------------------------------------------------

    /// Charges a job that started at `started` — its CPU and device
    /// traffic, on the models foreground work shares — and returns the
    /// instant it finishes.
    pub fn job_finished(&self, started: SimTime, done: &Done, opts: &Options) -> SimTime {
        match done {
            Done::Flush { table, .. } => {
                let raw = table.properties.raw_bytes;
                let cpu_cost =
                    SimDuration::from_secs_f64(raw as f64 / FLUSH_CPU_BPS) + table.compression_cpu;
                let slot = self.env.cpu().run(started, cpu_cost);
                let io_done = self.background_write(slot.start, table.file_size, opts);
                self.settle(slot.start, slot.end.max(io_done), table.file_size, opts)
            }
            // Chunked reads (readahead), chunked writes, merge CPU split
            // across subcompactions.
            Done::Merge { job, output } => {
                let device = self.env.device();
                let readahead = opts.compaction_readahead_size.max(64 << 10);
                let read_pattern = if device.model().class.is_rotational() {
                    AccessPattern::Random // one seek per readahead chunk
                } else {
                    AccessPattern::Sequential
                };
                let subs = (opts.max_subcompactions.max(1) as usize).min(job.inputs.len()).max(1);
                let cpu_total =
                    SimDuration::from_secs_f64(output.bytes_read as f64 / COMPACTION_CPU_BPS)
                        + SimDuration::from_nanos(output.entries_read * COMPACTION_ENTRY_CPU_NS)
                        + output.compression_cpu
                        + if opts.compression != CompressionType::None {
                            decompress_cpu_cost(opts.compression, output.bytes_read as usize)
                        } else {
                            SimDuration::ZERO
                        };
                let per_sub = cpu_total.mul_f64(1.0 / subs as f64);
                let mut cpu_end = started;
                let mut start = started;
                for _ in 0..subs {
                    let slot = self.env.cpu().run(started, per_sub);
                    cpu_end = cpu_end.max(slot.end);
                    start = start.max(slot.start);
                }
                let io_end = chunked(start, output.bytes_read, readahead, |at, n| {
                    device.submit_read(at, n, read_pattern)
                });
                let write_done = self.background_write(start, output.bytes_written, opts);
                let bytes = output.bytes_read + output.bytes_written;
                self.settle(start, cpu_end.max(io_end).max(write_done), bytes, opts)
            }
        }
    }

    /// The manifest edit of a job installed at `at` is a small write on
    /// the shared device.
    pub fn charge_manifest_edit(&self, at: SimTime, completed: &Completed) {
        let bytes = match completed {
            Completed::Flush(_) => 128,
            Completed::Compaction(_) => 256,
        };
        self.env.device().submit_write(at, bytes, AccessPattern::Sequential);
    }

    /// Submits a background sequential write in `bytes_per_sync`-sized
    /// chunks (or one OS burst) and returns the last completion.
    fn background_write(&self, start: SimTime, total: u64, opts: &Options) -> SimTime {
        let device = self.env.device();
        let per_sync = opts.bytes_per_sync;
        let chunk = if per_sync > 0 { per_sync } else { OS_WRITEBACK_BURST }.max(64 << 10);
        let done = chunked(start, total, chunk, |at, n| {
            device.submit_write(at, n, AccessPattern::Sequential)
        });
        // Durability point at file close.
        device.submit_sync(done)
    }

    /// Applies the rate limiter's floor for `bytes` of job I/O and the
    /// memory-pressure penalty to a modelled job spanning `start..end`.
    fn settle(&self, start: SimTime, mut end: SimTime, bytes: u64, opts: &Options) -> SimTime {
        let rate = opts.rate_limiter_bytes_per_sec;
        if rate > 0 {
            end = end.max(start + SimDuration::from_secs_f64(bytes as f64 / rate as f64));
        }
        start + (end - start).mul_f64(self.env.memory().penalty_factor())
    }

    // -- Memory -------------------------------------------------------------

    /// Reports memtable and block-cache use to the memory model as a
    /// change against what this database reported last, so several
    /// databases on one environment add up instead of overwriting each
    /// other.
    pub fn account_memory(&self, memtable_bytes: u64, cache_bytes: u64) {
        let state = &mut *self.state.lock();
        self.report_memory(MemoryUser::Memtables, &mut state.reported_memtable_bytes, memtable_bytes);
        self.report_memory(MemoryUser::BlockCache, &mut state.reported_cache_bytes, cache_bytes);
    }

    fn report_memory(&self, user: MemoryUser, reported: &mut u64, now: u64) {
        let before = std::mem::replace(reported, now);
        self.env.memory().reserve(user, now.saturating_sub(before));
        self.env.memory().release(user, before.saturating_sub(now));
    }

    /// A table reader whose index and filter live outside the block
    /// cache entered the table cache.
    pub fn reserve_table_memory(&self, bytes: u64) {
        self.env.memory().reserve(MemoryUser::TableCache, bytes);
    }

    /// Such a reader left it.
    pub fn release_table_memory(&self, bytes: u64) {
        self.env.memory().release(MemoryUser::TableCache, bytes);
    }
}

/// Submits `total` bytes from `start` as back-to-back requests of at most
/// `chunk` bytes and returns the last completion.
fn chunked(start: SimTime, total: u64, chunk: u64, submit: impl Fn(SimTime, u64) -> SimTime) -> SimTime {
    let (mut done, mut remaining) = (start, total);
    while remaining > 0 {
        let n = remaining.min(chunk);
        done = submit(done, n);
        remaining -= n;
    }
    done
}
