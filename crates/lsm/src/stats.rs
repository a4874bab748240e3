//! Engine statistics: tickers and latency histograms.
//!
//! The benchmark report (and therefore the tuning prompt) is built from
//! these counters, so they mirror the RocksDB statistics the paper's
//! framework extracts from `db_bench` output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hw_sim::SimDuration;

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing counters
pub enum Ticker {
    BlockCacheHit,
    BlockCacheMiss,
    BloomChecked,
    BloomUseful,
    MemtableHit,
    MemtableMiss,
    GetHit,
    GetMiss,
    KeysWritten,
    KeysRead,
    BytesWritten,
    BytesRead,
    WalBytes,
    WalSyncs,
    FlushJobs,
    FlushBytesWritten,
    CompactionJobs,
    CompactionBytesRead,
    CompactionBytesWritten,
    WriteSlowdowns,
    WriteStops,
    StallNanos,
    TableOpens,
    TableCacheEvictions,
    FilesDeleted,
    GroupCommits,
    GroupCommitBatches,
    WalWrites,
    CompactionKeyDropped,
    MultiGetKeysRead,
    MultiGetBatches,
    /// Background jobs parked and retried after a transient error
    /// instead of aborting.
    BackgroundRetries,
    /// WAL files rotated after a transient append failure.
    WalRotations,
    /// Manifest appends or syncs re-driven after a transient error.
    ManifestResyncs,
    /// WAL syncs re-driven after a transient error.
    WalSyncRetries,
}

const NUM_TICKERS: usize = 35;

fn ticker_index(t: Ticker) -> usize {
    t as usize
}

/// All ticker names, index-aligned with [`TickerSnapshot::values`].
pub const TICKER_NAMES: [&str; NUM_TICKERS] = [
    "block_cache_hit",
    "block_cache_miss",
    "bloom_checked",
    "bloom_useful",
    "memtable_hit",
    "memtable_miss",
    "get_hit",
    "get_miss",
    "keys_written",
    "keys_read",
    "bytes_written",
    "bytes_read",
    "wal_bytes",
    "wal_syncs",
    "flush_jobs",
    "flush_bytes_written",
    "compaction_jobs",
    "compaction_bytes_read",
    "compaction_bytes_written",
    "write_slowdowns",
    "write_stops",
    "stall_nanos",
    "table_opens",
    "table_cache_evictions",
    "files_deleted",
    "group_commits",
    "group_commit_batches",
    "wal_writes",
    "compaction_key_dropped",
    "multiget_keys_read",
    "multiget_batches",
    "background_retries",
    "wal_rotations",
    "manifest_resyncs",
    "wal_sync_retries",
];

/// Thread-safe ticker array.
#[derive(Debug)]
pub struct Tickers {
    values: [AtomicU64; NUM_TICKERS],
}

impl Default for Tickers {
    fn default() -> Self {
        Self { values: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl Tickers {
    /// Creates zeroed tickers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to a ticker. Adding zero touches nothing: callers sum
    /// what a pass found without a branch, and a read-modify-write on a
    /// line every client thread shares is not free.
    pub fn add(&self, t: Ticker, delta: u64) {
        if delta > 0 {
            self.values[ticker_index(t)].fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increments a ticker by one.
    pub fn inc(&self, t: Ticker) {
        self.add(t, 1);
    }

    /// Reads one ticker.
    pub fn get(&self, t: Ticker) -> u64 {
        self.values[ticker_index(t)].load(Ordering::Relaxed)
    }

    /// Captures all tickers.
    pub fn snapshot(&self) -> TickerSnapshot {
        let mut values = [0u64; NUM_TICKERS];
        for (i, v) in self.values.iter().enumerate() {
            values[i] = v.load(Ordering::Relaxed);
        }
        TickerSnapshot { values }
    }
}

/// A point-in-time copy of every ticker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickerSnapshot {
    /// Values aligned with [`TICKER_NAMES`].
    pub values: [u64; NUM_TICKERS],
}

impl TickerSnapshot {
    /// Reads one ticker from the snapshot.
    pub fn get(&self, t: Ticker) -> u64 {
        self.values[ticker_index(t)]
    }

    /// Difference against an earlier snapshot (saturating).
    pub fn delta_since(&self, earlier: &TickerSnapshot) -> TickerSnapshot {
        let mut values = [0u64; NUM_TICKERS];
        for (v, (now, then)) in values.iter_mut().zip(self.values.iter().zip(&earlier.values)) {
            *v = now.saturating_sub(*then);
        }
        TickerSnapshot { values }
    }

    /// Adds another snapshot's counts into this one (saturating) —
    /// sharded databases aggregate per-shard tickers this way.
    pub fn merge(&mut self, other: &TickerSnapshot) {
        for (v, o) in self.values.iter_mut().zip(&other.values) {
            *v = v.saturating_add(*o);
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

const SUB_BUCKET_BITS: u32 = 5; // 32 sub-buckets per power of two
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
const GROUPS: usize = 64 - SUB_BUCKET_BITS as usize;
const NUM_BUCKETS: usize = SUB_BUCKETS * GROUPS;

/// A log-linear histogram of nanosecond latencies.
///
/// Relative error is bounded by ~3% (32 sub-buckets per octave), which is
/// plenty for p50/p99/p99.9 reporting.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    sum_sq: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        value as usize
    } else {
        let group = 63 - value.leading_zeros() as usize; // >= SUB_BUCKET_BITS
        let shift = group - SUB_BUCKET_BITS as usize;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        let g = group - SUB_BUCKET_BITS as usize + 1;
        (g * SUB_BUCKETS + sub).min(NUM_BUCKETS - 1)
    }
}

fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        index as u64
    } else {
        let g = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        let shift = g - 1;
        (((sub + 1) as u64) << shift) + ((SUB_BUCKETS as u64) << shift) - (1 << shift)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            sum_sq: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, value: SimDuration) {
        let v = value.as_nanos();
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.sum_sq += u128::from(v) * u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at percentile `p` (0..=100), approximated by bucket
    /// upper bounds. Returns zero for an empty histogram.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration::from_nanos(bucket_upper_bound(i).min(self.max));
            }
        }
        SimDuration::from_nanos(self.max)
    }

    /// Mean sample value.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum / u128::from(self.count)) as u64)
        }
    }

    /// Smallest sample, or zero when empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min)
        }
    }

    /// Largest sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }

    /// Population standard deviation of the samples, or zero when empty.
    pub fn stddev(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let n = self.count as f64;
        let mean = self.sum as f64 / n;
        let variance = (self.sum_sq as f64 / n - mean * mean).max(0.0);
        SimDuration::from_nanos(variance.sqrt() as u64)
    }

    /// Captures the quantiles commonly reported by `db_bench`.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.percentile(50.0),
            p75: self.percentile(75.0),
            p99: self.percentile(99.0),
            p999: self.percentile(99.9),
            p9999: self.percentile(99.99),
            stddev: self.stddev(),
            max: self.max(),
        }
    }
}

/// Quantile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency.
    pub mean: SimDuration,
    /// Minimum latency.
    pub min: SimDuration,
    /// Median.
    pub p50: SimDuration,
    /// 75th percentile.
    pub p75: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
    /// 99.9th percentile.
    pub p999: SimDuration,
    /// 99.99th percentile.
    pub p9999: SimDuration,
    /// Population standard deviation (nanosecond precision).
    pub stddev: SimDuration,
    /// Maximum latency.
    pub max: SimDuration,
}

// ---------------------------------------------------------------------------
// Statistics registry
// ---------------------------------------------------------------------------

/// Latency-histogram families the engine maintains internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are self-describing families
pub enum HistogramKind {
    DbGet,
    DbWrite,
    FlushTime,
    CompactionTime,
    SstReadMicros,
    DbMultiGet,
}

/// Number of engine histogram families.
pub const NUM_HISTOGRAMS: usize = 6;

/// Histogram names, index-aligned with [`HistogramKind`] discriminants,
/// following the `rocksdb.*` statistics naming convention.
pub const HISTOGRAM_NAMES: [&str; NUM_HISTOGRAMS] = [
    "db.get.micros",
    "db.write.micros",
    "flush.time.micros",
    "compaction.time.micros",
    "sst.read.micros",
    "db.multiget.micros",
];

/// Per-level I/O accumulated by flush and compaction jobs.
///
/// Flushes account as writes into level 0; a compaction's bytes are
/// charged to its *output* level (RocksDB convention for the
/// `Compaction Stats` table).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelIo {
    /// Bytes read from input files.
    pub bytes_read: u64,
    /// Bytes written to output files.
    pub bytes_written: u64,
    /// Jobs (flushes for L0, compactions elsewhere) completed.
    pub jobs: u64,
    /// Keys dropped (shadowed versions and bottommost tombstones).
    pub keys_dropped: u64,
}

/// The engine-wide statistics registry: tickers, latency histograms,
/// and per-level compaction I/O.
///
/// One instance lives in the database for its whole lifetime; all
/// members are independently thread-safe.
#[derive(Debug, Default)]
pub struct Statistics {
    tickers: Tickers,
    histograms: [Mutex<Histogram>; NUM_HISTOGRAMS],
    level_io: Mutex<Vec<LevelIo>>,
}

impl Statistics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ticker array.
    pub fn tickers(&self) -> &Tickers {
        &self.tickers
    }

    /// Records one latency sample into a histogram family.
    pub fn record(&self, kind: HistogramKind, value: SimDuration) {
        self.histograms[kind as usize].lock().expect("histogram lock").record(value);
    }

    /// Snapshot of one histogram family.
    pub fn histogram(&self, kind: HistogramKind) -> HistogramSnapshot {
        self.histograms[kind as usize].lock().expect("histogram lock").snapshot()
    }

    /// Adds job I/O to a level's accumulator.
    pub fn add_level_io(&self, level: usize, read: u64, written: u64, keys_dropped: u64) {
        let mut io = self.level_io.lock().expect("level io lock");
        if io.len() <= level {
            io.resize(level + 1, LevelIo::default());
        }
        let slot = &mut io[level];
        slot.bytes_read += read;
        slot.bytes_written += written;
        slot.jobs += 1;
        slot.keys_dropped += keys_dropped;
    }

    /// Snapshot of the per-level I/O accumulators (index = level).
    pub fn level_io(&self) -> Vec<LevelIo> {
        self.level_io.lock().expect("level io lock").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tickers_accumulate_and_snapshot() {
        let t = Tickers::new();
        t.inc(Ticker::GetHit);
        t.add(Ticker::BytesWritten, 100);
        t.add(Ticker::BytesWritten, 50);
        assert_eq!(t.get(Ticker::GetHit), 1);
        assert_eq!(t.get(Ticker::BytesWritten), 150);
        let snap1 = t.snapshot();
        t.add(Ticker::BytesWritten, 10);
        let snap2 = t.snapshot();
        assert_eq!(snap2.delta_since(&snap1).get(Ticker::BytesWritten), 10);
    }

    #[test]
    fn ticker_names_align() {
        assert_eq!(TICKER_NAMES.len(), NUM_TICKERS);
        assert_eq!(TICKER_NAMES[ticker_index(Ticker::FilesDeleted)], "files_deleted");
        assert_eq!(
            TICKER_NAMES[ticker_index(Ticker::GroupCommitBatches)],
            "group_commit_batches"
        );
        assert_eq!(TICKER_NAMES[ticker_index(Ticker::BlockCacheHit)], "block_cache_hit");
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(i * 100));
        }
        let s = h.snapshot();
        assert!(s.min <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.p99);
        assert!(s.p99 <= s.p999 && s.p999 <= s.max);
        assert_eq!(s.count, 10_000);
    }

    #[test]
    fn histogram_percentile_accuracy() {
        let mut h = Histogram::new();
        for i in 1..=100_000u64 {
            h.record(SimDuration::from_nanos(i));
        }
        let p50 = h.percentile(50.0).as_nanos() as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05, "p50 = {p50}");
        let p99 = h.percentile(99.0).as_nanos() as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.05, "p99 = {p99}");
    }

    #[test]
    fn histogram_handles_outliers() {
        let mut h = Histogram::new();
        for _ in 0..999 {
            h.record(SimDuration::from_micros(5));
        }
        h.record(SimDuration::from_millis(50));
        let s = h.snapshot();
        assert!(s.p50.as_nanos() < 10_000);
        assert_eq!(s.max, SimDuration::from_millis(50));
        // p99.9 lands in the outlier's bucket region.
        assert!(s.p999 > SimDuration::from_millis(10));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_nanos(100));
        b.record(SimDuration::from_nanos(300));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), SimDuration::from_nanos(300));
        assert_eq!(a.min(), SimDuration::from_nanos(100));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, SimDuration::ZERO);
        assert_eq!(s.mean, SimDuration::ZERO);
    }

    #[test]
    fn stddev_and_p9999() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(SimDuration::from_nanos(1000));
        }
        // Constant samples: zero spread, every percentile near the value.
        assert_eq!(h.stddev(), SimDuration::ZERO);
        let s = h.snapshot();
        assert!(s.p999 <= s.p9999 && s.p9999 <= s.max);

        let mut spread = Histogram::new();
        spread.record(SimDuration::from_nanos(0));
        spread.record(SimDuration::from_nanos(2000));
        // Population stddev of {0, 2000} is exactly 1000.
        assert_eq!(spread.stddev(), SimDuration::from_nanos(1000));
    }

    #[test]
    fn statistics_registry_accumulates() {
        let stats = Statistics::new();
        stats.tickers().inc(Ticker::WalWrites);
        stats.record(HistogramKind::DbGet, SimDuration::from_micros(3));
        stats.record(HistogramKind::DbGet, SimDuration::from_micros(5));
        assert_eq!(stats.histogram(HistogramKind::DbGet).count, 2);
        assert_eq!(stats.histogram(HistogramKind::DbWrite).count, 0);

        stats.add_level_io(0, 0, 4096, 0);
        stats.add_level_io(2, 8192, 6000, 17);
        stats.add_level_io(2, 100, 50, 3);
        let io = stats.level_io();
        assert_eq!(io.len(), 3);
        assert_eq!(io[0], LevelIo { bytes_read: 0, bytes_written: 4096, jobs: 1, keys_dropped: 0 });
        assert_eq!(io[1], LevelIo::default());
        assert_eq!(
            io[2],
            LevelIo { bytes_read: 8292, bytes_written: 6050, jobs: 2, keys_dropped: 20 }
        );
    }

    #[test]
    fn histogram_names_align() {
        assert_eq!(HISTOGRAM_NAMES[HistogramKind::DbGet as usize], "db.get.micros");
        assert_eq!(
            HISTOGRAM_NAMES[HistogramKind::SstReadMicros as usize],
            "sst.read.micros"
        );
    }

    #[test]
    fn bucket_index_monotone() {
        let mut last = 0;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, 1 << 40, u64::MAX / 2] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
        }
    }
}
