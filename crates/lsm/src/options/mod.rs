//! Engine configuration: a RocksDB-compatible option surface.
//!
//! The tuning framework manipulates the engine exclusively through this
//! module: every option has a RocksDB name, a typed field on [`Options`],
//! an entry in the [`registry`] with metadata (type, range, default,
//! section, mutability, deprecation), and an ini representation compatible
//! with RocksDB `OPTIONS` files ([`ini`]).

pub mod ini;
pub mod registry;

use std::fmt;

use crate::error::{Error, Result};

/// Compaction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompactionStyle {
    /// Leveled compaction (RocksDB `kCompactionStyleLevel`).
    #[default]
    Level,
    /// Universal / size-tiered compaction.
    Universal,
    /// FIFO: drop oldest files beyond a size budget.
    Fifo,
}

impl CompactionStyle {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CompactionStyle::Level => "level",
            CompactionStyle::Universal => "universal",
            CompactionStyle::Fifo => "fifo",
        }
    }

    /// Parses RocksDB-style (`kCompactionStyleLevel`) or plain names.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "level" | "kcompactionstylelevel" | "leveled" | "0" => Some(CompactionStyle::Level),
            "universal" | "kcompactionstyleuniversal" | "tiered" | "1" => {
                Some(CompactionStyle::Universal)
            }
            "fifo" | "kcompactionstylefifo" | "2" => Some(CompactionStyle::Fifo),
            _ => None,
        }
    }
}

impl fmt::Display for CompactionStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Block compression algorithm.
///
/// The engine ships its own LZ-style codec; the named variants select the
/// codec's effort level and model the speed/ratio trade-offs of the
/// corresponding real algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompressionType {
    /// No compression.
    None,
    /// Fast, moderate ratio (models Snappy).
    #[default]
    Snappy,
    /// Fastest, slightly lower ratio (models LZ4).
    Lz4,
    /// Slower, best ratio (models Zstd).
    Zstd,
}

impl CompressionType {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CompressionType::None => "none",
            CompressionType::Snappy => "snappy",
            CompressionType::Lz4 => "lz4",
            CompressionType::Zstd => "zstd",
        }
    }

    /// Parses RocksDB-style (`kSnappyCompression`) or plain names.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" | "no" | "knocompression" | "disable" | "disabled" | "false" => {
                Some(CompressionType::None)
            }
            "snappy" | "ksnappycompression" => Some(CompressionType::Snappy),
            "lz4" | "klz4compression" => Some(CompressionType::Lz4),
            "zstd" | "kzstd" | "kzstdcompression" => Some(CompressionType::Zstd),
            _ => None,
        }
    }
}

impl fmt::Display for CompressionType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Value of `memtable_factory`. The engine has one memtable (an ordered
/// map behind a reader-writer lock) and reads this nowhere; both names are
/// kept so RocksDB option files, which say `SkipListFactory`, still load
/// and echo what they set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemtableRep {
    /// `btree`, the default string.
    #[default]
    BTreeMap,
    /// `skiplist` / `SkipListFactory`.
    SkipList,
}

impl MemtableRep {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            MemtableRep::BTreeMap => "btree",
            MemtableRep::SkipList => "skiplist",
        }
    }

    /// Parses RocksDB-style (`SkipListFactory`) or plain names.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "btree" | "btreemap" | "btreemapfactory" | "map" => Some(MemtableRep::BTreeMap),
            "skiplist" | "skip_list" | "skiplistfactory" => Some(MemtableRep::SkipList),
            _ => None,
        }
    }
}

impl fmt::Display for MemtableRep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Full engine configuration with RocksDB-compatible field names.
///
/// Defaults match the `db_bench` baseline the paper tunes against
/// (RocksDB 8.x era defaults; see each field's registry entry).
///
/// # Examples
///
/// ```
/// use lsm_kvs::options::Options;
///
/// let mut opts = Options::default();
/// opts.set_by_name("write_buffer_size", "32MB").unwrap();
/// assert_eq!(opts.write_buffer_size, 32 << 20);
/// assert_eq!(opts.get_by_name("write_buffer_size").unwrap(), "33554432");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    // ---- DBOptions ----
    /// Max concurrent background jobs (flushes + compactions).
    pub max_background_jobs: i64,
    /// Max concurrent compactions; -1 derives from `max_background_jobs`.
    pub max_background_compactions: i64,
    /// Max concurrent flushes; -1 derives from `max_background_jobs`.
    pub max_background_flushes: i64,
    /// Max threads a single compaction may fan out to.
    pub max_subcompactions: i64,
    /// Incremental-sync chunk for SST writes (0 = leave to the OS).
    pub bytes_per_sync: u64,
    /// Incremental-sync chunk for WAL writes (0 = leave to the OS).
    pub wal_bytes_per_sync: u64,
    /// Block writers until incremental syncs complete.
    pub strict_bytes_per_sync: bool,
    /// Write throughput while the controller is in the slowdown regime.
    pub delayed_write_rate: u64,
    /// Pipeline WAL append and memtable insert. Read by the simulator's
    /// write cost only: every commit group is synced before it becomes
    /// reader-visible.
    pub enable_pipelined_write: bool,
    /// Allow concurrent memtable inserts. In real-concurrency mode,
    /// disabling this caps group commit at one batch per group.
    pub allow_concurrent_memtable_write: bool,
    /// Bypass the OS page cache for user reads.
    pub use_direct_reads: bool,
    /// Bypass the OS page cache for flush/compaction I/O.
    pub use_direct_io_for_flush_and_compaction: bool,
    /// Readahead chunk for compaction input reads.
    pub compaction_readahead_size: u64,
    /// Max open table files (-1 = unlimited).
    pub max_open_files: i64,
    /// Total WAL size that forces a memtable switch (0 = derived).
    pub max_total_wal_size: u64,
    /// Global memtable budget across the DB (0 = unlimited).
    pub db_write_buffer_size: u64,
    /// Dump allocator stats to the info log.
    pub dump_malloc_stats: bool,
    /// Seconds between stats dumps to the info log.
    pub stats_dump_period_sec: i64,
    /// Background I/O rate limit in bytes/sec (0 = unlimited).
    pub rate_limiter_bytes_per_sec: u64,
    /// Time-to-live for values in seconds (0 = never expire). While
    /// non-zero, writes carry an 8-byte write-timestamp suffix; reads
    /// treat entries older than the TTL as absent and compaction/flush
    /// physically drop them via the built-in TTL compaction filter.
    /// Mutable online; the current value governs all stamped entries.
    pub ttl_seconds: u64,
    /// Verify checksums aggressively on every read.
    pub paranoid_checks: bool,
    /// fsync instead of fdatasync for durability points.
    pub use_fsync: bool,
    /// Disable the write-ahead log entirely (protected by safeguards).
    pub disable_wal: bool,
    /// Flush the WAL only on explicit request.
    pub manual_wal_flush: bool,
    /// Number of shards (log2) in the table cache.
    pub table_cache_numshardbits: i64,
    /// Avoid flushing memtables during shutdown (protected).
    pub avoid_flush_during_shutdown: bool,
    /// Avoid flushing during recovery.
    pub avoid_flush_during_recovery: bool,
    /// Recycle WAL files instead of deleting.
    pub recycle_log_file_num: i64,
    /// Buffer size for writable files.
    pub writable_file_max_buffer_size: u64,
    /// Threads used to open files on DB open.
    pub max_file_opening_threads: i64,
    /// Adaptive yield before blocking in the write path.
    pub enable_write_thread_adaptive_yield: bool,
    /// WAL compression (accepted, modeled as neutral).
    pub wal_compression: CompressionType,

    // ---- CFOptions ----
    /// Memtable size that triggers a flush.
    pub write_buffer_size: u64,
    /// Max memtables (active + immutable) before stalling.
    pub max_write_buffer_number: i64,
    /// Immutable memtables merged into one L0 file per flush.
    pub min_write_buffer_number_to_merge: i64,
    /// L0 file count that triggers compaction.
    pub level0_file_num_compaction_trigger: i64,
    /// L0 file count that slows writes.
    pub level0_slowdown_writes_trigger: i64,
    /// L0 file count that stops writes.
    pub level0_stop_writes_trigger: i64,
    /// Number of LSM levels.
    pub num_levels: i64,
    /// Target SST size at L1.
    pub target_file_size_base: u64,
    /// Per-level multiplier for target SST size.
    pub target_file_size_multiplier: i64,
    /// Target total bytes at L1.
    pub max_bytes_for_level_base: u64,
    /// Per-level growth factor for level targets.
    pub max_bytes_for_level_multiplier: f64,
    /// Size levels dynamically from the last level up.
    pub level_compaction_dynamic_level_bytes: bool,
    /// Compaction strategy.
    pub compaction_style: CompactionStyle,
    /// Block compression for all levels.
    pub compression: CompressionType,
    /// Override compression for the bottommost level.
    pub bottommost_compression: CompressionType,
    /// Disable automatic compactions (manual only).
    pub disable_auto_compactions: bool,
    /// Memtable bloom filter size as a fraction of `write_buffer_size`.
    pub memtable_prefix_bloom_size_ratio: f64,
    /// Accepted for option-file compatibility and echoed back; the engine
    /// has one memtable and does not read this.
    pub memtable_factory: MemtableRep,
    /// Skip filters on the last level (saves memory for hit-heavy loads).
    pub optimize_filters_for_hits: bool,
    /// Pending-compaction bytes that slow writes.
    pub soft_pending_compaction_bytes_limit: u64,
    /// Pending-compaction bytes that stop writes.
    pub hard_pending_compaction_bytes_limit: u64,
    /// Max bytes a single compaction may span.
    pub max_compaction_bytes: u64,
    /// Report detailed background I/O stats.
    pub report_bg_io_stats: bool,
    /// Universal compaction: max size amplification percent.
    pub universal_max_size_amplification_percent: i64,
    /// Universal compaction: size-ratio tolerance percent.
    pub universal_size_ratio: i64,
    /// Universal compaction: min files merged at once.
    pub universal_min_merge_width: i64,
    /// Universal compaction: max files merged at once.
    pub universal_max_merge_width: i64,
    /// FIFO compaction: total size budget before dropping old files.
    pub fifo_max_table_files_size: u64,
    /// TTL for periodic compaction (accepted, modeled as neutral).
    pub periodic_compaction_seconds: i64,

    // ---- BlockBasedTableOptions ----
    /// Uncompressed data block size.
    pub block_size: u64,
    /// Keys between restart points inside a block.
    pub block_restart_interval: i64,
    /// Bloom filter bits per key (0 = no filter).
    pub bloom_filter_bits_per_key: f64,
    /// Include whole keys in the filter (`false` = build no filter).
    pub whole_key_filtering: bool,
    /// Charge index/filter blocks to the block cache.
    pub cache_index_and_filter_blocks: bool,
    /// Keep L0 index/filter blocks pinned in cache.
    pub pin_l0_filter_and_index_blocks_in_cache: bool,
    /// Block cache capacity in bytes.
    pub block_cache_size: u64,
    /// Disable the block cache entirely.
    pub no_block_cache: bool,

    // ---- Sharding ----
    /// Number of key-range shards (1 = plain single-tree DB).
    pub num_shards: i64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_background_jobs: 2,
            max_background_compactions: -1,
            max_background_flushes: -1,
            max_subcompactions: 1,
            bytes_per_sync: 0,
            wal_bytes_per_sync: 0,
            strict_bytes_per_sync: false,
            delayed_write_rate: 16 << 20,
            enable_pipelined_write: true,
            allow_concurrent_memtable_write: true,
            use_direct_reads: false,
            use_direct_io_for_flush_and_compaction: false,
            compaction_readahead_size: 2 << 20,
            max_open_files: -1,
            max_total_wal_size: 0,
            db_write_buffer_size: 0,
            dump_malloc_stats: true,
            stats_dump_period_sec: 600,
            rate_limiter_bytes_per_sec: 0,
            ttl_seconds: 0,
            paranoid_checks: true,
            use_fsync: false,
            disable_wal: false,
            manual_wal_flush: false,
            table_cache_numshardbits: 6,
            avoid_flush_during_shutdown: false,
            avoid_flush_during_recovery: false,
            recycle_log_file_num: 0,
            writable_file_max_buffer_size: 1 << 20,
            max_file_opening_threads: 16,
            enable_write_thread_adaptive_yield: true,
            wal_compression: CompressionType::None,

            write_buffer_size: 64 << 20,
            max_write_buffer_number: 2,
            min_write_buffer_number_to_merge: 1,
            level0_file_num_compaction_trigger: 4,
            level0_slowdown_writes_trigger: 20,
            level0_stop_writes_trigger: 36,
            num_levels: 7,
            target_file_size_base: 64 << 20,
            target_file_size_multiplier: 1,
            max_bytes_for_level_base: 256 << 20,
            max_bytes_for_level_multiplier: 10.0,
            level_compaction_dynamic_level_bytes: false,
            compaction_style: CompactionStyle::Level,
            compression: CompressionType::Snappy,
            bottommost_compression: CompressionType::None,
            disable_auto_compactions: false,
            memtable_prefix_bloom_size_ratio: 0.0,
            memtable_factory: MemtableRep::BTreeMap,
            optimize_filters_for_hits: false,
            soft_pending_compaction_bytes_limit: 64 << 30,
            hard_pending_compaction_bytes_limit: 256 << 30,
            max_compaction_bytes: (64 << 20) * 25,
            report_bg_io_stats: false,
            universal_max_size_amplification_percent: 200,
            universal_size_ratio: 1,
            universal_min_merge_width: 2,
            universal_max_merge_width: 64,
            fifo_max_table_files_size: 1 << 30,
            periodic_compaction_seconds: 0,

            block_size: 4096,
            block_restart_interval: 16,
            bloom_filter_bits_per_key: 0.0,
            whole_key_filtering: true,
            cache_index_and_filter_blocks: false,
            pin_l0_filter_and_index_blocks_in_cache: false,
            block_cache_size: 8 << 20,
            no_block_cache: false,

            num_shards: 1,
        }
    }
}

impl Options {
    /// Effective number of concurrent compactions.
    pub fn effective_max_compactions(&self) -> usize {
        if self.max_background_compactions > 0 {
            self.max_background_compactions as usize
        } else {
            ((self.max_background_jobs.max(1) as usize) * 3).div_ceil(4).max(1)
        }
    }

    /// Effective number of concurrent flushes.
    pub fn effective_max_flushes(&self) -> usize {
        if self.max_background_flushes > 0 {
            self.max_background_flushes as usize
        } else {
            ((self.max_background_jobs.max(1) as usize) / 4).max(1)
        }
    }

    /// Effective WAL budget before forcing a memtable switch.
    pub fn effective_max_total_wal_size(&self) -> u64 {
        if self.max_total_wal_size > 0 {
            self.max_total_wal_size
        } else {
            self.write_buffer_size
                .saturating_mul(self.max_write_buffer_number.max(1) as u64)
                .saturating_mul(4)
        }
    }

    /// Compression used for the bottommost level.
    pub fn effective_bottommost_compression(&self) -> CompressionType {
        if self.bottommost_compression == CompressionType::None
            && self.compression != CompressionType::None
        {
            // RocksDB semantics: kDisableCompressionOption falls back to
            // `compression`; we treat explicit `none` on the bottom level
            // as "follow the general setting" unless compression is off.
            self.compression
        } else {
            self.bottommost_compression
        }
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ErrorKind::InvalidArgument`](crate::ErrorKind) when a combination of options is
    /// inconsistent (e.g. slowdown trigger above stop trigger).
    pub fn validate(&self) -> Result<()> {
        if self.write_buffer_size == 0 {
            return Err(Error::invalid_argument("write_buffer_size must be positive"));
        }
        if self.max_write_buffer_number < 1 {
            return Err(Error::invalid_argument(
                "max_write_buffer_number must be at least 1",
            ));
        }
        if self.min_write_buffer_number_to_merge > self.max_write_buffer_number {
            return Err(Error::invalid_argument(
                "min_write_buffer_number_to_merge cannot exceed max_write_buffer_number",
            ));
        }
        if self.level0_slowdown_writes_trigger > self.level0_stop_writes_trigger {
            return Err(Error::invalid_argument(
                "level0_slowdown_writes_trigger cannot exceed level0_stop_writes_trigger",
            ));
        }
        if self.level0_file_num_compaction_trigger < 1 {
            return Err(Error::invalid_argument(
                "level0_file_num_compaction_trigger must be at least 1",
            ));
        }
        if self.num_levels < 2 || self.num_levels > 12 {
            return Err(Error::invalid_argument("num_levels must be between 2 and 12"));
        }
        if self.max_bytes_for_level_multiplier < 1.0 {
            return Err(Error::invalid_argument(
                "max_bytes_for_level_multiplier must be at least 1",
            ));
        }
        if self.block_size < 256 || self.block_size > (64 << 20) {
            return Err(Error::invalid_argument(
                "block_size must be between 256B and 64MB",
            ));
        }
        if self.target_file_size_base == 0 {
            return Err(Error::invalid_argument("target_file_size_base must be positive"));
        }
        // Universal-compaction knobs are validated here (not silently
        // clamped in the picker): option files and set_by_name go through
        // the registry ranges, but direct struct construction must be
        // rejected too so the picker can trust its inputs.
        if self.universal_size_ratio < 0 || self.universal_size_ratio > 100 {
            return Err(Error::invalid_argument(
                "universal_size_ratio must be between 0 and 100",
            ));
        }
        if self.universal_min_merge_width < 2 {
            return Err(Error::invalid_argument(
                "universal_min_merge_width must be at least 2",
            ));
        }
        if self.universal_max_merge_width < self.universal_min_merge_width {
            return Err(Error::invalid_argument(
                "universal_max_merge_width cannot be below universal_min_merge_width",
            ));
        }
        if self.universal_max_size_amplification_percent < 1 {
            return Err(Error::invalid_argument(
                "universal_max_size_amplification_percent must be at least 1",
            ));
        }
        if self.num_shards < 1 || self.num_shards > 64 {
            return Err(Error::invalid_argument("num_shards must be between 1 and 64"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        Options::default().validate().unwrap();
    }

    #[test]
    fn derived_background_limits() {
        let mut o = Options::default();
        assert_eq!(o.effective_max_compactions(), 2);
        assert_eq!(o.effective_max_flushes(), 1);
        o.max_background_jobs = 8;
        assert_eq!(o.effective_max_compactions(), 6);
        assert_eq!(o.effective_max_flushes(), 2);
        o.max_background_compactions = 3;
        o.max_background_flushes = 2;
        assert_eq!(o.effective_max_compactions(), 3);
        assert_eq!(o.effective_max_flushes(), 2);
    }

    #[test]
    fn validate_rejects_inverted_triggers() {
        let o = Options {
            level0_slowdown_writes_trigger: 50,
            level0_stop_writes_trigger: 40,
            ..Options::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_write_buffer() {
        let o = Options {
            write_buffer_size: 0,
            ..Options::default()
        };
        assert!(o.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_universal_options() {
        // Regression: these used to be silently clamped inside
        // pick_universal (.max(0) / .max(2)) instead of rejected here.
        let bad = [
            Options { universal_size_ratio: -1, ..Options::default() },
            Options { universal_size_ratio: 101, ..Options::default() },
            Options { universal_min_merge_width: 0, ..Options::default() },
            Options { universal_min_merge_width: 1, ..Options::default() },
            Options {
                universal_min_merge_width: 8,
                universal_max_merge_width: 4,
                ..Options::default()
            },
            Options {
                universal_max_size_amplification_percent: 0,
                ..Options::default()
            },
        ];
        for o in bad {
            assert!(o.validate().is_err(), "expected rejection: {o:?}");
        }
        // Boundary-valid values pass.
        let ok = Options {
            universal_size_ratio: 0,
            universal_min_merge_width: 2,
            universal_max_merge_width: 2,
            universal_max_size_amplification_percent: 1,
            ..Options::default()
        };
        ok.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_shard_counts() {
        assert!(Options { num_shards: 0, ..Options::default() }.validate().is_err());
        assert!(Options { num_shards: 65, ..Options::default() }.validate().is_err());
        Options { num_shards: 64, ..Options::default() }.validate().unwrap();
    }

    #[test]
    fn compaction_style_parsing() {
        assert_eq!(CompactionStyle::parse("kCompactionStyleLevel"), Some(CompactionStyle::Level));
        assert_eq!(CompactionStyle::parse("universal"), Some(CompactionStyle::Universal));
        assert_eq!(CompactionStyle::parse("FIFO"), Some(CompactionStyle::Fifo));
        assert_eq!(CompactionStyle::parse("bogus"), None);
    }

    #[test]
    fn compression_parsing() {
        assert_eq!(CompressionType::parse("kSnappyCompression"), Some(CompressionType::Snappy));
        assert_eq!(CompressionType::parse("none"), Some(CompressionType::None));
        assert_eq!(CompressionType::parse("ZSTD"), Some(CompressionType::Zstd));
        assert_eq!(CompressionType::parse("gzip"), None);
    }

    #[test]
    fn memtable_rep_parsing() {
        assert_eq!(MemtableRep::parse("SkipListFactory"), Some(MemtableRep::SkipList));
        assert_eq!(MemtableRep::parse("skiplist"), Some(MemtableRep::SkipList));
        assert_eq!(MemtableRep::parse("btree"), Some(MemtableRep::BTreeMap));
        assert_eq!(MemtableRep::parse("vector"), None);
    }

    #[test]
    fn bottommost_follows_general_compression() {
        let mut o = Options {
            compression: CompressionType::Zstd,
            ..Options::default()
        };
        assert_eq!(o.effective_bottommost_compression(), CompressionType::Zstd);
        o.compression = CompressionType::None;
        assert_eq!(o.effective_bottommost_compression(), CompressionType::None);
    }

    #[test]
    fn wal_budget_derives_from_buffers() {
        let o = Options::default();
        assert_eq!(o.effective_max_total_wal_size(), (64 << 20) * 2 * 4);
    }
}
