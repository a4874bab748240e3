//! Engine configuration: a RocksDB-compatible option surface.
//!
//! The tuning framework manipulates the engine exclusively through this
//! module. Every option is declared once, as one row of the table below
//! (`options_table!`): its RocksDB name, type, default, ini section, range,
//! mutability, protection, aliases and description. The table expands into
//! the typed [`Options`] struct, its `Default`, and the [`registry`] rows
//! through which the ini codec ([`ini`], RocksDB `OPTIONS` files), the
//! safeguards and the expert model find every option.

pub mod ini;
pub mod registry;

use std::fmt;

use crate::error::{Error, Result};
use registry::{parse_checked, OptionMeta, OptionValue, Section};

/// Value of `compaction_style`. The engine has one compaction style,
/// leveled, and reads this nowhere; all three RocksDB names are kept so
/// option files and proposals that set them still load and echo what
/// they set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompactionStyle {
    /// Leveled compaction (RocksDB `kCompactionStyleLevel`).
    #[default]
    Level,
    /// RocksDB's universal (size-tiered) compaction.
    Universal,
    /// RocksDB's FIFO compaction.
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

/// Value of `memtable_factory`. The engine has one memtable (an append log
/// with a hash index, ordered on demand) and reads this nowhere; both names are
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

/// Expands the option table into the [`Options`] struct (each field
/// documented by its description, then any note the row carries), its
/// `Default`, and `option_rows`, the registry's rows in field order.
///
/// A row reads `field: type = default, section, range, mutability
/// [protected], [aliases,] "description";` where the range is
/// `(lo, hi)` or `-` (booleans and enums have none), and the mutability
/// is `online` (the engine honours a change without reopening) or
/// `reopen`. `protected` puts the option on the safeguards' default
/// blacklist. Kind, parser and error noun follow from the type
/// (`registry::OptionValue`).
macro_rules! options_table {
    (@range -) => { None };
    (@range ($lo:expr, $hi:expr)) => { Some(($lo, $hi)) };
    (@online online) => { true };
    (@online reopen) => { false };
    (@protected) => { false };
    (@protected protected) => { true };
    (
        $(#[$struct_attr:meta])*
        pub struct $name:ident {
            $(
                $($(#[$note:meta])+)?
                $field:ident: $ty:ty = $default:expr,
                    $section:ident, $range:tt, $mutability:ident $($protected:ident)?,
                    $([$($alias:literal),*],)? $description:literal;
            )*
        }
    ) => {
        $(#[$struct_attr])*
        pub struct $name {
            $(
                #[doc = $description]
                $(#[doc = ""] $(#[$note])+)?
                pub $field: $ty,
            )*
        }

        impl Default for $name {
            fn default() -> Self {
                $name { $($field: $default,)* }
            }
        }

        /// One registry row per option, in field order.
        fn option_rows() -> Vec<OptionMeta> {
            vec![$(
                OptionMeta {
                    name: stringify!($field),
                    aliases: &[$($($alias),*)?],
                    section: Section::$section,
                    kind: <$ty as OptionValue>::KIND,
                    range: options_table!(@range $range),
                    mutable_online: options_table!(@online $mutability),
                    protected_by_default: options_table!(@protected $($protected)?),
                    description: $description,
                    get: |o| o.$field.to_string(),
                    set: |o, v| {
                        o.$field = parse_checked(stringify!($field), v, options_table!(@range $range))?;
                        Ok(())
                    },
                },
            )*]
        }
    };
}

const GIB64: f64 = (64u64 << 30) as f64;
const TIB: f64 = (1u64 << 40) as f64;

options_table! {
    /// Full engine configuration with RocksDB-compatible field names.
    ///
    /// Defaults match the `db_bench` baseline the paper tunes against
    /// (RocksDB 8.x era defaults). Each field is one row of the option
    /// table: its doc is the registry's description of it.
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
        max_background_jobs: i64 = 2, Db, (1.0, 64.0), online,
            "Total budget for concurrent background flush and compaction jobs";
        max_background_compactions: i64 = -1, Db, (-1.0, 64.0), online,
            "Concurrent compaction jobs; -1 derives ~3/4 of max_background_jobs";
        max_background_flushes: i64 = -1, Db, (-1.0, 64.0), online,
            "Concurrent flush jobs; -1 derives ~1/4 of max_background_jobs";
        max_subcompactions: i64 = 1, Db, (1.0, 32.0), online,
            "Threads one compaction may split key ranges across";
        bytes_per_sync: u64 = 0, Db, (0.0, GIB64), online,
            "Sync SST file data incrementally every N bytes (0 = leave to OS writeback)";
        wal_bytes_per_sync: u64 = 0, Db, (0.0, GIB64), online,
            "Sync WAL data incrementally every N bytes (0 = leave to OS writeback)";
        strict_bytes_per_sync: bool = false, Db, -, online,
            "Block writers until incremental syncs complete (bounds dirty data, adds write latency)";
        delayed_write_rate: u64 = 16 << 20, Db, (1024.0, GIB64), online,
            "Write throughput cap while the write controller is in the slowdown regime";
        /// Read by the simulator's write cost only: every commit group is
        /// synced before it becomes reader-visible.
        enable_pipelined_write: bool = true, Db, -, reopen,
            "Pipeline WAL append and memtable insert stages of the write path";
        /// Read by the simulator's write cost only: real mode applies a
        /// commit group's memtable inserts on one thread, under the state
        /// lock, whatever the value.
        allow_concurrent_memtable_write: bool = true, Db, -, reopen,
            "Allow multiple writers to insert into the memtable concurrently";
        use_direct_reads: bool = false, Db, -, reopen,
            "Bypass the OS page cache for user reads";
        use_direct_io_for_flush_and_compaction: bool = false, Db, -, reopen,
            "Bypass the OS page cache for background I/O";
        compaction_readahead_size: u64 = 2 << 20, Db, (0.0, (256u64 << 20) as f64), online,
            "Read compaction inputs in sequential chunks of this size (critical on HDDs)";
        /// NOT mutable online: the table cache's reader capacity is fixed
        /// when the cache is constructed at open; a new value would not
        /// resize it until the next reopen.
        max_open_files: i64 = -1, Db, (-1.0, 1_000_000.0), reopen,
            "Table files kept open; -1 = all (avoids reopen cost on reads)";
        max_total_wal_size: u64 = 0, Db, (0.0, TIB), online,
            "Force memtable switch once live WALs exceed this (0 = 4x write buffers)";
        db_write_buffer_size: u64 = 0, Db, (0.0, TIB), online,
            "Global memtable budget across all column families (0 = unlimited)";
        dump_malloc_stats: bool = true, Db, -, online,
            "Dump allocator statistics to the info log (observability only)";
        stats_dump_period_sec: i64 = 600, Db, (0.0, 86_400.0), online,
            "Seconds between statistics dumps to the info log";
        rate_limiter_bytes_per_sec: u64 = 0, Db, (0.0, GIB64), online,
            "Cap background I/O rate to smooth foreground latency (0 = unlimited)";
        /// Accepted for option-file compatibility: values never expire,
        /// and the engine reads this nowhere.
        ttl_seconds: u64 = 0, Db, (0.0, 3_153_600_000.0), online,
            "Expire values this many seconds after write via the TTL compaction \
             filter (0 = never; online changes apply to existing data)";
        paranoid_checks: bool = true, Db, -, reopen,
            "Verify checksums aggressively on every read";
        use_fsync: bool = false, Db, -, reopen,
            "Use fsync instead of fdatasync at durability points";
        disable_wal: bool = false, Db, -, reopen protected, ["disableWAL"],
            "Disable the write-ahead log (unsafe: loses durability; protected)";
        manual_wal_flush: bool = false, Db, -, reopen protected,
            "Flush WAL only on explicit request (unsafe: loses durability; protected)";
        table_cache_numshardbits: i64 = 6, Db, (0.0, 19.0), reopen,
            "Shards (log2) in the table-reader cache";
        avoid_flush_during_shutdown: bool = false, Db, -, reopen protected,
            "Skip flushing memtables at shutdown (unsafe: loses recent writes; protected)";
        avoid_flush_during_recovery: bool = false, Db, -, reopen,
            "Skip flushing replayed memtables right after recovery";
        recycle_log_file_num: i64 = 0, Db, (0.0, 64.0), reopen,
            "Recycle this many WAL files instead of deleting them";
        writable_file_max_buffer_size: u64 = 1 << 20, Db, (4096.0, (64u64 << 20) as f64), reopen,
            "Write buffer size for file appends before hitting the device";
        max_file_opening_threads: i64 = 16, Db, (1.0, 64.0), reopen,
            "Threads used to open table files at DB open";
        enable_write_thread_adaptive_yield: bool = true, Db, -, reopen,
            "Spin briefly before blocking when joining the write group";
        wal_compression: CompressionType = CompressionType::None, Db, -, online,
            "Compress WAL records (accepted; modeled as neutral)";

        // ---- CFOptions ----
        write_buffer_size: u64 = 64 << 20, Cf, (65_536.0, GIB64), online,
            "Memtable size that triggers a flush; bigger absorbs more writes but uses RAM";
        max_write_buffer_number: i64 = 2, Cf, (1.0, 64.0), online,
            "Memtables (active+immutable) kept before writes stall";
        min_write_buffer_number_to_merge: i64 = 1, Cf, (1.0, 16.0), online,
            "Immutable memtables merged into one L0 file per flush";
        level0_file_num_compaction_trigger: i64 = 4, Cf, (1.0, 1000.0), online,
            "L0 file count that triggers L0->L1 compaction";
        level0_slowdown_writes_trigger: i64 = 20, Cf, (1.0, 10_000.0), online,
            "L0 file count at which writes are throttled";
        level0_stop_writes_trigger: i64 = 36, Cf, (1.0, 10_000.0), online,
            "L0 file count at which writes stop entirely";
        num_levels: i64 = 7, Cf, (2.0, 12.0), reopen,
            "Number of LSM levels";
        target_file_size_base: u64 = 64 << 20, Cf, (65_536.0, GIB64), online,
            "Target SST file size at L1";
        target_file_size_multiplier: i64 = 1, Cf, (1.0, 100.0), online,
            "Per-level multiplier applied to target_file_size_base";
        max_bytes_for_level_base: u64 = 256 << 20, Cf, (1_048_576.0, TIB), online,
            "Target total bytes at L1";
        max_bytes_for_level_multiplier: f64 = 10.0, Cf, (1.0, 100.0), online,
            "Growth factor between consecutive level targets";
        level_compaction_dynamic_level_bytes: bool = false, Cf, -, reopen,
            "Size levels dynamically from the last level upward (lower space amplification)";
        /// Accepted for option-file compatibility: the engine has one
        /// compaction style, leveled, and reads this nowhere.
        compaction_style: CompactionStyle = CompactionStyle::Level, Cf, -, reopen,
            "Compaction strategy: leveled, universal (size-tiered), or FIFO";
        compression: CompressionType = CompressionType::Snappy, Cf, -, online,
            "Block compression: trades CPU for smaller files and less write I/O";
        bottommost_compression: CompressionType = CompressionType::None, Cf, -, online,
            "Compression override for the bottommost level";
        disable_auto_compactions: bool = false, Cf, -, online,
            "Disable automatic compactions (manual compaction only)";
        /// Registered so RocksDB option files and the expert's advice
        /// parse; the engine reads it nowhere.
        memtable_prefix_bloom_size_ratio: f64 = 0.0, Cf, (0.0, 0.25), online,
            "Memtable bloom filter size as a fraction of write_buffer_size: accepted \
             for option-file compatibility; the engine has no memtable bloom";
        /// Registered so the safeguard can tell RocksDB's own
        /// `memtable_factory=SkipListFactory` from a hallucinated name;
        /// the engine reads it nowhere.
        memtable_factory: MemtableRep = MemtableRep::BTreeMap, Cf, -, online, ["memtablerep"],
            "Memtable representation: accepted for option-file compatibility; \
             the engine has one memtable";
        optimize_filters_for_hits: bool = false, Cf, -, reopen,
            "Skip bloom filters on the last level to save memory when most reads hit";
        soft_pending_compaction_bytes_limit: u64 = 64 << 30, Cf, (0.0, TIB), online,
            "Pending compaction debt that triggers write slowdown";
        hard_pending_compaction_bytes_limit: u64 = 256 << 30, Cf, (0.0, TIB), online,
            "Pending compaction debt that stops writes";
        max_compaction_bytes: u64 = (64 << 20) * 25, Cf, (1_048_576.0, TIB), online,
            "Maximum bytes one compaction may span";
        report_bg_io_stats: bool = false, Cf, -, online,
            "Collect per-job background I/O statistics";
        /// Accepted for option-file compatibility: the engine has one
        /// compaction style, leveled, and reads this nowhere.
        universal_max_size_amplification_percent: i64 = 200, Cf, (1.0, 10_000.0), online,
            "Universal compaction: allowed space amplification percent";
        /// Accepted for option-file compatibility: the engine has one
        /// compaction style, leveled, and reads this nowhere.
        universal_size_ratio: i64 = 1, Cf, (0.0, 100.0), online,
            "Universal compaction: size-ratio tolerance percent for merging runs";
        /// Accepted for option-file compatibility: the engine has one
        /// compaction style, leveled, and reads this nowhere.
        universal_min_merge_width: i64 = 2, Cf, (2.0, 64.0), online,
            "Universal compaction: minimum runs merged at once";
        /// Accepted for option-file compatibility: the engine has one
        /// compaction style, leveled, and reads this nowhere.
        universal_max_merge_width: i64 = 64, Cf, (2.0, 1024.0), online,
            "Universal compaction: maximum runs merged at once";
        /// Accepted for option-file compatibility: the engine has one
        /// compaction style, leveled, and reads this nowhere.
        fifo_max_table_files_size: u64 = 1 << 30, Cf, (1_048_576.0, TIB), online,
            "FIFO compaction: total size budget before oldest files are dropped";
        periodic_compaction_seconds: i64 = 0, Cf, (0.0, 31_536_000.0), online,
            "Rewrite files older than this (accepted; modeled as neutral)";

        // ---- BlockBasedTableOptions ----
        // Mutable online: the table-build configuration is snapshotted
        // from the live options at job-claim time, so SSTs built after a
        // change use the new value. Files already on disk keep the format
        // they were written with (self-describing), same as compression.
        block_size: u64 = 4096, Table, (256.0, (64u64 << 20) as f64), online,
            "Uncompressed data block size; smaller favours point reads, larger favours scans";
        block_restart_interval: i64 = 16, Table, (1.0, 256.0), online,
            "Keys between restart points inside a block";
        bloom_filter_bits_per_key: f64 = 0.0, Table, (0.0, 40.0), online,
            "Bloom filter bits per key (0 disables; ~10 gives ~1% false positives)";
        /// `false` builds no filter at all.
        whole_key_filtering: bool = true, Table, -, online,
            "Add whole keys to the bloom filter";
        /// Mutable online: consulted on every block access, not baked into
        /// any structure at open.
        cache_index_and_filter_blocks: bool = false, Table, -, online,
            "Charge index/filter blocks to the block cache instead of pinning them";
        pin_l0_filter_and_index_blocks_in_cache: bool = false, Table, -, reopen,
            "Pin L0 index/filter blocks in cache even when charged to it";
        block_cache_size: u64 = 8 << 20, Table, (0.0, TIB), reopen, ["cache_size"],
            "Block cache capacity for uncompressed data blocks";
        no_block_cache: bool = false, Table, -, reopen,
            "Disable the block cache entirely";

        // ---- Sharding (registered under [DBOptions]) ----
        num_shards: i64 = 1, Db, (1.0, 64.0), reopen,
            "Key-range shards, each an independent LSM tree behind one facade (1 = unsharded)";
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
    /// Its bounds are the engine's floors, deliberately looser than the
    /// registry's ranges, which bound what the tuner may set: tests run
    /// `max_bytes_for_level_base` at 256 KiB, below the registry's 1 MiB.
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
