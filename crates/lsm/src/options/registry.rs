//! The option registry: metadata and string-typed access for every option.
//!
//! The registry is what makes "unrestricted parameter-pool tuning"
//! possible: the tuning framework, the safeguard enforcer, and the
//! rule-based expert model all discover options here rather than
//! hard-coding a subset (the limitation of prior auto-tuners the paper
//! calls out). Each entry carries the RocksDB-compatible name, type,
//! bounds, section, a human description (fed to prompts), and accessors.

use std::cmp::Ordering;
use std::sync::OnceLock;

use crate::error::{Error, Result};
use crate::options::{CompactionStyle, CompressionType, MemtableRep, Options};

/// The ini-file section an option belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Section {
    /// `[DBOptions]` — database-wide.
    Db,
    /// `[CFOptions "default"]` — per column family.
    Cf,
    /// `[TableOptions/BlockBasedTable "default"]`.
    Table,
}

impl Section {
    /// The ini header for this section.
    pub fn ini_header(self) -> &'static str {
        match self {
            Section::Db => "[DBOptions]",
            Section::Cf => "[CFOptions \"default\"]",
            Section::Table => "[TableOptions/BlockBasedTable \"default\"]",
        }
    }
}

/// The value type of an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionKind {
    /// `true` / `false`.
    Bool,
    /// Signed integer (may allow -1 sentinels).
    Int,
    /// Byte size; accepts suffixed literals like `64MB`.
    Size,
    /// Floating point.
    Double,
    /// One of a fixed set of names.
    Enum(&'static [&'static str]),
}

/// Metadata plus accessors for one option.
pub struct OptionMeta {
    /// RocksDB-compatible option name.
    pub name: &'static str,
    /// Alternate names accepted on input (e.g. `cache_size`).
    pub aliases: &'static [&'static str],
    /// Ini section.
    pub section: Section,
    /// Value type.
    pub kind: OptionKind,
    /// Inclusive numeric bounds, when applicable.
    pub range: Option<(f64, f64)>,
    /// Whether the engine honours changes without reopening the DB.
    pub mutable_online: bool,
    /// Whether safeguards protect this option from LLM modification by
    /// default (paper: "disallow of journaling or logging").
    pub protected_by_default: bool,
    /// One-line description used in documentation and prompts.
    pub description: &'static str,
    /// Reads the current value as a canonical string.
    pub get: fn(&Options) -> String,
    /// Parses and stores a value.
    pub set: fn(&mut Options, &str) -> Result<()>,
}

impl std::fmt::Debug for OptionMeta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptionMeta")
            .field("name", &self.name)
            .field("section", &self.section)
            .field("kind", &self.kind)
            .field("range", &self.range)
            .finish_non_exhaustive()
    }
}

/// A recognized-but-retired option and what to do about it.
#[derive(Debug, Clone, Copy)]
pub struct DeprecatedOption {
    /// The retired name.
    pub name: &'static str,
    /// Option it maps onto, if a safe remap exists.
    pub remap_to: Option<&'static str>,
    /// Human note explaining the retirement.
    pub note: &'static str,
}

/// Parses a boolean literal (`true`/`false`/`1`/`0`/`yes`/`no`).
pub fn parse_bool(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "true" | "1" | "yes" | "on" => Some(true),
        "false" | "0" | "no" | "off" => Some(false),
        _ => None,
    }
}

/// Parses a byte-size literal: raw integers plus `K`/`M`/`G`/`T`
/// suffixes with optional `B`/`iB` (e.g. `64MB`, `4 KiB`, `1g`).
pub fn parse_size(s: &str) -> Option<u64> {
    let t = s.trim().replace('_', "");
    if t.is_empty() {
        return None;
    }
    let lower = t.to_ascii_lowercase();
    let (num_part, mult) = if let Some(stripped) = strip_size_suffix(&lower, &["tib", "tb", "t"]) {
        (stripped, 1u64 << 40)
    } else if let Some(stripped) = strip_size_suffix(&lower, &["gib", "gb", "g"]) {
        (stripped, 1u64 << 30)
    } else if let Some(stripped) = strip_size_suffix(&lower, &["mib", "mb", "m"]) {
        (stripped, 1u64 << 20)
    } else if let Some(stripped) = strip_size_suffix(&lower, &["kib", "kb", "k"]) {
        (stripped, 1u64 << 10)
    } else if let Some(stripped) = strip_size_suffix(&lower, &["b"]) {
        (stripped, 1)
    } else {
        (lower.as_str().to_string(), 1)
    };
    let num_part = num_part.trim();
    if num_part.is_empty() {
        return None;
    }
    if let Ok(v) = num_part.parse::<u64>() {
        return Some(v.saturating_mul(mult));
    }
    // Allow fractional sizes like "0.5GB".
    if let Ok(f) = num_part.parse::<f64>() {
        if f >= 0.0 && f.is_finite() {
            return Some((f * mult as f64).round() as u64);
        }
    }
    None
}

fn strip_size_suffix(s: &str, suffixes: &[&str]) -> Option<String> {
    for suf in suffixes {
        if let Some(stripped) = s.strip_suffix(suf) {
            // Guard against stripping the "b" of a bare hex-ish token.
            if !stripped.is_empty() && stripped.chars().all(|c| c.is_ascii_digit() || c == '.' || c == ' ')
            {
                return Some(stripped.to_string());
            }
        }
    }
    None
}

fn parse_int(s: &str) -> Option<i64> {
    let t = s.trim();
    if let Ok(v) = t.parse::<i64>() {
        return Some(v);
    }
    // Tolerate size suffixes on integer options ("max_compaction_bytes=1GB").
    parse_size(t).and_then(|v| i64::try_from(v).ok())
}

fn parse_double(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok().filter(|f| f.is_finite())
}

fn check_range(name: &str, v: f64, range: Option<(f64, f64)>) -> Result<()> {
    if let Some((lo, hi)) = range {
        if v < lo || v > hi {
            return Err(Error::invalid_argument(format!(
                "{name}={v} is outside the valid range [{lo}, {hi}]"
            )));
        }
    }
    Ok(())
}

macro_rules! opt_bool {
    ($field:ident, $section:expr, $mutable:expr, $protected:expr, $desc:expr) => {
        OptionMeta {
            name: stringify!($field),
            aliases: &[],
            section: $section,
            kind: OptionKind::Bool,
            range: None,
            mutable_online: $mutable,
            protected_by_default: $protected,
            description: $desc,
            get: |o| o.$field.to_string(),
            set: |o, v| {
                o.$field = parse_bool(v).ok_or_else(|| {
                    Error::invalid_argument(format!(
                        concat!(stringify!($field), "={} is not a boolean"),
                        v
                    ))
                })?;
                Ok(())
            },
        }
    };
}

macro_rules! opt_int {
    ($field:ident, $section:expr, $range:expr, $mutable:expr, $desc:expr) => {
        OptionMeta {
            name: stringify!($field),
            aliases: &[],
            section: $section,
            kind: OptionKind::Int,
            range: Some($range),
            mutable_online: $mutable,
            protected_by_default: false,
            description: $desc,
            get: |o| o.$field.to_string(),
            set: |o, v| {
                let parsed = parse_int(v).ok_or_else(|| {
                    Error::invalid_argument(format!(
                        concat!(stringify!($field), "={} is not an integer"),
                        v
                    ))
                })?;
                check_range(stringify!($field), parsed as f64, Some($range))?;
                o.$field = parsed;
                Ok(())
            },
        }
    };
}

macro_rules! opt_size {
    ($field:ident, $section:expr, $range:expr, $mutable:expr, $desc:expr) => {
        opt_size!($field, &[], $section, $range, $mutable, $desc)
    };
    ($field:ident, $aliases:expr, $section:expr, $range:expr, $mutable:expr, $desc:expr) => {
        OptionMeta {
            name: stringify!($field),
            aliases: $aliases,
            section: $section,
            kind: OptionKind::Size,
            range: Some($range),
            mutable_online: $mutable,
            protected_by_default: false,
            description: $desc,
            get: |o| o.$field.to_string(),
            set: |o, v| {
                let parsed = parse_size(v).ok_or_else(|| {
                    Error::invalid_argument(format!(
                        concat!(stringify!($field), "={} is not a byte size"),
                        v
                    ))
                })?;
                check_range(stringify!($field), parsed as f64, Some($range))?;
                o.$field = parsed;
                Ok(())
            },
        }
    };
}

macro_rules! opt_double {
    ($field:ident, $section:expr, $range:expr, $mutable:expr, $desc:expr) => {
        OptionMeta {
            name: stringify!($field),
            aliases: &[],
            section: $section,
            kind: OptionKind::Double,
            range: Some($range),
            mutable_online: $mutable,
            protected_by_default: false,
            description: $desc,
            get: |o| format!("{}", o.$field),
            set: |o, v| {
                let parsed = parse_double(v).ok_or_else(|| {
                    Error::invalid_argument(format!(
                        concat!(stringify!($field), "={} is not a number"),
                        v
                    ))
                })?;
                check_range(stringify!($field), parsed, Some($range))?;
                o.$field = parsed;
                Ok(())
            },
        }
    };
}

macro_rules! opt_compression {
    ($field:ident, $section:expr, $desc:expr) => {
        OptionMeta {
            name: stringify!($field),
            aliases: &[],
            section: $section,
            kind: OptionKind::Enum(&["none", "snappy", "lz4", "zstd"]),
            range: None,
            mutable_online: true,
            protected_by_default: false,
            description: $desc,
            get: |o| o.$field.to_string(),
            set: |o, v| {
                o.$field = CompressionType::parse(v).ok_or_else(|| {
                    Error::invalid_argument(format!(
                        concat!(stringify!($field), "={} is not a compression type"),
                        v
                    ))
                })?;
                Ok(())
            },
        }
    };
}

const GIB64: f64 = (64u64 << 30) as f64;
const TIB: f64 = (1u64 << 40) as f64;

fn build_registry() -> Vec<OptionMeta> {
    use Section::{Cf, Db, Table};
    vec![
        // ---------------- DBOptions ----------------
        opt_int!(max_background_jobs, Db, (1.0, 64.0), true,
            "Total budget for concurrent background flush and compaction jobs"),
        opt_int!(max_background_compactions, Db, (-1.0, 64.0), true,
            "Concurrent compaction jobs; -1 derives ~3/4 of max_background_jobs"),
        opt_int!(max_background_flushes, Db, (-1.0, 64.0), true,
            "Concurrent flush jobs; -1 derives ~1/4 of max_background_jobs"),
        opt_int!(max_subcompactions, Db, (1.0, 32.0), true,
            "Threads one compaction may split key ranges across"),
        opt_size!(bytes_per_sync, Db, (0.0, GIB64), true,
            "Sync SST file data incrementally every N bytes (0 = leave to OS writeback)"),
        opt_size!(wal_bytes_per_sync, Db, (0.0, GIB64), true,
            "Sync WAL data incrementally every N bytes (0 = leave to OS writeback)"),
        opt_bool!(strict_bytes_per_sync, Db, true, false,
            "Block writers until incremental syncs complete (bounds dirty data, adds write latency)"),
        opt_size!(delayed_write_rate, Db, (1024.0, GIB64), true,
            "Write throughput cap while the write controller is in the slowdown regime"),
        opt_bool!(enable_pipelined_write, Db, false, false,
            "Pipeline WAL append and memtable insert stages of the write path"),
        opt_bool!(allow_concurrent_memtable_write, Db, false, false,
            "Allow multiple writers to insert into the memtable concurrently \
             (real mode: off caps commit groups at a single batch)"),
        opt_bool!(use_direct_reads, Db, false, false,
            "Bypass the OS page cache for user reads"),
        opt_bool!(use_direct_io_for_flush_and_compaction, Db, false, false,
            "Bypass the OS page cache for background I/O"),
        opt_size!(compaction_readahead_size, Db, (0.0, (256u64 << 20) as f64), true,
            "Read compaction inputs in sequential chunks of this size (critical on HDDs)"),
        // NOT mutable online: the TableCache's reader capacity is fixed
        // when the cache is constructed at open; a new value would not
        // resize it until the next reopen.
        opt_int!(max_open_files, Db, (-1.0, 1_000_000.0), false,
            "Table files kept open; -1 = all (avoids reopen cost on reads)"),
        opt_size!(max_total_wal_size, Db, (0.0, TIB), true,
            "Force memtable switch once live WALs exceed this (0 = 4x write buffers)"),
        opt_size!(db_write_buffer_size, Db, (0.0, TIB), true,
            "Global memtable budget across all column families (0 = unlimited)"),
        opt_bool!(dump_malloc_stats, Db, true, false,
            "Dump allocator statistics to the info log (observability only)"),
        opt_int!(stats_dump_period_sec, Db, (0.0, 86_400.0), true,
            "Seconds between statistics dumps to the info log"),
        opt_size!(rate_limiter_bytes_per_sec, Db, (0.0, GIB64), true,
            "Cap background I/O rate to smooth foreground latency (0 = unlimited)"),
        opt_size!(ttl_seconds, Db, (0.0, 3_153_600_000.0), true,
            "Expire values this many seconds after write via the TTL compaction \
             filter (0 = never; online changes apply to existing data)"),
        opt_bool!(paranoid_checks, Db, false, false,
            "Verify checksums aggressively on every read"),
        opt_bool!(use_fsync, Db, false, false,
            "Use fsync instead of fdatasync at durability points"),
        OptionMeta {
            name: "disable_wal",
            aliases: &["disableWAL"],
            section: Db,
            kind: OptionKind::Bool,
            range: None,
            mutable_online: false,
            protected_by_default: true,
            description: "Disable the write-ahead log (unsafe: loses durability; protected)",
            get: |o| o.disable_wal.to_string(),
            set: |o, v| {
                o.disable_wal = parse_bool(v)
                    .ok_or_else(|| Error::invalid_argument(format!("disable_wal={v} is not a boolean")))?;
                Ok(())
            },
        },
        opt_bool!(manual_wal_flush, Db, false, true,
            "Flush WAL only on explicit request (unsafe: loses durability; protected)"),
        opt_int!(table_cache_numshardbits, Db, (0.0, 19.0), false,
            "Shards (log2) in the table-reader cache"),
        opt_bool!(avoid_flush_during_shutdown, Db, false, true,
            "Skip flushing memtables at shutdown (unsafe: loses recent writes; protected)"),
        opt_bool!(avoid_flush_during_recovery, Db, false, false,
            "Skip flushing replayed memtables right after recovery"),
        opt_int!(recycle_log_file_num, Db, (0.0, 64.0), false,
            "Recycle this many WAL files instead of deleting them"),
        opt_size!(writable_file_max_buffer_size, Db, (4096.0, (64u64 << 20) as f64), false,
            "Write buffer size for file appends before hitting the device"),
        opt_int!(max_file_opening_threads, Db, (1.0, 64.0), false,
            "Threads used to open table files at DB open"),
        opt_bool!(enable_write_thread_adaptive_yield, Db, false, false,
            "Spin briefly before blocking when joining the write group"),
        opt_compression!(wal_compression, Db,
            "Compress WAL records (accepted; modeled as neutral)"),
        opt_int!(num_shards, Db, (1.0, 64.0), false,
            "Key-range shards, each an independent LSM tree behind one facade (1 = unsharded)"),
        // ---------------- CFOptions ----------------
        opt_size!(write_buffer_size, Cf, (65_536.0, GIB64), true,
            "Memtable size that triggers a flush; bigger absorbs more writes but uses RAM"),
        opt_int!(max_write_buffer_number, Cf, (1.0, 64.0), true,
            "Memtables (active+immutable) kept before writes stall"),
        opt_int!(min_write_buffer_number_to_merge, Cf, (1.0, 16.0), true,
            "Immutable memtables merged into one L0 file per flush"),
        opt_int!(level0_file_num_compaction_trigger, Cf, (1.0, 1000.0), true,
            "L0 file count that triggers L0->L1 compaction"),
        opt_int!(level0_slowdown_writes_trigger, Cf, (1.0, 10_000.0), true,
            "L0 file count at which writes are throttled"),
        opt_int!(level0_stop_writes_trigger, Cf, (1.0, 10_000.0), true,
            "L0 file count at which writes stop entirely"),
        opt_int!(num_levels, Cf, (2.0, 12.0), false,
            "Number of LSM levels"),
        opt_size!(target_file_size_base, Cf, (65_536.0, GIB64), true,
            "Target SST file size at L1"),
        opt_int!(target_file_size_multiplier, Cf, (1.0, 100.0), true,
            "Per-level multiplier applied to target_file_size_base"),
        opt_size!(max_bytes_for_level_base, Cf, (1_048_576.0, TIB), true,
            "Target total bytes at L1"),
        opt_double!(max_bytes_for_level_multiplier, Cf, (1.0, 100.0), true,
            "Growth factor between consecutive level targets"),
        opt_bool!(level_compaction_dynamic_level_bytes, Cf, false, false,
            "Size levels dynamically from the last level upward (lower space amplification)"),
        OptionMeta {
            name: "compaction_style",
            aliases: &[],
            section: Cf,
            kind: OptionKind::Enum(&["level", "universal", "fifo"]),
            range: None,
            mutable_online: false,
            protected_by_default: false,
            description: "Compaction strategy: leveled, universal (size-tiered), or FIFO",
            get: |o| o.compaction_style.to_string(),
            set: |o, v| {
                o.compaction_style = CompactionStyle::parse(v).ok_or_else(|| {
                    Error::invalid_argument(format!("compaction_style={v} is not a compaction style"))
                })?;
                Ok(())
            },
        },
        opt_compression!(compression, Cf,
            "Block compression: trades CPU for smaller files and less write I/O"),
        opt_compression!(bottommost_compression, Cf,
            "Compression override for the bottommost level"),
        opt_bool!(disable_auto_compactions, Cf, true, false,
            "Disable automatic compactions (manual compaction only)"),
        opt_double!(memtable_prefix_bloom_size_ratio, Cf, (0.0, 0.25), true,
            "Memtable bloom filter size as a fraction of write_buffer_size"),
        // Recognised so the safeguard can tell RocksDB's own
        // `memtable_factory=SkipListFactory` from a hallucinated name.
        OptionMeta {
            name: "memtable_factory",
            aliases: &["memtablerep"],
            section: Cf,
            kind: OptionKind::Enum(&["btree", "skiplist"]),
            range: None,
            mutable_online: true,
            protected_by_default: false,
            description: "Memtable representation: accepted for option-file compatibility; \
                          the engine has one memtable",
            get: |o| o.memtable_factory.to_string(),
            set: |o, v| {
                o.memtable_factory = MemtableRep::parse(v).ok_or_else(|| {
                    Error::invalid_argument(format!("memtable_factory={v} is not a memtable rep"))
                })?;
                Ok(())
            },
        },
        opt_bool!(optimize_filters_for_hits, Cf, false, false,
            "Skip bloom filters on the last level to save memory when most reads hit"),
        opt_size!(soft_pending_compaction_bytes_limit, Cf, (0.0, TIB), true,
            "Pending compaction debt that triggers write slowdown"),
        opt_size!(hard_pending_compaction_bytes_limit, Cf, (0.0, TIB), true,
            "Pending compaction debt that stops writes"),
        opt_size!(max_compaction_bytes, Cf, (1_048_576.0, TIB), true,
            "Maximum bytes one compaction may span"),
        opt_bool!(report_bg_io_stats, Cf, true, false,
            "Collect per-job background I/O statistics"),
        opt_int!(universal_max_size_amplification_percent, Cf, (1.0, 10_000.0), true,
            "Universal compaction: allowed space amplification percent"),
        opt_int!(universal_size_ratio, Cf, (0.0, 100.0), true,
            "Universal compaction: size-ratio tolerance percent for merging runs"),
        opt_int!(universal_min_merge_width, Cf, (2.0, 64.0), true,
            "Universal compaction: minimum runs merged at once"),
        opt_int!(universal_max_merge_width, Cf, (2.0, 1024.0), true,
            "Universal compaction: maximum runs merged at once"),
        opt_size!(fifo_max_table_files_size, Cf, (1_048_576.0, TIB), true,
            "FIFO compaction: total size budget before oldest files are dropped"),
        opt_int!(periodic_compaction_seconds, Cf, (0.0, 31_536_000.0), true,
            "Rewrite files older than this (accepted; modeled as neutral)"),
        // ---------------- BlockBasedTableOptions ----------------
        // Mutable online: the table-build configuration is snapshotted
        // from the live options at job-claim time, so SSTs built after a
        // change use the new value. Files already on disk keep the format
        // they were written with (self-describing), same as compression.
        opt_size!(block_size, Table, (256.0, (64u64 << 20) as f64), true,
            "Uncompressed data block size; smaller favours point reads, larger favours scans"),
        opt_int!(block_restart_interval, Table, (1.0, 256.0), true,
            "Keys between restart points inside a block"),
        opt_double!(bloom_filter_bits_per_key, Table, (0.0, 40.0), true,
            "Bloom filter bits per key (0 disables; ~10 gives ~1% false positives)"),
        opt_bool!(whole_key_filtering, Table, true, false,
            "Add whole keys to the bloom filter"),
        // Mutable online: consulted on every block access, not baked into
        // any structure at open.
        opt_bool!(cache_index_and_filter_blocks, Table, true, false,
            "Charge index/filter blocks to the block cache instead of pinning them"),
        opt_bool!(pin_l0_filter_and_index_blocks_in_cache, Table, false, false,
            "Pin L0 index/filter blocks in cache even when charged to it"),
        opt_size!(block_cache_size, &["cache_size"], Table, (0.0, TIB), false,
            "Block cache capacity for uncompressed data blocks"),
        opt_bool!(no_block_cache, Table, false, false,
            "Disable the block cache entirely"),
    ]
}

/// Names the framework recognizes but does not take: real RocksDB names
/// retired upstream or naming something this engine does not model, and
/// `shard_bytes_soft_limit`, which earlier option files of this engine
/// carry. The paper notes LLMs "can unnecessarily focus" on such options,
/// so these must parse and be reported, not crash.
pub const DEPRECATED_OPTIONS: &[DeprecatedOption] = &[
    DeprecatedOption {
        name: "base_background_compactions",
        remap_to: Some("max_background_compactions"),
        note: "merged into max_background_compactions / max_background_jobs",
    },
    DeprecatedOption {
        name: "max_mem_compaction_level",
        remap_to: None,
        note: "removed; memtable flushes always target L0",
    },
    DeprecatedOption {
        name: "soft_rate_limit",
        remap_to: None,
        note: "removed; use delayed_write_rate and the pending-compaction limits",
    },
    DeprecatedOption {
        name: "hard_rate_limit",
        remap_to: None,
        note: "removed; use hard_pending_compaction_bytes_limit",
    },
    DeprecatedOption {
        name: "rate_limit_delay_max_milliseconds",
        remap_to: None,
        note: "removed along with the old rate limits",
    },
    DeprecatedOption {
        name: "skip_log_error_on_recovery",
        remap_to: None,
        note: "removed; recovery is always strict",
    },
    DeprecatedOption {
        name: "purge_redundant_kvs_while_flush",
        remap_to: None,
        note: "removed; flush always drops shadowed entries",
    },
    DeprecatedOption {
        name: "db_log_dir",
        remap_to: None,
        note: "info-log placement is not modeled",
    },
    DeprecatedOption {
        name: "index_type",
        remap_to: None,
        note: "partitioned index is not modelled; every table has one flat index block",
    },
    DeprecatedOption {
        name: "shard_bytes_soft_limit",
        remap_to: None,
        note: "shards no longer charge each other's compaction debt; each stalls on its own",
    },
    DeprecatedOption {
        name: "metadata_block_size",
        remap_to: None,
        note: "partitioned index is not modelled; every table has one flat index block",
    },
];

/// All registered options, sorted by (section, name).
pub fn all_options() -> &'static [OptionMeta] {
    static REGISTRY: OnceLock<Vec<OptionMeta>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut v = build_registry();
        v.sort_by(|a, b| match (a.section as u8).cmp(&(b.section as u8)) {
            Ordering::Equal => a.name.cmp(b.name),
            o => o,
        });
        v
    })
}

/// Looks up an option by name or alias (case-insensitive).
pub fn find_option(name: &str) -> Option<&'static OptionMeta> {
    let needle = name.trim();
    all_options().iter().find(|m| {
        m.name.eq_ignore_ascii_case(needle)
            || m.aliases.iter().any(|a| a.eq_ignore_ascii_case(needle))
    })
}

/// Looks up a deprecated option by name (case-insensitive).
pub fn find_deprecated(name: &str) -> Option<&'static DeprecatedOption> {
    let needle = name.trim();
    DEPRECATED_OPTIONS
        .iter()
        .find(|d| d.name.eq_ignore_ascii_case(needle))
}

/// The registered option a name stands for: its own entry, or the remap
/// target of a deprecated name. A deprecated name without a remap and an
/// unknown name are both `InvalidArgument`, worded differently.
fn resolve(name: &str) -> Result<&'static OptionMeta> {
    if let Some(meta) = find_option(name) {
        return Ok(meta);
    }
    match find_deprecated(name) {
        Some(DeprecatedOption { remap_to: Some(target), .. }) => resolve(target),
        Some(dep) => Err(Error::invalid_argument(format!(
            "option {name} is deprecated: {}",
            dep.note
        ))),
        None => Err(Error::invalid_argument(format!("unknown option: {name}"))),
    }
}

impl Options {
    /// Reads an option's current value as its canonical string.
    pub fn get_by_name(&self, name: &str) -> Option<String> {
        find_option(name).map(|m| (m.get)(self))
    }

    /// Parses and stores an option value by name.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::InvalidArgument`](crate::ErrorKind) if the option is unknown, deprecated
    /// without a remap, fails to parse, or is out of range.
    pub fn set_by_name(&mut self, name: &str, value: &str) -> Result<()> {
        (resolve(name)?.set)(self, value)
    }

    /// This configuration with `changes` applied the way a running
    /// database takes them (`Db::set_options`, `ShardedDb::set_options`
    /// and through them the SetOptions RPC): names resolve as in
    /// [`set_by_name`](Self::set_by_name), every target must be
    /// `mutable_online`, and the result must pass [`Options::validate`].
    ///
    /// # Errors
    ///
    /// [`ErrorKind::InvalidArgument`](crate::ErrorKind) naming the
    /// offending option; `self` is untouched either way.
    pub fn with_online_changes<K: AsRef<str>, V: AsRef<str>>(
        &self,
        changes: &[(K, V)],
    ) -> Result<Options> {
        let mut next = self.clone();
        for (name, value) in changes {
            let meta = resolve(name.as_ref())?;
            if !meta.mutable_online {
                return Err(Error::invalid_argument(format!(
                    "option {} is not mutable online; it requires a reopen",
                    meta.name
                )));
            }
            (meta.set)(&mut next, value.as_ref())?;
        }
        next.validate()?;
        Ok(next)
    }

    /// Lists `(name, from, to)` for every option that differs from `other`.
    pub fn diff(&self, other: &Options) -> Vec<(String, String, String)> {
        all_options()
            .iter()
            .filter_map(|m| {
                let a = (m.get)(self);
                let b = (m.get)(other);
                if a != b {
                    Some((m.name.to_string(), a, b))
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_many_options() {
        // The paper's premise: "often exceeding 100" total parameters; we
        // register the meaningful core of that surface.
        assert!(all_options().len() >= 60, "got {}", all_options().len());
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<_> = all_options().iter().map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn every_table5_option_is_registered() {
        // The 15 options the paper shows GPT-4 tuning in Table 5.
        for name in [
            "max_background_flushes",
            "wal_bytes_per_sync",
            "bytes_per_sync",
            "strict_bytes_per_sync",
            "max_background_compactions",
            "dump_malloc_stats",
            "enable_pipelined_write",
            "max_bytes_for_level_multiplier",
            "max_write_buffer_number",
            "compaction_readahead_size",
            "max_background_jobs",
            "target_file_size_base",
            "write_buffer_size",
            "level0_file_num_compaction_trigger",
            "min_write_buffer_number_to_merge",
        ] {
            assert!(find_option(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn get_set_roundtrip_every_option() {
        let mut opts = Options::default();
        for meta in all_options() {
            let current = (meta.get)(&opts);
            (meta.set)(&mut opts, &current).unwrap_or_else(|e| {
                panic!("option {} rejected its own default {current}: {e}", meta.name)
            });
            assert_eq!((meta.get)(&opts), current, "{} drifted", meta.name);
        }
    }

    #[test]
    fn size_literals_parse() {
        assert_eq!(parse_size("67108864"), Some(67_108_864));
        assert_eq!(parse_size("64MB"), Some(64 << 20));
        assert_eq!(parse_size("64 MiB"), Some(64 << 20));
        assert_eq!(parse_size("1g"), Some(1 << 30));
        assert_eq!(parse_size("0.5GB"), Some(1 << 29));
        assert_eq!(parse_size("4k"), Some(4096));
        assert_eq!(parse_size("512B"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("lots"), None);
    }

    #[test]
    fn set_by_name_validates_range() {
        let mut opts = Options::default();
        let err = opts.set_by_name("max_background_jobs", "9999").unwrap_err();
        assert!(err.to_string().contains("outside the valid range"));
        let err = opts.set_by_name("bloom_filter_bits_per_key", "-3").unwrap_err();
        assert!(err.to_string().contains("outside the valid range"));
    }

    #[test]
    fn set_by_name_handles_aliases_and_case() {
        let mut opts = Options::default();
        opts.set_by_name("cache_size", "128MB").unwrap();
        assert_eq!(opts.block_cache_size, 128 << 20);
        opts.set_by_name("WRITE_BUFFER_SIZE", "16mb").unwrap();
        assert_eq!(opts.write_buffer_size, 16 << 20);
    }

    #[test]
    fn deprecated_options_remap_or_explain() {
        let mut opts = Options::default();
        opts.set_by_name("base_background_compactions", "4").unwrap();
        assert_eq!(opts.max_background_compactions, 4);
        let err = opts.set_by_name("soft_rate_limit", "0.5").unwrap_err();
        assert!(err.to_string().contains("deprecated"));
    }

    #[test]
    fn unknown_option_is_rejected() {
        let mut opts = Options::default();
        let err = opts.set_by_name("write_buffer_magic", "1").unwrap_err();
        assert!(err.to_string().contains("unknown option"));
    }

    #[test]
    fn diff_reports_changes() {
        let a = Options::default();
        let mut b = Options::default();
        b.set_by_name("write_buffer_size", "32MB").unwrap();
        b.set_by_name("compression", "zstd").unwrap();
        let diff = a.diff(&b);
        assert_eq!(diff.len(), 2);
        assert!(diff.iter().any(|(n, from, to)| n == "write_buffer_size"
            && from == "67108864"
            && to == "33554432"));
    }

    #[test]
    fn protected_options_marked() {
        assert!(find_option("disable_wal").unwrap().protected_by_default);
        assert!(find_option("avoid_flush_during_shutdown").unwrap().protected_by_default);
        assert!(!find_option("write_buffer_size").unwrap().protected_by_default);
    }

    #[test]
    fn enum_options_parse_rocksdb_names() {
        let mut opts = Options::default();
        opts.set_by_name("compression", "kZSTDCompression").unwrap();
        assert_eq!(opts.compression, CompressionType::Zstd);
        opts.set_by_name("compaction_style", "kCompactionStyleUniversal").unwrap();
        assert_eq!(opts.compaction_style, CompactionStyle::Universal);
        opts.set_by_name("memtable_factory", "SkipListFactory").unwrap();
        assert_eq!(opts.memtable_factory, crate::options::MemtableRep::SkipList);
    }

    #[test]
    fn memtable_factory_registers_and_rejects_garbage() {
        let mut opts = Options::default();
        assert!(opts.set_by_name("memtable_factory", "vector").is_err());
        assert!(find_option("memtable_factory").unwrap().mutable_online);
    }
}
