//! The option registry: metadata and string-typed access for every option.
//!
//! The registry is what makes "unrestricted parameter-pool tuning"
//! possible: the tuning framework, the safeguard enforcer, and the
//! rule-based expert model all discover options here rather than
//! hard-coding a subset (the limitation of prior auto-tuners the paper
//! calls out). Each entry carries the RocksDB-compatible name, type,
//! bounds, section, a one-line description, and accessors. The entries
//! are the rows of the option table in `options/mod.rs`, which also
//! declares the `Options` struct and its defaults.

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
    /// One-line human description, also the doc of the option's `Options`
    /// field. Nothing in the engine, the tuner or the prompts reads it.
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

/// A Rust type an option field can have. The registry's kind, the
/// literal parser and the error noun follow from the type, so the option
/// table states none of them.
pub(super) trait OptionValue: Sized {
    /// The kind the registry reports.
    const KIND: OptionKind;
    /// Completes "`name=literal` is not …" for a literal that does not parse.
    const NOUN: &'static str;
    /// Parses a literal.
    fn parse_literal(s: &str) -> Option<Self>;
    /// The value on the number line its range is checked on; `None` for
    /// kinds without a range.
    fn as_f64(&self) -> Option<f64> {
        None
    }
}

impl OptionValue for bool {
    const KIND: OptionKind = OptionKind::Bool;
    const NOUN: &'static str = "a boolean";
    fn parse_literal(s: &str) -> Option<Self> {
        parse_bool(s)
    }
}

impl OptionValue for i64 {
    const KIND: OptionKind = OptionKind::Int;
    const NOUN: &'static str = "an integer";
    fn parse_literal(s: &str) -> Option<Self> {
        let t = s.trim();
        // Tolerate size suffixes on integer options ("max_compaction_bytes=1GB").
        t.parse().ok().or_else(|| parse_size(t).and_then(|v| i64::try_from(v).ok()))
    }
    fn as_f64(&self) -> Option<f64> {
        Some(*self as f64)
    }
}

impl OptionValue for u64 {
    const KIND: OptionKind = OptionKind::Size;
    const NOUN: &'static str = "a byte size";
    fn parse_literal(s: &str) -> Option<Self> {
        parse_size(s)
    }
    fn as_f64(&self) -> Option<f64> {
        Some(*self as f64)
    }
}

impl OptionValue for f64 {
    const KIND: OptionKind = OptionKind::Double;
    const NOUN: &'static str = "a number";
    fn parse_literal(s: &str) -> Option<Self> {
        s.trim().parse::<f64>().ok().filter(|f| f.is_finite())
    }
    fn as_f64(&self) -> Option<f64> {
        Some(*self)
    }
}

impl OptionValue for CompressionType {
    const KIND: OptionKind = OptionKind::Enum(&["none", "snappy", "lz4", "zstd"]);
    const NOUN: &'static str = "a compression type";
    fn parse_literal(s: &str) -> Option<Self> {
        CompressionType::parse(s)
    }
}

impl OptionValue for CompactionStyle {
    const KIND: OptionKind = OptionKind::Enum(&["level", "universal", "fifo"]);
    const NOUN: &'static str = "a compaction style";
    fn parse_literal(s: &str) -> Option<Self> {
        CompactionStyle::parse(s)
    }
}

impl OptionValue for MemtableRep {
    const KIND: OptionKind = OptionKind::Enum(&["btree", "skiplist"]);
    const NOUN: &'static str = "a memtable rep";
    fn parse_literal(s: &str) -> Option<Self> {
        MemtableRep::parse(s)
    }
}

/// Parses `literal` as option `name`'s value and checks it against the
/// option's inclusive range: the one setter every registry row calls.
pub(super) fn parse_checked<T: OptionValue>(
    name: &str,
    literal: &str,
    range: Option<(f64, f64)>,
) -> Result<T> {
    let value = T::parse_literal(literal).ok_or_else(|| {
        Error::invalid_argument(format!("{name}={literal} is not {}", T::NOUN))
    })?;
    if let (Some((lo, hi)), Some(v)) = (range, value.as_f64()) {
        if v < lo || v > hi {
            return Err(Error::invalid_argument(format!(
                "{name}={v} is outside the valid range [{lo}, {hi}]"
            )));
        }
    }
    Ok(value)
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
        let mut v = super::option_rows();
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
