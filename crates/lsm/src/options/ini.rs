//! RocksDB `OPTIONS`-file-style ini serialization.
//!
//! The tuning loop passes configurations around as ini text — the same
//! "common language" the paper's framework uses between the LLM and the
//! store. The format mirrors RocksDB's `OPTIONS-NNNN` files:
//!
//! ```ini
//! [DBOptions]
//!   max_background_jobs=2
//! [CFOptions "default"]
//!   write_buffer_size=67108864
//! [TableOptions/BlockBasedTable "default"]
//!   block_size=4096
//! ```

use crate::error::{Error, Result};
use crate::options::registry::{all_options, Section};
use crate::options::Options;

/// Serializes the full option set to ini text, grouped by section.
pub fn to_ini(opts: &Options) -> String {
    let mut out = String::new();
    for section in [Section::Db, Section::Cf, Section::Table] {
        out.push_str(section.ini_header());
        out.push('\n');
        for meta in all_options().iter().filter(|m| m.section == section) {
            out.push_str("  ");
            out.push_str(meta.name);
            out.push('=');
            out.push_str(&(meta.get)(opts));
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// The outcome of parsing ini text: the options that applied plus
/// anything that could not be applied (unknown names, bad values).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IniParseOutcome {
    /// `(name, value)` pairs successfully applied.
    pub applied: Vec<(String, String)>,
    /// `(name, value, reason)` triples that were rejected.
    pub rejected: Vec<(String, String, String)>,
}

/// Parses ini text into `opts`, applying every recognized `key=value`.
///
/// Unknown sections are tolerated (RocksDB files carry a `[Version]`
/// section). Unknown or invalid entries are reported in the outcome
/// rather than failing the whole parse — the safeguard layer decides what
/// to do about them.
pub fn apply_ini(opts: &mut Options, text: &str) -> IniParseOutcome {
    let mut outcome = IniParseOutcome::default();
    for raw_line in text.lines() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') || line.starts_with('[')
        {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim().trim_matches('"');
        match opts.set_by_name(key, value) {
            Ok(()) => outcome.applied.push((key.to_string(), value.to_string())),
            Err(e) => outcome
                .rejected
                .push((key.to_string(), value.to_string(), e.to_string())),
        }
    }
    outcome
}

/// Parses ini text into `opts`, applying only options tagged
/// `mutable_online` in the registry and silently skipping the immutable
/// ones. A name this build does not register (an option retired since the
/// file was written) is reported in `rejected`, never applied.
///
/// This is the open-time overlay for a persisted `OPTIONS` file (see
/// `DbBuilder::load_options_file`): live retuning can only ever have
/// changed mutable options, so immutable values in the file are at best
/// redundant and at worst stale — the caller's options win for those.
pub fn apply_mutable_ini(opts: &mut Options, text: &str) -> IniParseOutcome {
    use crate::options::registry::find_option;
    let mut outcome = IniParseOutcome::default();
    for raw_line in text.lines() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') || line.starts_with('[')
        {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim().trim_matches('"');
        let Some(meta) = find_option(key) else {
            outcome.rejected.push((
                key.to_string(),
                value.to_string(),
                format!("not an option of this build: {key}"),
            ));
            continue;
        };
        if !meta.mutable_online {
            continue;
        }
        match opts.set_by_name(key, value) {
            Ok(()) => outcome.applied.push((key.to_string(), value.to_string())),
            Err(e) => outcome
                .rejected
                .push((key.to_string(), value.to_string(), e.to_string())),
        }
    }
    outcome
}

/// Parses ini text into a fresh option set starting from defaults.
///
/// # Errors
///
/// Returns [`ErrorKind::InvalidArgument`](crate::ErrorKind) if *no* line applied — the text was
/// not an options file at all.
pub fn from_ini(text: &str) -> Result<(Options, IniParseOutcome)> {
    let mut opts = Options::default();
    let outcome = apply_ini(&mut opts, text);
    if outcome.applied.is_empty() {
        return Err(Error::invalid_argument(
            "no recognizable option assignments in ini text",
        ));
    }
    Ok((opts, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{CompactionStyle, CompressionType};

    #[test]
    fn roundtrip_defaults() {
        let opts = Options::default();
        let ini = to_ini(&opts);
        let (parsed, outcome) = from_ini(&ini).unwrap();
        assert_eq!(parsed, opts);
        assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
        assert_eq!(outcome.applied.len(), all_options().len());
    }

    #[test]
    fn roundtrip_modified() {
        let opts = Options {
            write_buffer_size: 128 << 20,
            compression: CompressionType::Zstd,
            compaction_style: CompactionStyle::Universal,
            bloom_filter_bits_per_key: 10.0,
            ..Options::default()
        };
        let (parsed, _) = from_ini(&to_ini(&opts)).unwrap();
        assert_eq!(parsed, opts);
    }

    #[test]
    fn ini_has_rocksdb_sections() {
        let ini = to_ini(&Options::default());
        assert!(ini.contains("[DBOptions]"));
        assert!(ini.contains("[CFOptions \"default\"]"));
        assert!(ini.contains("[TableOptions/BlockBasedTable \"default\"]"));
    }

    #[test]
    fn unknown_keys_are_reported_not_fatal() {
        let text = "[DBOptions]\nwrite_buffer_size=32MB\nmagic_turbo_mode=on\n";
        let (opts, outcome) = from_ini(text).unwrap();
        assert_eq!(opts.write_buffer_size, 32 << 20);
        assert_eq!(outcome.rejected.len(), 1);
        assert!(outcome.rejected[0].2.contains("unknown option"));
    }

    #[test]
    fn comments_and_version_sections_tolerated() {
        let text = "# produced by a tool\n[Version]\n  rocksdb_version=8.8.1\n[DBOptions]\n  max_background_jobs=4\n";
        let (opts, outcome) = from_ini(text).unwrap();
        assert_eq!(opts.max_background_jobs, 4);
        // rocksdb_version is inside [Version]; we don't track sections so it
        // is reported as unknown — which the safeguards treat as noise.
        assert_eq!(outcome.rejected.len(), 1);
    }

    #[test]
    fn empty_text_is_an_error() {
        assert!(from_ini("nothing here").is_err());
    }
}
