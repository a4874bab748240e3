//! Benchmark specifications: the four workloads of the paper's §5.1.

use serde::{Deserialize, Serialize};

/// Key-popularity and value-size model parameters for `mixgraph`
/// (Cao et al., FAST '20: "Characterizing, Modeling, and Benchmarking
/// RocksDB Key-Value Workloads at Facebook").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixgraphConfig {
    /// Power-law exponent for key popularity (higher = hotter head).
    pub key_alpha: f64,
    /// Fraction of operations that are reads (paper: 0.5).
    pub read_fraction: f64,
    /// Pareto shape for value sizes.
    pub value_pareto_shape: f64,
    /// Minimum value size (Pareto scale).
    pub value_min: usize,
    /// Sine-wave QPS modulation amplitude as a fraction of mean (0 = off).
    pub qps_sine_amplitude: f64,
    /// Sine-wave period in simulated seconds.
    pub qps_sine_period_secs: f64,
}

impl Default for MixgraphConfig {
    fn default() -> Self {
        MixgraphConfig {
            key_alpha: 0.92,
            read_fraction: 0.5,
            value_pareto_shape: 2.0,
            value_min: 60,
            qps_sine_amplitude: 0.3,
            qps_sine_period_secs: 30.0,
        }
    }
}

/// One of the six core YCSB mixes (Cooper et al., SoCC '10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum YcsbMix {
    /// Update heavy: 50% reads / 50% updates, zipfian keys.
    A,
    /// Read mostly: 95% reads / 5% updates, zipfian keys.
    B,
    /// Read only: 100% reads, zipfian keys.
    C,
    /// Read latest: 95% reads skewed to recent inserts / 5% inserts.
    D,
    /// Short ranges: 95% scans (zipfian start, bounded length) /
    /// 5% inserts.
    E,
    /// Read-modify-write: 50% reads / 50% RMW, zipfian keys.
    F,
}

impl YcsbMix {
    /// All six mixes in order.
    pub const ALL: [YcsbMix; 6] =
        [YcsbMix::A, YcsbMix::B, YcsbMix::C, YcsbMix::D, YcsbMix::E, YcsbMix::F];

    /// Parses a single letter `a`..`f` (either case).
    ///
    /// # Errors
    ///
    /// Returns the offending input when it is not one of the six mixes.
    pub fn from_letter(s: &str) -> Result<YcsbMix, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "a" => Ok(YcsbMix::A),
            "b" => Ok(YcsbMix::B),
            "c" => Ok(YcsbMix::C),
            "d" => Ok(YcsbMix::D),
            "e" => Ok(YcsbMix::E),
            "f" => Ok(YcsbMix::F),
            other => Err(format!("unknown YCSB mix {other:?} (want a..f)")),
        }
    }

    /// The mix letter, lowercase.
    pub fn letter(self) -> char {
        match self {
            YcsbMix::A => 'a',
            YcsbMix::B => 'b',
            YcsbMix::C => 'c',
            YcsbMix::D => 'd',
            YcsbMix::E => 'e',
            YcsbMix::F => 'f',
        }
    }
}

/// Which workload to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Write `num_ops` KV pairs in random key order.
    FillRandom,
    /// Read `num_ops` random existing keys from a preloaded store.
    ReadRandom,
    /// Like `ReadRandom`, but keys are read `batch` at a time through
    /// `multi_get` (db_bench `multireadrandom`): `num_ops` still counts
    /// keys, not batches, so throughput is comparable to `ReadRandom`.
    /// The payload is the number of keys per `multi_get` call.
    MultiReadRandom(usize),
    /// Mixed random reads and writes (db_bench `readrandomwriterandom`).
    ReadRandomWriteRandom,
    /// The Facebook production model (50/50 by default).
    Mixgraph(MixgraphConfig),
    /// One of the YCSB core mixes over a preloaded store.
    Ycsb(YcsbConfig),
}

/// Parameters for a [`WorkloadKind::Ycsb`] run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct YcsbConfig {
    /// Which of the six mixes.
    pub mix: YcsbMix,
    /// Zipfian skew for key popularity (YCSB's ~0.99), also the
    /// recency skew for mix D's read-latest draws.
    pub zipf_alpha: f64,
    /// Upper bound on mix E's scan length (drawn uniformly from
    /// `1..=max_scan_len`, the YCSB default shape).
    pub max_scan_len: usize,
}

impl WorkloadKind {
    /// The db_bench benchmark name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::FillRandom => "fillrandom",
            WorkloadKind::ReadRandom => "readrandom",
            WorkloadKind::MultiReadRandom(_) => "multireadrandom",
            WorkloadKind::ReadRandomWriteRandom => "readrandomwriterandom",
            WorkloadKind::Mixgraph(_) => "mixgraph",
            WorkloadKind::Ycsb(cfg) => match cfg.mix {
                YcsbMix::A => "ycsb_a",
                YcsbMix::B => "ycsb_b",
                YcsbMix::C => "ycsb_c",
                YcsbMix::D => "ycsb_d",
                YcsbMix::E => "ycsb_e",
                YcsbMix::F => "ycsb_f",
            },
        }
    }

    /// Short label used in the paper's tables (FR/RR/RRWR/Mixgraph).
    pub fn short_name(&self) -> &'static str {
        match self {
            WorkloadKind::FillRandom => "FR",
            WorkloadKind::ReadRandom => "RR",
            WorkloadKind::MultiReadRandom(_) => "MRR",
            WorkloadKind::ReadRandomWriteRandom => "RRWR",
            WorkloadKind::Mixgraph(_) => "Mixgraph",
            WorkloadKind::Ycsb(cfg) => match cfg.mix {
                YcsbMix::A => "YCSB-A",
                YcsbMix::B => "YCSB-B",
                YcsbMix::C => "YCSB-C",
                YcsbMix::D => "YCSB-D",
                YcsbMix::E => "YCSB-E",
                YcsbMix::F => "YCSB-F",
            },
        }
    }
}

/// A complete benchmark description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// The workload.
    pub workload: WorkloadKind,
    /// Total operations across all threads.
    pub num_ops: u64,
    /// Client threads (virtual timelines in simulation).
    pub num_threads: usize,
    /// Key size in bytes (db_bench default 16).
    pub key_size: usize,
    /// Value size in bytes (db_bench default 100).
    pub value_size: usize,
    /// Keys preloaded before the measured phase (readrandom: 25M).
    pub preload_keys: u64,
    /// Key space size for random draws (defaults to preload or num_ops).
    pub key_space: u64,
    /// Percent of mixed ops that are reads (db_bench default 90).
    pub read_percent: u32,
    /// Fraction of each value that is incompressible (db_bench's 0.5
    /// compression ratio).
    pub value_entropy: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Interval between monitor samples, in simulated milliseconds.
    pub report_interval_ms: u64,
}

impl BenchmarkSpec {
    /// Paper workload 1: write-intensive fillrandom (50M ops at scale 1.0).
    pub fn fillrandom(scale: f64) -> Self {
        let ops = scaled(50_000_000, scale);
        BenchmarkSpec {
            workload: WorkloadKind::FillRandom,
            num_ops: ops,
            num_threads: 1,
            key_size: 16,
            value_size: 100,
            preload_keys: 0,
            key_space: ops,
            read_percent: 0,
            value_entropy: 0.5,
            seed: 42,
            report_interval_ms: 1_000,
        }
    }

    /// Paper workload 2: read-intensive readrandom (10M reads over a 25M
    /// key preload at scale 1.0).
    pub fn readrandom(scale: f64) -> Self {
        let preload = scaled(25_000_000, scale);
        BenchmarkSpec {
            workload: WorkloadKind::ReadRandom,
            num_ops: scaled(10_000_000, scale),
            num_threads: 1,
            key_size: 16,
            value_size: 100,
            preload_keys: preload,
            key_space: preload,
            read_percent: 100,
            value_entropy: 0.5,
            seed: 42,
            report_interval_ms: 1_000,
        }
    }

    /// Batched variant of workload 2: the same read-intensive shape, but
    /// keys travel `batch` at a time through `multi_get`. `num_ops`
    /// still counts keys, so ops/sec compares directly to `readrandom`.
    pub fn multireadrandom(scale: f64, batch: usize) -> Self {
        BenchmarkSpec {
            workload: WorkloadKind::MultiReadRandom(batch.max(1)),
            ..Self::readrandom(scale)
        }
    }

    /// Paper workload 3: 25M mixed ops on 2 threads
    /// (readrandomwriterandom, db_bench default 90% reads). The store is
    /// preloaded so reads exercise the on-disk path, matching the paper's
    /// disk-bound mixed-read latencies.
    pub fn readrandomwriterandom(scale: f64) -> Self {
        let ops = scaled(25_000_000, scale);
        BenchmarkSpec {
            workload: WorkloadKind::ReadRandomWriteRandom,
            num_ops: ops,
            num_threads: 2,
            key_size: 16,
            value_size: 100,
            preload_keys: ops / 2,
            key_space: ops / 2,
            read_percent: 90,
            value_entropy: 0.5,
            seed: 42,
            report_interval_ms: 1_000,
        }
    }

    /// Paper workload 4: 25M mixgraph ops at 50% reads / 50% writes,
    /// over a preloaded store (reads must hit the disk path).
    pub fn mixgraph(scale: f64) -> Self {
        let ops = scaled(25_000_000, scale);
        BenchmarkSpec {
            workload: WorkloadKind::Mixgraph(MixgraphConfig::default()),
            num_ops: ops,
            num_threads: 1,
            key_size: 16,
            value_size: 100,
            preload_keys: ops / 2,
            key_space: ops / 2,
            read_percent: 50,
            value_entropy: 0.5,
            seed: 42,
            report_interval_ms: 1_000,
        }
    }

    /// YCSB core mix `mix` at `scale`: 10M operations over a 10M-key
    /// preload at scale 1.0, zipfian constant 0.99, scans bounded at 100
    /// entries (the YCSB defaults). Reads hit the on-disk path; D and E
    /// grow the key space past the preload through their insert slice.
    pub fn ycsb(mix: YcsbMix, scale: f64) -> Self {
        let preload = scaled(10_000_000, scale);
        let read_percent = match mix {
            YcsbMix::A | YcsbMix::F => 50,
            YcsbMix::B | YcsbMix::D | YcsbMix::E => 95,
            YcsbMix::C => 100,
        };
        BenchmarkSpec {
            workload: WorkloadKind::Ycsb(YcsbConfig { mix, zipf_alpha: 0.99, max_scan_len: 100 }),
            num_ops: scaled(10_000_000, scale),
            num_threads: 1,
            key_size: 16,
            value_size: 100,
            preload_keys: preload,
            key_space: preload,
            read_percent,
            value_entropy: 0.5,
            seed: 42,
            report_interval_ms: 1_000,
        }
    }

    /// All four paper workloads at a common scale.
    pub fn paper_suite(scale: f64) -> Vec<BenchmarkSpec> {
        vec![
            Self::fillrandom(scale),
            Self::readrandom(scale),
            Self::readrandomwriterandom(scale),
            Self::mixgraph(scale),
        ]
    }

    /// Natural-language description of the workload, used in tuning
    /// prompts ("the user is only responsible for starting [ELMo-Tune]
    /// with an expected system workload").
    pub fn describe(&self) -> String {
        match &self.workload {
            WorkloadKind::FillRandom => format!(
                "write-intensive: insert {} key-value pairs ({}B keys, {}B values) in random key order",
                self.num_ops, self.key_size, self.value_size
            ),
            WorkloadKind::ReadRandom => format!(
                "read-intensive: {} random point reads over a database preloaded with {} keys",
                self.num_ops, self.preload_keys
            ),
            WorkloadKind::MultiReadRandom(batch) => format!(
                "read-intensive, batched: {} random point reads issued {batch} at a time \
                 via multi_get over a database preloaded with {} keys",
                self.num_ops, self.preload_keys
            ),
            WorkloadKind::ReadRandomWriteRandom => format!(
                "mixed: {} operations on {} threads, {}% random reads / {}% random writes",
                self.num_ops,
                self.num_threads,
                self.read_percent,
                100 - self.read_percent
            ),
            WorkloadKind::Mixgraph(cfg) => format!(
                "production-like (mixgraph): {} operations, {:.0}% reads / {:.0}% writes, skewed key popularity (alpha={}), Pareto value sizes",
                self.num_ops,
                cfg.read_fraction * 100.0,
                (1.0 - cfg.read_fraction) * 100.0,
                cfg.key_alpha
            ),
            WorkloadKind::Ycsb(YcsbConfig { mix, zipf_alpha, max_scan_len }) => {
                let shape = match mix {
                    YcsbMix::A => "update heavy: 50% point reads / 50% updates".to_string(),
                    YcsbMix::B => "read mostly: 95% point reads / 5% updates".to_string(),
                    YcsbMix::C => "read only: 100% point reads".to_string(),
                    YcsbMix::D => {
                        "read latest: 95% point reads skewed to recently inserted keys / 5% inserts"
                            .to_string()
                    }
                    YcsbMix::E => format!(
                        "short ranges: 95% scans of up to {max_scan_len} entries / 5% inserts"
                    ),
                    YcsbMix::F => {
                        "read-modify-write: 50% point reads / 50% read-modify-write".to_string()
                    }
                };
                format!(
                    "YCSB workload {}, {shape}; {} operations over a database preloaded with {} \
                     keys, zipfian key popularity (theta={zipf_alpha})",
                    mix.letter().to_ascii_uppercase(),
                    self.num_ops,
                    self.preload_keys
                )
            }
        }
    }
}

fn scaled(base: u64, scale: f64) -> u64 {
    ((base as f64 * scale).round() as u64).max(1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_matches_paper_parameters() {
        let suite = BenchmarkSpec::paper_suite(1.0);
        assert_eq!(suite.len(), 4);
        assert_eq!(suite[0].num_ops, 50_000_000);
        assert_eq!(suite[1].num_ops, 10_000_000);
        assert_eq!(suite[1].preload_keys, 25_000_000);
        assert_eq!(suite[2].num_ops, 25_000_000);
        assert_eq!(suite[2].num_threads, 2);
        assert_eq!(suite[3].num_ops, 25_000_000);
    }

    #[test]
    fn scaling_shrinks_op_counts_proportionally() {
        let fr = BenchmarkSpec::fillrandom(0.01);
        assert_eq!(fr.num_ops, 500_000);
        let rr = BenchmarkSpec::readrandom(0.01);
        assert_eq!(rr.preload_keys, 250_000);
        assert_eq!(rr.num_ops, 100_000);
    }

    #[test]
    fn scale_never_goes_below_floor() {
        let fr = BenchmarkSpec::fillrandom(1e-9);
        assert_eq!(fr.num_ops, 1_000);
    }

    #[test]
    fn names_match_db_bench() {
        assert_eq!(BenchmarkSpec::fillrandom(1.0).workload.name(), "fillrandom");
        assert_eq!(BenchmarkSpec::readrandom(1.0).workload.short_name(), "RR");
        assert_eq!(
            BenchmarkSpec::readrandomwriterandom(1.0).workload.name(),
            "readrandomwriterandom"
        );
        assert_eq!(BenchmarkSpec::mixgraph(1.0).workload.short_name(), "Mixgraph");
        let mrr = BenchmarkSpec::multireadrandom(1.0, 16);
        assert_eq!(mrr.workload.name(), "multireadrandom");
        assert_eq!(mrr.workload.short_name(), "MRR");
        assert_eq!(mrr.num_ops, BenchmarkSpec::readrandom(1.0).num_ops);
        assert_eq!(mrr.workload, WorkloadKind::MultiReadRandom(16));
        // A zero batch is clamped rather than dividing by zero later.
        assert_eq!(
            BenchmarkSpec::multireadrandom(1.0, 0).workload,
            WorkloadKind::MultiReadRandom(1)
        );
    }

    #[test]
    fn descriptions_mention_key_facts() {
        assert!(BenchmarkSpec::fillrandom(1.0).describe().contains("write-intensive"));
        assert!(BenchmarkSpec::readrandom(1.0).describe().contains("preloaded"));
        assert!(BenchmarkSpec::mixgraph(1.0).describe().contains("mixgraph"));
        let d = BenchmarkSpec::ycsb(YcsbMix::E, 1.0).describe();
        assert!(d.contains("YCSB workload E"), "{d}");
        assert!(d.contains("scans"), "{d}");
        assert!(BenchmarkSpec::ycsb(YcsbMix::D, 1.0).describe().contains("recently inserted"));
    }

    #[test]
    fn ycsb_suite_covers_all_six_mixes() {
        // What `db_bench --ycsb all` walks.
        let suite = YcsbMix::ALL.map(|m| BenchmarkSpec::ycsb(m, 0.001));
        assert_eq!(suite.len(), 6);
        let names: Vec<&str> = suite.iter().map(|s| s.workload.name()).collect();
        assert_eq!(names, ["ycsb_a", "ycsb_b", "ycsb_c", "ycsb_d", "ycsb_e", "ycsb_f"]);
        assert_eq!(suite[0].read_percent, 50);
        assert_eq!(suite[1].read_percent, 95);
        assert_eq!(suite[2].read_percent, 100);
        for s in &suite {
            assert_eq!(s.preload_keys, s.key_space);
            assert!(s.preload_keys >= 1_000);
        }
        assert_eq!(BenchmarkSpec::ycsb(YcsbMix::B, 1.0).workload.short_name(), "YCSB-B");
    }

    #[test]
    fn ycsb_mix_letters_roundtrip() {
        for mix in YcsbMix::ALL {
            assert_eq!(YcsbMix::from_letter(&mix.letter().to_string()).unwrap(), mix);
            assert_eq!(
                YcsbMix::from_letter(&mix.letter().to_ascii_uppercase().to_string()).unwrap(),
                mix
            );
        }
        assert!(YcsbMix::from_letter("g").is_err());
        assert!(YcsbMix::from_letter("").is_err());
    }
}
