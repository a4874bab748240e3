//! The expert's tuning knowledge base.
//!
//! Encodes the heuristics an LLM absorbs from RocksDB tuning guides,
//! blog posts, and source code — the paper observes that "the model
//! responds in patterns similar to online blogs, preferring the same
//! configuration options". Each piece of advice is one row of [`RULES`].
//! Some values cycle with the iteration, the way GPT-4 keeps
//! experimenting across the paper's Table 5; a cycle never settles.

use std::ops::RangeInclusive;

use lsm_kvs::options::registry::parse_size;
use lsm_kvs::options::Options;

use crate::expert::attention::{PromptFacts, WorkloadClass};
use Value::{Cycle, Derived};
use WorkloadClass::{Mixed, ReadHeavy, WriteHeavy};

/// One recommended option change.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Option name (RocksDB-compatible).
    pub name: String,
    /// Proposed value, as the model would write it ("64MB", "true").
    pub value: String,
    /// One-line rationale included in the response prose.
    pub rationale: String,
    /// Higher = suggested earlier.
    pub priority: u8,
}

/// What the rules judge a prompt by: its facts, with the expert's
/// assumptions, made here only, for the ones it leaves unstated: 4
/// cores, 8 GiB of RAM, flash storage, and iteration 1 for an unstated
/// or zero iteration.
#[derive(Debug, Clone, Copy)]
pub struct Situation {
    workload: WorkloadClass,
    pub(crate) cores: u64,
    pub(crate) mem_gib: f64,
    rotational: bool,
    iteration: u64,
}

impl Situation {
    /// The prompt's facts, with the unstated ones assumed.
    pub fn of(facts: &PromptFacts) -> Situation {
        Situation {
            workload: facts.workload,
            cores: facts.cores.unwrap_or(4),
            mem_gib: facts.mem_gib.unwrap_or(8.0),
            rotational: facts.rotational.unwrap_or(false),
            iteration: facts.iteration.max(1),
        }
    }

    /// The entry of `cycle` for this iteration: the first at iteration 1, wrapping around.
    fn pick<T: Copy>(&self, cycle: &[T]) -> T {
        cycle[((self.iteration - 1) % cycle.len() as u64) as usize]
    }

    /// Background slots for the cores: two more than there are, 2 to 8.
    fn background_jobs(&self) -> u64 {
        (self.cores + 2).clamp(2, 8)
    }
}

/// When a rule fires: every field must hold.
#[derive(Debug)]
pub struct Cond {
    /// The workload classes the advice serves.
    pub classes: &'static [WorkloadClass],
    /// Only on a rotational device.
    pub rotational: bool,
    /// The core counts it applies at.
    pub cores: RangeInclusive<u64>,
    /// `Some(true)`: only with at most 4 GiB of RAM; `Some(false)`: only with more.
    pub small_memory: Option<bool>,
    /// The first iteration it fires at.
    pub from_iteration: u64,
}

impl Cond {
    /// Whether the rule fires in `situation`.
    pub fn holds(&self, situation: &Situation) -> bool {
        self.classes.contains(&situation.workload)
            && (situation.rotational || !self.rotational)
            && self.cores.contains(&situation.cores)
            && self.small_memory.is_none_or(|small| small == (situation.mem_gib <= 4.0))
            && situation.iteration >= self.from_iteration
    }
}

/// How a rule states its value.
#[derive(Debug)]
pub enum Value {
    /// One value per iteration, taken in turn and wrapping around; a
    /// one-value cycle is a fixed value.
    Cycle(&'static [&'static str]),
    /// Computed from the situation: a value that scales with the host's
    /// cores or memory.
    Derived(fn(&Situation) -> String),
}

impl Value {
    /// The value stated in `situation`.
    pub fn at(&self, situation: &Situation) -> String {
        match self {
            Cycle(cycle) => situation.pick(cycle).to_string(),
            Derived(derive) => derive(situation),
        }
    }
}

/// One piece of tuning advice.
#[derive(Debug)]
pub struct Rule {
    /// The option it sets (RocksDB-compatible name).
    pub option: &'static str,
    /// When it fires.
    pub when: Cond,
    /// The value it proposes.
    pub value: Value,
    /// Higher = suggested earlier.
    pub priority: u8,
    /// One-line rationale included in the response prose.
    pub rationale: &'static str,
}

/// Any workload, host and iteration.
const ALWAYS: Cond = Cond {
    classes: &[WriteHeavy, ReadHeavy, Mixed],
    rotational: false,
    cores: 0..=u64::MAX,
    small_memory: None,
    from_iteration: 1,
};
/// The write path's advice: write-heavy and mixed workloads.
const WRITES: Cond = Cond { classes: &[WriteHeavy, Mixed], ..ALWAYS };
/// The read path's advice: read-heavy and mixed workloads.
const READS: Cond = Cond { classes: &[ReadHeavy, Mixed], ..ALWAYS };

/// Everything the expert knows, one row per piece of advice: the option
/// and its priority, when it fires and the value it proposes, and why.
#[rustfmt::skip]
pub static RULES: &[Rule] = &[
    // ---- Universal background parallelism (every blog's first advice) ----
    Rule { option: "max_background_jobs", priority: 9,
        when: ALWAYS, value: Derived(|s| (s.background_jobs() - s.pick(&[1, 0])).max(2).to_string()),
        rationale: "scale background parallelism to the CPU budget" },
    Rule { option: "max_background_compactions", priority: 8,
        when: ALWAYS, value: Derived(|s| (s.background_jobs() * 3 / 4 + s.pick(&[1, 0])).max(2).to_string()),
        rationale: "allow compactions to run concurrently" },
    Rule { option: "max_background_flushes", priority: 7,
        when: ALWAYS, value: Cycle(&["1", "2"]),
        rationale: "dedicated flush slots prevent memtable backlog" },
    Rule { option: "dump_malloc_stats", priority: 3,
        when: ALWAYS, value: Cycle(&["false"]),
        rationale: "allocator stat dumps add overhead with no tuning benefit" },
    Rule { option: "enable_pipelined_write", priority: 4,
        when: Cond { cores: 0..=3, ..ALWAYS }, value: Cycle(&["false"]),
        rationale: "pipelined writes add coordination overhead on few cores" },
    // ---- Write path ----
    Rule { option: "write_buffer_size", priority: 9,
        when: Cond { small_memory: Some(true), ..WRITES }, value: Cycle(&["32MB", "64MB"]),
        rationale: "smaller memtables respect the tight memory budget" },
    Rule { option: "write_buffer_size", priority: 9,
        when: Cond { small_memory: Some(false), ..WRITES }, value: Cycle(&["128MB"]),
        rationale: "larger memtables absorb more writes before flushing" },
    Rule { option: "max_write_buffer_number", priority: 8,
        when: WRITES, value: Cycle(&["3", "4", "4", "5", "5", "3"]),
        rationale: "extra memtables absorb write bursts while flushes catch up" },
    Rule { option: "min_write_buffer_number_to_merge", priority: 6,
        when: WRITES, value: Cycle(&["2", "3", "1"]),
        rationale: "merging memtables before flush writes larger, fewer L0 files" },
    Rule { option: "wal_bytes_per_sync", priority: 8,
        when: WRITES, value: Cycle(&["1MB", "512KB"]),
        rationale: "incremental WAL syncs smooth writeback and cut p99 spikes" },
    Rule { option: "bytes_per_sync", priority: 8,
        when: WRITES, value: Cycle(&["1MB", "512KB"]),
        rationale: "incremental SST syncs avoid bursty page-cache flushes" },
    Rule { option: "strict_bytes_per_sync", priority: 5,
        when: Cond { from_iteration: 4, ..WRITES }, value: Cycle(&["true"]),
        rationale: "bound the amount of unsynced data for steadier latency" },
    Rule { option: "level0_file_num_compaction_trigger", priority: 6,
        when: WRITES, value: Cycle(&["6", "4"]),
        rationale: "a deeper L0 batches more data per compaction" },
    Rule { option: "level0_slowdown_writes_trigger", priority: 5,
        when: WRITES, value: Cycle(&["30"]),
        rationale: "push back the throttling point to avoid premature slowdowns" },
    Rule { option: "level0_stop_writes_trigger", priority: 5,
        when: WRITES, value: Cycle(&["48"]),
        rationale: "keep headroom between slowdown and full stop" },
    Rule { option: "max_bytes_for_level_multiplier", priority: 4,
        when: WRITES, value: Cycle(&["8"]),
        rationale: "a gentler level fan-out reduces per-compaction work" },
    Rule { option: "compaction_readahead_size", priority: 8,
        when: Cond { rotational: true, ..WRITES }, value: Cycle(&["4MB", "2MB"]),
        rationale: "large sequential readahead hides HDD seek latency during compaction" },
    Rule { option: "target_file_size_base", priority: 5,
        when: Cond { rotational: true, ..WRITES }, value: Cycle(&["32MB", "64MB"]),
        rationale: "smaller files give finer-grained compactions on slow disks" },
    Rule { option: "compression", priority: 5,
        when: Cond { cores: 0..=2, ..WRITES }, value: Cycle(&["lz4"]),
        rationale: "lz4 costs far less CPU than snappy on a small core budget" },
    Rule { option: "max_subcompactions", priority: 5,
        when: Cond { cores: 4..=u64::MAX, ..WRITES }, value: Cycle(&["2"]),
        rationale: "split large compactions across spare cores" },
    Rule { option: "delayed_write_rate", priority: 3,
        when: WRITES, value: Cycle(&["64MB"]),
        rationale: "a higher delayed rate softens throttling when it does engage" },
    // ---- Read path ----
    Rule { option: "bloom_filter_bits_per_key", priority: 10,
        when: READS, value: Cycle(&["10"]),
        rationale: "bloom filters skip SSTs that cannot contain the key — the single biggest point-lookup win" },
    Rule { option: "block_cache_size", priority: 10,
        when: READS, value: Derived(|s| format!("{}MB", (s.mem_gib * 1024.0 / 4.0).round() as u64)),
        rationale: "dedicate about a quarter of RAM to the block cache" },
    Rule { option: "cache_index_and_filter_blocks", priority: 6,
        when: READS, value: Cycle(&["true"]),
        rationale: "account index/filter blocks in the cache budget" },
    Rule { option: "pin_l0_filter_and_index_blocks_in_cache", priority: 6,
        when: READS, value: Cycle(&["true"]),
        rationale: "keep hot L0 metadata resident" },
    Rule { option: "memtable_prefix_bloom_size_ratio", priority: 4,
        when: READS, value: Cycle(&["0.1"]),
        rationale: "a memtable bloom filter short-circuits misses before any probe" },
    Rule { option: "block_size", priority: 5,
        when: Cond { rotational: true, ..READS }, value: Cycle(&["16KB"]),
        rationale: "bigger blocks amortize HDD seeks across more data" },
    Rule { option: "optimize_filters_for_hits", priority: 3,
        when: Cond { from_iteration: 5, ..READS }, value: Cycle(&["true"]),
        rationale: "skip last-level filters when most lookups succeed" },
    // ---- Mixed-specific: protect reads from background I/O ----
    Rule { option: "rate_limiter_bytes_per_sec", priority: 6,
        when: Cond { classes: &[Mixed], rotational: true, ..ALWAYS }, value: Cycle(&["80MB"]),
        rationale: "cap compaction I/O so foreground reads keep disk time" },
];

/// Produces the full, ordered recommendation list for the observed
/// system: every rule of [`RULES`] that fires, highest priority first.
/// The policy layer filters against current values, caps the count,
/// and applies quirks.
pub fn recommend(facts: &PromptFacts) -> Vec<Recommendation> {
    let situation = Situation::of(facts);
    let mut out: Vec<Recommendation> = RULES
        .iter()
        .filter(|rule| rule.when.holds(&situation))
        .map(|rule| Recommendation {
            name: rule.option.to_string(),
            value: rule.value.at(&situation),
            rationale: rule.rationale.to_string(),
            priority: rule.priority,
        })
        .collect();
    out.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.name.cmp(&b.name)));
    out
}

/// Applies the "memory budget" discipline the paper highlights: shrink
/// the block cache if buffers + cache would exceed ~60% of RAM. Each
/// size is the recommended value, else the prompt's current one, else
/// the engine's default. Returns a note when a cache value changed; it
/// claims a fit only when the buffers plus the new cache are within
/// budget.
pub fn enforce_memory_budget(facts: &PromptFacts, recs: &mut [Recommendation]) -> Option<String> {
    let mem_bytes = (Situation::of(facts).mem_gib * (1u64 << 30) as f64) as u64;
    let budget = (mem_bytes as f64 * 0.6) as u64;

    let defaults = Options::default();
    let size_of = |name: &str| -> u64 {
        let recommended = recs.iter().find(|r| r.name == name).map(|r| r.value.clone());
        [recommended, facts.current_options.get(name).cloned(), defaults.get_by_name(name)]
            .into_iter()
            .flatten()
            .find_map(|value| parse_size(&value))
            .unwrap_or(0)
    };
    let (wbs, nbuf) = (size_of("write_buffer_size"), size_of("max_write_buffer_number"));
    let buffers = wbs.saturating_mul(nbuf);
    if buffers.saturating_add(size_of("block_cache_size")) <= budget {
        return None;
    }
    let new_cache = budget.saturating_sub(buffers).max(64 << 20);
    let new_value = format!("{}MB", new_cache >> 20);
    let cache = recs.iter_mut().find(|r| r.name == "block_cache_size" && r.value != new_value)?;
    cache.value = new_value;
    cache.rationale = "block cache reduced to keep memtables + cache inside the memory budget".to_string();
    // The cache never shrinks below 64 MB, so the two may still overrun.
    let verdict = if buffers.saturating_add(new_cache) <= budget {
        "plus block cache fit within"
    } else if buffers > budget {
        "alone exceed"
    } else {
        "plus the 64MB minimum block cache exceed"
    };
    Some(format!(
        "Keeping the total memory budget in check: write buffers ({}x{}MB) {verdict} 60% of RAM.",
        nbuf,
        wbs >> 20
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, value: impl Into<String>, rationale: &str, priority: u8) -> Recommendation {
        Recommendation {
            name: name.to_string(),
            value: value.into(),
            rationale: rationale.to_string(),
            priority,
        }
    }

    fn facts(workload: WorkloadClass, cores: u64, mem: f64, rotational: bool, iter: u64) -> PromptFacts {
        PromptFacts {
            cores: Some(cores),
            mem_gib: Some(mem),
            rotational: Some(rotational),
            workload,
            iteration: iter,
            max_changes: 10,
            ..PromptFacts::default()
        }
    }

    #[test]
    fn read_heavy_leads_with_bloom_and_cache() {
        let recs = recommend(&facts(WorkloadClass::ReadHeavy, 4, 4.0, false, 1));
        assert_eq!(recs[0].priority, 10);
        let names: Vec<&str> = recs.iter().take(2).map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"bloom_filter_bits_per_key"));
        assert!(names.contains(&"block_cache_size"));
        // Cache sized to a quarter of 4 GiB.
        let cache = recs.iter().find(|r| r.name == "block_cache_size").unwrap();
        assert_eq!(cache.value, "1024MB");
    }

    #[test]
    fn write_heavy_on_hdd_tunes_readahead_and_syncs() {
        let recs = recommend(&facts(WorkloadClass::WriteHeavy, 2, 4.0, true, 1));
        let names: Vec<&str> = recs.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"compaction_readahead_size"));
        assert!(names.contains(&"wal_bytes_per_sync"));
        assert!(names.contains(&"bytes_per_sync"));
        assert!(names.contains(&"enable_pipelined_write"), "2 cores: disable pipelining");
        assert!(!names.contains(&"bloom_filter_bits_per_key"), "no read tuning for pure writes");
    }

    #[test]
    fn values_oscillate_across_iterations_like_table5() {
        let v = |iter| {
            recommend(&facts(WorkloadClass::WriteHeavy, 2, 4.0, true, iter))
                .into_iter()
                .find(|r| r.name == "wal_bytes_per_sync")
                .unwrap()
                .value
        };
        assert_ne!(v(1), v(2), "expert experiments across iterations");
        assert_eq!(v(1), v(3));
    }

    #[test]
    fn small_memory_means_small_write_buffers() {
        let small = recommend(&facts(WorkloadClass::WriteHeavy, 2, 4.0, false, 1));
        let big = recommend(&facts(WorkloadClass::WriteHeavy, 8, 16.0, false, 1));
        let get = |recs: &[Recommendation]| {
            recs.iter().find(|r| r.name == "write_buffer_size").unwrap().value.clone()
        };
        assert_eq!(get(&small), "32MB");
        assert_eq!(get(&big), "128MB");
    }

    #[test]
    fn mixed_workload_tunes_both_sides() {
        let recs = recommend(&facts(WorkloadClass::Mixed, 4, 4.0, true, 1));
        let names: Vec<&str> = recs.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"bloom_filter_bits_per_key"));
        assert!(names.contains(&"write_buffer_size"));
        assert!(names.contains(&"rate_limiter_bytes_per_sec"), "HDD mixed: rate limit background I/O");
    }

    #[test]
    fn memory_budget_shrinks_cache() {
        let f = facts(WorkloadClass::Mixed, 4, 4.0, false, 1);
        let mut recs = vec![
            rec("write_buffer_size", "512MB", "", 9),
            rec("max_write_buffer_number", "4", "", 8),
            rec("block_cache_size", "2048MB", "", 10),
        ];
        let note = enforce_memory_budget(&f, &mut recs).unwrap();
        let cache = recs.iter().find(|r| r.name == "block_cache_size").unwrap();
        let new = lsm_kvs::options::registry::parse_size(&cache.value).unwrap();
        assert!(new < 2048 << 20);
        // 60% of 4 GiB minus 2 GiB of buffers.
        assert!(new >= 64 << 20);
        assert!(note.contains("(4x512MB) plus block cache fit within 60% of RAM"), "{note}");
    }

    #[test]
    fn budget_counts_the_current_buffers_when_none_are_recommended() {
        let mut f = facts(WorkloadClass::ReadHeavy, 4, 4.0, false, 1);
        f.current_options.insert("write_buffer_size".into(), "1073741824".into());
        f.current_options.insert("max_write_buffer_number".into(), "2".into());
        let mut recs = vec![rec("block_cache_size", "2048MB", "", 10)];
        assert!(enforce_memory_budget(&f, &mut recs).is_some());
        // 60% of 4 GiB is 2,457.6 MiB, of which two 1 GiB buffers take 2,048.
        assert_eq!(recs[0].value, "409MB");
    }

    #[test]
    fn note_claims_no_fit_when_the_buffers_alone_exceed_the_budget() {
        // The cache floors at 64 MB; the budget is 60% of 4 GiB, 2,457.6 MiB.
        for (buffer, verdict) in [
            // 4,096 MiB of buffers.
            ("1024MB", "(4x1024MB) alone exceed 60% of RAM"),
            // 2,400 MiB of buffers fit, but not with the 64 MiB floor.
            ("600MB", "(4x600MB) plus the 64MB minimum block cache exceed 60% of RAM"),
        ] {
            let f = facts(WorkloadClass::Mixed, 4, 4.0, false, 1);
            let mut recs = vec![
                rec("write_buffer_size", buffer, "", 9),
                rec("max_write_buffer_number", "4", "", 8),
                rec("block_cache_size", "1024MB", "", 10),
            ];
            let note = enforce_memory_budget(&f, &mut recs).unwrap();
            assert_eq!(recs[2].value, "64MB");
            assert!(!note.contains("fit within"), "{note}");
            assert!(note.contains(verdict), "{note}");
        }
    }

    #[test]
    fn no_note_when_no_cache_value_changed() {
        let f = facts(WorkloadClass::WriteHeavy, 4, 4.0, false, 1);
        let mut recs = vec![
            rec("write_buffer_size", "1024MB", "", 9),
            rec("max_write_buffer_number", "4", "", 8),
        ];
        assert_eq!(enforce_memory_budget(&f, &mut recs), None);
        assert_eq!((recs[0].value.as_str(), recs[1].value.as_str()), ("1024MB", "4"));
    }

    #[test]
    fn budget_untouched_when_it_fits() {
        let f = facts(WorkloadClass::ReadHeavy, 4, 8.0, false, 1);
        let mut recs = vec![rec("block_cache_size", "1024MB", "", 10)];
        assert!(enforce_memory_budget(&f, &mut recs).is_none());
        assert_eq!(recs[0].value, "1024MB");
    }
}
