//! Prompt-fact extraction: what the simulated expert "attends to".
//!
//! The expert receives the same free-form natural-language prompt a real
//! GPT-4 call would. This module pulls out the facts the tuning
//! heuristics condition on — hardware, workload, iteration, whether the
//! last change hurt, constraints, and the current option file — using
//! keyword scanning, so prompts phrased differently by hand still parse.
//! The previous result's numbers are in the prompt for a real model; no
//! rule here conditions on them, so none are extracted.

use std::collections::HashMap;

/// The workload class the expert inferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WorkloadClass {
    /// Mostly writes (fillrandom-like).
    WriteHeavy,
    /// Mostly reads (readrandom-like).
    ReadHeavy,
    /// Mixed reads and writes.
    #[default]
    Mixed,
}

/// Everything the expert extracted from a prompt.
#[derive(Debug, Clone, Default)]
pub struct PromptFacts {
    /// CPU cores mentioned.
    pub cores: Option<u64>,
    /// RAM in GiB.
    pub mem_gib: Option<f64>,
    /// Whether the device is rotational (HDD).
    pub rotational: Option<bool>,
    /// Inferred workload class.
    pub workload: WorkloadClass,
    /// Iteration number, if the prompt states one.
    pub iteration: u64,
    /// The prompt reported that the last change *hurt* performance.
    pub deteriorated: bool,
    /// Maximum number of options the prompt asks to change.
    pub max_changes: usize,
    /// Current option values parsed from the embedded ini.
    pub current_options: HashMap<String, String>,
}

/// Parses a prompt into [`PromptFacts`].
pub fn read_prompt(prompt: &str) -> PromptFacts {
    let lower = prompt.to_ascii_lowercase();
    let mut facts = PromptFacts {
        max_changes: 10,
        ..PromptFacts::default()
    };

    facts.cores = number_before(&lower, &["logical cores", "cpu cores", "cores"])
        .map(|v| v.round() as u64)
        .filter(|v| (1..=1024).contains(v));
    facts.mem_gib = number_before(&lower, &["gib total", "gib of ram", "gib ram", "gb of ram", "gb ram"]);
    if lower.contains("rotational      : yes")
        || lower.contains("rotational: yes")
        || lower.contains("sata hdd")
        || lower.contains("hard disk")
    {
        facts.rotational = Some(true);
    } else if lower.contains("rotational      : no")
        || lower.contains("rotational: no")
        || lower.contains("nvme")
        || lower.contains("sata ssd")
        || lower.contains("solid state")
    {
        facts.rotational = Some(false);
    }

    facts.workload = classify_workload(&lower);

    if let Some(v) = number_after(&lower, &["iteration "]) {
        facts.iteration = v.round() as u64;
    }
    facts.deteriorated = ["deteriorat", "regress", "got worse", "performance drop", "worse than"]
        .iter()
        .any(|k| lower.contains(k));
    if let Some(v) = number_after(&lower, &["at most ", "no more than ", "up to "]) {
        let v = v.round() as usize;
        if (1..=100).contains(&v) {
            facts.max_changes = v;
        }
    }

    // Parse key=value lines (the embedded current-options ini).
    for line in prompt.lines() {
        let t = line.trim();
        if t.starts_with('[') || t.starts_with('#') {
            continue;
        }
        if let Some((k, v)) = t.split_once('=') {
            let k = k.trim();
            if !k.is_empty() && !k.contains(' ') && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                facts.current_options.insert(k.to_string(), v.trim().to_string());
            }
        }
    }
    facts
}

fn classify_workload(lower: &str) -> WorkloadClass {
    // YCSB mixes lead with a shape phrase; match those before the
    // generic markers ("5% inserts" must not read as write-heavy).
    if lower.contains("update heavy") || lower.contains("read-modify-write") {
        return WorkloadClass::Mixed;
    }
    if ["read mostly", "read only", "read latest", "short ranges"]
        .iter()
        .any(|m| lower.contains(m))
    {
        return WorkloadClass::ReadHeavy;
    }
    let write_markers = ["write-intensive", "write intensive", "fillrandom", "insert", "write-heavy"];
    let read_markers = ["read-intensive", "read intensive", "readrandom", "point reads", "read-heavy"];
    let mixed_markers = ["mixed", "mixgraph", "readrandomwriterandom", "50% reads", "production-like"];
    if mixed_markers.iter().any(|m| lower.contains(m)) {
        // "readrandomwriterandom" contains "readrandom": mixed wins.
        return WorkloadClass::Mixed;
    }
    let writes = write_markers.iter().any(|m| lower.contains(m));
    let reads = read_markers.iter().any(|m| lower.contains(m));
    match (writes, reads) {
        (true, false) => WorkloadClass::WriteHeavy,
        (false, true) => WorkloadClass::ReadHeavy,
        _ => WorkloadClass::Mixed,
    }
}

/// Finds a number immediately *before* any of the markers
/// ("4 logical cores" -> 4.0 for marker "logical cores").
fn number_before(text: &str, markers: &[&str]) -> Option<f64> {
    for marker in markers {
        let mut search_from = 0;
        while let Some(pos) = text[search_from..].find(marker) {
            let abs = search_from + pos;
            let head = text[..abs].trim_end();
            let start = head
                .rfind(|c: char| !(c.is_ascii_digit() || c == '.' || c == ','))
                .map(|i| i + 1)
                .unwrap_or(0);
            let token = head[start..].replace(',', "");
            if let Ok(v) = token.parse::<f64>() {
                return Some(v);
            }
            search_from = abs + marker.len();
        }
    }
    None
}

/// Finds a number immediately *after* any of the markers
/// ("iteration 3" -> 3.0 for marker "iteration ").
fn number_after(text: &str, markers: &[&str]) -> Option<f64> {
    for marker in markers {
        if let Some(pos) = text.find(marker) {
            let tail = &text[pos + marker.len()..];
            let tail = tail.trim_start();
            let end = tail
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(tail.len());
            if let Ok(v) = tail[..end].parse::<f64>() {
                return Some(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
You are an expert RocksDB administrator.
## Hardware
CPU: 2 logical cores, 35.0% average utilization
Memory: 4.00 GiB total, 0.51 GiB used by the store (15% of usable budget)
fio probe of SimHDD 7200rpm 4TB (SATA HDD):
- rotational      : yes
## Workload
write-intensive: insert 50000000 key-value pairs (16B keys, 100B values) in random key order
## Previous result (iteration 3)
throughput: 61234 ops/sec
P99: 140.5 us
The last configuration change deteriorated performance; it was reverted.
## Current configuration
[DBOptions]
  max_background_jobs=2
[CFOptions \"default\"]
  write_buffer_size=67108864
Please change at most 10 options. Respond with an ini code block.";

    #[test]
    fn extracts_hardware() {
        let f = read_prompt(SAMPLE);
        assert_eq!(f.cores, Some(2));
        assert_eq!(f.mem_gib, Some(4.0));
        assert_eq!(f.rotational, Some(true));
    }

    #[test]
    fn extracts_workload_and_iteration() {
        let f = read_prompt(SAMPLE);
        assert_eq!(f.workload, WorkloadClass::WriteHeavy);
        assert_eq!(f.iteration, 3);
        assert_eq!(f.max_changes, 10);
    }

    #[test]
    fn extracts_previous_results_and_feedback() {
        let f = read_prompt(SAMPLE);
        assert!(f.deteriorated);
    }

    #[test]
    fn extracts_current_options() {
        let f = read_prompt(SAMPLE);
        assert_eq!(f.current_options.get("max_background_jobs").map(String::as_str), Some("2"));
        assert_eq!(
            f.current_options.get("write_buffer_size").map(String::as_str),
            Some("67108864")
        );
    }

    #[test]
    fn classifies_read_and_mixed() {
        assert_eq!(
            read_prompt("read-intensive: 10M random point reads").workload,
            WorkloadClass::ReadHeavy
        );
        assert_eq!(
            read_prompt("readrandomwriterandom with 90% reads on nvme").workload,
            WorkloadClass::Mixed
        );
        assert_eq!(read_prompt("mixgraph production").workload, WorkloadClass::Mixed);
    }

    #[test]
    fn classifies_ycsb_shapes() {
        // The YCSB describe() strings: A/F are mixed, B/C/D/E read-heavy
        // (even though D/E mention a 5% insert slice).
        assert_eq!(
            read_prompt("YCSB workload A, update heavy: 50% point reads / 50% updates").workload,
            WorkloadClass::Mixed
        );
        assert_eq!(
            read_prompt("YCSB workload D, read latest: 95% point reads skewed to recently inserted keys / 5% inserts").workload,
            WorkloadClass::ReadHeavy
        );
        assert_eq!(
            read_prompt("YCSB workload E, short ranges: 95% scans of up to 100 entries / 5% inserts").workload,
            WorkloadClass::ReadHeavy
        );
        assert_eq!(
            read_prompt("YCSB workload F, read-modify-write: 50% point reads / 50% read-modify-write").workload,
            WorkloadClass::Mixed
        );
    }

    #[test]
    fn nvme_detected_as_non_rotational() {
        let f = read_prompt("Storage: NVMe SSD, 4 cores, 8 GiB total");
        assert_eq!(f.rotational, Some(false));
        assert_eq!(f.cores, Some(4));
    }

    #[test]
    fn defaults_when_nothing_matches() {
        let f = read_prompt("please tune my database");
        assert_eq!(f.cores, None);
        assert_eq!(f.workload, WorkloadClass::Mixed);
        assert_eq!(f.iteration, 0);
        assert!(!f.deteriorated);
        assert_eq!(f.max_changes, 10);
    }

    #[test]
    fn max_changes_parsed() {
        let f = read_prompt("Please change at most 5 options.");
        assert_eq!(f.max_changes, 5);
    }
}
