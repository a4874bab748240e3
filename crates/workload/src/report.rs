//! Benchmark reports: structured results plus db_bench-style text.
//!
//! ELMo-Tune's "Benchmark Parser" consumes the *text* form, mirroring
//! how the paper's framework scrapes db_bench output rather than linking
//! against the store.

use hw_sim::SimDuration;
use lsm_kvs::{HistogramSnapshot, Ticker, TickerSnapshot};
use serde::{Deserialize, Serialize};

/// One periodic progress sample from the benchmark monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorSample {
    /// Simulated seconds since the measured phase began.
    pub at_secs: f64,
    /// Interval throughput in ops/sec.
    pub interval_ops_per_sec: f64,
}

/// What the monitor callback wants the runner to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorControl {
    /// Keep running.
    Continue,
    /// Abort the benchmark (early stop / redo).
    Stop,
}

/// Structured result of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// db_bench benchmark name.
    pub workload: String,
    /// Short label (FR/RR/RRWR/Mixgraph).
    pub short_name: String,
    /// Operations completed.
    pub ops: u64,
    /// Reads that found their key.
    pub found: u64,
    /// Measured-phase duration.
    pub duration: SimDuration,
    /// Overall throughput in ops/sec.
    pub ops_per_sec: f64,
    /// Mean microseconds per operation.
    pub micros_per_op: f64,
    /// Write-latency quantiles (None when the workload has no writes).
    pub write_latency: Option<HistogramSnapshot>,
    /// Read-latency quantiles (None when the workload has no reads).
    pub read_latency: Option<HistogramSnapshot>,
    /// Scan-latency quantiles (None when the workload has no range
    /// scans; YCSB E populates this).
    pub scan_latency: Option<HistogramSnapshot>,
    /// Read-modify-write latency quantiles, one entry per full cycle
    /// (None except for YCSB F).
    pub rmw_latency: Option<HistogramSnapshot>,
    /// Engine ticker deltas over the run.
    pub tickers: TickerSnapshot,
    /// `(files, bytes)` per level at the end of the run.
    pub levels: Vec<(usize, u64)>,
    /// Whether the run was aborted by the monitor.
    pub aborted: bool,
}

impl BenchReport {
    /// p99 read latency in microseconds (0 when absent).
    pub fn p99_read_micros(&self) -> f64 {
        self.read_latency.map(|h| h.p99.as_micros_f64()).unwrap_or(0.0)
    }

    /// Block-cache hit ratio over the run.
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits = self.tickers.get(Ticker::BlockCacheHit) as f64;
        let misses = self.tickers.get(Ticker::BlockCacheMiss) as f64;
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }

    /// Time spent in write stalls/slowdowns, in seconds.
    pub fn stall_seconds(&self) -> f64 {
        self.tickers.get(Ticker::StallNanos) as f64 / 1e9
    }

    /// Renders the report in db_bench's output style.
    pub fn to_db_bench_text(&self) -> String {
        let mut out = String::new();
        out.push_str("DB path: [/sim/db]\n");
        let mb_per_sec = (self.tickers.get(Ticker::BytesWritten)
            + self.tickers.get(Ticker::BytesRead)) as f64
            / (1 << 20) as f64
            / self.duration.as_secs_f64().max(1e-9);
        out.push_str(&format!(
            "{:<12} : {:>10.3} micros/op {} ops/sec {:.3} seconds {} operations; {:>6.1} MB/s",
            self.workload,
            self.micros_per_op,
            self.ops_per_sec.round() as u64,
            self.duration.as_secs_f64(),
            self.ops,
            mb_per_sec
        ));
        if self.read_latency.is_some() {
            out.push_str(&format!(" ({} of {} found)", self.found, self.reads_issued()));
        }
        out.push('\n');
        if self.aborted {
            out.push_str("WARNING: benchmark aborted early by monitor\n");
        }
        if let Some(h) = &self.write_latency {
            out.push_str(&render_histogram("write", h));
        }
        if let Some(h) = &self.read_latency {
            out.push_str(&render_histogram("read", h));
        }
        if let Some(h) = &self.scan_latency {
            out.push_str(&render_histogram("scan", h));
        }
        if let Some(h) = &self.rmw_latency {
            out.push_str(&render_histogram("read-modify-write", h));
        }
        out.push_str("\nSTATISTICS:\n");
        for (name, value) in lsm_kvs::TICKER_NAMES.iter().zip(self.tickers.values.iter()) {
            out.push_str(&format!("rocksdb.{name} COUNT : {value}\n"));
        }
        out.push_str(&format!(
            "rocksdb.block.cache.hit.ratio PERCENT : {:.1}\n",
            self.cache_hit_ratio() * 100.0
        ));
        out.push_str(&format!(
            "rocksdb.stall.seconds SUM : {:.3}\n",
            self.stall_seconds()
        ));
        out.push_str("\nLevel summary:\n");
        for (level, (files, bytes)) in self.levels.iter().enumerate() {
            out.push_str(&format!(
                "  L{level}: {files} files, {:.1} MB\n",
                *bytes as f64 / (1 << 20) as f64
            ));
        }
        out
    }

    fn reads_issued(&self) -> u64 {
        // Batched reads record one histogram entry per multi_get call
        // but `found` counts keys; the ticker keeps the ratio honest.
        // Each read-modify-write cycle issues exactly one point read.
        let rmw = self.rmw_latency.map(|h| h.count).unwrap_or(0);
        match self.tickers.get(Ticker::MultiGetKeysRead) {
            0 => self.read_latency.map(|h| h.count).unwrap_or(0) + rmw,
            keys => keys + rmw,
        }
    }
}

fn render_histogram(op: &str, h: &HistogramSnapshot) -> String {
    format!(
        "Microseconds per {op}:\nCount: {} Average: {:.4} StdDev: {:.2}\n\
         Min: {:.2} Median: {:.2} Max: {:.2}\n\
         Percentiles: P50: {:.2} P75: {:.2} P99: {:.2} P99.9: {:.2} P99.99: {:.2}\n\
         ------------------------------------------------------\n",
        h.count,
        h.mean.as_micros_f64(),
        h.stddev.as_micros_f64(),
        h.min.as_micros_f64(),
        h.p50.as_micros_f64(),
        h.max.as_micros_f64(),
        h.p50.as_micros_f64(),
        h.p75.as_micros_f64(),
        h.p99.as_micros_f64(),
        h.p999.as_micros_f64(),
        h.p9999.as_micros_f64(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(p99_us: u64) -> HistogramSnapshot {
        HistogramSnapshot {
            count: 1000,
            mean: SimDuration::from_micros(3),
            min: SimDuration::from_micros(1),
            p50: SimDuration::from_micros(2),
            p75: SimDuration::from_micros(3),
            p99: SimDuration::from_micros(p99_us),
            p999: SimDuration::from_micros(p99_us * 2),
            p9999: SimDuration::from_micros(p99_us * 4),
            stddev: SimDuration::from_micros(1),
            max: SimDuration::from_micros(p99_us * 10),
        }
    }

    fn report() -> BenchReport {
        BenchReport {
            workload: "fillrandom".into(),
            short_name: "FR".into(),
            ops: 1000,
            found: 0,
            duration: SimDuration::from_secs(2),
            ops_per_sec: 500.0,
            micros_per_op: 2000.0,
            write_latency: Some(snapshot(6)),
            read_latency: None,
            scan_latency: None,
            rmw_latency: None,
            tickers: TickerSnapshot {
                values: [0; lsm_kvs::TICKER_NAMES.len()],
            },
            levels: vec![(2, 1 << 20); 7],
            aborted: false,
        }
    }

    #[test]
    fn text_has_db_bench_headline() {
        let text = report().to_db_bench_text();
        assert!(text.contains("fillrandom"));
        assert!(text.contains("micros/op"));
        assert!(text.contains("500 ops/sec"));
        assert!(text.contains("Microseconds per write:"));
        assert!(text.contains("P99: 6.00"));
        assert!(text.contains("P99.99: 24.00"));
        assert!(text.contains("StdDev: 1.00"));
        assert!(text.contains("STATISTICS:"));
        assert!(text.contains("Level summary:"));
    }

    #[test]
    fn found_clause_only_for_reads() {
        let mut r = report();
        assert!(!r.to_db_bench_text().contains("found"));
        r.read_latency = Some(snapshot(100));
        r.found = 900;
        assert!(r.to_db_bench_text().contains("(900 of 1000 found)"));
    }

    #[test]
    fn scan_and_rmw_histograms_render() {
        let mut r = report();
        r.scan_latency = Some(snapshot(40));
        r.rmw_latency = Some(snapshot(50));
        let text = r.to_db_bench_text();
        assert!(text.contains("Microseconds per scan:"));
        assert!(text.contains("Microseconds per read-modify-write:"));
    }

    #[test]
    fn aborted_flag_renders_warning() {
        let mut r = report();
        r.aborted = true;
        assert!(r.to_db_bench_text().contains("aborted early"));
    }

    #[test]
    fn helper_metrics() {
        let mut r = report();
        assert_eq!(r.p99_read_micros(), 0.0);
        r.tickers.values[0] = 75; // block_cache_hit
        r.tickers.values[1] = 25; // block_cache_miss
        assert!((r.cache_hit_ratio() - 0.75).abs() < 1e-9);
    }
}
