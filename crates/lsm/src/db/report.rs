//! Statistics snapshots and the RocksDB-style statistics dump.

use std::sync::atomic::Ordering;

use hw_sim::SimDuration;

use super::{Db, DbStats};
use crate::compaction::level_targets;
use crate::stats::{HistogramKind, Ticker};
use crate::version::CompactionLevelStats;
use crate::write_controller::WriteRegime;

impl Db {
    /// The write regime the controller would choose for a write issued
    /// right now.
    ///
    /// This is a live query of the current pressure state, not the
    /// regime recorded by the last write: a caller that pauses its own
    /// writes (e.g. a server gating socket reads during a stall) still
    /// sees the regime clear once background work catches up.
    pub fn write_regime(&self) -> WriteRegime {
        let inner = &*self.inner;
        let state = inner.state.lock();
        inner.controller.read().regime(&inner.pressure(&state))
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> DbStats {
        let inner = &*self.inner;
        let state = inner.state.lock();
        let levels = (0..state.version.num_levels())
            .map(|l| (state.version.files(l).len(), state.version.level_bytes(l)))
            .collect();
        let memtable_bytes = state.mem.approximate_memory_usage() as u64 + state.imm_bytes();
        let cache_snap = inner
            .block_cache
            .as_ref()
            .map(|c| c.snapshot())
            .unwrap_or_default();
        DbStats {
            tickers: inner.stats.tickers().snapshot(),
            levels,
            memtable_bytes,
            immutable_memtables: state.imm.len(),
            block_cache: cache_snap.stats,
            block_cache_capacity: cache_snap.capacity,
            pending_compaction_bytes: state.pending_compaction_bytes,
            running_background_jobs: state.running_flushes + state.running_compactions,
            last_sequence: state.last_seq,
            background_retries: inner.bg_retries.load(Ordering::Relaxed),
            wal_rotations: inner.wal_rotations.load(Ordering::Relaxed),
            manifest_resyncs: inner.manifest_resyncs.load(Ordering::Relaxed),
            wal_sync_retries: inner.wal_sync_retries.load(Ordering::Relaxed),
        }
    }

    /// Renders a RocksDB-style statistics dump: a `DB Stats` block, the
    /// per-level `Compaction Stats [default]` table, and one line per
    /// latency histogram.
    ///
    /// Works identically in both execution modes (the simulated clock
    /// reports wall time when the database runs in real-concurrency
    /// mode), so harness output is parseable either way.
    pub fn stats_text(&self) -> String {
        use std::fmt::Write as _;
        let inner = &*self.inner;
        let now = inner.clock.now();
        let uptime_secs = now.saturating_since(inner.opened_at).as_secs_f64().max(1e-9);
        let t = inner.stats.tickers();
        let mut out = String::new();

        // -- DB Stats ---------------------------------------------------
        // In real mode the leader appends a whole group with one vectored
        // WAL write, so `WalWrites` counts groups, not user writes;
        // `GroupCommitBatches` carries the user-write count there. Sim
        // mode commits each write individually (`GroupCommitBatches`
        // stays 0), so the WAL append count *is* the write count.
        let wal_writes = t.get(Ticker::WalWrites);
        let writes = match t.get(Ticker::GroupCommitBatches) {
            0 => wal_writes,
            b => b,
        };
        let keys = t.get(Ticker::KeysWritten);
        let groups = match t.get(Ticker::GroupCommits) {
            0 => writes,
            g => g,
        };
        let ingest = t.get(Ticker::BytesWritten);
        let wal_bytes = t.get(Ticker::WalBytes);
        let wal_syncs = t.get(Ticker::WalSyncs);
        let stall = SimDuration::from_nanos(t.get(Ticker::StallNanos));
        let stall_secs = stall.as_secs_f64();
        let _ = writeln!(out, "** DB Stats **");
        let _ = writeln!(out, "Uptime(secs): {uptime_secs:.1} total");
        let _ = writeln!(
            out,
            "Cumulative writes: {writes} writes, {keys} keys, {groups} commit groups, \
             {:.1} writes per commit group, ingest: {:.2} GB, {:.2} MB/s",
            writes as f64 / groups.max(1) as f64,
            ingest as f64 / GB,
            ingest as f64 / MB / uptime_secs,
        );
        let _ = writeln!(
            out,
            "Cumulative WAL: {wal_writes} writes, {wal_syncs} syncs, \
             {:.2} writes per sync, written: {:.2} GB",
            wal_writes as f64 / wal_syncs.max(1) as f64,
            wal_bytes as f64 / GB,
        );
        let _ = writeln!(
            out,
            "Cumulative stall: {}, {:.1} percent",
            format_hms(stall),
            100.0 * stall_secs / uptime_secs,
        );

        // -- Compaction Stats -------------------------------------------
        let per_level = {
            let state = inner.state.lock();
            let targets = level_targets(&inner.opts(), &state.version);
            state.version.compaction_stats(
                &inner.stats.level_io(),
                &targets,
                inner.opts().level0_file_num_compaction_trigger.max(1) as usize,
            )
        };
        let _ = writeln!(out, "\n** Compaction Stats [default] **");
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>12} {:>7} {:>9} {:>10} {:>6} {:>10} {:>9}",
            "Level", "Files", "Size", "Score", "Read(GB)", "Write(GB)", "W-Amp", "Comp(cnt)", "KeyDrop"
        );
        let _ = writeln!(out, "{}", "-".repeat(84));
        let mut sum = CompactionLevelStats::default();
        for ls in &per_level {
            sum.files += ls.files;
            sum.bytes += ls.bytes;
            sum.bytes_read += ls.bytes_read;
            sum.bytes_written += ls.bytes_written;
            sum.jobs += ls.jobs;
            sum.keys_dropped += ls.keys_dropped;
            let _ = writeln!(out, "{}", compaction_stats_row(&format!("L{}", ls.level), ls));
        }
        sum.write_amp = if sum.bytes_read > 0 {
            sum.bytes_written as f64 / sum.bytes_read as f64
        } else if sum.bytes_written > 0 {
            1.0
        } else {
            0.0
        };
        let _ = writeln!(out, "{}", compaction_stats_row("Sum", &sum));

        // -- Histograms -------------------------------------------------
        let _ = writeln!(out, "\n** Level latency histograms (micros) **");
        for kind in [
            HistogramKind::DbGet,
            HistogramKind::DbMultiGet,
            HistogramKind::DbWrite,
            HistogramKind::FlushTime,
            HistogramKind::CompactionTime,
            HistogramKind::SstReadMicros,
        ] {
            let h = inner.stats.histogram(kind);
            let _ = writeln!(
                out,
                "rocksdb.{} P50 : {:.2} P75 : {:.2} P99 : {:.2} P99.9 : {:.2} \
                 P99.99 : {:.2} P100 : {:.2} COUNT : {} AVG : {:.2} STDDEV : {:.2}",
                crate::stats::HISTOGRAM_NAMES[kind as usize],
                h.p50.as_micros_f64(),
                h.p75.as_micros_f64(),
                h.p99.as_micros_f64(),
                h.p999.as_micros_f64(),
                h.p9999.as_micros_f64(),
                h.max.as_micros_f64(),
                h.count,
                h.mean.as_micros_f64(),
                h.stddev.as_micros_f64(),
            );
        }
        out
    }
}

const KB: f64 = 1024.0;
const MB: f64 = 1024.0 * 1024.0;
const GB: f64 = 1024.0 * 1024.0 * 1024.0;

/// `H:M:S.millis` rendering used by the stall line of the stats dump.
fn format_hms(d: SimDuration) -> String {
    let total = d.as_secs_f64();
    let h = (total / 3600.0) as u64;
    let m = ((total % 3600.0) / 60.0) as u64;
    let s = total % 60.0;
    format!("{h:02}:{m:02}:{s:06.3} H:M:S")
}

/// A human-readable byte count as exactly two whitespace-separated
/// tokens (value and unit), keeping dump rows token-parseable.
fn format_size(bytes: u64) -> String {
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2} GB", b / GB)
    } else if b >= MB {
        format!("{:.2} MB", b / MB)
    } else {
        format!("{:.2} KB", b / KB)
    }
}

/// One aligned row of the `Compaction Stats [default]` table.
fn compaction_stats_row(label: &str, ls: &CompactionLevelStats) -> String {
    format!(
        "{label:>5} {:>8} {:>12} {:>7.2} {:>9.2} {:>10.2} {:>6.1} {:>10} {:>9}",
        ls.files,
        format_size(ls.bytes),
        ls.score,
        ls.bytes_read as f64 / GB,
        ls.bytes_written as f64 / GB,
        ls.write_amp,
        ls.jobs,
        ls.keys_dropped,
    )
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{env, small_opts};
    use super::*;

    #[test]
    fn stats_text_renders_rocksdb_shape() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        for i in 0..5_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        db.flush().unwrap();
        for i in 0..200 {
            let _ = db.get(format!("key-{:06}", i * 7).as_bytes()).unwrap();
        }
        let text = db.stats_text();
        assert!(text.contains("** DB Stats **"), "{text}");
        assert!(text.contains("Uptime(secs):"), "{text}");
        assert!(text.contains("Cumulative writes:"), "{text}");
        assert!(text.contains("Cumulative stall:"), "{text}");
        assert!(text.contains("** Compaction Stats [default] **"), "{text}");
        assert!(text.contains("rocksdb.db.get.micros"), "{text}");
        assert!(text.contains("P99.99"), "{text}");
        assert!(text.contains("STDDEV"), "{text}");
        // The Sum row aggregates the per-level table; with a flush done,
        // L0 write bytes make the sum write column non-zero.
        let sum_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("Sum"))
            .expect("Sum row present");
        let tokens: Vec<&str> = sum_line.split_whitespace().collect();
        assert_eq!(tokens.len(), 10, "Sum row token count: {sum_line}");
        let w_amp: f64 = tokens[7].parse().unwrap();
        assert!(w_amp >= 1.0, "flushed data gives W-Amp >= 1: {sum_line}");
        // L0 row precedes Sum.
        assert!(text.contains("   L0") || text.contains("L0 "), "{text}");
    }

    #[test]
    fn stats_shape_is_reported() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        for i in 0..2_000 {
            db.put(format!("key-{i:06}").as_bytes(), &[0u8; 100]).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.levels.len(), 7);
        assert!(stats.levels.iter().map(|(n, _)| n).sum::<usize>() > 0);
        assert!(stats.write_amplification() > 0.0);
        assert!(stats.last_sequence >= 2_000);
    }
}
