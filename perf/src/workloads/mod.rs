//! The five workloads and what they share: the closed-loop client, the
//! engine opener that adds the trace wrappers in a traced run, and the
//! arithmetic that turns engine counters into metrics.

pub mod cluster_write;
pub mod fill;
pub mod read_cold;
pub mod serve_mixed;
pub mod tune_sim;

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use hw_sim::HardwareEnv;
use lsm_kvs::options::Options;
use lsm_kvs::{Db, DbStats, KvEngine, StdVfs, Ticker, TickerSnapshot, Vfs, WalSink};

use crate::gen::{self, KEY_LEN, VALUE_LEN};
use crate::host;
use crate::hostspeed::{self, Gauge};
use crate::stats::percentile;
use crate::trace::{Kind, Report, TraceEngine, TraceListener, TraceVfs, Tracer};

/// Client threads (and connections) of every workload: the reference host
/// has two processors, and a closed loop with more clients than
/// processors measures the scheduler.
pub const CLIENTS: usize = 2;

/// The `--seconds` value the base operation counts are sized for.
pub const REFERENCE_SECONDS: f64 = 8.0;

/// What a workload is told.
pub struct Ctx {
    pub seed: u64,
    /// 1.0 at [`REFERENCE_SECONDS`]; operation counts scale with it.
    pub scale: f64,
    /// Present in the traced run only.
    pub tracer: Option<Arc<Tracer>>,
    /// An empty directory of this run's own.
    pub dir: PathBuf,
    /// Test hook: expect a wrong value for about one key in a hundred, so
    /// the verification of reads must fail the run.
    pub corrupt_expected: bool,
}

impl Ctx {
    /// An operation count: `base` at the reference run length, scaled,
    /// never below `floor` (so smoke runs keep enough samples for a p99).
    pub fn ops(&self, base: u64, floor: u64) -> u64 {
        ((base as f64 * self.scale).round() as u64).max(floor)
    }

    /// The value a read of `key(id)` must return.
    pub fn expected(&self, id: u64) -> [u8; VALUE_LEN] {
        let mut v = gen::value(id, self.seed);
        if self.corrupt_expected && id.is_multiple_of(97) {
            v[0] ^= 0xFF;
        }
        v
    }
}

/// What a workload reports back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks; any `false` fails the run.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics in the untraced run, per-layer in the traced.
    pub metrics: Vec<(&'static str, f64)>,
    /// The sampled span records of a traced run.
    pub trace: Option<Report>,
    /// The host's slowdown in each phase that fed a metric, for the
    /// diagnostic line on standard error.
    pub slowdowns: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, phase: &'static str, slowdown: f64) {
        self.slowdowns.push((phase, slowdown));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

pub type Error = Box<dyn std::error::Error + Send + Sync>;

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, Error> {
    match name {
        "fill" => fill::run(ctx),
        "read_cold" => read_cold::run(ctx),
        "serve_mixed" => serve_mixed::run(ctx),
        "cluster_write" => cluster_write::run(ctx),
        "tune_sim" => tune_sim::run(ctx),
        other => Err(format!("unknown workload {other:?}").into()),
    }
}

// ---------------------------------------------------------------------------
// The closed-loop client
// ---------------------------------------------------------------------------

/// What one client thread observed: a latency per operation, in
/// nanoseconds, how many operations failed or returned a wrong value, and
/// how fast the host was meanwhile.
#[derive(Debug)]
pub struct ClientLog {
    pub reads: Vec<u32>,
    pub writes: Vec<u32>,
    pub failed: u64,
    tracer: Option<Arc<Tracer>>,
    /// Sampled between operations; see [`crate::hostspeed`].
    pub gauge: Gauge,
}

impl ClientLog {
    fn new(tracer: Option<Arc<Tracer>>) -> ClientLog {
        ClientLog {
            reads: Vec::new(),
            writes: Vec::new(),
            failed: 0,
            tracer,
            gauge: Gauge::new().expect("create the host-speed gauge's scratch files"),
        }
    }

    fn timed(&mut self, kind: Kind, tag: u64, op: impl FnOnce() -> bool) {
        let end = {
            let _span = self.tracer.as_ref().map(|t| t.enter(kind, tag));
            let start = Instant::now();
            let ok = op();
            let end = Instant::now();
            let ns = u32::try_from((end - start).as_nanos()).unwrap_or(u32::MAX);
            match kind {
                Kind::ClientRead => self.reads.push(ns),
                _ => self.writes.push(ns),
            }
            self.failed += u64::from(!ok);
            end
        };
        self.gauge.tick(end);
    }

    /// Times one read; `op` returns whether it succeeded *and* returned
    /// the right value.
    pub fn read(&mut self, key: &[u8; KEY_LEN], op: impl FnOnce() -> bool) {
        self.timed(Kind::ClientRead, crate::trace::key_tag(key), op);
    }

    /// Times one write; `op` returns whether it was acknowledged.
    pub fn write(&mut self, key: &[u8; KEY_LEN], op: impl FnOnce() -> bool) {
        self.timed(Kind::ClientWrite, crate::trace::key_tag(key), op);
    }
}

/// One measured phase: every client's log, the wall and CPU time the
/// phase took, and the host's slowdown while it ran. Timings come out
/// divided by the slowdown (rates multiplied); the `raw_` ones do not.
#[derive(Debug)]
pub struct Phase {
    pub wall: Duration,
    pub cpu_s: f64,
    pub logs: Vec<ClientLog>,
    pub slowdown: f64,
}

impl Phase {
    pub fn ops(&self) -> u64 {
        self.logs
            .iter()
            .map(|l| (l.reads.len() + l.writes.len()) as u64)
            .sum()
    }

    pub fn failed(&self) -> u64 {
        self.logs.iter().map(|l| l.failed).sum()
    }

    pub fn raw_ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.raw_ops_per_s() * self.slowdown
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.ops() as f64 / self.slowdown
    }

    /// Median client-observed read latency, corrected.
    pub fn read_p50_us(&self) -> f64 {
        pct_us(&self.reads_sorted(), 50.0) / self.slowdown
    }

    /// Median client-observed write latency, corrected.
    pub fn write_p50_us(&self) -> f64 {
        pct_us(&self.writes_sorted(), 50.0) / self.slowdown
    }

    pub fn reads_sorted(&self) -> Vec<u32> {
        sorted(self.logs.iter().flat_map(|l| l.reads.iter().copied()))
    }

    pub fn writes_sorted(&self) -> Vec<u32> {
        sorted(self.logs.iter().flat_map(|l| l.writes.iter().copied()))
    }
}

fn sorted(samples: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut v: Vec<u32> = samples.collect();
    v.sort_unstable();
    v
}

/// Percentile `p` of sorted nanosecond samples, in microseconds; 0 when
/// the sample cannot support it (the caller's check on sample counts
/// makes that a failure rather than a silent zero).
pub fn pct_us(sorted_ns: &[u32], p: f64) -> f64 {
    percentile(sorted_ns, p)
        .map(|ns| f64::from(ns) / 1e3)
        .unwrap_or(0.0)
}

/// Runs `body` once on each of [`CLIENTS`] threads, released together.
/// Every client issues its next operation when the previous one returns.
/// With a tracer, each operation is also a client span.
pub fn closed_loop(
    tracer: Option<&Arc<Tracer>>,
    body: impl Fn(usize, &mut ClientLog) + Sync,
) -> Phase {
    let barrier = Barrier::new(CLIENTS + 1);
    let mut logs = Vec::new();
    let (mut wall, mut cpu_s) = (Duration::ZERO, 0.0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (barrier, body) = (&barrier, &body);
                let mut log = ClientLog::new(tracer.cloned());
                std::thread::Builder::new()
                    .name(format!("client-{t}"))
                    .spawn_scoped(scope, move || {
                        barrier.wait();
                        body(t, &mut log);
                        // However short the phase, it ends with a sample.
                        log.gauge.sample();
                        log
                    })
                    .expect("spawn client thread")
            })
            .collect();
        let cpu_before = host::cpu_seconds();
        barrier.wait();
        let start = Instant::now();
        for h in handles {
            logs.push(h.join().expect("client thread panicked"));
        }
        wall = start.elapsed();
        cpu_s = host::cpu_seconds() - cpu_before;
    });
    let slowdown = hostspeed::combined(logs.iter().map(|l| &l.gauge));
    Phase {
        wall,
        cpu_s,
        logs,
        slowdown,
    }
}

/// Gauge samples taken on each side of a set-up round.
const SETUP_GAUGE_SAMPLES: usize = 16;

/// Runs `setup` `times` times and returns the last result with the median
/// duration; earlier results are handed to `discard`. Each round's
/// duration is divided by the host's slowdown sampled just before and
/// just after it.
pub fn median_setup<T>(
    times: usize,
    mut setup: impl FnMut(usize) -> Result<T, Error>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), Error> {
    let mut secs = Vec::new();
    let mut last = None;
    for round in 0..times {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        let mut gauge = Gauge::new()?;
        (0..SETUP_GAUGE_SAMPLES).for_each(|_| gauge.sample());
        let start = Instant::now();
        last = Some(setup(round)?);
        let raw = start.elapsed().as_secs_f64();
        (0..SETUP_GAUGE_SAMPLES).for_each(|_| gauge.sample());
        secs.push(raw / gauge.slowdown());
    }
    Ok((
        last.expect("at least one set-up round"),
        crate::stats::median(&secs),
    ))
}

// ---------------------------------------------------------------------------
// Opening the engine
// ---------------------------------------------------------------------------

/// A real-mode engine on a directory, as the workloads see it.
pub struct Store {
    pub db: Arc<Db>,
    /// What clients (or the server) call: the `Db` itself, or the
    /// `TraceEngine` around it in a traced run.
    pub engine: Arc<dyn KvEngine>,
    pub listener: Option<Arc<TraceListener>>,
}

/// The wall-clock environment every real-mode workload opens its engine in.
pub fn wall_env() -> HardwareEnv {
    HardwareEnv::builder().cores(host::nproc()).build_wall()
}

/// Opens (creating or recovering) an engine on `dir`; with a tracer, wraps
/// its file system and itself and attaches the counting listener.
pub fn open_store(
    tracer: Option<&Arc<Tracer>>,
    dir: &Path,
    opts: Options,
    wal_sink: Option<Arc<dyn WalSink>>,
) -> Result<Store, Error> {
    let std_vfs: Arc<dyn Vfs> = Arc::new(StdVfs::new(dir)?);
    let mut builder = Db::builder(opts).env(&wall_env());
    if let Some(sink) = wal_sink {
        builder = builder.wal_sink(sink);
    }
    match tracer {
        None => {
            let db = Arc::new(builder.vfs(std_vfs).open()?);
            Ok(Store {
                engine: Arc::clone(&db) as Arc<dyn KvEngine>,
                db,
                listener: None,
            })
        }
        Some(tracer) => {
            let listener = Arc::new(TraceListener::default());
            let vfs = Arc::new(TraceVfs::new(std_vfs, Arc::clone(tracer)));
            let db = Arc::new(
                builder
                    .vfs(vfs)
                    .listener(Arc::clone(&listener) as _)
                    .open()?,
            );
            let engine = Arc::new(TraceEngine::new(Arc::clone(&db) as _, Arc::clone(tracer)));
            Ok(Store {
                db,
                engine,
                listener: Some(listener),
            })
        }
    }
}

/// The small-tree options `fill` and `read_cold` share, so a few seconds
/// of writes go through dozens of flushes and compactions.
pub fn small_tree_options() -> Options {
    Options {
        write_buffer_size: 4 << 20,
        target_file_size_base: 4 << 20,
        max_bytes_for_level_base: 16 << 20,
        ..Options::default()
    }
}

// ---------------------------------------------------------------------------
// Engine counters -> metrics
// ---------------------------------------------------------------------------

/// Bytes of user data in `n` of the benchmark's records.
pub fn user_bytes(n: u64) -> f64 {
    (n * (KEY_LEN + VALUE_LEN) as u64) as f64
}

/// (WAL + flush + compaction bytes written) / user bytes written.
pub fn write_amp(t: &TickerSnapshot) -> f64 {
    let physical = t.get(Ticker::WalBytes)
        + t.get(Ticker::FlushBytesWritten)
        + t.get(Ticker::CompactionBytesWritten);
    physical as f64 / t.get(Ticker::BytesWritten).max(1) as f64
}

/// SST bytes on disk / live user bytes.
pub fn space_amp(stats: &DbStats, live_records: u64) -> f64 {
    let sst: u64 = stats.levels.iter().map(|(_, bytes)| bytes).sum();
    sst as f64 / user_bytes(live_records)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Seconds the engine's own `<name>.time.micros` histogram sums to, read
/// from the public statistics dump (`COUNT : n AVG : micros`).
fn histogram_busy_s(stats_text: &str, name: &str) -> f64 {
    let Some(line) = stats_text
        .lines()
        .find(|l| l.starts_with(&format!("rocksdb.{name} ")))
    else {
        return 0.0;
    };
    let field = |label: &str| {
        line.split(label)
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
    };
    field("COUNT : ").unwrap_or(0.0) * field("AVG : ").unwrap_or(0.0) / 1e6
}

/// The per-layer metrics every real-mode workload derives the same way
/// (client tails aside: see [`client_tails`]).
///
/// `life` holds the counters over the engine's whole life (set-up
/// included): WAL, flush and compaction matter to `read_cold` only
/// through its set-up. `measured` is the change over the measured phase
/// and feeds everything about reads.
pub fn engine_layer_metrics(
    out: &mut Outcome,
    store: &Store,
    life: &TickerSnapshot,
    measured: &TickerSnapshot,
    phase: &Phase,
    report: &Report,
) {
    let dump = store.db.stats_text();
    let listener = store.listener.as_ref().expect("traced run has a listener");
    let gets = measured.get(Ticker::GetHit) + measured.get(Ticker::GetMiss);
    let (hits, misses) = (
        measured.get(Ticker::BlockCacheHit),
        measured.get(Ticker::BlockCacheMiss),
    );
    let (mem_hit, mem_miss) = (
        measured.get(Ticker::MemtableHit),
        measured.get(Ticker::MemtableMiss),
    );
    let client_ns = phase.wall.as_nanos() as f64 * CLIENTS as f64;
    let (append, sync, pread, meta) = (
        report.kind(Kind::VfsAppend),
        report.kind(Kind::VfsSync),
        report.kind(Kind::VfsPread),
        report.kind(Kind::VfsMeta),
    );
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;

    out.metric(
        "db.write_self_us",
        report.kind(Kind::DbWrite).self_time.percentile_us(50.0),
    );
    out.metric(
        "db.get_self_us",
        report.kind(Kind::DbGet).self_time.percentile_us(50.0),
    );
    out.metric(
        "db.group_commit_size",
        ratio(
            measured.get(Ticker::GroupCommitBatches),
            measured.get(Ticker::GroupCommits),
        ),
    );
    out.metric(
        "db.stall_share",
        measured.get(Ticker::StallNanos) as f64 / client_ns,
    );
    out.metric(
        "db.write_slowdowns",
        measured.get(Ticker::WriteSlowdowns) as f64,
    );
    out.metric("db.write_stops", measured.get(Ticker::WriteStops) as f64);
    out.metric("memtable.hit_ratio", ratio(mem_hit, mem_hit + mem_miss));
    out.metric("wal.writes", life.get(Ticker::WalWrites) as f64);
    out.metric("wal.syncs", life.get(Ticker::WalSyncs) as f64);
    out.metric(
        "wal.bytes_per_user_byte",
        ratio(life.get(Ticker::WalBytes), life.get(Ticker::BytesWritten)),
    );
    out.metric("flush.jobs", load(&listener.flush_jobs));
    out.metric("flush.bytes", load(&listener.flush_bytes));
    out.metric("flush.busy_s", histogram_busy_s(&dump, "flush.time.micros"));
    out.metric("compaction.jobs", load(&listener.compaction_jobs));
    out.metric(
        "compaction.bytes_read",
        load(&listener.compaction_bytes_read),
    );
    out.metric(
        "compaction.bytes_written",
        load(&listener.compaction_bytes_written),
    );
    out.metric(
        "compaction.busy_s",
        histogram_busy_s(&dump, "compaction.time.micros"),
    );
    out.metric(
        "compaction.keys_dropped",
        load(&listener.compaction_keys_dropped),
    );
    out.metric("cache.block_hit_ratio", ratio(hits, hits + misses));
    out.metric("cache.block_misses_per_get", ratio(misses, gets));
    out.metric("sstable.preads_per_get", ratio(pread.nested, gets));
    out.metric(
        "sstable.bytes_read_per_get",
        ratio(pread.nested_bytes, gets),
    );
    out.metric(
        "bloom.useful_ratio",
        ratio(
            measured.get(Ticker::BloomUseful),
            measured.get(Ticker::BloomChecked),
        ),
    );
    out.metric("table_cache.opens", measured.get(Ticker::TableOpens) as f64);
    out.metric(
        "table_cache.evictions",
        measured.get(Ticker::TableCacheEvictions) as f64,
    );
    out.metric("vfs.appends", append.count() as f64);
    out.metric("vfs.append_bytes", append.bytes as f64);
    out.metric("vfs.fsyncs", sync.count() as f64);
    out.metric("vfs.fsync_p50_us", sync.total.percentile_us(50.0));
    out.metric("vfs.preads", pread.count() as f64);
    out.metric("vfs.fg_preads", pread.nested as f64);
    out.metric("vfs.pread_bytes", pread.bytes as f64);
    out.metric("vfs.pread_p50_us", pread.total.percentile_us(50.0));
    out.metric(
        "vfs.busy_s",
        append.busy_s() + sync.busy_s() + pread.busy_s() + meta.busy_s(),
    );
    out.metric("trace.ops_per_s", phase.ops_per_s());
    out.metric("trace.accounted_share", report.accounted_share());
    out.metric("host.slowdown", phase.slowdown);
}

/// The client-observed tails a traced run reports.
pub fn client_tails(out: &mut Outcome, reads_sorted: &[u32], writes_sorted: &[u32]) {
    out.metric("client.read_p99_us", pct_us(reads_sorted, 99.0));
    out.metric("client.write_p99_us", pct_us(writes_sorted, 99.0));
    out.metric("client.read_p999_us", pct_us(reads_sorted, 99.9));
    out.metric("client.write_p999_us", pct_us(writes_sorted, 99.9));
}

/// Reads back every record in `ids` through `engine` on the client
/// threads, timing and verifying each, untraced; the shared shape of
/// `fill`'s re-read and `cluster_write`'s read-back.
pub fn read_back(ctx: &Ctx, engine: &dyn KvEngine, ids: &[u32]) -> Phase {
    closed_loop(None, |t, log| {
        for id in ids.iter().skip(t).step_by(CLIENTS) {
            let id = u64::from(*id);
            let key = gen::key(id);
            let want = ctx.expected(id);
            log.read(
                &key,
                || matches!(engine.get(&key), Ok(Some(v)) if v == want),
            );
        }
    })
}

/// Counts every record of the store with forward scans.
pub fn count_records(engine: &dyn KvEngine) -> Result<u64, Error> {
    const CHUNK: usize = 20_000;
    let mut start = Vec::new();
    let mut total = 0u64;
    loop {
        let rows = engine.scan(&start, CHUNK)?;
        total += rows.len() as u64;
        let Some((last, _)) = rows.last() else {
            return Ok(total);
        };
        if rows.len() < CHUNK {
            return Ok(total);
        }
        // The next chunk starts just past the last key returned.
        start = last.clone();
        start.push(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_setup_reports_the_median_and_keeps_the_last() {
        let mut discarded = Vec::new();
        let (kept, secs) = median_setup(
            3,
            |round| {
                std::thread::sleep(Duration::from_millis([200, 2, 20][round]));
                Ok(round)
            },
            |r| discarded.push(r),
        )
        .unwrap();
        assert_eq!((kept, discarded), (2, vec![0, 1]));
        // 20 ms divided by the host's slowdown, which is within 0.4..2.5
        // on any host the benchmark is usable on; the other two rounds
        // cannot land in that window.
        assert!(
            (0.008..0.050).contains(&secs),
            "median of 200/2/20 ms, got {secs}"
        );
    }

    #[test]
    fn busy_seconds_come_from_count_times_average() {
        let dump = "rocksdb.db.write.micros P50 : 2.02 COUNT : 10 AVG : 9.48 STDDEV : 1\n\
                    rocksdb.flush.time.micros P50 : 3.0 P100 : 9.0 COUNT : 61 AVG : 34065.81 STDDEV : 9838.71\n";
        assert!((histogram_busy_s(dump, "flush.time.micros") - 61.0 * 34065.81 / 1e6).abs() < 1e-9);
        assert_eq!(histogram_busy_s(dump, "compaction.time.micros"), 0.0);
    }

    #[test]
    fn closed_loop_times_every_operation_and_counts_failures() {
        let phase = closed_loop(None, |t, log| {
            for i in 0..50u64 {
                let key = gen::key(i);
                log.write(&key, || true);
                log.read(&key, || !(t == 0 && i == 7));
            }
        });
        assert_eq!((phase.ops(), phase.failed()), (200, 1));
        // Every client sampled the host at least at its first operation
        // and when it finished.
        assert!(phase.logs.iter().all(|l| l.gauge.samples().len() >= 2));
        assert!(phase.slowdown > 0.0);
        assert_eq!(phase.ops_per_s(), phase.raw_ops_per_s() * phase.slowdown);
        assert_eq!(
            (phase.reads_sorted().len(), phase.writes_sorted().len()),
            (100, 100)
        );
        assert!(phase.ops_per_s() > 0.0);
    }
}
