//! The benchmark runner: drives a [`lsm_kvs::Db`] through a
//! [`BenchmarkSpec`] on virtual client threads.
//!
//! Client "threads" are virtual timelines: the runner always advances the
//! thread with the smallest clock, positions the shared simulation clock
//! there, issues one operation (which advances the clock by its cost),
//! and records the delta as that operation's latency. This makes
//! multi-threaded runs deterministic and seed-reproducible.

use hw_sim::{HardwareEnv, SimDuration, SimTime, UtilizationSample};
use lsm_kvs::{
    DbStats, Histogram, KvEngine, Result, TickerSnapshot, WriteBatch, WriteOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::keygen::{render_key, KeyDistribution, KeyGenerator, ValueGenerator};
use crate::report::{BenchReport, MonitorControl, MonitorSample};
use crate::spec::{BenchmarkSpec, WorkloadKind};

/// Runs `spec` against `db`, optionally reporting progress to `monitor`.
///
/// The monitor is invoked every `spec.report_interval_ms` of simulated
/// time; returning [`MonitorControl::Stop`] aborts the run (the paper's
/// "constant benchmark monitor for early stop").
///
/// # Errors
///
/// Propagates engine errors (I/O, corruption, stall timeouts).
pub fn run_benchmark<E: KvEngine + ?Sized>(
    db: &E,
    env: &HardwareEnv,
    spec: &BenchmarkSpec,
    mut monitor: Option<&mut dyn FnMut(&MonitorSample) -> MonitorControl>,
) -> Result<BenchReport> {
    // ------------------------------------------------------------------
    // Preload phase (not measured).
    // ------------------------------------------------------------------
    if spec.preload_keys > 0 {
        preload(db, spec)?;
    }

    // ------------------------------------------------------------------
    // Measured phase.
    // ------------------------------------------------------------------
    let tickers_before = db.stats().tickers;
    let start = env.clock().now();

    let mut threads: Vec<ThreadState> = (0..spec.num_threads.max(1))
        .map(|t| ThreadState::new(spec, t as u64, start))
        .collect();

    let write_opts = WriteOptions::default();
    let mut totals = Totals::default();
    let mut samples = Vec::new();
    let mut aborted = false;

    let interval = SimDuration::from_millis(spec.report_interval_ms.max(1));
    let mut next_sample = start + interval;
    let mut ops_at_last_sample = 0u64;

    while totals.ops < spec.num_ops {
        // Pick the thread with the smallest virtual time.
        let idx = threads
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| t.time)
            .map(|(i, _)| i)
            .expect("at least one thread");
        let thread_time = threads[idx].time;

        // Monitor sampling happens on the global (min) timeline.
        if thread_time >= next_sample {
            let interval_ops = totals.ops - ops_at_last_sample;
            ops_at_last_sample = totals.ops;
            let util = UtilizationSample::capture(env, thread_time, interval_ops);
            let sample = MonitorSample {
                at_secs: thread_time.saturating_since(start).as_secs_f64(),
                interval_ops,
                interval_ops_per_sec: interval_ops as f64 / interval.as_secs_f64(),
                cpu_util_percent: util.cpu_util_percent,
                mem_pressure: util.mem_pressure,
            };
            samples.push(sample);
            next_sample += interval;
            if let Some(cb) = monitor.as_deref_mut() {
                if cb(&sample) == MonitorControl::Stop {
                    aborted = true;
                    break;
                }
            }
            continue;
        }

        env.clock().set(thread_time);
        let op = threads[idx].next_op(spec);
        let before = env.clock().now();
        issue(db, &write_opts, op, || env.clock().now() - before, &mut totals)?;
        let mut after = env.clock().now();
        // Mixgraph QPS pacing: space requests along a sine wave.
        if let Some(gap) = threads[idx].pacing_gap(spec, after.saturating_since(start)) {
            let op_latency = after - before;
            if gap > op_latency {
                after += gap.saturating_sub(op_latency);
            }
        }
        threads[idx].time = after;
    }

    // Settle the clock at the max thread time for the duration figure.
    let end = threads.iter().map(|t| t.time).max().unwrap_or(start);
    env.clock().advance_to(end);
    let duration = end.saturating_since(start);

    Ok(totals.into_report(spec, duration, db.stats(), &tickers_before, samples, aborted))
}

/// Runs `spec` against `db` on real OS threads with wall-clock timing.
///
/// This is the measurement path for a [`Db`] opened in real-concurrency
/// mode (wall clock + `StdVfs`): `threads` OS threads share the database
/// and issue `spec.num_ops` operations between them, each thread drawing
/// keys/values from its own generator seeded `spec.seed + t * phi` (the
/// same per-thread derivation the simulated runner uses). Latencies come
/// from `std::time::Instant`, not the virtual clock, and per-thread
/// histograms are merged into the report. `sync` selects durable WAL
/// writes, which is where group commit earns its keep.
///
/// Monitor sampling is not supported here (the report's `samples` list is
/// empty): the monitor protocol is tied to the simulated timeline.
///
/// # Errors
///
/// Propagates the first engine error any thread hits (I/O, corruption,
/// stall timeouts).
pub fn run_benchmark_real<E: KvEngine + ?Sized>(
    db: &E,
    spec: &BenchmarkSpec,
    threads: usize,
    sync: bool,
) -> Result<BenchReport> {
    if spec.preload_keys > 0 {
        preload(db, spec)?;
    }

    let tickers_before = db.stats().tickers;
    let threads = threads.max(1);
    let write_opts = if sync {
        WriteOptions::synced()
    } else {
        WriteOptions::default()
    };

    let start = std::time::Instant::now();
    let per_thread: Vec<Result<Totals>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let write_opts = &write_opts;
                let ops = spec.num_ops / threads as u64
                    + u64::from((t as u64) < spec.num_ops % threads as u64);
                scope.spawn(move || -> Result<Totals> {
                    let mut state = ThreadState::new(spec, t as u64, SimTime::ZERO);
                    let mut totals = Totals::default();
                    // `ops` counts keys; a MultiGet batch covers several
                    // per iteration.
                    while totals.ops < ops {
                        let op = state.next_op(spec);
                        let before = std::time::Instant::now();
                        let elapsed = || SimDuration::from_secs_f64(before.elapsed().as_secs_f64());
                        issue(db, write_opts, op, elapsed, &mut totals)?;
                    }
                    Ok(totals)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench thread panicked"))
            .collect()
    });
    let duration = SimDuration::from_secs_f64(start.elapsed().as_secs_f64());

    let mut totals = Totals::default();
    for t in per_thread {
        totals.merge(&t?);
    }
    Ok(totals.into_report(spec, duration, db.stats(), &tickers_before, Vec::new(), false))
}

/// What a run, or one thread of it, has measured so far.
#[derive(Default)]
struct Totals {
    write: Histogram,
    read: Histogram,
    scan: Histogram,
    rmw: Histogram,
    found: u64,
    /// Logical operations (keys) issued.
    ops: u64,
}

impl Totals {
    fn merge(&mut self, other: &Totals) {
        self.write.merge(&other.write);
        self.read.merge(&other.read);
        self.scan.merge(&other.scan);
        self.rmw.merge(&other.rmw);
        self.found += other.found;
        self.ops += other.ops;
    }

    fn into_report(
        self,
        spec: &BenchmarkSpec,
        duration: SimDuration,
        stats: DbStats,
        tickers_before: &TickerSnapshot,
        samples: Vec<MonitorSample>,
        aborted: bool,
    ) -> BenchReport {
        let latency = |h: &Histogram| (h.count() > 0).then(|| h.snapshot());
        BenchReport {
            workload: spec.workload.name().to_string(),
            short_name: spec.workload.short_name().to_string(),
            ops: self.ops,
            found: self.found,
            duration,
            ops_per_sec: self.ops as f64 / duration.as_secs_f64().max(1e-9),
            micros_per_op: duration.as_micros_f64() / self.ops.max(1) as f64,
            write_latency: latency(&self.write),
            read_latency: latency(&self.read),
            scan_latency: latency(&self.scan),
            rmw_latency: latency(&self.rmw),
            tickers: stats.tickers.delta_since(tickers_before),
            levels: stats.levels,
            samples,
            aborted,
        }
    }
}

/// Issues one operation and records its latency — `elapsed()` once it
/// has completed — and what it found into `totals`. Both schedulers (the
/// min-clock virtual threads and the OS threads) run every op through
/// here; they differ only in what `elapsed` reads.
fn issue<E: KvEngine + ?Sized>(
    db: &E,
    write_opts: &WriteOptions,
    op: Op,
    elapsed: impl Fn() -> SimDuration,
    totals: &mut Totals,
) -> Result<()> {
    let put = |key: &[u8], value: &[u8]| {
        let mut batch = WriteBatch::new();
        batch.put(key, value);
        db.write_opt(write_opts, batch)
    };
    totals.ops += op.weight();
    match op {
        Op::Put(key, value) => {
            put(&key, &value)?;
            totals.write.record(elapsed());
        }
        Op::Get(key) => {
            totals.found += u64::from(db.get(&key)?.is_some());
            totals.read.record(elapsed());
        }
        Op::MultiGet(keys) => {
            totals.found += db.multi_get(&keys)?.iter().flatten().count() as u64;
            // One histogram entry per batch: the recorded latency is
            // what a caller of the batched API actually waits.
            totals.read.record(elapsed());
        }
        Op::Scan(start_key, len) => {
            totals.found += db.scan(&start_key, len)?.len() as u64;
            totals.scan.record(elapsed());
        }
        Op::ReadModifyWrite(key, value) => {
            totals.found += u64::from(db.get(&key)?.is_some());
            put(&key, &value)?;
            // One entry for the whole read+write cycle: that is the
            // latency a YCSB F client observes per RMW.
            totals.rmw.record(elapsed());
        }
    }
    Ok(())
}

/// Fills the database with `spec.preload_keys` keys in pseudo-random
/// order, then waits for background work so the measured phase starts
/// from a settled tree.
fn preload<E: KvEngine + ?Sized>(db: &E, spec: &BenchmarkSpec) -> Result<()> {
    let n = spec.preload_keys;
    let mut value_gen = ValueGenerator::fixed(spec.seed, spec.value_size, spec.value_entropy);
    // Walk the whole key space in scattered order via `i * mult mod n`,
    // which is a bijection when gcd(mult, n) == 1.
    let mut mult = (0x5851_f42d_4c95_7f2d_u64 % n).max(1);
    while gcd(mult, n) != 1 {
        mult += 1;
    }
    for i in 0..n {
        let idx = ((i as u128 * mult as u128) % n as u128) as u64;
        let key = render_key(idx, spec.key_size);
        db.put(&key, &value_gen.next_value())?;
    }
    db.flush()?;
    db.wait_background_idle()?;
    Ok(())
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

enum Op {
    Put(Vec<u8>, Vec<u8>),
    Get(Vec<u8>),
    MultiGet(Vec<Vec<u8>>),
    /// Range scan from a start key, up to `len` entries (YCSB E).
    Scan(Vec<u8>, usize),
    /// Read a key, then write it back with a fresh value (YCSB F).
    ReadModifyWrite(Vec<u8>, Vec<u8>),
}

impl Op {
    /// How many logical operations (keys) this op covers; `num_ops`
    /// counts keys, so a MultiGet batch advances the budget by its size.
    fn weight(&self) -> u64 {
        match self {
            Op::MultiGet(keys) => keys.len().max(1) as u64,
            _ => 1,
        }
    }
}

struct ThreadState {
    time: SimTime,
    keygen: KeyGenerator,
    valuegen: ValueGenerator,
    rng: StdRng,
    /// Next key index this thread inserts (YCSB D/E grow the key space
    /// past the preload). Threads stride so inserts never collide.
    next_insert: u64,
    insert_stride: u64,
}

impl ThreadState {
    fn new(spec: &BenchmarkSpec, thread: u64, start: SimTime) -> ThreadState {
        let seed = spec.seed.wrapping_add(thread.wrapping_mul(0x9e3779b97f4a7c15));
        let distribution = match &spec.workload {
            WorkloadKind::Mixgraph(cfg) => KeyDistribution::PowerLaw { alpha: cfg.key_alpha },
            WorkloadKind::Ycsb(cfg) if cfg.mix == crate::spec::YcsbMix::D => {
                // Read-latest: recency skew anchored at the insert
                // frontier, which starts one past the preload.
                KeyDistribution::Latest { alpha: cfg.zipf_alpha, frontier: spec.key_space.max(1) }
            }
            WorkloadKind::Ycsb(cfg) => KeyDistribution::PowerLaw { alpha: cfg.zipf_alpha },
            _ => KeyDistribution::Uniform,
        };
        let valuegen = match &spec.workload {
            WorkloadKind::Mixgraph(cfg) => ValueGenerator::pareto(
                seed,
                spec.value_size,
                cfg.value_pareto_shape,
                cfg.value_min,
            ),
            _ => ValueGenerator::fixed(seed, spec.value_size, spec.value_entropy),
        };
        ThreadState {
            time: start,
            keygen: KeyGenerator::new(seed, spec.key_space.max(1), spec.key_size, distribution),
            valuegen,
            rng: StdRng::seed_from_u64(seed ^ 0xabcdef),
            next_insert: spec.key_space.max(1) + thread,
            insert_stride: spec.num_threads.max(1) as u64,
        }
    }

    /// Inserts a brand-new key past everything written so far (the YCSB
    /// D/E insert slice) and tells the recency distribution about it.
    fn insert_op(&mut self) -> Op {
        let key = self.keygen.key_for(self.next_insert);
        self.next_insert += self.insert_stride;
        self.keygen.advance_frontier(self.insert_stride);
        Op::Put(key, self.valuegen.next_value())
    }

    fn next_op(&mut self, spec: &BenchmarkSpec) -> Op {
        match &spec.workload {
            WorkloadKind::FillRandom => Op::Put(self.keygen.next_key(), self.valuegen.next_value()),
            WorkloadKind::ReadRandom => Op::Get(self.keygen.next_key()),
            WorkloadKind::MultiReadRandom(batch) => {
                let n = (*batch).max(1);
                Op::MultiGet((0..n).map(|_| self.keygen.next_key()).collect())
            }
            WorkloadKind::ReadRandomWriteRandom => {
                if self.rng.gen_range(0..100u32) < spec.read_percent {
                    Op::Get(self.keygen.next_key())
                } else {
                    Op::Put(self.keygen.next_key(), self.valuegen.next_value())
                }
            }
            WorkloadKind::Mixgraph(cfg) => {
                if self.rng.gen_range(0.0f64..1.0) < cfg.read_fraction {
                    Op::Get(self.keygen.next_key())
                } else {
                    Op::Put(self.keygen.next_key(), self.valuegen.next_value())
                }
            }
            WorkloadKind::Ycsb(cfg) => {
                use crate::spec::YcsbMix;
                let is_read = self.rng.gen_range(0..100u32) < spec.read_percent;
                match cfg.mix {
                    YcsbMix::A | YcsbMix::B | YcsbMix::C => {
                        if is_read {
                            Op::Get(self.keygen.next_key())
                        } else {
                            Op::Put(self.keygen.next_key(), self.valuegen.next_value())
                        }
                    }
                    YcsbMix::D => {
                        if is_read {
                            Op::Get(self.keygen.next_key())
                        } else {
                            self.insert_op()
                        }
                    }
                    YcsbMix::E => {
                        if is_read {
                            let len = self.rng.gen_range(1..=cfg.max_scan_len.max(1));
                            Op::Scan(self.keygen.next_key(), len)
                        } else {
                            self.insert_op()
                        }
                    }
                    YcsbMix::F => {
                        if is_read {
                            Op::Get(self.keygen.next_key())
                        } else {
                            Op::ReadModifyWrite(self.keygen.next_key(), self.valuegen.next_value())
                        }
                    }
                }
            }
        }
    }

    /// Sine-modulated pacing for mixgraph: the desired inter-arrival gap
    /// at elapsed time `t`, or `None` for unpaced workloads.
    fn pacing_gap(&mut self, spec: &BenchmarkSpec, elapsed: SimDuration) -> Option<SimDuration> {
        let WorkloadKind::Mixgraph(cfg) = &spec.workload else {
            return None;
        };
        if cfg.qps_sine_amplitude <= 0.0 {
            return None;
        }
        // Base QPS chosen so pacing modulates rather than throttles: an
        // op that is faster than the trough gap gets delayed, slower ops
        // run free.
        let base_gap_us = 8.0; // ~125k ops/sec mean target per thread
        let phase = 2.0 * std::f64::consts::PI * elapsed.as_secs_f64()
            / cfg.qps_sine_period_secs.max(1e-3);
        let factor = 1.0 + cfg.qps_sine_amplitude * phase.sin();
        Some(SimDuration::from_secs_f64(base_gap_us * 1e-6 / factor.max(0.1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_sim::DeviceModel;
    use lsm_kvs::options::Options;
    use lsm_kvs::Db;

    fn env() -> HardwareEnv {
        HardwareEnv::builder()
            .cores(4)
            .memory_gib(8)
            .device(DeviceModel::nvme_ssd())
            .build_sim()
    }

    fn small_opts() -> Options {
        Options {
            write_buffer_size: 256 << 10,
            target_file_size_base: 256 << 10,
            max_bytes_for_level_base: 1 << 20,
            ..Options::default()
        }
    }

    fn tiny(mut spec: BenchmarkSpec, ops: u64) -> BenchmarkSpec {
        spec.num_ops = ops;
        spec.key_space = spec.key_space.min(ops.max(1000));
        if spec.preload_keys > 0 {
            spec.preload_keys = ops;
            spec.key_space = ops;
        }
        spec
    }

    #[test]
    fn fillrandom_produces_write_report() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let spec = tiny(BenchmarkSpec::fillrandom(1.0), 5_000);
        let report = run_benchmark(&db, &env, &spec, None).unwrap();
        assert_eq!(report.ops, 5_000);
        assert!(report.ops_per_sec > 0.0);
        assert!(report.write_latency.is_some());
        assert!(report.read_latency.is_none());
        assert!(!report.aborted);
        let text = report.to_db_bench_text();
        assert!(text.contains("fillrandom"));
    }

    #[test]
    fn readrandom_preloads_and_finds_keys() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let spec = tiny(BenchmarkSpec::readrandom(1.0), 2_000);
        let report = run_benchmark(&db, &env, &spec, None).unwrap();
        assert_eq!(report.ops, 2_000);
        assert!(report.read_latency.is_some());
        // All reads target the preloaded space, so all should be found.
        assert_eq!(report.found, 2_000);
    }

    #[test]
    fn multireadrandom_batches_reads() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let spec = tiny(BenchmarkSpec::multireadrandom(1.0, 16), 2_000);
        let report = run_benchmark(&db, &env, &spec, None).unwrap();
        // num_ops counts keys; all target the preloaded space.
        assert_eq!(report.ops, 2_000);
        assert_eq!(report.found, 2_000);
        // One latency sample per batch, one engine batch per multi_get.
        assert_eq!(report.read_latency.unwrap().count, 2_000 / 16);
        assert_eq!(report.tickers.get(lsm_kvs::Ticker::MultiGetBatches), 2_000 / 16);
        assert_eq!(report.tickers.get(lsm_kvs::Ticker::MultiGetKeysRead), 2_000);
        assert!(report.to_db_bench_text().contains("multireadrandom"));
    }

    #[test]
    fn rrwr_mixes_reads_and_writes_on_two_threads() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let spec = tiny(BenchmarkSpec::readrandomwriterandom(1.0), 4_000);
        assert_eq!(spec.num_threads, 2);
        let report = run_benchmark(&db, &env, &spec, None).unwrap();
        let reads = report.read_latency.unwrap().count;
        let writes = report.write_latency.unwrap().count;
        assert_eq!(reads + writes, 4_000);
        // ~90% reads by default.
        assert!(reads > writes * 4, "reads {reads} writes {writes}");
    }

    #[test]
    fn mixgraph_runs_with_skew_and_pacing() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let spec = tiny(BenchmarkSpec::mixgraph(1.0), 4_000);
        let report = run_benchmark(&db, &env, &spec, None).unwrap();
        let reads = report.read_latency.unwrap().count;
        let writes = report.write_latency.unwrap().count;
        assert!(reads > 1_000 && writes > 1_000, "both sides present");
    }

    #[test]
    fn monitor_receives_samples_and_can_abort() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let mut spec = tiny(BenchmarkSpec::fillrandom(1.0), 200_000);
        spec.report_interval_ms = 10;
        let mut calls = 0;
        let mut cb = |_s: &MonitorSample| {
            calls += 1;
            if calls >= 3 {
                MonitorControl::Stop
            } else {
                MonitorControl::Continue
            }
        };
        let report = run_benchmark(&db, &env, &spec, Some(&mut cb)).unwrap();
        assert!(report.aborted);
        assert!(report.ops < 200_000);
        assert!(report.samples.len() >= 3);
    }

    #[test]
    fn ycsb_mixes_produce_expected_histograms() {
        use crate::spec::YcsbMix;
        let run = |mix: YcsbMix| {
            let env = env();
            let db = Db::builder(small_opts()).env(&env).open().unwrap();
            let spec = tiny(BenchmarkSpec::ycsb(mix, 1.0), 3_000);
            run_benchmark(&db, &env, &spec, None).unwrap()
        };

        let a = run(YcsbMix::A);
        let (ar, aw) = (a.read_latency.unwrap().count, a.write_latency.unwrap().count);
        assert_eq!(ar + aw, 3_000);
        assert!(aw * 2 > ar && ar * 2 > aw, "A should be ~50/50: {ar}r/{aw}w");
        assert_eq!(a.found, ar, "zipfian reads stay inside the preload");

        let b = run(YcsbMix::B);
        let (br, bw) = (b.read_latency.unwrap().count, b.write_latency.unwrap().count);
        assert!(br > bw * 10, "B should be read-mostly: {br}r/{bw}w");

        let c = run(YcsbMix::C);
        assert_eq!(c.read_latency.unwrap().count, 3_000);
        assert!(c.write_latency.is_none());
        assert_eq!(c.found, 3_000);

        let d = run(YcsbMix::D);
        let dw = d.write_latency.unwrap().count;
        assert!(dw > 0, "D inserts");
        // Reads target recent keys; all but a vanishing few (draws that
        // race an insert not yet applied) should be found.
        let dr = d.read_latency.unwrap().count;
        assert!(d.found * 100 >= dr * 95, "found {}/{dr}", d.found);

        let e = run(YcsbMix::E);
        assert!(e.scan_latency.is_some(), "E scans");
        assert!(e.read_latency.is_none(), "E has no point reads");
        assert!(e.write_latency.unwrap().count > 0, "E inserts");
        // `found` counts scanned entries, so it dwarfs the op count.
        assert!(e.found > 3_000, "scans returned {} entries", e.found);

        let f = run(YcsbMix::F);
        let rmw = f.rmw_latency.unwrap();
        assert!(rmw.count > 0, "F read-modify-writes");
        assert!(f.read_latency.unwrap().count > 0);
        assert!(f.write_latency.is_none(), "F writes only via RMW");
        assert!(f.to_db_bench_text().contains("Microseconds per read-modify-write:"));
    }

    #[test]
    fn ycsb_is_deterministic_in_sim() {
        use crate::spec::YcsbMix;
        let run = || {
            let env = env();
            let db = Db::builder(small_opts()).env(&env).open().unwrap();
            let spec = tiny(BenchmarkSpec::ycsb(YcsbMix::E, 1.0), 2_000);
            let r = run_benchmark(&db, &env, &spec, None).unwrap();
            (r.ops_per_sec, r.found, r.duration)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ycsb_d_inserts_do_not_collide_across_threads() {
        use crate::spec::YcsbMix;
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let mut spec = tiny(BenchmarkSpec::ycsb(YcsbMix::D, 1.0), 3_000);
        spec.num_threads = 4;
        let report = run_benchmark(&db, &env, &spec, None).unwrap();
        assert_eq!(report.ops, 3_000);
        // Every insert lands past the preload; with strided indices the
        // scan from the preload boundary sees each inserted key once.
        let inserted = report.write_latency.map(|h| h.count).unwrap_or(0);
        let boundary = render_key(spec.key_space, spec.key_size);
        let past = db.scan(&boundary, usize::MAX).unwrap();
        assert_eq!(past.len() as u64, inserted);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let env = env();
            let db = Db::builder(small_opts()).env(&env).open().unwrap();
            let spec = tiny(BenchmarkSpec::mixgraph(1.0), 3_000);
            let r = run_benchmark(&db, &env, &spec, None).unwrap();
            (r.ops_per_sec, r.found, r.duration)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same hardware => identical results");
    }

    #[test]
    fn two_threads_interleave_in_time_order() {
        let env = env();
        let db = Db::builder(small_opts()).env(&env).open().unwrap();
        let mut spec = tiny(BenchmarkSpec::readrandomwriterandom(1.0), 2_000);
        spec.num_threads = 4;
        let report = run_benchmark(&db, &env, &spec, None).unwrap();
        assert_eq!(report.ops, 2_000);
        // Wall duration should be well below the sum of per-op times
        // (threads overlap).
        let serial_estimate = report.micros_per_op * 2_000.0;
        assert!(report.duration.as_micros_f64() <= serial_estimate + 1.0);
    }
}
