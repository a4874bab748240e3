//! `tune_sim`: the paper's loop — two `TuningSession`s (fillrandom, then
//! readrandom) with the well-behaved expert model against an
//! `OfflineTarget` on simulated NVMe / 4 cores / 4 GiB — run by each of
//! the two clients on its own thread, from the same seed.
//!
//! The sim-mode engine on the virtual clock (`hwsim` plus the `Db` event
//! queue) does nearly all the work; no real I/O or sockets, and the two
//! tuners share nothing. It is what a user of the *tuner* waits for. Its
//! virtual-time results are deterministic per seed, so it doubles as the
//! determinism check: both tuners must write the same report. Its latency
//! metrics are wall-clock times per *simulated* operation, taken by the
//! clients on probe databases of their own after the sessions.
//!
//! This is the only workload that hands the program a
//! `db_bench::BenchmarkSpec`, because that is the paper's path.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use db_bench::{run_benchmark, BenchmarkSpec};
use elmo_tune::{
    build_tuning_prompt, evaluate_response, vet, Decision, EnvSpec, Measurement, OfflineTarget,
    ParsedBench, PromptContext, SafeguardPolicy, SessionError, TuneTarget, TuningConfig,
    TuningReport, TuningSession,
};
use llm_client::ExpertModel;
use lsm_kvs::options::{ini, Options};
use lsm_kvs::Db;

use super::{
    client_tails, closed_loop, median_setup, pct_us, small_tree_options, space_amp, write_amp, Ctx,
    Error, Outcome, Phase, CLIENTS,
};
use crate::hostspeed::{self, Gauge};
use crate::stats::median;
use crate::trace::{Kind, TraceModel, TraceTarget};
use crate::{gen, host};

/// db_bench scale of both sessions at the reference run length
/// (fillrandom: 350 k operations per measurement).
const BASE_SCALE: f64 = 0.007;
const ITERATIONS: usize = 3;
const SETUP_ROUNDS: usize = 3;
/// Operations of the db_bench fill the determinism check runs twice.
const DETERMINISM_OPS: u64 = 100_000;
/// Records the wall-clock probe writes at the reference run length, and
/// how many of them it then reads; each pass lasts a second or two.
const PROBE_RECORDS: u64 = 400_000;
const PROBE_READ_EVERY: usize = 4;

/// Both sessions start from the small-tree options: at well under 1% of
/// the paper's data size the default 64 MiB write buffer would never
/// flush, the event queue would stay empty, and the tuner would have
/// nothing to tune.
fn start_options() -> Options {
    small_tree_options()
}

fn config() -> TuningConfig {
    TuningConfig {
        iterations: ITERATIONS,
        ..TuningConfig::default()
    }
}

/// Simulated engine operations a session asked for: one benchmark per
/// measurement, and a measurement for the baseline and for every
/// iteration whose proposal reached the benchmark.
fn requested_ops(spec: &BenchmarkSpec, report: &TuningReport) -> u64 {
    let measured = report
        .records
        .iter()
        .filter(|r| {
            matches!(
                r.decision,
                Decision::Kept | Decision::Reverted | Decision::AbortedEarly
            )
        })
        .count() as u64;
    (1 + measured) * spec.num_ops
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let env = EnvSpec::paper_default();
    let scale = BASE_SCALE * ctx.scale;
    let mut specs = [
        BenchmarkSpec::fillrandom(scale),
        BenchmarkSpec::readrandom(scale),
    ];
    for spec in &mut specs {
        spec.seed = ctx.seed;
    }
    let [fill_spec, read_spec] = &specs;

    // Set-up: what a tuner pays before its first iteration on a read
    // workload — preloading the base database every candidate forks.
    let ((), setup_s) = median_setup(
        SETUP_ROUNDS,
        |_| Ok(OfflineTarget::new(env.clone(), read_spec.clone()).prepare(&start_options())?),
        |()| (),
    )?;

    if let Some(t) = &ctx.tracer {
        t.enable();
    }
    // Like every workload, two clients: each is a tuner that runs both
    // sessions, on its own thread, from the same seed. One tuner alone
    // would leave a processor idle, and what it measured would depend on
    // which of the two unequally disturbed processors it happened to get.
    let cpu_before = host::cpu_seconds();
    let start = Instant::now();
    let tuned: Vec<Tuned> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (env, specs) = (&env, &specs);
                std::thread::Builder::new()
                    .name(format!("tuner-{t}"))
                    // As much stack as the main thread, which is where
                    // the program's own binaries run a session.
                    .stack_size(8 << 20)
                    .spawn_scoped(scope, move || tune(ctx, env, specs))
                    .expect("spawn tuner thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tuner thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu_before;
    let slowdown = hostspeed::combined(tuned.iter().map(|t| &t.gauge));
    out.note("sessions", slowdown);
    let peak_rss_mb = host::peak_rss_mib();
    let [fill_report, read_report] = tuned[0].reports.as_slice() else {
        unreachable!("two sessions")
    };
    out.check(
        "tune_sim: both tuners, given the same seed, wrote the same report",
        tuned
            .iter()
            .all(|t| format!("{:?}", t.reports) == format!("{:?}", tuned[0].reports)),
    );

    let session_ops = CLIENTS as u64
        * (requested_ops(fill_spec, fill_report) + requested_ops(read_spec, read_report));
    out.attempted = session_ops;
    let gain = fill_report.throughput_improvement();
    out.check(
        format!("tune_sim: tuning never ends below its baseline (gain {gain:.3}x)"),
        gain >= 1.0 && read_report.throughput_improvement() >= 1.0,
    );
    out.check(
        "tune_sim: both sessions ran every iteration",
        tuned[0]
            .reports
            .iter()
            .all(|r| r.records.len() == ITERATIONS),
    );

    let probe = Probe::run(ctx)?;
    out.check(
        "tune_sim: the same seed gives byte-identical db_bench text",
        probe.deterministic,
    );
    out.attempted += probe.phase.ops();
    out.failed += probe.phase.failed();
    out.note("probe", probe.phase.slowdown);
    let (reads, writes) = (probe.phase.reads_sorted(), probe.phase.writes_sorted());
    out.check(
        "tune_sim: enough probe samples for a p99",
        pct_us(&reads, 99.0) > 0.0 && pct_us(&writes, 99.0) > 0.0,
    );

    match &ctx.tracer {
        None => {
            out.metric("setup_s", setup_s);
            out.metric("ops_per_s", session_ops as f64 / wall_s * slowdown);
            out.metric("read_p50_us", probe.phase.read_p50_us());
            out.metric("write_p50_us", probe.phase.write_p50_us());
            out.metric("cpu_us_per_op", cpu_s * 1e6 / session_ops as f64 / slowdown);
            out.metric("write_amp", probe.write_amp);
            out.metric("space_amp", probe.space_amp);
            out.metric("peak_rss_mb", peak_rss_mb);
        }
        Some(tracer) => {
            let report = tracer.report();
            // Per session, over both tuners: simulated operations completed
            // inside `measure` per second of it.
            let session_rate = |i: usize| {
                tuned.iter().map(|t| t.sim_ops[i]).sum::<u64>() as f64
                    / tuned.iter().map(|t| t.measure_s[i]).sum::<f64>()
            };
            out.metric("sim.fill_ops_per_wall_s", session_rate(0));
            out.metric("sim.read_ops_per_wall_s", session_rate(1));
            // Shares are of the tuners' own time: each had a thread to itself.
            let tuner_s: f64 = tuned.iter().map(|t| t.wall_s).sum();
            let total_measure_s = report.kind(Kind::TuneMeasure).busy_s();
            out.metric("sim.measure_share", total_measure_s / tuner_s);
            // Six completions cannot support a percentile; this is the mean.
            let llm = report.kind(Kind::LlmComplete);
            out.metric(
                "llm.complete_us",
                llm.busy_s() * 1e6 / llm.count().max(1) as f64,
            );
            let (prompt_us, evaluate_us) = replay_core(&env, fill_spec, fill_report);
            out.metric("core.prompt_build_us", prompt_us);
            out.metric("core.evaluate_us", evaluate_us);
            client_tails(&mut out, &reads, &writes);
            out.metric("tune.wall_s", wall_s);
            out.metric("tune.gain_x", gain);
            out.metric("trace.ops_per_s", session_ops as f64 / wall_s * slowdown);
            out.metric("host.slowdown", slowdown);
            // The traffic is what the workload claims: the sessions' time
            // goes to the simulated engine behind the target (preloading
            // the read session's base in `prepare`, benchmarks in `measure`).
            let target_share =
                (total_measure_s + report.kind(Kind::TunePrepare).busy_s()) / tuner_s;
            out.check(
                format!("tune_sim: the target takes at least 0.9 of the sessions (was {target_share:.3})"),
                target_share >= 0.9,
            );
            out.trace = Some(report);
        }
    }
    Ok(out)
}

/// The determinism check and the sim engine as a client sees it.
///
/// First a `db_bench` fill through the paper's runner, twice, whose text
/// must match byte for byte. Then each of the two clients fills a sim-mode
/// database of its own — sim mode is single-threaded by design — with the
/// benchmark's records under the small-tree options (so flushes and
/// compactions run on the event queue) and reads a quarter back, each
/// operation timed on the wall clock: what a user of the simulator waits
/// per simulated operation.
struct Probe {
    deterministic: bool,
    phase: Phase,
    write_amp: f64,
    space_amp: f64,
}

impl Probe {
    fn run(ctx: &Ctx) -> Result<Probe, Error> {
        let bench_text = || -> Result<String, Error> {
            let env = EnvSpec::paper_default().build();
            let db = Db::builder(Options::default()).env(&env).open()?;
            let spec = BenchmarkSpec {
                num_ops: DETERMINISM_OPS,
                key_space: DETERMINISM_OPS,
                seed: ctx.seed,
                ..BenchmarkSpec::fillrandom(1.0)
            };
            Ok(run_benchmark(&db, &env, &spec, None)?.to_db_bench_text())
        };
        let deterministic = bench_text()? == bench_text()?;

        let n = ctx.ops(PROBE_RECORDS, 20_000);
        let settled = Mutex::new(None);
        let phase = closed_loop(None, |t, log| {
            let env = EnvSpec::paper_default().build();
            let Ok(db) = Db::builder(small_tree_options()).env(&env).open() else {
                log.failed += 1;
                return;
            };
            for id in gen::permutation(n, ctx.seed) {
                let id = u64::from(id);
                let (key, value) = (gen::key(id), gen::value(id, ctx.seed));
                log.write(&key, || db.put(&key, &value).is_ok());
            }
            if db.flush().and_then(|()| db.wait_background_idle()).is_err() {
                log.failed += 1;
            }
            for id in gen::permutation(n, ctx.seed ^ 1)
                .into_iter()
                .step_by(PROBE_READ_EVERY)
            {
                let id = u64::from(id);
                let (key, want) = (gen::key(id), ctx.expected(id));
                log.read(&key, || matches!(db.get(&key), Ok(Some(v)) if v == want));
            }
            if t == 0 {
                *settled.lock().expect("stats lock") = Some(db.stats());
            }
        });
        let stats = settled
            .into_inner()
            .expect("stats lock")
            .ok_or("tune_sim: the probe database did not open")?;
        Ok(Probe {
            deterministic,
            phase,
            write_amp: write_amp(&stats.tickers),
            space_amp: space_amp(&stats, n),
        })
    }
}

/// What one tuner brings back.
struct Tuned {
    /// The fillrandom session's report, then the readrandom session's.
    reports: Vec<TuningReport>,
    /// Per session: seconds inside `TuneTarget::measure`.
    measure_s: Vec<f64>,
    /// Per session, traced run only: simulated operations `measure` completed.
    sim_ops: Vec<u64>,
    wall_s: f64,
    gauge: Gauge,
}

/// Runs both sessions on the calling thread.
fn tune(ctx: &Ctx, env: &EnvSpec, specs: &[BenchmarkSpec]) -> Result<Tuned, Error> {
    let gauged = Arc::new(Mutex::new(Gauged {
        gauge: Gauge::new()?,
        measure_s: 0.0,
    }));
    let measured_so_far = || gauged.lock().expect("gauge lock").measure_s;
    let start = Instant::now();
    let (mut reports, mut measure_s, mut sim_ops) = (Vec::new(), Vec::new(), Vec::new());
    for spec in specs {
        let before = measured_so_far();
        let target = GaugedTarget {
            inner: OfflineTarget::new(env.clone(), spec.clone()),
            gauged: Arc::clone(&gauged),
        };
        let report = match &ctx.tracer {
            None => {
                let mut model = ExpertModel::well_behaved(ctx.seed);
                TuningSession::for_target(env.clone(), &mut model)
                    .with_config(config())
                    .run_with(target, start_options())?
            }
            Some(tracer) => {
                let mut model =
                    TraceModel::new(ExpertModel::well_behaved(ctx.seed), tracer.clone());
                let target = TraceTarget::new(target, tracer.clone());
                let ops = target.sim_ops.clone();
                let report = TuningSession::for_target(env.clone(), &mut model)
                    .with_config(config())
                    .run_with(target, start_options())?;
                sim_ops.push(ops.load(Ordering::Relaxed));
                report
            }
        };
        measure_s.push(measured_so_far() - before);
        reports.push(report);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let gauged = Arc::try_unwrap(gauged)
        .map_err(|_| "tune_sim: a session kept its target")?
        .into_inner()
        .expect("gauge lock");
    Ok(Tuned {
        reports,
        measure_s,
        sim_ops,
        wall_s,
        gauge: gauged.gauge,
    })
}

struct Gauged {
    gauge: Gauge,
    /// Seconds spent inside the target's `measure`.
    measure_s: f64,
}

/// Samples the host's speed on the tuner's own thread just before and
/// just after every call into the target — sim mode has no client thread
/// that could do it between operations — and times `measure`.
struct GaugedTarget<T> {
    inner: T,
    gauged: Arc<Mutex<Gauged>>,
}

impl<T> GaugedTarget<T> {
    const SAMPLES: usize = 8;

    /// Runs `call` on the target between two bursts of samples; returns
    /// its result and how long it took.
    fn gauged<R>(&mut self, call: impl FnOnce(&mut T) -> R) -> (R, f64) {
        let sample = |gauged: &Mutex<Gauged>| {
            let mut gauged = gauged.lock().expect("gauge lock");
            (0..Self::SAMPLES).for_each(|_| gauged.gauge.sample());
        };
        sample(&self.gauged);
        let start = Instant::now();
        let result = call(&mut self.inner);
        let took = start.elapsed().as_secs_f64();
        sample(&self.gauged);
        (result, took)
    }
}

impl<T: TuneTarget> TuneTarget for GaugedTarget<T> {
    fn workload_text(&self) -> String {
        self.inner.workload_text()
    }

    fn workload_short_name(&self) -> String {
        self.inner.workload_short_name()
    }

    fn prepare(&mut self, start: &Options) -> Result<(), SessionError> {
        self.gauged(|t| t.prepare(start)).0
    }

    fn measure(
        &mut self,
        opts: &Options,
        reference: Option<f64>,
        want_stats: bool,
    ) -> Result<Measurement, SessionError> {
        let (result, took) = self.gauged(|t| t.measure(opts, reference, want_stats));
        self.gauged.lock().expect("gauge lock").measure_s += took;
        result
    }

    fn restore(&mut self, opts: &Options) -> Result<(), SessionError> {
        self.inner.restore(opts)
    }
}

/// `core.prompt_build_us` and `core.evaluate_us`: the session calls these
/// functions itself where no wrapper reaches, so they are timed by calling
/// them again on what the finished session recorded — each response
/// through `evaluate_response` + `vet`, and a prompt built from each
/// iteration's configuration and result.
fn replay_core(env: &EnvSpec, spec: &BenchmarkSpec, report: &TuningReport) -> (f64, f64) {
    let policy = SafeguardPolicy::with_memory_budget(env.mem_gib << 30);
    let hw = env.build();
    let workload = spec.describe();
    let (mut prompt_us, mut evaluate_us) = (Vec::new(), Vec::new());
    let mut base = Options::default();
    for record in &report.records {
        let start = Instant::now();
        let evaluation = evaluate_response(&record.response);
        std::hint::black_box(vet(&base, &evaluation.changes, &policy));
        evaluate_us.push(start.elapsed().as_secs_f64() * 1e6);

        let options_ini = ini::to_ini(&record.options_after);
        let last = ParsedBench {
            workload: spec.workload.name().to_string(),
            ops_per_sec: record.metrics.ops_per_sec,
            micros_per_op: record.metrics.micros_per_op,
            p99_write_us: record.metrics.p99_write_us,
            ..ParsedBench::default()
        };
        let start = Instant::now();
        std::hint::black_box(build_tuning_prompt(
            &PromptContext {
                env: &hw,
                workload: &workload,
                options_ini: &options_ini,
                iteration: record.index + 1,
                last_result: Some(&last),
                stats_dump: None,
                best_throughput: Some(report.best.ops_per_sec),
                deteriorated: record.decision != Decision::Kept,
                violation_feedback: &[],
                max_changes: config().max_changes_per_iteration,
            },
            config().prompt_budget_chars,
        ));
        prompt_us.push(start.elapsed().as_secs_f64() * 1e6);
        base = record.options_after.clone();
    }
    (median(&prompt_us), median(&evaluate_us))
}
