//! Live full-cycle retuning: a scripted tuning session pointed at a
//! *running* `kv_server`-style engine over the wire.
//!
//! The session must (a) derive throughput from ticker deltas over
//! measurement windows while unrelated traffic is in flight, (b) detect
//! workload drift between windows and surface it in the next prompt,
//! (c) apply candidate configurations through the SetOptions RPC
//! without a reopen, and (d) leave the engine on the session's final
//! configuration whether the candidate was kept or reverted.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use elmo_tune::{Decision, EnvSpec, LiveTarget, TuneTarget, TuningConfig, TuningSession};
use hw_sim::HardwareEnv;
use llm_client::{ChatRequest, ChatResponse, LanguageModel, LlmError, Usage};
use lsm_kvs::options::Options;
use lsm_kvs::vfs::MemVfs;
use lsm_kvs::{Db, KvEngine};
use lsm_server::{serve, RemoteDb};

/// Scripted model that also flips the load generator's phase the first
/// time it is consulted, so the workload drifts between the baseline
/// measurement window and the first candidate's window.
struct PhaseFlipModel {
    phase: Arc<AtomicUsize>,
    responses: Vec<String>,
    calls: usize,
}

impl LanguageModel for PhaseFlipModel {
    fn name(&self) -> &str {
        "phase-flip-scripted"
    }

    fn complete(&mut self, _request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        self.phase.store(1, Ordering::SeqCst);
        let content = self.responses.get(self.calls).cloned().unwrap_or_default();
        self.calls += 1;
        Ok(ChatResponse {
            content,
            model: "scripted".to_string(),
            usage: Usage {
                prompt_tokens: 0,
                completion_tokens: 0,
            },
        })
    }
}

/// Drives traffic at the server until `stop`: phase 0 is write-only,
/// phase 1 is read-only (over keys phase 0 wrote). Any transport or
/// protocol error is counted instead of panicking the thread.
fn spawn_load(
    addr: String,
    phase: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    errors: Arc<AtomicUsize>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let client = match RemoteDb::connect(&addr) {
            Ok(c) => c,
            Err(_) => {
                errors.fetch_add(1, Ordering::SeqCst);
                return;
            }
        };
        let mut i: u64 = 0;
        let mut written: u64 = 0;
        while !stop.load(Ordering::SeqCst) {
            let result = if phase.load(Ordering::SeqCst) == 0 || written == 0 {
                written += 1;
                let key = format!("k{:08}", i % 10_000);
                client.put(key.as_bytes(), b"value").map(|_| ())
            } else {
                let key = format!("k{:08}", i % written.min(10_000));
                client.get(key.as_bytes()).map(|_| ())
            };
            if result.is_err() {
                errors.fetch_add(1, Ordering::SeqCst);
            }
            i += 1;
        }
    })
}

#[test]
fn live_session_retunes_a_running_server_mid_traffic() {
    let env = HardwareEnv::builder().cores(2).build_wall();
    let db = Db::builder(Options::default())
        .env(&env)
        .vfs(Arc::new(MemVfs::new()))
        .open()
        .unwrap();
    let handle = serve(Arc::new(db), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().to_string();

    let phase = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicUsize::new(0));
    let load = spawn_load(addr.clone(), phase.clone(), stop.clone(), errors.clone());

    // Let the write phase populate some keys before tuning starts.
    thread::sleep(Duration::from_millis(100));

    let tuner = Arc::new(RemoteDb::connect(&addr).unwrap());
    let mut model = PhaseFlipModel {
        phase: phase.clone(),
        responses: vec![
            "```ini\nmax_background_jobs=4\n```".to_string(),
            "Your setup looks great, nothing further to change.".to_string(),
        ],
        calls: 0,
    };
    let target = LiveTarget::new(tuner.clone(), EnvSpec::paper_default())
        .with_window(Duration::from_millis(200))
        .with_description("mixed get/put traffic from a client fleet");
    let start = target.current_options().unwrap();
    let report = TuningSession::for_target(EnvSpec::paper_default(), &mut model)
        .with_config(TuningConfig {
            iterations: 2,
            early_stop: false,
            ..TuningConfig::default()
        })
        .run_with(target, start)
        .unwrap();

    stop.store(true, Ordering::SeqCst);
    load.join().unwrap();

    assert_eq!(report.records.len(), 2);
    assert_eq!(report.workload, "live");

    // (a) Throughput came from live ticker-delta windows, not a bench run.
    assert!(report.baseline.ops_per_sec > 0.0, "{:?}", report.baseline);
    let first = &report.records[0];
    assert!(first.metrics.ops_per_sec > 0.0, "{:?}", first.metrics);

    // Iteration 1 applied its change through SetOptions and the flagger
    // judged it from live windows.
    assert!(
        first.applied.iter().any(|(n, _, _)| n == "max_background_jobs"),
        "{:?}",
        first.applied
    );
    assert!(
        matches!(first.decision, Decision::Kept | Decision::Reverted),
        "{:?}",
        first.decision
    );

    // (b) The baseline window was write-only; iteration 1 measured a
    // read-only window. That drift must reach iteration 2's prompt.
    assert!(
        report.records[1].prompt.contains("workload drift detected"),
        "iteration 2 prompt missing drift note:\n{}",
        report.records[1].prompt
    );

    // (c)+(d) The server was never reopened and its effective
    // configuration matches the session's outcome, kept or reverted.
    let live_ini = tuner.options_ini().unwrap();
    let want = format!(
        "max_background_jobs={}",
        report.final_options.max_background_jobs
    );
    assert!(live_ini.contains(&want), "{want} not in live config:\n{live_ini}");

    // Zero protocol errors under concurrent load, and still serving.
    assert_eq!(errors.load(Ordering::SeqCst), 0);
    tuner.ping().unwrap();
    let mut handle = handle;
    handle.shutdown();
}

/// When the Stats RPC fails, a measurement window must come back marked
/// aborted with zero ops — never a score diffed against a fabricated
/// snapshot — and the next prompt's workload text must say why.
#[test]
fn live_target_flags_window_when_stats_rpc_fails() {
    let env = HardwareEnv::builder().cores(2).build_wall();
    let db = Db::builder(Options::default())
        .env(&env)
        .vfs(Arc::new(MemVfs::new()))
        .open()
        .unwrap();
    let mut handle = serve(Arc::new(db), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().to_string();

    let client = Arc::new(RemoteDb::connect(&addr).unwrap());
    client.put(b"k", b"v").unwrap();
    let mut target = LiveTarget::new(Arc::clone(&client), EnvSpec::paper_default())
        .with_window(Duration::from_millis(50));
    let start = target.current_options().unwrap();
    target.prepare(&start).unwrap();

    // A healthy window first, so the failure below cannot be confused
    // with "no snapshot yet".
    let healthy = target.measure(&start, None, false).unwrap();
    assert!(!healthy.parsed.aborted);

    handle.shutdown();
    drop(handle);

    let m = target.measure(&start, None, false).unwrap();
    assert!(m.parsed.aborted, "unmeasured window not marked aborted");
    assert_eq!(m.parsed.ops, 0);
    assert_eq!(m.parsed.ops_per_sec, 0.0, "fabricated throughput score");
    assert!(
        target.workload_text().contains("stats unavailable"),
        "workload text does not flag the skipped window: {}",
        target.workload_text()
    );
}

/// The paper's live-tuning acceptance shape: load the server with YCSB B
/// (read-mostly, zipfian) through the remote bench path, then run a
/// tuning session against the *running* server whose candidate sets
/// `level0_slowdown_writes_trigger` — a mutable-online option the write
/// controller reads — through SetOptions. The workload text in the
/// prompt must come from the YCSB spec, and the server must end up on the
/// tuned trigger without a reopen.
#[test]
fn live_session_tunes_l0_slowdown_on_a_ycsb_b_loaded_server() {
    use db_bench::{run_benchmark_real, BenchmarkSpec, YcsbMix};
    use llm_client::ScriptedModel;

    let env = HardwareEnv::builder().cores(2).build_wall();
    let db = Db::builder(Options::default())
        .env(&env)
        .vfs(Arc::new(MemVfs::new()))
        .open()
        .unwrap();
    let mut handle = serve(Arc::new(db), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr().to_string();

    // Load phase: YCSB B over the wire (preload + measured mix).
    let client = Arc::new(RemoteDb::connect(&addr).unwrap());
    let mut spec = BenchmarkSpec::ycsb(YcsbMix::B, 1.0);
    spec.num_ops = 2_000;
    spec.preload_keys = 2_000;
    spec.key_space = 2_000;
    let report = run_benchmark_real(client.as_ref(), &spec, 2, false).unwrap();
    assert_eq!(report.ops, 2_000);
    assert!(report.read_latency.is_some());

    // Background traffic keeps the measurement windows non-empty.
    let stop = Arc::new(AtomicBool::new(false));
    let errors = Arc::new(AtomicUsize::new(0));
    let load = spawn_load(
        addr.clone(),
        Arc::new(AtomicUsize::new(1)),
        stop.clone(),
        errors.clone(),
    );

    let mut model = ScriptedModel::new(vec![
        "```ini\nlevel0_slowdown_writes_trigger=24\n```".to_string(),
        "Nothing further to change.".to_string(),
    ]);
    let target = LiveTarget::new(Arc::clone(&client), EnvSpec::paper_default())
        .with_window(Duration::from_millis(150))
        .with_description(spec.describe());
    let start = target.current_options().unwrap();
    let report = TuningSession::for_target(EnvSpec::paper_default(), &mut model)
        .with_config(TuningConfig {
            iterations: 2,
            early_stop: false,
            ..TuningConfig::default()
        })
        .run_with(target, start)
        .unwrap();

    stop.store(true, Ordering::SeqCst);
    load.join().unwrap();

    // The prompt carried the YCSB workload description and offered
    // level0_slowdown_writes_trigger as a tunable knob.
    let first = &report.records[0];
    assert!(first.prompt.contains("YCSB workload B"), "{}", first.prompt);
    assert!(first.prompt.contains("level0_slowdown_writes_trigger"), "{}", first.prompt);

    // The trigger was applied through SetOptions (mutable online).
    assert!(
        first
            .applied
            .iter()
            .any(|(n, _, after)| n == "level0_slowdown_writes_trigger" && after == "24"),
        "{:?}",
        first.applied
    );
    assert!(
        matches!(first.decision, Decision::Kept | Decision::Reverted),
        "{:?}",
        first.decision
    );

    // The live server's effective config matches the session outcome —
    // no reopen happened (same connection keeps working).
    let live_ini = client.options_ini().unwrap();
    let want = format!(
        "level0_slowdown_writes_trigger={}",
        report.final_options.level0_slowdown_writes_trigger
    );
    assert!(live_ini.contains(&want), "{want} not in live config:\n{live_ini}");
    assert_eq!(errors.load(Ordering::SeqCst), 0);
    client.ping().unwrap();
    handle.shutdown();
}
