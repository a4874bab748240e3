//! End-to-end tuning-loop integration tests spanning all crates.

use elmo::db_bench::BenchmarkSpec;
use elmo::elmo_tune::{Decision, EnvSpec, TuningConfig, TuningSession};
use elmo::hw_sim::DeviceModel;
use elmo::llm_client::{ExpertModel, QuirkConfig, ScriptedModel};
use elmo::lsm_kvs::options::Options;

fn quick_fr() -> BenchmarkSpec {
    // Large enough that the default 64 MiB write buffer flushes and
    // compactions run — otherwise there is nothing for tuning to improve.
    let mut s = BenchmarkSpec::fillrandom(1.0);
    s.num_ops = 700_000;
    s.key_space = 700_000;
    s.report_interval_ms = 100;
    s
}

fn quick_mix() -> BenchmarkSpec {
    // The preload must exceed the default 8 MiB block cache so the read
    // side is device-bound and cache/bloom tuning has something to win.
    let mut s = BenchmarkSpec::mixgraph(1.0);
    s.num_ops = 100_000;
    s.preload_keys = 250_000;
    s.key_space = 250_000;
    s.report_interval_ms = 100;
    s
}

fn hdd() -> EnvSpec {
    EnvSpec {
        cores: 2,
        mem_gib: 4,
        device: DeviceModel::sata_hdd(),
    }
}

fn nvme() -> EnvSpec {
    EnvSpec {
        cores: 4,
        mem_gib: 4,
        device: DeviceModel::nvme_ssd(),
    }
}

#[test]
fn tuning_improves_write_heavy_on_hdd() {
    let mut model = ExpertModel::new(42, QuirkConfig::default());
    let report = TuningSession::new(hdd(), quick_fr(), &mut model)
        .with_config(TuningConfig {
            iterations: 5,
            ..TuningConfig::default()
        })
        .run_offline(Options::default())
        .expect("session runs");
    assert_eq!(report.records.len(), 5);
    assert!(
        report.throughput_improvement() > 1.02,
        "expected a real win on HDD write-heavy, got {:.3}x",
        report.throughput_improvement()
    );
    // The tuned configuration must validate and differ from defaults.
    report.final_options.validate().unwrap();
    assert!(!Options::default().diff(&report.final_options).is_empty());
}

#[test]
fn tuning_improves_mixed_workload_on_nvme() {
    let mut model = ExpertModel::well_behaved(42);
    let report = TuningSession::new(nvme(), quick_mix(), &mut model)
        .with_config(TuningConfig {
            iterations: 4,
            ..TuningConfig::default()
        })
        .run_offline(Options::default())
        .expect("session runs");
    assert!(
        report.throughput_improvement() >= 1.0,
        "never worse than default: {:.3}x",
        report.throughput_improvement()
    );
    // Mixed workloads should pick up read-side tuning (bloom/cache).
    let diff = Options::default().diff(&report.final_options);
    let changed: Vec<&str> = diff.iter().map(|(n, _, _)| n.as_str()).collect();
    assert!(
        changed.contains(&"bloom_filter_bits_per_key") || changed.contains(&"block_cache_size"),
        "read-side option expected in {changed:?}"
    );
}

#[test]
fn sessions_are_deterministic() {
    let run = || {
        let mut model = ExpertModel::new(7, QuirkConfig::default());
        TuningSession::new(hdd(), quick_fr(), &mut model)
            .with_config(TuningConfig {
                iterations: 3,
                ..TuningConfig::default()
            })
            .run_offline(Options::default())
            .expect("session runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.baseline.ops_per_sec, b.baseline.ops_per_sec);
    assert_eq!(a.best.ops_per_sec, b.best.ops_per_sec);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(b.records.iter()) {
        assert_eq!(ra.decision, rb.decision);
        assert_eq!(ra.applied, rb.applied);
        assert_eq!(ra.metrics.ops_per_sec, rb.metrics.ops_per_sec);
    }
}

#[test]
fn safeguards_hold_under_heavy_hallucination() {
    let mut model = ExpertModel::new(13, QuirkConfig::heavy());
    let report = TuningSession::new(hdd(), quick_fr(), &mut model)
        .with_config(TuningConfig {
            iterations: 5,
            ..TuningConfig::default()
        })
        .run_offline(Options::default())
        .expect("session survives a misbehaving model");
    // Whatever the model hallucinated, the surviving configuration is
    // valid and the protected options are untouched.
    report.final_options.validate().unwrap();
    assert!(!report.final_options.disable_wal);
    assert!(!report.final_options.avoid_flush_during_shutdown);
    // And the safeguards did have to work for a living.
    let total_violations: usize = report.records.iter().map(|r| r.violations.len()).sum();
    assert!(total_violations > 0, "heavy quirks must trigger safeguards");
}

#[test]
fn flagger_reverts_a_poisoned_iteration_then_recovers() {
    // Iteration 1 poisons the config; iteration 2 proposes a sane change.
    let mut model = ScriptedModel::new(vec![
        "```ini\nwrite_buffer_size=64KB\nlevel0_slowdown_writes_trigger=2\nlevel0_stop_writes_trigger=3\nmax_background_jobs=1\n```".to_string(),
        "```ini\nmax_background_jobs=4\nbytes_per_sync=1MB\n```".to_string(),
    ]);
    let report = TuningSession::new(hdd(), quick_fr(), &mut model)
        .with_config(TuningConfig {
            iterations: 2,
            ..TuningConfig::default()
        })
        .run_offline(Options::default())
        .expect("session runs");
    let first = &report.records[0];
    assert!(
        matches!(first.decision, Decision::Reverted | Decision::AbortedEarly),
        "poison must be rejected: {:?}",
        first.decision
    );
    // After the reverted iteration the session continues from defaults.
    assert_eq!(
        report.records[1].options_after.write_buffer_size,
        report.final_options.write_buffer_size
    );
    assert!(!report.final_options.disable_wal);
    assert_ne!(report.final_options.write_buffer_size, 64 << 10);
}

#[test]
fn p99_objective_session_runs() {
    use elmo::elmo_tune::Objective;
    let mut model = ExpertModel::well_behaved(5);
    let report = TuningSession::new(hdd(), quick_fr(), &mut model)
        .with_config(TuningConfig {
            iterations: 3,
            objective: Objective::P99Latency,
            ..TuningConfig::default()
        })
        .run_offline(Options::default())
        .expect("session runs");
    let base = report.baseline.p99_write_us.unwrap_or(f64::MAX);
    let best = report.best.p99_write_us.unwrap_or(f64::MAX);
    assert!(best <= base * 1.001, "p99 objective never keeps a worse tail: {base} -> {best}");
}
