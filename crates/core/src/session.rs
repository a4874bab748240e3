//! The tuning session: ELMo-Tune's feedback loop.
//!
//! Orchestrates prompt generation -> LLM -> option evaluation ->
//! safeguards -> benchmark (with early-stop monitor) -> active flagging,
//! for a configured number of iterations, and records everything needed
//! to reproduce the paper's tables and figures.

use std::fmt;

use db_bench::BenchmarkSpec;
use hw_sim::{DeviceModel, HardwareEnv};
use llm_client::{ChatRequest, LanguageModel, LlmError};
use lsm_kvs::options::{ini, Options};

use crate::bench_text::ParsedBench;
use crate::flagger::{ActiveFlagger, Objective, Verdict};
use crate::prompt::{build_tuning_prompt, PromptContext};
use crate::safeguard::{vet, SafeguardPolicy, Violation};
use crate::target::{OfflineTarget, TuneTarget};

/// Errors from a tuning session.
#[derive(Debug)]
#[non_exhaustive]
pub enum SessionError {
    /// The storage engine failed.
    Engine(lsm_kvs::Error),
    /// The language model failed.
    Llm(LlmError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Engine(e) => write!(f, "engine error: {e}"),
            SessionError::Llm(e) => write!(f, "llm error: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<lsm_kvs::Error> for SessionError {
    fn from(e: lsm_kvs::Error) -> Self {
        SessionError::Engine(e)
    }
}

impl From<LlmError> for SessionError {
    fn from(e: LlmError) -> Self {
        SessionError::Llm(e)
    }
}

/// The hardware a session runs on (a fresh [`HardwareEnv`] is built per
/// benchmark run so device/CPU queue state never leaks across runs).
#[derive(Debug, Clone)]
pub struct EnvSpec {
    /// CPU cores.
    pub cores: usize,
    /// RAM in GiB.
    pub mem_gib: u64,
    /// Storage device model.
    pub device: DeviceModel,
}

impl EnvSpec {
    /// The paper's default evaluation box: 4 cores, 4 GiB, NVMe.
    pub fn paper_default() -> Self {
        EnvSpec {
            cores: 4,
            mem_gib: 4,
            device: DeviceModel::nvme_ssd(),
        }
    }

    /// Builds a fresh simulated environment.
    pub fn build(&self) -> HardwareEnv {
        HardwareEnv::builder()
            .cores(self.cores)
            .memory_gib(self.mem_gib)
            .device(self.device.clone())
            .build_sim()
    }

    /// One-line description ("2 cores / 4 GiB / SATA HDD").
    pub fn describe(&self) -> String {
        format!("{} cores / {} GiB / {}", self.cores, self.mem_gib, self.device.class)
    }
}

/// Session-level knobs.
#[derive(Debug, Clone)]
pub struct TuningConfig {
    /// Tuning iterations after the baseline (paper: 7).
    pub iterations: usize,
    /// Cap on option changes per iteration (paper observation: >10 is
    /// marginal).
    pub max_changes_per_iteration: usize,
    /// What to optimize.
    pub objective: Objective,
    /// Prompt character budget.
    pub prompt_budget_chars: usize,
    /// Enable the in-run early-stop monitor.
    pub early_stop: bool,
    /// Stop when this many consecutive iterations fail to improve
    /// (`None` = always run all iterations, like the paper's figures).
    pub stop_on_stagnation: Option<usize>,
    /// Embed the engine's `--stats_dump` output (`Db::stats_text()`) in
    /// each iteration prompt. Off by default so existing sessions (and
    /// the `repro` goldens) keep byte-identical prompts.
    pub include_stats_dump: bool,
}

impl Default for TuningConfig {
    fn default() -> Self {
        TuningConfig {
            iterations: 7,
            max_changes_per_iteration: 10,
            objective: Objective::Throughput,
            prompt_budget_chars: 16_000,
            early_stop: true,
            stop_on_stagnation: None,
            include_stats_dump: false,
        }
    }
}

/// What the flagger decided about one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Configuration kept (improved on the best so far).
    Kept,
    /// Configuration reverted (regressed).
    Reverted,
    /// The benchmark monitor aborted the run; configuration reverted.
    AbortedEarly,
    /// The response had no parseable configuration (format check failed).
    RejectedFormat,
    /// All proposed changes were rejected or no-ops; nothing to measure.
    NoChanges,
}

/// The headline metrics of one measured run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationMetrics {
    /// Throughput in ops/sec.
    pub ops_per_sec: f64,
    /// Mean microseconds per op.
    pub micros_per_op: f64,
    /// p99 write latency (us), when the workload writes.
    pub p99_write_us: Option<f64>,
    /// p99 read latency (us), when the workload reads.
    pub p99_read_us: Option<f64>,
    /// The run was aborted early.
    pub aborted: bool,
}

impl From<&ParsedBench> for IterationMetrics {
    fn from(p: &ParsedBench) -> Self {
        IterationMetrics {
            ops_per_sec: p.ops_per_sec,
            micros_per_op: p.micros_per_op,
            p99_write_us: p.p99_write_us,
            p99_read_us: p.p99_read_us,
            aborted: p.aborted,
        }
    }
}

/// Everything recorded about one tuning iteration.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 1-based iteration index.
    pub index: usize,
    /// The full prompt sent to the model.
    pub prompt: String,
    /// The model's full response.
    pub response: String,
    /// Changes the safeguards accepted, as `(name, from, to)`.
    pub applied: Vec<(String, String, String)>,
    /// Safeguard rejections/adjustments.
    pub violations: Vec<Violation>,
    /// Measured metrics for this iteration's configuration (for
    /// `NoChanges`/`RejectedFormat`, the best-so-far metrics).
    pub metrics: IterationMetrics,
    /// The flagger's decision.
    pub decision: Decision,
    /// The configuration in force *after* this iteration.
    pub options_after: Options,
}

/// The result of a tuning session.
#[derive(Debug, Clone)]
pub struct TuningReport {
    /// Workload short name (FR/RR/RRWR/Mixgraph).
    pub workload: String,
    /// Hardware description.
    pub environment: String,
    /// Baseline (iteration 0, default configuration) metrics.
    pub baseline: IterationMetrics,
    /// Per-iteration records.
    pub records: Vec<IterationRecord>,
    /// The best configuration found.
    pub final_options: Options,
    /// Iteration index (0 = baseline) that produced the best result.
    pub best_iteration: usize,
    /// Best metrics observed.
    pub best: IterationMetrics,
}

impl TuningReport {
    /// Tuned-over-default throughput factor.
    pub fn throughput_improvement(&self) -> f64 {
        if self.baseline.ops_per_sec <= 0.0 {
            return 1.0;
        }
        self.best.ops_per_sec / self.baseline.ops_per_sec
    }

    /// Default-over-tuned p99 factor (write side), >1 means improvement.
    pub fn p99_write_improvement(&self) -> Option<f64> {
        match (self.baseline.p99_write_us, self.best.p99_write_us) {
            (Some(b), Some(t)) if t > 0.0 => Some(b / t),
            _ => None,
        }
    }

    /// Default-over-tuned p99 factor (read side).
    pub fn p99_read_improvement(&self) -> Option<f64> {
        match (self.baseline.p99_read_us, self.best.p99_read_us) {
            (Some(b), Some(t)) if t > 0.0 => Some(b / t),
            _ => None,
        }
    }

    /// The Table-5-style matrix: for every option ever changed, its value
    /// per iteration (None = unchanged that iteration).
    pub fn option_change_matrix(&self) -> Vec<(String, Vec<Option<String>>)> {
        let mut names: Vec<String> = Vec::new();
        for r in &self.records {
            for (name, _, _) in &r.applied {
                if !names.contains(name) {
                    names.push(name.clone());
                }
            }
        }
        names
            .into_iter()
            .map(|name| {
                let row = self
                    .records
                    .iter()
                    .map(|r| {
                        r.applied
                            .iter()
                            .find(|(n, _, _)| *n == name)
                            .map(|(_, _, to)| to.clone())
                    })
                    .collect();
                (name, row)
            })
            .collect()
    }

    /// Renders the option-change matrix as a table (paper Table 5).
    pub fn table5_text(&self) -> String {
        let matrix = self.option_change_matrix();
        let iters = self.records.len();
        let mut out = String::new();
        out.push_str(&format!("{:<40} | default", "Parameter"));
        for i in 1..=iters {
            out.push_str(&format!(" | iter {i}"));
        }
        out.push('\n');
        let defaults = Options::default();
        for (name, row) in &matrix {
            let default = defaults.get_by_name(name).unwrap_or_default();
            out.push_str(&format!("{name:<40} | {default}"));
            for cell in row {
                out.push_str(&format!(" | {}", cell.clone().unwrap_or_default()));
            }
            out.push('\n');
        }
        out
    }

    /// Renders a per-iteration summary (the data behind Figures 3/4).
    pub fn iteration_series_text(&self) -> String {
        let mut out = format!(
            "iter 0 (default): {:.0} ops/sec p99w={:?} p99r={:?}\n",
            self.baseline.ops_per_sec, self.baseline.p99_write_us, self.baseline.p99_read_us
        );
        for r in &self.records {
            out.push_str(&format!(
                "iter {}: {:.0} ops/sec p99w={:?} p99r={:?} [{:?}] ({} changes, {} violations)\n",
                r.index,
                r.metrics.ops_per_sec,
                r.metrics.p99_write_us,
                r.metrics.p99_read_us,
                r.decision,
                r.applied.len(),
                r.violations.len(),
            ));
        }
        out
    }
}

/// A configured tuning session.
///
/// See the crate docs for an end-to-end example.
pub struct TuningSession<'m> {
    env_spec: EnvSpec,
    spec: Option<BenchmarkSpec>,
    model: &'m mut dyn LanguageModel,
    config: TuningConfig,
    policy: SafeguardPolicy,
}

impl fmt::Debug for TuningSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TuningSession")
            .field("env", &self.env_spec)
            .field(
                "workload",
                &self.spec.as_ref().map(|s| s.workload.name()).unwrap_or("<custom target>"),
            )
            .finish_non_exhaustive()
    }
}

impl<'m> TuningSession<'m> {
    /// Creates a session with default config and a memory-budgeted
    /// safeguard policy.
    pub fn new(env_spec: EnvSpec, spec: BenchmarkSpec, model: &'m mut dyn LanguageModel) -> Self {
        let policy = SafeguardPolicy::with_memory_budget((env_spec.mem_gib) << 30);
        TuningSession {
            env_spec,
            spec: Some(spec),
            model,
            config: TuningConfig::default(),
            policy,
        }
    }

    /// Creates a session with no benchmark spec, for use with
    /// [`run_with`](Self::run_with) and a custom [`TuneTarget`] (e.g. a
    /// [`LiveTarget`](crate::target::LiveTarget) pointed at a running
    /// server).
    pub fn for_target(env_spec: EnvSpec, model: &'m mut dyn LanguageModel) -> Self {
        let policy = SafeguardPolicy::with_memory_budget((env_spec.mem_gib) << 30);
        TuningSession {
            env_spec,
            spec: None,
            model,
            config: TuningConfig::default(),
            policy,
        }
    }

    /// Overrides the tuning configuration.
    pub fn with_config(mut self, config: TuningConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the safeguard policy.
    pub fn with_policy(mut self, policy: SafeguardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs the feedback loop against fresh benchmark runs (the paper's
    /// open/bench/close methodology).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] on engine or LLM failure, or if the
    /// session was built with [`for_target`](Self::for_target) and has
    /// no benchmark spec.
    pub fn run_offline(mut self, start: Options) -> Result<TuningReport, SessionError> {
        let spec = self.spec.take().ok_or_else(|| {
            SessionError::Engine(lsm_kvs::Error::invalid_argument(
                "this session has no benchmark spec; use run_with and a custom TuneTarget",
            ))
        })?;
        let target = OfflineTarget::new(self.env_spec.clone(), spec);
        self.run_with(target, start)
    }

    /// Runs the feedback loop against an arbitrary [`TuneTarget`] —
    /// the prompt/evaluate/safeguard/flag machinery is identical; only
    /// how candidates are applied and measured differs.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] on engine or LLM failure.
    pub fn run_with(
        self,
        mut target: impl TuneTarget,
        start: Options,
    ) -> Result<TuningReport, SessionError> {
        let TuningSession {
            env_spec,
            spec: _,
            model,
            config,
            policy,
        } = self;
        let flagger = ActiveFlagger {
            objective: config.objective,
            min_improvement: 0.005,
        };

        target.prepare(&start)?;

        // Iteration 0: baseline with the starting configuration.
        let baseline_run = target.measure(&start, None, config.include_stats_dump)?;
        let (baseline_parsed, mut last_env, mut last_dump) =
            (baseline_run.parsed, baseline_run.env, baseline_run.stats_dump);
        let baseline = IterationMetrics::from(&baseline_parsed);
        let mut best_options = start.clone();
        let mut best_parsed = baseline_parsed.clone();
        let mut best_iteration = 0usize;

        let mut records: Vec<IterationRecord> = Vec::new();
        let mut last_parsed = baseline_parsed;
        let mut deteriorated = false;
        let mut violation_feedback: Vec<String> = Vec::new();
        let mut stagnant = 0usize;

        for index in 1..=config.iterations {
            let options_ini = ini::to_ini(&best_options);
            let workload_text = target.workload_text();
            let prompt = build_tuning_prompt(
                &PromptContext {
                    env: &last_env,
                    workload: &workload_text,
                    options_ini: &options_ini,
                    iteration: index,
                    last_result: Some(&last_parsed),
                    stats_dump: last_dump.as_deref(),
                    best_throughput: Some(best_parsed.ops_per_sec),
                    deteriorated,
                    violation_feedback: &violation_feedback,
                    max_changes: config.max_changes_per_iteration,
                },
                config.prompt_budget_chars,
            );
            let response = model.complete(&ChatRequest::single_turn("gpt-4", &prompt))?;
            let evaluation = crate::evaluate::evaluate_response(&response.content);

            if evaluation.unparseable {
                violation_feedback =
                    vec!["(previous response contained no parseable configuration)".to_string()];
                records.push(IterationRecord {
                    index,
                    prompt,
                    response: response.content,
                    applied: Vec::new(),
                    violations: Vec::new(),
                    metrics: IterationMetrics::from(&best_parsed),
                    decision: Decision::RejectedFormat,
                    options_after: best_options.clone(),
                });
                continue;
            }

            let outcome = vet(&best_options, &evaluation.changes, &policy);
            violation_feedback = outcome
                .violations
                .iter()
                .map(|v| v.to_feedback_line())
                .collect();

            if outcome.applied.is_empty() {
                records.push(IterationRecord {
                    index,
                    prompt,
                    response: response.content,
                    applied: Vec::new(),
                    violations: outcome.violations,
                    metrics: IterationMetrics::from(&best_parsed),
                    decision: Decision::NoChanges,
                    options_after: best_options.clone(),
                });
                deteriorated = false;
                continue;
            }

            let reference = config.early_stop.then_some(best_parsed.ops_per_sec);
            let candidate_run =
                target.measure(&outcome.options, reference, config.include_stats_dump)?;
            let candidate_parsed = candidate_run.parsed;
            last_env = candidate_run.env;
            last_dump = candidate_run.stats_dump;
            let verdict = flagger.judge(&best_parsed, &candidate_parsed);
            let decision = if candidate_parsed.aborted {
                Decision::AbortedEarly
            } else if verdict == Verdict::Keep {
                Decision::Kept
            } else {
                Decision::Reverted
            };
            let applied: Vec<(String, String, String)> = outcome
                .applied
                .iter()
                .map(|a| (a.name.clone(), a.from.clone(), a.to.clone()))
                .collect();

            match decision {
                Decision::Kept => {
                    best_options = outcome.options;
                    best_parsed = candidate_parsed.clone();
                    best_iteration = index;
                    deteriorated = false;
                    stagnant = 0;
                }
                _ => {
                    // Rejected: put the target back on the best-known
                    // configuration (a live engine is still running the
                    // bad candidate at this point; offline targets
                    // no-op since every run opens fresh).
                    target.restore(&best_options)?;
                    deteriorated = true;
                    stagnant += 1;
                }
            }

            records.push(IterationRecord {
                index,
                prompt,
                response: response.content,
                applied,
                violations: outcome.violations,
                metrics: IterationMetrics::from(&candidate_parsed),
                decision,
                options_after: best_options.clone(),
            });
            last_parsed = candidate_parsed;

            if let Some(patience) = config.stop_on_stagnation {
                if stagnant >= patience {
                    break;
                }
            }
        }

        Ok(TuningReport {
            workload: target.workload_short_name(),
            environment: env_spec.describe(),
            baseline,
            best: IterationMetrics::from(&best_parsed),
            records,
            final_options: best_options,
            best_iteration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_client::{ExpertModel, QuirkConfig, ScriptedModel};

    fn small_fr_spec() -> BenchmarkSpec {
        let mut s = BenchmarkSpec::fillrandom(1.0);
        s.num_ops = 30_000;
        s.key_space = 30_000;
        s.report_interval_ms = 100;
        s
    }

    fn hdd_env() -> EnvSpec {
        EnvSpec {
            cores: 2,
            mem_gib: 4,
            device: DeviceModel::sata_hdd(),
        }
    }

    #[test]
    fn session_runs_and_improves_fillrandom_on_hdd() {
        let mut model = ExpertModel::new(7, QuirkConfig::default());
        let config = TuningConfig {
            iterations: 4,
            ..TuningConfig::default()
        };
        let report = TuningSession::new(hdd_env(), small_fr_spec(), &mut model)
            .with_config(config)
            .run_offline(Options::default())
            .unwrap();
        assert_eq!(report.records.len(), 4);
        assert!(report.baseline.ops_per_sec > 0.0);
        assert!(
            report.throughput_improvement() >= 1.0,
            "tuned should not be worse: {}",
            report.throughput_improvement()
        );
        // The flagger keeps only improvements, so the final options must
        // have been measured at least as good as baseline.
        assert!(report.best.ops_per_sec >= report.baseline.ops_per_sec);
    }

    #[test]
    fn safeguards_block_wal_disable_but_session_continues() {
        let mut model = ExpertModel::new(7, QuirkConfig::default());
        let config = TuningConfig {
            iterations: 2,
            ..TuningConfig::default()
        };
        let report = TuningSession::new(hdd_env(), small_fr_spec(), &mut model)
            .with_config(config)
            .run_offline(Options::default())
            .unwrap();
        // Iteration 2 of the quirky expert suggests disable_wal=true.
        let iter2 = &report.records[1];
        assert!(
            iter2
                .violations
                .iter()
                .any(|v| v.name == "disable_wal"),
            "{:?}",
            iter2.violations
        );
        assert!(!report.final_options.disable_wal);
    }

    #[test]
    fn zero_iterations_report_only_the_baseline() {
        let mut model = ScriptedModel::new(vec![]);
        let config = TuningConfig {
            iterations: 0,
            ..TuningConfig::default()
        };
        let report = TuningSession::new(hdd_env(), small_fr_spec(), &mut model)
            .with_config(config)
            .run_offline(Options::default())
            .unwrap();
        assert!(report.records.is_empty());
        assert!(report.baseline.ops_per_sec > 0.0);
    }

    #[test]
    fn for_target_session_refuses_run_offline() {
        let mut model = ScriptedModel::new(vec![]);
        let err = TuningSession::for_target(hdd_env(), &mut model)
            .run_offline(Options::default())
            .unwrap_err();
        assert!(err.to_string().contains("no benchmark spec"), "{err}");
    }

    #[test]
    fn unparseable_response_is_rejected_by_format_check() {
        let mut model = ScriptedModel::new(vec![
            "Your setup looks great, nothing to change!".to_string(),
            "```ini\nmax_background_jobs=4\n```".to_string(),
        ]);
        let config = TuningConfig {
            iterations: 2,
            ..TuningConfig::default()
        };
        let report = TuningSession::new(hdd_env(), small_fr_spec(), &mut model)
            .with_config(config)
            .run_offline(Options::default())
            .unwrap();
        assert_eq!(report.records[0].decision, Decision::RejectedFormat);
        assert_ne!(report.records[1].decision, Decision::RejectedFormat);
    }

    #[test]
    fn regressions_are_reverted() {
        // A scripted model that proposes something harmful: a tiny write
        // buffer with compaction disabled... then nothing.
        let mut model = ScriptedModel::new(vec![
            "```ini\nwrite_buffer_size=64KB\nlevel0_slowdown_writes_trigger=2\nlevel0_stop_writes_trigger=3\n```".to_string(),
        ]);
        let config = TuningConfig {
            iterations: 1,
            ..TuningConfig::default()
        };
        let report = TuningSession::new(hdd_env(), small_fr_spec(), &mut model)
            .with_config(config)
            .run_offline(Options::default())
            .unwrap();
        let r = &report.records[0];
        assert!(
            matches!(r.decision, Decision::Reverted | Decision::AbortedEarly),
            "harmful config must not be kept: {:?}",
            r.decision
        );
        assert_eq!(
            report.final_options.write_buffer_size,
            Options::default().write_buffer_size,
            "reverted to default"
        );
    }

    #[test]
    fn stats_dump_reaches_prompt_only_when_enabled() {
        let run = |include: bool| {
            let mut model = ExpertModel::well_behaved(2);
            let config = TuningConfig {
                iterations: 2,
                include_stats_dump: include,
                ..TuningConfig::default()
            };
            TuningSession::new(hdd_env(), small_fr_spec(), &mut model)
                .with_config(config)
                .run_offline(Options::default())
                .unwrap()
        };
        let without = run(false);
        assert!(
            without.records.iter().all(|r| !r.prompt.contains("Engine statistics")),
            "dump must stay out of prompts by default"
        );
        let with = run(true);
        let first = &with.records[0].prompt;
        assert!(first.contains("Engine statistics (previous run)"), "{first}");
        assert!(first.contains("Compaction Stats [default]"), "{first}");
    }

    #[test]
    fn option_change_matrix_covers_applied_changes() {
        let mut model = ExpertModel::well_behaved(3);
        let config = TuningConfig {
            iterations: 3,
            ..TuningConfig::default()
        };
        let report = TuningSession::new(hdd_env(), small_fr_spec(), &mut model)
            .with_config(config)
            .run_offline(Options::default())
            .unwrap();
        let matrix = report.option_change_matrix();
        assert!(!matrix.is_empty());
        let text = report.table5_text();
        assert!(text.contains("Parameter"));
        for (name, _) in &matrix {
            assert!(text.contains(name));
        }
        let series = report.iteration_series_text();
        assert!(series.contains("iter 0 (default)"));
    }
}
