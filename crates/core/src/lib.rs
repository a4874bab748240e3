//! # elmo-tune — LLM-driven auto-tuning for LSM-based key-value stores
//!
//! A Rust reproduction of **ELMo-Tune** ("Can Modern LLMs Tune and
//! Configure LSM-based Key-Value Stores?", HotStorage '24): a feedback
//! loop in which a language model iteratively rewrites the store's
//! option file, guided by prompts that interlace hardware information,
//! workload statistics, the current configuration, and benchmark
//! results.
//!
//! The four framework modules of the paper map to:
//!
//! | Paper module       | Here |
//! |--------------------|------|
//! | Prompt Generator   | [`prompt`] |
//! | Option Evaluator   | [`evaluate`] |
//! | Active Flagger     | [`flagger`] (+ the early-stop benchmark monitor) |
//! | Safeguard Enforcer | [`safeguard`] |
//! | Benchmark Parser   | [`bench_text`] |
//! | Feedback loop      | [`session`] |
//!
//! Sessions run against a [`target::TuneTarget`]: either the paper's
//! offline open/bench/close flow ([`target::OfflineTarget`], via
//! [`TuningSession::run_offline`]) or a *running* server retuned live
//! through `set_options` without a reopen ([`target::LiveTarget`], via
//! [`TuningSession::run_with`]).
//!
//! ## Example
//!
//! ```
//! use elmo_tune::{EnvSpec, TuningConfig, TuningSession};
//! use db_bench::BenchmarkSpec;
//! use llm_client::ExpertModel;
//! use lsm_kvs::options::Options;
//!
//! # fn main() -> Result<(), elmo_tune::SessionError> {
//! let mut model = ExpertModel::well_behaved(42);
//! let mut spec = BenchmarkSpec::fillrandom(1.0);
//! spec.num_ops = 5_000; // scaled down for the doctest
//! spec.key_space = 5_000;
//! let report = TuningSession::new(EnvSpec::paper_default(), spec, &mut model)
//!     .with_config(TuningConfig { iterations: 1, ..TuningConfig::default() })
//!     .run_offline(Options::default())?;
//! assert!(report.baseline.ops_per_sec > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench_text;
pub mod evaluate;
pub mod flagger;
pub mod prompt;
pub mod safeguard;
pub mod session;
pub mod target;

pub use bench_text::{parse_db_bench_output, ParsedBench};
pub use evaluate::{evaluate_response, ChangeOrigin, Evaluation, ProposedChange};
pub use flagger::{ActiveFlagger, EarlyStopMonitor, Objective, Verdict};
pub use prompt::{build_tuning_prompt, PromptBuilder, PromptContext, PromptSection};
pub use safeguard::{vet, AppliedChange, SafeguardPolicy, VetOutcome, Violation, ViolationKind};
pub use session::{
    Decision, EnvSpec, IterationMetrics, IterationRecord, SessionError, TuningConfig,
    TuningReport, TuningSession,
};
pub use target::{LiveTarget, Measurement, OfflineTarget, TuneTarget};
