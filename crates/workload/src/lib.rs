//! # db-bench — workload generation and benchmarking for `lsm-kvs`
//!
//! A faithful stand-in for RocksDB's `db_bench` covering the four
//! workloads of the ELMo-Tune paper (§5.1): `fillrandom`, `readrandom`,
//! `readrandomwriterandom`, and `mixgraph` (the FAST '20 Facebook
//! production model), plus the six YCSB core mixes (`ycsb_a`..`ycsb_f`),
//! run over deterministic virtual client threads with db_bench-style
//! text reports.
//!
//! ```
//! use db_bench::{run_benchmark, BenchmarkSpec};
//! use lsm_kvs::{options::Options, Db};
//!
//! # fn main() -> Result<(), lsm_kvs::Error> {
//! let env = hw_sim::HardwareEnv::builder().build_sim();
//! let db = Db::builder(Options::default()).env(&env).open()?;
//! let mut spec = BenchmarkSpec::fillrandom(1.0);
//! spec.num_ops = 2_000; // scaled down for the doctest
//! spec.key_space = 2_000;
//! let report = run_benchmark(&db, &env, &spec, None)?;
//! assert!(report.ops_per_sec > 0.0);
//! println!("{}", report.to_db_bench_text());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod keygen;
mod report;
mod runner;
mod spec;

pub use keygen::{render_key, KeyDistribution, KeyGenerator, ValueGenerator};
pub use report::{BenchReport, MonitorControl, MonitorSample};
pub use runner::{run_benchmark, run_benchmark_real};
pub use spec::{BenchmarkSpec, MixgraphConfig, WorkloadKind, YcsbConfig, YcsbMix};
