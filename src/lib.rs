//! # elmo — umbrella crate for the ELMo-Tune reproduction
//!
//! Re-exports the whole stack so examples and integration tests can depend
//! on a single crate:
//!
//! - [`hw_sim`] — virtual-clock hardware simulation (devices, CPU, memory)
//! - [`lsm_kvs`] — the LSM-tree key-value store with a RocksDB-compatible
//!   option surface
//! - [`db_bench`] — workload generators and the benchmark runner
//! - [`llm_client`] — language-model abstraction and the rule-based GPT-4
//!   tuning-expert simulator
//! - [`elmo_tune`] — the tuning framework itself (prompt generation, option
//!   evaluation, active flagging, safeguards, feedback loop)
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and experiment index.

#![forbid(unsafe_code)]

pub use db_bench;
pub use elmo_tune;
pub use hw_sim;
pub use llm_client;
pub use lsm_kvs;
