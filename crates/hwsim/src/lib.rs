//! # hw-sim — deterministic hardware simulation for storage experiments
//!
//! This crate models the *machine* a storage engine runs on: a virtual
//! [`Clock`], a storage [`Device`] with per-channel queueing, a [`CpuPool`]
//! for background jobs, and a [`MemoryBudget`] with thrash penalties. It is
//! the substitution, in this reproduction of the ELMo-Tune paper
//! (HotStorage '24), for the physical 2/4-core, 4/8-GiB, NVMe/HDD Docker
//! hosts of the original evaluation.
//!
//! Everything is driven by explicit virtual timestamps, so experiments are
//! deterministic and orders of magnitude faster than wall time, while
//! preserving the qualitative trade-offs a tuner must learn: HDDs punish
//! random I/O, fewer cores serialize compactions, and over-committed RAM
//! thrashes.
//!
//! ## Example
//!
//! ```
//! use hw_sim::{AccessPattern, DeviceModel, HardwareEnv, SimTime};
//!
//! let env = HardwareEnv::builder()
//!     .cores(2)
//!     .memory_gib(4)
//!     .device(DeviceModel::sata_hdd())
//!     .build_sim();
//!
//! // A random read on the HDD completes milliseconds later in virtual time.
//! let done = env.device().submit_read(SimTime::ZERO, 4096, AccessPattern::Random);
//! assert!(done.as_nanos() > 1_000_000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

mod cpu;
mod device;
mod env;
mod memory;
mod monitor;
mod time;

pub use cpu::{CpuCounters, CpuPool, CpuSlot};
pub use device::{AccessPattern, Device, DeviceClass, DeviceModel, IoCounters, SimDurationCounter};
pub use env::{HardwareEnv, HardwareEnvBuilder};
pub use memory::{MemoryBudget, MemoryUser};
pub use monitor::{DeviceProbe, SystemSnapshot};
pub use time::{Clock, SimDuration, SimTime};
