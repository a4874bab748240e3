//! The bundled hardware environment a storage engine runs on.

use std::sync::Arc;

use crate::cpu::CpuPool;
use crate::device::{Device, DeviceModel};
use crate::memory::MemoryBudget;
use crate::time::Clock;

/// A complete simulated machine: clock, CPU pool, storage device, and
/// memory budget.
///
/// Cloneable handles (`Arc`s) to each component are shared with the engine
/// and the workload driver. The paper's hardware matrix (§5.1) is covered
/// by [`HardwareEnv::builder`] with 2/4 cores, 4/8 GiB, and NVMe/HDD
/// devices.
///
/// # Examples
///
/// ```
/// use hw_sim::{DeviceModel, HardwareEnv};
///
/// let env = HardwareEnv::builder()
///     .cores(4)
///     .memory_gib(4)
///     .device(DeviceModel::nvme_ssd())
///     .build_sim();
/// assert_eq!(env.cpu().num_cores(), 4);
/// assert!(env.clock().is_sim());
/// ```
#[derive(Debug, Clone)]
pub struct HardwareEnv {
    clock: Arc<Clock>,
    cpu: Arc<CpuPool>,
    device: Arc<Device>,
    memory: Arc<MemoryBudget>,
    description: String,
}

impl HardwareEnv {
    /// Starts building an environment. Defaults: 4 cores, 8 GiB, NVMe SSD.
    pub fn builder() -> HardwareEnvBuilder {
        HardwareEnvBuilder::default()
    }

    /// The shared clock.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// The CPU pool backing background jobs.
    pub fn cpu(&self) -> &Arc<CpuPool> {
        &self.cpu
    }

    /// The storage device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// The memory budget.
    pub fn memory(&self) -> &Arc<MemoryBudget> {
        &self.memory
    }

    /// One-line human description, e.g. `"4 cores / 4 GiB / NVMe SSD"`.
    pub fn description(&self) -> &str {
        &self.description
    }
}

/// Builder for [`HardwareEnv`]. See [`HardwareEnv::builder`].
#[derive(Debug)]
pub struct HardwareEnvBuilder {
    cores: usize,
    memory_bytes: u64,
    device: DeviceModel,
}

impl Default for HardwareEnvBuilder {
    fn default() -> Self {
        HardwareEnvBuilder {
            cores: 4,
            memory_bytes: 8 << 30,
            device: DeviceModel::nvme_ssd(),
        }
    }
}

impl HardwareEnvBuilder {
    /// Sets the number of CPU cores.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Sets RAM in gibibytes.
    pub fn memory_gib(mut self, gib: u64) -> Self {
        self.memory_bytes = gib << 30;
        self
    }

    /// Sets the storage device model.
    pub fn device(mut self, device: DeviceModel) -> Self {
        self.device = device;
        self
    }

    /// Builds the environment with a virtual (simulated) clock.
    pub fn build_sim(self) -> HardwareEnv {
        self.build_with_clock(Clock::sim())
    }

    /// Builds the environment with a wall clock (real-time mode).
    pub fn build_wall(self) -> HardwareEnv {
        self.build_with_clock(Clock::wall())
    }

    fn build_with_clock(self, clock: Clock) -> HardwareEnv {
        let description = format!(
            "{} cores / {} GiB / {}",
            self.cores,
            self.memory_bytes >> 30,
            self.device.class
        );
        HardwareEnv {
            clock: Arc::new(clock),
            cpu: Arc::new(CpuPool::new(self.cores)),
            device: Arc::new(Device::new(self.device)),
            memory: Arc::new(MemoryBudget::new(self.memory_bytes)),
            description,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_described_env() {
        let env = HardwareEnv::builder()
            .cores(2)
            .memory_gib(4)
            .device(DeviceModel::sata_hdd())
            .build_sim();
        assert_eq!(env.description(), "2 cores / 4 GiB / SATA HDD");
        assert_eq!(env.memory().total(), 4 << 30);
    }
}
