//! System monitoring: the simulated analogues of `psutil` and `fio`.
//!
//! ELMo-Tune's prompt generator (paper §4.2) collects system information
//! "e.g., via psutil and fio" and interlaces it into the prompt. These
//! helpers render the same kind of information from a [`HardwareEnv`]:
//! [`SystemSnapshot`] is the psutil-style live view, and [`DeviceProbe`]
//! is the fio-style device capability summary.

use serde::{Deserialize, Serialize};

use crate::device::{AccessPattern, DeviceClass, IoCounters};
use crate::env::HardwareEnv;

/// A psutil-style point-in-time view of the machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSnapshot {
    /// Instant the snapshot was taken.
    pub taken_at_nanos: u64,
    /// Logical CPU cores.
    pub cpu_cores: usize,
    /// Average CPU utilization since start, percent.
    pub cpu_util_percent: f64,
    /// Total RAM bytes.
    pub mem_total: u64,
    /// RAM used by the engine, bytes.
    pub mem_used: u64,
    /// Memory pressure as a fraction of the engine-available budget.
    pub mem_pressure: f64,
    /// Device class label.
    pub device_class: DeviceClass,
    /// Device marketing name.
    pub device_name: String,
    /// Cumulative I/O counters.
    pub io: IoCounters,
}

impl SystemSnapshot {
    /// Captures a snapshot of `env` at its current clock position.
    pub fn capture(env: &HardwareEnv) -> Self {
        let now = env.clock().now();
        SystemSnapshot {
            taken_at_nanos: now.as_nanos(),
            cpu_cores: env.cpu().num_cores(),
            cpu_util_percent: env.cpu().utilization_percent(now),
            mem_total: env.memory().total(),
            mem_used: env.memory().used(),
            mem_pressure: env.memory().pressure(),
            device_class: env.device().model().class,
            device_name: env.device().model().name.clone(),
            io: env.device().counters(),
        }
    }

    /// Renders the snapshot as the plain-text block a prompt embeds.
    pub fn to_prompt_text(&self) -> String {
        let busy = self.io.busy.as_duration();
        format!(
            "CPU: {} logical cores, {:.1}% average utilization\n\
             Memory: {:.2} GiB total, {:.2} GiB used by the store ({:.0}% of usable budget)\n\
             Storage: {} ({})\n\
             I/O since start: {} reads ({:.1} MiB), {} writes ({:.1} MiB), {} syncs, device busy {}",
            self.cpu_cores,
            self.cpu_util_percent,
            self.mem_total as f64 / (1u64 << 30) as f64,
            self.mem_used as f64 / (1u64 << 30) as f64,
            self.mem_pressure * 100.0,
            self.device_name,
            self.device_class,
            self.io.reads,
            self.io.read_bytes as f64 / (1u64 << 20) as f64,
            self.io.writes,
            self.io.write_bytes as f64 / (1u64 << 20) as f64,
            self.io.syncs,
            busy,
        )
    }
}

/// An fio-style capability probe of the environment's device.
///
/// Unlike [`SystemSnapshot`] this does not reflect load; it reports what
/// the device *can* do, derived by querying the cost model exactly the way
/// a short fio run would measure it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProbe {
    /// Device class.
    pub class: DeviceClass,
    /// Device marketing name.
    pub name: String,
    /// Sequential read bandwidth, MiB/s, from a 1 MiB transfer.
    pub seq_read_mibps: f64,
    /// Sequential write bandwidth, MiB/s.
    pub seq_write_mibps: f64,
    /// 4 KiB random read IOPS.
    pub rand_read_4k_iops: f64,
    /// 4 KiB random write IOPS.
    pub rand_write_4k_iops: f64,
    /// fsync latency in microseconds.
    pub sync_latency_us: f64,
}

impl DeviceProbe {
    /// Probes the device in `env`.
    pub fn run(env: &HardwareEnv) -> Self {
        let model = env.device().model();
        const MIB: u64 = 1 << 20;
        const FOUR_K: u64 = 4 << 10;
        let seq_read = model.read_cost(MIB, AccessPattern::Sequential).as_secs_f64();
        let seq_write = model.write_cost(MIB, AccessPattern::Sequential).as_secs_f64();
        let rr = model.read_cost(FOUR_K, AccessPattern::Random).as_secs_f64();
        let rw = model.write_cost(FOUR_K, AccessPattern::Random).as_secs_f64();
        DeviceProbe {
            class: model.class,
            name: model.name.clone(),
            seq_read_mibps: 1.0 / seq_read,
            seq_write_mibps: 1.0 / seq_write,
            rand_read_4k_iops: 1.0 / rr,
            rand_write_4k_iops: 1.0 / rw,
            sync_latency_us: model.sync_cost().as_micros_f64(),
        }
    }

    /// Renders the probe as the fio-like text block a prompt embeds.
    pub fn to_prompt_text(&self) -> String {
        format!(
            "fio probe of {} ({}):\n\
             - sequential read : {:.0} MiB/s\n\
             - sequential write: {:.0} MiB/s\n\
             - random read 4k  : {:.0} IOPS\n\
             - random write 4k : {:.0} IOPS\n\
             - fsync latency   : {:.0} us\n\
             - rotational      : {}",
            self.name,
            self.class,
            self.seq_read_mibps,
            self.seq_write_mibps,
            self.rand_read_4k_iops,
            self.rand_write_4k_iops,
            self.sync_latency_us,
            if self.class.is_rotational() { "yes" } else { "no" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;

    fn env() -> HardwareEnv {
        HardwareEnv::builder()
            .cores(2)
            .memory_gib(4)
            .device(DeviceModel::sata_hdd())
            .build_sim()
    }

    #[test]
    fn snapshot_reports_configuration() {
        let e = env();
        let snap = SystemSnapshot::capture(&e);
        assert_eq!(snap.cpu_cores, 2);
        assert_eq!(snap.mem_total, 4 << 30);
        assert_eq!(snap.device_class, DeviceClass::SataHdd);
        let text = snap.to_prompt_text();
        assert!(text.contains("2 logical cores"));
        assert!(text.contains("SATA HDD"));
    }

    #[test]
    fn probe_orders_devices_correctly() {
        let hdd = DeviceProbe::run(&env());
        let nvme_env = HardwareEnv::builder().device(DeviceModel::nvme_ssd()).build_sim();
        let nvme = DeviceProbe::run(&nvme_env);
        assert!(nvme.rand_read_4k_iops > 20.0 * hdd.rand_read_4k_iops);
        assert!(nvme.seq_write_mibps > hdd.seq_write_mibps);
        assert!(hdd.to_prompt_text().contains("rotational      : yes"));
        assert!(nvme.to_prompt_text().contains("rotational      : no"));
    }

    #[test]
    fn probe_numbers_are_plausible() {
        let nvme_env = HardwareEnv::builder().device(DeviceModel::nvme_ssd()).build_sim();
        let p = DeviceProbe::run(&nvme_env);
        // 1 MiB at 3 GB/s plus 70us latency -> several hundred MiB/s at least.
        assert!(p.seq_read_mibps > 500.0);
        assert!(p.rand_read_4k_iops > 5_000.0);
    }
}
