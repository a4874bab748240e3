//! Storage device models.
//!
//! A [`DeviceModel`] describes the performance envelope of a block device
//! (bandwidth, IOPS, access latency, seek behaviour, queue parallelism).
//! A [`Device`] couples a model with mutable queue state: submitted I/O
//! occupies one of a fixed number of channels, so concurrent requests
//! serialize on an HDD (one channel) but overlap on an NVMe SSD (many
//! channels). All submissions are accounted in [`IoCounters`] for
//! monitoring and prompt generation.

use std::fmt;
use std::str::FromStr;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// The kind of access an I/O request performs, used for cost modeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Contiguous with the device head / previous request on this stream.
    Sequential,
    /// Requires a seek (HDD) or a fresh NAND lookup (SSD).
    Random,
}

/// Broad device class, used by tuning heuristics ("is this rotational?").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// NVMe-attached solid state drive.
    NvmeSsd,
    /// SATA-attached solid state drive.
    SataSsd,
    /// SATA-attached rotational hard drive.
    SataHdd,
}

impl DeviceClass {
    /// Returns `true` for rotational media.
    pub fn is_rotational(self) -> bool {
        matches!(self, DeviceClass::SataHdd)
    }

    /// Human-readable label matching what an OS probe would report.
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::NvmeSsd => "NVMe SSD",
            DeviceClass::SataSsd => "SATA SSD",
            DeviceClass::SataHdd => "SATA HDD",
        }
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Immutable performance description of a storage device.
///
/// Cost functions combine a base per-request latency, a transfer time at
/// the pattern-appropriate bandwidth, and (for rotational media and random
/// access) a seek penalty.
///
/// # Examples
///
/// ```
/// use hw_sim::{AccessPattern, DeviceModel};
///
/// let hdd = DeviceModel::sata_hdd();
/// let ssd = DeviceModel::nvme_ssd();
/// let hdd_cost = hdd.read_cost(4096, AccessPattern::Random);
/// let ssd_cost = ssd.read_cost(4096, AccessPattern::Random);
/// assert!(hdd_cost.as_nanos() > 50 * ssd_cost.as_nanos());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    /// Device class, reported by monitors and used by heuristics.
    pub class: DeviceClass,
    /// Marketing-style name reported by probes.
    pub name: String,
    /// Sequential read bandwidth in bytes/second.
    pub seq_read_bps: u64,
    /// Sequential write bandwidth in bytes/second.
    pub seq_write_bps: u64,
    /// Random read bandwidth in bytes/second (post-latency transfer rate).
    pub rand_read_bps: u64,
    /// Random write bandwidth in bytes/second.
    pub rand_write_bps: u64,
    /// Base latency added to every request.
    pub access_latency: SimDuration,
    /// Average seek penalty for random access (zero for SSDs).
    pub seek_penalty: SimDuration,
    /// Cost of a durability barrier (fsync / FUA write).
    pub sync_latency: SimDuration,
    /// Number of requests the device services concurrently.
    pub channels: usize,
}

impl DeviceModel {
    /// A modern datacenter NVMe SSD (~3 GB/s reads, deep queues).
    pub fn nvme_ssd() -> Self {
        DeviceModel {
            class: DeviceClass::NvmeSsd,
            name: "SimNVMe P5520 1.6TB".to_string(),
            seq_read_bps: 3_000_000_000,
            seq_write_bps: 2_000_000_000,
            rand_read_bps: 1_200_000_000,
            rand_write_bps: 900_000_000,
            access_latency: SimDuration::from_micros(70),
            seek_penalty: SimDuration::ZERO,
            sync_latency: SimDuration::from_micros(20),
            channels: 16,
        }
    }

    /// A SATA SSD (~500 MB/s, shallow queue).
    pub fn sata_ssd() -> Self {
        DeviceModel {
            class: DeviceClass::SataSsd,
            name: "SimSATA 860 1TB".to_string(),
            seq_read_bps: 540_000_000,
            seq_write_bps: 500_000_000,
            rand_read_bps: 300_000_000,
            rand_write_bps: 250_000_000,
            access_latency: SimDuration::from_micros(120),
            seek_penalty: SimDuration::ZERO,
            sync_latency: SimDuration::from_micros(300),
            channels: 8,
        }
    }

    /// A 7200rpm SATA HDD (~160 MB/s sequential, ~6 ms average seek).
    pub fn sata_hdd() -> Self {
        DeviceModel {
            class: DeviceClass::SataHdd,
            name: "SimHDD 7200rpm 4TB".to_string(),
            seq_read_bps: 170_000_000,
            seq_write_bps: 160_000_000,
            rand_read_bps: 150_000_000,
            rand_write_bps: 140_000_000,
            access_latency: SimDuration::from_micros(100),
            seek_penalty: SimDuration::from_micros(6_000),
            sync_latency: SimDuration::from_millis(4),
            channels: 1,
        }
    }

    /// Service time of a read of `len` bytes with the given access pattern,
    /// excluding queueing delay.
    pub fn read_cost(&self, len: u64, pattern: AccessPattern) -> SimDuration {
        self.transfer_cost(len, pattern, self.seq_read_bps, self.rand_read_bps)
    }

    /// Service time of a write of `len` bytes with the given access
    /// pattern, excluding queueing delay.
    pub fn write_cost(&self, len: u64, pattern: AccessPattern) -> SimDuration {
        self.transfer_cost(len, pattern, self.seq_write_bps, self.rand_write_bps)
    }

    /// Service time of a durability barrier.
    pub fn sync_cost(&self) -> SimDuration {
        self.sync_latency
    }

    fn transfer_cost(
        &self,
        len: u64,
        pattern: AccessPattern,
        seq_bps: u64,
        rand_bps: u64,
    ) -> SimDuration {
        let (bps, seek) = match pattern {
            AccessPattern::Sequential => (seq_bps, SimDuration::ZERO),
            AccessPattern::Random => (rand_bps, self.seek_penalty),
        };
        let transfer = SimDuration::from_secs_f64(len as f64 / bps.max(1) as f64);
        self.access_latency + seek + transfer
    }
}

/// The device names the command-line tools accept: `nvme` or `nvme_ssd`,
/// `ssd` or `sata_ssd`, `hdd` or `sata_hdd`.
impl FromStr for DeviceModel {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "nvme" | "nvme_ssd" => Ok(DeviceModel::nvme_ssd()),
            "ssd" | "sata_ssd" => Ok(DeviceModel::sata_ssd()),
            "hdd" | "sata_hdd" => Ok(DeviceModel::sata_hdd()),
            other => Err(format!("unknown device: {other}")),
        }
    }
}

/// Cumulative I/O accounting for a device, in the spirit of
/// `/proc/diskstats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoCounters {
    /// Completed read requests.
    pub reads: u64,
    /// Completed write requests.
    pub writes: u64,
    /// Completed durability barriers.
    pub syncs: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Total device busy time across all channels.
    pub busy: SimDurationCounter,
}

/// Serializable nanosecond counter used inside [`IoCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimDurationCounter(pub u64);

impl SimDurationCounter {
    fn add(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.as_nanos());
    }

    /// The accumulated busy time.
    pub fn as_duration(self) -> SimDuration {
        SimDuration::from_nanos(self.0)
    }
}

#[derive(Debug)]
struct DeviceState {
    channels: Vec<SimTime>,
    counters: IoCounters,
}

/// A storage device: an immutable [`DeviceModel`] plus queue state.
///
/// [`Device::submit_read`], [`submit_write`](Device::submit_write) and
/// [`submit_sync`](Device::submit_sync) take the submission instant and
/// return the completion instant, after queueing on the earliest-available
/// channel. Because queue state mutates, the device is internally locked
/// and safe to share behind an `Arc`.
#[derive(Debug)]
pub struct Device {
    model: DeviceModel,
    state: Mutex<DeviceState>,
}

impl Device {
    /// Creates an idle device from a model.
    pub fn new(model: DeviceModel) -> Self {
        let channels = vec![SimTime::ZERO; model.channels.max(1)];
        Device {
            model,
            state: Mutex::new(DeviceState {
                channels,
                counters: IoCounters::default(),
            }),
        }
    }

    /// The device's performance model.
    pub fn model(&self) -> &DeviceModel {
        &self.model
    }

    /// Submits a read and returns its completion time.
    pub fn submit_read(&self, now: SimTime, len: u64, pattern: AccessPattern) -> SimTime {
        let cost = self.model.read_cost(len, pattern);
        let mut st = self.state.lock();
        st.counters.reads += 1;
        st.counters.read_bytes += len;
        Self::enqueue(&mut st, now, cost)
    }

    /// Submits a write and returns its completion time.
    pub fn submit_write(&self, now: SimTime, len: u64, pattern: AccessPattern) -> SimTime {
        let cost = self.model.write_cost(len, pattern);
        let mut st = self.state.lock();
        st.counters.writes += 1;
        st.counters.write_bytes += len;
        Self::enqueue(&mut st, now, cost)
    }

    /// Submits a durability barrier and returns its completion time.
    pub fn submit_sync(&self, now: SimTime) -> SimTime {
        let cost = self.model.sync_cost();
        let mut st = self.state.lock();
        st.counters.syncs += 1;
        Self::enqueue(&mut st, now, cost)
    }

    /// Snapshot of cumulative I/O counters.
    pub fn counters(&self) -> IoCounters {
        self.state.lock().counters
    }

    fn enqueue(st: &mut DeviceState, now: SimTime, cost: SimDuration) -> SimTime {
        let ch = st
            .channels
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("device has at least one channel");
        let start = st.channels[ch].max(now);
        let done = start + cost;
        st.channels[ch] = done;
        st.counters.busy.add(cost);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_random_reads_pay_seek() {
        let hdd = DeviceModel::sata_hdd();
        let seq = hdd.read_cost(4096, AccessPattern::Sequential);
        let rand = hdd.read_cost(4096, AccessPattern::Random);
        assert!(rand.as_nanos() >= seq.as_nanos() + hdd.seek_penalty.as_nanos());
    }

    #[test]
    fn nvme_random_reads_have_no_seek() {
        let ssd = DeviceModel::nvme_ssd();
        assert_eq!(ssd.seek_penalty, SimDuration::ZERO);
        let rand = ssd.read_cost(4096, AccessPattern::Random);
        // ~70us latency + ~3.4us transfer
        assert!(rand.as_nanos() < 100_000);
    }

    #[test]
    fn larger_transfers_cost_more() {
        let ssd = DeviceModel::nvme_ssd();
        let small = ssd.write_cost(4 << 10, AccessPattern::Sequential);
        let big = ssd.write_cost(4 << 20, AccessPattern::Sequential);
        assert!(big > small);
    }

    #[test]
    fn single_channel_serializes_requests() {
        let dev = Device::new(DeviceModel::sata_hdd());
        let t0 = SimTime::ZERO;
        let c1 = dev.submit_read(t0, 4096, AccessPattern::Random);
        let c2 = dev.submit_read(t0, 4096, AccessPattern::Random);
        assert!(c2 > c1, "second request queues behind the first");
    }

    #[test]
    fn multi_channel_overlaps_requests() {
        let dev = Device::new(DeviceModel::nvme_ssd());
        let t0 = SimTime::ZERO;
        let c1 = dev.submit_read(t0, 4096, AccessPattern::Random);
        let c2 = dev.submit_read(t0, 4096, AccessPattern::Random);
        assert_eq!(c1, c2, "channels service requests in parallel");
    }

    #[test]
    fn counters_accumulate() {
        let dev = Device::new(DeviceModel::nvme_ssd());
        dev.submit_read(SimTime::ZERO, 100, AccessPattern::Sequential);
        dev.submit_write(SimTime::ZERO, 200, AccessPattern::Sequential);
        dev.submit_sync(SimTime::ZERO);
        let c = dev.counters();
        assert_eq!((c.reads, c.writes, c.syncs), (1, 1, 1));
        assert_eq!((c.read_bytes, c.write_bytes), (100, 200));
        assert!(c.busy.as_duration() > SimDuration::ZERO);
    }

    #[test]
    fn every_device_spelling_parses_to_its_model() {
        for (names, class) in [
            (["nvme", "nvme_ssd"], DeviceClass::NvmeSsd),
            (["ssd", "sata_ssd"], DeviceClass::SataSsd),
            (["hdd", "sata_hdd"], DeviceClass::SataHdd),
        ] {
            for name in names {
                assert_eq!(
                    name.parse::<DeviceModel>().map(|d| d.class),
                    Ok(class),
                    "{name}"
                );
            }
        }
        assert_eq!(
            "floppy".parse::<DeviceModel>(),
            Err("unknown device: floppy".to_string())
        );
    }

    #[test]
    fn idle_device_starts_requests_at_submission_time() {
        let dev = Device::new(DeviceModel::nvme_ssd());
        let now = SimTime::from_nanos(5_000_000);
        let done = dev.submit_sync(now);
        assert_eq!(done, now + dev.model().sync_cost());
    }
}
