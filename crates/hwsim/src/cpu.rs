//! CPU model: a pool of cores on which background work is scheduled.
//!
//! Foreground (client) work is accounted by the workload driver on its own
//! virtual timelines; the [`CpuPool`] models the *background* capacity the
//! storage engine competes for — flush and compaction jobs are placed on
//! the earliest-available core, so a 2-core box genuinely runs fewer
//! concurrent background jobs than a 4-core box.

use parking_lot::Mutex;

use crate::time::{SimDuration, SimTime};

/// Cumulative CPU accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuCounters {
    /// Background jobs executed.
    pub jobs: u64,
    /// Total busy time summed over all cores.
    pub busy_nanos: u64,
}

#[derive(Debug)]
struct CpuState {
    cores: Vec<SimTime>,
    counters: CpuCounters,
}

/// A pool of simulated CPU cores.
///
/// # Examples
///
/// ```
/// use hw_sim::{CpuPool, SimDuration, SimTime};
///
/// let pool = CpuPool::new(2);
/// let d = SimDuration::from_millis(10);
/// let a = pool.run(SimTime::ZERO, d);
/// let b = pool.run(SimTime::ZERO, d);
/// let c = pool.run(SimTime::ZERO, d);
/// assert_eq!(a.end, b.end, "two cores run two jobs in parallel");
/// assert!(c.end > a.end, "third job waits for a free core");
/// ```
#[derive(Debug)]
pub struct CpuPool {
    num_cores: usize,
    state: Mutex<CpuState>,
}

/// Placement of one background job on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSlot {
    /// When the job began executing (>= submission time).
    pub start: SimTime,
    /// When the job finished.
    pub end: SimTime,
}

impl CpuPool {
    /// Creates a pool of `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "a CPU pool needs at least one core");
        CpuPool {
            num_cores,
            state: Mutex::new(CpuState {
                cores: vec![SimTime::ZERO; num_cores],
                counters: CpuCounters::default(),
            }),
        }
    }

    /// Number of cores in the pool.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Schedules a job costing `cpu_cost` on the earliest-available
    /// core, returning its placement.
    pub fn run(&self, now: SimTime, cpu_cost: SimDuration) -> CpuSlot {
        let mut st = self.state.lock();
        let core = st
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("pool has at least one core");
        let start = st.cores[core].max(now);
        let end = start + cpu_cost;
        st.cores[core] = end;
        st.counters.jobs += 1;
        st.counters.busy_nanos = st.counters.busy_nanos.saturating_add(cpu_cost.as_nanos());
        CpuSlot { start, end }
    }

    /// Number of cores still busy at `now`.
    pub fn busy_cores(&self, now: SimTime) -> usize {
        let st = self.state.lock();
        st.cores.iter().filter(|t| **t > now).count()
    }

    /// Average utilization of the pool over `[SimTime::ZERO, now]`,
    /// in percent.
    pub fn utilization_percent(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let st = self.state.lock();
        let capacity = now.as_secs_f64() * self.num_cores as f64;
        let busy = st.counters.busy_nanos as f64 / 1e9;
        (busy / capacity * 100.0).min(100.0)
    }

    /// Snapshot of cumulative counters.
    pub fn counters(&self) -> CpuCounters {
        self.state.lock().counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = CpuPool::new(0);
    }

    #[test]
    fn jobs_fill_cores_before_queueing() {
        let pool = CpuPool::new(4);
        let d = SimDuration::from_millis(1);
        let ends: Vec<_> = (0..4).map(|_| pool.run(SimTime::ZERO, d).end).collect();
        assert!(ends.iter().all(|e| *e == ends[0]));
        let fifth = pool.run(SimTime::ZERO, d);
        assert_eq!(fifth.end, ends[0] + d);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let pool = CpuPool::new(2);
        pool.run(SimTime::ZERO, SimDuration::from_secs(1));
        // 1 core-second busy out of 2 core-seconds capacity at t=1s.
        let util = pool.utilization_percent(SimTime::from_nanos(1_000_000_000));
        assert!((util - 50.0).abs() < 1.0, "got {util}");
    }

    #[test]
    fn busy_cores_counts_in_flight_jobs() {
        let pool = CpuPool::new(4);
        pool.run(SimTime::ZERO, SimDuration::from_millis(5));
        pool.run(SimTime::ZERO, SimDuration::from_millis(5));
        assert_eq!(pool.busy_cores(SimTime::from_nanos(1_000_000)), 2);
        assert_eq!(pool.busy_cores(SimTime::from_nanos(10_000_000)), 0);
    }
}
