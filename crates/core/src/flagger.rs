//! Active Flagger: keep/revert decisions plus the in-run benchmark
//! monitor with early stop.
//!
//! Paper §4.2: the flagger "compares [the benchmark result] with the
//! previous iteration's performance values and determines if the changes
//! enhance performance. If there's an improvement, the new configuration
//! is kept. Otherwise, ELMO-Tune reverts to the previous option file" —
//! and a "constant benchmark monitor" aborts runs whose performance
//! collapses ("early stop and 'redo' on performance drop", first check
//! after ~30 seconds).

use db_bench::{MonitorControl, MonitorSample};

use crate::bench_text::ParsedBench;

/// What the tuner optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Maximize operations per second.
    #[default]
    Throughput,
    /// Minimize the worst reported p99 latency.
    P99Latency,
}

/// The flagger's decision for one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate improved on the best-so-far: keep its options.
    Keep,
    /// The candidate regressed: restore the previous options.
    Revert,
}

/// Relative improvement over the best so far that a candidate must show
/// to be kept; anything within it is noise.
const MIN_IMPROVEMENT: f64 = 0.005;

/// Samples before this many simulated seconds are ignored (the paper's
/// "first 30s" check gate).
const WARMUP_SECS: f64 = 30.0;

/// A sample is bad when its interval throughput falls below this fraction
/// of the reference.
const MIN_FRACTION: f64 = 0.4;

/// Consecutive bad samples that abort a run.
const PATIENCE: usize = 3;

/// Compares iteration results and issues verdicts.
#[derive(Debug, Clone, Default)]
pub struct ActiveFlagger {
    /// Optimization objective.
    pub objective: Objective,
}

impl ActiveFlagger {
    /// Scores a result under the objective (higher is better).
    pub fn score(&self, result: &ParsedBench) -> f64 {
        match self.objective {
            Objective::Throughput => result.ops_per_sec,
            Objective::P99Latency => {
                let p99 = result.worst_p99_us().unwrap_or(f64::MAX);
                if p99 <= 0.0 {
                    0.0
                } else {
                    1e9 / p99
                }
            }
        }
    }

    /// Judges a candidate against the best result so far.
    pub fn judge(&self, best: &ParsedBench, candidate: &ParsedBench) -> Verdict {
        if candidate.aborted {
            return Verdict::Revert;
        }
        let best_score = self.score(best);
        let cand_score = self.score(candidate);
        if cand_score > best_score * (1.0 + MIN_IMPROVEMENT) {
            Verdict::Keep
        } else {
            Verdict::Revert
        }
    }
}

/// The in-run benchmark monitor: aborts a run when interval throughput
/// collapses below a fraction of the reference (best-so-far) rate.
#[derive(Debug)]
pub struct EarlyStopMonitor {
    /// Reference throughput (best so far), ops/sec.
    pub reference_ops_per_sec: f64,
    bad_samples: usize,
    triggered: bool,
}

impl EarlyStopMonitor {
    /// Creates a monitor with the paper-like settings: first check after
    /// 30 simulated seconds, abort after three consecutive samples below
    /// 40% of the reference.
    pub fn new(reference_ops_per_sec: f64) -> Self {
        EarlyStopMonitor {
            reference_ops_per_sec,
            bad_samples: 0,
            triggered: false,
        }
    }

    /// Whether the monitor aborted the run.
    pub fn triggered(&self) -> bool {
        self.triggered
    }

    /// Processes one sample; returns the control decision.
    pub fn observe(&mut self, sample: &MonitorSample) -> MonitorControl {
        if self.reference_ops_per_sec <= 0.0 || sample.at_secs < WARMUP_SECS {
            return MonitorControl::Continue;
        }
        if sample.interval_ops_per_sec < self.reference_ops_per_sec * MIN_FRACTION {
            self.bad_samples += 1;
            if self.bad_samples >= PATIENCE {
                self.triggered = true;
                return MonitorControl::Stop;
            }
        } else {
            self.bad_samples = 0;
        }
        MonitorControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(tput: f64, p99w: Option<f64>, p99r: Option<f64>) -> ParsedBench {
        ParsedBench {
            workload: "x".into(),
            ops_per_sec: tput,
            micros_per_op: 1e6 / tput,
            ops: 1000,
            p99_write_us: p99w,
            p99_read_us: p99r,
            cache_hit_ratio: None,
            stall_seconds: None,
            aborted: false,
            ..ParsedBench::default()
        }
    }

    #[test]
    fn keeps_improvements_reverts_regressions() {
        let f = ActiveFlagger::default();
        let best = bench(100_000.0, Some(10.0), None);
        assert_eq!(f.judge(&best, &bench(120_000.0, Some(9.0), None)), Verdict::Keep);
        assert_eq!(f.judge(&best, &bench(80_000.0, Some(9.0), None)), Verdict::Revert);
        // Within the noise threshold: revert (only beneficial changes kept).
        assert_eq!(f.judge(&best, &bench(100_100.0, Some(9.0), None)), Verdict::Revert);
    }

    #[test]
    fn aborted_candidates_always_revert() {
        let f = ActiveFlagger::default();
        let best = bench(100.0, None, None);
        let mut cand = bench(1e9, None, None);
        cand.aborted = true;
        assert_eq!(f.judge(&best, &cand), Verdict::Revert);
    }

    #[test]
    fn p99_objective_prefers_lower_latency() {
        let f = ActiveFlagger { objective: Objective::P99Latency };
        let best = bench(100.0, Some(100.0), Some(500.0));
        let better = bench(50.0, Some(90.0), Some(200.0)); // slower but tighter tail
        assert_eq!(f.judge(&best, &better), Verdict::Keep);
    }

    fn sample(at: f64, rate: f64) -> MonitorSample {
        MonitorSample {
            at_secs: at,
            interval_ops_per_sec: rate,
        }
    }

    #[test]
    fn early_stop_ignores_warmup() {
        let mut m = EarlyStopMonitor::new(100_000.0);
        for i in 0..29 {
            assert_eq!(m.observe(&sample(i as f64, 10.0)), MonitorControl::Continue);
        }
        assert!(!m.triggered());
    }

    #[test]
    fn early_stop_fires_after_patience() {
        let mut m = EarlyStopMonitor::new(100_000.0);
        assert_eq!(m.observe(&sample(31.0, 10_000.0)), MonitorControl::Continue);
        assert_eq!(m.observe(&sample(32.0, 10_000.0)), MonitorControl::Continue);
        assert_eq!(m.observe(&sample(33.0, 10_000.0)), MonitorControl::Stop);
        assert!(m.triggered());
    }

    #[test]
    fn recovery_resets_patience() {
        let mut m = EarlyStopMonitor::new(100_000.0);
        m.observe(&sample(31.0, 10_000.0));
        m.observe(&sample(32.0, 10_000.0));
        m.observe(&sample(33.0, 90_000.0)); // healthy again
        m.observe(&sample(34.0, 10_000.0));
        assert_eq!(m.observe(&sample(35.0, 10_000.0)), MonitorControl::Continue);
        assert!(!m.triggered());
    }

    #[test]
    fn no_reference_means_no_stop() {
        let mut m = EarlyStopMonitor::new(0.0);
        for i in 30..100 {
            assert_eq!(m.observe(&sample(i as f64, 1.0)), MonitorControl::Continue);
        }
    }
}
