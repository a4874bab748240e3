//! Percentiles, quartiles and a fixed-memory latency histogram.

/// The value at percentile `p` (0 < p < 100) of an ascending slice, or
/// `None` when fewer than ten samples lie beyond it — a tail read off a
/// handful of samples is noise, not a measurement.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let beyond = n - 1 - idx;
    (beyond >= 10).then(|| sorted[idx])
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the spread the
/// benchmark's bounds are checked against.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values))
}

const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;

/// Log-linear histogram of nanosecond durations: 32 sub-buckets per
/// power of two, so a reported percentile is within ~3% of the sample.
/// Used where every operation is recorded and keeping each sample would
/// cost memory the traced program would feel.
#[derive(Debug, Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: vec![0; SUB * (64 - SUB_BITS as usize + 1)],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LogHist {
    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let top = 63 - ns.leading_zeros();
        let shift = top - SUB_BITS;
        ((shift as usize + 1) << SUB_BITS) + ((ns >> shift) as usize & (SUB - 1))
    }

    /// Upper edge of a bucket.
    fn upper(index: usize) -> u64 {
        if index < SUB {
            return index as u64;
        }
        let shift = (index >> SUB_BITS) as u32 - 1;
        let sub = (index & (SUB - 1)) as u128;
        // The top bucket's edge is 2^64 - 1; widen so the shift cannot wrap.
        (((SUB as u128 + sub + 1) << shift) - 1).min(u64::MAX as u128) as u64
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Percentile in nanoseconds under the same ten-samples-beyond rule as
    /// [`percentile`]; 0 when the histogram cannot support it.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        if self.count - rank < 10 {
            return 0;
        }
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper(i);
            }
        }
        unreachable!("rank <= count")
    }

    pub fn percentile_us(&self, p: f64) -> f64 {
        self.percentile_ns(p) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990)); // exactly ten beyond
        assert_eq!(percentile(&v, 99.1), None); // nine beyond
        assert_eq!(percentile(&v, 99.9), None);
        let small: Vec<u32> = (1..=19).collect();
        assert_eq!(percentile(&small, 50.0), None); // nine beyond the median
        let enough: Vec<u32> = (1..=21).collect();
        assert_eq!(percentile(&enough, 50.0), Some(11));
        assert_eq!(percentile::<u32>(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_share(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_hist_is_within_its_error_and_obeys_the_tail_rule() {
        let mut h = LogHist::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        for (p, want) in [(50.0, 50_000.0), (99.0, 99_000.0), (99.9, 99_900.0)] {
            let got = h.percentile_ns(p) as f64;
            assert!((got - want).abs() / want < 0.04, "p{p}: {got} vs {want}");
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.sum_ns(), 100_000 * 100_001 / 2);

        let mut few = LogHist::default();
        for ns in 0..15 {
            few.record(ns * 1000);
        }
        assert_eq!(
            few.percentile_ns(50.0),
            0,
            "fewer than ten samples beyond the median"
        );

        let mut other = LogHist::default();
        other.record(u64::MAX);
        other.record(0);
        h.merge(&other);
        assert_eq!(h.count(), 100_002);
    }

    #[test]
    fn log_hist_bucket_edges_are_monotone() {
        let mut last = 0;
        for ns in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let i = LogHist::index(ns);
            assert!(i >= last, "index not monotone at {ns}");
            assert!(LogHist::upper(i) >= ns, "upper edge below sample {ns}");
            if i > 0 {
                assert!(
                    LogHist::upper(i - 1) < ns,
                    "sample {ns} fits the bucket below"
                );
            }
            last = i;
        }
    }
}
