//! Latency histogram.

/// A histogram of `u64` samples with power-of-two buckets.
///
/// Tracks count, sum, min and max exactly; percentiles are approximated by
/// the bucket upper bound (sufficient for reporting latency distributions).
///
/// # Example
///
/// ```
/// use ftdircmp_stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 100);
/// assert_eq!(h.max(), Some(100));
/// assert!(h.percentile(50.0).unwrap() >= 50);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: None,
            max: None,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = bucket_index(value);
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += value;
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Approximate `p`-th percentile (bucket upper bound), `0 < p <= 100`.
    /// Returns `None` when the histogram is empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(bucket_upper_bound(i).min(self.max.unwrap_or(u64::MAX)));
            }
        }
        self.max
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

fn bucket_upper_bound(index: usize) -> u64 {
    if index >= 64 {
        u64::MAX
    } else if index == 0 {
        0
    } else {
        (1u64 << index) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_defaults() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min, None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(50.0), None);
    }

    #[test]
    fn basic_stats_are_exact() {
        let mut h = Histogram::new();
        for v in [5u64, 10, 15] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 30);
        assert_eq!(h.mean(), 10.0);
        assert_eq!(h.min, Some(5));
        assert_eq!(h.max(), Some(15));
    }

    #[test]
    fn zero_sample_goes_to_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.min, Some(0));
        assert_eq!(h.percentile(100.0), Some(0));
    }

    #[test]
    fn percentile_monotonic_in_p() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0).unwrap();
        let p90 = h.percentile(90.0).unwrap();
        let p100 = h.percentile(100.0).unwrap();
        assert!(p50 <= p90 && p90 <= p100);
        assert_eq!(p100, 1000);
    }

    #[test]
    fn percentile_never_exceeds_max() {
        let mut h = Histogram::new();
        h.record(3);
        assert_eq!(h.percentile(99.0), Some(3));
    }

    #[test]
    fn large_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 1);
        assert!(h.percentile(100.0).is_some());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn count_sum_min_max_are_exact(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
            prop_assert_eq!(h.min, values.iter().min().copied());
            prop_assert_eq!(h.max(), values.iter().max().copied());
        }

        #[test]
        fn percentiles_are_monotone_and_bounded(
            values in proptest::collection::vec(0u64..1_000_000, 1..200),
            cuts in proptest::collection::vec(0.0f64..100.0, 2..8),
        ) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = cuts.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last = 0u64;
            for p in sorted {
                let q = h.percentile(p).unwrap();
                prop_assert!(q >= last, "percentile not monotone");
                prop_assert!(q <= h.max().unwrap());
                last = q;
            }
        }
    }
}
