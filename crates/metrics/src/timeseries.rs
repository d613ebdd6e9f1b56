//! Time-bucketed counters and gauges.
//!
//! Fig. 3 (traffic rate and connection count through a port over time) and
//! Fig. 13 (per-sampling-point cross-worker standard deviations) need values
//! tracked against simulated time. [`TimeSeries`] buckets observations into
//! fixed-width intervals of a `u64` clock (nanoseconds in this workspace).

/// How observations landing in the same bucket are combined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Sum within the bucket (e.g. request counts → rates).
    Sum,
    /// Last written value wins (gauges, e.g. #connections).
    Last,
    /// Maximum within the bucket.
    Max,
    /// Arithmetic mean within the bucket.
    Mean,
}

/// A fixed-bucket-width time series over a `u64` clock.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bucket_width: u64,
    agg: Agg,
    origin: u64,
    /// (accumulator, sample count) per bucket, indexed from `origin`.
    buckets: Vec<(f64, u64)>,
}

impl TimeSeries {
    /// Create a time series starting at clock value `origin` with buckets of
    /// `bucket_width` ticks aggregated by `agg`.
    pub fn new(origin: u64, bucket_width: u64, agg: Agg) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        Self {
            bucket_width,
            agg,
            origin,
            buckets: Vec::new(),
        }
    }

    fn bucket_index(&self, t: u64) -> usize {
        ((t.saturating_sub(self.origin)) / self.bucket_width) as usize
    }

    /// Record `value` at time `t`. Times before `origin` clamp to bucket 0.
    pub fn record(&mut self, t: u64, value: f64) {
        let idx = self.bucket_index(t);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, (0.0, 0));
        }
        let (acc, n) = &mut self.buckets[idx];
        match self.agg {
            Agg::Sum => *acc += value,
            Agg::Last => *acc = value,
            Agg::Max => {
                if *n == 0 || value > *acc {
                    *acc = value;
                }
            }
            Agg::Mean => *acc += value,
        }
        *n += 1;
    }

    /// Number of buckets materialized so far.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Value of bucket `i` after aggregation (0.0 for empty buckets).
    pub fn value(&self, i: usize) -> f64 {
        match self.buckets.get(i) {
            None => 0.0,
            Some(&(acc, n)) => match self.agg {
                Agg::Mean if n > 0 => acc / n as f64,
                _ => acc,
            },
        }
    }

    /// Iterate `(bucket_start_time, value)` for all buckets.
    pub fn points(&self) -> Vec<(u64, f64)> {
        (0..self.buckets.len())
            .map(|i| (self.origin + i as u64 * self.bucket_width, self.value(i)))
            .collect()
    }

    /// For `Agg::Sum` series: per-second rates, given the clock runs in
    /// nanoseconds.
    pub fn rates_per_sec(&self) -> Vec<(u64, f64)> {
        let secs = self.bucket_width as f64 / crate::NANOS_PER_SEC as f64;
        self.points()
            .into_iter()
            .map(|(t, v)| (t, v / secs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_buckets_by_time() {
        let mut ts = TimeSeries::new(0, 100, Agg::Sum);
        ts.record(5, 1.0);
        ts.record(50, 1.0);
        ts.record(100, 1.0);
        ts.record(250, 1.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.value(0), 2.0);
        assert_eq!(ts.value(1), 1.0);
        assert_eq!(ts.value(2), 1.0);
        assert_eq!(ts.value(99), 0.0);
    }

    #[test]
    fn last_wins_for_gauges() {
        let mut ts = TimeSeries::new(0, 10, Agg::Last);
        ts.record(3, 5.0);
        ts.record(7, 9.0);
        assert_eq!(ts.value(0), 9.0);
    }

    #[test]
    fn max_aggregation() {
        let mut ts = TimeSeries::new(0, 10, Agg::Max);
        ts.record(1, -5.0);
        ts.record(2, -9.0);
        assert_eq!(ts.value(0), -5.0);
    }

    #[test]
    fn mean_aggregation() {
        let mut ts = TimeSeries::new(0, 10, Agg::Mean);
        ts.record(1, 2.0);
        ts.record(2, 4.0);
        assert_eq!(ts.value(0), 3.0);
    }

    #[test]
    fn origin_offsets_bucket_zero() {
        let mut ts = TimeSeries::new(1000, 100, Agg::Sum);
        ts.record(1000, 1.0);
        ts.record(1150, 1.0);
        // Pre-origin time clamps to bucket 0 instead of panicking.
        ts.record(500, 1.0);
        assert_eq!(ts.value(0), 2.0);
        assert_eq!(ts.value(1), 1.0);
        assert_eq!(ts.points()[0].0, 1000);
    }

    #[test]
    fn rates_convert_to_per_second() {
        let mut ts = TimeSeries::new(0, crate::NANOS_PER_SEC / 2, Agg::Sum);
        for _ in 0..10 {
            ts.record(0, 1.0);
        }
        let rates = ts.rates_per_sec();
        assert_eq!(rates[0].1, 20.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        TimeSeries::new(0, 0, Agg::Sum);
    }
}
