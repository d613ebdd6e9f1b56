//! Log-bucketed histogram with bounded relative error.
//!
//! Latency recording in the simulator and the benchmark harnesses happens on
//! the per-event fast path, so the recorder must be O(1), allocation-free after
//! construction, and compact. This histogram uses base-2 sub-bucketed buckets
//! (the HdrHistogram layout): values are grouped by magnitude (leading zeros)
//! and then linearly within a magnitude, giving a configurable worst-case
//! relative error of `2^-sub_bucket_bits`.

/// A histogram over `u64` values (typically nanoseconds) with bounded
/// relative quantile error.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `log2` of the number of linear sub-buckets per power-of-two magnitude.
    sub_bucket_bits: u32,
    /// Bucket counts, laid out magnitude-major.
    counts: Vec<u64>,
    /// Total number of recorded values.
    total: u64,
    /// Running sum for mean computation (saturating).
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Create a histogram with `sub_bucket_bits` bits of sub-bucket
    /// resolution (relative error `2^-sub_bucket_bits`; 7 bits ≈ 0.8 %).
    pub fn new(sub_bucket_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&sub_bucket_bits),
            "sub_bucket_bits must be in 1..=16"
        );
        // Layout: the first 2*S buckets (S = 2^bits) are exact (width 1) and
        // cover [0, 2S). Every binary magnitude m >= bits+1 then contributes
        // S buckets of width 2^(m-bits). Magnitudes run up to 63, so
        // S*(66-bits) buckets cover the whole u64 range with slack.
        let sub_buckets = 1usize << sub_bucket_bits;
        Self {
            sub_bucket_bits,
            counts: vec![0; sub_buckets * (66 - sub_bucket_bits as usize)],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// A histogram sized for nanosecond latencies (0.8 % relative error).
    pub fn latency() -> Self {
        Self::new(7)
    }

    fn index_of(&self, value: u64) -> usize {
        let bits = self.sub_bucket_bits as u64;
        let sub_buckets = 1u64 << bits;
        if value < sub_buckets * 2 {
            // The linear region [0, 2S) is exact (bucket width 1).
            value as usize
        } else {
            // magnitude = floor(log2(value)) >= bits+1; the `bits` bits just
            // below the leading bit select the sub-bucket.
            let magnitude = 63 - value.leading_zeros() as u64;
            let shift = magnitude - bits;
            let sub = (value >> shift) & (sub_buckets - 1);
            (2 * sub_buckets + (magnitude - bits - 1) * sub_buckets + sub) as usize
        }
    }

    /// Lowest value that would map to the bucket at `index`.
    fn bucket_floor(&self, index: usize) -> u64 {
        let bits = self.sub_bucket_bits as u64;
        let sub_buckets = 1u64 << bits;
        let index = index as u64;
        if index < sub_buckets * 2 {
            index
        } else {
            let k = index - 2 * sub_buckets;
            let magnitude = bits + 1 + k / sub_buckets;
            let sub = k % sub_buckets;
            let shift = magnitude - bits;
            (1u64 << magnitude) | (sub << shift)
        }
    }

    /// Record a single value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = self.index_of(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(value);
        self.counts[idx] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the smallest bucket floor such that
    /// at least `q * count` values are at or below the bucket.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                // Clamp into the observed range so P0/P100 are exact.
                return self.bucket_floor(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Shorthand percentiles.
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }
    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.value_at_quantile(0.90)
    }
    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }
    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// Merge another histogram with the same resolution into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.sub_bucket_bits, other.sub_bucket_bits,
            "cannot merge histograms with different resolutions"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset all recorded state, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Iterate over `(bucket_floor, count)` pairs for non-empty buckets.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (self.bucket_floor(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::latency();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::latency();
        for v in 0..256 {
            h.record(v);
        }
        assert_eq!(h.count(), 256);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 255);
        // First 2*2^7 = 256 values are exact buckets.
        assert_eq!(h.value_at_quantile(0.5), 127);
        assert_eq!(h.value_at_quantile(1.0), 255);
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = Histogram::new(7);
        // Deterministic LCG spread over a wide range.
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut values = Vec::new();
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x % 10_000_000_000; // up to 10s in ns
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for &q in &[0.5, 0.9, 0.99, 0.999] {
            let exact =
                values[((q * values.len() as f64).ceil() as usize - 1).min(values.len() - 1)];
            let approx = h.value_at_quantile(q);
            let err = (approx as f64 - exact as f64).abs() / exact.max(1) as f64;
            assert!(err < 0.01, "q={q}: exact={exact} approx={approx} err={err}");
        }
    }

    #[test]
    fn mean_matches_sum() {
        let mut h = Histogram::latency();
        h.record_n(100, 3);
        h.record(200);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 125.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::latency();
        let mut b = Histogram::latency();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "different resolutions")]
    fn merge_rejects_mismatched_resolution() {
        let mut a = Histogram::new(7);
        let b = Histogram::new(8);
        a.merge(&b);
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut h = Histogram::latency();
        h.record(42);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
    }

    #[test]
    fn bucket_floor_round_trips_index() {
        let h = Histogram::new(7);
        for v in [
            0u64,
            1,
            255,
            256,
            300,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 2,
        ] {
            let idx = h.index_of(v);
            let floor = h.bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > value {v}");
            // Error bound: one sub-bucket width.
            let err = (v - floor) as f64 / v.max(1) as f64;
            assert!(err <= 1.0 / 128.0 + 1e-12, "v={v} floor={floor} err={err}");
        }
    }

    #[test]
    fn iter_buckets_covers_all_counts() {
        let mut h = Histogram::latency();
        h.record_n(5, 7);
        h.record_n(1 << 30, 3);
        let total: u64 = h.iter_buckets().map(|(_, c)| c).sum();
        assert_eq!(total, 10);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::rng::{for_each_case, SplitMix64};

    /// `min_len..max_len` values, each below `bound`.
    fn values(g: &mut SplitMix64, min_len: usize, max_len: usize, bound: u64) -> Vec<u64> {
        let len = min_len + g.index(max_len - min_len);
        (0..len).map(|_| g.next_u64() % bound).collect()
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantiles_monotone_and_bracketed() {
        for_each_case(256, |g| {
            let mut h = Histogram::latency();
            for v in values(g, 1, 200, 1_000_000_000) {
                h.record(v);
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let mut prev = 0u64;
            for &q in &qs {
                let v = h.value_at_quantile(q);
                assert!(v >= prev, "quantile not monotone at {q}");
                assert!(v >= h.min() && v <= h.max());
                prev = v;
            }
        });
    }

    /// Merging two histograms equals recording everything into one.
    #[test]
    fn merge_equals_union() {
        for_each_case(256, |g| {
            let mut ha = Histogram::latency();
            let mut hb = Histogram::latency();
            let mut hu = Histogram::latency();
            for v in values(g, 0, 100, 1_000_000) {
                ha.record(v);
                hu.record(v);
            }
            for v in values(g, 0, 100, 1_000_000) {
                hb.record(v);
                hu.record(v);
            }
            ha.merge(&hb);
            assert_eq!(ha.count(), hu.count());
            assert_eq!(ha.min(), hu.min());
            assert_eq!(ha.max(), hu.max());
            for &q in &[0.5, 0.9, 0.99] {
                assert_eq!(ha.value_at_quantile(q), hu.value_at_quantile(q));
            }
        });
    }

    /// The bucketed quantile stays within the configured relative error
    /// of the exact order statistic.
    #[test]
    fn quantile_error_bound() {
        for_each_case(256, |g| {
            let mut h = Histogram::new(7);
            let mut sorted: Vec<u64> = values(g, 10, 300, u64::MAX / 2 - 1)
                .iter()
                .map(|v| v + 1)
                .collect();
            for &v in &sorted {
                h.record(v);
            }
            sorted.sort_unstable();
            for &q in &[0.5, 0.9, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
                let exact = sorted[rank];
                let approx = h.value_at_quantile(q);
                let err = (approx as f64 - exact as f64).abs() / exact as f64;
                assert!(
                    err <= 1.0 / 128.0 + 1e-9,
                    "q={q} exact={exact} approx={approx}"
                );
            }
        });
    }

    /// Bucket iteration conserves the recorded count.
    #[test]
    fn buckets_conserve_count() {
        for_each_case(256, |g| {
            let values = values(g, 0, 200, 1_000_000_000);
            let mut h = Histogram::latency();
            for &v in &values {
                h.record(v);
            }
            let total: u64 = h.iter_buckets().map(|(_, c)| c).sum();
            assert_eq!(total, values.len() as u64);
        });
    }
}
