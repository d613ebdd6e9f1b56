//! Log-bucketed histogram with bounded relative error.
//!
//! Latency recording in the simulator and the benchmark harnesses happens on
//! the per-event fast path, so the recorder must be O(1) and compact. This
//! histogram uses base-2 sub-bucketed buckets (the HdrHistogram layout):
//! values are grouped by magnitude (leading zeros) and then linearly within a
//! magnitude, giving a configurable worst-case relative error of
//! `2^-sub_bucket_bits`.
//!
//! Storage holds only what has been recorded: `u32` counts, grown one
//! magnitude (`2^sub_bucket_bits` buckets) at a time up to the largest bucket
//! recorded, not all 59 magnitudes of the `u64` range at construction. A
//! latency histogram that sees at most 10 ms holds 2 304 buckets (9 KiB)
//! where the whole range is 7 552 `u64`s (59 KiB), which counts where many
//! are kept: a fleet run keeps every device's report, 2 + 3 × workers
//! histograms each. A bucket that would pass `u32::MAX` panics rather than
//! wraps.

const OVERFLOW: &str = "histogram bucket passed u32::MAX";

/// A histogram over `u64` values (typically nanoseconds) with bounded
/// relative quantile error.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `log2` of the number of linear sub-buckets per power-of-two magnitude.
    sub_bucket_bits: u32,
    /// Bucket counts, laid out magnitude-major, up to the end of the
    /// magnitude of the largest bucket recorded (empty until then).
    counts: Vec<u32>,
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
    /// It allocates at its first record.
    pub fn new(sub_bucket_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&sub_bucket_bits),
            "sub_bucket_bits must be in 1..=16"
        );
        // Layout: the first 2*S buckets (S = 2^bits) are exact (width 1) and
        // cover [0, 2S). Every binary magnitude m >= bits+1 then contributes
        // S buckets of width 2^(m-bits), up to magnitude 63: S*(65-bits)
        // buckets cover the whole u64 range, and `counts` holds a prefix of
        // them a multiple of S long.
        Self {
            sub_bucket_bits,
            counts: Vec::new(),
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

    /// Add `n` to the bucket at `index`, growing the storage to the end of
    /// its magnitude first. Panics if the bucket would pass `u32::MAX`.
    #[inline]
    fn add(&mut self, index: usize, n: u64) {
        if index >= self.counts.len() {
            self.grow(index);
        }
        let count = &mut self.counts[index];
        *count = u32::try_from(u64::from(*count) + n).expect(OVERFLOW);
    }

    #[cold]
    fn grow(&mut self, index: usize) {
        let sub_buckets = 1usize << self.sub_bucket_bits;
        self.counts
            .resize((index / sub_buckets + 1) * sub_buckets, 0);
    }

    /// Record a single value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.add(self.index_of(value), 1);
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
        self.add(self.index_of(value), n);
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
            seen += u64::from(c);
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
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.checked_add(b).expect(OVERFLOW);
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Reset all recorded state, keeping the allocation.
    pub fn clear(&mut self) {
        self.counts.clear();
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
            .map(move |(i, &c)| (self.bucket_floor(i), u64::from(c)))
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

    /// A latency histogram holds the magnitudes up to its largest value,
    /// not the whole `u64` range: 10 ms is magnitude 23, the end of bucket
    /// 2 304 (9 KiB of counts) where the whole range is 7 552.
    #[test]
    fn storage_ends_at_the_largest_magnitude_recorded() {
        let mut h = Histogram::latency();
        assert_eq!(h.counts.len(), 0);
        h.record(5);
        assert_eq!(h.counts.len(), 128);
        for v in (0..=10_000_000).step_by(997) {
            h.record(v);
        }
        h.record(10_000_000);
        assert_eq!(h.counts.len(), 2_304);
        assert_eq!(std::mem::size_of_val(h.counts.as_slice()), 9 * 1024);
        assert_eq!(Histogram::latency().counts.capacity(), 0);
    }

    #[test]
    #[should_panic(expected = "histogram bucket passed u32::MAX")]
    fn a_bucket_past_u32_max_panics() {
        let mut h = Histogram::latency();
        h.record_n(1_000, u64::from(u32::MAX));
        h.record(1_000);
    }

    #[test]
    #[should_panic(expected = "histogram bucket passed u32::MAX")]
    fn merging_past_u32_max_panics() {
        let mut a = Histogram::latency();
        a.record_n(7, u64::from(u32::MAX));
        let mut b = Histogram::latency();
        b.record(7);
        a.merge(&b);
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

    /// The layout's every bucket, counted in `u64`: what a histogram held
    /// before its storage grew with what it recorded.
    struct Dense {
        h: Histogram,
        counts: Vec<u64>,
    }

    impl Dense {
        fn new() -> Self {
            Dense {
                h: Histogram::latency(),
                counts: vec![0; 128 * (66 - 7)],
            }
        }

        fn record(&mut self, v: u64) {
            self.counts[self.h.index_of(v)] += 1;
            self.h.total += 1;
            self.h.sum += u128::from(v);
            self.h.min = self.h.min.min(v);
            self.h.max = self.h.max.max(v);
        }

        fn merge(&mut self, other: &Dense) {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
            self.h.total += other.h.total;
            self.h.sum += other.h.sum;
            self.h.min = self.h.min.min(other.h.min);
            self.h.max = self.h.max.max(other.h.max);
        }

        fn value_at_quantile(&self, q: f64) -> u64 {
            if self.h.total == 0 {
                return 0;
            }
            let rank = ((q.clamp(0.0, 1.0) * self.h.total as f64).ceil() as u64).max(1);
            let mut seen = 0;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if c > 0 && seen >= rank {
                    return self.h.bucket_floor(i).clamp(self.h.min, self.h.max);
                }
            }
            self.h.max
        }

        fn buckets(&self) -> Vec<(u64, u64)> {
            (0..self.counts.len())
                .filter(|&i| self.counts[i] > 0)
                .map(|i| (self.h.bucket_floor(i), self.counts[i]))
                .collect()
        }
    }

    /// `n` values whose magnitudes spread over the whole `u64` range, below
    /// `2^max_bits`.
    fn spread(g: &mut SplitMix64, n: usize, max_bits: usize) -> Vec<u64> {
        (0..n)
            .map(|_| g.next_u64() >> (64 - 1 - g.index(max_bits)))
            .collect()
    }

    fn assert_agrees(h: &Histogram, dense: &Dense) {
        assert_eq!(h.count(), dense.h.count());
        assert_eq!(h.min(), dense.h.min());
        assert_eq!(h.max(), dense.h.max());
        assert_eq!(h.mean().to_bits(), dense.h.mean().to_bits());
        for q in [0.0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.value_at_quantile(q), dense.value_at_quantile(q), "q={q}");
        }
        assert_eq!(h.iter_buckets().collect::<Vec<_>>(), dense.buckets());
        let s = 1 << h.sub_bucket_bits;
        assert_eq!(h.counts.len() % s, 0);
        let last = h
            .iter_buckets()
            .last()
            .map_or(0, |(v, _)| h.index_of(v) + 1);
        assert_eq!(
            h.counts.len(),
            last.div_ceil(s) * s,
            "storage past its largest bucket"
        );
    }

    /// Growing storage with `u32` counts answers every query as the dense
    /// `u64` layout does, alone and merged either way between two
    /// histograms whose storage lengths differ.
    #[test]
    fn grown_storage_answers_as_the_dense_layout() {
        for_each_case(256, |g| {
            let (mut small, mut dense_small) = (Histogram::latency(), Dense::new());
            let (mut large, mut dense_large) = (Histogram::latency(), Dense::new());
            let n = g.index(200);
            for v in spread(g, n, 24) {
                small.record(v);
                dense_small.record(v);
            }
            let n = g.index(200);
            for v in spread(g, n, 64) {
                large.record(v);
                dense_large.record(v);
            }
            assert_agrees(&small, &dense_small);
            assert_agrees(&large, &dense_large);

            let mut up = small.clone();
            up.merge(&large);
            let mut down = large.clone();
            down.merge(&small);
            dense_small.merge(&dense_large);
            assert_agrees(&up, &dense_small);
            assert_agrees(&down, &dense_small);
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
