//! Exact order statistics over a retained sample.
//!
//! Several harnesses (Table 1, Fig. 15) operate on sample sets small enough
//! to retain in full; [`Summary`] gives exact percentiles there, serving as
//! the ground truth the log-bucketed [`crate::Histogram`] is validated
//! against. Figures 4, 5 and A5 are CDF plots of per-worker observables:
//! [`Summary::at`] is the empirical CDF, the inverse of
//! [`Summary::quantile`].

/// A retained sample of `f64` observations with exact order statistics.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    values: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Create an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a summary pre-sized for `n` observations.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Record one observation. Non-finite values are rejected with a panic:
    /// they would poison every order statistic silently otherwise.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "Summary::record: non-finite value {v}");
        self.values.push(v);
        self.sorted = false;
    }

    /// Record every value of an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values"));
            self.sorted = true;
        }
    }

    /// Exact quantile using the nearest-rank method (the convention the
    /// paper's Pxx values use). Returns 0.0 for an empty summary.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.values.len() as f64).ceil() as usize).max(1);
        self.values[rank - 1]
    }

    /// `P(X <= x)`: the fraction of observations at or below `x` (0.0 when
    /// empty).
    pub fn at(&mut self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        // partition_point: first index with value > x.
        let below = self.values.partition_point(|&v| v <= x);
        below as f64 / self.values.len() as f64
    }

    /// Median (P50).
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }
    /// 90th percentile.
    pub fn p90(&mut self) -> f64 {
        self.quantile(0.90)
    }
    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
    /// 99.9th percentile.
    pub fn p999(&mut self) -> f64 {
        self.quantile(0.999)
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Population standard deviation (0.0 when fewer than 2 observations).
    pub fn stddev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var =
            self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64;
        var.sqrt()
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&mut self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        self.values[0]
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&mut self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        *self.values.last().unwrap()
    }

    /// Borrow the retained sample (unsorted order not guaranteed).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_all_zero() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.at(100.0), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Summary::new();
        s.extend((1..=100).map(|v| v as f64));
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p90(), 90.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
    }

    #[test]
    fn mean_and_stddev() {
        let mut s = Summary::new();
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn step_function_semantics() {
        let mut s = Summary::new();
        s.extend([4.0, 2.0, 1.0, 3.0]);
        assert_eq!(s.at(0.5), 0.0);
        assert_eq!(s.at(1.0), 0.25);
        assert_eq!(s.at(2.5), 0.5);
        assert_eq!(s.at(4.0), 1.0);
        assert_eq!(s.at(100.0), 1.0);
    }

    #[test]
    fn quantile_is_inverse_of_at() {
        let mut s = Summary::new();
        s.extend((1..=1000).map(|v| v as f64));
        for &q in &[0.01, 0.5, 0.9, 0.99, 1.0] {
            let v = s.quantile(q);
            assert!(s.at(v) >= q - 1e-12, "q={q} v={v} F(v)={}", s.at(v));
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn interleaved_record_and_quantile() {
        let mut s = Summary::new();
        s.record(3.0);
        assert_eq!(s.p50(), 3.0);
        s.record(1.0);
        s.record(2.0);
        assert_eq!(s.p50(), 2.0);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::rng::{for_each_case, SplitMix64};

    /// `1..max_len` samples in `[lo, hi)`.
    fn samples(g: &mut SplitMix64, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
        let len = 1 + g.index(max_len - 1);
        (0..len).map(|_| lo + (hi - lo) * g.f64()).collect()
    }

    fn summary(values: &[f64]) -> Summary {
        let mut s = Summary::new();
        s.extend(values.iter().copied());
        s
    }

    /// `at` is a valid CDF: monotone, in [0,1], right-saturating.
    #[test]
    fn cdf_axioms() {
        for_each_case(256, |g| {
            let values = samples(g, 200, -1e9, 1e9);
            let mut s = summary(&values);
            let lo = values.iter().cloned().fold(f64::MAX, f64::min);
            let hi = values.iter().cloned().fold(f64::MIN, f64::max);
            assert_eq!(s.at(lo - 1.0), 0.0);
            assert_eq!(s.at(hi), 1.0);
            let mut prev = 0.0;
            for i in 0..=20 {
                let x = lo + (hi - lo) * i as f64 / 20.0;
                let f = s.at(x);
                assert!((0.0..=1.0).contains(&f));
                assert!(f >= prev);
                prev = f;
            }
        });
    }

    /// quantile(at(v)) stays <= v and at(quantile(q)) >= q (Galois,
    /// up to the float rounding of `ceil(q*n)`: q = k/n may multiply
    /// back to slightly above k, bumping the rank — back off an ulp).
    fn galois(values: &[f64], q: f64) {
        let mut s = summary(values);
        let v = s.quantile(q);
        let f = s.at(v);
        assert!(f >= q - 1e-12);
        assert!(s.quantile(f - 1e-9) <= v + 1e-12);
    }

    #[test]
    fn quantile_at_galois() {
        for_each_case(256, |g| {
            let values = samples(g, 100, 0.0, 1e6);
            galois(&values, 0.01 + 0.99 * g.f64());
        });
    }

    /// The shape of the one failure the property ever found (28 zeros,
    /// 54 distinct values, q = 0.01): a run of ties at the minimum wider
    /// than the asked-for rank.
    #[test]
    fn quantile_at_galois_with_ties_at_the_minimum() {
        let mut g = SplitMix64::new(1);
        let mut values = vec![0.0; 28];
        values.extend((0..54).map(|_| 1e6 * g.f64()));
        galois(&values, 0.01);
    }
}
