//! Empirical cumulative distribution functions.
//!
//! Figures 4, 5, A5 of the paper are CDF plots of per-worker observables.
//! [`Cdf`] builds an empirical CDF from a sample and evaluates it either at
//! arbitrary points or on a fixed grid for plotting.

/// An empirical CDF over `f64` observations.
#[derive(Clone, Debug)]
pub struct Cdf {
    /// Sorted observations.
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build a CDF from a sample. Non-finite values are rejected.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        assert!(
            sorted.iter().all(|v| v.is_finite()),
            "Cdf::from_samples: non-finite value"
        );
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Self { sorted }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`: fraction of observations at or below `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point: first index with value > x.
        let below = self.sorted.partition_point(|&v| v <= x);
        below as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest observation `v` with `P(X <= v) >= q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank - 1]
    }

    /// Sample `(x, F(x))` pairs on an evenly spaced grid of `points` between
    /// the observed min and max, suitable for plotting.
    pub fn grid(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().unwrap();
        if points == 1 || hi == lo {
            return vec![(hi, 1.0)];
        }
        let step = (hi - lo) / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                (x, self.at(x))
            })
            .collect()
    }

    /// Sample `(quantile, value)` pairs at `points` evenly spaced quantiles
    /// in `(0, 1]`, the "y-axis grid" form used for long-tailed CDFs.
    pub fn quantile_grid(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        (1..=points)
            .map(|i| {
                let q = i as f64 / points as f64;
                (q, self.quantile(q))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let c = Cdf::from_samples([]);
        assert!(c.is_empty());
        assert_eq!(c.at(100.0), 0.0);
        assert_eq!(c.quantile(0.5), 0.0);
        assert!(c.grid(10).is_empty());
    }

    #[test]
    fn step_function_semantics() {
        let c = Cdf::from_samples([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.at(0.5), 0.0);
        assert_eq!(c.at(1.0), 0.25);
        assert_eq!(c.at(2.5), 0.5);
        assert_eq!(c.at(4.0), 1.0);
        assert_eq!(c.at(100.0), 1.0);
    }

    #[test]
    fn quantile_is_inverse_of_at() {
        let c = Cdf::from_samples((1..=1000).map(|v| v as f64));
        for &q in &[0.01, 0.5, 0.9, 0.99, 1.0] {
            let v = c.quantile(q);
            assert!(c.at(v) >= q - 1e-12, "q={q} v={v} F(v)={}", c.at(v));
        }
    }

    #[test]
    fn grid_is_monotone() {
        let c = Cdf::from_samples([5.0, 1.0, 9.0, 3.0, 3.0, 7.0]);
        let g = c.grid(20);
        assert_eq!(g.len(), 20);
        for w in g.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(g.last().unwrap().1, 1.0);
    }

    #[test]
    fn degenerate_sample_grid() {
        let c = Cdf::from_samples([2.0, 2.0, 2.0]);
        assert_eq!(c.grid(10), vec![(2.0, 1.0)]);
    }

    #[test]
    fn quantile_grid_spans_unit_interval() {
        let c = Cdf::from_samples((0..100).map(|v| v as f64));
        let g = c.quantile_grid(4);
        assert_eq!(g.len(), 4);
        assert_eq!(g[3].0, 1.0);
        assert_eq!(g[3].1, 99.0);
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

    /// F is a valid CDF: monotone, in [0,1], right-saturating.
    #[test]
    fn cdf_axioms() {
        for_each_case(256, |g| {
            let values = samples(g, 200, -1e9, 1e9);
            let c = Cdf::from_samples(values.clone());
            let lo = values.iter().cloned().fold(f64::MAX, f64::min);
            let hi = values.iter().cloned().fold(f64::MIN, f64::max);
            assert_eq!(c.at(lo - 1.0), 0.0);
            assert_eq!(c.at(hi), 1.0);
            let mut prev = 0.0;
            for i in 0..=20 {
                let x = lo + (hi - lo) * i as f64 / 20.0;
                let f = c.at(x);
                assert!((0.0..=1.0).contains(&f));
                assert!(f >= prev);
                prev = f;
            }
        });
    }

    /// quantile(at(v)) stays <= v and at(quantile(q)) >= q (Galois,
    /// up to the float rounding of `ceil(q*n)`: q = k/n may multiply
    /// back to slightly above k, bumping the rank — back off an ulp).
    fn galois(values: Vec<f64>, q: f64) {
        let c = Cdf::from_samples(values);
        let v = c.quantile(q);
        assert!(c.at(v) >= q - 1e-12);
        assert!(c.quantile(c.at(v) - 1e-9) <= v + 1e-12);
    }

    #[test]
    fn quantile_at_galois() {
        for_each_case(256, |g| {
            let values = samples(g, 100, 0.0, 1e6);
            galois(values, 0.01 + 0.99 * g.f64());
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
        galois(values, 0.01);
    }
}
