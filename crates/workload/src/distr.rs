//! Statistical distributions, from scratch.
//!
//! Implemented here so that (a) the dependency closure stays `std` and
//! (b) each sampler carries its own property tests against analytic moments
//! and quantiles — these distributions *are* the workload model, so they
//! must be trustworthy.

/// A sampleable positive-valued distribution.
pub trait Distribution: Send + Sync + std::fmt::Debug {
    /// Draw one sample.
    fn sample(&self, rng: &mut crate::Rng) -> f64;

    /// Analytic mean where defined (used by load calibration).
    fn mean(&self) -> f64;
}

/// Degenerate distribution: always `value`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut crate::Rng) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
}

/// Uniform on `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Create a uniform distribution on `[lo, hi)`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && hi > lo, "need lo < hi");
        Self { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut crate::Rng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.f64()
    }
    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`) — interarrival times of
/// Poisson traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    /// Exponential with rate `lambda`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "rate must be positive");
        Self { lambda }
    }

    /// Exponential with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }
}

impl Distribution for Exp {
    fn sample(&self, rng: &mut crate::Rng) -> f64 {
        // Inverse CDF; 1-U avoids ln(0).
        let u = rng.f64();
        -(1.0 - u).ln() / self.lambda
    }
    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Log-normal: `exp(mu + sigma * N(0,1))`. The paper's processing-time
/// columns (P50 ≪ P90 ≪ P99) are classic lognormal signatures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

/// Standard normal quantile for p = 0.99 (used by percentile fitting).
const Z_P99: f64 = 2.326_347_874_040_841;
/// Standard normal quantile for p = 0.90.
const Z_P90: f64 = 1.281_551_565_544_8;

impl LogNormal {
    /// From underlying normal parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be >= 0");
        Self { mu, sigma }
    }

    /// Fit from the median and the 99th percentile, the two columns Table 1
    /// always provides: `median = e^mu`, `p99 = e^(mu + z99·sigma)`.
    pub fn from_p50_p99(p50: f64, p99: f64) -> Self {
        assert!(p50 > 0.0 && p99 >= p50, "need 0 < p50 <= p99");
        let mu = p50.ln();
        let sigma = (p99.ln() - mu) / Z_P99;
        Self::new(mu, sigma)
    }

    /// Quantile function (inverse CDF) given the standard-normal quantile
    /// `z` for the target probability.
    pub fn quantile_at_z(&self, z: f64) -> f64 {
        (self.mu + self.sigma * z).exp()
    }

    /// Median (`e^mu`).
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// P90 of the distribution.
    pub fn p90(&self) -> f64 {
        self.quantile_at_z(Z_P90)
    }

    /// P99 of the distribution.
    pub fn p99(&self) -> f64 {
        self.quantile_at_z(Z_P99)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut crate::Rng) -> f64 {
        (self.mu + self.sigma * sample_std_normal(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// One standard-normal draw (Marsaglia polar method).
fn sample_std_normal(rng: &mut crate::Rng) -> f64 {
    loop {
        let u: f64 = 2.0 * rng.f64() - 1.0;
        let v: f64 = 2.0 * rng.f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * ((-2.0 * s.ln()) / s).sqrt();
        }
    }
}

/// Pareto (type I): heavy-tailed sizes/durations. `scale` is the minimum
/// value, `alpha` the tail index (smaller ⇒ heavier tail).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pareto {
    scale: f64,
    alpha: f64,
}

impl Pareto {
    /// Pareto with minimum `scale` and tail index `alpha`.
    pub fn new(scale: f64, alpha: f64) -> Self {
        assert!(
            scale > 0.0 && alpha > 0.0,
            "scale and alpha must be positive"
        );
        Self { scale, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut crate::Rng) -> f64 {
        let u = rng.f64();
        self.scale / (1.0 - u).powf(1.0 / self.alpha)
    }
    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.scale / (self.alpha - 1.0)
        }
    }
}

/// Zipf over ranks `1..=n` with exponent `s` — tenant traffic skew ("the
/// top three tenants account for 40 %, 28 %, and 22 %...", §7). Sampling by
/// precomputed cumulative weights (n is small: tenants per device).
#[derive(Clone, Debug, PartialEq)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be >= 0");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cumulative }
    }

    /// Probability mass of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.cumulative.len()).contains(&k));
        let hi = self.cumulative[k - 1];
        let lo = if k == 1 { 0.0 } else { self.cumulative[k - 2] };
        hi - lo
    }

    /// Sample a rank in `0..n` (0-based, convenient as an index).
    pub fn sample_index(&self, rng: &mut crate::Rng) -> usize {
        let u = rng.f64();
        self.cumulative.partition_point(|&c| c < u)
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut crate::Rng) -> f64 {
        (self.sample_index(rng) + 1) as f64
    }
    fn mean(&self) -> f64 {
        self.cumulative
            .iter()
            .enumerate()
            .map(|(i, _)| (i + 1) as f64 * self.pmf(i + 1))
            .sum()
    }
}

/// Empirical distribution: resample uniformly from observed values
/// (trace-like workloads).
#[derive(Clone, Debug, PartialEq)]
pub struct Empirical {
    values: Vec<f64>,
}

impl Empirical {
    /// Build from a non-empty sample of finite values.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empirical distribution needs samples");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "values must be finite"
        );
        Self { values }
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut crate::Rng) -> f64 {
        self.values[rng.index(self.values.len())]
    }
    fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// A two-component mixture: with probability `p_heavy` sample from `heavy`,
/// else from `base` — the "mostly small requests, occasional WebSocket
/// monsters" shape of Region 3 in Table 1.
#[derive(Debug)]
pub struct Mixture {
    base: Box<dyn Distribution>,
    heavy: Box<dyn Distribution>,
    p_heavy: f64,
}

impl Mixture {
    /// Mixture of `base` (probability `1-p_heavy`) and `heavy`.
    pub fn new(base: Box<dyn Distribution>, heavy: Box<dyn Distribution>, p_heavy: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_heavy), "p_heavy must be in [0,1]");
        Self {
            base,
            heavy,
            p_heavy,
        }
    }
}

impl Distribution for Mixture {
    fn sample(&self, rng: &mut crate::Rng) -> f64 {
        if rng.f64() < self.p_heavy {
            self.heavy.sample(rng)
        } else {
            self.base.sample(rng)
        }
    }
    fn mean(&self) -> f64 {
        (1.0 - self.p_heavy) * self.base.mean() + self.p_heavy * self.heavy.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_metrics::{rng::for_each_case, Summary};

    fn draw(d: &dyn Distribution, n: usize, seed: u64) -> Summary {
        let mut rng = crate::rng(seed);
        let mut s = Summary::with_capacity(n);
        for _ in 0..n {
            s.record(d.sample(&mut rng));
        }
        s
    }

    #[test]
    fn constant_is_constant() {
        let s = draw(&Constant(5.0), 100, 1);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let mut s = draw(&Uniform::new(2.0, 4.0), 20_000, 2);
        assert!(s.min() >= 2.0 && s.max() < 4.0);
        assert!((s.mean() - 3.0).abs() < 0.02);
    }

    #[test]
    fn exponential_mean_and_memorylessness_shape() {
        let d = Exp::with_mean(10.0);
        let mut s = draw(&d, 50_000, 3);
        assert!((s.mean() - 10.0).abs() < 0.2, "mean {}", s.mean());
        // Median of Exp = mean * ln 2.
        assert!((s.p50() - 10.0 * std::f64::consts::LN_2).abs() < 0.25);
    }

    #[test]
    fn lognormal_fit_recovers_percentiles() {
        // Region2 processing time row of Table 1: P50=10ms, P99=8190ms.
        let d = LogNormal::from_p50_p99(10.0, 8190.0);
        assert!((d.median() - 10.0).abs() < 1e-9);
        assert!((d.p99() - 8190.0).abs() < 1e-6);
        let mut s = draw(&d, 200_000, 4);
        assert!((s.p50() - 10.0).abs() / 10.0 < 0.05, "p50 {}", s.p50());
        assert!((s.p99() - 8190.0).abs() / 8190.0 < 0.25, "p99 {}", s.p99());
    }

    #[test]
    fn lognormal_mean_matches_analytic() {
        let d = LogNormal::new(1.0, 0.5);
        let s = draw(&d, 100_000, 5);
        assert!((s.mean() - d.mean()).abs() / d.mean() < 0.02);
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let d = Pareto::new(1.0, 1.5);
        let mut s = draw(&d, 100_000, 6);
        assert!(s.min() >= 1.0);
        // Heavy tail: p999 far beyond the median.
        assert!(s.p999() / s.p50() > 20.0);
        assert!(Pareto::new(1.0, 0.9).mean().is_infinite());
    }

    #[test]
    fn zipf_matches_paper_tenant_skew() {
        // With s ≈ 1.1 over 50 tenants, the top tenant takes a large share,
        // qualitatively matching "top three tenants: 40%, 28%, 22%".
        let z = Zipf::new(50, 1.1);
        let mut counts = [0u32; 50];
        let mut rng = crate::rng(7);
        let n = 100_000;
        for _ in 0..n {
            counts[z.sample_index(&mut rng)] += 1;
        }
        let share0 = counts[0] as f64 / n as f64;
        assert!((share0 - z.pmf(1)).abs() < 0.01);
        assert!(share0 > 0.15, "top tenant share {share0}");
        assert!(counts[0] > counts[1] && counts[1] > counts[4]);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(10, 0.8);
        let total: f64 = (1..=10).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_resamples_support() {
        let d = Empirical::new(vec![1.0, 2.0, 4.0]);
        let mut rng = crate::rng(8);
        for _ in 0..100 {
            let v = d.sample(&mut rng);
            assert!([1.0, 2.0, 4.0].contains(&v));
        }
        assert!((d.mean() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mixture_blends_components() {
        let m = Mixture::new(Box::new(Constant(1.0)), Box::new(Constant(100.0)), 0.1);
        let s = draw(&m, 50_000, 9);
        assert!((s.mean() - 10.9).abs() < 0.5);
        assert!((m.mean() - 10.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "p50 <= p99")]
    fn lognormal_fit_rejects_inverted_percentiles() {
        LogNormal::from_p50_p99(100.0, 10.0);
    }

    /// Samplers only produce finite positive values for valid params.
    #[test]
    fn samples_are_finite_positive() {
        for_each_case(256, |g| {
            let mean = 0.1 + (1e6 - 0.1) * g.f64();
            let mut rng = crate::rng(g.next_u64());
            let e = Exp::with_mean(mean);
            let l = LogNormal::from_p50_p99(mean, mean * 10.0);
            let p = Pareto::new(mean, 1.5);
            for _ in 0..50 {
                for d in [&e as &dyn Distribution, &l, &p] {
                    let v = d.sample(&mut rng);
                    assert!(v.is_finite() && v > 0.0, "mean {mean}: sampled {v}");
                }
            }
        });
    }

    /// Zipf indexes stay in range.
    #[test]
    fn zipf_index_in_range() {
        for_each_case(256, |g| {
            let n = 1 + g.index(199);
            let z = Zipf::new(n, 3.0 * g.f64());
            let mut rng = crate::rng(g.next_u64());
            for _ in 0..50 {
                assert!(z.sample_index(&mut rng) < n, "n {n}");
            }
        });
    }
}
