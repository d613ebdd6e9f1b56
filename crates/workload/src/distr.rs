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

    /// Advance `rng` exactly as [`sample`](Self::sample) would, without
    /// computing the value: for a draw the stream keeps and nothing reads.
    /// By default it samples and drops the value, so every implementation
    /// skips correctly; the ones here draw only the uniforms they consume.
    fn skip(&self, rng: &mut crate::Rng) {
        self.sample(rng);
    }

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
    fn skip(&self, _rng: &mut crate::Rng) {}
    fn mean(&self) -> f64 {
        self.0
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
    fn skip(&self, rng: &mut crate::Rng) {
        rng.next_u64();
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
    fn skip(&self, rng: &mut crate::Rng) {
        while polar_pair(rng).is_none() {}
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// One standard-normal draw (Marsaglia polar method).
fn sample_std_normal(rng: &mut crate::Rng) -> f64 {
    loop {
        if let Some((u, s)) = polar_pair(rng) {
            return u * ((-2.0 * s.ln()) / s).sqrt();
        }
    }
}

/// One of the polar method's uniform pairs `(u, v)` in the square
/// `[-1, 1)²`, as `(u, u² + v²)` when it falls inside the unit circle and
/// off its centre, else `None`: the method draws pairs until one is kept.
fn polar_pair(rng: &mut crate::Rng) -> Option<(f64, f64)> {
    let u: f64 = 2.0 * rng.f64() - 1.0;
    let v: f64 = 2.0 * rng.f64() - 1.0;
    let s = u * u + v * v;
    (s > 0.0 && s < 1.0).then_some((u, s))
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
    fn skip(&self, rng: &mut crate::Rng) {
        rng.next_u64();
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
/// precomputed cumulative weights, entered through a guide table indexed by
/// the top bits of the raw 64-bit draw: a draw starts at the first rank
/// whose cumulative weight reaches the start of its guide bucket and scans
/// forward. The guide has about 16 entries a rank (at most 2¹⁶), so a
/// bucket almost never holds a rank boundary and a draw is one table read
/// and one comparison, not a binary search's eleven for Case 1's 2 000
/// tenants.
#[derive(Clone, Debug, PartialEq)]
pub struct Zipf {
    cumulative: Vec<f64>,
    /// `guide[j]` is the first index whose cumulative weight is at least
    /// `j / guide.len()`; its length is a power of two.
    guide: Box<[u32]>,
    /// `64 − log₂(guide.len())`: a raw draw shifted right by this is its
    /// guide bucket.
    shift: u32,
}

/// Guide entries per rank, before rounding up to a power of two.
const GUIDE_PER_RANK: usize = 16;
/// The guide's largest size, 2¹⁶ entries (256 KiB), whatever the rank count:
/// a fleet builds many tenant sets.
const GUIDE_MAX_BITS: u32 = 16;

impl Zipf {
    /// Zipf over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "need at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be >= 0");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cumulative: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // The running sum can end a rounding short of 1.0, and a draw above
        // it would index past the last rank.
        cumulative[n - 1] = 1.0;
        let bits = n
            .saturating_mul(GUIDE_PER_RANK)
            .next_power_of_two()
            .trailing_zeros()
            .min(GUIDE_MAX_BITS);
        let size = 1usize << bits;
        let mut i = 0;
        let guide = (0..size)
            .map(|j| {
                while cumulative[i] < j as f64 / size as f64 {
                    i += 1;
                }
                u32::try_from(i).expect("u32 ranks")
            })
            .collect();
        Self {
            cumulative,
            guide,
            shift: 64 - bits,
        }
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
        self.index_for(rng.next_u64())
    }

    /// The rank raw draw `x` selects: the first index whose cumulative
    /// weight is at least `u`, the uniform `Rng::f64` makes of `x` (its top
    /// 53 bits over 2⁵³). Its guide bucket, `x`'s top bits, is `⌊u·G⌋`
    /// exactly for a guide of `G ≤ 2⁵³` entries, so the scan from it ends
    /// where a binary search of the whole table would.
    #[inline]
    fn index_for(&self, x: u64) -> usize {
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let mut i = self.guide[(x >> self.shift) as usize] as usize;
        while self.cumulative[i] < u {
            i += 1;
        }
        i
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut crate::Rng) -> f64 {
        (self.sample_index(rng) + 1) as f64
    }
    fn skip(&self, rng: &mut crate::Rng) {
        rng.next_u64();
    }
    fn mean(&self) -> f64 {
        self.cumulative
            .iter()
            .enumerate()
            .map(|(i, _)| (i + 1) as f64 * self.pmf(i + 1))
            .sum()
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
    fn skip(&self, rng: &mut crate::Rng) {
        if rng.f64() < self.p_heavy {
            self.heavy.skip(rng)
        } else {
            self.base.skip(rng)
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

    /// The draw the guide table replaced: a binary search of the whole
    /// cumulative table.
    fn partition_point_index(z: &Zipf, u: f64) -> usize {
        z.cumulative.partition_point(|&c| c < u)
    }

    /// The uniform `Rng::f64` makes of raw draw `x`.
    fn unit(x: u64) -> f64 {
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One rank more than the largest guide has entries.
    const ABOVE_GUIDE: usize = (1 << GUIDE_MAX_BITS) + 1;

    /// `(n, s)` shapes for the Zipf checks: tiny and large supports, flat
    /// and steep exponents, the two whose running sum ends short of 1.0,
    /// and rank counts whose guide is capped, one of them above its size.
    const ZIPF_GRID: [(usize, f64); 10] = [
        (1, 0.0),
        (2, 1.0),
        (7, 0.0),
        (50, 1.1),
        (100, 1.2),
        (2_000, 0.9),
        (5_000, 0.0),
        (9_000, 3.0),
        (20_000, 0.5),
        (ABOVE_GUIDE, 1.0),
    ];

    /// The last cumulative weight is exactly 1.0, so no draw — not even the
    /// largest, whose uniform is the largest `f64` below 1.0 — lands past
    /// the last rank.
    #[test]
    fn zipf_draw_never_indexes_past_the_last_rank() {
        let top = 1.0 - f64::EPSILON / 2.0;
        assert!(top < 1.0 && top.next_up() == 1.0);
        assert_eq!(unit(u64::MAX), top);
        for (n, s) in ZIPF_GRID {
            let z = Zipf::new(n, s);
            assert_eq!(z.cumulative[n - 1], 1.0, "n {n} s {s}");
            assert_eq!(z.index_for(u64::MAX), n - 1, "n {n} s {s}");
        }
        // The running sum of `Zipf::new(7, 0.0)` ends at
        // 0.9999999999999998: `top` fell in the gap above it.
        let sum: f64 = (0..7).fold(0.0, |acc, _| acc + 1.0 / 7.0);
        assert!(sum < top, "the gap this test feeds is empty");
    }

    /// The draw entered at a raw draw's top bits returns what the binary
    /// search of the uniform `Rng::f64` makes of it returns: at both ends
    /// of the draw range, on both sides of every guide-bucket edge, on both
    /// sides of every rank's cumulative weight, and over a million seeded
    /// draws per rank count.
    #[test]
    fn zipf_top_bits_guide_equals_the_binary_search() {
        for (n, s) in ZIPF_GRID {
            let z = Zipf::new(n, s);
            let check = |x: u64| {
                let want = partition_point_index(&z, unit(x));
                assert_eq!(z.index_for(x), want, "n {n} s {s} x {x:#x}");
            };
            check(0);
            check(u64::MAX);
            for j in 1..z.guide.len() as u64 {
                let edge = j << z.shift;
                check(edge);
                check(edge - 1);
            }
            // `k / 2⁵³` is the first uniform at or above the weight `c`,
            // and the lowest and highest draws give every uniform.
            for &c in &z.cumulative {
                let k = (c * (1u64 << 53) as f64).ceil() as u64;
                for k in [k.saturating_sub(1), k, k + 1] {
                    if k < 1 << 53 {
                        check(k << 11);
                        check(k << 11 | 0x7ff);
                    }
                }
            }
        }
        for n in [1, 2, 2_000, ABOVE_GUIDE] {
            let z = Zipf::new(n, 0.9);
            let (mut draws, mut uniforms) = (crate::rng(10), crate::rng(10));
            for _ in 0..1_000_000 {
                let u = uniforms.f64();
                assert_eq!(
                    z.sample_index(&mut draws),
                    partition_point_index(&z, u),
                    "n {n} u {u}"
                );
            }
        }
    }

    /// The guide has about 16 entries a rank, and never more than 2¹⁶
    /// (256 KiB), however many ranks: a fleet builds many tenant sets.
    #[test]
    fn zipf_guide_is_sized_to_the_ranks_and_bounded() {
        for n in [1, 2, 2_000, ABOVE_GUIDE, 1 << 20] {
            let z = Zipf::new(n, 1.0);
            let entries = z.guide.len();
            assert!(entries.is_power_of_two(), "n {n}: {entries}");
            assert_eq!(entries, 1 << (64 - z.shift), "n {n}");
            assert!(
                entries >= (GUIDE_PER_RANK * n).min(1 << GUIDE_MAX_BITS),
                "n {n}"
            );
            assert!(entries < 2 * GUIDE_PER_RANK * n, "n {n}: {entries}");
            assert!(std::mem::size_of_val(&*z.guide) <= 256 * 1024, "n {n}");
        }
    }

    /// A distribution with no `skip` of its own: it relies on the trait's
    /// default.
    #[derive(Debug)]
    struct Defaulted(Exp);

    impl Distribution for Defaulted {
        fn sample(&self, rng: &mut crate::Rng) -> f64 {
            self.0.sample(rng)
        }
        fn mean(&self) -> f64 {
            self.0.mean()
        }
    }

    /// One of each distribution, with parameters from `g`.
    fn each_distribution(g: &mut crate::Rng) -> Vec<Box<dyn Distribution>> {
        let mean = 0.1 + 1e6 * g.f64();
        vec![
            Box::new(Constant(mean)),
            Box::new(Exp::with_mean(mean)),
            Box::new(LogNormal::from_p50_p99(mean, mean * 50.0)),
            Box::new(LogNormal::new(0.0, 0.0)),
            Box::new(LogNormal::new(-3.0, 40.0 * g.f64())),
            Box::new(Pareto::new(mean, 0.5 + 2.0 * g.f64())),
            Box::new(Zipf::new(1 + g.index(3_000), 2.0 * g.f64())),
            Box::new(Defaulted(Exp::with_mean(mean))),
        ]
    }

    /// `skip` leaves the stream where `sample` does: from equal seeds, the
    /// next raw draw after each is the same, draw after draw, for every
    /// distribution, a mixture of each with the next, and one that skips
    /// by the trait's default.
    #[test]
    fn skip_leaves_the_stream_where_sample_does() {
        for_each_case(64, |g| {
            let mut all = each_distribution(g);
            let heavy = each_distribution(g);
            let mut base = each_distribution(g);
            base.rotate_left(1);
            for (heavy, base) in heavy.into_iter().zip(base) {
                all.push(Box::new(Mixture::new(heavy, base, g.f64())));
            }
            let seed = g.next_u64();
            for d in &all {
                let (mut sampled, mut skipped) = (crate::rng(seed), crate::rng(seed));
                for i in 0..100 {
                    d.sample(&mut sampled);
                    d.skip(&mut skipped);
                    assert_eq!(
                        sampled.clone().next_u64(),
                        skipped.clone().next_u64(),
                        "{d:?}: draw {i}"
                    );
                }
            }
        });
        // The polar method keeps a pair with probability π/4 whatever σ is,
        // so the log-normals' 100 draws each take the rejecting branch too.
        let mut rng = crate::rng(0);
        let rejected = (0..100)
            .map(|_| std::iter::from_fn(|| polar_pair(&mut rng).is_none().then_some(())).count())
            .sum::<usize>();
        assert!(rejected > 0, "no pair rejected");
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
