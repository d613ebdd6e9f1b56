//! Fixed-size recording and order statistics.
//!
//! The harness shares a process with the load balancer it measures, and
//! `rss_peak_MiB` is one of the reported metrics, so nothing here grows with
//! the number of operations: latencies go into a log-bucketed histogram of
//! constant size.

/// log2 of the linear sub-buckets per power of two: a bucket is at most
/// 1/128 (0.8 %) of the value wide, and quantiles interpolate inside it.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB as usize) * (66 - SUB_BITS as usize);

/// Histogram over `u64` values (nanoseconds throughout the harness).
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            max: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let mag = 63 - u64::from(v.leading_zeros());
        let sub = (v >> (mag - u64::from(SUB_BITS))) & (SUB - 1);
        ((mag - u64::from(SUB_BITS) + 1) * SUB + sub) as usize
    }

    /// Lowest value of bucket `i` and the bucket's width.
    fn bounds(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < 2 * SUB {
            return (i, 1);
        }
        let k = i - 2 * SUB;
        let mag = u64::from(SUB_BITS) + 1 + k / SUB;
        let shift = mag - u64::from(SUB_BITS);
        ((1 << mag) | ((k % SUB) << shift), 1 << shift)
    }

    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[Hist::index(v)] += n;
        self.total += n;
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Values recorded above `v`'s bucket.
    pub fn count_above(&self, v: u64) -> u64 {
        self.counts[Hist::index(v) + 1..].iter().sum()
    }

    /// Value at quantile `q`, interpolated linearly inside the bucket that
    /// holds that rank; 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (floor, width) = Hist::bounds(i);
                let inside = ((rank - before as f64) / c as f64).clamp(0.0, 1.0);
                return (floor as f64 + inside * width as f64).min(self.max as f64);
            }
            before += c;
        }
        self.max as f64
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method), so
/// the spreads printed here are the ones the benchmark's contract speaks of.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) % 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// (Q3 − Q1) / median, the spread the contract bounds; 0 for a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        ((q3 - q1) / med).abs()
    }
}

/// Coefficient of variation (population standard deviation / mean).
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if n == 0.0 || mean == 0.0 {
        return 0.0;
    }
    (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt() / mean
}

/// splitmix64: the harness's only source of pseudo-random inputs, so a seed
/// names the same payloads, paths and offsets on every host.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
