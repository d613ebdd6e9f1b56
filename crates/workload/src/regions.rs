//! Region traffic profiles fitted to Table 1, and the Table 4 case mix.
//!
//! Table 1 gives request-size and processing-time percentiles for four
//! anonymized regions; Table 4 gives each region's mix of the four traffic
//! cases. A [`Region`] carries both, so harnesses can (a) regenerate
//! Table 1 by sampling the fitted distributions and (b) compose region-like
//! multi-tenant workloads weighted by the case mix.

use crate::cases::Case;
use crate::distr::{Distribution, LogNormal, Mixture};

/// Percentile triple as printed in Table 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// One paper region.
#[derive(Clone, Debug)]
pub struct Region {
    /// Region name as in the paper.
    pub name: &'static str,
    /// Table 1 request-size row (bytes).
    pub size_bytes: Percentiles,
    /// Table 1 processing-time row (milliseconds).
    pub proc_ms: Percentiles,
    /// Table 4 row: fraction of traffic in cases 1–4 (sums to 1).
    pub case_mix: [f64; 4],
    /// Region 3 serves WebSocket-heavy tenants: its P99 comes from a rare
    /// heavy component, not the body of the distribution.
    websocket_heavy: bool,
}

impl Region {
    /// The four regions of Table 1 / Table 4.
    pub fn all() -> [Region; 4] {
        [
            Region {
                name: "Region1",
                size_bytes: Percentiles {
                    p50: 243.0,
                    p90: 312.0,
                    p99: 2491.0,
                },
                proc_ms: Percentiles {
                    p50: 2.0,
                    p90: 9.0,
                    p99: 42.0,
                },
                case_mix: [0.1945, 0.0055, 0.6561, 0.1439],
                websocket_heavy: false,
            },
            Region {
                name: "Region2",
                size_bytes: Percentiles {
                    p50: 831.0,
                    p90: 3730.0,
                    p99: 10132.0,
                },
                proc_ms: Percentiles {
                    p50: 10.0,
                    p90: 77.0,
                    p99: 8190.0,
                },
                case_mix: [0.0077, 0.0783, 0.0927, 0.8213],
                websocket_heavy: false,
            },
            Region {
                name: "Region3",
                size_bytes: Percentiles {
                    p50: 566.0,
                    p90: 1951.0,
                    p99: 50879.0,
                },
                proc_ms: Percentiles {
                    p50: 3.0,
                    p90: 278.0,
                    p99: 49005.0,
                },
                case_mix: [0.066, 0.029, 0.608, 0.297],
                websocket_heavy: true,
            },
            Region {
                name: "Region4",
                size_bytes: Percentiles {
                    p50: 721.0,
                    p90: 1140.0,
                    p99: 4638.0,
                },
                proc_ms: Percentiles {
                    p50: 4.0,
                    p90: 14.0,
                    p99: 239.0,
                },
                case_mix: [0.0281, 0.0741, 0.8907, 0.0071],
                websocket_heavy: false,
            },
        ]
    }

    /// Fitted request-size distribution (bytes).
    pub fn size_distribution(&self) -> Box<dyn Distribution> {
        self.fit(self.size_bytes)
    }

    /// Fitted processing-time distribution (milliseconds).
    pub fn proc_time_distribution(&self) -> Box<dyn Distribution> {
        self.fit(self.proc_ms)
    }

    /// Fit a distribution to a percentile triple. The body (P50–P90) pins
    /// one lognormal; when the P99/P90 ratio is extreme (Region 3's
    /// WebSocket share, or Region 2's tail), a second heavy lognormal
    /// carries the last percentiles, mixed at 1.5 % so P50/P90 stay put —
    /// exactly the paper's explanation: "although WebSocket requests are
    /// large, each connection counts as one request, making their overall
    /// share small; hence, the P99 is high while P50 and P90 remain low."
    fn fit(&self, p: Percentiles) -> Box<dyn Distribution> {
        // Body fitted on P50/P90 (z90 ≈ 1.2816).
        let mu = p.p50.ln();
        let sigma = ((p.p90.ln() - mu) / 1.281_551_565_544_8).max(1e-6);
        let body = LogNormal::new(mu, sigma);
        let body_p99 = body.p99();
        if self.websocket_heavy || p.p99 / body_p99 > 3.0 {
            // Heavy component centred so the mixture's ~P99 lands near the
            // table value: with p_heavy = 0.015, the 99th percentile of the
            // mixture falls inside the heavy component's lower half.
            let heavy = LogNormal::from_p50_p99(p.p99, p.p99 * 8.0);
            Box::new(Mixture::new(Box::new(body), Box::new(heavy), 0.015))
        } else {
            // Single lognormal refitted on P50/P99 keeps the far tail honest.
            Box::new(LogNormal::from_p50_p99(p.p50, p.p99))
        }
    }

    /// Expected traffic-weighted case for one connection draw.
    pub fn sample_case(&self, rng: &mut crate::Rng) -> Case {
        let u = rng.f64();
        let mut acc = 0.0;
        for (i, &w) in self.case_mix.iter().enumerate() {
            acc += w;
            if u < acc {
                return Case::all()[i];
            }
        }
        Case::Case4
    }
}

/// Average case mix across the four regions (the Table 4 "Avg" column).
pub fn average_case_mix() -> [f64; 4] {
    let regions = Region::all();
    let mut avg = [0.0f64; 4];
    for r in &regions {
        for (a, &m) in avg.iter_mut().zip(r.case_mix.iter()) {
            *a += m / regions.len() as f64;
        }
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_metrics::Summary;

    fn percentiles_of(d: &dyn Distribution, n: usize, seed: u64) -> (f64, f64, f64) {
        let mut rng = crate::rng(seed);
        let mut s = Summary::with_capacity(n);
        for _ in 0..n {
            s.record(d.sample(&mut rng));
        }
        (s.p50(), s.p90(), s.p99())
    }

    #[test]
    fn case_mixes_sum_to_one() {
        for r in Region::all() {
            let total: f64 = r.case_mix.iter().sum();
            assert!((total - 1.0).abs() < 1e-3, "{}: {total}", r.name);
        }
    }

    #[test]
    fn table4_average_matches_paper() {
        let avg = average_case_mix();
        // Paper Avg row: 7.41%, 4.67%, 56.19%, 31.73%.
        assert!((avg[0] - 0.0741).abs() < 0.001, "case1 avg {}", avg[0]);
        assert!((avg[1] - 0.0467).abs() < 0.001);
        assert!((avg[2] - 0.5619).abs() < 0.001);
        assert!((avg[3] - 0.3173).abs() < 0.001);
    }

    #[test]
    fn fitted_proc_time_matches_table1_p50() {
        for (i, r) in Region::all().iter().enumerate() {
            let d = r.proc_time_distribution();
            let (p50, _, _) = percentiles_of(d.as_ref(), 60_000, 100 + i as u64);
            let rel = (p50 - r.proc_ms.p50).abs() / r.proc_ms.p50;
            assert!(rel < 0.15, "{}: p50 {} vs {}", r.name, p50, r.proc_ms.p50);
        }
    }

    #[test]
    fn fitted_proc_time_tail_order_of_magnitude() {
        for (i, r) in Region::all().iter().enumerate() {
            let d = r.proc_time_distribution();
            let (_, _, p99) = percentiles_of(d.as_ref(), 120_000, 200 + i as u64);
            let ratio = p99 / r.proc_ms.p99;
            assert!(
                (0.3..3.5).contains(&ratio),
                "{}: p99 {} vs {} (ratio {ratio})",
                r.name,
                p99,
                r.proc_ms.p99
            );
        }
    }

    #[test]
    fn region3_p90_stays_low_despite_huge_p99() {
        // The mixture must not inflate the body: P90 within ~2x of table.
        let r = &Region::all()[2];
        let d = r.proc_time_distribution();
        let (p50, p90, _) = percentiles_of(d.as_ref(), 120_000, 300);
        assert!(p50 < 10.0, "p50 {p50}");
        assert!(p90 < 2.5 * r.proc_ms.p90, "p90 {p90}");
    }

    #[test]
    fn sample_case_follows_mix() {
        let r = &Region::all()[3]; // Region4: 89% case3
        let mut rng = crate::rng(55);
        let n = 20_000;
        let case3 = (0..n)
            .filter(|_| r.sample_case(&mut rng) == Case::Case3)
            .count();
        let share = case3 as f64 / n as f64;
        assert!((share - 0.8907).abs() < 0.02, "share {share}");
    }
}
