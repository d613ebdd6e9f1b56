//! Backend service-time profiles for end-to-end latency modeling.
//!
//! Dispatch latency (what Hermes optimizes) is only half of a request's
//! life; the other half is the backend's service time. A
//! [`BackendServiceProfile`] models one backend server as an exponential
//! service-time distribution with a degradation multiplier, sampled
//! *statelessly*: each `(flow_hash, request_index)` pair hashes to its own
//! uniform draw, so the same request always gets the same service time
//! regardless of arrival order, thread count, or which other requests ran
//! first. That statelessness is what keeps the simnet backend plane
//! byte-identical across `run_fleet_with` thread counts.

/// One backend's service-time model: exponential with mean `mean_ns`,
/// scaled by `slow_multiplier` (1.0 = healthy, >1.0 = degraded).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackendServiceProfile {
    mean_ns: u64,
    slow_multiplier: f64,
}

/// Service times are capped at this multiple of the (scaled) mean so one
/// astronomically unlucky draw cannot dominate a latency histogram.
const TAIL_CAP: f64 = 8.0;

impl BackendServiceProfile {
    /// A healthy backend with exponential service times of mean `mean_ns`.
    pub fn new(mean_ns: u64) -> Self {
        assert!(mean_ns >= 1, "service-time mean must be nonzero");
        Self {
            mean_ns,
            slow_multiplier: 1.0,
        }
    }

    /// A degraded backend: every service time scaled by `factor`
    /// (the slow-backend scenario).
    pub fn slowed(mean_ns: u64, factor: f64) -> Self {
        assert!(mean_ns >= 1, "service-time mean must be nonzero");
        assert!(factor >= 1.0, "slow factor must be >= 1");
        Self {
            mean_ns,
            slow_multiplier: factor,
        }
    }

    /// Mean service time in nanoseconds (before the slow multiplier).
    pub fn mean_ns(&self) -> u64 {
        self.mean_ns
    }

    /// Degradation multiplier (1.0 for a healthy backend).
    pub fn slow_multiplier(&self) -> f64 {
        self.slow_multiplier
    }

    /// Service time for request `req` of the connection hashed to
    /// `flow_hash`: a stateless exponential draw via inverse CDF over a
    /// SplitMix64 hash of `(flow_hash, req)`. Deterministic, order-free,
    /// capped at [`TAIL_CAP`]× the scaled mean, never zero.
    pub fn sample_ns(&self, flow_hash: u32, req: usize) -> u64 {
        let mut x = ((flow_hash as u64) << 32) ^ (req as u64) ^ 0xA076_1D64_78BD_642F;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        // Uniform in (0, 1]: never exactly 0, so ln() is finite.
        let u = ((x >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let mean = self.mean_ns as f64 * self.slow_multiplier;
        let draw = -mean * u.ln();
        (draw.min(TAIL_CAP * mean) as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_order_free() {
        let p = BackendServiceProfile::new(200_000);
        let a: Vec<u64> = (0..100).map(|r| p.sample_ns(0xdead_beef, r)).collect();
        let b: Vec<u64> = (0..100)
            .rev()
            .map(|r| p.sample_ns(0xdead_beef, r))
            .collect();
        let b_fwd: Vec<u64> = b.into_iter().rev().collect();
        assert_eq!(a, b_fwd, "samples must not depend on draw order");
    }

    #[test]
    fn mean_is_roughly_respected() {
        let p = BackendServiceProfile::new(100_000);
        let n = 20_000u64;
        let sum: u64 = (0..n)
            .map(|i| p.sample_ns(i as u32, (i % 7) as usize))
            .sum();
        let avg = sum as f64 / n as f64;
        // The 8× tail cap trims the true mean slightly; accept ±10%.
        assert!(
            (avg - 100_000.0).abs() < 10_000.0,
            "empirical mean {avg} too far from 100000"
        );
    }

    #[test]
    fn slow_multiplier_scales_every_draw() {
        let fast = BackendServiceProfile::new(50_000);
        let slow = BackendServiceProfile::slowed(50_000, 4.0);
        for h in 0..200u32 {
            let f = fast.sample_ns(h, 0);
            let s = slow.sample_ns(h, 0);
            // Same uniform draw underneath, so the ratio is exactly 4
            // except where the tail cap bites.
            assert!(s >= f, "slow draw {s} must not undercut healthy draw {f}");
        }
    }

    #[test]
    fn tail_is_capped() {
        let p = BackendServiceProfile::new(1_000);
        for h in 0..50_000u32 {
            assert!(p.sample_ns(h, 3) <= 8_000, "tail cap violated");
        }
    }

    #[test]
    fn samples_are_never_zero() {
        let p = BackendServiceProfile::new(1);
        for h in 0..10_000u32 {
            assert!(p.sample_ns(h, 0) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "mean must be nonzero")]
    fn zero_mean_rejected() {
        BackendServiceProfile::new(0);
    }
}
