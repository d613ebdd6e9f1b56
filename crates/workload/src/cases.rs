//! The four canonical traffic cases of Table 3.
//!
//! §6.2 classifies production traffic into a 2×2 of connections-per-second
//! (CPS) × average processing time:
//!
//! | Case | CPS  | Processing time | Typical source |
//! |------|------|-----------------|----------------|
//! | 1    | high | low             | stress tests, traffic spikes |
//! | 2    | high | high            | spikes of compression/SSL-heavy work |
//! | 3    | low  | low             | finance/chat long-lived connections |
//! | 4    | low  | high            | web services (SSL handshake, regex routing) |
//!
//! The paper replays captured traffic at 1×/2×/3× for light/medium/heavy
//! load. We generate the equivalent synthetic traffic, calibrated per
//! worker so any device size can run the same case: at heavy load the
//! offered CPU utilization approaches ~0.9 per worker, which is where the
//! modes' behaviours diverge the most.

use crate::arrival::ArrivalProcess;
use crate::distr::{Constant, Exp, LogNormal};
use crate::spec::Workload;
use crate::tenant::{TenantProfile, TenantSet};
use hermes_metrics::NANOS_PER_SEC;
use std::sync::Arc;

/// One of the four Table 3 traffic cases.
///
/// ```
/// use hermes_workload::{Case, CaseLoad};
/// let wl = Case::Case1.workload(CaseLoad::Light, 4, 1_000_000_000, 42);
/// assert!(wl.mean_cps() > 2_000.0); // "high CPS"
/// assert!(wl.offered_load() < 4.0); // under aggregate capacity at light
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Case {
    /// High CPS, low average processing time.
    Case1,
    /// High CPS, high average processing time.
    Case2,
    /// Low CPS, low average processing time (long-lived connections).
    Case3,
    /// Low CPS, high average processing time.
    Case4,
}

/// Replay intensity (the paper's 1×/2×/3×).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CaseLoad {
    /// Original capture rate.
    Light,
    /// 2× replay.
    Medium,
    /// 3× replay.
    Heavy,
}

impl CaseLoad {
    /// Rate multiplier vs. the light capture.
    pub fn multiplier(self) -> f64 {
        match self {
            CaseLoad::Light => 1.0,
            CaseLoad::Medium => 2.0,
            CaseLoad::Heavy => 3.0,
        }
    }

    /// All loads in paper order.
    pub fn all() -> [CaseLoad; 3] {
        [CaseLoad::Light, CaseLoad::Medium, CaseLoad::Heavy]
    }
}

impl Case {
    /// All cases in paper order.
    pub fn all() -> [Case; 4] {
        [Case::Case1, Case::Case2, Case::Case3, Case::Case4]
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Case::Case1 => "Case1: High CPS, Low Avg processing time",
            Case::Case2 => "Case2: High CPS, High Avg processing time",
            Case::Case3 => "Case3: Low CPS, Low Avg processing time",
            Case::Case4 => "Case4: Low CPS, High Avg processing time",
        }
    }

    /// Connections per second per worker at light load.
    pub fn base_cps_per_worker(self) -> f64 {
        match self {
            Case::Case1 => 700.0,
            Case::Case2 => 120.0,
            Case::Case3 => 25.0,
            Case::Case4 => 3.0,
        }
    }

    /// Tenant profile capturing the case's request shape.
    pub fn profile(self) -> TenantProfile {
        match self {
            // Short connections, one cheap request each: dispatch overhead
            // and wakeup fairness dominate.
            Case::Case1 => TenantProfile {
                name: "case1".into(),
                service_ns: Arc::new(Exp::with_mean(380_000.0)), // 380 µs
                size_bytes: Arc::new(Exp::with_mean(300.0)),
                requests_per_conn: Arc::new(Constant(1.0)),
                think_time_ns: Arc::new(Constant(0.0)),
                events_per_request: 2,
                linger_ns: None,
            },
            // Expensive, heavy-tailed work at high CPS: workers hit long
            // busy stretches; stateless hashing keeps feeding them.
            Case::Case2 => TenantProfile {
                name: "case2".into(),
                service_ns: Arc::new(LogNormal::from_p50_p99(800_000.0, 30_000_000.0)),
                size_bytes: Arc::new(Exp::with_mean(4_000.0)),
                requests_per_conn: Arc::new(Constant(1.0)),
                think_time_ns: Arc::new(Constant(0.0)),
                events_per_request: 2,
                linger_ns: None,
            },
            // Long-lived connections streaming many cheap requests
            // (finance/chat): connection *placement* is the decision that
            // matters, long before its requests arrive.
            Case::Case3 => TenantProfile {
                name: "case3".into(),
                service_ns: Arc::new(Exp::with_mean(35_000.0)), // 35 µs
                size_bytes: Arc::new(Exp::with_mean(600.0)),
                requests_per_conn: Arc::new(Constant(300.0)),
                think_time_ns: Arc::new(Exp::with_mean(45_000_000.0)), // 45 ms
                events_per_request: 1,
                linger_ns: Some(2 * NANOS_PER_SEC),
            },
            // Few, very expensive connections (SSL handshake + regex
            // routing): one bad placement pins a core for a long time.
            Case::Case4 => TenantProfile {
                name: "case4".into(),
                service_ns: Arc::new(LogNormal::from_p50_p99(22_000_000.0, 400_000_000.0)),
                size_bytes: Arc::new(Exp::with_mean(2_000.0)),
                requests_per_conn: Arc::new(Constant(2.0)),
                think_time_ns: Arc::new(Exp::with_mean(150_000_000.0)),
                events_per_request: 2,
                linger_ns: Some(NANOS_PER_SEC),
            },
        }
    }

    /// Whether the paper labels this case "high CPS".
    pub fn is_high_cps(self) -> bool {
        matches!(self, Case::Case1 | Case::Case2)
    }

    /// Whether the paper labels this case "high processing time".
    pub fn is_high_service(self) -> bool {
        matches!(self, Case::Case2 | Case::Case4)
    }

    /// Tenants (= ports) sharing each case's profile. Multi-tenancy is
    /// load-bearing: the O(#ports) dispatch overhead of the shared-queue
    /// modes (§6.2 Case 1) only materializes with many listening ports.
    pub const TENANTS: usize = 2_000;

    /// Generate the case's workload for a device with `workers` workers
    /// over `duration_ns`, at the given load. Traffic is spread over
    /// [`Case::TENANTS`] tenant ports with mild Zipf skew.
    pub fn workload(self, load: CaseLoad, workers: usize, duration_ns: u64, seed: u64) -> Workload {
        let mut rng = crate::rng(seed ^ (self as u64) << 8 ^ load.multiplier() as u64);
        let cps = self.base_cps_per_worker() * workers as f64 * load.multiplier();
        let tenants = TenantSet::new(vec![self.profile(); Self::TENANTS], 0.9, 20_000);
        let name = format!("{:?}-{:?}", self, load);
        tenants.workload(
            name,
            &ArrivalProcess::Poisson { rate_per_sec: cps },
            duration_ns,
            &mut rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_matrix_labels() {
        assert!(Case::Case1.is_high_cps() && !Case::Case1.is_high_service());
        assert!(Case::Case2.is_high_cps() && Case::Case2.is_high_service());
        assert!(!Case::Case3.is_high_cps() && !Case::Case3.is_high_service());
        assert!(!Case::Case4.is_high_cps() && Case::Case4.is_high_service());
    }

    #[test]
    fn load_multipliers_match_paper_replay() {
        assert_eq!(CaseLoad::Light.multiplier(), 1.0);
        assert_eq!(CaseLoad::Medium.multiplier(), 2.0);
        assert_eq!(CaseLoad::Heavy.multiplier(), 3.0);
    }

    #[test]
    fn generated_cps_tracks_case_and_load() {
        let w_light = Case::Case1.workload(CaseLoad::Light, 4, 2 * NANOS_PER_SEC, 1);
        let w_heavy = Case::Case1.workload(CaseLoad::Heavy, 4, 2 * NANOS_PER_SEC, 1);
        let light_cps = w_light.mean_cps();
        let heavy_cps = w_heavy.mean_cps();
        assert!((light_cps - 2_800.0).abs() < 300.0, "light {light_cps}");
        assert!((heavy_cps / light_cps - 3.0).abs() < 0.2);
    }

    #[test]
    fn heavy_load_approaches_per_worker_saturation() {
        // Offered load at heavy should be near (but around) 0.75-1.1 of the
        // aggregate worker capacity for the short-request cases.
        for case in [Case::Case1, Case::Case2] {
            let workers = 4;
            let w = case.workload(CaseLoad::Heavy, workers, 2 * NANOS_PER_SEC, 2);
            let per_worker = w.offered_load() / workers as f64;
            assert!(
                (0.5..1.3).contains(&per_worker),
                "{case:?}: per-worker load {per_worker}"
            );
        }
    }

    #[test]
    fn case3_is_long_lived_case1_is_short() {
        let w1 = Case::Case1.workload(CaseLoad::Light, 2, NANOS_PER_SEC, 3);
        let w3 = Case::Case3.workload(CaseLoad::Light, 2, NANOS_PER_SEC, 3);
        let rpc1 = w1.request_count() as f64 / w1.connection_count() as f64;
        let rpc3 = w3.request_count() as f64 / w3.connection_count() as f64;
        assert!(rpc1 < 1.5, "case1 requests/conn {rpc1}");
        assert!(rpc3 > 100.0, "case3 requests/conn {rpc3}");
    }

    #[test]
    fn case4_service_is_heavy_tailed() {
        let w = Case::Case4.workload(CaseLoad::Light, 8, 4 * NANOS_PER_SEC, 4);
        let mut services: Vec<u64> = w
            .conns
            .iter()
            .flat_map(|c| c.requests.iter().map(|r| r.service_ns))
            .collect();
        services.sort_unstable();
        assert!(!services.is_empty());
        let p50 = services[services.len() / 2];
        let max = *services.last().unwrap();
        assert!(p50 > 5_000_000, "p50 {p50}");
        assert!(max as f64 / p50 as f64 > 5.0, "tail ratio");
    }

    /// The benchmark's `sim_case1` input, summed. Recorded with the
    /// generator every checked-in result was produced with, before that
    /// generator moved into `hermes-metrics`: if this moves, every
    /// `results/` file and every recorded benchmark run is from another
    /// stream.
    #[test]
    fn case1_heavy_seed_42_is_the_recorded_workload() {
        let wl = Case::Case1.workload(CaseLoad::Heavy, 32, 30 * NANOS_PER_SEC, 42);
        let (mut arrivals, mut services, mut hashes) = (0u64, 0u64, 0u64);
        for c in &wl.conns {
            arrivals = arrivals.wrapping_add(c.arrival_ns);
            hashes = hashes.wrapping_add(u64::from(c.flow.hash()));
            for r in &c.requests {
                services = services.wrapping_add(r.service_ns);
            }
        }
        assert_eq!(wl.conns.len(), 2_016_205);
        assert_eq!(wl.request_count(), 2_016_205);
        assert_eq!(arrivals, 30_277_221_829_750_652);
        assert_eq!(services, 766_552_550_388);
        assert_eq!(hashes, 4_330_749_438_573_108);
    }

    #[test]
    fn workloads_are_deterministic_per_seed() {
        let a = Case::Case2.workload(CaseLoad::Medium, 4, NANOS_PER_SEC, 42);
        let b = Case::Case2.workload(CaseLoad::Medium, 4, NANOS_PER_SEC, 42);
        assert_eq!(a.connection_count(), b.connection_count());
        assert_eq!(a.conns.first(), b.conns.first());
        let c = Case::Case2.workload(CaseLoad::Medium, 4, NANOS_PER_SEC, 43);
        assert_ne!(
            a.conns.first().map(|x| x.flow),
            c.conns.first().map(|x| x.flow)
        );
    }
}
