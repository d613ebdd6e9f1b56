//! Composite scenarios beyond the four cases.
//!
//! * [`surge`] — the Fig. 3 lag effect: long-lived connections accumulate
//!   quietly, then fire simultaneously; uneven *connection* placement
//!   becomes uneven *CPU* load much later.
//! * [`rules_per_port`] — the Fig. A5 forwarding-rule-count model.
//! * [`region_mix`] — a production-like blend of the four cases in a
//!   region's Table 4 proportions (drives Fig. 13 / Table 2).

use crate::arrival::ArrivalProcess;
use crate::cases::{Case, CaseLoad};
use crate::distr::{Distribution, Exp, Pareto};
use crate::regions::Region;
use crate::spec::{ConnectionSpec, RequestSpec, Workload};
use crate::tenant::TenantSet;
use hermes_core::FlowKey;
use hermes_metrics::NANOS_PER_SEC;

/// Parameters of the Fig. 3 long-lived-connection surge.
#[derive(Clone, Copy, Debug)]
pub struct SurgeConfig {
    /// Long-lived connections to establish.
    pub connections: usize,
    /// Establishment window (connections trickle in over this period).
    pub ramp_ns: u64,
    /// Quiet gap between ramp completion and the surge.
    pub quiet_ns: u64,
    /// All connections fire within this window at surge time.
    pub surge_window_ns: u64,
    /// Requests each connection fires during the surge.
    pub burst_requests: u32,
    /// Mean per-request service time during the surge (ns).
    pub burst_service_ns: f64,
    /// Horizon after the surge for drain.
    pub drain_ns: u64,
}

impl Default for SurgeConfig {
    fn default() -> Self {
        Self {
            connections: 2_000,
            ramp_ns: 5 * NANOS_PER_SEC,
            quiet_ns: 5 * NANOS_PER_SEC,
            surge_window_ns: NANOS_PER_SEC / 2,
            burst_requests: 6,
            burst_service_ns: 400_000.0, // 400 µs
            drain_ns: 5 * NANOS_PER_SEC,
        }
    }
}

/// Build the Fig. 3 surge workload: quiet accumulation then synchronized
/// burst (quantitative trading's "sudden traffic bursts if certain trading
/// conditions are met").
pub fn surge(config: SurgeConfig, seed: u64) -> Workload {
    let mut rng = crate::rng(seed);
    let surge_at = config.ramp_ns + config.quiet_ns;
    let horizon = surge_at + config.surge_window_ns + config.drain_ns;
    let service = Exp::with_mean(config.burst_service_ns);
    let mut w = Workload::new("fig3-surge", horizon);
    w.set_linger(0, config.drain_ns);
    // The handshake alone is one request at offset 0, held in its row.
    let in_table = match config.burst_requests {
        0 => 0,
        burst => burst as usize + 1,
    };
    w.reserve(config.connections, config.connections * in_table);
    for i in 0..config.connections {
        let arrival = (config.ramp_ns as f64 * rng.f64()) as u64;
        let fire_at = surge_at + (config.surge_window_ns as f64 * rng.f64()) as u64;
        // A handshake-time request so placement costs something immediately.
        let handshake = RequestSpec {
            start_offset_ns: 0,
            service_ns: 20_000,
        };
        let fire_offset = fire_at.saturating_sub(arrival);
        let burst = (0..u64::from(config.burst_requests)).map(|k| RequestSpec {
            start_offset_ns: fire_offset + k * 1_000_000, // 1 ms pacing inside the burst
            service_ns: service.sample(&mut rng).max(1.0) as u64,
        });
        let flow = FlowKey::new(
            0x0b00_0000 + i as u32,
            2000 + (i % 30_000) as u16,
            0x0aff_0001,
            9000,
        );
        let conn = ConnectionSpec::new(arrival, flow, 0);
        w.push(conn, std::iter::once(handshake).chain(burst));
    }
    w.seal()
}

/// Fig. A5: number of forwarding rules per port across a region. Most ports
/// carry a handful of rules; a tail of configuration-heavy tenants carries
/// thousands — a Pareto body with a cap.
pub fn rules_per_port(ports: usize, seed: u64) -> Vec<u32> {
    let mut rng = crate::rng(seed);
    let d = Pareto::new(1.0, 0.7);
    (0..ports)
        .map(|_| (d.sample(&mut rng).round() as u32).clamp(1, 100_000))
        .collect()
}

/// A production-like blend: connections drawn from the region's Table 4
/// case mix, each shaped by that case's tenant profile. Powers Table 2,
/// Fig. 4/5, and Fig. 13.
pub fn region_mix(
    region: &Region,
    workers: usize,
    load: CaseLoad,
    duration_ns: u64,
    seed: u64,
) -> Workload {
    let mut rng = crate::rng(seed);
    // Each case contributes its own arrival stream, scaled by the region's
    // mix weight so the blend's *connection* proportions match Table 4.
    let mut w = Workload::new(format!("{}-mix-{:?}", region.name, load), duration_ns);
    let mut seq = 0u32;
    for (i, case) in Case::all().into_iter().enumerate() {
        let weight = region.case_mix[i];
        if weight <= 0.0 {
            continue;
        }
        let cps = case.base_cps_per_worker() * workers as f64 * load.multiplier() * weight;
        if cps < 0.5 {
            continue;
        }
        // One tenant per case, so each case listens on its own port; the
        // connections carry the case's index as their tenant.
        let tenants = TenantSet::new(vec![case.profile()], 0.0, 20_000 + (i as u16) * 100);
        let process = ArrivalProcess::Poisson { rate_per_sec: cps };
        let conns = tenants.append(&mut w, i as u16, &process, duration_ns, seq, &mut rng);
        seq = seq.wrapping_add(conns.len() as u32);
    }
    w.seal()
}

/// Per-device seed for fleet-scale runs: a splitmix64-style scramble of
/// the fleet seed by device index. Pure function of `(fleet_seed,
/// device)`, so fleet workload generation can happen on any pool thread
/// (or be re-generated for a single device) without changing the stream.
pub fn fleet_device_seed(fleet_seed: u64, device: usize) -> u64 {
    let mut z = fleet_seed ^ (device as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Device `device`'s slice of a fleet-wide [`region_mix`] deployment:
/// every device sees statistically identical production traffic (the L4
/// LB splits flows evenly), so each draws an *independent* region-mix
/// stream from its scrambled seed instead of hash-splitting one giant
/// workload — generation stays O(one device) per call, which is what
/// lets the 363-device Table 2 sweep build each device's workload inside
/// the pool worker and drop it after the run.
pub fn fleet_device_mix(
    region: &Region,
    workers: usize,
    load: CaseLoad,
    duration_ns: u64,
    fleet_seed: u64,
    device: usize,
) -> Workload {
    region_mix(
        region,
        workers,
        load,
        duration_ns,
        fleet_device_seed(fleet_seed, device),
    )
}

/// Device `device`'s slice of a fleet-wide single-case deployment (the
/// `fleet_throughput` bench drives Case 3 through this).
pub fn fleet_device_case(
    case: Case,
    load: CaseLoad,
    workers: usize,
    duration_ns: u64,
    fleet_seed: u64,
    device: usize,
) -> Workload {
    case.workload(
        load,
        workers,
        duration_ns,
        fleet_device_seed(fleet_seed, device),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_device_streams_are_stable_and_independent() {
        // Pure function of (seed, device): re-generation is identical.
        assert_eq!(fleet_device_seed(42, 7), fleet_device_seed(42, 7));
        // Neighbouring devices get well-separated seeds.
        assert_ne!(fleet_device_seed(42, 0), fleet_device_seed(42, 1));
        assert_ne!(fleet_device_seed(42, 1), fleet_device_seed(43, 1));

        let region = &crate::regions::Region::all()[1];
        let a = fleet_device_mix(region, 4, CaseLoad::Light, NANOS_PER_SEC, 7, 3);
        let b = fleet_device_mix(region, 4, CaseLoad::Light, NANOS_PER_SEC, 7, 3);
        assert_eq!(a.connection_count(), b.connection_count());
        assert!(a.connection_count() > 0);
        for (x, y) in a.conns.iter().zip(&b.conns).take(20) {
            assert_eq!(x.arrival_ns, y.arrival_ns);
            assert_eq!(x.flow, y.flow);
        }
        // A different device position draws a different stream.
        let c = fleet_device_mix(region, 4, CaseLoad::Light, NANOS_PER_SEC, 7, 4);
        let same = a
            .conns
            .iter()
            .zip(&c.conns)
            .take(20)
            .filter(|(x, y)| x.arrival_ns == y.arrival_ns)
            .count();
        assert!(same < 20, "device 3 and 4 streams identical");

        let d = fleet_device_case(Case::Case3, CaseLoad::Medium, 4, NANOS_PER_SEC, 7, 0);
        let e = fleet_device_case(Case::Case3, CaseLoad::Medium, 4, NANOS_PER_SEC, 7, 0);
        assert_eq!(d.connection_count(), e.connection_count());
        assert!(d.connection_count() > 0);
    }

    #[test]
    fn surge_has_three_phases() {
        let cfg = SurgeConfig::default();
        let w = surge(cfg, 1);
        assert_eq!(w.connection_count(), cfg.connections);
        // All arrivals within the ramp.
        assert!(w.conns.iter().all(|c| c.arrival_ns < cfg.ramp_ns));
        // All burst requests land in the surge window (±1ms pacing slack).
        let surge_at = cfg.ramp_ns + cfg.quiet_ns;
        for c in &w.conns {
            for r in w.requests_of(c).iter().skip(1) {
                let fire = c.arrival_ns + r.start_offset_ns;
                assert!(
                    fire >= surge_at && fire <= surge_at + cfg.surge_window_ns + 10_000_000,
                    "request fires at {fire}"
                );
            }
        }
        // The quiet period really is quiet: no request between ramp end
        // + small epsilon and surge start.
        let quiet_mid = cfg.ramp_ns + cfg.quiet_ns / 2;
        for c in &w.conns {
            for r in w.requests_of(c).iter() {
                let fire = c.arrival_ns + r.start_offset_ns;
                assert!(
                    fire < cfg.ramp_ns || fire >= surge_at || fire < quiet_mid,
                    "unexpected mid-quiet request"
                );
            }
        }
    }

    #[test]
    fn rules_per_port_is_skewed() {
        let rules = rules_per_port(5_000, 3);
        assert_eq!(rules.len(), 5_000);
        let ones = rules.iter().filter(|&&r| r <= 2).count();
        let big = rules.iter().filter(|&&r| r > 100).count();
        assert!(ones as f64 / 5_000.0 > 0.4, "body share {ones}");
        assert!(big > 10, "tail count {big}");
    }

    #[test]
    fn region_mix_proportions_track_table4() {
        let region = &Region::all()[0]; // Region1: case3-dominant
        let w = region_mix(region, 4, CaseLoad::Light, 2 * NANOS_PER_SEC, 4);
        assert!(w.connection_count() > 100);
        let case1 = w.conns.iter().filter(|c| c.tenant == 0).count() as f64;
        let case3 = w.conns.iter().filter(|c| c.tenant == 2).count() as f64;
        // Case 1's CPS base is much higher than case 3's, so counts are not
        // directly the mix weights; but case1 (19% weight at 700 cps)
        // should outnumber case3 (66% weight at 25 cps).
        assert!(case1 > case3);
    }

    /// The region mix's and the surge's streams, pinned field by field
    /// (`Workload::stream_sums`).
    #[test]
    fn region_mix_and_surge_draw_their_recorded_streams() {
        let mix = region_mix(
            &Region::all()[0],
            4,
            CaseLoad::Medium,
            2 * NANOS_PER_SEC,
            42,
        );
        assert_eq!(
            (mix.connection_count(), mix.request_count()),
            (2_455, 84_687)
        );
        assert_eq!(
            mix.stream_sums(),
            [
                3_995_281_195_748_931,
                6_278_968_466_023_758,
                722_216,
                697_614_000_000_000,
                4_945_834_729_012_666_890,
                177_534_636_644_568,
                3_676_520_406,
            ]
        );
        let s = surge(SurgeConfig::default(), 42);
        assert_eq!((s.connection_count(), s.request_count()), (2_000, 14_000));
        assert_eq!(
            s.stream_sums(),
            [
                6_692_503_065_851_597,
                4_229_749_801_201_537,
                0,
                10_005_000_000_000_000,
                580_103_505_109_834_532,
                34_122_363_393_676,
                98_007_000,
            ]
        );
    }

    #[test]
    fn surge_deterministic_per_seed() {
        let a = surge(SurgeConfig::default(), 9);
        let b = surge(SurgeConfig::default(), 9);
        assert_eq!(a.conns[0], b.conns[0]);
        assert_eq!(a.requests_of(&a.conns[0]), b.requests_of(&b.conns[0]));
    }
}
