//! Composite scenarios beyond the four cases.
//!
//! * [`surge`] — the Fig. 3 lag effect: long-lived connections accumulate
//!   quietly, then fire simultaneously; uneven *connection* placement
//!   becomes uneven *CPU* load much later.
//! * [`probes`] — the Fig. 11 health-probe stream: tiny paced requests
//!   whose end-to-end delay flags hung workers (>200 ms ⇒ "delayed").
//! * [`hang_inducing`] — a background mix with a tenant whose tail requests
//!   pin a worker long enough to trip hang detection.
//! * [`rules_per_port`] — the Fig. A5 forwarding-rule-count model.
//! * [`region_mix`] — a production-like blend of the four cases in a
//!   region's Table 4 proportions (drives Fig. 13 / Table 2).

use crate::arrival::ArrivalProcess;
use crate::cases::{Case, CaseLoad};
use crate::distr::{Constant, Distribution, Exp, LogNormal, Pareto};
use crate::regions::Region;
use crate::spec::{ConnectionSpec, RequestSpec, Workload};
use crate::tenant::{TenantProfile, TenantSet};
use hermes_core::FlowKey;
use hermes_metrics::NANOS_PER_SEC;
use std::sync::Arc;

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
    for i in 0..config.connections {
        let arrival = (config.ramp_ns as f64 * rng.f64()) as u64;
        let fire_at = surge_at + (config.surge_window_ns as f64 * rng.f64()) as u64;
        let mut requests = Vec::with_capacity(config.burst_requests as usize + 1);
        // A handshake-time request so placement costs something immediately.
        requests.push(RequestSpec {
            start_offset_ns: 0,
            service_ns: 20_000,
            events: 1,
            size_bytes: 200,
        });
        let mut offset = fire_at.saturating_sub(arrival);
        for _ in 0..config.burst_requests {
            requests.push(RequestSpec {
                start_offset_ns: offset,
                service_ns: service.sample(&mut rng).max(1.0) as u64,
                events: 1,
                size_bytes: 500,
            });
            offset += 1_000_000; // 1 ms pacing inside the burst
        }
        w.push(ConnectionSpec {
            arrival_ns: arrival,
            flow: FlowKey::new(
                0x0b00_0000 + i as u32,
                2000 + (i % 30_000) as u16,
                0x0aff_0001,
                9000,
            ),
            tenant: 0,
            port: 9000,
            requests,
            linger_ns: Some(config.drain_ns),
        });
    }
    w.seal()
}

/// Health-probe stream (Fig. 11): one probe per `interval_ns`, negligible
/// service cost. The LB "contains no probe processing logic", so any
/// end-to-end delay beyond queueing is a hung worker.
pub fn probes(interval_ns: u64, duration_ns: u64, port: u16) -> Workload {
    let mut w = Workload::new("probes", duration_ns);
    let mut t = 0u64;
    let mut i = 0u32;
    while t < duration_ns {
        w.push(ConnectionSpec {
            arrival_ns: t,
            flow: FlowKey::new(
                0x0c00_0000 + i,
                3000 + (i % 20_000) as u16,
                0x0aff_0001,
                port,
            ),
            tenant: u16::MAX, // probe pseudo-tenant
            port,
            requests: vec![RequestSpec {
                start_offset_ns: 0,
                service_ns: 10_000, // 10 µs: pure forwarding
                events: 1,
                size_bytes: 64,
            }],
            linger_ns: None,
        });
        t += interval_ns;
        i += 1;
    }
    w.seal()
}

/// A background mix containing a misbehaving tenant whose request tail
/// occasionally pins a worker (the "stuck on a read event" incident:
/// 30 ms → 440 s). Used by the Fig. 11 before/after comparison.
pub fn hang_inducing(workers: usize, duration_ns: u64, seed: u64) -> Workload {
    let mut rng = crate::rng(seed);
    let tenants = TenantSet::new(
        vec![
            TenantProfile::simple_http(300_000.0),
            // The hazard tenant: P50 2 ms with a brutal tail (hundreds of
            // ms to seconds at P99.9) that traps edge-triggered workers.
            TenantProfile {
                name: "hazard".into(),
                service_ns: Arc::new(LogNormal::from_p50_p99(2_000_000.0, 400_000_000.0)),
                size_bytes: Arc::new(Pareto::new(500.0, 1.3)),
                requests_per_conn: Arc::new(Constant(1.0)),
                think_time_ns: Arc::new(Constant(0.0)),
                events_per_request: 2,
                linger_ns: None,
            },
        ],
        0.6,
        7000,
    );
    let cps = 60.0 * workers as f64;
    tenants.workload(
        "hang-inducing",
        &ArrivalProcess::Poisson { rate_per_sec: cps },
        duration_ns,
        &mut rng,
    )
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
        let tenants = TenantSet::new(vec![case.profile()], 0.0, 20_000 + (i as u16) * 100);
        for t in (ArrivalProcess::Poisson { rate_per_sec: cps }).generate(0, duration_ns, &mut rng)
        {
            let mut conn = tenants.generate_connection(t, seq, &mut rng);
            conn.tenant = i as u16;
            seq = seq.wrapping_add(1);
            w.push(conn);
        }
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
            for r in &c.requests[1..] {
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
            for r in &c.requests {
                let fire = c.arrival_ns + r.start_offset_ns;
                assert!(
                    fire < cfg.ramp_ns || fire >= surge_at || fire < quiet_mid,
                    "unexpected mid-quiet request"
                );
            }
        }
    }

    #[test]
    fn probes_are_paced_and_cheap() {
        let w = probes(NANOS_PER_SEC / 10, NANOS_PER_SEC, 443);
        assert_eq!(w.connection_count(), 10);
        assert!(w.conns.iter().all(|c| c.requests.len() == 1));
        assert!(w.conns.iter().all(|c| c.requests[0].service_ns <= 10_000));
        assert!(w.conns.iter().all(|c| c.tenant == u16::MAX));
    }

    #[test]
    fn hang_inducing_has_a_heavy_tail() {
        let w = hang_inducing(4, 2 * NANOS_PER_SEC, 2);
        let max_service = w
            .conns
            .iter()
            .flat_map(|c| c.requests.iter().map(|r| r.service_ns))
            .max()
            .unwrap();
        assert!(
            max_service > 200_000_000,
            "tail too small: {max_service} ns"
        );
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

    #[test]
    fn surge_deterministic_per_seed() {
        let a = surge(SurgeConfig::default(), 9);
        let b = surge(SurgeConfig::default(), 9);
        assert_eq!(a.conns[0], b.conns[0]);
    }
}

/// Appendix C exception case 2: a Challenge-Collapsar-style attack. Normal
/// tenants run steadily; at `attack_at_ns` one tenant's CPS multiplies by
/// `attack_factor` with tiny expensive-to-refuse requests, driving every
/// worker toward saturation until cluster-level policies (sandbox
/// migration) intervene.
pub fn cc_attack(
    workers: usize,
    duration_ns: u64,
    attack_at_ns: u64,
    attack_factor: f64,
    seed: u64,
) -> Workload {
    assert!(
        attack_at_ns < duration_ns,
        "attack must start inside the horizon"
    );
    assert!(attack_factor > 1.0, "attack must amplify traffic");
    let mut rng = crate::rng(seed);
    let victim_profile = TenantProfile::simple_http(250_000.0);
    let tenants = TenantSet::new(
        vec![
            victim_profile.clone(),
            victim_profile,
            TenantProfile::simple_http(400_000.0),
        ],
        0.8,
        6_000,
    );
    let base_cps = 80.0 * workers as f64;
    let mut w = tenants.workload(
        "cc-attack",
        &ArrivalProcess::Poisson {
            rate_per_sec: base_cps,
        },
        duration_ns,
        &mut rng,
    );
    // The attacker: tenant id 2's port floods from attack_at onward.
    let attack_cps = base_cps * attack_factor;
    let mut seq = 1_000_000u32;
    for t in (ArrivalProcess::Poisson {
        rate_per_sec: attack_cps,
    })
    .generate(attack_at_ns, duration_ns - attack_at_ns, &mut rng)
    {
        let mut conn = tenants.generate_connection_for(2, t, seq, &mut rng);
        // CC attacks use cheap-to-send, costly-to-serve requests; keep the
        // service small but nonzero so saturation emerges from volume.
        for r in &mut conn.requests {
            r.service_ns = 150_000;
            r.size_bytes = 64;
        }
        seq = seq.wrapping_add(1);
        w.push(conn);
    }
    w.seal()
}

#[cfg(test)]
mod attack_tests {
    use super::*;
    use hermes_metrics::NANOS_PER_SEC;

    #[test]
    fn cc_attack_spikes_one_tenant() {
        let wl = cc_attack(4, 4 * NANOS_PER_SEC, 2 * NANOS_PER_SEC, 30.0, 5);
        // Per-tenant CPS before and after the attack moment.
        let rate = |tenant: u16, from: u64, to: u64| {
            wl.conns
                .iter()
                .filter(|c| c.tenant == tenant && c.arrival_ns >= from && c.arrival_ns < to)
                .count() as f64
                / ((to - from) as f64 / NANOS_PER_SEC as f64)
        };
        let before = rate(2, 0, 2 * NANOS_PER_SEC);
        let after = rate(2, 2 * NANOS_PER_SEC, 4 * NANOS_PER_SEC);
        assert!(
            after > 10.0 * before.max(1.0),
            "attacker rate {before} -> {after}"
        );
        // Normal tenants stay steady.
        let n_before = rate(0, 0, 2 * NANOS_PER_SEC);
        let n_after = rate(0, 2 * NANOS_PER_SEC, 4 * NANOS_PER_SEC);
        assert!((n_after / n_before.max(1.0)) < 1.5);
    }

    #[test]
    fn detector_flags_the_attack_from_the_workload() {
        use hermes_core::sandbox::AttackDetector;
        let wl = cc_attack(4, 6 * NANOS_PER_SEC, 3 * NANOS_PER_SEC, 40.0, 6);
        let mut detector = AttackDetector::new(0.2, 8.0, 500.0);
        let window = NANOS_PER_SEC / 2;
        let mut flagged_attacker = false;
        let mut flagged_normal = false;
        for tick in 0..(wl.duration_ns / window) {
            let (from, to) = (tick * window, (tick + 1) * window);
            for tenant in 0..3u16 {
                let count = wl
                    .conns
                    .iter()
                    .filter(|c| c.tenant == tenant && c.arrival_ns >= from && c.arrival_ns < to)
                    .count();
                let rate = count as f64 / (window as f64 / NANOS_PER_SEC as f64);
                let hit = detector.observe(tenant, rate);
                if tenant == 2 && to > 3 * NANOS_PER_SEC {
                    flagged_attacker |= hit;
                } else if tenant != 2 {
                    flagged_normal |= hit;
                }
            }
        }
        assert!(flagged_attacker, "attack never detected");
        assert!(!flagged_normal, "false positive on a normal tenant");
    }
}
