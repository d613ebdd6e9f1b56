//! Fault-injection integration tests: the §7 "how worker failures impact
//! tenant services" comparison and the Appendix C exception cases.

use hermes::prelude::*;
use hermes::simnet::Fault;
use hermes::workload::{Case, CaseLoad};

const WORKERS: usize = 8;
const SECOND: u64 = 1_000_000_000;
const MILLI: u64 = 1_000_000;

#[test]
fn crash_blast_radius_exclusive_vs_hermes() {
    // §7: under exclusive, connections concentrate, so one crash can take
    // out the majority of live connections; Hermes spreads them, so the
    // blast radius is ~1/N.
    let wl = Case::Case3.workload(CaseLoad::Light, WORKERS, 4 * SECOND, 3);
    let measure = |mode: Mode| {
        let r = hermes::simnet::run(&wl, SimConfig::new(WORKERS, mode));
        // The busiest worker's share of connections == worst-case blast.
        let total: u64 = r.workers.iter().map(|w| w.accepted).sum();
        let top = r.workers.iter().map(|w| w.accepted).max().unwrap();
        top as f64 / total.max(1) as f64
    };
    let excl_blast = measure(Mode::ExclusiveLifo);
    let herm_blast = measure(Mode::Hermes);
    assert!(
        excl_blast > 0.5,
        "exclusive worst-worker share {excl_blast} (paper: >70% in the incident)"
    );
    assert!(
        herm_blast < 0.3,
        "hermes worst-worker share {herm_blast} (should be near 1/{WORKERS})"
    );
}

#[test]
fn hermes_routes_around_mid_run_crash() {
    let wl = Case::Case1.workload(CaseLoad::Light, WORKERS, 4 * SECOND, 9);
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.hermes.hang_threshold_ns = 50 * MILLI;
    cfg.faults.push(Fault::Crash {
        worker: 2,
        at_ns: SECOND,
    });
    let r = hermes::simnet::run(&wl, cfg);
    let total = wl.request_count() as u64;
    // Some connections die with the worker; the rest keep flowing.
    assert!(
        r.completed_requests as f64 > 0.9 * total as f64,
        "completed {} of {total}",
        r.completed_requests
    );
    // After detection, the crashed worker receives (almost) nothing: its
    // accepts must be well below the per-worker average.
    let avg = r.accepted_connections / WORKERS as u64;
    assert!(
        r.workers[2].accepted < avg / 2,
        "crashed worker accepted {} (avg {avg})",
        r.workers[2].accepted
    );
}

#[test]
fn reuseport_keeps_feeding_a_crashed_worker() {
    let wl = Case::Case1.workload(CaseLoad::Light, WORKERS, 4 * SECOND, 9);
    let mut cfg = SimConfig::new(WORKERS, Mode::Reuseport);
    cfg.faults.push(Fault::Crash {
        worker: 2,
        at_ns: SECOND,
    });
    let r = hermes::simnet::run(&wl, cfg);
    // Stateless hashing keeps sending ~1/8 of SYNs into the void for the
    // remaining 3 seconds.
    let expected_stranded = wl.connection_count() as f64 / WORKERS as f64 * 0.75;
    assert!(
        r.unaccepted_connections as f64 > expected_stranded * 0.5,
        "stranded {} (expected ≈{expected_stranded})",
        r.unaccepted_connections
    );
}

#[test]
fn single_worker_hang_stalls_only_its_connections() {
    // Appendix C exception case 1: a hung worker stalls its own
    // connections; under Hermes, new traffic avoids it.
    let wl = Case::Case1.workload(CaseLoad::Light, WORKERS, 4 * SECOND, 21);
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.hermes.hang_threshold_ns = 20 * MILLI;
    cfg.faults.push(Fault::Hang {
        worker: 5,
        at_ns: SECOND,
        duration_ns: 500 * MILLI,
    });
    cfg.probe_interval_ns = Some(10 * MILLI);
    let r = hermes::simnet::run(&wl, cfg);
    // Probes to worker 5 during the hang are delayed; most others are not.
    let delayed = r.delayed_probes(200 * MILLI);
    assert!(delayed >= 1, "the hang must delay at least one probe");
    // One worker hung for 0.5s out of 8 workers × 4s: delayed probes stay
    // a small fraction of all probes.
    assert!(
        (delayed as f64) < 0.05 * r.probes_sent as f64,
        "delayed {delayed} of {}",
        r.probes_sent
    );
}

#[test]
fn degradation_reschedules_connections_in_simulation() {
    use hermes::simnet::degrade::DegradeConfig;
    // Appendix C exception case 1, end to end: a long-lived-connection
    // workload where one worker runs persistently hot (hang fault); with
    // degradation enabled, Hermes RSTs a slice of its connections and the
    // clients' reconnects land on healthy workers.
    let wl = Case::Case3.workload(CaseLoad::Heavy, WORKERS, 6 * SECOND, 8);
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.faults.push(Fault::Hang {
        worker: 3,
        at_ns: SECOND,
        duration_ns: 3 * SECOND,
    });
    cfg.degrade = Some(DegradeConfig {
        cpu_high_watermark: 0.9,
        sustain_intervals: 2,
        shed_fraction: 0.5,
        min_shed: 1,
    });
    let with = hermes::simnet::run(&wl, cfg.clone());
    cfg.degrade = None;
    let without = hermes::simnet::run(&wl, cfg);
    assert!(
        with.rst_reschedules > 0,
        "degradation never fired (hot worker util too low?)"
    );
    assert_eq!(without.rst_reschedules, 0);
    // Fig. 14's split counts each SYN the run placed once: a re-home
    // (`redirect`) places an existing connection, not a SYN.
    let syns = wl
        .conns
        .iter()
        .filter(|c| c.arrival_ns() <= wl.duration_ns)
        .count() as u64;
    assert_eq!(
        with.sched.directed_dispatches + with.sched.fallback_dispatches,
        syns
    );
    // Re-homing must not lose work: completions stay in the same ballpark
    // or better.
    assert!(
        with.completed_requests as f64 >= 0.95 * without.completed_requests as f64,
        "with {} vs without {}",
        with.completed_requests,
        without.completed_requests
    );
}

#[test]
fn degradation_policy_sheds_from_hot_worker() {
    use hermes::simnet::degrade::{DegradeAction, DegradeConfig, DegradeMonitor};
    // Glue test: feed simulator utilization into the degradation monitor.
    // Case 2 heavy applies its load immediately (case 3's long-lived
    // streams take tens of seconds to ramp), so the run-average
    // utilization of the hot workers crosses the watermark.
    let wl = Case::Case2.workload(CaseLoad::Heavy, WORKERS, 2 * SECOND, 4);
    let r = hermes::simnet::run(&wl, SimConfig::new(WORKERS, Mode::ExclusiveLifo));
    let mut monitor = DegradeMonitor::new(
        WORKERS,
        DegradeConfig {
            cpu_high_watermark: 0.8,
            sustain_intervals: 1,
            ..DegradeConfig::default()
        },
    );
    let mut actions = 0;
    for (w, rep) in r.workers.iter().enumerate() {
        let conns = rep.final_connections.max(0) as usize + rep.accepted as usize;
        if let DegradeAction::ResetConnections { .. } = monitor.observe(w, rep.utilization, conns) {
            actions += 1;
        }
    }
    assert!(
        actions >= 1,
        "exclusive heavy case3 must trip the degradation watermark"
    );
}
