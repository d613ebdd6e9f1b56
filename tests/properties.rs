//! Workspace-level property tests: invariants that must hold across crate
//! boundaries for arbitrary inputs. Each runs 64 seeded cases.

use hermes::prelude::*;
use hermes_metrics::rng::for_each_case;

/// The verified bytecode and the native oracle are decision-identical
/// for any bitmap, hash, and group size — the fidelity contract of the
/// eBPF substrate.
#[test]
fn bytecode_oracle_equivalence() {
    for_each_case(64, |g| {
        let (bm, workers) = (WorkerBitmap(g.next_u64()), 1 + g.index(64));
        let native = ConnDispatcher::new(workers);
        let group = ReuseportGroup::new(workers);
        group.sync_bitmap(bm);
        for _ in 0..1 + g.index(19) {
            let h = g.next_u64() as u32;
            assert_eq!(native.dispatch(bm, h), group.dispatch(h), "{bm:?} {h:#x}");
        }
    });
}

/// Scheduling is monotone in load: making one worker strictly busier
/// can never get it *added* to the bitmap.
#[test]
fn scheduling_monotonicity() {
    for_each_case(64, |g| {
        let conns: Vec<i64> = (0..2 + g.index(14)).map(|_| g.index(100) as i64).collect();
        let (idx, extra) = (g.index(conns.len()), 1 + g.index(499) as i64);
        let wst = Wst::new(conns.len());
        for (w, &c) in conns.iter().enumerate() {
            wst.worker(w).enter_loop(1_000_000);
            wst.worker(w).conn_delta(c);
        }
        let sched = Scheduler::new(SchedConfig::default());
        let before = sched.schedule(&wst, 1_100_000).bitmap;
        wst.worker(idx).conn_delta(extra);
        let after = sched.schedule(&wst, 1_100_000).bitmap;
        if !before.contains(idx) {
            assert!(
                !after.contains(idx),
                "busier worker re-admitted: {conns:?}, worker {idx} +{extra}"
            );
        }
    });
}

/// The simulator conserves work: every request is completed or
/// accounted incomplete, and accepts never exceed arrivals.
#[test]
fn simulator_conservation() {
    for_each_case(64, |g| {
        let (seed, workers) = (g.next_u64(), 2 + g.index(7));
        let wl = Case::Case1.workload(CaseLoad::Light, workers, 300_000_000, seed);
        let total_requests = wl.request_count() as u64;
        let total_conns = wl.connection_count() as u64;
        for mode in [Mode::ExclusiveLifo, Mode::Reuseport, Mode::Hermes] {
            let r = hermes::simnet::run(&wl, SimConfig::new(workers, mode));
            assert!(r.accepted_connections <= total_conns);
            assert!(r.accepted_connections + r.unaccepted_connections >= total_conns);
            assert!(r.completed_requests <= total_requests);
            assert!(
                r.completed_requests + r.incomplete_requests >= total_requests,
                "{mode:?}: {} + {} < {total_requests}",
                r.completed_requests,
                r.incomplete_requests
            );
            let accepted_by_workers: u64 = r.workers.iter().map(|w| w.accepted).sum();
            assert_eq!(accepted_by_workers, r.accepted_connections);
        }
    });
}

/// Workload generation is a pure function of its seed.
#[test]
fn workload_determinism() {
    for_each_case(64, |g| {
        let seed = g.next_u64();
        let a = Case::Case2.workload(CaseLoad::Light, 4, 200_000_000, seed);
        let b = Case::Case2.workload(CaseLoad::Light, 4, 200_000_000, seed);
        assert_eq!(a.connection_count(), b.connection_count());
        assert_eq!(a.conns.first(), b.conns.first());
        assert_eq!(a.conns.last(), b.conns.last());
    });
}

/// Simulation is deterministic: same workload + config ⇒ same report.
#[test]
fn simulation_determinism() {
    for_each_case(64, |g| {
        let wl = Case::Case3.workload(CaseLoad::Light, 4, 300_000_000, g.next_u64());
        let run = || hermes::simnet::run(&wl, SimConfig::new(4, Mode::Hermes));
        let (a, b) = (run(), run());
        assert_eq!(a.completed_requests, b.completed_requests);
        assert_eq!(a.request_latency.p99(), b.request_latency.p99());
        assert_eq!(a.sched.calls, b.sched.calls);
    });
}
