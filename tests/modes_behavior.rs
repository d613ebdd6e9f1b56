//! Cross-crate behavioural invariants: the paper's qualitative claims,
//! asserted over full workload → simulator runs.

use hermes::prelude::*;

const WORKERS: usize = 8;
const SECOND: u64 = 1_000_000_000;

fn run(case: Case, load: CaseLoad, mode: Mode) -> DeviceReport {
    let wl = case.workload(load, WORKERS, 4 * SECOND, 77);
    hermes::simnet::run(&wl, SimConfig::new(WORKERS, mode))
}

#[test]
fn case3_exclusive_concentrates_connections() {
    // §6.2 Case 3: LIFO wakeup concentrates long-lived connections.
    let excl = run(Case::Case3, CaseLoad::Light, Mode::ExclusiveLifo);
    let herm = run(Case::Case3, CaseLoad::Light, Mode::Hermes);
    assert!(
        excl.balance.conn_sd.mean() > 4.0 * herm.balance.conn_sd.mean(),
        "exclusive conn SD {} vs hermes {}",
        excl.balance.conn_sd.mean(),
        herm.balance.conn_sd.mean()
    );
}

#[test]
fn case2_reuseport_queues_behind_heavy_tasks() {
    // §6.2 Case 2: stateless hashing keeps feeding busy workers.
    let reuse = run(Case::Case2, CaseLoad::Medium, Mode::Reuseport);
    let herm = run(Case::Case2, CaseLoad::Medium, Mode::Hermes);
    assert!(
        reuse.avg_latency_ms() > 1.5 * herm.avg_latency_ms(),
        "reuseport {} ms vs hermes {} ms",
        reuse.avg_latency_ms(),
        herm.avg_latency_ms()
    );
}

#[test]
fn case1_heavy_exclusive_degrades_hermes_leads() {
    // §6.2 Case 1: O(#ports) dispatch overhead sinks exclusive at high CPS.
    let excl = run(Case::Case1, CaseLoad::Heavy, Mode::ExclusiveLifo);
    let herm = run(Case::Case1, CaseLoad::Heavy, Mode::Hermes);
    let reuse = run(Case::Case1, CaseLoad::Heavy, Mode::Reuseport);
    assert!(herm.avg_latency_ms() < reuse.avg_latency_ms());
    assert!(
        excl.avg_latency_ms() > 2.0 * herm.avg_latency_ms(),
        "exclusive {} vs hermes {}",
        excl.avg_latency_ms(),
        herm.avg_latency_ms()
    );
}

#[test]
fn hermes_is_never_catastrophic() {
    // The paper's summary: Hermes performs close to the best mode in every
    // case; the others each have a catastrophic case. Tolerance 2x on the
    // best average latency.
    for case in Case::all() {
        let reports: Vec<(Mode, DeviceReport)> = Mode::paper_trio()
            .into_iter()
            .map(|m| (m, run(case, CaseLoad::Medium, m)))
            .collect();
        let best = reports
            .iter()
            .map(|(_, r)| r.avg_latency_ms())
            .fold(f64::MAX, f64::min);
        let hermes = reports
            .iter()
            .find(|(m, _)| *m == Mode::Hermes)
            .map(|(_, r)| r.avg_latency_ms())
            .unwrap();
        assert!(
            hermes <= 3.0 * best,
            "{case:?}: hermes {hermes} vs best {best}"
        );
    }
}

#[test]
fn throughput_is_conserved_under_light_load() {
    // At light load every mode must complete the whole workload: requests
    // are neither lost nor double-counted.
    let wl = Case::Case1.workload(CaseLoad::Light, WORKERS, 2 * SECOND, 5);
    let total = wl.request_count() as u64;
    for mode in Mode::paper_trio() {
        let r = hermes::simnet::run(&wl, SimConfig::new(WORKERS, mode));
        assert!(
            r.completed_requests + r.incomplete_requests >= total,
            "{mode:?}: {} + {} < {total}",
            r.completed_requests,
            r.incomplete_requests
        );
        assert!(
            r.completed_requests as f64 > 0.98 * total as f64,
            "{mode:?} completed only {}",
            r.completed_requests
        );
    }
}

#[test]
fn sched_timing_ablation_loop_end_beats_loop_start() {
    // §5.3.2: scheduling at the loop start observes stale status (a worker
    // looks idle right before taking a burst); the paper places it at the
    // end. The ablation must not *improve* on the paper's choice.
    let wl = Case::Case2.workload(CaseLoad::Heavy, WORKERS, 4 * SECOND, 13);
    let end = hermes::simnet::run(&wl, SimConfig::new(WORKERS, Mode::Hermes));
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    cfg.sched_at_loop_start = true;
    let start = hermes::simnet::run(&wl, cfg);
    assert!(
        end.p99_latency_ms() <= start.p99_latency_ms() * 1.25,
        "loop-end {} ms should not be much worse than loop-start {} ms",
        end.p99_latency_ms(),
        start.p99_latency_ms()
    );
}
