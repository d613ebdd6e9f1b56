//! Heap-vs-wheel event-engine equivalence and whole-run determinism.
//!
//! The timer wheel replaces the binary heap as the simulator's event
//! queue; both engines promise the *same* total order — timestamp first,
//! insertion sequence as the tie-break — so any workload must produce a
//! byte-identical [`hermes_simnet::DeviceReport`] under either engine.
//! These tests pin that contract at the whole-simulation level (the
//! queue-level interleaving check lives in `event_queue.rs` unit tests).
//!
//! Structure note: the property bodies live in plain helper functions
//! that the fixed-seed `#[test]`s call directly and two seeded sweeps
//! drive over drawn parameters.

use hermes_metrics::rng::for_each_case;
use hermes_simnet::{DeviceReport, Engine, Fault, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad};

/// Everything a run can legitimately differ on is covered by `Debug`:
/// latency histograms, per-worker accepted counts, balance series,
/// scheduler stats, events_processed. Byte-identical Debug output is the
/// strongest cheap fingerprint we have.
fn fingerprint(r: &DeviceReport) -> String {
    format!("{r:?}")
}

/// One workload + configuration point (everything but the engine).
#[derive(Clone, Copy, Debug)]
struct Scenario {
    case: Case,
    load: CaseLoad,
    mode: Mode,
    workers: usize,
    duration_ns: u64,
    seed: u64,
}

fn run_with(sc: Scenario, engine: Engine, faults: &[Fault]) -> DeviceReport {
    let wl = sc
        .case
        .workload(sc.load, sc.workers, sc.duration_ns, sc.seed);
    let mut cfg = SimConfig::new(sc.workers, sc.mode);
    cfg.engine = engine;
    cfg.faults = faults.to_vec();
    Simulator::new(cfg, &wl).run()
}

/// Property body: the heap and wheel engines produce byte-identical
/// reports for the same workload and configuration.
fn assert_engines_equivalent(sc: Scenario, faults: &[Fault]) {
    let Scenario {
        case,
        load,
        mode,
        seed,
        ..
    } = sc;
    let heap = run_with(sc, Engine::Heap, faults);
    let wheel = run_with(sc, Engine::Wheel, faults);

    // Targeted comparisons first for readable failures.
    assert_eq!(
        heap.events_processed, wheel.events_processed,
        "{case:?}/{load:?}/{mode:?} seed {seed}: event counts diverge"
    );
    assert_eq!(
        heap.completed_requests, wheel.completed_requests,
        "{case:?}/{load:?}/{mode:?} seed {seed}: completed requests diverge"
    );
    assert_eq!(
        heap.accepted_connections, wheel.accepted_connections,
        "{case:?}/{load:?}/{mode:?} seed {seed}: accepted connections diverge"
    );
    let heap_accepts: Vec<u64> = heap.workers.iter().map(|w| w.accepted).collect();
    let wheel_accepts: Vec<u64> = wheel.workers.iter().map(|w| w.accepted).collect();
    assert_eq!(
        heap_accepts, wheel_accepts,
        "{case:?}/{load:?}/{mode:?} seed {seed}: per-worker accepts diverge"
    );
    assert_eq!(
        heap.request_latency.p50(),
        wheel.request_latency.p50(),
        "{case:?}/{load:?}/{mode:?} seed {seed}: p50 diverges"
    );
    assert_eq!(
        heap.request_latency.p99(),
        wheel.request_latency.p99(),
        "{case:?}/{load:?}/{mode:?} seed {seed}: p99 diverges"
    );

    // Then the whole report, byte for byte.
    assert_eq!(
        fingerprint(&heap),
        fingerprint(&wheel),
        "{case:?}/{load:?}/{mode:?} seed {seed}: reports diverge"
    );
}

/// Property body: one engine, one seed, two runs — identical reports.
fn assert_run_deterministic(engine: Engine, seed: u64) {
    let sc = Scenario {
        case: Case::Case3,
        load: CaseLoad::Medium,
        mode: Mode::Hermes,
        workers: 6,
        duration_ns: 2_000_000_000,
        seed,
    };
    let a = run_with(sc, engine, &[]);
    let b = run_with(sc, engine, &[]);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "{engine:?} seed {seed}: same-seed runs differ"
    );
}

const CASES: [Case; 4] = [Case::Case1, Case::Case2, Case::Case3, Case::Case4];
const LOADS: [CaseLoad; 3] = [CaseLoad::Light, CaseLoad::Medium, CaseLoad::Heavy];

#[test]
fn engines_agree_on_hermes_across_cases() {
    for (i, case) in CASES.into_iter().enumerate() {
        assert_engines_equivalent(
            Scenario {
                case,
                load: CaseLoad::Light,
                mode: Mode::Hermes,
                workers: 4,
                duration_ns: 1_500_000_000,
                seed: 11 + i as u64,
            },
            &[],
        );
    }
}

#[test]
fn engines_agree_on_every_dispatch_mode() {
    for mode in [
        Mode::ExclusiveLifo,
        Mode::RoundRobin,
        Mode::WakeAll,
        Mode::IoUringFifo,
        Mode::Reuseport,
        Mode::Hermes,
        Mode::UserspaceDispatcher,
    ] {
        assert_engines_equivalent(
            Scenario {
                case: Case::Case3,
                load: CaseLoad::Light,
                mode,
                workers: 4,
                duration_ns: 1_000_000_000,
                seed: 7,
            },
            &[],
        );
    }
}

#[test]
fn engines_agree_on_the_benchmark_scenario() {
    // The exact scenario `simnet_throughput` measures (shortened horizon).
    assert_engines_equivalent(
        Scenario {
            case: Case::Case3,
            load: CaseLoad::Medium,
            mode: Mode::Hermes,
            workers: 8,
            duration_ns: 2_000_000_000,
            seed: 42,
        },
        &[],
    );
}

#[test]
fn engines_agree_under_faults() {
    let faults = [
        Fault::Crash {
            worker: 1,
            at_ns: 400_000_000,
        },
        Fault::Hang {
            worker: 2,
            at_ns: 200_000_000,
            duration_ns: 600_000_000,
        },
    ];
    assert_engines_equivalent(
        Scenario {
            case: Case::Case2,
            load: CaseLoad::Medium,
            mode: Mode::Hermes,
            workers: 4,
            duration_ns: 1_500_000_000,
            seed: 13,
        },
        &faults,
    );
}

#[test]
fn engines_agree_across_seeds_and_loads() {
    for (i, load) in LOADS.into_iter().enumerate() {
        assert_engines_equivalent(
            Scenario {
                case: Case::Case1,
                load,
                mode: Mode::Reuseport,
                workers: 3,
                duration_ns: 800_000_000,
                seed: 100 + i as u64,
            },
            &[],
        );
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    for seed in [1, 42, 9999] {
        assert_run_deterministic(Engine::Wheel, seed);
        assert_run_deterministic(Engine::Heap, seed);
    }
}

// Seeded sweeps over the same property bodies (8 whole-simulation pairs
// each: a case is two 0.7 s runs).
#[test]
fn engines_agree_on_random_workloads() {
    for_each_case(8, |g| {
        assert_engines_equivalent(
            Scenario {
                case: CASES[g.index(4)],
                load: LOADS[g.index(3)],
                mode: Mode::Hermes,
                workers: 2 + g.index(4),
                duration_ns: 700_000_000,
                seed: g.next_u64() % 1_000_000,
            },
            &[],
        );
    });
}

#[test]
fn runs_are_deterministic_for_random_seeds() {
    for_each_case(8, |g| {
        assert_run_deterministic(Engine::Wheel, g.next_u64() % 1_000_000)
    });
}
