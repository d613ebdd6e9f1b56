//! Tracing must be an observer, never an actor: a simulation produces a
//! byte-identical [`hermes_simnet::DeviceReport`] whether the flight
//! recorder is recording or not, and (with the `trace` feature on) the
//! recorded event stream itself is reproducible run-over-run because every
//! simnet record is stamped with deterministic sim time, not wall time.
//!
//! The enabled/disabled comparison runs in one process against the same
//! binary: the recorder's runtime switch (`hermes_trace::set_enabled`)
//! flips between runs, which exercises the exact code path the `trace`
//! feature compiles in. With the feature off both runs are trivially the
//! compiled-out path — the test then pins that the macros really are
//! behavior-free no-ops.

use hermes_simnet::{DeviceReport, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad};
use std::sync::Mutex;

/// The recorder is process-global and these tests flip its runtime
/// switch; serialize them so the harness's parallel test threads cannot
/// observe each other's state.
static RECORDER: Mutex<()> = Mutex::new(());

/// Same fingerprint the run-determinism suite uses: `Debug` covers
/// every observable a run can legitimately differ on.
fn fingerprint(r: &DeviceReport) -> String {
    format!("{r:?}")
}

fn run_case(mode: Mode, workers: usize, seed: u64) -> DeviceReport {
    let wl = Case::Case3.workload(CaseLoad::Medium, workers, 1_500_000_000, seed);
    let cfg = SimConfig::new(workers, mode);
    Simulator::new(cfg, &wl).run()
}

/// Drain and reset the global recorder so one run's events (and ring-full
/// drops) cannot leak into the next measurement.
fn reset_recorder() {
    hermes_trace::reset();
}

#[test]
fn report_is_byte_identical_with_tracing_on_and_off() {
    let _guard = RECORDER.lock().unwrap();
    for (mode, seed) in [
        (Mode::Hermes, 42u64),
        (Mode::Hermes, 7),
        (Mode::Reuseport, 42),
        (Mode::ExclusiveLifo, 13),
    ] {
        reset_recorder();
        hermes_trace::set_enabled(true);
        let traced = run_case(mode, 6, seed);

        reset_recorder();
        hermes_trace::set_enabled(false);
        let silent = run_case(mode, 6, seed);

        hermes_trace::set_enabled(true);
        reset_recorder();

        assert_eq!(
            fingerprint(&traced),
            fingerprint(&silent),
            "{mode:?} seed {seed}: tracing changed the simulation"
        );
    }
}

#[test]
fn traced_event_stream_is_reproducible() {
    let _guard = RECORDER.lock().unwrap();
    if !hermes_trace::ENABLED {
        // Feature off: the recorder never sees events; nothing to compare.
        return;
    }
    let collect = || {
        reset_recorder();
        hermes_trace::set_enabled(true);
        let _ = run_case(Mode::Hermes, 4, 99);
        let records = hermes_trace::drain();
        reset_recorder();
        records
    };
    let a = collect();
    let b = collect();
    assert!(
        !a.is_empty(),
        "an instrumented Hermes run must emit sim events"
    );
    assert_eq!(a, b, "same-seed runs traced different event streams");
    // Sim events carry sim time: the whole stream replays inside the
    // simulated horizon, proof no wall-clock timestamp snuck in.
    assert!(a.iter().all(|r| r.ts <= 1_500_000_000));
}

#[test]
fn disabled_recorder_stays_empty() {
    let _guard = RECORDER.lock().unwrap();
    reset_recorder();
    hermes_trace::set_enabled(false);
    let _ = run_case(Mode::Hermes, 4, 5);
    let records = hermes_trace::drain();
    let dropped = hermes_trace::dropped_events();
    hermes_trace::set_enabled(true);
    reset_recorder();
    assert!(
        records.is_empty(),
        "runtime-disabled recorder caught events"
    );
    assert_eq!(dropped, 0);
}
