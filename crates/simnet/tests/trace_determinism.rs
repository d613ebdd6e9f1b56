//! Tracing must be an observer, never an actor: a simulation produces a
//! byte-identical [`hermes_simnet::DeviceReport`] whether the flight
//! recorder is recording or not, every whole-run golden holds with it
//! recording, and the recorded event stream itself is reproducible
//! run-over-run because every simnet record is stamped with deterministic
//! sim time, not wall time.
//!
//! Every comparison runs in one process: the recorder's process-wide
//! switch (`hermes_trace::set_enabled`) flips between runs, and each test
//! leaves it off.

mod golden;

use hermes_simnet::{DeviceReport, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad};
use std::sync::{Mutex, PoisonError};

/// The recorder is process-global and these tests flip its switch;
/// serialize them so the harness's parallel test threads cannot observe
/// each other's state. A failing test poisons the lock; the others take it
/// anyway, so one failure reads as one failure.
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

/// `run` with recording switched on, then the records it left, the
/// recorder emptied and switched off again.
fn recorded<T>(run: impl FnOnce() -> T) -> (T, Vec<hermes_trace::TraceRecord>) {
    hermes_trace::reset();
    hermes_trace::set_enabled(true);
    let out = run();
    hermes_trace::set_enabled(false);
    let records = hermes_trace::drain();
    hermes_trace::reset();
    (out, records)
}

#[test]
fn report_is_byte_identical_with_tracing_on_and_off() {
    let _guard = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    for (mode, seed) in [
        (Mode::Hermes, 42u64),
        (Mode::Hermes, 7),
        (Mode::Reuseport, 42),
        (Mode::ExclusiveLifo, 13),
    ] {
        let (traced, _) = recorded(|| run_case(mode, 6, seed));
        let silent = run_case(mode, 6, seed);
        assert_eq!(
            fingerprint(&traced),
            fingerprint(&silent),
            "{mode:?} seed {seed}: tracing changed the simulation"
        );
    }
}

/// `golden_fingerprint`'s recorded runs, recording: the recorder moves no
/// figure a run is pinned by.
#[test]
fn recorded_runs_match_their_goldens_while_recording() {
    let _guard = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    for (what, workload, cfg, want) in golden::recorded_runs() {
        let workload = workload();
        let (got, records) = recorded(|| golden::run_cfg(&workload, cfg));
        assert!(!records.is_empty(), "{what}: nothing recorded");
        assert_eq!(got, want, "{what}, recording");
    }
}

#[test]
fn traced_event_stream_is_reproducible() {
    let _guard = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let collect = || recorded(|| run_case(Mode::Hermes, 4, 99)).1;
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

/// A simulated worker's scheduler pass traces on that worker's lane, as a
/// load balancer worker's does: the pass runs from the worker's loop, and
/// `CONTROL_LANE` is for callers with no loop of their own.
#[test]
fn scheduler_passes_trace_on_the_running_workers_lane() {
    let _guard = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let (_, records) = recorded(|| run_case(Mode::Hermes, 4, 42));
    let passes: Vec<u32> = records
        .iter()
        .filter(|r| r.kind == hermes_trace::EventKind::SchedDecision)
        .map(|r| r.worker)
        .collect();
    assert!(!passes.is_empty(), "a Hermes run traces its passes");
    for lane in 0..4 {
        assert!(passes.contains(&lane), "no pass on worker {lane}'s lane");
    }
    assert!(
        passes.iter().all(|&lane| lane < 4),
        "a pass traced off the worker lanes"
    );
}

/// A dispatch record carries the flow hash and the worker the decision
/// chose, as `EventKind::SimDispatch` documents: in a fleet run its lane is
/// the device's, so the payload is the only place the worker is kept.
#[test]
fn dispatch_records_carry_the_chosen_worker() {
    let _guard = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let (_, records) = recorded(|| run_case(Mode::Hermes, 4, 42));
    let dispatches: Vec<_> = records
        .iter()
        .filter(|r| r.kind == hermes_trace::EventKind::SimDispatch)
        .collect();
    assert!(!dispatches.is_empty(), "a Hermes run traces its dispatches");
    for r in dispatches {
        assert!(r.b < 4, "dispatch to worker {} of 4", r.b);
        assert_eq!(
            r.b,
            u64::from(r.worker),
            "dispatch traced on another worker's lane"
        );
    }
}

#[test]
fn disabled_recorder_stays_empty() {
    let _guard = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    hermes_trace::reset();
    let _ = run_case(Mode::Hermes, 4, 5);
    assert!(
        hermes_trace::drain().is_empty(),
        "switched-off recorder caught events"
    );
    assert_eq!(hermes_trace::dropped_events(), 0);
}
