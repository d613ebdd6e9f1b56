//! Simulator throughput harness: what the event engine costs and what Hermes
//! costs per worker loop, each as a ratio of two things this process
//! measured in alternation. A full run records them in
//! `results/BENCH_simnet.json`.
//!
//! * **The event engine.** Case 3 medium (low CPS, long-lived connections —
//!   the workload with the most events pending at once) runs under both
//!   engines, the hierarchical timer wheel and the binary-heap reference.
//!   Both execute the exact same event sequence
//!   (`crates/simnet/tests/engine_equivalence.rs`), which this harness
//!   re-checks on the event and peak-pending counts, so the wall-time ratio
//!   isolates the engine.
//! * **The per-loop Hermes tax.** Case 1 heavy — Table 3's high-CPS workload,
//!   a scheduler pass per loop iteration of every worker — runs under
//!   `Mode::Hermes` and under `Mode::Reuseport`; the wall-time ratio is what
//!   WST hooks, Algorithm 1, bitmap sync and Algorithm 2 cost the simulator.
//!
//! Flags: `--smoke` (3 s horizon and 16 rounds for a full run's 5 s and 32;
//! never writes), `--out PATH`.
//! EXPERIMENTS.md "Gates that measure both sides" has the runs the two bounds
//! were read off and the seeded regressions they catch.

use hermes_bench::gate::{Clock, Gates, Json, Samples};
use hermes_metrics::NANOS_PER_SEC;
use hermes_simnet::{DeviceReport, Engine, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad, Workload};

const SEED: u64 = 42;
const WORKERS: usize = 32;
/// The wheel may cost at most this multiple of the heap's wall time.
const WHEEL_OVER_HEAP_CEILING: f64 = 1.0;
/// Case 1 heavy under Hermes may cost at most this multiple of reuseport's.
const HERMES_OVER_REUSEPORT_CEILING: f64 = 2.3;

/// One simulation, timed from the first event to the last: building the
/// simulator is off the clock.
fn run(clock: &mut Clock, wl: &Workload, mode: Mode, engine: Engine) -> DeviceReport {
    let mut cfg = SimConfig::new(WORKERS, mode);
    cfg.engine = engine;
    let sim = clock.untimed(|| Simulator::new(cfg, wl));
    sim.run()
}

/// Print one side's row and add it to `rows` under its name.
fn row(rows: Json, side: &str, samples: &Samples, report: &DeviceReport) -> Json {
    let events = report.events_processed;
    let row = Json::throughput(side, "event", events, &mut samples.of(side))
        .int("peak_pending_events", report.peak_pending_events);
    rows.block(side, row)
}

fn main() {
    // Many short rounds, not a few long ones: this host changes speed within
    // a second, and a round's two sides only see the same host when they run
    // within a second of each other. At a 10 s horizon (1.5 s a side) the
    // same binary's median ratio wandered 0.84–1.08 over 14 runs; at these
    // horizons it stays within 0.84–0.93. A full run is longer, not coarser.
    let mut gates = Gates::from_args("simnet_throughput", "results/BENCH_simnet.json", 16, 32);
    let horizon_ns = if gates.smoke() { 3 } else { 5 } * NANOS_PER_SEC;
    let (mut heap, mut wheel, mut hermes, mut reuseport) = (None, None, None, None);

    let case3 = Case::Case3.workload(CaseLoad::Medium, WORKERS, horizon_ns, SEED);
    let engines = gates.alternate(&mut [
        ("heap", &mut |c| {
            heap = Some(run(c, &case3, Mode::Hermes, Engine::Heap))
        }),
        ("wheel", &mut |c| {
            wheel = Some(run(c, &case3, Mode::Hermes, Engine::Wheel))
        }),
    ]);
    let case1 = Case::Case1.workload(CaseLoad::Heavy, WORKERS, horizon_ns, SEED);
    let modes = gates.alternate(&mut [
        ("case1_hermes", &mut |c| {
            hermes = Some(run(c, &case1, Mode::Hermes, Engine::Wheel))
        }),
        ("case1_reuseport", &mut |c| {
            reuseport = Some(run(c, &case1, Mode::Reuseport, Engine::Wheel))
        }),
    ]);
    let [heap, wheel, hermes, reuseport] =
        [heap, wheel, hermes, reuseport].map(|r| r.expect("every side ran"));

    println!(" Case3-Medium / Hermes / {WORKERS} workers, both event engines:");
    let engine_rows = row(Json::new(), "heap", &engines, &heap);
    let engine_rows = row(engine_rows, "wheel", &engines, &wheel);
    println!(" Case1-Heavy / {WORKERS} workers, Hermes against reuseport (wheel engine):");
    let mode_rows = row(Json::new(), "case1_hermes", &modes, &hermes);
    let mode_rows = row(mode_rows, "case1_reuseport", &modes, &reuseport);

    let counts = |r: &DeviceReport| (r.events_processed, r.peak_pending_events);
    gates.check(
        "both engines run the same events",
        counts(&heap) == counts(&wheel),
        format!(
            "(events, peak pending): heap {:?}, wheel {:?}",
            counts(&heap),
            counts(&wheel)
        ),
    );
    let mut wheel_over_heap = engines.ratio("wheel", "heap");
    gates.at_most(
        "wheel / heap wall time, Case 3 medium",
        &mut wheel_over_heap,
        WHEEL_OVER_HEAP_CEILING,
    );
    let mut hermes_over_reuseport = modes.ratio("case1_hermes", "case1_reuseport");
    gates.at_most(
        "Hermes / reuseport wall time, Case 1 heavy",
        &mut hermes_over_reuseport,
        HERMES_OVER_REUSEPORT_CEILING,
    );
    gates.finish(
        Json::new()
            .int("workers", WORKERS as u64)
            .int("seed", SEED)
            .int("horizon_ns", horizon_ns)
            .block("engines", engine_rows)
            .timed("wall_ratio_wheel_over_heap", &mut wheel_over_heap)
            .block("case1_heavy", mode_rows)
            .timed(
                "wall_ratio_hermes_over_reuseport",
                &mut hermes_over_reuseport,
            ),
    )
}
