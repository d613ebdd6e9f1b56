//! Simulator throughput harness: what Hermes costs per worker loop, as the
//! ratio of two simulations this process timed in alternation. A full run
//! records it in `results/BENCH_simnet.json`.
//!
//! Case 1 heavy — Table 3's high-CPS workload, a scheduler pass per loop
//! iteration of every worker — runs under `Mode::Hermes` and under
//! `Mode::Reuseport`; the wall-time ratio is what WST hooks, Algorithm 1,
//! bitmap sync and Algorithm 2 cost the simulator. Each side's events per
//! second is the simulator's own throughput on that traffic.
//!
//! The run also reports, without gating it, what generating that input
//! costs: nanoseconds per connection at the median of as many rounds, each
//! regenerating the workload, so a change to the generator has a figure
//! that does not ride on the end-to-end benchmark's `setup_s`.
//!
//! Flags: `--smoke` (3 s horizon and 16 rounds for a full run's 5 s and 32;
//! never writes), `--out PATH`.
//! EXPERIMENTS.md "Gates that measure both sides" has the runs the bound
//! was read off and the seeded regressions it catches.

use hermes_bench::gate::{Clock, Gates, Json, Samples};
use hermes_metrics::NANOS_PER_SEC;
use hermes_simnet::{DeviceReport, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad, Workload};

const SEED: u64 = 42;
const WORKERS: usize = 32;
/// Case 1 heavy under Hermes may cost at most this multiple of reuseport's.
const HERMES_OVER_REUSEPORT_CEILING: f64 = 2.3;

/// One simulation, timed from the first event to the last: building the
/// simulator is off the clock.
fn run(clock: &mut Clock, wl: &Workload, mode: Mode) -> DeviceReport {
    let sim = clock.untimed(|| Simulator::new(SimConfig::new(WORKERS, mode), wl));
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
    // within a second of each other. A full run is longer, not coarser.
    let mut gates = Gates::from_args("simnet_throughput", "results/BENCH_simnet.json", 16, 32);
    let horizon_ns = if gates.smoke() { 3 } else { 5 } * NANOS_PER_SEC;
    let (mut hermes, mut reuseport) = (None, None);

    let case1 = Case::Case1.workload(CaseLoad::Heavy, WORKERS, horizon_ns, SEED);
    let modes = gates.alternate(&mut [
        ("case1_hermes", &mut |c| {
            hermes = Some(run(c, &case1, Mode::Hermes))
        }),
        ("case1_reuseport", &mut |c| {
            reuseport = Some(run(c, &case1, Mode::Reuseport))
        }),
    ]);
    let [hermes, reuseport] = [hermes, reuseport].map(|r| r.expect("every side ran"));

    let generation = gates.alternate(&mut [("case1_generate", &mut |_| {
        std::hint::black_box(Case::Case1.workload(CaseLoad::Heavy, WORKERS, horizon_ns, SEED));
    })]);

    println!(" Case1-Heavy / {WORKERS} workers, Hermes against reuseport:");
    let mode_rows = row(Json::new(), "case1_hermes", &modes, &hermes);
    let mode_rows = row(mode_rows, "case1_reuseport", &modes, &reuseport);
    let conns = case1.connection_count() as u64;
    let mut generate_secs = generation.of("case1_generate");
    let generate_row = Json::throughput("case1_generate", "connection", conns, &mut generate_secs);
    gates.report(
        "Case 1 heavy generation, ns per connection",
        format!(
            "{:.1}  (q1 {:.1}, q3 {:.1}, n {})",
            generate_secs.p50() * 1e9 / conns as f64,
            generate_secs.quantile(0.25) * 1e9 / conns as f64,
            generate_secs.quantile(0.75) * 1e9 / conns as f64,
            generate_secs.count()
        ),
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
            .block(
                "case1_heavy",
                mode_rows.block("case1_generate", generate_row),
            )
            .timed(
                "wall_ratio_hermes_over_reuseport",
                &mut hermes_over_reuseport,
            ),
    )
}
