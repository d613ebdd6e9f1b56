//! Quality-side ablations: how the paper's design choices affect
//! *outcomes* (latency, balance), complementing the cost-side benches in
//! `benches/ablations.rs`.
//!
//! 1. **Filter order** (§5.2.2): Time → Connections → PendingEvents vs
//!    permutations.
//! 2. **Scheduling timing** (§5.3.2): loop end vs loop start.
//! 3. **Fallback guard** (§5.3.2 / Algorithm 2): `n > 1` vs honouring
//!    singleton candidate sets (`n > 0`), which funnels traffic.
//! 4. **Metric choice** (§5.2.1): all three metrics vs dropping the
//!    connection filter (events only) or the event filter (conns only).

use hermes_bench::{banner, fmt, DURATION_NS, SEED, WORKERS};
use hermes_core::sched::FilterStage;
use hermes_metrics::table::Table;
use hermes_simnet::{Mode, SimConfig};
use hermes_workload::{Case, CaseLoad};

fn run(case: Case, load: CaseLoad, tweak: impl FnOnce(&mut SimConfig)) -> (f64, f64, f64) {
    let wl = case.workload(load, WORKERS, DURATION_NS, SEED);
    let mut cfg = SimConfig::new(WORKERS, Mode::Hermes);
    tweak(&mut cfg);
    let r = hermes_simnet::run(&wl, cfg);
    (
        r.avg_latency_ms(),
        r.p99_latency_ms(),
        r.balance.conn_sd.mean(),
    )
}

fn main() {
    banner(
        "Ablation (quality)",
        "design choices of §5.2–§5.4 on outcomes",
    );

    let mut t = Table::new("1) Filter order (Case 2 heavy: hang detection matters most)")
        .header(["order", "Avg ms", "P99 ms", "conn SD"]);
    for (name, stages) in [
        (
            "time->conn->event (paper)",
            vec![
                FilterStage::Time,
                FilterStage::Connections,
                FilterStage::PendingEvents,
            ],
        ),
        (
            "event->conn->time",
            vec![
                FilterStage::PendingEvents,
                FilterStage::Connections,
                FilterStage::Time,
            ],
        ),
        (
            "no time filter",
            vec![FilterStage::Connections, FilterStage::PendingEvents],
        ),
    ] {
        let (avg, p99, sd) = run(Case::Case2, CaseLoad::Heavy, |c| {
            c.hermes.stages = stages;
        });
        t.row([name.to_string(), fmt(avg), fmt(p99), fmt(sd)]);
    }
    println!("{t}");

    let mut t = Table::new("2) Scheduling timing (Case 2 heavy)")
        .header(["timing", "Avg ms", "P99 ms", "conn SD"]);
    for (name, at_start) in [("loop end (paper)", false), ("loop start", true)] {
        let (avg, p99, sd) = run(Case::Case2, CaseLoad::Heavy, |c| {
            c.sched_at_loop_start = at_start;
        });
        t.row([name.to_string(), fmt(avg), fmt(p99), fmt(sd)]);
    }
    println!("{t}");

    let mut t = Table::new("3) Kernel fallback guard (Case 1 heavy: high CPS)")
        .header(["guard", "Avg ms", "P99 ms", "conn SD"]);
    for (name, min) in [("n > 1 (paper)", 1u32), ("n > 0 (honour singletons)", 0)] {
        let (avg, p99, sd) = run(Case::Case1, CaseLoad::Heavy, |c| {
            c.hermes.min_workers = min;
        });
        t.row([name.to_string(), fmt(avg), fmt(p99), fmt(sd)]);
    }
    println!("{t}");

    let mut t = Table::new("4) Metric choice (Case 3 heavy: long-lived connections)")
        .header(["metrics", "Avg ms", "P99 ms", "conn SD"]);
    for (name, stages) in [
        (
            "all three (paper)",
            vec![
                FilterStage::Time,
                FilterStage::Connections,
                FilterStage::PendingEvents,
            ],
        ),
        (
            "events only",
            vec![FilterStage::Time, FilterStage::PendingEvents],
        ),
        (
            "connections only",
            vec![FilterStage::Time, FilterStage::Connections],
        ),
    ] {
        let (avg, p99, sd) = run(Case::Case3, CaseLoad::Heavy, |c| {
            c.hermes.stages = stages;
        });
        t.row([name.to_string(), fmt(avg), fmt(p99), fmt(sd)]);
    }
    println!("{t}");
    println!("Reading the tables: each first row is the paper's choice. The choices");
    println!("move Case 2 heavy by a few percent to low tens of percent and the");
    println!("others hardly at all (our scheduler syncs ~20k/s, so staleness windows");
    println!("are tiny), and the n>1 guard rarely triggers when bitmaps stay wide —");
    println!("consistent with the paper presenting them as robustness guards rather");
    println!("than perf levers. EXPERIMENTS.md reads the rows and records how they");
    println!("moved with the random stream.");
}
