//! Differential test of the scheduler kernel against Algorithm 1 written
//! out literally.
//!
//! `reference` below is the cascade as the paper states it and as this crate
//! computed it before the kernel was fused: per-id loops over the surviving
//! set, `f64` sums in id order, strict `<`, the all-equal escape. The kernel
//! sweeps all lanes branch-free, sums in integers and builds `u64` masks;
//! the two must agree on `bitmap` and `alive` for every table, stage order
//! and θ. Counter values keep each sum below 2⁵³, the bound under which the
//! integer sum and the `f64` sum are the same number.
//!
//! Tables come from the workspace's seeded generator (raw states, so the
//! streams are the ones these cases were first written against).

use hermes_core::{FilterStage, SchedConfig, SchedDecision, Scheduler, WorkerBitmap};
use hermes_core::{WorkerSnapshot, Wst};
use hermes_metrics::SplitMix64;

use FilterStage::{Connections, PendingEvents, Time};

/// All six full orders, then every single-stage and two-stage ablation.
const STAGE_ORDERS: [&[FilterStage]; 15] = [
    &[Time, Connections, PendingEvents],
    &[Time, PendingEvents, Connections],
    &[Connections, Time, PendingEvents],
    &[Connections, PendingEvents, Time],
    &[PendingEvents, Time, Connections],
    &[PendingEvents, Connections, Time],
    &[Time],
    &[Connections],
    &[PendingEvents],
    &[Time, Connections],
    &[Time, PendingEvents],
    &[Connections, PendingEvents],
    &[Connections, Time],
    &[PendingEvents, Time],
    &[PendingEvents, Connections],
];

const HANG_NS: u64 = 1_000;
const NOW_NS: u64 = 1_000_000;

struct Reference {
    hang_threshold_ns: u64,
    theta_frac: f64,
    stages: Vec<FilterStage>,
}

impl Reference {
    fn filter_time(&self, rows: &[WorkerSnapshot], input: &[usize], now_ns: u64) -> Vec<usize> {
        input
            .iter()
            .copied()
            .filter(|&id| now_ns.saturating_sub(rows[id].loop_enter_ns) < self.hang_threshold_ns)
            .collect()
    }

    fn filter_count(
        &self,
        rows: &[WorkerSnapshot],
        input: &[usize],
        metric: fn(&WorkerSnapshot) -> f64,
    ) -> Vec<usize> {
        if input.is_empty() {
            return Vec::new();
        }
        let sum: f64 = input.iter().map(|&id| metric(&rows[id])).sum();
        let avg = sum / input.len() as f64;
        let theta = self.theta_frac * avg;
        let out: Vec<usize> = input
            .iter()
            .copied()
            .filter(|&id| metric(&rows[id]) < avg + theta)
            .collect();
        if out.is_empty() {
            input.to_vec()
        } else {
            out
        }
    }

    fn schedule(&self, rows: &[WorkerSnapshot], now_ns: u64) -> SchedDecision {
        let everyone: Vec<usize> = (0..rows.len()).collect();
        let mut selected = everyone.clone();
        let mut alive = None;
        for stage in &self.stages {
            selected = match stage {
                Time => {
                    let fresh = self.filter_time(rows, &selected, now_ns);
                    alive = Some(fresh.clone());
                    fresh
                }
                Connections => self.filter_count(rows, &selected, |r| r.connections as f64),
                PendingEvents => self.filter_count(rows, &selected, |r| r.pending_events as f64),
            };
        }
        let alive = alive.unwrap_or_else(|| self.filter_time(rows, &everyone, now_ns));
        SchedDecision {
            bitmap: WorkerBitmap::from_workers(selected),
            alive: WorkerBitmap::from_workers(alive),
        }
    }
}

fn below(rng: &mut SplitMix64, bound: u64) -> u64 {
    rng.next_u64() % bound
}

/// How one table's counters are drawn.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Small counts with many ties and near-average values.
    Small,
    /// Every row the same value: the all-equal escape, stage after stage.
    AllEqual,
    /// Mostly idle rows and a few loaded ones.
    Sparse,
    /// Counts around zero, some negative: a `Wst` clamps those away, but
    /// the kernel's entry point takes any snapshot.
    Signed,
    /// Wide range; one row holds 2⁵² and the rest stay under 2⁴⁶, which
    /// keeps any sum of 64 below 2⁵³.
    Huge,
}

const SHAPES: [Shape; 5] = [
    Shape::Small,
    Shape::AllEqual,
    Shape::Sparse,
    Shape::Signed,
    Shape::Huge,
];

fn counter(shape: Shape, equal: i64, rng: &mut SplitMix64) -> i64 {
    match shape {
        Shape::Small => below(rng, 8) as i64,
        Shape::AllEqual => equal,
        Shape::Sparse => {
            if below(rng, 4) == 0 {
                below(rng, 500) as i64
            } else {
                0
            }
        }
        Shape::Signed => below(rng, 12) as i64 - 4,
        Shape::Huge => below(rng, 1 << 46) as i64,
    }
}

/// `n` rows: most fresh, some hung, some that never entered the loop, some
/// stamped after `NOW_NS` (another thread's clock read landing later).
fn table(n: usize, shape: Shape, hung_one_in: u64, rng: &mut SplitMix64) -> Vec<WorkerSnapshot> {
    let equal = below(rng, 1_000) as i64;
    let mut rows: Vec<WorkerSnapshot> = (0..n)
        .map(|_| {
            let loop_enter_ns = if below(rng, hung_one_in) == 0 {
                match below(rng, 3) {
                    0 => 0,
                    1 => NOW_NS - HANG_NS, // exactly at the threshold: hung
                    _ => below(rng, NOW_NS - HANG_NS),
                }
            } else {
                NOW_NS - HANG_NS + 1 + below(rng, HANG_NS + 50)
            };
            WorkerSnapshot {
                loop_enter_ns,
                pending_events: counter(shape, equal, rng),
                connections: counter(shape, equal, rng),
            }
        })
        .collect();
    if let Shape::Huge = shape {
        let at = below(rng, n as u64) as usize;
        rows[at].connections = 1 << 52;
        rows[below(rng, n as u64) as usize].pending_events = 1 << 52;
    }
    rows
}

fn pair(theta_frac: f64, stages: &[FilterStage]) -> (Scheduler, Reference) {
    let kernel = Scheduler::new(SchedConfig {
        hang_threshold_ns: HANG_NS,
        theta_frac,
        stages: stages.to_vec(),
        ..SchedConfig::default()
    });
    let reference = Reference {
        hang_threshold_ns: HANG_NS,
        theta_frac,
        stages: stages.to_vec(),
    };
    (kernel, reference)
}

fn thetas(rng: &mut SplitMix64) -> [f64; 4] {
    [0.0, 0.5, 0.75, below(rng, 3_000) as f64 / 1_000.0]
}

#[test]
fn kernel_matches_algorithm_1_on_snapshots() {
    let mut rng = SplitMix64::from_state(0x4845_524d_4553);
    let mut cases = 0u32;
    let mut trimmed = 0u32;
    let mut emptied = 0u32;
    for n in 1..=64usize {
        for shape in SHAPES {
            // Hung rows: rare, common, and (one in one) every row.
            for hung_one_in in [16, 3, 1] {
                let rows = table(n, shape, hung_one_in, &mut rng);
                for theta_frac in thetas(&mut rng) {
                    for stages in STAGE_ORDERS {
                        let (kernel, reference) = pair(theta_frac, stages);
                        let got = kernel.schedule_from_snapshot(&rows, NOW_NS);
                        let want = reference.schedule(&rows, NOW_NS);
                        assert_eq!(
                            got, want,
                            "n={n} {shape:?} hung 1/{hung_one_in} θ={theta_frac} {stages:?}\n{rows:?}"
                        );
                        cases += 1;
                        trimmed += u32::from(got.bitmap != got.alive);
                        emptied += u32::from(got.bitmap.is_empty());
                    }
                }
            }
        }
    }
    // The generator must reach the interesting outcomes, not only "everyone
    // passes": sets the load filters trimmed, and empty survivor sets.
    assert!(cases > 50_000, "{cases} cases");
    assert!(trimmed > cases / 4, "{trimmed} of {cases} trimmed");
    assert!(emptied > cases / 50, "{emptied} of {cases} empty");
}

#[test]
fn kernel_matches_algorithm_1_through_a_live_table() {
    // The same comparison through `Scheduler::schedule`, which snapshots a
    // `Wst`. Rows are driven below zero (a decrement racing ahead of its
    // batched increment), which the table reports clamped to 0: the
    // reference reads the clamped per-row snapshots.
    let mut rng = SplitMix64::from_state(0x5753_5421);
    for n in [1usize, 2, 7, 8, 32, 63, 64] {
        for round in 0..40 {
            let wst = Wst::new(n);
            for w in 0..n {
                let row = wst.worker(w);
                if below(&mut rng, 5) != 0 {
                    row.enter_loop(NOW_NS - below(&mut rng, HANG_NS));
                }
                row.add_pending(below(&mut rng, 12) as i64 - 4);
                row.conn_delta(below(&mut rng, 40) as i64 - 10);
            }
            let rows: Vec<WorkerSnapshot> = (0..n).map(|w| wst.worker(w).snapshot()).collect();
            assert!(rows
                .iter()
                .all(|r| r.pending_events >= 0 && r.connections >= 0));
            for theta_frac in thetas(&mut rng) {
                for stages in STAGE_ORDERS {
                    let (kernel, reference) = pair(theta_frac, stages);
                    assert_eq!(
                        kernel.schedule(&wst, NOW_NS),
                        reference.schedule(&rows, NOW_NS),
                        "n={n} round {round} θ={theta_frac} {stages:?}\n{rows:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn full_width_table_reaches_lane_63() {
    let mut rows = vec![
        WorkerSnapshot {
            loop_enter_ns: NOW_NS,
            pending_events: 0,
            connections: 0,
        };
        64
    ];
    // θ = 0: the limit is the plain average.
    let (kernel, reference) = pair(0.0, &[Time, Connections, PendingEvents]);
    let d = kernel.schedule_from_snapshot(&rows, NOW_NS);
    assert_eq!(d.bitmap, WorkerBitmap::all(64));
    assert_eq!(d, reference.schedule(&rows, NOW_NS));
    // Only lane 63 is below the average; then only lane 63 is hung.
    for row in &mut rows[..63] {
        row.connections = 100;
    }
    let d = kernel.schedule_from_snapshot(&rows, NOW_NS);
    assert_eq!(d.bitmap.0, 1 << 63);
    assert_eq!(d, reference.schedule(&rows, NOW_NS));
    rows[63].loop_enter_ns = 0;
    let d = kernel.schedule_from_snapshot(&rows, NOW_NS);
    assert_eq!(d.alive.0, u64::MAX >> 1);
    assert_eq!(d, reference.schedule(&rows, NOW_NS));
}
