//! The userspace scheduler: Algorithm 1's cascading worker filtering.
//!
//! §5.2.2: three filters run in a deliberately chosen order —
//!
//! 1. **FilterTime** drops hung/crashed workers (loop-entry timestamp older
//!    than a threshold), because connections must never be assigned to them;
//! 2. **FilterCount(conn)** keeps workers with `connections < avg + θ`,
//!    defending against synchronized surges over accumulated long-lived
//!    connections;
//! 3. **FilterCount(event)** keeps workers with `pending < avg + θ`,
//!    reducing request processing latency.
//!
//! θ (the *offset*) widens each baseline so the coarse filter does not
//! select too few workers (Fig. 15 finds θ/Avg ≈ 0.5 optimal). The scheduler
//! is O(n) — a single pass per filter over at most 64 workers — so it is
//! cheap enough to run at the end of every epoll event loop iteration
//! (§5.3.2).

use crate::bitmap::{WorkerBitmap, MAX_WORKERS_PER_GROUP};
use crate::status::WorkerSnapshot;
use crate::table::{lanes, Count, StatusTable};
use crate::wst::Wst;

/// One stage of the cascade; reorderable for the filter-order ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterStage {
    /// Drop workers whose loop-entry timestamp is stale (hung detection).
    Time,
    /// Keep workers whose connection count is below `avg + θ`.
    Connections,
    /// Keep workers whose pending-event count is below `avg + θ`.
    PendingEvents,
}

/// Scheduler tuning knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedConfig {
    /// Hang threshold for FilterTime (paper: "an extended period"; the
    /// event loop re-enters at least every 5 ms thanks to the `epoll_wait`
    /// timeout, so a multiple of that timeout is the natural unit).
    pub hang_threshold_ns: u64,
    /// θ expressed as a fraction of the running average (`θ = theta_frac *
    /// avg`), matching the θ/Avg axis of Fig. 15. Default 0.5 — the paper's
    /// optimum.
    pub theta_frac: f64,
    /// Filter cascade order; default is the paper's Time → Connections →
    /// PendingEvents (§5.2.2 "worker filtering order").
    pub stages: Vec<FilterStage>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            hang_threshold_ns: 100 * 1_000_000, // 100 ms ≈ 20 missed loop deadlines
            theta_frac: 0.5,
            stages: vec![
                FilterStage::Time,
                FilterStage::Connections,
                FilterStage::PendingEvents,
            ],
        }
    }
}

/// Outcome of one `schedule_and_sync` invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedDecision {
    /// Workers that passed the coarse-grained filter, as the bitmap that
    /// will be synchronized into the kernel map.
    pub bitmap: WorkerBitmap,
    /// Workers that passed FilterTime (i.e. are not hung) regardless of the
    /// load filters — used by availability monitoring and degradation.
    pub alive: WorkerBitmap,
}

/// The userspace scheduler (Algorithm 1).
///
/// ```
/// use hermes_core::{Scheduler, SchedConfig, Wst};
/// let wst = Wst::new(3);
/// for w in 0..3 { wst.worker(w).enter_loop(1_000_000); }
/// wst.worker(1).conn_delta(500); // overloaded
/// let d = Scheduler::new(SchedConfig::default()).schedule(&wst, 1_500_000);
/// assert!(!d.bitmap.contains(1));
/// assert!(d.alive.contains(1)); // overloaded but not hung
/// ```
#[derive(Clone, Debug)]
pub struct Scheduler {
    config: SchedConfig,
    /// Whether the cascade contains FilterTime. When it does not (ablation
    /// orders), `alive` takes one extra sweep after the cascade.
    has_time_stage: bool,
}

impl Scheduler {
    /// Create a scheduler with the given configuration.
    pub fn new(config: SchedConfig) -> Self {
        assert!(
            config.theta_frac >= 0.0 && config.theta_frac.is_finite(),
            "theta_frac must be a finite non-negative fraction"
        );
        assert!(!config.stages.is_empty(), "at least one filter stage");
        let has_time_stage = config.stages.contains(&FilterStage::Time);
        Self {
            config,
            has_time_stage,
        }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.config
    }

    /// Run the cascade over the table as it reads at `now_ns`.
    ///
    /// This is `schedule_and_sync` minus the sync: the caller publishes
    /// `decision.bitmap` (the load balancers into the kernel's
    /// `BPF_MAP_TYPE_ARRAY` slot, the simulator as a plain value). The table is
    /// copied once into a 64-row scratch on the stack, so a pass allocates
    /// nothing and is cheap enough for the end of *every* event loop
    /// iteration (§5.3.2). There is no cache in front of the copy: every
    /// loop-resident caller has just written its own row. The pass's trace
    /// events go to `hermes_trace::CONTROL_LANE`.
    pub fn schedule(&self, wst: &Wst, now_ns: u64) -> SchedDecision {
        self.schedule_on_lane(wst, now_ns, hermes_trace::CONTROL_LANE)
    }

    /// [`schedule`](Self::schedule) as run from the event loop that owns
    /// flight-recorder lane `lane`: the pass's trace events go there. A
    /// ring has one producer, so concurrent workers' passes must not share
    /// a lane.
    pub fn schedule_on_lane(&self, wst: &Wst, now_ns: u64, lane: u32) -> SchedDecision {
        let mut rows = [WorkerSnapshot::default(); MAX_WORKERS_PER_GROUP];
        let rows = wst.snapshot_into(&mut rows);
        let decision = self.decide_rows(rows, now_ns, trace_stage(now_ns, lane));
        trace_decision(now_ns, lane, decision);
        decision
    }

    /// [`schedule`](Self::schedule) under the name and signature the
    /// end-to-end benchmark harness calls (benchmark/README.md, "Public
    /// items the harness calls"); the third argument is unused.
    pub fn schedule_into(
        &self,
        wst: &Wst,
        now_ns: u64,
        _cache: &mut SnapshotCache,
    ) -> SchedDecision {
        self.schedule(wst, now_ns)
    }

    /// Run the cascade over a single-owner [`StatusTable`], tracing on
    /// `lane`: the flight-recorder lane of the loop that runs the pass. The
    /// simulator keeps its worker table this way and calls this from the
    /// running worker's loop.
    ///
    /// The pass decides exactly what [`schedule`](Self::schedule) decides
    /// over the same rows, and traces the same records, but reads only
    /// what changed since the table's last pass:
    ///
    /// - FilterTime reads no stamp while `now_ns` is within the hang
    ///   threshold of the table's stamp floor;
    /// - a count stage takes the sum over its input as the all-row sum
    ///   minus the rows outside it, turns `avg + θ·avg` into the integer
    ///   threshold `t` (`threshold`), and masks its input with the rows
    ///   below `t`. The table caches that mask over all rows, so while `t`
    ///   stays put only the rows written since the last pass are compared
    ///   again.
    ///
    /// In debug builds every pass asserts that its decision equals the full
    /// cascade's over the table's rows.
    pub fn schedule_table(&self, table: &mut StatusTable, now_ns: u64, lane: u32) -> SchedDecision {
        let hang = self.config.hang_threshold_ns;
        table.begin_pass();
        let decision = self.decide(
            table.all(),
            |stage, input| match stage {
                FilterStage::Time => table.fresh(now_ns, hang),
                FilterStage::Connections => {
                    self.below_average_cached(table, Count::Connections, input)
                }
                FilterStage::PendingEvents => {
                    self.below_average_cached(table, Count::Pending, input)
                }
            },
            trace_stage(now_ns, lane),
        );
        table.end_pass();
        trace_decision(now_ns, lane, decision);
        debug_assert_eq!(
            decision,
            self.decide_rows(table.rows(), now_ns, |_, _, _| {}),
            "incremental pass at {now_ns} differs from the cascade over {:?}",
            table.rows()
        );
        decision
    }

    /// The full cascade: every stage sweeps every row. `on_stage` sees each
    /// stage's output.
    fn decide_rows(
        &self,
        rows: &[WorkerSnapshot],
        now_ns: u64,
        on_stage: impl FnMut(usize, u64, u64),
    ) -> SchedDecision {
        self.decide(
            WorkerBitmap::all(rows.len()).0,
            |stage, input| match stage {
                FilterStage::Time => self.fresh(rows, now_ns),
                FilterStage::Connections => self.below_average(rows, input, |r| r.connections),
                FilterStage::PendingEvents => self.below_average(rows, input, |r| r.pending_events),
            },
            on_stage,
        )
    }

    /// Algorithm 1's cascade in the configured order over the rows in
    /// `all`, each stage a `u64` lane mask. `filter(stage, input)` is the
    /// stage's output for input set `input`; for FilterTime, the fresh rows
    /// among all of them. `on_stage(index, code, selected)` sees each
    /// stage's output, where `code` is 0, 1, 2 for Time, Connections,
    /// PendingEvents.
    ///
    /// The counters are taken to be counts (below 2⁵³, as any `Wst` or
    /// [`StatusTable`] reports them): that is what makes the integer sums
    /// exact.
    #[inline]
    fn decide(
        &self,
        all: u64,
        mut filter: impl FnMut(FilterStage, u64) -> u64,
        mut on_stage: impl FnMut(usize, u64, u64),
    ) -> SchedDecision {
        let mut selected = all;
        let mut alive = selected;
        for (stage_idx, &stage) in self.config.stages.iter().enumerate() {
            let stage_code = match stage {
                FilterStage::Time => {
                    selected &= filter(stage, selected);
                    alive = selected;
                    0u64
                }
                FilterStage::Connections => {
                    selected = filter(stage, selected);
                    1
                }
                FilterStage::PendingEvents => {
                    selected = filter(stage, selected);
                    2
                }
            };
            on_stage(stage_idx, stage_code, selected);
        }
        if !self.has_time_stage {
            alive = filter(FilterStage::Time, all);
        }
        SchedDecision {
            bitmap: WorkerBitmap(selected),
            alive: WorkerBitmap(alive),
        }
    }

    /// FilterTime (Algorithm 1 lines 9–10) as a lane mask: bit `i` is set
    /// when row `i`'s loop-entry timestamp is fresher than the hang
    /// threshold.
    fn fresh(&self, rows: &[WorkerSnapshot], now_ns: u64) -> u64 {
        let threshold = self.config.hang_threshold_ns;
        lanes(rows, |row| !row.is_hung(now_ns, threshold))
    }

    /// FilterCount (Algorithm 1 lines 11–13) as a lane mask: of the lanes
    /// in `input`, keep those whose metric is below the average over
    /// `input` plus θ.
    ///
    /// The sum is taken in integers and converted once. That is exact: the
    /// metrics are connection and event counts, so the sum stays far below
    /// 2⁵³ and equals the sum of the lanes' `f64` values in any order.
    fn below_average(
        &self,
        rows: &[WorkerSnapshot],
        input: u64,
        metric: impl Fn(&WorkerSnapshot) -> i64,
    ) -> u64 {
        let survivors = input.count_ones();
        if survivors == 0 {
            return input;
        }
        // Branch-free masked sum: `rest` holds the input lanes from this row
        // up, this row's in bit 0, and `-(bit)` is all ones or zero.
        let (sum, _) = rows.iter().fold((0i64, input), |(sum, rest), row| {
            (sum + (metric(row) & -((rest & 1) as i64)), rest >> 1)
        });
        let limit = self.limit(sum, survivors);
        // Strict `<` per Algorithm 1 line 13 (`R_i < Avg + θ`).
        let below = lanes(rows, |row| (metric(row) as f64) < limit) & input;
        all_equal_escape(below, input)
    }

    /// [`below_average`](Self::below_average) from the table's caches: the
    /// same sum, limit and escape, with the limit compared as the integer
    /// threshold `threshold` against the table's cached mask. A stage
    /// with no input returns before it refreshes its cache, and the pass's
    /// end invalidates that cache.
    #[inline]
    fn below_average_cached(&self, table: &mut StatusTable, count: Count, input: u64) -> u64 {
        let survivors = input.count_ones();
        if survivors == 0 {
            return input;
        }
        let limit = self.limit(table.sum_over(count, input), survivors);
        let below = table.mask_below(count, threshold(limit)) & input;
        all_equal_escape(below, input)
    }

    /// `Avg + θ` of Algorithm 1 line 13 for `survivors` rows summing to
    /// `sum`, with θ = `theta_frac · Avg`.
    #[inline]
    fn limit(&self, sum: i64, survivors: u32) -> f64 {
        let avg = sum as f64 / f64::from(survivors);
        avg + self.config.theta_frac * avg
    }
}

/// The integer threshold of a count stage's `limit`: ⌈limit⌉, the smallest
/// integer not below it (saturated to the `i64` range), so that for every
/// count `m` below 2⁵³ in magnitude `m < t ⇔ (m as f64) < limit`.
///
/// Why that is exact: such an `m` converts to `f64` without rounding, and
/// for an integer `m`, `m < ⌈x⌉ ⇔ m < x`. `limit as i64` truncates toward
/// zero; the truncation `T` converts back exactly (below 2⁵³ because every
/// integer there is an `f64`, above it because the limit is then itself an
/// integer and `T` is the limit), so `T < limit` decides whether to step up
/// by one. Beyond the `i64` range the saturated `t` still splits the counts
/// as the limit does: all of them below `i64::MAX`, none below `i64::MIN`.
#[inline]
fn threshold(limit: f64) -> i64 {
    let t = limit as i64;
    t.saturating_add(i64::from((t as f64) < limit))
}

/// The all-equal escape of a count stage: when no row of `input` is below
/// the limit, every survivor has the identical value (avg + θ == value, θ
/// possibly 0), and the filter would empty the set for no informational
/// gain, so an all-equal set passes through.
#[inline]
fn all_equal_escape(below: u64, input: u64) -> u64 {
    if below == 0 {
        input
    } else {
        below
    }
}

/// The `on_stage` of a traced pass: one `SchedStage` record per stage on
/// `lane`.
#[inline]
fn trace_stage(now_ns: u64, lane: u32) -> impl FnMut(usize, u64, u64) {
    move |stage_idx, stage_code, selected| {
        hermes_trace::trace_event!(
            now_ns,
            hermes_trace::EventKind::SchedStage,
            lane,
            ((stage_idx as u64) << 32) | stage_code,
            selected
        );
    }
}

/// A traced pass's closing `SchedDecision` record.
#[inline]
fn trace_decision(now_ns: u64, lane: u32, decision: SchedDecision) {
    hermes_trace::trace_event!(
        now_ns,
        hermes_trace::EventKind::SchedDecision,
        lane,
        decision.bitmap.0,
        decision.alive.0
    );
}

/// Placeholder for the third argument of [`Scheduler::schedule_into`]; it
/// holds nothing.
#[derive(Debug, Default)]
pub struct SnapshotCache;

impl SnapshotCache {
    /// The placeholder.
    pub fn new() -> Self {
        Self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_trace::CONTROL_LANE;

    fn snap(loop_enter_ns: u64, pending: i64, conns: i64) -> WorkerSnapshot {
        WorkerSnapshot {
            loop_enter_ns,
            pending_events: pending,
            connections: conns,
        }
    }

    /// The rows as a status table, written through its writers.
    fn table_of(snaps: &[WorkerSnapshot]) -> StatusTable {
        let mut table = StatusTable::new(snaps.len());
        for (w, s) in snaps.iter().enumerate() {
            table.enter_loop(w, s.loop_enter_ns);
            table.set_pending(w, s.pending_events);
            table.add_connections(w, s.connections);
        }
        table
    }

    /// One pass over a fresh table of `snaps`.
    fn pass(s: &Scheduler, snaps: &[WorkerSnapshot], now_ns: u64) -> SchedDecision {
        s.schedule_table(&mut table_of(snaps), now_ns, CONTROL_LANE)
    }

    fn sched() -> Scheduler {
        Scheduler::new(SchedConfig {
            hang_threshold_ns: 100,
            theta_frac: 0.5,
            ..SchedConfig::default()
        })
    }

    #[test]
    fn all_fresh_idle_workers_selected() {
        let s = sched();
        let snaps = vec![snap(1_000, 0, 0); 4];
        let d = pass(&s, &snaps, 1_050);
        assert_eq!(d.bitmap, WorkerBitmap::all(4));
        assert_eq!(d.alive, WorkerBitmap::all(4));
    }

    #[test]
    fn hung_worker_filtered_first() {
        let s = sched();
        let snaps = vec![
            snap(1_000, 0, 0),
            snap(500, 0, 0), // stale by 550 >= threshold 100 ⇒ hung
            snap(1_000, 0, 0),
        ];
        let d = pass(&s, &snaps, 1_050);
        assert!(!d.bitmap.contains(1));
        assert!(!d.alive.contains(1));
        assert!(d.bitmap.contains(0) && d.bitmap.contains(2));
    }

    #[test]
    fn never_started_worker_filtered_after_threshold() {
        let s = sched();
        // Worker 0 reads as entered-at-0; at now=1010 with threshold 100
        // it is stale and filtered.
        let snaps = vec![snap(0, 0, 0), snap(1_000, 0, 0)];
        let d = pass(&s, &snaps, 1_010);
        assert_eq!(d.bitmap.iter().collect::<Vec<_>>(), vec![1]);
        // Early on (now < threshold) it still counts as available.
        let d = pass(&s, &snaps, 50);
        assert!(d.bitmap.contains(0));
    }

    #[test]
    fn connection_filter_prefers_lightly_loaded() {
        let s = sched();
        // avg conns = (0+0+12)/3 = 4, θ = 2 ⇒ keep conns < 6.
        let snaps = vec![snap(1_000, 0, 0), snap(1_000, 0, 0), snap(1_000, 0, 12)];
        let d = pass(&s, &snaps, 1_010);
        assert_eq!(d.bitmap.iter().collect::<Vec<_>>(), vec![0, 1]);
        // But the overloaded worker is still alive.
        assert!(d.alive.contains(2));
    }

    #[test]
    fn event_filter_runs_after_connection_filter() {
        let s = sched();
        // Worker 2 has huge conns (dropped in stage 2). Among {0,1}, worker 1
        // has pending=10 vs avg (0+10)/2=5, θ=2.5 ⇒ keep pending < 7.5 ⇒ {0}.
        let snaps = vec![snap(1_000, 0, 1), snap(1_000, 10, 1), snap(1_000, 0, 50)];
        let d = pass(&s, &snaps, 1_010);
        assert_eq!(d.bitmap.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn uniform_load_keeps_everyone() {
        // All equal metrics: strict `<` would empty the set; the all-equal
        // escape keeps it intact.
        let s = Scheduler::new(SchedConfig {
            hang_threshold_ns: 100,
            theta_frac: 0.0,
            ..SchedConfig::default()
        });
        let snaps = vec![snap(1_000, 5, 7); 8];
        let d = pass(&s, &snaps, 1_010);
        assert_eq!(d.bitmap, WorkerBitmap::all(8));
    }

    #[test]
    fn larger_theta_is_more_permissive() {
        let snaps = vec![snap(1_000, 0, 2), snap(1_000, 0, 4), snap(1_000, 0, 6)];
        // avg = 4. θ_frac 0 ⇒ keep < 4 ⇒ {0}. θ_frac 0.75 ⇒ keep < 7 ⇒ all.
        let tight = Scheduler::new(SchedConfig {
            hang_threshold_ns: 100,
            theta_frac: 0.0,
            ..SchedConfig::default()
        });
        let loose = Scheduler::new(SchedConfig {
            hang_threshold_ns: 100,
            theta_frac: 0.75,
            ..SchedConfig::default()
        });
        assert_eq!(
            pass(&tight, &snaps, 1_010)
                .bitmap
                .iter()
                .collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(pass(&loose, &snaps, 1_010).bitmap, WorkerBitmap::all(3));
    }

    #[test]
    fn ablation_order_changes_result() {
        // With Time last, load filters see the hung worker's inflated
        // metrics and the averages shift.
        let snaps = vec![snap(1_000, 0, 0), snap(1_000, 0, 4), snap(200, 0, 100)];
        let paper_order = sched();
        let reversed = Scheduler::new(SchedConfig {
            hang_threshold_ns: 100,
            theta_frac: 0.5,
            stages: vec![
                FilterStage::Connections,
                FilterStage::PendingEvents,
                FilterStage::Time,
            ],
        });
        let a = pass(&paper_order, &snaps, 1_010);
        let b = pass(&reversed, &snaps, 1_010);
        // Paper order: hung dropped first, avg conns over {0,1} = 2, θ=1 ⇒
        // keep < 3 ⇒ {0}. Reversed: avg over all = 34.67, θ=17.3 ⇒ {0,1}
        // survive the load filter, then hung dropped ⇒ {0,1}.
        assert_eq!(a.bitmap.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(b.bitmap.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn schedule_reads_live_wst() {
        let wst = Wst::new(3);
        for w in 0..3 {
            wst.worker(w).enter_loop(1_000);
        }
        wst.worker(1).conn_delta(100);
        let d = sched().schedule(&wst, 1_020);
        assert!(!d.bitmap.contains(1));
        assert!(d.bitmap.contains(0) && d.bitmap.contains(2));
    }

    #[test]
    fn schedule_into_is_schedule() {
        let wst = Wst::new(4);
        for w in 0..4 {
            wst.worker(w).enter_loop(1_000);
        }
        wst.worker(3).conn_delta(200);
        let s = sched();
        let mut unused = SnapshotCache::new();
        assert_eq!(
            s.schedule(&wst, 1_050),
            s.schedule_into(&wst, 1_050, &mut unused)
        );
        // No cache in front of the table: a write is seen by the next pass.
        wst.worker(0).conn_delta(500);
        assert!(!s.schedule(&wst, 1_060).bitmap.contains(0));
    }

    #[test]
    fn alive_computed_even_without_time_stage() {
        let s = Scheduler::new(SchedConfig {
            hang_threshold_ns: 100,
            theta_frac: 0.5,
            stages: vec![FilterStage::Connections],
        });
        let snaps = vec![snap(1_000, 0, 0), snap(1, 0, 0)];
        let d = pass(&s, &snaps, 2_000);
        // Stage list has no Time filter, so the hung worker can pass the
        // bitmap, but `alive` still reflects hang detection.
        assert!(d.bitmap.contains(1));
        assert!(!d.alive.contains(1));
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn rejects_negative_theta() {
        Scheduler::new(SchedConfig {
            theta_frac: -0.1,
            ..SchedConfig::default()
        });
    }

    #[test]
    fn all_hung_yields_empty_bitmap() {
        // §5.3.2: if all workers hang the kernel falls back to reuseport and
        // the alert system takes over; the scheduler just reports honestly.
        let s = sched();
        let snaps = vec![snap(1, 0, 0); 4];
        let d = pass(&s, &snaps, 1_000_000);
        assert!(d.bitmap.is_empty());
        assert!(d.alive.is_empty());
    }
}
