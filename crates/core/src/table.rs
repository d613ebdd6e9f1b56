//! A plain, single-owner worker status table.
//!
//! [`Wst`](crate::Wst) serves threads: a row per cache line, one atomic word
//! per field, a clamping copy-out. A caller that runs every worker on one
//! thread (the simulator) keeps the same three facts as plain
//! [`WorkerSnapshot`] rows instead, written only through
//! [`StatusTable::enter_loop`], [`StatusTable::set_pending`] and
//! [`StatusTable::add_connections`]. Those writers keep three derived values
//! beside the rows:
//!
//! - `written`, the mask of rows whose counts were written since the last
//!   pass;
//! - each count's sum over all rows;
//! - `stamp_floor`, a lower bound on every row's loop-entry stamp.
//!
//! Between passes the table also holds each count stage's cached mask: the
//! rows whose count is below the integer threshold the stage last used.
//! The rows stay the one copy of each fact; the sums, masks and floor are
//! caches. [`Scheduler::schedule_table`](crate::Scheduler::schedule_table)
//! runs Algorithm 1 over the table from those caches, re-reading only the
//! rows its loop wrote.

use crate::bitmap::{WorkerBitmap, MAX_WORKERS_PER_GROUP};
use crate::status::WorkerSnapshot;

/// The count a stage filters on: the index of its sum and of its cache.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Count {
    Connections = 0,
    Pending = 1,
}

impl Count {
    #[inline]
    pub(crate) fn of(self, row: &WorkerSnapshot) -> i64 {
        match self {
            Count::Connections => row.connections,
            Count::Pending => row.pending_events,
        }
    }
}

/// One count stage's mask over all rows: bit `i` is set when row `i`'s
/// count is below `below`, as the rows read at the end of the pass that
/// last refreshed it.
#[derive(Clone, Copy, Debug, Default)]
struct CountCache {
    valid: bool,
    below: i64,
    mask: u64,
}

/// How often each stage of a table's passes read every row, where the rest
/// re-read only the rows written since the last pass (or none).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sweeps {
    /// FilterTime sweeps: passes at which `now` minus the stamp floor had
    /// reached the hang threshold.
    pub time: u64,
    /// Connection-stage sweeps: its threshold moved, or its cache was
    /// invalid.
    pub connections: u64,
    /// Pending-event-stage sweeps, likewise.
    pub pending: u64,
}

/// A worker status table with one owner: plain rows and the caches an
/// incremental Algorithm 1 pass reads.
///
/// ```
/// use hermes_core::{SchedConfig, Scheduler, StatusTable};
/// let mut table = StatusTable::new(3);
/// for w in 0..3 { table.enter_loop(w, 1_000_000); }
/// for _ in 0..500 { table.add_connections(1, 1); } // overloaded
/// let sched = Scheduler::new(SchedConfig::default());
/// let d = sched.schedule_table(&mut table, 1_500_000, hermes_trace::CONTROL_LANE);
/// assert!(!d.bitmap.contains(1));
/// assert!(d.alive.contains(1)); // overloaded but not hung
/// ```
#[derive(Clone, Debug)]
pub struct StatusTable {
    rows: Vec<WorkerSnapshot>,
    /// Rows whose counts were written since the last pass began.
    written: u64,
    /// Each [`Count`]'s sum over all rows.
    sums: [i64; 2],
    /// No row's loop-entry stamp is below it.
    stamp_floor: u64,
    /// Each [`Count`]'s stage cache.
    caches: [CountCache; 2],
    /// The running pass's `written`, taken when it began.
    pass_written: u64,
    /// Caches the running pass refreshed, one bit per [`Count`].
    refreshed: u8,
    sweeps: Sweeps,
}

impl StatusTable {
    /// A table of `workers` rows (1..=64), each never entered, with no
    /// pending events and no connections.
    pub fn new(workers: usize) -> Self {
        assert!(
            (1..=MAX_WORKERS_PER_GROUP).contains(&workers),
            "a status table holds 1..={MAX_WORKERS_PER_GROUP} workers"
        );
        Self {
            rows: vec![WorkerSnapshot::default(); workers],
            written: 0,
            sums: [0; 2],
            stamp_floor: 0,
            caches: [CountCache::default(); 2],
            pass_written: 0,
            refreshed: 0,
            sweeps: Sweeps::default(),
        }
    }

    /// The rows, worker `w` at index `w`.
    #[inline]
    pub fn rows(&self) -> &[WorkerSnapshot] {
        &self.rows
    }

    /// `shm_avail_update(now)`: worker `w` entered its event loop.
    #[inline]
    pub fn enter_loop(&mut self, w: usize, now_ns: u64) {
        self.rows[w].loop_enter_ns = now_ns;
        self.stamp_floor = self.stamp_floor.min(now_ns);
    }

    /// `shm_busy_count`: worker `w` now has `n` pending events.
    #[inline]
    pub fn set_pending(&mut self, w: usize, n: i64) {
        debug_assert!(n >= 0, "worker {w}: {n} pending events");
        let row = &mut self.rows[w];
        self.sums[Count::Pending as usize] += n - row.pending_events;
        row.pending_events = n;
        self.written |= 1 << w;
    }

    /// `shm_conn_count(±1)`: worker `w` gained (`delta > 0`) or lost
    /// connections. A count never goes negative (checked in debug builds).
    #[inline]
    pub fn add_connections(&mut self, w: usize, delta: i64) {
        let row = &mut self.rows[w];
        row.connections += delta;
        debug_assert!(
            row.connections >= 0,
            "worker {w}: {} connections",
            row.connections
        );
        self.sums[Count::Connections as usize] += delta;
        self.written |= 1 << w;
    }

    /// Stage sweeps over the table's passes so far.
    pub fn sweeps(&self) -> Sweeps {
        self.sweeps
    }

    /// Every row's bit.
    #[inline]
    pub(crate) fn all(&self) -> u64 {
        WorkerBitmap::all(self.rows.len()).0
    }

    /// Start a pass: the rows written since the last one become the rows
    /// the stage caches re-read.
    #[inline]
    pub(crate) fn begin_pass(&mut self) {
        self.pass_written = std::mem::take(&mut self.written);
        self.refreshed = 0;
    }

    /// End a pass: a cache the pass did not refresh (its stage is not in
    /// the order, or returned early) missed this pass's written rows, so
    /// it is invalid.
    #[inline]
    pub(crate) fn end_pass(&mut self) {
        for (i, cache) in self.caches.iter_mut().enumerate() {
            if self.refreshed & (1 << i) == 0 {
                cache.valid = false;
            }
        }
    }

    /// `count`'s sum over the rows in `input`: the all-row sum minus the
    /// rows outside `input`.
    #[inline]
    pub(crate) fn sum_over(&self, count: Count, input: u64) -> i64 {
        let mut outside = self.all() & !input;
        let mut sum = self.sums[count as usize];
        while outside != 0 {
            sum -= count.of(&self.rows[outside.trailing_zeros() as usize]);
            outside &= outside - 1;
        }
        sum
    }

    /// The mask of rows whose `count` is below `below`, from the stage's
    /// cache: while `below` is the threshold the cache holds, only the rows
    /// written since the last pass are read again; otherwise every row is.
    #[inline]
    pub(crate) fn mask_below(&mut self, count: Count, below: i64) -> u64 {
        let cache = &mut self.caches[count as usize];
        if cache.valid && cache.below == below {
            let mut rows = self.pass_written;
            while rows != 0 {
                let i = rows.trailing_zeros();
                let bit = u64::from(count.of(&self.rows[i as usize]) < below);
                cache.mask = cache.mask & !(1 << i) | bit << i;
                rows &= rows - 1;
            }
        } else {
            *cache = CountCache {
                valid: true,
                below,
                mask: lanes(&self.rows, |row| count.of(row) < below),
            };
            match count {
                Count::Connections => self.sweeps.connections += 1,
                Count::Pending => self.sweeps.pending += 1,
            }
        }
        self.refreshed |= 1 << count as u8;
        cache.mask
    }

    /// FilterTime's mask at `now_ns`: every row while `now_ns` is within
    /// the hang threshold of the stamp floor, since every stamp is at or
    /// above it; otherwise a sweep of the stamps, which also raises the
    /// floor to the oldest one.
    #[inline]
    pub(crate) fn fresh(&mut self, now_ns: u64, threshold_ns: u64) -> u64 {
        if now_ns.saturating_sub(self.stamp_floor) < threshold_ns {
            return self.all();
        }
        self.sweeps.time += 1;
        self.stamp_floor = self.rows.iter().map(|r| r.loop_enter_ns).min().unwrap_or(0);
        lanes(&self.rows, |row| !row.is_hung(now_ns, threshold_ns))
    }
}

/// Lane mask of a per-row predicate: bit `i` is `keep(&rows[i])`. Folds from
/// the last row down, so each step shifts the mask by one rather than a bit
/// by its lane id.
#[inline]
pub(crate) fn lanes(rows: &[WorkerSnapshot], keep: impl Fn(&WorkerSnapshot) -> bool) -> u64 {
    rows.iter()
        .rev()
        .fold(0, |mask, row| mask << 1 | u64::from(keep(row)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_keep_the_sums_and_the_written_mask() {
        let mut t = StatusTable::new(4);
        t.add_connections(1, 1);
        t.add_connections(1, 1);
        t.add_connections(3, 1);
        t.set_pending(2, 7);
        t.set_pending(2, 5);
        assert_eq!(t.sums, [3, 5]);
        assert_eq!(t.written, 0b1110);
        t.add_connections(1, -1);
        assert_eq!(t.sum_over(Count::Connections, 0b0011), 1);
        assert_eq!(t.sum_over(Count::Pending, 0b1011), 0);
        t.begin_pass();
        assert_eq!((t.written, t.pass_written), (0, 0b1110));
    }

    #[test]
    fn the_floor_stays_a_lower_bound() {
        let mut t = StatusTable::new(2);
        t.enter_loop(0, 500);
        t.enter_loop(1, 300);
        assert_eq!(t.fresh(1_000, 100), 0, "both stale");
        assert_eq!(t.stamp_floor, 300);
        // A stamp below the floor lowers it.
        t.enter_loop(1, 200);
        assert_eq!(t.stamp_floor, 200);
        assert_eq!(t.sweeps().time, 1);
    }

    #[test]
    #[should_panic(expected = "connections")]
    #[cfg(debug_assertions)]
    fn a_connection_count_never_goes_negative() {
        let mut t = StatusTable::new(1);
        t.add_connections(0, -1);
    }
}
