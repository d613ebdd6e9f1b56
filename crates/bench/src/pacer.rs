//! Deadline-based submission pacing.
//!
//! `table5`'s open-loop clients need a fixed inter-arrival gap.
//! `thread::sleep(gap)` per iteration is the obvious way to get one, but it
//! compounds two errors: the OS routinely overshoots short sleeps
//! by tens of microseconds, and the overshoot *accumulates* because each
//! sleep is relative to whenever the previous iteration happened to
//! finish. At a 30 µs target gap the realised rate can be off by 2–3×.
//!
//! [`Pacer`] fixes both. Deadlines are absolute — the `n`-th tick is due
//! at `start + n * interval`, independent of jitter in earlier ticks — and
//! each wait parks the thread only to within a small window of the
//! deadline, busy-spinning the rest. Parking keeps the CPU free for the
//! load balancer the generator is driving; the spin tail gives the
//! precision `sleep` cannot. A caller that falls behind schedule is not
//! punished: overdue ticks return immediately until the schedule is
//! caught up, preserving the long-run rate.

use std::time::{Duration, Instant};

/// Spin window: park until this close to the deadline, then spin. 50 µs
/// comfortably covers typical `sleep`/`park_timeout` overshoot on a loaded
/// box without burning meaningful CPU.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// A fixed-rate ticker with an absolute deadline schedule and a
/// park-then-spin wait.
///
/// ```
/// use hermes_bench::Pacer;
/// use std::time::{Duration, Instant};
///
/// let start = Instant::now(); // before the pacer: its deadlines count from `new`
/// let mut pacer = Pacer::new(Duration::from_micros(200));
/// for _ in 0..5 {
///     pacer.pace(); // blocks until the next 200 µs boundary
/// }
/// assert!(start.elapsed() >= Duration::from_micros(1000));
/// ```
#[derive(Debug)]
pub struct Pacer {
    /// Next absolute deadline.
    next: Instant,
    interval: Duration,
    /// Creation instant — the zero point for trace timestamps.
    epoch: Instant,
    /// Ticks whose deadline had already passed when `pace` was entered.
    missed: u64,
    /// Largest observed overshoot past a deadline, ns.
    max_overshoot_ns: u64,
}

impl Pacer {
    /// Pacer ticking every `interval`, first tick one interval from now.
    pub fn new(interval: Duration) -> Self {
        let epoch = Instant::now();
        Self {
            next: epoch + interval,
            interval,
            epoch,
            missed: 0,
            max_overshoot_ns: 0,
        }
    }

    /// Deadlines that had already passed when [`Pacer::pace`] was entered —
    /// the caller fell at least one full wait behind schedule. On-time ticks
    /// (the wait itself crossing the deadline) do not count.
    pub fn missed_deadlines(&self) -> u64 {
        self.missed
    }

    /// Largest single overshoot past a missed deadline, in nanoseconds.
    pub fn max_overshoot_ns(&self) -> u64 {
        self.max_overshoot_ns
    }

    /// Block until the current deadline, then advance the schedule by one
    /// interval. Returns how late the deadline was observed (zero when the
    /// wait completed on time; positive when the caller is running behind
    /// schedule and the tick fired immediately).
    pub fn pace(&mut self) -> Duration {
        match self.advance(Instant::now()) {
            Ok(deadline) => self.wait_until(deadline),
            Err(overshoot) => overshoot,
        }
    }

    /// The schedule, with no clock in it: advance by one tick as seen at
    /// `entry`. `Ok(deadline)` when the tick's deadline has not passed (the
    /// caller owes a wait for it); `Err(overshoot)` when it already had —
    /// a miss, counted, and nothing to wait for.
    fn advance(&mut self, entry: Instant) -> Result<Instant, Duration> {
        let deadline = self.next;
        self.next += self.interval;
        if entry <= deadline {
            return Ok(deadline);
        }
        // Missed: the schedule slipped before we even started waiting.
        let overshoot = entry - deadline;
        let overshoot_ns = overshoot.as_nanos() as u64;
        self.missed += 1;
        self.max_overshoot_ns = self.max_overshoot_ns.max(overshoot_ns);
        hermes_trace::trace_event!(
            deadline.duration_since(self.epoch).as_nanos() as u64,
            hermes_trace::EventKind::PacerMiss,
            hermes_trace::CONTROL_LANE,
            overshoot_ns,
            self.missed
        );
        hermes_trace::trace_count!(hermes_trace::CounterId::PacerDeadlineMisses);
        hermes_trace::trace_count_max!(hermes_trace::CounterId::PacerMaxOvershootNs, overshoot_ns);
        Err(overshoot)
    }

    /// Park, then spin, until `deadline`; returns how far past it the
    /// clock was when the wait ended.
    fn wait_until(&self, deadline: Instant) -> Duration {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return now - deadline;
            }
            let remaining = deadline - now;
            if remaining > SPIN_WINDOW {
                // Coarse phase: park, leaving the spin window as margin
                // for overshoot. Spurious wakeups just re-enter the loop.
                std::thread::park_timeout(remaining - SPIN_WINDOW);
            } else {
                // Fine phase: busy-wait the last few microseconds.
                std::hint::spin_loop();
            }
        }
    }
}

// The accounting tests drive `advance` with instants they make up, so what
// they assert does not depend on how the host schedules the test thread;
// the two tests that really wait assert only that a wait never ends early.
#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// A pacer and its zero point (the first deadline is `t0 + interval`).
    fn pacer(interval: Duration) -> (Pacer, Instant) {
        let p = Pacer::new(interval);
        let t0 = p.next - interval;
        (p, t0)
    }

    #[test]
    fn deadlines_are_absolute_so_jitter_does_not_accumulate() {
        let (mut p, t0) = pacer(2 * MS);
        // Entries land anywhere inside their interval — early, late, on the
        // dot — and the n-th deadline is still t0 + n * interval.
        for (n, jitter_us) in [(1u32, 0u64), (2, 1_900), (3, 5), (4, 2_000), (5, 1_234)] {
            let entry = t0 + 2 * MS * (n - 1) + Duration::from_micros(jitter_us);
            assert_eq!(p.advance(entry), Ok(t0 + 2 * MS * n), "tick {n}");
        }
        assert_eq!(p.missed_deadlines(), 0);
        assert_eq!(p.max_overshoot_ns(), 0);
    }

    #[test]
    fn overdue_ticks_fire_immediately_and_catch_up() {
        let (mut p, t0) = pacer(MS);
        assert_eq!(p.advance(t0), Ok(t0 + MS));
        // Fall behind: tick 2 is entered 3.5 intervals after it was due.
        // It and the next three find their deadlines passed and owe no
        // wait; tick 6 is back on schedule.
        let late = t0 + 2 * MS + 7 * MS / 2;
        assert_eq!(p.advance(late), Err(7 * MS / 2));
        assert_eq!(p.advance(late), Err(5 * MS / 2));
        assert_eq!(p.advance(late), Err(3 * MS / 2));
        assert_eq!(p.advance(late), Err(MS / 2));
        assert_eq!(p.advance(late), Ok(t0 + 6 * MS));
        assert_eq!(p.missed_deadlines(), 4);
        assert_eq!(p.max_overshoot_ns(), 3_500_000);
    }

    #[test]
    fn a_tick_entered_at_or_before_its_deadline_is_not_a_miss() {
        let (mut p, t0) = pacer(2 * MS);
        assert_eq!(p.advance(t0 + 2 * MS), Ok(t0 + 2 * MS), "on the dot");
        assert_eq!(
            p.advance(t0 + 2 * MS),
            Ok(t0 + 4 * MS),
            "a whole interval early"
        );
        assert_eq!(
            p.advance(t0 + 6 * MS + Duration::from_nanos(1)),
            Err(Duration::from_nanos(1)),
            "one nanosecond late"
        );
        assert_eq!(p.missed_deadlines(), 1);
        assert_eq!(p.max_overshoot_ns(), 1);
    }

    #[test]
    fn pace_reports_a_miss_without_waiting_and_lateness_from_the_deadline() {
        let (mut p, _) = pacer(MS);
        // Put the schedule a second behind the clock: the tick is overdue.
        p.next -= Duration::from_secs(1);
        let lateness = p.pace();
        assert!(lateness >= Duration::from_secs(1) - MS, "{lateness:?}");
        assert_eq!(p.missed_deadlines(), 1);
        assert_eq!(p.max_overshoot_ns(), lateness.as_nanos() as u64);
    }

    #[test]
    fn a_wait_never_ends_before_its_deadline() {
        let interval = Duration::from_micros(300);
        let mut pacer = Pacer::new(interval);
        let first_deadline = pacer.next;
        for _ in 0..4 {
            pacer.pace();
        }
        assert!(Instant::now() >= first_deadline + interval * 3);
    }
}
