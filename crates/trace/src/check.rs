//! A deterministic interleaving checker for this crate's ring and the
//! control lane's lock, in the CHESS style: every schedule up to a bound on
//! preemptions, sequentially consistent interleavings only. Test builds
//! only (`sync.rs` takes its types from here under `cfg(test)`).
//!
//! [`explore`] runs two or three thread bodies on real threads, one at a
//! time: the first on the calling thread, the others on threads of a scope
//! that is joined before the next schedule starts, so no more than three
//! threads are ever live. Every operation on this module's [`AtomicU64`]
//! and [`Mutex`] is a scheduling point: the thread parks there, and the
//! checker chooses which thread performs the next operation. A thread
//! waiting for a lock another holds cannot be chosen. Depth first over
//! those choices, it runs every schedule whose preemptions (switching away
//! from a thread that could have gone on) stay within the bound, each on
//! fresh state, and checks an invariant at each end state. A schedule that
//! fails (an end-state panic, a thread's panic, or every live thread
//! waiting for a lock) is printed step by step, and its panic goes on.
//!
//! What it cannot see: each operation takes effect on a real `std` atomic
//! the moment it runs, in schedule order, whatever its `Ordering`. So a
//! reordering only a weakly ordered CPU makes, such as a `Relaxed` load
//! where an `Acquire` was needed, passes here.
//!
//! Outside a run the types pass straight through to `std`: the scheduling
//! point is one thread-local read that finds no run.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, LockResult, PoisonError};
use std::thread;

/// Preemptions per schedule in the crate's models. CHESS's finding is that
/// most concurrency bugs need no more than two; each lost record this
/// crate has had needed one.
pub(crate) const PREEMPTIONS: usize = 2;

/// Run every schedule of `threads` over state built by `setup` whose
/// preemptions stay within `bound`; `end` checks each end state, given the
/// state and each thread's result in order. Returns the number of distinct
/// schedules run.
pub(crate) fn explore<S: Sync, R: Send>(
    bound: usize,
    setup: impl Fn() -> S,
    threads: &[fn(&S) -> R],
    end: impl Fn(&S, Vec<R>),
) -> usize {
    assert!(
        (2..=3).contains(&threads.len()),
        "a model runs two or three threads"
    );
    let mut prefix = Vec::new();
    let mut schedules = 0;
    loop {
        schedules += 1;
        let state = setup();
        let sched = Arc::new(Scheduler::new(threads.len(), prefix));
        let results = thread::scope(|s| {
            let spawned: Vec<_> = (1..threads.len())
                .map(|me| {
                    let (sched, state, body) = (&sched, &state, threads[me]);
                    s.spawn(move || run_as(sched, me, || body(state)))
                })
                .collect();
            let mut results = vec![run_as(&sched, 0, || threads[0](&state))];
            results.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("run_as catches")),
            );
            results
        });
        let run = std::mem::take(&mut *sched.lock());
        let outcome = match run.aborted {
            Some(ref why) => Err(Box::new(why.clone()) as Box<dyn std::any::Any + Send>),
            None => results
                .into_iter()
                .collect::<thread::Result<Vec<R>>>()
                .and_then(|results| panic::catch_unwind(AssertUnwindSafe(|| end(&state, results)))),
        };
        if let Err(payload) = outcome {
            eprintln!("{}", run.describe(schedules));
            panic::resume_unwind(payload);
        }
        match run.next_prefix(bound) {
            Some(next) => prefix = next,
            None => return schedules,
        }
    }
}

/// A `std` atomic whose every operation is a scheduling point.
pub(crate) struct AtomicU64(std::sync::atomic::AtomicU64);

impl AtomicU64 {
    pub(crate) const fn new(v: u64) -> Self {
        Self(std::sync::atomic::AtomicU64::new(v))
    }

    pub(crate) fn load(&self, order: Ordering) -> u64 {
        point(Op::Load);
        self.0.load(order)
    }

    pub(crate) fn store(&self, v: u64, order: Ordering) {
        point(Op::Store);
        self.0.store(v, order);
    }
}

/// A `std` mutex whose lock and unlock are scheduling points. Only a
/// thread the checker chooses runs, and it is never chosen to lock a mutex
/// another thread holds, so the `std` lock underneath never blocks in a run.
pub(crate) struct Mutex<T>(std::sync::Mutex<T>);

/// Held lock of a [`Mutex`]: unlocking is a scheduling point too.
pub(crate) struct MutexGuard<'a, T> {
    _held: std::sync::MutexGuard<'a, T>,
    lock: usize,
}

impl<T> Mutex<T> {
    pub(crate) const fn new(v: T) -> Self {
        Self(std::sync::Mutex::new(v))
    }

    pub(crate) fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let lock = self as *const Self as usize;
        point(Op::Lock(lock));
        match self.0.lock() {
            Ok(held) => Ok(MutexGuard { _held: held, lock }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                _held: poisoned.into_inner(),
                lock,
            })),
        }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Runs before `_held` is dropped: the checker frees the lock for
        // the others only once this thread has been chosen to unlock.
        point(Op::Unlock(self.lock));
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Load,
    Store,
    /// Lock or unlock of the mutex at this address.
    Lock(usize),
    Unlock(usize),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Thread {
    /// Not yet at its first scheduling point.
    Starting,
    /// Parked before this operation.
    At(Op),
    Done,
}

/// One choice of which thread performs the next operation.
struct Decision {
    /// The threads that could, the default first: the thread that reached
    /// the point if it could go on, else the lowest-numbered.
    candidates: Vec<usize>,
    /// Index of the one chosen.
    chosen: usize,
    /// Whether choosing other than `candidates[0]` preempts it.
    preemptive: bool,
    /// Preemptions before this choice.
    preemptions: usize,
}

/// One schedule's bookkeeping.
#[derive(Default)]
struct Run {
    threads: Vec<Thread>,
    /// Mutexes held, by address.
    held: Vec<usize>,
    /// The thread that may run; `threads.len()` once all are done.
    running: usize,
    /// Choices to replay, by thread, before taking defaults.
    prefix: Vec<usize>,
    decisions: Vec<Decision>,
    /// Operations in the order run: thread, operation, whether a preemption.
    steps: Vec<(usize, Op, bool)>,
    aborted: Option<String>,
}

impl Run {
    fn enabled(&self, t: usize) -> bool {
        match self.threads[t] {
            Thread::At(Op::Lock(lock)) => !self.held.contains(&lock),
            Thread::At(_) => true,
            Thread::Starting | Thread::Done => false,
        }
    }

    /// Hand the turn on from `from` (`None` when it finished): to the
    /// next thread still starting, else to the next choice.
    fn pass_turn(&mut self, from: Option<usize>) {
        if let Some(next) = self.threads.iter().position(|t| *t == Thread::Starting) {
            self.running = next;
            return;
        }
        let mut candidates: Vec<usize> = (0..self.threads.len())
            .filter(|&t| self.enabled(t))
            .collect();
        if candidates.is_empty() {
            self.running = self.threads.len();
            if self.threads.iter().any(|t| *t != Thread::Done) {
                self.aborted = Some("deadlock: every live thread waits for a lock".into());
            }
            return;
        }
        // The first choice preempts nobody: no thread has run an operation.
        let current = from.filter(|&t| self.enabled(t) && !self.steps.is_empty());
        if let Some(c) = current {
            candidates.retain(|&t| t != c);
            candidates.insert(0, c);
        }
        let chosen = match self.prefix.get(self.decisions.len()) {
            None => 0,
            Some(&t) => match candidates.iter().position(|&c| c == t) {
                Some(i) => i,
                None => {
                    self.running = self.threads.len();
                    self.aborted = Some(format!(
                        "a replayed choice of thread {t} found it unable to run: \
                         the model is not deterministic"
                    ));
                    return;
                }
            },
        };
        let preemptions = self.preemptions();
        let t = candidates[chosen];
        let preempt = current.is_some() && chosen > 0;
        self.decisions.push(Decision {
            candidates,
            chosen,
            preemptive: current.is_some(),
            preemptions,
        });
        let Thread::At(op) = self.threads[t] else {
            unreachable!("only a parked thread is enabled")
        };
        match op {
            Op::Lock(lock) => self.held.push(lock),
            Op::Unlock(lock) => self.held.retain(|&h| h != lock),
            Op::Load | Op::Store => {}
        }
        self.steps.push((t, op, preempt));
        self.running = t;
    }

    fn preemptions(&self) -> usize {
        self.decisions.last().map_or(0, |d| {
            d.preemptions + usize::from(d.preemptive && d.chosen > 0)
        })
    }

    /// The choices of the next schedule, depth first: the deepest choice
    /// with an untried candidate the bound allows.
    fn next_prefix(&self, bound: usize) -> Option<Vec<usize>> {
        let i = self.decisions.iter().rposition(|d| {
            d.chosen + 1 < d.candidates.len() && d.preemptions + usize::from(d.preemptive) <= bound
        })?;
        let mut next: Vec<usize> = self.decisions[..i]
            .iter()
            .map(|d| d.candidates[d.chosen])
            .collect();
        let d = &self.decisions[i];
        next.push(d.candidates[d.chosen + 1]);
        Some(next)
    }

    /// The failing schedule, one group per run of a thread's operations;
    /// `>` marks a group that preempted the one before.
    fn describe(&self, schedule: usize) -> String {
        let mut out = format!(
            "interleaving checker: schedule {schedule} failed after {} operations \
             with {} preemption(s); `>` marks a preemption\n ",
            self.steps.len(),
            self.preemptions()
        );
        let mut last = None;
        for &(t, op, preempt) in &self.steps {
            if last != Some(t) {
                let mark = if preempt { ">" } else { "" };
                out += &format!("{} {mark}t{t}:", if last.is_some() { " |" } else { "" });
                last = Some(t);
            }
            out += match op {
                Op::Load => " load",
                Op::Store => " store",
                Op::Lock(_) => " lock",
                Op::Unlock(_) => " unlock",
            };
        }
        if let Some(why) = &self.aborted {
            out += &format!("\n  aborted: {why}");
        }
        out
    }
}

struct Scheduler {
    run: std::sync::Mutex<Run>,
    turn: Condvar,
}

/// Panic payload that ends a thread of an aborted schedule.
const ABORTED: &str = "interleaving checker: schedule aborted";

const NO_PANIC_HOLDING: &str = "the checker never panics holding its own lock";

impl Scheduler {
    fn new(threads: usize, prefix: Vec<usize>) -> Self {
        Self {
            run: std::sync::Mutex::new(Run {
                threads: vec![Thread::Starting; threads],
                prefix,
                ..Run::default()
            }),
            turn: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Run> {
        self.run.lock().expect(NO_PANIC_HOLDING)
    }

    /// Park `me` before `op` and wait until it is chosen to perform it;
    /// false once the schedule is aborted.
    fn point(&self, me: usize, op: Op) -> bool {
        let mut run = self.lock();
        if run.aborted.is_none() {
            run.threads[me] = Thread::At(op);
            run.pass_turn(Some(me));
            if run.running != me {
                self.turn.notify_all();
            }
        }
        self.wait_turn(run, me)
    }

    /// Wait until `me` may run; false once the schedule is aborted.
    fn wait_turn(&self, mut run: std::sync::MutexGuard<'_, Run>, me: usize) -> bool {
        while run.running != me && run.aborted.is_none() {
            run = self.turn.wait(run).expect(NO_PANIC_HOLDING);
        }
        run.aborted.is_none()
    }

    fn finish(&self, me: usize) {
        let mut run = self.lock();
        run.threads[me] = Thread::Done;
        if run.aborted.is_none() {
            run.pass_turn(None);
        }
        self.turn.notify_all();
    }
}

struct Current {
    sched: Arc<Scheduler>,
    me: usize,
}

thread_local! {
    /// The run this thread takes part in, and its number in it.
    static CURRENT: RefCell<Option<Current>> = const { RefCell::new(None) };
}

/// Scheduling point before `op`: a no-op outside a run.
fn point(op: Op) {
    let goes_on = CURRENT.with(|current| {
        current
            .borrow()
            .as_ref()
            .is_none_or(|c| c.sched.point(c.me, op))
    });
    // An aborted schedule ends each thread at its next operation, but not
    // from a guard's `Drop` (an unlock) or while the thread is unwinding.
    if !goes_on && !matches!(op, Op::Unlock(_)) && !thread::panicking() {
        panic::resume_unwind(Box::new(ABORTED));
    }
}

/// Run `body` as thread `me` of the run `sched` schedules.
fn run_as<R>(sched: &Arc<Scheduler>, me: usize, body: impl FnOnce() -> R) -> thread::Result<R> {
    CURRENT.with(|current| {
        *current.borrow_mut() = Some(Current {
            sched: Arc::clone(sched),
            me,
        })
    });
    let result = if sched.wait_turn(sched.lock(), me) {
        panic::catch_unwind(AssertUnwindSafe(body))
    } else {
        Err(Box::new(ABORTED) as Box<dyn std::any::Any + Send>)
    };
    sched.finish(me);
    CURRENT.with(|current| *current.borrow_mut() = None);
    result
}

#[cfg(test)]
mod tests {
    //! The checker against models whose schedules can be counted by hand.
    use super::*;

    fn stores(cells: &[AtomicU64; 3], t: usize, n: usize) -> usize {
        for i in 0..n {
            cells[t].store(i as u64, Ordering::Relaxed);
        }
        t
    }

    /// Unbounded, it runs every interleaving once: threads of 3 and 2
    /// operations interleave C(5, 2) = 10 ways, three threads of 2 each
    /// 6! / (2! 2! 2!) = 90 ways; each thread's result comes back in order.
    #[test]
    fn unbounded_it_runs_every_interleaving_once() {
        let cells = || [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
        let check = |_: &[AtomicU64; 3], ids: Vec<usize>| assert_eq!(ids, [0, 1, 2][..ids.len()]);
        let two = explore(
            usize::MAX,
            cells,
            &[|c| stores(c, 0, 3), |c| stores(c, 1, 2)],
            check,
        );
        assert_eq!(two, 10);
        let three = explore(
            usize::MAX,
            cells,
            &[
                |c| stores(c, 0, 2),
                |c| stores(c, 1, 2),
                |c| stores(c, 2, 2),
            ],
            check,
        );
        assert_eq!(three, 90);
    }

    /// Threads A of 3 operations and B of 2. Unpreempted, one runs to its
    /// end once chosen: AAABB and BBAAA. One preemption adds A^k BB A^(3-k)
    /// and B AAA B (2 + 1), two add A^k B A^(3-k) B and B A^k B A^(3-k)
    /// (2 + 2), and the tenth interleaving, ABABA, takes three.
    #[test]
    fn the_bound_counts_preemptions() {
        let cells = || [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
        let threads: &[fn(&[AtomicU64; 3]) -> usize] = &[|c| stores(c, 0, 3), |c| stores(c, 1, 2)];
        for (bound, schedules) in [(0, 2), (1, 5), (2, 9), (3, 10)] {
            assert_eq!(
                explore(bound, cells, threads, |_, _| {}),
                schedules,
                "bound {bound}"
            );
        }
        // Three threads unpreempted: one schedule per order.
        let three: &[fn(&[AtomicU64; 3]) -> usize] = &[
            |c| stores(c, 0, 2),
            |c| stores(c, 1, 2),
            |c| stores(c, 2, 2),
        ];
        assert_eq!(explore(0, cells, three, |_, _| {}), 6);
    }

    fn increment(counter: &AtomicU64) {
        let v = counter.load(Ordering::Relaxed);
        counter.store(v + 1, Ordering::Relaxed);
    }

    /// Two unlocked increments: one preemption between a load and its store
    /// loses one, and the checker names the schedule.
    #[test]
    #[should_panic(expected = "lost update")]
    fn it_finds_a_lost_update() {
        explore(
            1,
            || AtomicU64::new(0),
            &[increment, increment],
            |c, _| assert_eq!(c.load(Ordering::Relaxed), 2, "lost update"),
        );
    }

    fn locked_increment((lock, counter): &(Mutex<()>, AtomicU64)) {
        let _held = lock.lock();
        increment(counter);
    }

    /// The same increments under a lock lose nothing in any schedule, and a
    /// thread that finds the lock held waits instead of being chosen.
    #[test]
    fn a_lock_makes_the_increment_atomic() {
        let schedules = explore(
            usize::MAX,
            || (Mutex::new(()), AtomicU64::new(0)),
            &[locked_increment, locked_increment],
            |(_, c), _| assert_eq!(c.load(Ordering::Relaxed), 2),
        );
        // Each thread: lock, load, store, unlock. Once one has locked, the
        // other's next operation is its lock, so it cannot be chosen until
        // the unlock: one schedule per thread that locks first.
        assert_eq!(schedules, 2);
    }

    /// Two locks taken in opposite orders: the checker reaches the schedule
    /// where each thread holds one and waits for the other.
    #[test]
    #[should_panic(expected = "deadlock")]
    fn it_reports_a_deadlock() {
        explore(
            1,
            || (Mutex::new(()), Mutex::new(())),
            &[
                |(a, b): &(Mutex<()>, Mutex<()>)| drop((a.lock(), b.lock())),
                |(a, b): &(Mutex<()>, Mutex<()>)| drop((b.lock(), a.lock())),
            ],
            |_, _| {},
        );
    }

    #[test]
    fn outside_a_run_the_types_pass_through() {
        let c = AtomicU64::new(3);
        increment(&c);
        assert_eq!(c.load(Ordering::Relaxed), 4);
        let m = Mutex::new(());
        drop(m.lock());
        drop(m.lock());
    }
}
