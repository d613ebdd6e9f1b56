//! The worker thread: Fig. 9's modified epoll event loop, for real.
//!
//! Each worker owns a task channel (its "socket + epoll instance"): a
//! blocking `recv_timeout(5 ms)` is the `epoll_wait` call, the drained
//! backlog is the returned event list, and request CPU cost is consumed by
//! spinning. Around that original loop sit exactly the Hermes additions of
//! Fig. 9, made through the embeddable SDK (`hermes_core::sdk`):
//! `loop_top` on entry, `events_fetched`/`event_handled` around the batch,
//! `conn_opened`/`conn_closed` at accept/close, and
//! `schedule_only`/`sync_only` at the loop end — each timed for the
//! Table 5 overhead breakdown.

use crate::clock::{spin_for_ns, Clock};
use crate::report::ComponentOverhead;
use hermes_core::sdk::{SyncTarget, WorkerSession};
use hermes_metrics::Histogram;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// One unit of work delivered to a worker's "epoll instance".
#[derive(Clone, Debug)]
pub enum Task {
    /// A new connection to accept.
    Accept,
    /// A request event costing `service_ns` of CPU.
    Request {
        /// CPU to burn.
        service_ns: u64,
        /// Submission timestamp (clock ns) for latency accounting.
        submitted_ns: u64,
        /// Whether this is a health probe (Fig. 11 accounting).
        probe: bool,
    },
    /// Connection teardown.
    Close,
    /// Drain remaining tasks and exit.
    Shutdown,
}

/// Everything a worker thread needs.
pub struct WorkerCtx<T: SyncTarget> {
    /// Task channel (the accept queue + conn events).
    pub rx: Receiver<Task>,
    /// This worker's SDK session over the shared WST.
    pub session: WorkerSession<T>,
    /// Shared clock.
    pub clock: Clock,
    /// `epoll_wait` timeout.
    pub epoll_timeout: Duration,
    /// Max events per loop iteration.
    pub max_events: usize,
}

/// Per-worker results returned at join time.
#[derive(Debug)]
pub struct WorkerOutput {
    /// Worker index.
    pub id: usize,
    /// Connections accepted.
    pub accepted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Request latency (non-probe).
    pub request_latency: Histogram,
    /// Probe latency.
    pub probe_latency: Histogram,
    /// Component overhead measured on this worker.
    pub overhead: ComponentOverhead,
    /// schedule_and_sync invocations.
    pub sched_calls: u64,
}

/// Run the event loop until shutdown; returns the worker's measurements.
pub fn run_worker<T: SyncTarget>(mut ctx: WorkerCtx<T>) -> WorkerOutput {
    let mut out = WorkerOutput {
        id: ctx.session.id(),
        accepted: 0,
        completed: 0,
        request_latency: Histogram::latency(),
        probe_latency: Histogram::latency(),
        overhead: ComponentOverhead::default(),
        sched_calls: 0,
    };
    let mut batch: Vec<Task> = Vec::with_capacity(ctx.max_events);
    let mut shutting_down = false;

    loop {
        // ---- loop top: shm_avail_update(current_time) ----
        let t = Instant::now();
        ctx.session.loop_top(ctx.clock.now_ns());
        out.overhead.counter_ns += t.elapsed().as_nanos() as u64;

        // ---- epoll_wait(...) ---- (no wait when the shutdown check below
        // left the task it found in the batch)
        if batch.is_empty() {
            match ctx.rx.recv_timeout(ctx.epoll_timeout) {
                Ok(task) => batch.push(task),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => shutting_down = true,
            }
        }
        while batch.len() < ctx.max_events {
            match ctx.rx.try_recv() {
                Ok(task) => batch.push(task),
                Err(_) => break,
            }
        }

        // ---- shm_busy_count(event_num) ----
        let t = Instant::now();
        ctx.session.events_fetched(batch.len());
        out.overhead.counter_ns += t.elapsed().as_nanos() as u64;

        // ---- handle events ----
        for task in batch.drain(..) {
            match task {
                Task::Accept => {
                    let t = Instant::now();
                    ctx.session.conn_opened();
                    ctx.session.event_handled();
                    out.overhead.counter_ns += t.elapsed().as_nanos() as u64;
                    out.accepted += 1;
                }
                Task::Request {
                    service_ns,
                    submitted_ns,
                    probe,
                } => {
                    spin_for_ns(service_ns);
                    let t = Instant::now();
                    ctx.session.event_handled();
                    out.overhead.counter_ns += t.elapsed().as_nanos() as u64;
                    let latency = ctx.clock.now_ns().saturating_sub(submitted_ns);
                    if probe {
                        out.probe_latency.record(latency);
                    } else {
                        out.request_latency.record(latency);
                    }
                    out.completed += 1;
                }
                Task::Close => {
                    let t = Instant::now();
                    ctx.session.conn_closed();
                    ctx.session.event_handled();
                    out.overhead.counter_ns += t.elapsed().as_nanos() as u64;
                }
                Task::Shutdown => shutting_down = true,
            }
        }

        // ---- schedule_and_sync() at loop end (§5.3.2), timed in halves
        // so Table 5 can separate Scheduler from System call. ----
        let t = Instant::now();
        let decision = ctx.session.schedule_only(ctx.clock.now_ns());
        out.overhead.scheduler_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        ctx.session.sync_only(decision.bitmap);
        out.overhead.sync_ns += t.elapsed().as_nanos() as u64;
        out.sched_calls += 1;

        // Leave once shutting down with the queue empty (or disconnected);
        // a task still there opens the next pass.
        if shutting_down {
            match ctx.rx.try_recv() {
                Ok(task) => batch.push(task),
                Err(_) => return out,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::sched::SchedConfig;
    use hermes_core::selmap::SelMap;
    use hermes_core::wst::Wst;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn spawn_one(
        rx: Receiver<Task>,
        wst: Arc<Wst>,
        sel: Arc<SelMap>,
        clock: Clock,
    ) -> std::thread::JoinHandle<WorkerOutput> {
        std::thread::spawn(move || {
            run_worker(WorkerCtx {
                rx,
                session: WorkerSession::new(wst, 0, SchedConfig::default(), sel),
                clock,
                epoll_timeout: Duration::from_millis(5),
                max_events: 64,
            })
        })
    }

    #[test]
    fn worker_processes_tasks_and_exits_on_shutdown() {
        let (tx, rx) = channel();
        let wst = Arc::new(Wst::new(1));
        let sel = Arc::new(SelMap::new());
        let clock = Clock::new();
        let h = spawn_one(rx, Arc::clone(&wst), Arc::clone(&sel), clock);
        tx.send(Task::Accept).unwrap();
        tx.send(Task::Request {
            service_ns: 10_000,
            submitted_ns: clock.now_ns(),
            probe: false,
        })
        .unwrap();
        tx.send(Task::Close).unwrap();
        tx.send(Task::Shutdown).unwrap();
        let out = h.join().unwrap();
        assert_eq!(out.accepted, 1);
        assert_eq!(out.completed, 1);
        assert!(out.request_latency.count() == 1);
        assert!(out.sched_calls >= 1);
        // Conn count returned to zero after Close.
        assert_eq!(wst.worker(0).snapshot().connections, 0);
        // The worker synced at least once.
        assert!(sel.update_count() >= 1);
    }

    /// Shutdown costs no extra `epoll_wait`: the pass that handles it is
    /// the last one even when the batch cap and the queue's end coincide,
    /// and a task queued behind it is handled without waiting.
    #[test]
    fn shutdown_at_the_batch_cap_returns_without_another_wait() {
        let run = |tasks: &[Task], max_events| {
            let (tx, rx) = channel();
            tasks.iter().for_each(|t| tx.send(t.clone()).unwrap());
            let out = run_worker(WorkerCtx {
                rx,
                session: WorkerSession::new(
                    Arc::new(Wst::new(1)),
                    0,
                    SchedConfig::default(),
                    Arc::new(SelMap::new()),
                ),
                clock: Clock::new(),
                epoll_timeout: Duration::from_secs(2), // a regression shows in the pass count
                max_events,
            });
            drop(tx);
            (out.sched_calls, out.accepted)
        };
        use Task::{Accept, Shutdown};
        // The batch fills to the cap exactly as the queue empties.
        assert_eq!(run(&[Accept, Accept, Accept, Shutdown], 4), (1, 3));
        // `Shutdown` is left for a second pass, which finds it at once.
        assert_eq!(run(&[Accept, Accept, Accept, Accept, Shutdown], 4), (2, 4));
        // Tasks behind `Shutdown` are drained, one pass per batch.
        assert_eq!(run(&[Shutdown, Accept, Accept], 1), (3, 2));
    }

    #[test]
    fn idle_worker_schedules_every_timeout() {
        let (tx, rx) = channel();
        let wst = Arc::new(Wst::new(1));
        let sel = Arc::new(SelMap::new());
        let clock = Clock::new();
        let h = spawn_one(rx, wst, Arc::clone(&sel), clock);
        std::thread::sleep(Duration::from_millis(40));
        tx.send(Task::Shutdown).unwrap();
        let out = h.join().unwrap();
        // ~8 timeouts in 40 ms at a 5 ms epoll timeout; allow slack.
        assert!(out.sched_calls >= 4, "sched calls {}", out.sched_calls);
        assert_eq!(out.completed, 0);
    }

    #[test]
    fn probe_latency_recorded_separately() {
        let (tx, rx) = channel();
        let wst = Arc::new(Wst::new(1));
        let sel = Arc::new(SelMap::new());
        let clock = Clock::new();
        let h = spawn_one(rx, wst, sel, clock);
        tx.send(Task::Request {
            service_ns: 5_000,
            submitted_ns: clock.now_ns(),
            probe: true,
        })
        .unwrap();
        tx.send(Task::Shutdown).unwrap();
        let out = h.join().unwrap();
        assert_eq!(out.probe_latency.count(), 1);
        assert_eq!(out.request_latency.count(), 0);
    }
}
