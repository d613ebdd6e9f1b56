//! The discrete-event engine.
//!
//! One [`Simulator`] runs one workload under one dispatch mode on one
//! simulated device. The event loop mirrors the real pipeline:
//!
//! ```text
//! SYN ──(assign socket / enqueue shared)──► accept queue
//!      ──(wake order / bitmap dispatch)───► worker epoll_wait returns
//!      ──(run-to-completion batch)────────► request completions
//!      ──(Hermes hooks: WST + schedule_and_sync)──► next loop iteration
//! ```
//!
//! *Scripted* events — every `Syn` and `RequestReady` the workload
//! dictates — are never queued: the workload is sorted, so a small heap of
//! each in-play connection's next scripted event yields them in order.
//! *Live* events — whatever a handler schedules — go through
//! [`crate::event_queue`]; `Simulator::next_event` merges the two.
//!
//! Determinism: at one nanosecond scripted events run before live ones,
//! scripted ones in `(connection, Syn, request index)` order and live ones
//! in insertion order (FIFO), so identical inputs replay identically under
//! every mode.
//!
//! The hot path is allocation-free in steady state: events recycle
//! through the queue's arena, the per-`epoll_wait` batch, the sampling
//! lists and the idle flags live in scratch buffers owned by the simulator,
//! connection slots recycle through [`ConnTable`]'s ring, and port lookup
//! is a dense-array index ([`crate::ports::PortTable`]).
//!
//! One thread runs the whole device, every simulated worker included, one
//! event at a time. So the Hermes hooks (Fig. 9's `shm_*` calls) write the
//! worker table with plain stores, not the atomics a `hermes_core::Wst`
//! shares between real worker threads, and the scheduler reads the rows in
//! place (`crate::modes::HermesState`); what it decides is what a `Wst`
//! fed the same updates would give.

use crate::config::{
    Fault, SimConfig, ACCEPT_NS, COUNTER_NS, EPOLL_TIMEOUT_NS, EPOLL_WAIT_NS, MAX_EVENTS,
    PER_PORT_POLL_NS, PROBE_SERVICE_NS, SAMPLE_INTERVAL_NS, SCHED_NS, SYNC_NS, WAKE_NS,
};
use crate::event_queue::CalendarQueue;
use crate::metrics::{BalanceStats, DeviceReport, PortTrace, WorkerReport};
use crate::modes::Dispatcher;
use crate::ports::PortTable;
use crate::state::{ConnId, ConnTable, IoEvent, Phase, WorkerState};
use hermes_metrics::Histogram;
use hermes_workload::Workload;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Scheduled simulation event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    /// SYN arrival of a workload connection.
    Syn(ConnId),
    /// Request `req` of `conn` becomes readable.
    RequestReady { conn: ConnId, req: usize },
    /// Worker wake (epoll_wait returns), valid only for its generation.
    Wake { worker: usize, generation: u64 },
    /// Worker finished its batch (+ trailing loop hooks).
    BatchDone { worker: usize, batch_cost: u64 },
    /// Connection teardown.
    Close(ConnId),
    /// Periodic metrics sampling.
    Sample,
    /// Injected fault trigger (index into config).
    FaultAt(usize),
    /// Per-worker health-probe injection tick (Fig. 11).
    ProbeTick,
}

/// The simulator for one device run.
pub struct Simulator<'w> {
    cfg: SimConfig,
    wl: &'w Workload,
    /// Live events only; scripted ones come from `scripted`.
    queue: CalendarQueue<Ev>,
    /// `(time, conn, step)` of the next scripted event of each connection in
    /// play — the next one to arrive (`wl.conns` is sorted) and every arrived
    /// one whose script is not exhausted. Step 0 is the `Syn`, step `r + 1`
    /// `RequestReady` `r`: the tuple order is the tie-break.
    scripted: BinaryHeap<Reverse<(u64, ConnId, usize)>>,
    now: u64,
    workers: Vec<WorkerState>,
    conns: ConnTable,
    dispatcher: Dispatcher,
    /// Flight-recorder lane override for fleet runs: a stable lane derived
    /// from the device index, so trace routing depends on fleet topology,
    /// never on which pool thread happens to run this device.
    device_lane: Option<u32>,
    /// Dense port table, shared accept queues, and the kernel-style ready
    /// list (draining is O(1) per accepted connection, not O(#ports)).
    ports: PortTable,
    // Scratch buffers: reused across events so the steady-state hot path
    // allocates nothing.
    batch_buf: Vec<IoEvent>,
    idle_buf: Vec<bool>,
    utils_buf: Vec<f64>,
    conns_buf: Vec<f64>,
    // Measurement state.
    events_processed: u64,
    worker_reports: Vec<WorkerReport>,
    request_latency: Histogram,
    probe_latency: Histogram,
    completed_requests: u64,
    accepted_connections: u64,
    probes_sent: u64,
    balance: BalanceStats,
    busy_at_last_sample: Vec<u64>,
    port_trace: Option<PortTrace>,
    /// Appendix C degradation: monitor + count of RST-rescheduled conns.
    degrade: Option<crate::degrade::DegradeMonitor>,
    rst_reschedules: u64,
}

impl<'w> Simulator<'w> {
    /// Build a simulator over a sealed workload. Panics on an unsealed one:
    /// scripted events stream in workload order, so it would run reordered.
    /// Panics too when `cfg.trace_port` is a port no connection uses.
    pub fn new(cfg: SimConfig, wl: &'w Workload) -> Self {
        Self::on_lane(cfg, wl, None)
    }

    /// [`Simulator::new`] for one device of a fleet: every event logs to
    /// `device_lane` (the fleet runner's `hermes_trace::device_lane`), so
    /// trace routing depends on the device, never on the pool thread.
    pub(crate) fn on_lane(cfg: SimConfig, wl: &'w Workload, device_lane: Option<u32>) -> Self {
        cfg.validate();
        // One walk over the rows checks both orders and collects the ports.
        let mut sealed = true;
        let mut last_arrival = 0;
        let ports = PortTable::new(wl.conns.iter().map(|c| {
            sealed &= last_arrival <= c.arrival_ns && wl.requests_of(c).is_sorted();
            last_arrival = c.arrival_ns;
            c.port()
        }));
        assert!(
            sealed,
            "workload `{}` is not sealed: connections must be sorted by arrival \
             (Workload::seal does that) and each connection's requests by start offset",
            wl.name
        );
        let n = cfg.workers;
        let dispatcher = Dispatcher::new(cfg.mode, n, cfg.hermes.clone());
        if let Some(port) = cfg.trace_port {
            assert!(
                ports.index_of(port).is_some(),
                "trace_port {port}: no connection of workload `{}` uses it",
                wl.name
            );
        }
        let port_trace = cfg.trace_port.map(PortTrace::new);
        let mut sim = Self {
            workers: (0..n).map(|_| WorkerState::new()).collect(),
            worker_reports: (0..n).map(|_| WorkerReport::new()).collect(),
            busy_at_last_sample: vec![0; n],
            conns: ConnTable::new(),
            dispatcher,
            device_lane,
            ports,
            queue: CalendarQueue::new(),
            scripted: BinaryHeap::new(),
            batch_buf: Vec::with_capacity(MAX_EVENTS),
            idle_buf: Vec::with_capacity(n),
            utils_buf: Vec::with_capacity(n),
            conns_buf: Vec::with_capacity(n),
            events_processed: 0,
            now: 0,
            request_latency: Histogram::latency(),
            probe_latency: Histogram::latency(),
            completed_requests: 0,
            accepted_connections: 0,
            probes_sent: 0,
            balance: BalanceStats::default(),
            port_trace,
            degrade: cfg
                .degrade
                .map(|d| crate::degrade::DegradeMonitor::new(n, d)),
            rst_reschedules: 0,
            cfg,
            wl,
        };
        sim.prime();
        sim
    }

    #[inline]
    fn push(&mut self, t: u64, ev: Ev) {
        self.queue.push(t, ev);
    }

    /// Flight-recorder lane for worker `w`'s events: the worker id on a
    /// standalone device, the stable device lane in a fleet run.
    #[inline]
    fn worker_lane(&self, w: usize) -> u32 {
        self.device_lane.unwrap_or(w as u32)
    }

    /// Flight-recorder lane for kernel-side events (SYN arrival, dispatch).
    #[inline]
    fn kernel_lane(&self) -> u32 {
        self.device_lane.unwrap_or(hermes_trace::KERNEL_LANE)
    }

    /// Time of the earliest scripted event still to run, and whether it is
    /// a `Syn` (else a `RequestReady`).
    #[inline]
    fn scripted_head(&self) -> Option<(u64, bool)> {
        let &Reverse((t, _, step)) = self.scripted.peek()?;
        Some((t, step == 0))
    }

    /// Run the earliest scripted event: its connection's next step replaces
    /// it in place (one sift), and a `Syn` brings the next arrival into play.
    fn release_scripted(&mut self) -> Ev {
        let wl = self.wl;
        let mut head = self.scripted.peek_mut().expect("a scripted event");
        let Reverse((_, conn, step)) = *head;
        let spec = &wl.conns[conn];
        match wl.requests_of(spec).get(step) {
            Some(r) => {
                let at = spec.arrival_ns.saturating_add(r.start_offset_ns);
                *head = Reverse((at, conn, step + 1));
                drop(head);
            }
            None => drop(PeekMut::pop(head)),
        }
        if let Some(req) = step.checked_sub(1) {
            return Ev::RequestReady { conn, req };
        }
        if let Some(next) = wl.conns.get(conn + 1) {
            self.scripted.push(Reverse((next.arrival_ns, conn + 1, 0)));
        }
        Ev::Syn(conn)
    }

    /// The next event: the scripted stream merged with the live queue. A
    /// live event runs first only if strictly earlier than the scripted
    /// head — the order one queue gave when every scripted event was
    /// inserted before any live one.
    #[inline]
    fn next_event(&mut self) -> Option<(u64, Ev)> {
        let Some((t, _)) = self.scripted_head() else {
            return self.queue.pop();
        };
        let live = self.queue.pop_before(t);
        live.or_else(|| Some((t, self.release_scripted())))
    }

    /// Seed the first arrival, and the queue: worker boot, sampling, faults,
    /// probes.
    fn prime(&mut self) {
        if let Some(first) = self.wl.conns.first() {
            self.scripted.push(Reverse((first.arrival_ns, 0, 0)));
        }
        // Workers boot idle at t=0: loop entry recorded, timeout armed,
        // and (for Hermes) an initial all-available bitmap synced — the
        // workers were looping long before the first connection arrives;
        // worker 0's loop runs that pass.
        for w in 0..self.cfg.workers {
            if let Dispatcher::Hermes(h) = &mut self.dispatcher {
                h.enter_loop(w, 0);
            }
            self.block_worker(w, 0);
        }
        let lane = self.worker_lane(0);
        if let Dispatcher::Hermes(h) = &mut self.dispatcher {
            h.schedule_and_sync(0, lane);
        }
        let mut t = SAMPLE_INTERVAL_NS;
        while t <= self.wl.duration_ns {
            self.push(t, Ev::Sample);
            t += SAMPLE_INTERVAL_NS;
        }
        for i in 0..self.cfg.faults.len() {
            let at = match self.cfg.faults[i] {
                Fault::Crash { at_ns, .. } | Fault::Hang { at_ns, .. } => at_ns,
            };
            self.push(at, Ev::FaultAt(i));
        }
        if let Some(interval) = self.cfg.probe_interval_ns {
            self.push(interval, Ev::ProbeTick);
        }
    }

    /// Run to the horizon and produce the report.
    pub fn run(mut self) -> DeviceReport {
        while let Some((t, ev)) = self.next_event() {
            if t > self.wl.duration_ns {
                break;
            }
            self.now = t;
            self.events_processed += 1;
            match ev {
                Ev::Syn(c) => self.on_syn(c),
                Ev::RequestReady { conn, req } => self.on_request_ready(conn, req),
                Ev::Wake { worker, generation } => self.on_wake(worker, generation),
                Ev::BatchDone { worker, batch_cost } => self.on_batch_done(worker, batch_cost),
                Ev::Close(c) => self.on_close(c),
                Ev::Sample => self.on_sample(),
                Ev::FaultAt(i) => self.on_fault(i),
                Ev::ProbeTick => self.on_probe_tick(),
            }
        }
        self.finish()
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_syn(&mut self, c: ConnId) {
        let spec = &self.wl.conns[c];
        self.conns.open(c, spec.request_count());
        hermes_trace::trace_event!(
            self.now,
            hermes_trace::EventKind::SimSyn,
            self.kernel_lane(),
            c,
            spec.flow.hash()
        );
        if self.dispatcher.assigns_at_syn() {
            let w = self
                .dispatcher
                .assign_at_syn(spec.flow.hash())
                .expect("per-socket modes always assign");
            self.conns.set_worker(c, w);
            hermes_trace::trace_event!(
                self.now,
                hermes_trace::EventKind::SimDispatch,
                self.worker_lane(w),
                spec.flow.hash(),
                w
            );
            // The accept notification lands on the epoll instance that owns
            // the socket.
            self.workers[w].pending.push_back(IoEvent::Accept(c));
            self.notify(w);
        } else {
            let pidx = self.ports.index_of(spec.port()).expect("registered port");
            self.ports.enqueue(pidx, c);
            self.idle_buf.clear();
            self.idle_buf
                .extend(self.workers.iter().map(|w| w.is_idle() && !w.crashed));
            if let Some(w) = self.dispatcher.pick_wake(&self.idle_buf) {
                self.notify(w);
            }
        }
    }

    fn on_request_ready(&mut self, conn: ConnId, req: usize) {
        if self.conns.closed(conn) {
            return;
        }
        if !self.conns.accepted(conn) {
            self.conns.park(conn);
            return;
        }
        self.deliver_request(conn, req);
    }

    /// Push a ready request's events onto the owning epoll instance.
    fn deliver_request(&mut self, conn: ConnId, req: usize) {
        let owner = self.conns.worker(conn).expect("accepted conn has owner");
        let spec = &self.wl.conns[conn];
        let request = self
            .wl
            .requests_of(spec)
            .get(req)
            .expect("a scripted request");
        let per_event = self.wl.service_per_event_ns(spec, &request).max(1);
        let events = self.wl.events_of(spec);
        for i in 1..=events {
            self.workers[owner].pending.push_back(IoEvent::Request {
                conn,
                req,
                service_ns: per_event,
                last: i == events,
            });
        }
        self.notify(owner);
    }

    /// An event arrived for worker `w`: wake it if it is blocked.
    fn notify(&mut self, w: usize) {
        let ws = &mut self.workers[w];
        if ws.crashed || !ws.is_idle() || ws.wake_scheduled {
            return;
        }
        ws.generation += 1;
        ws.wake_scheduled = true;
        let gen = ws.generation;
        self.push(
            self.now + WAKE_NS,
            Ev::Wake {
                worker: w,
                generation: gen,
            },
        );
    }

    /// Enter the blocked-in-`epoll_wait` state and arm the 5 ms timeout.
    fn block_worker(&mut self, w: usize, at: u64) {
        let ws = &mut self.workers[w];
        ws.phase = Phase::Idle { since: at };
        ws.generation += 1;
        ws.wake_scheduled = false;
        let gen = ws.generation;
        self.push(
            at + EPOLL_TIMEOUT_NS,
            Ev::Wake {
                worker: w,
                generation: gen,
            },
        );
    }

    fn on_wake(&mut self, w: usize, generation: u64) {
        let ws = &self.workers[w];
        if ws.crashed || ws.generation != generation || !ws.is_idle() {
            return; // stale timeout or superseded wake
        }
        let since = match ws.phase {
            Phase::Idle { since } => since,
            Phase::Running => unreachable!(),
        };
        let blocked = self.now.saturating_sub(since);
        self.worker_reports[w].blocking_ns.record(blocked);
        hermes_trace::trace_event!(
            self.now,
            hermes_trace::EventKind::SimWake,
            self.worker_lane(w),
            self.workers[w].pending.len(),
            blocked
        );
        self.start_batch(w);
    }

    /// Collect a batch (epoll_wait return) and schedule its completion.
    /// The batch lives in a scratch buffer reused across every wake.
    fn start_batch(&mut self, w: usize) {
        let mut batch = std::mem::take(&mut self.batch_buf);
        batch.clear();
        while batch.len() < MAX_EVENTS {
            match self.workers[w].pending.pop_front() {
                Some(e) => batch.push(e),
                None => break,
            }
        }
        // Shared-queue modes: drain ready ports' accept queues into the
        // batch (O(1) per connection via the ready list; stale fronts
        // retire inside `pop_ready`).
        if !self.dispatcher.assigns_at_syn() {
            while batch.len() < MAX_EVENTS {
                match self.ports.pop_ready() {
                    Some(c) => batch.push(IoEvent::Accept(c)),
                    None => break,
                }
            }
        }

        let is_shared = !self.dispatcher.assigns_at_syn();
        let is_hermes = self.dispatcher.hermes().is_some();
        let mut cost = EPOLL_WAIT_NS;
        // §6.2 Case 1's dispatch-overhead asymmetry: shared-queue modes
        // register every port's listening socket with every epoll instance,
        // so dispatching (accepting) a connection costs O(#ports); the
        // per-socket modes pay O(1).
        let accept_cost = ACCEPT_NS
            + if is_shared {
                PER_PORT_POLL_NS * self.ports.len() as u64
            } else {
                0
            };

        if batch.is_empty() {
            // Timeout / lost race: empty loop iteration.
            self.batch_buf = batch;
            self.workers[w].empty_wakes += 1;
            self.worker_reports[w].events_per_wait.record(0);
            if is_hermes {
                cost += COUNTER_NS + SCHED_NS + SYNC_NS;
            }
            self.workers[w].phase = Phase::Running;
            self.push(
                self.now + cost,
                Ev::BatchDone {
                    worker: w,
                    batch_cost: cost,
                },
            );
            return;
        }

        self.worker_reports[w]
            .events_per_wait
            .record(batch.len() as u64);
        if is_hermes {
            // shm_busy_count(event_num) + per-event decrement + scheduler.
            let h = self.dispatcher.hermes_mut();
            h.add_pending(w, batch.len() as i64);
            cost += COUNTER_NS * (1 + batch.len() as u64) + SCHED_NS + SYNC_NS;
        }

        // Walk the batch accumulating completion times. The WST pending
        // count stays elevated until the batch completes (the per-event
        // decrements of Fig. 9 line 18 land at BatchDone), so concurrent
        // schedulers see this worker as busy for the whole batch.
        self.workers[w].in_flight_events = batch.len() as i64;
        let mut t = self.now + cost;
        for ev in batch.drain(..) {
            match ev {
                IoEvent::Accept(c) => {
                    t += accept_cost;
                    if is_hermes {
                        t += COUNTER_NS;
                    }
                    self.do_accept(w, c);
                }
                IoEvent::Request {
                    conn,
                    req,
                    service_ns,
                    last,
                } => {
                    t += service_ns;
                    if last {
                        self.finish_request(conn, req, t);
                    }
                }
                IoEvent::Poison { duration_ns } => {
                    t += duration_ns;
                }
                IoEvent::Probe { submitted_ns } => {
                    t += PROBE_SERVICE_NS;
                    self.probe_latency.record(t.saturating_sub(submitted_ns));
                }
            }
        }
        self.batch_buf = batch;
        let batch_cost = t - self.now;
        self.worker_reports[w].batch_proc_ns.record(batch_cost);
        self.workers[w].phase = Phase::Running;
        self.push(
            t,
            Ev::BatchDone {
                worker: w,
                batch_cost,
            },
        );
    }

    /// Execute `accept()` bookkeeping for connection `c` on worker `w`.
    fn do_accept(&mut self, w: usize, c: ConnId) {
        if self.conns.closed(c) || self.conns.accepted(c) {
            return; // raced: another worker drained it first
        }
        self.conns.set_accepted(c);
        if self.conns.worker(c).is_none() {
            self.conns.set_worker(c, w);
        }
        let owner = self.conns.worker(c).expect("assigned");
        self.workers[owner].connections += 1;
        self.workers[owner].accepted_total += 1;
        self.accepted_connections += 1;
        if let Dispatcher::Hermes(h) = &mut self.dispatcher {
            h.conn_delta(owner, 1);
        }
        if let Some(tr) = &mut self.port_trace {
            if tr.port == self.wl.conns[c].port() {
                tr.conn_delta(self.now, 1);
            }
        }
        // Requests that arrived while the connection waited in the accept
        // queue, always its first few, become deliverable now, in order.
        for req in 0..self.conns.parked(c) {
            self.deliver_request(c, req);
        }
        // A connection with no scripted requests closes after linger.
        if self.conns.remaining_requests(c) == 0 {
            let linger = self.wl.linger_of(&self.wl.conns[c]);
            self.push(self.now + linger, Ev::Close(c));
        }
    }

    /// Request `req` of `conn` completed at `t`, its last event run: the LB
    /// is done processing it. Record end-to-end latency and schedule
    /// teardown once the connection runs dry.
    fn finish_request(&mut self, conn: ConnId, req: usize, t: u64) {
        // Request complete: latency from readiness to final event.
        let spec = &self.wl.conns[conn];
        let request = self
            .wl
            .requests_of(spec)
            .get(req)
            .expect("a scripted request");
        let ready = spec.arrival_ns + request.start_offset_ns;
        self.request_latency.record(t.saturating_sub(ready));
        self.completed_requests += 1;
        if let Some(tr) = &mut self.port_trace {
            if tr.port == spec.port() {
                tr.requests.record(t.min(self.wl.duration_ns), 1.0);
            }
        }
        if self.conns.complete_request(conn) == 0 {
            self.push(t + self.wl.linger_of(spec), Ev::Close(conn));
        }
    }

    fn on_batch_done(&mut self, w: usize, batch_cost: u64) {
        if self.workers[w].crashed {
            return;
        }
        self.workers[w].busy_ns += batch_cost;
        let sched_at_start = self.cfg.sched_at_loop_start;
        let drained = std::mem::take(&mut self.workers[w].in_flight_events);
        let lane = self.worker_lane(w);
        if let Dispatcher::Hermes(h) = &mut self.dispatcher {
            // Per-event decrements of Fig. 9 line 18, applied at batch end.
            h.add_pending(w, -drained);
            if !sched_at_start {
                // schedule_and_sync at the end of the loop (Fig. 9 line 20).
                h.schedule_and_sync(self.now, lane);
            }
            // Loop top: shm_avail_update(current_time).
            h.enter_loop(w, self.now);
            if sched_at_start {
                // Ablation: schedule before epoll_wait, observing pre-batch
                // (possibly stale) status.
                h.schedule_and_sync(self.now, lane);
            }
        }
        // epoll_wait: immediate return if events are pending, else block.
        // Possibly-stale ready entries cost at most one empty batch, which
        // cleans them.
        let has_shared_work = !self.dispatcher.assigns_at_syn() && self.ports.has_ready();
        if !self.workers[w].pending.is_empty() || has_shared_work {
            self.start_batch(w);
        } else {
            self.block_worker(w, self.now);
        }
    }

    /// Teardown, scheduled only once an accepted connection runs dry.
    fn on_close(&mut self, c: ConnId) {
        if self.conns.closed(c) {
            return;
        }
        let owner = self.conns.worker(c).expect("accepted conn has owner");
        self.conns.close(c);
        self.workers[owner].connections -= 1;
        if let Dispatcher::Hermes(h) = &mut self.dispatcher {
            h.conn_delta(owner, -1);
        }
        if let Some(tr) = &mut self.port_trace {
            if tr.port == self.wl.conns[c].port() {
                tr.conn_delta(self.now, -1);
            }
        }
    }

    fn on_sample(&mut self) {
        let interval = SAMPLE_INTERVAL_NS as f64;
        let mut utils = std::mem::take(&mut self.utils_buf);
        let mut conns = std::mem::take(&mut self.conns_buf);
        utils.clear();
        conns.clear();
        for (w, ws) in self.workers.iter().enumerate() {
            let delta = ws.busy_ns.saturating_sub(self.busy_at_last_sample[w]);
            self.busy_at_last_sample[w] = ws.busy_ns;
            utils.push(((delta as f64 / interval) * 100.0).min(100.0));
            conns.push(ws.connections as f64);
        }
        let cpu_sd = hermes_metrics::welford::stddev_of(&utils);
        let conn_sd = hermes_metrics::welford::stddev_of(&conns);
        self.balance.cpu_sd.record(cpu_sd);
        self.balance.conn_sd.record(conn_sd);
        self.balance.series.push((self.now, cpu_sd, conn_sd));
        self.run_degradation(&utils);
        self.utils_buf = utils;
        self.conns_buf = conns;
    }

    /// Appendix C exception case 1: feed per-worker utilization into the
    /// degradation monitor; on a reset action, re-home a slice of the hot
    /// worker's connections through the Hermes dispatch (the clients'
    /// reconnects land on healthy workers). `SimConfig::validate` admits
    /// the monitor in Hermes mode only.
    fn run_degradation(&mut self, utils: &[f64]) {
        use crate::degrade::DegradeAction;
        let Some(monitor) = &mut self.degrade else {
            return;
        };
        let mut resets: Vec<(usize, usize)> = Vec::new();
        for (w, ws) in self.workers.iter().enumerate() {
            let live = ws.connections.max(0) as usize;
            if let DegradeAction::ResetConnections { count, .. } =
                monitor.observe(w, utils[w] / 100.0, live)
            {
                resets.push((w, count));
            }
        }
        for (victim, count) in resets {
            let mut shed = 0;
            // Re-home the victim's live connections until `count` moved:
            // owner changes, so all *future* request events deliver to the
            // new worker; in-flight events finish where they are. Ids
            // outside the window are closed or not yet arrived.
            for c in self.conns.open_ids() {
                if shed >= count {
                    break;
                }
                if !self.conns.accepted(c)
                    || self.conns.closed(c)
                    || self.conns.worker(c) != Some(victim)
                    || self.conns.remaining_requests(c) == 0
                {
                    continue;
                }
                let flow_hash = self.wl.conns[c].flow.hash();
                let new_owner = self.dispatcher.hermes_mut().redirect(flow_hash);
                if new_owner == victim {
                    continue; // fallback hashed straight back: skip
                }
                self.conns.set_worker(c, new_owner);
                self.workers[victim].connections -= 1;
                self.workers[new_owner].connections += 1;
                let h = self.dispatcher.hermes_mut();
                h.conn_delta(victim, -1);
                h.conn_delta(new_owner, 1);
                self.rst_reschedules += 1;
                shed += 1;
            }
        }
    }

    /// Inject one probe into every worker's event queue and re-arm.
    fn on_probe_tick(&mut self) {
        let now = self.now;
        for w in 0..self.workers.len() {
            self.workers[w]
                .pending
                .push_back(IoEvent::Probe { submitted_ns: now });
            self.probes_sent += 1;
            self.notify(w);
        }
        if let Some(interval) = self.cfg.probe_interval_ns {
            self.push(now + interval, Ev::ProbeTick);
        }
    }

    fn on_fault(&mut self, i: usize) {
        match self.cfg.faults[i] {
            Fault::Crash { worker, .. } => {
                self.workers[worker].crashed = true;
            }
            Fault::Hang {
                worker,
                duration_ns,
                ..
            } => {
                self.workers[worker]
                    .pending
                    .push_front(IoEvent::Poison { duration_ns });
                self.notify(worker);
            }
        }
    }

    fn finish(mut self) -> DeviceReport {
        let horizon = self.wl.duration_ns;
        // Every connection that arrived by the horizon had its `Syn`; those
        // below the window closed with nothing left to run.
        let mut incomplete = 0u64;
        let mut unaccepted = 0u64;
        for c in self.conns.open_ids() {
            if !self.conns.accepted(c) {
                unaccepted += 1;
            }
            incomplete += u64::from(self.conns.remaining_requests(c));
        }
        for (w, ws) in self.workers.iter().enumerate() {
            let r = &mut self.worker_reports[w];
            r.busy_ns = ws.busy_ns;
            r.accepted = ws.accepted_total;
            r.final_connections = ws.connections;
            r.empty_wakes = ws.empty_wakes;
            r.utilization = (ws.busy_ns as f64 / horizon as f64).min(1.0);
        }
        let sched = self
            .dispatcher
            .hermes()
            .map(|h| h.stats.clone())
            .unwrap_or_default();
        DeviceReport {
            label: format!("{} [{}]", self.wl.name, self.cfg.mode.name()),
            horizon_ns: horizon,
            events_processed: self.events_processed,
            request_latency: self.request_latency,
            probe_latency: self.probe_latency,
            probes_sent: self.probes_sent,
            completed_requests: self.completed_requests,
            incomplete_requests: incomplete,
            accepted_connections: self.accepted_connections,
            unaccepted_connections: unaccepted,
            workers: self.worker_reports,
            balance: self.balance,
            sched,
            port_trace: self.port_trace,
            rst_reschedules: self.rst_reschedules,
            conn_table_bytes: self.conns.memory_bytes(),
            peak_pending_events: self.queue.arena_size() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use hermes_core::FlowKey;
    use hermes_metrics::{NANOS_PER_MILLI, NANOS_PER_SEC};
    use hermes_workload::{Case, CaseLoad, ConnectionSpec, RequestSpec};

    /// A workload of `n` one-request connections, `service` ns each,
    /// arriving every `gap` ns.
    fn uniform_workload(n: usize, gap: u64, service: u64) -> Workload {
        let mut w = Workload::new("uniform", n as u64 * gap + NANOS_PER_SEC);
        w.set_events_per_request(0, 2);
        let request = RequestSpec {
            start_offset_ns: 0,
            service_ns: service,
        };
        for i in 0..n {
            let flow = FlowKey::new(0x0a000000 + i as u32, (i % 60_000) as u16, 1, 443);
            w.push(ConnectionSpec::new(i as u64 * gap, flow, 0), [request]);
        }
        w.seal()
    }

    fn run(mode: Mode, wl: &Workload, workers: usize) -> DeviceReport {
        Simulator::new(SimConfig::new(workers, mode), wl).run()
    }

    #[test]
    fn all_requests_complete_under_light_load() {
        let wl = uniform_workload(500, 1_000_000, 50_000);
        for mode in Mode::paper_trio() {
            let r = run(mode, &wl, 4);
            assert_eq!(
                r.completed_requests, 500,
                "{mode:?}: {} completed, {} incomplete",
                r.completed_requests, r.incomplete_requests
            );
            assert_eq!(r.accepted_connections, 500, "{mode:?}");
            assert_eq!(r.unaccepted_connections, 0, "{mode:?}");
        }
    }

    #[test]
    fn latency_includes_service_and_wake() {
        // A single cheap connection: latency ≈ wake + epoll + accept +
        // (second epoll round) + service; must be well under a millisecond
        // and at least the service time.
        let wl = uniform_workload(1, 1_000_000, 100_000);
        let r = run(Mode::Reuseport, &wl, 2);
        assert_eq!(r.completed_requests, 1);
        let lat = r.request_latency.max();
        assert!(lat >= 100_000, "latency {lat} < service");
        assert!(lat < 1_000_000, "latency {lat} unreasonably high");
    }

    #[test]
    fn exclusive_lifo_concentrates_reuseport_spreads() {
        // Light, serialized arrivals: LIFO should park nearly everything on
        // the last-registered worker; reuseport spreads by hashing.
        let wl = uniform_workload(2_000, 500_000, 20_000);
        let excl = run(Mode::ExclusiveLifo, &wl, 8);
        let reuse = run(Mode::Reuseport, &wl, 8);
        let top_excl = excl.workers.iter().map(|w| w.accepted).max().unwrap();
        let top_reuse = reuse.workers.iter().map(|w| w.accepted).max().unwrap();
        assert!(
            top_excl as f64 > 0.8 * 2_000.0,
            "exclusive top worker only {top_excl}"
        );
        assert!(
            (top_reuse as f64) < 0.3 * 2_000.0,
            "reuseport top worker {top_reuse}"
        );
        assert!(excl.accepted_sd() > 5.0 * reuse.accepted_sd());
    }

    #[test]
    fn hermes_balances_connections_and_uses_directed_path() {
        let wl = uniform_workload(4_000, 200_000, 30_000);
        let r = run(Mode::Hermes, &wl, 8);
        assert_eq!(r.completed_requests, 4_000);
        assert!(
            r.sched.directed_dispatches > 3_000,
            "directed {} fallback {}",
            r.sched.directed_dispatches,
            r.sched.fallback_dispatches
        );
        let max = r.workers.iter().map(|w| w.accepted).max().unwrap();
        let min = r.workers.iter().map(|w| w.accepted).min().unwrap();
        assert!(max < 2 * min.max(1), "hermes accept spread {min}..{max}");
        assert!(r.sched.calls > 0);
    }

    /// The report carries the syncs that reached the kernel's word: at
    /// least the first, at most one per pass, and none outside Hermes.
    #[test]
    fn a_hermes_run_reports_its_publishes() {
        let wl = uniform_workload(4_000, 200_000, 30_000);
        let s = run(Mode::Hermes, &wl, 8).sched;
        assert!(0 < s.publishes && s.publishes <= s.calls, "{s:?}");
        assert_eq!(run(Mode::Reuseport, &wl, 8).sched.publishes, 0);
    }

    #[test]
    fn crashed_reuseport_worker_strands_connections() {
        let mut cfg = SimConfig::new(4, Mode::Reuseport);
        cfg.faults.push(Fault::Crash {
            worker: 1,
            at_ns: 0,
        });
        let wl = uniform_workload(1_000, 500_000, 20_000);
        let r = Simulator::new(cfg, &wl).run();
        // Roughly 1/4 of connections hash to the dead worker and strand.
        assert!(
            r.unaccepted_connections > 150,
            "stranded {}",
            r.unaccepted_connections
        );
        assert!(r.completed_requests < 1_000);
    }

    #[test]
    fn crashed_worker_under_hermes_is_bypassed() {
        let mut cfg = SimConfig::new(4, Mode::Hermes);
        cfg.hermes.hang_threshold_ns = 20 * NANOS_PER_MILLI;
        cfg.faults.push(Fault::Crash {
            worker: 1,
            at_ns: 50 * NANOS_PER_MILLI,
        });
        let wl = uniform_workload(2_000, 500_000, 20_000);
        let r = Simulator::new(cfg, &wl).run();
        // Hermes detects the stale loop timestamp and routes around it; a
        // small slice of early connections is lost.
        assert!(
            r.unaccepted_connections < 100,
            "stranded {}",
            r.unaccepted_connections
        );
        assert!(r.completed_requests > 1_800);
    }

    #[test]
    fn hang_fault_stalls_then_recovers() {
        let mut cfg = SimConfig::new(2, Mode::Reuseport);
        cfg.faults.push(Fault::Hang {
            worker: 0,
            at_ns: 10 * NANOS_PER_MILLI,
            duration_ns: 200 * NANOS_PER_MILLI,
        });
        let wl = uniform_workload(200, 2_000_000, 20_000);
        let r = Simulator::new(cfg, &wl).run();
        // Everything completes eventually, but the hang inflates the tail.
        assert_eq!(r.completed_requests, 200);
        assert!(
            r.request_latency.max() > 100 * NANOS_PER_MILLI,
            "max latency {}",
            r.request_latency.max()
        );
    }

    #[test]
    fn sampling_produces_balance_series() {
        let wl = uniform_workload(1_000, 400_000, 100_000);
        let r = run(Mode::ExclusiveLifo, &wl, 4);
        assert!(!r.balance.series.is_empty());
        assert!(r.balance.cpu_sd.count() > 0);
    }

    #[test]
    fn port_trace_records_gauge_and_rate() {
        let mut cfg = SimConfig::new(2, Mode::Reuseport);
        cfg.trace_port = Some(443);
        let mut wl = uniform_workload(100, 1_000_000, 20_000);
        wl.set_linger(0, 10_000_000);
        let r = Simulator::new(cfg, &wl).run();
        let tr = r.port_trace.expect("trace enabled");
        assert_eq!(tr.port, 443);
        let total_reqs: f64 = tr.requests.points().iter().map(|(_, v)| v).sum();
        assert_eq!(total_reqs as u64, 100);
        // One arrival a millisecond, each open 10 ms: ten live at the first
        // sample's end, none once the last has closed.
        let gauge: Vec<f64> = tr.connections.points().iter().map(|&(_, v)| v).collect();
        assert_eq!(gauge, [10.0, 0.0]);
    }

    /// Connections `(arrival, request offsets)`, one cheap two-event
    /// request per offset; ids are positions (arrivals must be sorted).
    fn scripted_workload(conns: &[(u64, &[u64])]) -> Workload {
        scripted_workload_costing(conns, 20_000)
    }

    /// [`scripted_workload`] with every request costing `service_ns`.
    fn scripted_workload_costing(conns: &[(u64, &[u64])], service_ns: u64) -> Workload {
        let mut w = Workload::new("scripted", NANOS_PER_SEC);
        w.set_events_per_request(0, 2);
        for (i, &(arrival_ns, offsets)) in conns.iter().enumerate() {
            let request = |&start_offset_ns| RequestSpec {
                start_offset_ns,
                service_ns,
            };
            let flow = FlowKey::new(0x0a00_0000 + i as u32 * 7919, 1000 + i as u16, 1, 443);
            let conn = ConnectionSpec::new(arrival_ns, flow, 0);
            w.push(conn, offsets.iter().map(request));
        }
        w
    }

    /// Pull events without running them, up to and including time `until`
    /// (well before the first boot timeout or sample).
    fn pull(sim: &mut Simulator, until: u64) -> Vec<(u64, Ev)> {
        let mut out = Vec::new();
        while let Some((t, ev)) = sim.next_event() {
            if t > until {
                break;
            }
            out.push((t, ev));
        }
        out
    }

    fn ready(conn: ConnId, req: usize) -> Ev {
        Ev::RequestReady { conn, req }
    }

    #[test]
    fn live_events_on_a_scripted_nanosecond_run_after_the_scripted_ones() {
        let wl = scripted_workload(&[(1_000, &[0]), (2_000, &[500])]).seal();
        let mut sim = Simulator::new(SimConfig::new(2, Mode::Reuseport), &wl);
        let wake = Ev::Wake {
            worker: 0,
            generation: 99,
        };
        let done = Ev::BatchDone {
            worker: 1,
            batch_cost: 7,
        };
        // Pushed before anything scripted has run, as a handler at an
        // earlier instant would; each lands exactly on a scripted time.
        sim.push(999, Ev::Sample);
        sim.push(1_000, wake);
        sim.push(2_000, done);
        sim.push(2_500, Ev::Close(0));
        assert_eq!(
            pull(&mut sim, 10_000),
            vec![
                (999, Ev::Sample),
                (1_000, Ev::Syn(0)),
                (1_000, ready(0, 0)),
                (1_000, wake),
                (2_000, Ev::Syn(1)),
                (2_000, done),
                (2_500, ready(1, 0)),
                (2_500, Ev::Close(0)),
            ]
        );
    }

    #[test]
    fn a_handler_at_a_scripted_instant_can_schedule_right_after_it() {
        // The queue holds one far event; refusing it for the scripted head
        // must not move the queue's clock past that head, or the wake the
        // head's handler pushes (now + wake_ns) would be clamped later.
        let wl = scripted_workload(&[(1_000, &[0])]).seal();
        let mut sim = Simulator::new(SimConfig::new(1, Mode::Reuseport), &wl);
        assert_eq!(sim.next_event(), Some((1_000, Ev::Syn(0))));
        sim.push(1_001, Ev::Sample);
        assert_eq!(
            pull(&mut sim, 10_000),
            vec![(1_000, ready(0, 0)), (1_001, Ev::Sample)]
        );
    }

    #[test]
    fn equal_arrivals_release_in_id_order_with_their_requests_between() {
        let wl = scripted_workload(&[
            (1_000, &[0, 0, 10]),
            (1_000, &[0]),
            (1_000, &[5, 10]),
            (1_005, &[]),
        ])
        .seal();
        let mut sim = Simulator::new(SimConfig::new(2, Mode::Reuseport), &wl);
        assert_eq!(
            pull(&mut sim, 10_000),
            vec![
                // A connection's Syn precedes its own offset-0 request, and
                // equal-offset requests of one connection keep index order.
                (1_000, Ev::Syn(0)),
                (1_000, ready(0, 0)),
                (1_000, ready(0, 1)),
                (1_000, Ev::Syn(1)),
                (1_000, ready(1, 0)),
                (1_000, Ev::Syn(2)),
                // Across connections at one instant: by connection id, a
                // request of an older connection before a younger one's Syn.
                (1_005, ready(2, 0)),
                (1_005, Ev::Syn(3)),
                (1_010, ready(0, 2)),
                (1_010, ready(2, 1)),
            ]
        );
        assert_eq!(sim.scripted_head(), None);
    }

    #[test]
    fn same_instant_syn_burst_keeps_its_length_and_placements() {
        // Three clumps of six connections, 100 ms apart; first requests
        // 100 µs after the SYN, so nothing scripted separates a clump's SYNs.
        let offsets: &[u64] = &[100_000];
        let conns: Vec<(u64, &[u64])> = (0..18)
            .map(|i| (1_000_000 + (i / 6) * 100_000_000, offsets))
            .collect();
        let mut wl = scripted_workload_costing(&conns, 300_000).seal();
        wl.duration_ns = 400_000_000;
        // A clump is a run of Syns at one instant, placed one by one.
        let mut sim = Simulator::new(SimConfig::new(8, Mode::Hermes), &wl);
        let first: Vec<_> = pull(&mut sim, 1_000_000);
        assert_eq!(
            first,
            (0..6).map(|c| (1_000_000, Ev::Syn(c))).collect::<Vec<_>>()
        );
        // Per-worker accepts as recorded at the commit before scripted
        // events left the queue, when a clump was placed as one batch.
        let r = Simulator::new(SimConfig::new(8, Mode::Hermes), &wl).run();
        let accepted: Vec<u64> = r.workers.iter().map(|w| w.accepted).collect();
        assert_eq!(accepted, [3, 3, 1, 2, 3, 1, 3, 2]);
        assert_eq!(r.sched.directed_dispatches, 18);
        assert_eq!(r.completed_requests, 18);
    }

    #[test]
    #[should_panic(expected = "Workload::seal")]
    fn unsorted_arrivals_are_rejected() {
        let wl = scripted_workload(&[(2_000, &[0]), (1_000, &[0])]);
        Simulator::new(SimConfig::new(2, Mode::Hermes), &wl);
    }

    #[test]
    #[should_panic(expected = "trace_port 9000: no connection of workload `scripted` uses it")]
    fn a_trace_port_no_connection_uses_is_rejected() {
        let wl = scripted_workload(&[(1_000, &[0])]).seal();
        let mut cfg = SimConfig::new(2, Mode::Hermes);
        cfg.trace_port = Some(9000);
        Simulator::new(cfg, &wl);
    }

    #[test]
    #[should_panic(expected = "requests by start offset")]
    fn unsorted_request_offsets_are_rejected() {
        // One connection is sorted by arrival; `seal` is skipped because it
        // checks request offsets too (in debug builds).
        let wl = scripted_workload(&[(1_000, &[100, 50])]);
        Simulator::new(SimConfig::new(2, Mode::Hermes), &wl);
    }

    #[test]
    fn a_fleet_device_logs_every_event_to_its_lane() {
        let wl = scripted_workload(&[(1_000, &[0])]).seal();
        let alone = Simulator::new(SimConfig::new(4, Mode::Hermes), &wl);
        assert_eq!(alone.worker_lane(3), 3);
        assert_eq!(alone.kernel_lane(), hermes_trace::KERNEL_LANE);
        let device = Simulator::on_lane(SimConfig::new(4, Mode::Hermes), &wl, Some(7));
        assert_eq!((device.worker_lane(3), device.kernel_lane()), (7, 7));
    }

    #[test]
    fn the_queue_holds_only_live_events() {
        // Case 1 heavy's shape on 32 workers: 67 200 connections a second,
        // one two-event request each. Every one of the 134 400 scripted
        // events used to sit in the queue before the first ran.
        let wl = uniform_workload(67_200, 14_880, 380_000);
        for mode in [Mode::Hermes, Mode::Reuseport] {
            let r = run(mode, &wl, 32);
            assert_eq!(r.completed_requests, 67_200);
            assert!(
                r.peak_pending_events < 4_096,
                "{mode:?}: {} events pending at once",
                r.peak_pending_events
            );
        }
    }

    #[test]
    fn the_connection_table_holds_only_the_connections_in_flight() {
        // One second of Case 1 heavy: 66 920 connections, a few hundred
        // open at once under Hermes. A table over the whole workload took
        // ~1.67 MB here.
        let wl = Case::Case1.workload(CaseLoad::Heavy, 32, NANOS_PER_SEC, 42);
        let hermes = run(Mode::Hermes, &wl, 32);
        assert!(
            hermes.conn_table_bytes <= 64 << 10,
            "{} bytes",
            hermes.conn_table_bytes
        );
        // Under epoll exclusive one worker falls behind and thousands are
        // never accepted, so the window grows; it stays under one slot an
        // id of the workload.
        let exclusive = run(Mode::ExclusiveLifo, &wl, 32);
        assert!(exclusive.unaccepted_connections > 1_000);
        assert!(exclusive.conn_table_bytes > 4 * hermes.conn_table_bytes);
        let slots = wl.conns.len().next_power_of_two() as u64;
        assert!(exclusive.conn_table_bytes <= 12 * slots);
    }

    #[test]
    fn deterministic_replay() {
        let wl = uniform_workload(500, 300_000, 40_000);
        let a = run(Mode::Hermes, &wl, 4);
        let b = run(Mode::Hermes, &wl, 4);
        assert_eq!(a.completed_requests, b.completed_requests);
        assert_eq!(a.request_latency.p99(), b.request_latency.p99());
        assert_eq!(
            a.workers.iter().map(|w| w.accepted).collect::<Vec<_>>(),
            b.workers.iter().map(|w| w.accepted).collect::<Vec<_>>()
        );
    }
}
