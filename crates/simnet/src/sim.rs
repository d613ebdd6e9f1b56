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
//! in insertion order (FIFO, under both the timer-wheel and heap engines),
//! so identical inputs replay identically under every mode.
//!
//! The hot path is allocation-free in steady state: events recycle
//! through the wheel's arena, the per-`epoll_wait` batch and the sampling
//! /wake/waiting lists live in scratch buffers owned by the simulator,
//! and port lookup is a dense-array index ([`crate::ports::PortTable`]).

use crate::config::{
    Fault, SimConfig, EPOLL_TIMEOUT_NS, MAX_EVENTS, PROBE_SERVICE_NS, SAMPLE_INTERVAL_NS,
};
use crate::event_queue::EventQueue;
use crate::metrics::{BalanceStats, DeviceReport, PortTrace, WorkerReport};
use crate::modes::Dispatcher;
use crate::nic::NicRss;
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
    queue: EventQueue<Ev>,
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
    /// Connection → dense port index, precomputed so the per-accept path
    /// never re-derives it from the port number.
    conn_port: Vec<u32>,
    // Scratch buffers: reused across events so the steady-state hot path
    // allocates nothing.
    batch_buf: Vec<IoEvent>,
    counts_buf: Vec<i64>,
    idle_buf: Vec<bool>,
    wake_buf: Vec<usize>,
    utils_buf: Vec<f64>,
    conns_buf: Vec<f64>,
    waiting_buf: Vec<(usize, u64)>,
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
    nic: NicRss,
    /// Appendix C degradation: monitor + count of RST-rescheduled conns.
    degrade: Option<hermes_core::degrade::DegradeMonitor>,
    rst_reschedules: u64,
}

impl<'w> Simulator<'w> {
    /// Build a simulator over a sealed workload. Panics on an unsealed one:
    /// scripted events stream in workload order, so it would run reordered.
    pub fn new(cfg: SimConfig, wl: &'w Workload) -> Self {
        cfg.validate();
        let sealed = wl.conns.is_sorted_by_key(|c| c.arrival_ns)
            && wl
                .conns
                .iter()
                .all(|c| c.requests.is_sorted_by_key(|r| r.start_offset_ns));
        assert!(
            sealed,
            "workload `{}` is not sealed: connections must be sorted by arrival \
             (Workload::seal does that) and each connection's requests by start offset",
            wl.name
        );
        let n = cfg.workers;
        let dispatcher = Dispatcher::new(cfg.mode, n, cfg.hermes.clone(), cfg.groups);
        // Dense port table from the workload, plus per-connection port
        // indices resolved once up front.
        let ports = PortTable::new(wl.conns.iter().map(|c| c.port));
        let conn_port: Vec<u32> = wl
            .conns
            .iter()
            .map(|c| ports.index_of(c.port).expect("registered port") as u32)
            .collect();
        let conns = ConnTable::new(wl.conns.iter().map(|c| c.requests.iter().map(|r| r.events)));
        let port_trace = cfg.trace_port.map(PortTrace::new);
        let nic = NicRss::new(cfg.nic_queues);
        let mut sim = Self {
            workers: (0..n).map(|_| WorkerState::new()).collect(),
            worker_reports: (0..n).map(|_| WorkerReport::new()).collect(),
            busy_at_last_sample: vec![0; n],
            conns,
            dispatcher,
            device_lane: cfg
                .device_index
                .map(|d| hermes_trace::device_lane(d as usize)),
            ports,
            conn_port,
            queue: EventQueue::new(cfg.engine),
            scripted: BinaryHeap::new(),
            batch_buf: Vec::with_capacity(MAX_EVENTS),
            counts_buf: Vec::with_capacity(n),
            idle_buf: Vec::with_capacity(n),
            wake_buf: Vec::with_capacity(n),
            utils_buf: Vec::with_capacity(n),
            conns_buf: Vec::with_capacity(n),
            waiting_buf: Vec::new(),
            events_processed: 0,
            now: 0,
            request_latency: Histogram::latency(),
            probe_latency: Histogram::latency(),
            completed_requests: 0,
            accepted_connections: 0,
            probes_sent: 0,
            balance: BalanceStats::default(),
            port_trace,
            nic,
            degrade: cfg
                .degrade
                .map(|d| hermes_core::degrade::DegradeMonitor::new(n, d)),
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
        let conns = &self.wl.conns;
        let mut head = self.scripted.peek_mut().expect("a scripted event");
        let Reverse((_, conn, step)) = *head;
        let spec = &conns[conn];
        match spec.requests.get(step) {
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
        if let Some(next) = conns.get(conn + 1) {
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
        // workers were looping long before the first connection arrives.
        for w in 0..self.cfg.workers {
            if let Some(h) = self.dispatcher.hermes() {
                h.worker(w).enter_loop(0);
            }
            self.block_worker(w, 0);
        }
        if let Dispatcher::Hermes(h) = &mut self.dispatcher {
            h.schedule_boot(0);
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
        if self.nic.enabled() {
            // SYN + ACK + one packet per scripted event.
            self.nic.record(&spec.flow, 2 + spec.requests.len() as u64);
        }
        self.conns.set_enqueue_ns(c, self.now);
        hermes_trace::trace_event!(
            self.now,
            hermes_trace::EventKind::SimSyn,
            self.kernel_lane(),
            c,
            spec.flow.hash()
        );
        hermes_trace::trace_count!(hermes_trace::CounterId::SimSyns);
        if self.dispatcher.assigns_at_syn() {
            self.counts_buf.clear();
            self.counts_buf
                .extend(self.workers.iter().map(|w| w.connections));
            let w = self
                .dispatcher
                .assign_at_syn(&spec.flow, &self.counts_buf)
                .expect("per-socket modes always assign");
            self.conns.set_worker(c, w);
            hermes_trace::trace_event!(
                self.now,
                hermes_trace::EventKind::SimDispatch,
                self.worker_lane(w),
                spec.flow.hash(),
                c
            );
            hermes_trace::trace_count!(hermes_trace::CounterId::SimDispatches);
            if self.cfg.groups > 1 && self.dispatcher.hermes().is_some() {
                let group = w / (self.cfg.workers / self.cfg.groups);
                hermes_trace::trace_event!(
                    self.now,
                    hermes_trace::EventKind::GroupDispatch,
                    self.kernel_lane(),
                    spec.flow.hash(),
                    ((group as u64) << 32) | w as u64
                );
            }
            // The accept notification lands on the epoll instance that owns
            // the socket — the dispatcher worker (0) in userspace mode.
            let target = if matches!(self.dispatcher, Dispatcher::Userspace) {
                0
            } else {
                w
            };
            self.workers[target].pending.push_back(IoEvent::Accept(c));
            self.notify(target);
        } else {
            let pidx = self.conn_port[c] as usize;
            self.ports.enqueue(pidx, c);
            self.idle_buf.clear();
            self.idle_buf
                .extend(self.workers.iter().map(|w| w.is_idle() && !w.crashed));
            let mut wake = std::mem::take(&mut self.wake_buf);
            self.dispatcher.pick_wake(&self.idle_buf, &mut wake);
            for &w in &wake {
                self.notify(w);
            }
            self.wake_buf = wake;
        }
    }

    fn on_request_ready(&mut self, conn: ConnId, req: usize) {
        let ready = self.now;
        if self.conns.closed(conn) {
            return;
        }
        if !self.conns.accepted(conn) {
            self.conns.push_waiting(conn, req, ready);
            return;
        }
        self.deliver_request(conn, req);
    }

    /// Push a ready request's events onto the owning epoll instance.
    fn deliver_request(&mut self, conn: ConnId, req: usize) {
        let owner = self.conns.worker(conn).expect("accepted conn has owner");
        // In userspace-dispatcher mode all epoll events flow through the
        // dispatcher first.
        let target = if matches!(self.dispatcher, Dispatcher::Userspace) {
            0
        } else {
            owner
        };
        let spec = &self.wl.conns[conn].requests[req];
        let per_event = spec.service_per_event_ns().max(1);
        for _ in 0..spec.events.max(1) {
            self.workers[target].pending.push_back(IoEvent::Request {
                conn,
                req,
                service_ns: per_event,
            });
        }
        self.notify(target);
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
            self.now + self.cfg.costs.wake_ns,
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
        hermes_trace::trace_count!(hermes_trace::CounterId::SimWakes);
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

        let costs = self.cfg.costs;
        let is_shared = !self.dispatcher.assigns_at_syn();
        let is_hermes = self.dispatcher.hermes().is_some();
        let is_dispatcher_mode = matches!(self.dispatcher, Dispatcher::Userspace);
        let mut cost = costs.epoll_wait_ns;
        // §6.2 Case 1's dispatch-overhead asymmetry: shared-queue modes
        // register every port's listening socket with every epoll instance,
        // so dispatching (accepting) a connection costs O(#ports); the
        // per-socket modes pay O(1).
        let accept_cost = costs.accept_ns
            + if is_shared {
                costs.per_port_poll_ns * self.ports.len() as u64
            } else {
                0
            };

        if batch.is_empty() {
            // Timeout / lost race: empty loop iteration.
            self.batch_buf = batch;
            self.workers[w].empty_wakes += 1;
            self.worker_reports[w].events_per_wait.record(0);
            if is_hermes {
                cost += costs.counter_ns + costs.sched_ns + costs.sync_ns;
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
            h.worker(w).add_pending(batch.len() as i64);
            cost += costs.counter_ns * (1 + batch.len() as u64) + costs.sched_ns + costs.sync_ns;
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
                        t += costs.counter_ns;
                    }
                    self.do_accept(w, c);
                }
                IoEvent::Request {
                    conn,
                    req,
                    service_ns,
                } => {
                    if is_dispatcher_mode && w == 0 {
                        // Forwarding stub: dispatcher pays redistribution
                        // cost and the backend gets the real event.
                        t += costs.dispatch_us_ns;
                        let backend = self.conns.worker(conn).expect("owned");
                        self.workers[backend].pending.push_back(IoEvent::Request {
                            conn,
                            req,
                            service_ns,
                        });
                        self.notify(backend);
                    } else {
                        t += service_ns;
                        self.complete_request_event(conn, req, t);
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
        if let Some(h) = self.dispatcher.hermes() {
            h.worker(owner).conn_delta(1);
        }
        let pidx = self.conn_port[c] as usize;
        let live = self.ports.live_delta(pidx, 1);
        if let Some(tr) = &mut self.port_trace {
            if tr.port == self.wl.conns[c].port {
                tr.connections.record(self.now, live as f64);
            }
        }
        // Requests that arrived while the connection waited in the accept
        // queue become deliverable now. The list is drained through a
        // scratch buffer and its pooled nodes recycle onto the table's
        // free list; `waiting` never refills after accept.
        debug_assert!(self.waiting_buf.is_empty());
        let mut waiting = std::mem::take(&mut self.waiting_buf);
        self.conns.take_waiting(c, &mut waiting);
        for &(req, _ready) in &waiting {
            self.deliver_request(c, req);
        }
        waiting.clear();
        self.waiting_buf = waiting;
        // A connection with no scripted requests closes after linger.
        if self.conns.remaining_requests(c) == 0 {
            let linger = self.wl.conns[c].linger_ns.unwrap_or(0);
            self.push(self.now + linger, Ev::Close(c));
        }
    }

    /// One of a request's events finished at `t`. When the last event of a
    /// request lands, the LB is done processing it and the request completes.
    fn complete_request_event(&mut self, conn: ConnId, req: usize, t: u64) {
        if self.conns.closed(conn) {
            return;
        }
        if self.conns.dec_event(conn, req) > 0 {
            return;
        }
        self.finish_request(conn, req, t);
    }

    /// Request `req` of `conn` fully completed at `t`: record end-to-end
    /// latency and schedule teardown once the connection runs dry.
    fn finish_request(&mut self, conn: ConnId, req: usize, t: u64) {
        // Request complete: latency from readiness to final event.
        let spec = &self.wl.conns[conn];
        let ready = spec.arrival_ns + spec.requests[req].start_offset_ns;
        let latency = t.saturating_sub(ready);
        if spec.tenant == u16::MAX {
            self.probe_latency.record(latency);
        } else {
            self.request_latency.record(latency);
        }
        self.completed_requests += 1;
        if let Some(tr) = &mut self.port_trace {
            if tr.port == spec.port {
                tr.requests.record(t.min(self.wl.duration_ns), 1.0);
            }
        }
        if self.conns.complete_request(conn) == 0 {
            let linger = spec.linger_ns.unwrap_or(0);
            self.push(t + linger, Ev::Close(conn));
        }
    }

    fn on_batch_done(&mut self, w: usize, batch_cost: u64) {
        if self.workers[w].crashed {
            return;
        }
        self.workers[w].busy_ns += batch_cost;
        let sched_at_start = self.cfg.sched_at_loop_start;
        let drained = std::mem::take(&mut self.workers[w].in_flight_events);
        if let Dispatcher::Hermes(h) = &mut self.dispatcher {
            // Per-event decrements of Fig. 9 line 18, applied at batch end.
            h.worker(w).add_pending(-drained);
        }
        if let Dispatcher::Hermes(h) = &mut self.dispatcher {
            if !sched_at_start {
                // schedule_and_sync at the end of the loop (Fig. 9 line 20).
                h.schedule_and_sync(w, self.now);
            }
            // Loop top: shm_avail_update(current_time).
            h.worker(w).enter_loop(self.now);
            if sched_at_start {
                // Ablation: schedule before epoll_wait, observing pre-batch
                // (possibly stale) status.
                h.schedule_and_sync(w, self.now);
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

    fn on_close(&mut self, c: ConnId) {
        if self.conns.closed(c) {
            return;
        }
        self.conns.set_closed(c);
        if self.conns.accepted(c) {
            let owner = self.conns.worker(c).expect("accepted conn has owner");
            self.workers[owner].connections -= 1;
            if let Some(h) = self.dispatcher.hermes() {
                h.worker(owner).conn_delta(-1);
            }
            let pidx = self.conn_port[c] as usize;
            let live = self.ports.live_delta(pidx, -1);
            if let Some(tr) = &mut self.port_trace {
                if tr.port == self.wl.conns[c].port {
                    tr.connections.record(self.now, live as f64);
                }
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
    /// reconnects land on healthy workers). Hermes mode only.
    fn run_degradation(&mut self, utils: &[f64]) {
        use hermes_core::degrade::DegradeAction;
        let Some(monitor) = &mut self.degrade else {
            return;
        };
        if self.dispatcher.hermes().is_none() {
            return;
        }
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
            // new worker; in-flight events finish where they are.
            for c in 0..self.conns.len() {
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
                let flow = self.wl.conns[c].flow;
                let new_owner = self.dispatcher.hermes_mut().redirect(&flow);
                if new_owner == victim {
                    continue; // fallback hashed straight back: skip
                }
                self.conns.set_worker(c, new_owner);
                self.workers[victim].connections -= 1;
                self.workers[new_owner].connections += 1;
                if let Some(h) = self.dispatcher.hermes() {
                    h.worker(victim).conn_delta(-1);
                    h.worker(new_owner).conn_delta(1);
                }
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
        let mut incomplete = 0u64;
        let mut unaccepted = 0u64;
        for c in 0..self.conns.len() {
            if self.wl.conns[c].arrival_ns <= horizon {
                if !self.conns.accepted(c) {
                    unaccepted += 1;
                }
                incomplete += self.conns.remaining_requests(c) as u64;
            }
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
            nic_queue_packets: self.nic.counts().to_vec(),
            rst_reschedules: self.rst_reschedules,
            conn_table_bytes: self.conns.memory_bytes(),
            peak_pending_events: self.queue.peak_len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use hermes_core::FlowKey;
    use hermes_metrics::{NANOS_PER_MILLI, NANOS_PER_SEC};
    use hermes_workload::{ConnectionSpec, RequestSpec};

    /// A workload of `n` one-request connections, `service` ns each,
    /// arriving every `gap` ns.
    fn uniform_workload(n: usize, gap: u64, service: u64) -> Workload {
        let mut w = Workload::new("uniform", n as u64 * gap + NANOS_PER_SEC);
        for i in 0..n {
            w.push(ConnectionSpec {
                arrival_ns: i as u64 * gap,
                flow: FlowKey::new(0x0a000000 + i as u32, (i % 60_000) as u16, 1, 443),
                tenant: 0,
                port: 443,
                requests: vec![RequestSpec {
                    start_offset_ns: 0,
                    service_ns: service,
                    events: 2,
                    size_bytes: 100,
                }],
                linger_ns: None,
            });
        }
        w.seal()
    }

    fn run(mode: Mode, wl: &Workload, workers: usize) -> DeviceReport {
        Simulator::new(SimConfig::new(workers, mode), wl).run()
    }

    #[test]
    fn all_requests_complete_under_light_load() {
        let wl = uniform_workload(500, 1_000_000, 50_000);
        for mode in [
            Mode::ExclusiveLifo,
            Mode::RoundRobin,
            Mode::WakeAll,
            Mode::Reuseport,
            Mode::Hermes,
            Mode::UserspaceDispatcher,
        ] {
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
    fn round_robin_balances_accepts() {
        let wl = uniform_workload(800, 500_000, 20_000);
        let r = run(Mode::RoundRobin, &wl, 4);
        for w in &r.workers {
            assert!(
                (w.accepted as i64 - 200).abs() < 40,
                "rr accepted {}",
                w.accepted
            );
        }
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

    #[test]
    fn iouring_fifo_concentrates_on_first_worker() {
        // §8: io_uring's fixed FIFO wakeup causes the mirror image of
        // exclusive's concentration — on the *first*-registered worker.
        let wl = uniform_workload(2_000, 500_000, 20_000);
        let r = run(Mode::IoUringFifo, &wl, 8);
        assert!(
            r.workers[0].accepted as f64 > 0.8 * 2_000.0,
            "first worker only accepted {}",
            r.workers[0].accepted
        );
        assert_eq!(r.completed_requests, 2_000);
    }

    #[test]
    fn wake_all_pays_empty_wakes() {
        let wl = uniform_workload(300, 2_000_000, 20_000);
        let herd = run(Mode::WakeAll, &wl, 8);
        let excl = run(Mode::ExclusiveLifo, &wl, 8);
        let herd_empty: u64 = herd.workers.iter().map(|w| w.empty_wakes).sum();
        let excl_empty: u64 = excl.workers.iter().map(|w| w.empty_wakes).sum();
        assert!(
            herd_empty > excl_empty + 300,
            "herd {herd_empty} vs exclusive {excl_empty}"
        );
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
        let wl = uniform_workload(100, 1_000_000, 20_000);
        let r = Simulator::new(cfg, &wl).run();
        let tr = r.port_trace.expect("trace enabled");
        assert_eq!(tr.port, 443);
        let total_reqs: f64 = tr.requests.points().iter().map(|(_, v)| v).sum();
        assert_eq!(total_reqs as u64, 100);
    }

    #[test]
    fn nic_tap_counts_all_packets() {
        let mut cfg = SimConfig::new(2, Mode::ExclusiveLifo);
        cfg.nic_queues = 4;
        let wl = uniform_workload(100, 1_000_000, 20_000);
        let r = Simulator::new(cfg, &wl).run();
        let total: u64 = r.nic_queue_packets.iter().sum();
        assert_eq!(total, 100 * 3); // 2 + 1 scripted request each
    }

    /// Connections `(arrival, request offsets)`, one cheap two-event
    /// request per offset; ids are positions (arrivals must be sorted).
    fn scripted_workload(conns: &[(u64, &[u64])]) -> Workload {
        let mut w = Workload::new("scripted", NANOS_PER_SEC);
        for (i, &(arrival_ns, offsets)) in conns.iter().enumerate() {
            let request = |&start_offset_ns| RequestSpec {
                start_offset_ns,
                service_ns: 20_000,
                events: 2,
                size_bytes: 100,
            };
            w.push(ConnectionSpec {
                arrival_ns,
                flow: FlowKey::new(0x0a00_0000 + i as u32 * 7919, 1000 + i as u16, 1, 443),
                tenant: 0,
                port: 443,
                requests: offsets.iter().map(request).collect(),
                linger_ns: None,
            });
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
        // The wheel holds one far event; refusing it for the scripted head
        // must not move the wheel clock past that head, or the wake the
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
        let mut wl = scripted_workload(&conns).seal();
        wl.duration_ns = 400_000_000;
        for c in &mut wl.conns {
            c.requests[0].service_ns = 300_000;
        }
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
    #[should_panic(expected = "requests by start offset")]
    fn unsorted_request_offsets_are_rejected() {
        let mut wl = scripted_workload(&[(1_000, &[0, 50])]).seal();
        wl.conns[0].requests[0].start_offset_ns = 100;
        Simulator::new(SimConfig::new(2, Mode::Hermes), &wl);
    }

    #[test]
    fn the_queue_holds_only_live_events() {
        // Case 1 heavy's shape on 32 workers: 67 200 connections a second,
        // one two-event request each. Every one of the 134 400 scripted
        // events used to sit in the queue before the first ran.
        let wl = uniform_workload(67_200, 14_880, 380_000);
        for mode in [Mode::Hermes, Mode::Reuseport] {
            let mut cfg = SimConfig::new(32, mode);
            for engine in [crate::Engine::Wheel, crate::Engine::Heap] {
                cfg.engine = engine;
                let r = Simulator::new(cfg.clone(), &wl).run();
                assert_eq!(r.completed_requests, 67_200);
                assert!(
                    r.peak_pending_events < 4_096,
                    "{mode:?}/{engine:?}: {} events pending at once",
                    r.peak_pending_events
                );
            }
        }
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
