//! The runtime driver: spawns workers, dispatches connections through the
//! kernel-side program, aggregates results.

use crate::clock::Clock;
use crate::report::{ComponentOverhead, RuntimeReport};
use crate::worker::{run_worker, Task, WorkerCtx, WorkerOutput};
use hermes_core::sched::SchedConfig;
use hermes_core::sdk::WorkerSession;
use hermes_core::wst::Wst;
use hermes_core::WorkerBitmap;
use hermes_ebpf::{DispatchPlane, Placement};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Worker threads.
    pub workers: usize,
    /// `epoll_wait` timeout (paper: 5 ms).
    pub epoll_timeout: Duration,
    /// Max events per loop iteration.
    pub max_events: usize,
    /// Scheduler tuning.
    pub sched: SchedConfig,
    /// Shard workers into this many two-level dispatch groups (§7); one
    /// group, the default, is the flat single-bitmap plane. `workers` must
    /// divide evenly into groups of at most 64, each with its own WST,
    /// selection map, and per-worker scheduler; dispatch picks the group by
    /// flow hash (level 1) then rank-selects within it (level 2).
    pub groups: usize,
}

impl RuntimeConfig {
    /// Defaults for `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            epoll_timeout: Duration::from_millis(5),
            max_events: hermes_core::DISPATCH_BATCH,
            sched: SchedConfig::default(),
            groups: 1,
        }
    }

    /// Defaults for `workers` workers sharded into `groups` groups.
    pub fn grouped(workers: usize, groups: usize) -> Self {
        Self {
            groups,
            ..Self::new(workers)
        }
    }
}

/// One connection's script: where it hashes, what it costs.
#[derive(Clone, Debug)]
pub struct ConnectionScript {
    /// Precomputed 4-tuple hash (kernel context for the dispatch program).
    pub flow_hash: u32,
    /// Per-request CPU costs, submitted in order.
    pub requests: Vec<Duration>,
    /// Health-probe flag (latency lands in the probe histogram).
    pub probe: bool,
}

/// A running LB instance.
pub struct LbRuntime {
    /// Kernel-side dispatch: the verified bytecode, which is what Table 5's
    /// dispatcher column measures.
    plane: Arc<DispatchPlane>,
    senders: Vec<Sender<Task>>,
    handles: Vec<JoinHandle<WorkerOutput>>,
    clock: Clock,
    started: Instant,
    workers: usize,
    dispatcher_ns: Arc<AtomicU64>,
    directed: u64,
    fallback: u64,
}

impl LbRuntime {
    /// Spawn workers and return a handle for submitting traffic: `groups`
    /// groups of `workers / groups` workers, each group with its own WST
    /// and selection map. Every worker runs its own scheduler instance
    /// over *its group's* table only, so scheduling cost stays O(group) as
    /// the deployment scales past 64 workers.
    pub fn start(config: RuntimeConfig) -> Self {
        let groups = config.groups;
        assert!(groups >= 1, "need at least one group");
        assert_eq!(
            config.workers % groups,
            0,
            "workers must divide evenly into groups"
        );
        let group_size = config.workers / groups;
        let clock = Clock::new();
        let plane = Arc::new(DispatchPlane::bytecode(groups, group_size));
        let mut senders = Vec::with_capacity(config.workers);
        let mut handles = Vec::with_capacity(config.workers);
        for g in 0..groups {
            let wst = Arc::new(Wst::new(group_size));
            for local in 0..group_size {
                let (tx, rx) = channel();
                senders.push(tx);
                let shard = Arc::clone(&plane);
                let session = WorkerSession::new(
                    Arc::clone(&wst),
                    local,
                    config.sched.clone(),
                    Arc::new(move |bitmap: WorkerBitmap| shard.sync(g, bitmap)),
                )
                .with_trace_lane(hermes_trace::grouped_lane(g, group_size, local));
                let epoll_timeout = config.epoll_timeout;
                let max_events = config.max_events;
                handles.push(std::thread::spawn(move || {
                    run_worker(WorkerCtx {
                        rx,
                        session,
                        clock,
                        epoll_timeout,
                        max_events,
                    })
                }));
            }
        }
        Self {
            plane,
            senders,
            handles,
            clock,
            started: Instant::now(),
            workers: config.workers,
            dispatcher_ns: Arc::new(AtomicU64::new(0)),
            directed: 0,
            fallback: 0,
        }
    }

    /// Record a dispatch decision in the directed/fallback tallies.
    fn tally(&mut self, p: Placement) {
        if p.directed {
            self.directed += 1;
        } else {
            self.fallback += 1;
        }
    }

    /// Deliver a dispatched connection's accept + requests + close to its
    /// worker.
    fn deliver(&self, w: usize, script: &ConnectionScript) {
        let tx = &self.senders[w];
        tx.send(Task::Accept).expect("worker alive");
        for service in &script.requests {
            tx.send(Task::Request {
                service_ns: service.as_nanos() as u64,
                submitted_ns: self.clock.now_ns(),
                probe: script.probe,
            })
            .expect("worker alive");
        }
        tx.send(Task::Close).expect("worker alive");
    }

    /// Flight-recorder hook for one dispatch decision of a sharded runtime:
    /// `GroupDispatch` with the group in the payload's high word so traces
    /// break out per group.
    fn group_dispatch_trace(&self, flow_hash: u32, p: Placement) {
        hermes_trace::trace_event!(
            self.clock.now_ns(),
            hermes_trace::EventKind::GroupDispatch,
            hermes_trace::KERNEL_LANE,
            flow_hash,
            ((p.group as u64) << 32) | p.worker as u64
        );
    }

    /// Submit one connection: dispatch, deliver accept + requests + close.
    /// Returns the worker the kernel selected.
    pub fn submit(&mut self, script: ConnectionScript) -> usize {
        let t = Instant::now();
        let p = self.plane.dispatch(script.flow_hash);
        self.dispatcher_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tally(p);
        if self.plane.groups() > 1 {
            self.group_dispatch_trace(script.flow_hash, p);
        } else {
            hermes_trace::trace_event!(
                self.clock.now_ns(),
                hermes_trace::EventKind::Dispatch,
                hermes_trace::KERNEL_LANE,
                script.flow_hash,
                p.worker
            );
        }
        self.deliver(p.worker, &script);
        p.worker
    }

    /// Submit an arrival burst through one batched kernel dispatch: the
    /// availability bitmap is loaded and the map registry resolved once for
    /// the whole batch instead of once per connection. Decisions are
    /// identical to per-connection [`submit`](Self::submit) calls against
    /// the same bitmap — userspace publishes asynchronously either way —
    /// and each script's tasks are delivered in submission order. Returns
    /// the chosen worker per script.
    pub fn submit_batch(&mut self, scripts: &[ConnectionScript]) -> Vec<usize> {
        let hashes: Vec<u32> = scripts.iter().map(|s| s.flow_hash).collect();
        let mut placed: Vec<Placement> = Vec::with_capacity(scripts.len());
        let t = Instant::now();
        self.plane.dispatch_batch(&hashes, &mut placed);
        self.dispatcher_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        hermes_trace::trace_event!(
            self.clock.now_ns(),
            hermes_trace::EventKind::DispatchBatch,
            hermes_trace::KERNEL_LANE,
            hashes.len(),
            placed.iter().filter(|p| p.directed).count()
        );
        // Sharded batches also emit one GroupDispatch per decision so the
        // trace summary can break dispatch out by group; one-group batches
        // keep their single DispatchBatch record.
        let sharded = self.plane.groups() > 1;
        for ((script, &hash), &p) in scripts.iter().zip(&hashes).zip(&placed) {
            self.tally(p);
            if sharded {
                self.group_dispatch_trace(hash, p);
            }
            self.deliver(p.worker, script);
        }
        placed.iter().map(|p| p.worker).collect()
    }

    /// The shared clock (for pacing submissions).
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Stop all workers, join, and aggregate the report.
    pub fn shutdown(self) -> RuntimeReport {
        for tx in &self.senders {
            let _ = tx.send(Task::Shutdown);
        }
        drop(self.senders);
        let mut report = RuntimeReport {
            wall_ns: self.started.elapsed().as_nanos() as u64,
            workers: self.workers,
            completed_requests: 0,
            accepted_per_worker: vec![0; self.workers],
            request_latency: hermes_metrics::Histogram::latency(),
            probe_latency: hermes_metrics::Histogram::latency(),
            overhead: ComponentOverhead {
                dispatcher_ns: self.dispatcher_ns.load(Ordering::Relaxed),
                ..ComponentOverhead::default()
            },
            sched_calls: 0,
            directed_dispatches: self.directed,
            fallback_dispatches: self.fallback,
            pacer_missed_deadlines: 0,
            pacer_max_overshoot_ns: 0,
        };
        // Handles were spawned in global-worker order; a grouped worker's
        // session id is group-local, so index by spawn order rather than
        // the session's own id.
        for (global, h) in self.handles.into_iter().enumerate() {
            let out = h.join().expect("worker panicked");
            report.completed_requests += out.completed;
            report.accepted_per_worker[global] = out.accepted;
            report.request_latency.merge(&out.request_latency);
            report.probe_latency.merge(&out.probe_latency);
            report.overhead.counter_ns += out.overhead.counter_ns;
            report.overhead.scheduler_ns += out.overhead.scheduler_ns;
            report.overhead.sync_ns += out.overhead.sync_ns;
            report.sched_calls += out.sched_calls;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pacer::Pacer;

    fn scripts(n: u32, service: Duration) -> impl Iterator<Item = ConnectionScript> {
        (0..n).map(move |i| ConnectionScript {
            flow_hash: i.wrapping_mul(0x9E37_79B9).rotate_left(11) ^ 0xA5A5_5A5A,
            requests: vec![service],
            probe: false,
        })
    }

    #[test]
    fn all_submitted_requests_complete() {
        let mut rt = LbRuntime::start(RuntimeConfig::new(4));
        for s in scripts(200, Duration::from_micros(20)) {
            rt.submit(s);
        }
        let report = rt.shutdown();
        assert_eq!(report.completed_requests, 200);
        assert_eq!(report.accepted_per_worker.iter().sum::<u64>(), 200);
        assert!(report.request_latency.count() == 200);
        assert!(report.sched_calls > 0);
    }

    #[test]
    fn healthy_workers_share_accepts() {
        let mut rt = LbRuntime::start(RuntimeConfig::new(4));
        // Give workers a moment to publish their first status.
        std::thread::sleep(Duration::from_millis(15));
        // Pace submissions: an unpaced burst outruns the feedback loop,
        // shrinks the bitmap, and (by design, §5.3.2) falls back to
        // hashing — realistic CPS keeps the loop closed.
        let mut pacer = Pacer::new(Duration::from_micros(30));
        for s in scripts(800, Duration::from_micros(5)) {
            rt.submit(s);
            pacer.pace();
        }
        let mut report = rt.shutdown();
        report.note_pacer(&pacer);
        assert_eq!(report.pacer_missed_deadlines, pacer.missed_deadlines());
        assert_eq!(report.pacer_max_overshoot_ns, pacer.max_overshoot_ns());
        assert_eq!(report.completed_requests, 800);
        assert!(
            report.directed_dispatches > 600,
            "directed {} fallback {}",
            report.directed_dispatches,
            report.fallback_dispatches
        );
        let max = *report.accepted_per_worker.iter().max().unwrap();
        let min = *report.accepted_per_worker.iter().min().unwrap();
        assert!(min > 0, "a healthy worker was starved");
        assert!(max < 400, "one worker took the majority: {min}..{max}");
    }

    #[test]
    fn busy_worker_is_routed_around() {
        let mut cfg = RuntimeConfig::new(4);
        cfg.sched.hang_threshold_ns = 3_000_000; // 3 ms
        let mut rt = LbRuntime::start(cfg);
        std::thread::sleep(Duration::from_millis(15));
        // Poison one worker with a 150 ms request.
        let victim = rt.submit(ConnectionScript {
            flow_hash: 0x1234_5678,
            requests: vec![Duration::from_millis(150)],
            probe: false,
        });
        // Let the hang threshold trip while the victim spins.
        std::thread::sleep(Duration::from_millis(20));
        // 200 µs ticks park for most of each wait (a 30 µs tick sits inside
        // the pacer's spin window and never parks): with the victim
        // spinning too, a two-core host otherwise has no core left for the
        // healthy workers, their loop entries go stale, the bitmap empties
        // and every dispatch falls back. 300 ticks end 80 ms in, well
        // inside the victim's 150 ms.
        let mut pacer = Pacer::new(Duration::from_micros(200));
        for s in scripts(300, Duration::from_micros(5)) {
            rt.submit(s);
            pacer.pace();
        }
        let report = rt.shutdown();
        assert_eq!(report.completed_requests, 301);
        let victim_accepts = report.accepted_per_worker[victim];
        // The hung victim must be clearly disfavored vs the healthy mean.
        // It cannot be required to get *zero*: fallback dispatches (when
        // CPU contention from parallel tests momentarily shrinks the
        // bitmap below the n>1 guard) still hash uniformly — the same
        // residual the paper accepts from two-stage filtering (§5.3.2).
        let healthy_mean = (301 - victim_accepts) as f64 / 3.0;
        assert!(
            (victim_accepts as f64) < 0.62 * healthy_mean,
            "victim {victim} accepted {victim_accepts}, healthy mean {healthy_mean:.0}"
        );
    }

    #[test]
    fn probes_are_tracked_separately() {
        let mut rt = LbRuntime::start(RuntimeConfig::new(2));
        rt.submit(ConnectionScript {
            flow_hash: 7,
            requests: vec![Duration::from_micros(10)],
            probe: true,
        });
        for s in scripts(50, Duration::from_micros(10)) {
            rt.submit(s);
        }
        let report = rt.shutdown();
        assert_eq!(report.probe_latency.count(), 1);
        assert_eq!(report.request_latency.count(), 50);
    }

    #[test]
    fn overhead_accounting_is_populated() {
        let mut rt = LbRuntime::start(RuntimeConfig::new(2));
        // Paced so the workers keep up: `shutdown` reads the wall clock the
        // percentages divide by *before* the workers drain, and an unpaced
        // burst leaves most of the timed work in that uncounted tail.
        let mut pacer = Pacer::new(Duration::from_micros(100));
        for s in scripts(500, Duration::from_micros(10)) {
            rt.submit(s);
            pacer.pace();
        }
        let report = rt.shutdown();
        let o = &report.overhead;
        assert!(o.counter_ns > 0);
        assert!(o.scheduler_ns > 0);
        assert!(o.sync_ns > 0);
        assert!(o.dispatcher_ns > 0);
        // Sanity bound only: this micro-run is all overhead and little
        // work, so the share is far above Table 5's production numbers;
        // the table5 harness measures under realistic request costs. With
        // the flight recorder compiled in, its (unoptimized, debug-build)
        // emit cost lands inside the timed sections too, so allow more.
        let limit = if hermes_trace::ENABLED { 99.0 } else { 95.0 };
        let pct = o.as_cpu_percent(report.workers, report.wall_ns);
        let total: f64 = pct.iter().sum();
        assert!(total < limit, "overhead {total}%");
    }

    #[test]
    fn batched_submission_completes() {
        let mut rt = LbRuntime::start(RuntimeConfig::new(4));
        std::thread::sleep(Duration::from_millis(15));
        let burst: Vec<ConnectionScript> = scripts(64, Duration::from_micros(10)).collect();
        let workers = rt.submit_batch(&burst);
        assert_eq!(workers.len(), 64);
        assert!(workers.iter().all(|&w| w < 4));
        let report = rt.shutdown();
        assert_eq!(report.completed_requests, 64);
        assert_eq!(report.directed_dispatches + report.fallback_dispatches, 64);
        assert!(report.overhead.dispatcher_ns > 0);
    }

    #[test]
    fn grouped_runtime_completes() {
        let mut rt = LbRuntime::start(RuntimeConfig::grouped(4, 2));
        std::thread::sleep(Duration::from_millis(15));
        let burst: Vec<ConnectionScript> = scripts(64, Duration::from_micros(10)).collect();
        let workers = rt.submit_batch(&burst);
        assert!(workers.iter().all(|&w| w < 4));
        for s in scripts(32, Duration::from_micros(10)) {
            assert!(rt.submit(s) < 4);
        }
        let report = rt.shutdown();
        assert_eq!(report.completed_requests, 96);
        assert_eq!(report.accepted_per_worker.iter().sum::<u64>(), 96);
        assert_eq!(report.directed_dispatches + report.fallback_dispatches, 96);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn grouped_runtime_rejects_ragged_groups() {
        LbRuntime::start(RuntimeConfig::grouped(7, 2));
    }
}
