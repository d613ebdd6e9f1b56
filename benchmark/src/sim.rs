//! `sim_case1`: the paper's Case 1 traffic (high CPS, low processing time) at
//! heavy load through the discrete-event simulator. No sockets: the
//! scheduler, the dispatch program and the simulator's engine do all the
//! work, so socket-layer changes predict no change here.
//!
//! An op is one simulated request. Throughput is in wall time (how fast the
//! simulator runs); op latency is in simulated time (what it predicts, the
//! Table 3 figures), and is exact for a seed.
//!
//! The references the end-to-end metrics are relative to: for throughput, a
//! fixed piece of simulator-like work (`Calibration`) that a second thread
//! runs in short bursts all through each simulator run, because this host's
//! speed drifts by a quarter within minutes; for latency, the same traffic
//! under `Mode::Reuseport`, which is the comparison Table 3 makes. Both the
//! simulator's and the calibration's rates are per second of their own
//! thread's CPU time, so sharing the one CPU does not enter into either.

use crate::stats::{Hist, SplitMix};
use crate::sys::{thread_cpu_s, Rusage};
use crate::EpochOut;
use hermes_simnet::{DeviceReport, Mode, SimConfig, Simulator};
use hermes_workload::{Case, CaseLoad, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const WORKERS: usize = 32;
pub const SIMULATED_NS: u64 = 30_000_000_000;

/// Event-queue-and-table work that owes nothing to this repository's code:
/// pop the earliest of 64 Ki timestamps, push a later one, and update one
/// word of a 32 MiB table at a pseudo-random index.
pub struct Calibration {
    queue: BinaryHeap<Reverse<u64>>,
    table: Vec<u64>,
    rng: SplitMix,
}

impl Calibration {
    /// Steps in one burst (about half a millisecond) and the pause between
    /// bursts: the calibration takes under a tenth of the CPU.
    const BURST: u64 = 4096;
    const PAUSE: Duration = Duration::from_millis(5);

    pub fn new() -> Calibration {
        let mut rng = SplitMix(0xCA11_B8A7E);
        Calibration {
            queue: (0..1 << 16).map(|_| Reverse(rng.next() >> 40)).collect(),
            table: vec![0; 4 << 20],
            rng,
        }
    }

    fn burst(&mut self) {
        for _ in 0..Calibration::BURST {
            let Reverse(t) = self.queue.pop().expect("never empty");
            let r = self.rng.next();
            self.queue.push(Reverse(t + (r & 0xfff)));
            let slot = (r >> 12) as usize % self.table.len();
            self.table[slot] = self.table[slot].wrapping_add(t);
        }
    }

    /// Run `work` on this thread while a second thread runs bursts; returns
    /// what `work` returned, the CPU seconds it took, and the calibration's
    /// steps per CPU second over the same stretch.
    fn alongside<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let bursts = s.spawn(|| {
                let (mut steps, mut cpu_s) = (0u64, 0.0);
                while !stop.load(Ordering::SeqCst) {
                    let before = thread_cpu_s();
                    self.burst();
                    cpu_s += thread_cpu_s() - before;
                    steps += Calibration::BURST;
                    std::thread::sleep(Calibration::PAUSE);
                }
                steps as f64 / cpu_s
            });
            let before = thread_cpu_s();
            let out = work();
            let cpu_s = thread_cpu_s() - before;
            stop.store(true, Ordering::SeqCst);
            (out, cpu_s, bursts.join().expect("calibration panicked"))
        })
    }
}

/// What must repeat exactly when an epoch is run again with the same seed.
#[derive(PartialEq, Debug, Clone, Copy)]
pub struct Fingerprint {
    pub events: u64,
    pub completed: u64,
    pub p99_ns: u64,
}

/// One simulation: set-up and run times, the report, and the request
/// latencies in a histogram of the simulator's own buckets whose quantiles
/// interpolate inside a bucket, so they move with the seed even when the
/// bucket holds.
struct Simulated {
    gen_s: f64,
    setup_s: f64,
    /// CPU seconds the simulator's thread spent in `run()`.
    run_s: f64,
    /// Calibration steps per CPU second during the run.
    cal_rate: f64,
    usage: Rusage,
    report: DeviceReport,
    latency: Hist,
    workload: Workload,
}

fn simulate(seed: u64, mode: Mode, cal: &mut Calibration) -> Simulated {
    let setup = Instant::now();
    let workload = Case::Case1.workload(CaseLoad::Heavy, WORKERS, SIMULATED_NS, seed);
    let gen_s = setup.elapsed().as_secs_f64();
    let sim = Simulator::new(SimConfig::new(WORKERS, mode), &workload);
    let setup_s = setup.elapsed().as_secs_f64();
    let before = Rusage::now();
    let (report, run_s, cal_rate) = cal.alongside(|| sim.run());
    let mut latency = Hist::default();
    for (floor, count) in report.request_latency.iter_buckets() {
        latency.record_n(floor, count);
    }
    Simulated {
        gen_s,
        setup_s,
        run_s,
        cal_rate,
        usage: Rusage::now().since(&before),
        report,
        latency,
        workload,
    }
}

/// The same traffic under plain reuseport hashing.
pub struct Reference {
    p50_ns: f64,
    p99_ns: f64,
    raw_p99_ns: u64,
    run_s: f64,
}

pub fn reference(seed: u64, cal: &mut Calibration) -> Reference {
    let s = simulate(seed, Mode::Reuseport, cal);
    Reference {
        p50_ns: s.latency.quantile(0.5),
        p99_ns: s.latency.quantile(0.99),
        raw_p99_ns: s.report.request_latency.p99(),
        run_s: s.run_s,
    }
}

/// Generate the workload from `seed`, build a Hermes simulator, run it.
pub fn epoch(seed: u64, reuseport: &Reference, cal: &mut Calibration) -> (EpochOut, Fingerprint) {
    let s = simulate(seed, Mode::Hermes, cal);

    let report = &s.report;
    let ops = report.completed_requests.max(1) as f64;
    let (p50, p99) = (s.latency.quantile(0.5), s.latency.quantile(0.99));
    let raw_p99 = report.request_latency.p99();
    let mut out = EpochOut {
        attempted: report.completed_requests,
        ..EpochOut::default()
    };
    out.values.extend([
        ("setup_s", s.setup_s),
        ("rel_throughput", ops / s.run_s / s.cal_rate),
        ("rel_p50", p50 / reuseport.p50_ns),
        ("rel_p99", p99 / reuseport.p99_ns),
        ("e2e.ops_per_s", ops / s.run_s),
        ("e2e.op_p50_us", p50 / 1e3),
        ("e2e.op_p99_us", p99 / 1e3),
        ("ref.ops_per_s", s.cal_rate),
        ("ref.op_p50_us", reuseport.p50_ns / 1e3),
        ("ref.op_p99_us", reuseport.p99_ns / 1e3),
        ("proc.cpu_user_s", s.usage.user_s),
        ("proc.cpu_sys_s", s.usage.sys_s),
        ("proc.cpu_us_per_op", s.usage.cpu_s() * 1e6 / ops),
        (
            "proc.ctx_switches_per_op",
            s.usage.ctx_switches as f64 / ops,
        ),
        ("proc.threads", crate::sys::threads()),
        (
            "rig.samples_beyond_p99",
            s.latency.count_above(p99 as u64) as f64,
        ),
        (
            "simnet.ns_per_event",
            s.run_s * 1e9 / report.events_processed.max(1) as f64,
        ),
        ("simnet.events", report.events_processed as f64),
        ("simnet.sched_calls", report.sched.calls as f64),
        ("simnet.p99_ms", report.p99_latency_ms()),
        ("simnet.wall_ratio_vs_reuseport", s.run_s / reuseport.run_s),
        (
            "simnet.p99_ratio_vs_reuseport",
            raw_p99 as f64 / reuseport.raw_p99_ns.max(1) as f64,
        ),
        ("simnet.build_ms", (s.setup_s - s.gen_s) * 1e3),
        ("workload.gen_ms", s.gen_s * 1e3),
    ]);
    // Nearly every request that starts inside the horizon completes under
    // Hermes at this load; far fewer would mean the run is not the workload.
    let scripted = s.workload.request_count() as u64;
    if report.completed_requests * 100 < scripted * 98 {
        out.problems.push(format!(
            "only {} of {scripted} simulated requests completed",
            report.completed_requests
        ));
    }
    out.flow_hashes = s
        .workload
        .conns
        .iter()
        .take(4096)
        .map(|c| c.flow.hash())
        .collect();
    let fingerprint = Fingerprint {
        events: report.events_processed,
        completed: report.completed_requests,
        p99_ns: raw_p99,
    };
    (out, fingerprint)
}
