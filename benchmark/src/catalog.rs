//! The names the benchmark reports. `BENCHMARK.json` at the root of the
//! repository lists the same workloads and metrics with the same units,
//! directions and bounds; the two are kept in step by hand and the harness
//! refuses to print a metric that is not listed here.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "churn",
        why: "paper Case 1, high CPS: connect, 64 B echo, close; accept, dispatch, hand-off, admission and backend connect are the whole cost",
    },
    Workload {
        name: "keepalive",
        why: "paper Case 3, long-lived: two connections keep 16 small messages in flight; only reactor wake-ups and pumps run, accept and dispatch never",
    },
    Workload {
        name: "bulk_up",
        why: "64 MiB uploads to a sink backend: per-byte relay cost is everything, per-connection cost nothing",
    },
    Workload {
        name: "bulk_down",
        why: "64 MiB downloads from a source backend: the same relay code in the opposite direction, so a gain for one that costs the other shows",
    },
    Workload {
        name: "http_stall",
        why: "Fig. 11 on real sockets: HTTP probes through parse, route and proxy while one of 8 workers is held; the scheduler must steer probes away",
    },
    Workload {
        name: "sim_case1",
        why: "Table 3 Case 1 heavy in the simulator, no sockets: scheduler, dispatch program and event engine only, so socket changes predict no change",
    },
];

#[derive(Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse: about
    /// three times the widest run-to-run spread (Q3 − Q1 over the median of
    /// ten runs) seen on any workload when the benchmark was defined, and at
    /// most the 0.25 its contract allows. README.md has the spreads.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "rel_throughput",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "rel_p50",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "rel_p99",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_peak_MiB",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics and their units. A layer that is not on a workload's
/// path did no work there and reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.ops_per_s", "1/s"),
    ("e2e.op_p50_us", "us"),
    ("e2e.op_p99_us", "us"),
    ("ref.ops_per_s", "1/s"),
    ("ref.op_p50_us", "us"),
    ("ref.op_p99_us", "us"),
    ("span.connect_p50_us", "us"),
    ("span.connect_p99_us", "us"),
    ("span.admit_p50_us", "us"),
    ("span.admit_p99_us", "us"),
    ("span.relay_up_p50_us", "us"),
    ("span.relay_up_p99_us", "us"),
    ("span.backend_p50_us", "us"),
    ("span.backend_p99_us", "us"),
    ("span.relay_down_p50_us", "us"),
    ("span.relay_down_p99_us", "us"),
    ("span.teardown_p50_us", "us"),
    ("span.lb_serve_p50_us", "us"),
    ("lb.server.accepted", "count"),
    ("lb.server.directed_frac", "ratio"),
    ("lb.server.worker_spread_cv", "ratio"),
    ("lb.server.stall_episodes", "count"),
    ("lb.server.stalled_hits", "count"),
    ("lb.server.stalled_hits_per_episode", "ratio"),
    ("lb.relay.cpu_us_per_op", "us"),
    ("lb.relay.pumps_per_op", "count"),
    ("lb.relay.bytes_per_pump", "B"),
    ("lb.relay.splice_byte_frac", "ratio"),
    ("lb.relay.splice_fallbacks", "count"),
    ("lb.relay.connect_retries", "count"),
    ("lb.relay.failed_connects", "count"),
    ("lb.relay.cpu_s_per_GiB", "s/GiB"),
    ("lb.relay.up_MiB_per_s", "MiB/s"),
    ("lb.relay.down_MiB_per_s", "MiB/s"),
    ("lb.reactor.wake_us", "us"),
    ("lb.reactor.wait_ready_ns", "ns"),
    ("lb.reactor.pipe_new_us", "us"),
    ("lb.reactor.splice_64B_ns", "ns"),
    ("lb.reactor.copy_64B_ns", "ns"),
    ("lb.reactor.splice_64KiB_ns", "ns"),
    ("lb.reactor.copy_64KiB_ns", "ns"),
    ("ebpf.dispatch_batch_ns", "ns"),
    ("ebpf.dispatch_one_ns", "ns"),
    ("ebpf.group_build_ms", "ms"),
    ("ebpf.tier", "code"),
    ("core.sched.pass_ns", "ns"),
    ("core.sched.session_pass_ns", "ns"),
    ("core.wst.update_ns", "ns"),
    ("backend.admit_ns", "ns"),
    ("backend.publish_us", "us"),
    ("lb.http.parse_ns", "ns"),
    ("lb.http.encode_ns", "ns"),
    ("lb.router.route_ns", "ns"),
    ("lb.proxy.handle_ns", "ns"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.events", "count"),
    ("simnet.sched_calls", "count"),
    ("simnet.p99_ms", "ms"),
    ("simnet.wall_ratio_vs_reuseport", "ratio"),
    ("simnet.p99_ratio_vs_reuseport", "ratio"),
    ("simnet.build_ms", "ms"),
    ("workload.gen_ms", "ms"),
    ("metrics.hist_record_ns", "ns"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.cpu_us_per_op", "us"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.threads", "count"),
    ("rig.backend_us_p50", "us"),
    ("rig.client_gap_us", "us"),
    ("rig.eaddrnotavail", "count"),
    ("rig.fail_frac", "ratio"),
    ("rig.samples_beyond_p99", "count"),
    ("rig.span_unordered_frac", "ratio"),
    ("rig.trace_overhead_frac", "ratio"),
    ("rig.epoch_spread", "ratio"),
];
