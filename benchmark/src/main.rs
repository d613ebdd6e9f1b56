//! End-to-end and per-layer benchmark for the Hermes data plane and
//! simulator. See `benchmark/README.md` for the workloads, the metrics and
//! what each layer metric is expected to move.
//!
//! ```text
//! hermes-e2e --workload NAME --seed N --seconds S --trace 0|1   one run
//! hermes-e2e [--seed N] [--seconds S]      every workload, untraced then traced
//! hermes-e2e --aa [--seed N] [--seconds S]  two untraced sets and their A/A table
//! ```
//!
//! A run is one workload in one process. Untraced (`--trace 0`) it prints the
//! end-to-end metrics, each the median over epochs; traced (`--trace 1`) it
//! prints the per-layer metrics. The last line of standard output is the
//! result as one JSON object; the exit code is non-zero when an output check
//! failed.

mod catalog;
mod layers;
mod rig;
mod sim;
mod socket;
mod spans;
mod stats;
mod sys;

use catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use socket::Cx;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use sys::Provenance;

/// Length of one epoch of a socket workload. `--seconds` buys epochs, never
/// shorter ones: a fresh load balancer per epoch is what makes `setup_s` a
/// median, and three seconds is what the tail percentiles need.
const EPOCH_S: u64 = 3;
const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: u64 = 15;
/// Connection-per-op workloads open about this many connections a second.
const CONNECTIONS_PER_S: u64 = 12_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    aa: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.iter().any(|k| k.name == w) {
            let names: Vec<_> = WORKLOADS.iter().map(|k| k.name).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hermes-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.workload, args.aa) {
        (Some(w), false) => run(w, args.seed, args.seconds, args.trace.unwrap_or(false)),
        (None, false) => run_all(&args),
        (_, true) => run_aa(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// --- one run -----------------------------------------------------------------------

/// What one epoch measured. `values` holds every metric the epoch can give,
/// end-to-end and per-layer alike, by catalogue name.
#[derive(Default)]
pub struct EpochOut {
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    pub joined: Option<spans::Joined>,
    /// Flow hashes of the connections this epoch opened (traced epochs).
    pub flow_hashes: Vec<u32>,
    /// Output checks that did not hold; any entry fails the run.
    pub problems: Vec<String>,
}

/// Everything a run measured, by metric name: one value per epoch that
/// reported it (tagged traced or not), and values measured once per run.
#[derive(Default)]
struct Run {
    per_epoch: BTreeMap<&'static str, Vec<(bool, f64)>>,
    once: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    flow_hashes: Vec<u32>,
    traces: Vec<(u64, spans::Joined)>,
}

impl Run {
    fn absorb(&mut self, epoch: u64, out: EpochOut) {
        for (name, value) in out.values {
            self.per_epoch
                .entry(name)
                .or_default()
                .push((out.traced, value));
        }
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.problems.extend(
            out.problems
                .into_iter()
                .map(|p| format!("epoch {epoch}: {p}")),
        );
        if self.flow_hashes.is_empty() {
            self.flow_hashes = out.flow_hashes;
        }
        self.traces.extend(out.joined.map(|j| (epoch, j)));
    }

    fn epoch_values(&self, name: &str, traced: Option<bool>) -> Vec<f64> {
        self.per_epoch.get(name).map_or(Vec::new(), |v| {
            v.iter()
                .filter(|(t, _)| traced.is_none_or(|want| want == *t))
                .map(|(_, value)| *value)
                .collect()
        })
    }

    /// End-to-end metrics come from untraced epochs only.
    fn end_to_end(&self, name: &str) -> Option<f64> {
        let values = self.epoch_values(name, Some(false));
        self.once
            .get(name)
            .copied()
            .or((!values.is_empty()).then(|| stats::median(&values)))
    }

    /// Per-layer metrics come from the traced epochs where those report
    /// them; a layer that never ran reports 0.
    fn per_layer(&self, name: &str) -> f64 {
        if let Some(v) = self.once.get(name) {
            return *v;
        }
        let traced = self.epoch_values(name, Some(true));
        let values = if traced.is_empty() {
            self.epoch_values(name, None)
        } else {
            traced
        };
        if values.is_empty() {
            0.0
        } else {
            stats::median(&values)
        }
    }

    fn sum(&self, name: &str) -> f64 {
        self.epoch_values(name, None).iter().sum()
    }
}

/// Which epochs of a run are traced. A traced run alternates, starting
/// untraced, so that `rig.trace_overhead_frac` compares like with like.
fn epoch_plan(seconds: u64, trace: bool) -> Vec<bool> {
    let epochs = (seconds / EPOCH_S).max(1);
    (0..epochs)
        .map(|i| trace && (i % 2 == 1 || epochs == 1))
        .collect()
}

fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> bool {
    let mut prov = Provenance::collect();
    prov.pinned_cpu = sys::pin_to_one_cpu().map_or(-1, |cpu| cpu as i64);
    let plan = epoch_plan(seconds, trace);
    println!(
        "== hermes e2e benchmark: workload {workload}, trace {} ==",
        u8::from(trace)
    );
    println!(
        "provenance: nproc={} pinned_cpu={} cpu=\"{}\" kernel={} commit={} rustc=\"{}\" build_mode={} \
         seed={seed} epochs={} epoch_s={EPOCH_S} tcp_tw_reuse={} ip_local_port_range={}-{}",
        prov.nproc,
        prov.pinned_cpu,
        prov.cpu_model,
        prov.kernel,
        prov.commit,
        prov.rustc,
        prov.build_mode,
        plan.len(),
        prov.tcp_tw_reuse,
        prov.port_range.0,
        prov.port_range.1
    );
    let per_op_connections = matches!(workload, "churn" | "http_stall");
    if per_op_connections && !prov.ports_cover(CONNECTIONS_PER_S * plan.len() as u64 * EPOCH_S) {
        eprintln!(
            "hermes-e2e: tcp_tw_reuse is 0 and ip_local_port_range ({}-{}) cannot hold the \
             connections {workload} opens; the run would report port exhaustion as failures. \
             Set net.ipv4.tcp_tw_reuse=2 or widen the range.",
            prov.port_range.0, prov.port_range.1
        );
        return false;
    }

    let mut r = Run::default();
    match socket::Workload::named(workload) {
        Some(kind) => run_socket(kind, seed, &plan, &mut r),
        None => run_sim(seed, &plan, trace, &mut r),
    }
    r.once.insert("rss_peak_MiB", sys::rss_peak_mib());
    if trace {
        match layers::measure(seed, &r.flow_hashes) {
            Ok(values) => r.once.extend(values),
            Err(e) => r.problems.push(format!("timed layer calls: {e}")),
        }
        let traced_rate = r.epoch_values("rel_throughput", Some(true));
        let plain_rate = r.epoch_values("rel_throughput", Some(false));
        if !traced_rate.is_empty() && !plain_rate.is_empty() {
            let overhead = 1.0 - stats::median(&traced_rate) / stats::median(&plain_rate);
            r.once.insert("rig.trace_overhead_frac", overhead);
        }
        let rates = if plain_rate.is_empty() {
            traced_rate
        } else {
            plain_rate
        };
        r.once.insert("rig.epoch_spread", stats::spread(&rates));
    }
    report(workload, seed, trace, &prov, &plan, r)
}

fn run_socket(kind: socket::Workload, seed: u64, plan: &[bool], r: &mut Run) {
    let block = rig::bulk_block(seed);
    for (epoch, &traced) in plan.iter().enumerate() {
        let cx = Cx {
            seed,
            epoch: epoch as u64,
            traced,
            epoch_len: Duration::from_secs(EPOCH_S),
            block: &block,
        };
        match socket::epoch(&cx, kind) {
            Ok(out) => r.absorb(epoch as u64, out),
            Err(e) => r
                .problems
                .push(format!("epoch {epoch}: could not set up: {e}")),
        }
    }
    if kind == socket::Workload::HttpStall {
        // The closed loop is working if probes rarely reach the held worker,
        // and the check is not vacuous if workers were held often enough.
        let episodes = r.sum("lb.server.stall_episodes");
        let per_episode = r.sum("lb.server.stalled_hits") / episodes.max(1.0);
        r.once
            .insert("lb.server.stalled_hits_per_episode", per_episode);
        if episodes < 5.0 * plan.len() as f64 {
            r.problems.push(format!(
                "only {episodes} stall episodes in {} epochs",
                plan.len()
            ));
        }
        if per_episode >= 1.5 {
            r.problems.push(format!(
                "{per_episode:.2} probes per stall episode hit the held worker"
            ));
        }
    }
}

fn run_sim(seed: u64, plan: &[bool], trace: bool, r: &mut Run) {
    // A traced run has nothing to trace in the simulator; two epochs keep
    // the determinism check and leave its time to the timed layer calls.
    let epochs = if trace { plan.len().min(2) } else { plan.len() };
    let mut calibration = sim::Calibration::new();
    let reuseport = sim::reference(seed, &mut calibration);
    let mut first = None;
    for epoch in 0..epochs {
        let (mut out, fingerprint) = sim::epoch(seed, &reuseport, &mut calibration);
        out.traced = trace;
        let expected = *first.get_or_insert(fingerprint);
        if fingerprint != expected {
            r.problems.push(format!(
                "epoch {epoch} is not a repeat of epoch 0: {fingerprint:?} against {expected:?}"
            ));
        }
        r.absorb(epoch as u64, out);
    }
}

// --- output --------------------------------------------------------------------------

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn report(
    workload: &str,
    seed: u64,
    trace: bool,
    prov: &Provenance,
    plan: &[bool],
    r: Run,
) -> bool {
    let mut problems = r.problems.clone();
    // (name, unit, value, per-epoch values)
    let mut metrics: Vec<(&str, &str, f64, Vec<f64>)> = Vec::new();
    if trace {
        for &(name, unit) in PER_LAYER {
            let which = if r.epoch_values(name, Some(true)).is_empty() {
                None
            } else {
                Some(true)
            };
            metrics.push((
                name,
                unit,
                finite(r.per_layer(name)),
                r.epoch_values(name, which),
            ));
        }
    } else {
        for m in END_TO_END {
            match r.end_to_end(m.name) {
                Some(v) if v > 0.0 && v.is_finite() => {
                    metrics.push((m.name, m.unit, v, r.epoch_values(m.name, Some(false))))
                }
                other => problems.push(format!("{} was not measured ({other:?})", m.name)),
            }
        }
    }
    let listed =
        |n: &str| PER_LAYER.iter().any(|(k, _)| *k == n) || END_TO_END.iter().any(|m| m.name == n);
    for name in r.per_epoch.keys().chain(r.once.keys()) {
        assert!(listed(name), "{name} is reported but not in the catalogue");
    }

    let epochs_run = r.per_epoch.get("rel_throughput").map_or(0, Vec::len);
    for epoch in 0..epochs_run {
        let traced = r.per_epoch["rel_throughput"][epoch].0;
        let mut line = format!(
            "epoch {epoch} ({}):",
            if traced { "traced" } else { "untraced" }
        );
        let absolute = ["e2e.ops_per_s", "e2e.op_p50_us", "e2e.op_p99_us"];
        for name in END_TO_END.iter().map(|m| m.name).chain(absolute) {
            if let Some(v) = r.per_epoch.get(name).and_then(|v| v.get(epoch)) {
                let _ = write!(line, " {name}={:.6}", v.1);
            }
        }
        println!("{line}");
    }
    for (name, unit, value, epochs) in &metrics {
        let (q1, _, q3) = stats::quartiles(epochs);
        match epochs.len() {
            0 | 1 => println!("metric {name} {value:.6} {unit}"),
            n => println!(
                "metric {name} {value:.6} {unit}   median of {n} epochs, q1 {q1:.6} q3 {q3:.6} spread {:.4}",
                stats::spread(epochs)
            ),
        }
    }
    let attempted = r.attempted.max(1);
    println!(
        "ops: {attempted} attempted, {} failed; fail_frac {:.6}",
        r.failed,
        r.failed as f64 / attempted as f64
    );
    if r.failed > 0 && problems.is_empty() {
        problems.push(format!("{} ops failed", r.failed));
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    if correct {
        println!("checks: every output check held");
    }

    let out_dir = std::env::var("HERMES_E2E_OUT").unwrap_or_else(|_| "benchmark/out".into());
    let _ = std::fs::create_dir_all(&out_dir);
    if !r.traces.is_empty() {
        let epochs: Vec<(u64, &spans::Joined)> = r.traces.iter().map(|(e, j)| (*e, j)).collect();
        let path = format!("{out_dir}/trace_{workload}.json");
        match std::fs::write(&path, spans::trace_json(workload, &epochs)) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("hermes-e2e: could not write {path}: {e}"),
        }
    }

    let metrics_json = metrics
        .iter()
        .map(|(name, unit, value, _)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let last_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        r.failed
    );

    // The full record: provenance, every epoch's value of every metric.
    let mut full = String::from("{\n");
    let _ = writeln!(
        full,
        "  \"workload\": {}, \"trace\": {trace}, \"seed\": {seed},",
        json_string(workload)
    );
    let _ = writeln!(
        full,
        "  \"provenance\": {{\"nproc\": {}, \"pinned_cpu\": {}, \"cpu_model\": {}, \"kernel\": {}, \"commit\": {}, \"rustc\": {}, \
         \"build_mode\": {}, \"epochs\": {}, \"epoch_s\": {EPOCH_S}, \"tcp_tw_reuse\": {}, \"ip_local_port_range\": [{}, {}]}},",
        prov.nproc,
        prov.pinned_cpu,
        json_string(&prov.cpu_model),
        json_string(&prov.kernel),
        json_string(&prov.commit),
        json_string(&prov.rustc),
        json_string(&prov.build_mode),
        plan.len(),
        json_string(&prov.tcp_tw_reuse),
        prov.port_range.0,
        prov.port_range.1
    );
    let _ = writeln!(full, "  \"per_epoch\": {{");
    let rows: Vec<String> = r
        .per_epoch
        .iter()
        .map(|(name, values)| {
            let cells: Vec<String> = values
                .iter()
                .map(|(traced, v)| format!("{{\"traced\": {traced}, \"value\": {}}}", finite(*v)))
                .collect();
            let plain: Vec<f64> = values.iter().map(|(_, v)| *v).collect();
            let (q1, med, q3) = stats::quartiles(&plain);
            format!(
                "    {}: {{\"q1\": {}, \"median\": {}, \"q3\": {}, \"epochs\": [{}]}}",
                json_string(name),
                finite(q1),
                finite(med),
                finite(q3),
                cells.join(", ")
            )
        })
        .collect();
    let _ = writeln!(full, "{}\n  }},", rows.join(",\n"));
    let _ = writeln!(
        full,
        "  \"problems\": [{}],",
        problems
            .iter()
            .map(|p| json_string(p))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(full, "  \"result\": {last_line}\n}}");
    let path = format!("{out_dir}/result_{workload}_trace{}.json", u8::from(trace));
    if let Err(e) = std::fs::write(&path, full) {
        eprintln!("hermes-e2e: could not write {path}: {e}");
    }

    println!("{last_line}");
    correct
}

// --- every workload, and A/A ----------------------------------------------------------

/// Run one workload in a child process (its own peak memory, its own
/// threads), pass its output through, and return the metrics it printed as
/// (name → value, spread across epochs), or `None` if it failed.
fn child(workload: &str, args: &Args, trace: bool) -> Option<BTreeMap<String, (f64, f64)>> {
    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("start a run");
    let mut metrics = BTreeMap::new();
    for line in BufReader::new(child.stdout.take().expect("piped"))
        .lines()
        .map_while(Result::ok)
    {
        let words: Vec<&str> = line.split_whitespace().collect();
        if let ["metric", name, value, ..] = words[..] {
            let spread = words
                .iter()
                .position(|w| *w == "spread")
                .and_then(|i| words.get(i + 1));
            metrics.insert(
                name.to_string(),
                (
                    value.parse().unwrap_or(0.0),
                    spread.and_then(|s| s.parse().ok()).unwrap_or(0.0),
                ),
            );
        }
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    child
        .wait()
        .is_ok_and(|status| status.success())
        .then_some(metrics)
}

fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            if args.trace.is_none_or(|t| t == trace) {
                ok &= child(w.name, args, trace).is_some();
                println!();
            }
        }
    }
    println!(
        "{}",
        if ok {
            "all runs correct"
        } else {
            "SOME RUNS FAILED THEIR CHECKS"
        }
    );
    ok
}

/// Two full untraced sets of the same code, back to back, and for every
/// (metric, workload) both medians, by how much the second is worse, the
/// bound, and a verdict: `ok` within the bound, `WORSE` beyond it, and
/// `unresolved` where the spread across a set's own epochs exceeds the bound.
fn run_aa(args: &Args) -> bool {
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        println!("#### A/A set {set}\n");
        let mut results = BTreeMap::new();
        for w in WORKLOADS {
            let Some(metrics) = child(w.name, args, false) else {
                println!("set {set}: {} failed its checks", w.name);
                return false;
            };
            results.insert(w.name, metrics);
            println!();
        }
        sets.push(results);
    }
    println!(
        "#### A/A table: second set against first, same code, seed {}\n",
        args.seed
    );
    println!("| workload | metric | A | B | B worse by | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut ok = true;
    for w in WORKLOADS {
        for m in END_TO_END {
            let (a, spread_a) = sets[0][w.name].get(m.name).copied().unwrap_or_default();
            let (b, spread_b) = sets[1][w.name].get(m.name).copied().unwrap_or_default();
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let verdict = if spread_a.max(spread_b) > m.bound {
                "unresolved"
            } else if worse > m.bound {
                ok = false;
                "WORSE"
            } else {
                "ok"
            };
            println!(
                "| {} | {} | {a:.4} | {b:.4} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {verdict} |",
                w.name,
                m.name,
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                m.bound * 100.0
            );
        }
    }
    ok
}
