//! The harness under the three gate binaries (`simnet_throughput`,
//! `fleet_throughput`, `trace_overhead`).
//!
//! A timing gate never reads a number from another run. Both sides of a
//! comparison are measured by this process in alternation ([`Clock::alternate`]:
//! the side that runs first changes every round, so a host that speeds up or
//! slows down mid-run lands on every side alike), the per-round ratio is
//! taken before anything is aggregated, and the gate bounds the median of
//! those ratios. `results/BENCH_*.json` are records a full run writes, never
//! inputs.
//!
//! The two flags every gate binary takes are parsed here (`Run`: `--smoke`
//! is a variant with no path in it), every check goes through one table
//! ([`Gates`]) whose [`Gates::finish`] is the only way out of a gate binary's
//! `main`, and the record is rendered by one writer ([`Json`]).

use crate::fmt;
use hermes_metrics::Summary;
use std::path::PathBuf;
use std::time::Instant;

/// How a gate binary was asked to run. `--smoke` is the short CI form and has
/// nowhere to write; a full run always writes its record.
#[derive(Debug, PartialEq, Eq)]
enum Run {
    /// `--smoke`.
    Smoke,
    /// No flag, or `--out PATH` to write somewhere other than the default.
    Full {
        /// Where the record goes.
        out: PathBuf,
    },
}

impl Run {
    /// Parse a gate binary's arguments (without the program name).
    fn parse(mut args: impl Iterator<Item = String>, default_out: &str) -> Result<Run, String> {
        let (mut smoke, mut out) = (false, None);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => smoke = true,
                "--out" => out = Some(args.next().ok_or("--out needs a path")?),
                other => return Err(format!("unknown flag {other:?} (--smoke | --out PATH)")),
            }
        }
        match (smoke, out) {
            (true, Some(_)) => Err("--smoke never writes: drop --out".into()),
            (true, None) => Ok(Run::Smoke),
            (false, out) => Ok(Run::Full {
                out: out.unwrap_or_else(|| default_out.into()).into(),
            }),
        }
    }
}

/// The sampler's clock. Every timed body receives it, so that a body can
/// take work it must do mid-run (building a simulator, emptying a ring) off
/// the clock with [`Clock::untimed`].
pub struct Clock {
    now: Box<dyn FnMut() -> f64>,
    excluded: f64,
}

/// One side of a comparison: its name and the body to time.
pub type Side<'a> = (&'a str, &'a mut dyn FnMut(&mut Clock));

impl Clock {
    /// The monotonic wall clock.
    pub fn wall() -> Self {
        let start = Instant::now();
        Self::new(move || start.elapsed().as_secs_f64())
    }

    /// A clock that reads seconds from `now` (tests pass a fake).
    pub fn new(now: impl FnMut() -> f64 + 'static) -> Self {
        Self {
            now: Box::new(now),
            excluded: 0.0,
        }
    }

    /// Run `f` off the clock: the seconds it takes are not charged to the
    /// body being timed.
    pub fn untimed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = (self.now)();
        let r = f();
        self.excluded += (self.now)() - start;
        r
    }

    /// Seconds one call of `body` takes, less what it ran [`Clock::untimed`].
    pub fn time(&mut self, body: &mut dyn FnMut(&mut Clock)) -> f64 {
        self.excluded = 0.0;
        let start = (self.now)();
        body(self);
        (self.now)() - start - self.excluded
    }

    /// Time every side once per round for `rounds` rounds, after one untimed
    /// warm-up round. Round `r` starts with side `r mod n`, so with two sides
    /// the order is A B, B A, A B, … and each side runs first equally often
    /// over an even number of rounds.
    pub fn alternate(&mut self, rounds: usize, sides: &mut [Side<'_>]) -> Samples {
        let n = sides.len();
        let mut samples: Vec<_> = sides.iter().map(|s| (s.0.to_string(), vec![])).collect();
        for round in 0..=rounds {
            for k in 0..n {
                let side = (round + k) % n;
                let secs = self.time(sides[side].1);
                if round > 0 {
                    samples[side].1.push(secs);
                }
            }
        }
        Samples(samples)
    }
}

/// What [`Clock::alternate`] measured: each side's name and seconds per round.
pub struct Samples(Vec<(String, Vec<f64>)>);

impl Samples {
    fn secs(&self, side: &str) -> &[f64] {
        let found = self.0.iter().find(|(name, _)| name == side);
        found.map_or(&[], |(_, secs)| secs)
    }

    /// Seconds per round of one side (empty for a side that did not run).
    pub fn of(&self, side: &str) -> Summary {
        self.pairwise(side, side, |a, _| a)
    }

    /// `f(a, b)` of each round's two timings, round by round.
    pub fn pairwise(&self, a: &str, b: &str, f: impl Fn(f64, f64) -> f64) -> Summary {
        let mut s = Summary::new();
        s.extend(
            self.secs(a)
                .iter()
                .zip(self.secs(b))
                .map(|(&a, &b)| f(a, b)),
        );
        s
    }

    /// Per-round ratio of `a`'s seconds over `b`'s.
    pub fn ratio(&self, a: &str, b: &str) -> Summary {
        self.pairwise(a, b, |a, b| a / b)
    }
}

/// Where and at what commit a run's numbers were taken.
struct Provenance {
    /// `std::thread::available_parallelism`.
    host_cores: usize,
    /// First `model name` of `/proc/cpuinfo`.
    cpu_model: String,
    /// `git describe --always --dirty`.
    commit: String,
    /// Timed rounds per comparison.
    pairs: usize,
}

impl Provenance {
    /// Read the host and the working tree.
    fn capture(pairs: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                let line = info.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let commit = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--abbrev=12"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Self {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            commit,
            pairs,
        }
    }
}

/// A JSON object under construction; keys keep the order they were added in.
#[derive(Default)]
pub struct Json(Vec<(String, Value)>);

enum Value {
    Raw(String),
    Block(Json),
}

impl Json {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn raw(mut self, key: &str, rendered: String) -> Self {
        self.0.push((key.into(), Value::Raw(rendered)));
        self
    }

    /// An integer field.
    pub fn int(self, key: &str, v: u64) -> Self {
        self.raw(key, v.to_string())
    }

    /// A number, to six decimals with trailing zeros dropped.
    pub fn num(self, key: &str, v: f64) -> Self {
        let s = format!("{v:.6}");
        self.raw(key, s.trim_end_matches('0').trim_end_matches('.').into())
    }

    /// A string field, escaped.
    pub fn text(self, key: &str, v: &str) -> Self {
        self.raw(key, quote(v))
    }

    /// A nested object.
    pub fn block(mut self, key: &str, v: Json) -> Self {
        self.0.push((key.into(), Value::Block(v)));
        self
    }

    /// A timed quantity: how many samples, their median and quartiles.
    pub fn timed(self, key: &str, s: &mut Summary) -> Self {
        let stats = Json::new()
            .int("pairs", s.count() as u64)
            .num("median", s.p50())
            .num("q1", s.quantile(0.25))
            .num("q3", s.quantile(0.75));
        self.block(key, stats)
    }

    /// A row of `count` `unit`s of work per timed round: the count, the
    /// rounds' seconds, and the rate and per-unit cost at the median. Prints
    /// the same under `label`.
    pub fn throughput(label: &str, unit: &str, count: u64, secs: &mut Summary) -> Self {
        let median = secs.p50();
        let (per_sec, ns_each) = (count as f64 / median, median * 1e9 / count as f64);
        println!(
            "  {label:<24} {count:>10} x {unit:<8}  {median:>8.4}s  {per_sec:>12.0} /sec  {ns_each:>8.1} ns each"
        );
        Json::new()
            .text("unit", unit)
            .int("count", count)
            .timed("wall_seconds", secs)
            .num("per_sec", per_sec)
            .num("ns_each", ns_each)
    }

    /// The object as indented text, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 1);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        out.push_str("{\n");
        for (i, (key, value)) in self.0.iter().enumerate() {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&quote(key));
            out.push_str(": ");
            match value {
                Value::Raw(rendered) => out.push_str(rendered),
                Value::Block(block) => block.write(out, depth + 1),
            }
            out.push_str(if i + 1 < self.0.len() { ",\n" } else { "\n" });
        }
        out.push_str(&"  ".repeat(depth - 1));
        out.push('}');
    }
}

fn quote(s: &str) -> String {
    let mut q = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => q.extend(['\\', c]),
            c if c < ' ' => q.push_str(&format!("\\u{:04x}", c as u32)),
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// One row of the table: `pass`, `FAILED`, `SKIP` or `----` (a number the
/// run states without gating it).
struct Row {
    verdict: &'static str,
    what: String,
    detail: String,
}

/// A gate binary's run: its mode, its host, its clock, and the table of
/// every check it made.
pub struct Gates {
    bin: &'static str,
    run: Run,
    host: Provenance,
    clock: Clock,
    rows: Vec<Row>,
}

impl Gates {
    /// Start gate binary `bin` from the process arguments: `smoke_pairs`
    /// timed rounds per comparison under `--smoke`, `full_pairs` otherwise,
    /// when the record goes to `default_out` unless `--out` says elsewhere.
    /// A usage error prints and exits 2.
    pub fn from_args(
        bin: &'static str,
        default_out: &str,
        smoke_pairs: usize,
        full_pairs: usize,
    ) -> Self {
        let run = Run::parse(std::env::args().skip(1), default_out).unwrap_or_else(|e| {
            eprintln!("{bin}: {e}");
            std::process::exit(2)
        });
        let pairs = if run == Run::Smoke {
            smoke_pairs
        } else {
            full_pairs
        };
        let gates = Self::new(bin, run, Provenance::capture(pairs), Clock::wall());
        let host = &gates.host;
        println!(
            "{bin}: {pairs} alternating round(s) per comparison, {} host core(s), {} @ {}{}",
            host.host_cores,
            host.cpu_model,
            host.commit,
            if gates.smoke() { " [smoke]" } else { "" }
        );
        gates
    }

    /// A run with everything given (tests).
    fn new(bin: &'static str, run: Run, host: Provenance, clock: Clock) -> Self {
        Self {
            bin,
            run,
            host,
            clock,
            rows: Vec::new(),
        }
    }

    /// Whether this is the short CI form.
    pub fn smoke(&self) -> bool {
        self.run == Run::Smoke
    }

    /// Logical cores of the host.
    pub fn host_cores(&self) -> usize {
        self.host.host_cores
    }

    /// [`Clock::alternate`] on this run's clock for this run's round count.
    pub fn alternate(&mut self, sides: &mut [Side<'_>]) -> Samples {
        self.clock.alternate(self.host.pairs, sides)
    }

    fn row(&mut self, verdict: &'static str, what: &str, detail: String) {
        self.rows.push(Row {
            verdict,
            what: what.into(),
            detail,
        });
    }

    fn bounded(&mut self, what: &str, samples: &mut Summary, bound: f64, at_least: bool) {
        if samples.is_empty() {
            // A side that never ran is a broken gate, not an excused one.
            return self.row("FAILED", what, "no samples".into());
        }
        let median = samples.p50();
        let holds = if at_least {
            median >= bound
        } else {
            median <= bound
        };
        let detail = format!(
            "{} {} {}  (q1 {}, q3 {}, min {}, max {}, n {})",
            fmt(median),
            if at_least { ">=" } else { "<=" },
            fmt(bound),
            fmt(samples.quantile(0.25)),
            fmt(samples.quantile(0.75)),
            fmt(samples.min()),
            fmt(samples.max()),
            samples.count()
        );
        self.row(if holds { "pass" } else { "FAILED" }, what, detail);
    }

    /// Gate: the median of `samples` is at least `floor`.
    pub fn at_least(&mut self, what: &str, samples: &mut Summary, floor: f64) {
        self.bounded(what, samples, floor, true);
    }

    /// Gate: the median of `samples` is at most `ceiling`.
    pub fn at_most(&mut self, what: &str, samples: &mut Summary, ceiling: f64) {
        self.bounded(what, samples, ceiling, false);
    }

    /// Gate: an exact condition, with the figures that decided it.
    pub fn check(&mut self, what: &str, holds: bool, detail: String) {
        self.row(if holds { "pass" } else { "FAILED" }, what, detail);
    }

    /// A check this host cannot make, and why. Never fails the run.
    pub fn skip(&mut self, what: &str, reason: String) {
        self.row("SKIP", what, reason);
    }

    /// A number the run states and does not gate.
    pub fn report(&mut self, what: &str, detail: String) {
        self.row("----", what, detail);
    }

    /// 1 if any row FAILED, else 0.
    pub fn exit_code(&self) -> i32 {
        self.rows.iter().any(|r| r.verdict == "FAILED") as i32
    }

    /// The table, one row per check.
    pub fn table(&self) -> String {
        let mut out = format!("{} gates:\n", self.bin);
        for r in &self.rows {
            out.push_str(&format!("  {:<6} {:<52} {}\n", r.verdict, r.what, r.detail));
        }
        out
    }

    /// The record a full run writes: provenance, then the binary's own
    /// fields, then the table.
    fn record(&self, fields: Json) -> Json {
        let mut record = Json::new()
            .text("benchmark", self.bin)
            .int("host_cores", self.host.host_cores as u64)
            .text("cpu_model", &self.host.cpu_model)
            .text("commit", &self.host.commit)
            .int("pairs", self.host.pairs as u64);
        record.0.extend(fields.0);
        let rows = self.rows.iter().fold(Json::new(), |table, r| {
            table.text(&r.what, &format!("{}: {}", r.verdict, r.detail))
        });
        record.block("gates", rows)
    }

    /// The one way out of a gate binary: print the table, write the record
    /// (a full run always does, a smoke run has no path to), exit 0 or 1.
    pub fn finish(self, fields: Json) -> ! {
        print!("{}", self.table());
        if let Run::Full { out } = &self.run {
            if let Some(dir) = out.parent() {
                std::fs::create_dir_all(dir).expect("create the record's directory");
            }
            std::fs::write(out, self.record(fields).render()).expect("write the record");
            println!("  wrote {}", out.display());
        }
        std::process::exit(self.exit_code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn parse(args: &[&str]) -> Result<Run, String> {
        Run::parse(args.iter().map(|a| a.to_string()), "results/default.json")
    }

    fn summary(values: &[f64]) -> Summary {
        let mut s = Summary::new();
        s.extend(values.iter().copied());
        s
    }

    fn gates(run: Run) -> Gates {
        let host = Provenance {
            host_cores: 2,
            cpu_model: "Some \"quoted\" CPU".into(),
            commit: "abcdef012345".into(),
            pairs: 8,
        };
        Gates::new("test_bin", run, host, Clock::new(|| 0.0))
    }

    #[test]
    fn smoke_has_no_path_and_a_full_run_always_has_one() {
        // `Run::Smoke` carries nothing `finish` could write to.
        assert_eq!(parse(&["--smoke"]), Ok(Run::Smoke));
        assert!(parse(&["--smoke", "--out", "x.json"]).is_err());
        assert!(parse(&["--out", "x.json", "--smoke"]).is_err());
        let full = |out: &str| Run::Full { out: out.into() };
        assert_eq!(parse(&[]), Ok(full("results/default.json")));
        assert_eq!(parse(&["--out", "x.json"]), Ok(full("x.json")));
        assert!(parse(&["--out"]).is_err());
    }

    #[test]
    fn an_unknown_flag_is_an_error_naming_it() {
        for flag in ["--quick", "--threads", "results/BENCH_simnet.json"] {
            let err = parse(&["--smoke", flag]).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }

    /// A clock that only moves when a body moves it, and the order the
    /// bodies ran in.
    fn fake() -> (Clock, Rc<Cell<f64>>, Rc<RefCell<String>>) {
        let time = Rc::new(Cell::new(0.0));
        let reader = Rc::clone(&time);
        (Clock::new(move || reader.get()), time, Rc::default())
    }

    #[test]
    fn sampler_alternates_order_and_the_ratio_does_not_depend_on_it() {
        let (mut clock, time, order) = fake();
        let samples = clock.alternate(
            6,
            &mut [
                ("a", &mut |_| {
                    time.set(time.get() + 2.0);
                    order.borrow_mut().push('a');
                }),
                ("b", &mut |_| {
                    time.set(time.get() + 1.0);
                    order.borrow_mut().push('b');
                }),
            ],
        );
        // One warm-up round, then six timed ones, the first side swapping.
        assert_eq!(*order.borrow(), "ab".to_owned() + "baabbaabbaab");
        let timed = &order.borrow()[2..];
        let a_first = timed.as_bytes().chunks(2).filter(|p| p[0] == b'a').count();
        assert_eq!(a_first, 3);
        assert_eq!(samples.of("a").count(), 6);
        assert_eq!(samples.ratio("a", "b").values(), [2.0; 6]);
        assert!(samples.ratio("a", "no such side").is_empty());
    }

    #[test]
    fn one_side_is_the_same_sampler() {
        let (mut clock, time, _) = fake();
        let body: Side = ("only", &mut |_| time.set(time.get() + 0.5));
        assert_eq!(
            clock.alternate(3, &mut [body]).of("only").values(),
            [0.5; 3]
        );
    }

    #[test]
    fn untimed_work_is_off_the_clock() {
        let (mut clock, time, _) = fake();
        let secs = clock.time(&mut |c| {
            time.set(time.get() + 1.0);
            c.untimed(|| time.set(time.get() + 5.0));
            time.set(time.get() + 1.0);
        });
        assert_eq!(secs, 2.0);
    }

    #[test]
    fn a_ratio_on_the_wrong_side_of_its_bound_fails() {
        let mut g = gates(Run::Smoke);
        g.at_least("speedup", &mut summary(&[2.9, 3.1, 3.0]), 2.0);
        g.at_most("overhead", &mut summary(&[1.1, 1.0, 1.2]), 1.3);
        assert_eq!(g.exit_code(), 0);
        g.at_most("slowdown", &mut summary(&[1.4, 1.5, 1.2]), 1.3);
        assert_eq!(g.exit_code(), 1, "one FAILED among passes fails the run");
        let table = g.table();
        assert!(table.contains("pass   speedup"), "{table}");
        assert!(table.contains("FAILED slowdown"), "{table}");
        // The median decides, not the best or the worst round.
        let mut g = gates(Run::Smoke);
        g.at_least("speedup", &mut summary(&[1.0, 2.5, 2.6]), 2.0);
        g.at_least("speedup", &mut summary(&[9.0, 1.8, 1.9]), 2.0);
        assert!(g.table().contains("pass   speedup"));
        assert!(g.table().contains("FAILED speedup"));
    }

    #[test]
    fn a_side_without_samples_fails_and_is_never_a_skip() {
        let mut g = gates(Run::Smoke);
        g.at_least("speedup", &mut Summary::new(), 2.0);
        assert_eq!(g.exit_code(), 1);
        assert!(g.table().contains("FAILED speedup"));
        assert!(g.table().contains("no samples"));
        assert!(!g.table().contains("SKIP"));
    }

    #[test]
    fn a_skip_carries_its_reason_and_fails_nothing() {
        let mut g = gates(Run::Smoke);
        g.check("counts agree", true, "7 == 7".into());
        g.skip("scaling", "2 host core(s)".into());
        g.report("batch / single", "1.17".into());
        assert_eq!(g.exit_code(), 0);
        assert!(g.table().contains("SKIP   scaling"));
        assert!(g.table().contains("2 host core(s)"));
        g.check("counts agree", false, "7 == 8".into());
        assert_eq!(g.exit_code(), 1);
    }

    #[test]
    fn the_record_escapes_text_and_nests_blocks() {
        let mut g = gates(Run::Smoke);
        let mut speedup = summary(&[3.0, 2.0, 4.0, 5.0]);
        g.at_least("speedup", &mut speedup, 2.0);
        g.skip("scaling", "2 host core(s)".into());
        let inner = Json::new().int("events", 7).num("ratio", 1.25);
        let fields = Json::new()
            .block("engines", Json::new().block("wheel", inner))
            .timed("speedup_x", &mut speedup);
        let json = g.record(fields).render();
        for needle in [
            "{\n  \"benchmark\": \"test_bin\",\n  \"host_cores\": 2,\n",
            "  \"cpu_model\": \"Some \\\"quoted\\\" CPU\",\n",
            "  \"commit\": \"abcdef012345\",\n  \"pairs\": 8,\n",
            "  \"engines\": {\n    \"wheel\": {\n      \"events\": 7,\n      \"ratio\": 1.25\n    }\n  },\n",
            "  \"speedup_x\": {\n    \"pairs\": 4,\n    \"median\": 3,\n    \"q1\": 2,\n    \"q3\": 4\n  },\n",
            "  \"gates\": {\n    \"speedup\": \"pass: 3.00 >= 2.00  (q1 2.00, q3 4.00, min 2.00, max 5.00, n 4)\",\n",
            "    \"scaling\": \"SKIP: 2 host core(s)\"\n  }\n}\n",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
        }
        assert_eq!(quote("tab\tback\\slash"), "\"tab\\u0009back\\\\slash\"");
    }
}
