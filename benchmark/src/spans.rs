//! Spans of a traced epoch, made from stamps taken outside the program.
//!
//! The client stamps `t0` connect called, `t1` connected, `t5` reply read;
//! the rig backend stamps `t2` accepted, `t3` request read, `t4` reply
//! written, `t6` end of stream. The op id in the first 8 payload bytes joins
//! the two sides. The five spans between `t0` and `t5` tile an op's latency
//! exactly:
//!
//! ```text
//! t0 connect t1 admit t2 relay_up t3 backend t4 relay_down t5 teardown t6
//! ```
//!
//! `admit` is everything between the kernel completing the client's
//! handshake and the backend accepting the relay's connection: accept-queue
//! wait, dispatch, the hand-off to the worker, its wake-up, backend admission
//! and the backend connect. An op sent on an already open connection has no
//! `connect` or `admit`, and its `relay_up` starts when it was written.
//! Without a rig backend (`http_stall`) all that is visible after `t1` is
//! one `lb_serve` span.

use crate::stats::Hist;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Client-side stamps of one op. `t_close` is 0 unless the op closed its
/// connection, in which case the op also has a `teardown` span.
#[derive(Clone, Copy)]
pub struct ClientStamp {
    pub op: u64,
    pub t_send: u64,
    pub t5: u64,
    pub t_close: u64,
}

/// Client-side stamps of one connection, keyed by the first op sent on it.
#[derive(Clone, Copy)]
pub struct ClientConn {
    pub first_op: u64,
    pub t0: u64,
    pub t1: u64,
}

/// Backend-side stamps of one op: request fully read, reply fully written.
#[derive(Clone, Copy)]
pub struct BackendStamp {
    pub op: u64,
    pub t3: u64,
    pub t4: u64,
}

/// Backend-side stamps of one connection, keyed by its first op. `t6` is 0
/// when the client's close did not come after the last reply.
#[derive(Clone, Copy)]
pub struct BackendConn {
    pub first_op: u64,
    pub t2: u64,
    pub t6: u64,
}

pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// `op` for the spans that tile an op; none for `op` itself and `teardown`.
    pub parent: Option<&'static str>,
    pub op: u64,
}

/// Spans kept for the trace file; the histograms cover every op regardless.
const KEEP_OPS: usize = 5_000;

#[derive(Default)]
pub struct Joined {
    pub durations: BTreeMap<&'static str, Hist>,
    pub ops: u64,
    /// Ops whose backend-side stamps were found.
    pub matched: u64,
    /// Spans whose end stamp precedes their start (the stamping thread was
    /// descheduled between the event and the stamp).
    pub unordered: u64,
    /// Largest |sum of tiling spans − (t5 − start)| over all ops, ns.
    pub residual_ns: u64,
    pub spans: Vec<Span>,
    pub truncated: bool,
}

impl Joined {
    fn add(&mut self, name: &'static str, start: u64, end: u64, op: u64, tiles: bool, keep: bool) {
        self.unordered += u64::from(end < start);
        self.durations
            .entry(name)
            .or_default()
            .record(end.saturating_sub(start));
        if keep {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: tiles.then_some("op"),
                op,
            });
        }
    }

    pub fn p50_us(&self, name: &str) -> f64 {
        self.durations
            .get(name)
            .map_or(0.0, |h| h.quantile(0.5) / 1e3)
    }

    pub fn p99_us(&self, name: &str) -> f64 {
        self.durations
            .get(name)
            .map_or(0.0, |h| h.quantile(0.99) / 1e3)
    }
}

pub fn join(
    ops: &[ClientStamp],
    conns: &[ClientConn],
    backend_ops: &[BackendStamp],
    backend_conns: &[BackendConn],
) -> Joined {
    let conns: HashMap<u64, &ClientConn> = conns.iter().map(|c| (c.first_op, c)).collect();
    let b_ops: HashMap<u64, &BackendStamp> = backend_ops.iter().map(|b| (b.op, b)).collect();
    let b_conns: HashMap<u64, &BackendConn> =
        backend_conns.iter().map(|b| (b.first_op, b)).collect();
    let mut j = Joined::default();
    for c in ops {
        let keep = (j.ops as usize) < KEEP_OPS;
        j.truncated |= !keep;
        j.ops += 1;
        let conn = conns.get(&c.op);
        let start = conn.map_or(c.t_send, |k| k.t0);
        // Boundaries of the tiling spans, in order; a span runs from one
        // boundary to the next and is named after the boundary that ends it.
        let mut marks: Vec<(&'static str, u64)> = Vec::with_capacity(5);
        if let Some(k) = conn {
            marks.push(("connect", k.t1));
        }
        match b_ops.get(&c.op) {
            Some(b) => {
                j.matched += 1;
                if let Some(bc) = conn.and(b_conns.get(&c.op)) {
                    marks.push(("admit", bc.t2));
                }
                marks.push(("relay_up", b.t3));
                marks.push(("backend", b.t4));
                marks.push(("relay_down", c.t5));
            }
            None => marks.push(("lb_serve", c.t5)),
        }
        let (mut at, mut sum) = (start, 0i64);
        for (name, end) in marks {
            j.add(name, at, end, c.op, true, keep);
            sum += end as i64 - at as i64;
            at = end;
        }
        j.residual_ns = j
            .residual_ns
            .max((sum - (c.t5 as i64 - start as i64)).unsigned_abs());
        if keep {
            j.spans.push(Span {
                name: "op",
                start,
                end: c.t5,
                parent: None,
                op: c.op,
            });
        }
        if let Some(bc) = b_conns.get(&c.op).filter(|bc| c.t_close > 0 && bc.t6 > 0) {
            j.add("teardown", c.t5, bc.t6, c.op, false, keep);
        }
    }
    j
}

/// The trace file: one JSON object per span (name, start and end in ns on
/// the run's clock, parent, op id).
pub fn trace_json(workload: &str, epochs: &[(u64, &Joined)]) -> String {
    let mut s = format!(
        "{{\"workload\": \"{workload}\", \"clock\": \"ns since harness start\", \"epochs\": [\n"
    );
    for (i, (epoch, j)) in epochs.iter().enumerate() {
        let _ = write!(
            s,
            "{{\"epoch\": {epoch}, \"ops_traced\": {}, \"ops_in_file\": {}, \"truncated\": {}, \"spans\": [\n",
            j.ops,
            j.ops.min(KEEP_OPS as u64),
            j.truncated
        );
        for (k, sp) in j.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".into(), |p| format!("\"{p}\""));
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"op\": {}}}{}\n",
                sp.name,
                sp.start,
                sp.end,
                sp.op,
                if k + 1 < j.spans.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "]}}{}", if i + 1 < epochs.len() { "," } else { "" });
    }
    s.push_str("]}\n");
    s
}
