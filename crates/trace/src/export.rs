//! Drain/export layer: chrome://tracing JSON and an ASCII per-kind summary.
//!
//! The chrome exporter emits the [Trace Event Format]'s JSON-object form with
//! one instant event per record. Timestamps are microseconds (the format's
//! unit) rendered with three decimal places so the full nanosecond resolution
//! survives; rendering is pure integer formatting, so output is byte-stable
//! for a given record list — the golden test relies on that.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use hermes_metrics::{fmt_nanos, table::Table, Histogram};

use crate::record::{EventKind, TraceRecord};

/// Render records as chrome://tracing JSON (instant events, thread scope).
///
/// `pid` is always 0; `tid` is the lane/worker id, so chrome's per-thread
/// rows line up with Hermes workers (64 = kernel path, 65 = control plane).
pub fn chrome_json(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 104);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}.{:03},\"pid\":0,\"tid\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
            r.kind.name(),
            r.ts / 1_000,
            r.ts % 1_000,
            r.worker,
            r.a,
            r.b
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Render an ASCII summary: one row per event kind (count, lane spread,
/// time range, p50/p99 inter-event gap) under the event and drop totals.
pub fn summary(records: &[TraceRecord], dropped: u64) -> String {
    let mut events = Table::new(format!(
        "Flight recorder: {} events, {} dropped",
        records.len(),
        dropped
    ))
    .header([
        "kind", "count", "lanes", "first", "last", "gap p50", "gap p99",
    ]);
    for kind in EventKind::ALL {
        let mut count = 0u64;
        let mut lanes = std::collections::BTreeSet::new();
        let mut first = u64::MAX;
        let mut last = 0u64;
        let mut gaps = Histogram::latency();
        let mut prev: Option<u64> = None;
        for r in records.iter().filter(|r| r.kind == kind) {
            count += 1;
            lanes.insert(r.worker);
            first = first.min(r.ts);
            last = last.max(r.ts);
            if let Some(p) = prev {
                gaps.record(r.ts.saturating_sub(p));
            }
            prev = Some(r.ts);
        }
        if count == 0 {
            continue;
        }
        let gap = |q: f64| {
            if gaps.count() == 0 {
                "-".to_string()
            } else {
                fmt_nanos(gaps.value_at_quantile(q))
            }
        };
        events.row([
            kind.name().to_string(),
            count.to_string(),
            lanes.len().to_string(),
            fmt_nanos(first),
            fmt_nanos(last),
            gap(0.50),
            gap(0.99),
        ]);
    }
    events.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, kind: EventKind, worker: u32, a: u64, b: u64) -> TraceRecord {
        TraceRecord {
            ts,
            kind,
            worker,
            a,
            b,
        }
    }

    #[test]
    fn chrome_json_formats_sub_microsecond_timestamps() {
        let out = chrome_json(&[rec(1_234, EventKind::SimSyn, 64, 7, 8)]);
        assert!(out.contains("\"ts\":1.234"), "{out}");
        assert!(out.contains("\"name\":\"sim.syn\""));
        assert!(out.contains("\"tid\":64"));
    }

    #[test]
    fn chrome_json_of_empty_trace_is_well_formed() {
        let out = chrome_json(&[]);
        assert_eq!(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn summary_lists_kinds_and_totals() {
        let records = vec![
            rec(100, EventKind::SimSyn, 64, 1, 11),
            rec(200, EventKind::SimSyn, 64, 2, 22),
            rec(300, EventKind::SimWake, 3, 4, 0),
        ];
        let s = summary(&records, 5);
        assert!(s.contains("3 events, 5 dropped"));
        assert!(s.contains("sim.syn"));
        assert!(s.contains("sim.wake"));
        // Kinds with no record get no row.
        assert!(!s.contains("sim.dispatch"));
    }
}
