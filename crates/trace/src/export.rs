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

use crate::counters::CounterId;
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
/// time range, p50/p99 inter-event gap) plus every non-zero counter.
pub fn summary(records: &[TraceRecord], counters: &[(CounterId, u64)], dropped: u64) -> String {
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
    let mut out = events.render();
    // Grouped deployments: break dispatch out per level-1 group. The group
    // index travels in the high word of a `GroupDispatch` record's `b`
    // payload, so the breakdown survives lane aliasing on >64-worker runs.
    let mut per_group: std::collections::BTreeMap<u32, (u64, std::collections::BTreeSet<u32>)> =
        std::collections::BTreeMap::new();
    for r in records
        .iter()
        .filter(|r| r.kind == EventKind::GroupDispatch)
    {
        let entry = per_group.entry((r.b >> 32) as u32).or_default();
        entry.0 += 1;
        entry.1.insert(r.b as u32);
    }
    if !per_group.is_empty() {
        let mut gtab = Table::new("Grouped dispatch").header(["group", "dispatches", "workers"]);
        for (group, (count, workers)) in &per_group {
            gtab.row([
                group.to_string(),
                count.to_string(),
                workers.len().to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&gtab.render());
    }
    let mut ctab = Table::new("Counters").header(["counter", "value"]);
    for (id, v) in counters {
        if *v != 0 {
            ctab.row([id.name().to_string(), v.to_string()]);
        }
    }
    if ctab.row_count() > 0 {
        out.push('\n');
        out.push_str(&ctab.render());
    }
    out
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
    fn summary_lists_kinds_and_nonzero_counters() {
        let records = vec![
            rec(100, EventKind::SimSyn, 64, 1, 11),
            rec(200, EventKind::SimSyn, 64, 2, 22),
            rec(300, EventKind::SimWake, 3, 4, 0),
        ];
        let counters = [
            (CounterId::SimSyns, 2),
            (CounterId::SimWakes, 1),
            (CounterId::FallbackDispatches, 0),
        ];
        let s = summary(&records, &counters, 5);
        assert!(s.contains("3 events, 5 dropped"));
        assert!(s.contains("sim.syn"));
        assert!(s.contains("sim.wake"));
        assert!(s.contains("sim.syns"));
        // Zero counters are suppressed.
        assert!(!s.contains("dispatch.fallback"));
    }

    #[test]
    fn summary_breaks_grouped_dispatch_out_by_group() {
        // Payload: group in the high word, global worker in the low.
        let placed = |group: u64, worker: u64| (group << 32) | worker;
        let records = vec![
            rec(10, EventKind::GroupDispatch, 64, 0xabc, placed(0, 3)),
            rec(20, EventKind::GroupDispatch, 64, 0xdef, placed(0, 5)),
            rec(30, EventKind::GroupDispatch, 64, 0x123, placed(2, 130)),
        ];
        let s = summary(&records, &[], 0);
        assert!(s.contains("Grouped dispatch"), "{s}");
        // Group 0 saw two dispatches over two distinct workers; group 2 one.
        let row = |g: &str| {
            s.lines()
                .map(|l| l.split_whitespace().collect::<Vec<_>>())
                .find(|w| w.first() == Some(&g))
                .unwrap_or_else(|| panic!("no row for group {g} in {s}"))
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(row("0")[1..3], ["2".to_string(), "2".to_string()]);
        assert_eq!(row("2")[1..3], ["1".to_string(), "1".to_string()]);
        // Flat traces stay untouched.
        assert!(
            !summary(&[rec(1, EventKind::Dispatch, 0, 0, 0)], &[], 0).contains("Grouped dispatch")
        );
    }
}
