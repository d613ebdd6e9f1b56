//! The relay's lifecycle events, asserted on sockets: a 4-worker `RelayLb`
//! records one `AcceptBurst` per connection its worker accepted, one
//! `ConnOpen` and one `ConnClose` per connection it relayed, and
//! `RelayWakeup`s, each on the worker's own lane, with nothing dropped.
//!
//! The file holds one test, so it owns the global recorder and switches
//! recording on.
#![cfg(target_os = "linux")]

use hermes_lb::prelude::*;
use hermes_trace::{EventKind, TraceRecord};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 4;
const CONNECTIONS: u64 = 200;
/// Connections between two drains: few enough that no worker's lane (a
/// scheduler pass is a handful of records) fills before the test reads it.
const DRAIN_EVERY: u64 = 20;

#[test]
fn relay_workers_trace_their_connections_on_their_own_lanes() {
    hermes_trace::set_enabled(true);
    let backend = TcpListener::bind("127.0.0.1:0").unwrap();
    let lb = RelayLb::start("127.0.0.1:0", WORKERS, vec![backend.local_addr().unwrap()]).unwrap();
    let echo = std::thread::spawn(move || {
        for _ in 0..CONNECTIONS {
            let (mut s, _) = backend.accept().expect("backend accept");
            let mut chunk = [0u8; 64];
            while let Ok(n @ 1..) = s.read(&mut chunk) {
                s.write_all(&chunk[..n]).unwrap();
            }
        }
    });
    let mut records: Vec<TraceRecord> = Vec::new();
    for i in 0..CONNECTIONS {
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ping = i.to_le_bytes();
        s.write_all(&ping).unwrap();
        let mut pong = [0u8; 8];
        s.read_exact(&mut pong)
            .unwrap_or_else(|e| panic!("connection {i} was not echoed: {e}"));
        assert_eq!(pong, ping);
        if i % DRAIN_EVERY == 0 {
            records.extend(hermes_trace::drain());
        }
    }
    echo.join().unwrap();
    let (stats, relay) = (Arc::clone(lb.stats()), Arc::clone(lb.relay_stats()));
    lb.shutdown();
    hermes_trace::set_enabled(false);
    records.extend(hermes_trace::drain());
    assert_eq!(hermes_trace::dropped_events(), 0);

    let relay_kinds = [
        EventKind::AcceptBurst,
        EventKind::RelayWakeup,
        EventKind::ConnOpen,
        EventKind::ConnClose,
    ];
    for r in records.iter().filter(|r| relay_kinds.contains(&r.kind)) {
        assert!((r.worker as usize) < WORKERS, "{r:?} off the worker lanes");
    }
    let on = |lane: usize, kind: EventKind| {
        records
            .iter()
            .filter(move |r| r.worker as usize == lane && r.kind == kind)
    };
    assert_eq!(relay.failed_connects.load(Ordering::Relaxed), 0);
    let mut closes = 0;
    for w in 0..WORKERS {
        let accepted = stats.accepted[w].load(Ordering::Relaxed);
        // Each burst carries its worker's own accept count: one per accept,
        // all from this worker's counter.
        let mut counts: Vec<u64> = on(w, EventKind::AcceptBurst).map(|r| r.b).collect();
        counts.sort_unstable();
        assert_eq!(
            counts,
            (1..=accepted).collect::<Vec<_>>(),
            "worker {w}: AcceptBurst per accept"
        );
        let opens = on(w, EventKind::ConnOpen).count() as u64;
        let worker_closes = on(w, EventKind::ConnClose).count() as u64;
        assert_eq!(
            opens, accepted,
            "worker {w}: ConnOpen per relayed connection"
        );
        assert_eq!(worker_closes, opens, "worker {w}: ConnClose per ConnOpen");
        if accepted > 0 {
            assert!(on(w, EventKind::RelayWakeup).next().is_some(), "worker {w}");
        }
        closes += worker_closes;
    }
    assert_eq!(closes, relay.relayed.load(Ordering::Relaxed));
    assert_eq!(closes, CONNECTIONS);
    let wakeups = records
        .iter()
        .filter(|r| r.kind == EventKind::RelayWakeup)
        .count() as u64;
    assert!(wakeups <= relay.loop_passes.load(Ordering::Relaxed));
}
