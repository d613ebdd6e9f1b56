//! The load balancers' lifecycle events, asserted on sockets: a 4-worker
//! `RelayLb` records one `AcceptBurst` per connection its worker accepted,
//! one `ConnOpen` and one `ConnClose` per connection it relayed, and
//! `RelayWakeup`s, each on the worker's own lane, with nothing dropped;
//! and past 64 workers no worker's event lands on `KERNEL_LANE`.
//!
//! The tests share the global recorder, so each holds `RECORDER` while it
//! records.
#![cfg(target_os = "linux")]

use hermes_lb::prelude::*;
use hermes_trace::{EventKind, TraceRecord, CONTROL_LANE, KERNEL_LANE, MAX_WORKER_LANES};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Held by a test for as long as it switches the recorder on and reads it.
static RECORDER: Mutex<()> = Mutex::new(());

/// The lifecycle events the load balancers record on a worker's lane.
const LB_KINDS: [EventKind; 4] = [
    EventKind::AcceptBurst,
    EventKind::RelayWakeup,
    EventKind::ConnOpen,
    EventKind::ConnClose,
];

const WORKERS: usize = 4;
const CONNECTIONS: u64 = 200;
/// Connections between two drains: few enough that no worker's lane (a
/// scheduler pass is a handful of records) fills before the test reads it.
const DRAIN_EVERY: u64 = 20;

#[test]
fn relay_workers_trace_their_connections_on_their_own_lanes() {
    let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    hermes_trace::reset();
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

    for r in records.iter().filter(|r| LB_KINDS.contains(&r.kind)) {
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

/// Connect to `addr` through `exchange` until worker 64, the first of the
/// second group, has accepted a connection.
fn until_worker_64_accepts(accepted: &[AtomicU64], addr: SocketAddr, exchange: fn(TcpStream)) {
    for _ in 0..5_000 {
        if accepted[64].load(Ordering::Relaxed) > 0 {
            return;
        }
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        exchange(s);
    }
    panic!("worker 64 accepted nothing in 5 000 connections");
}

/// Past 64 workers each worker still records on one lane, its session's:
/// worker `w` of the second group on `CONTROL_LANE`, whose pushes take a
/// lock, never on `KERNEL_LANE`, whose ring has no lock, and never on a
/// lane id past the table. Both load balancers, 128 workers each.
#[test]
fn workers_past_64_keep_their_events_off_the_kernel_lane() {
    let _recorder = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    hermes_trace::reset();
    hermes_trace::set_enabled(true);

    let mut router = Router::new();
    router.add_rule(Rule::new().pool("web"));
    let mut proxy = Proxy::new(router);
    proxy.add_pool("web", vec![Box::new(EchoUpstream::new("web-0"))]);
    let lb = TcpLb::start("127.0.0.1:0", 128, proxy).unwrap();
    until_worker_64_accepts(&lb.stats().accepted, lb.local_addr(), |mut s| {
        s.write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    });
    lb.shutdown();

    let backend = TcpListener::bind("127.0.0.1:0").unwrap();
    let backend_addr = backend.local_addr().unwrap();
    let lb = RelayLb::start("127.0.0.1:0", 128, vec![backend_addr]).unwrap();
    let echo = std::thread::spawn(move || {
        for s in backend.incoming() {
            let mut s = s.expect("backend accept");
            let mut chunk = [0u8; 64];
            match s.read(&mut chunk) {
                Ok(0) => return, // the stop connection below
                Ok(n) => s.write_all(&chunk[..n]).unwrap(),
                Err(e) => panic!("backend read: {e}"),
            }
        }
    });
    until_worker_64_accepts(&lb.stats().accepted, lb.local_addr(), |mut s| {
        s.write_all(b"ping").unwrap();
        let mut pong = [0u8; 4];
        s.read_exact(&mut pong).unwrap();
        assert_eq!(&pong, b"ping");
    });
    lb.shutdown();
    drop(TcpStream::connect(backend_addr).unwrap());
    echo.join().unwrap();
    hermes_trace::set_enabled(false);

    let records = hermes_trace::drain();
    let lb_records: Vec<_> = records
        .iter()
        .filter(|r| LB_KINDS.contains(&r.kind))
        .collect();
    assert!(!lb_records.is_empty());
    for r in lb_records {
        let lane = r.worker;
        assert!(
            (lane as usize) < MAX_WORKER_LANES || lane == CONTROL_LANE,
            "{r:?} off the worker lanes and the control lane"
        );
    }
    let kernel: Vec<_> = records.iter().filter(|r| r.worker == KERNEL_LANE).collect();
    assert!(kernel.is_empty(), "on the kernel lane: {kernel:?}");
}
