//! Timed calls into each layer's public functions, on the inputs the
//! workload produced: the flow hashes of its connections and the prober's
//! exact request bytes. These are the per-layer costs the spans cannot
//! separate, because the harness only sees the program from outside.
//!
//! Every figure is the median over rounds of the mean cost of one call in a
//! round, so a round disturbed by the scheduler does not move it.

use crate::socket::{http_proxy, http_router, probe};
use crate::stats::median;
use crate::sys::now_ns;
use bytes::BytesMut;
use hermes_backend::{BackendPool, HealthState, TableCache};
use hermes_core::dispatch::DispatchOutcome;
use hermes_core::{SchedConfig, Scheduler, SnapshotCache, WorkerBitmap, WorkerSession, Wst};
use hermes_ebpf::ReuseportGroup;
use hermes_lb::http::{parse_request, Response, StatusCode};
use hermes_lb::reactor::{splice_from_pipe, splice_to_pipe, PipePair, Reactor, Splice, WAKE_TOKEN};
use std::hint::black_box;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const WORKERS: usize = 8;
const ROUNDS: usize = 15;
/// The relay's copy path moves bytes through a scratch buffer of this size.
const SCRATCH_BYTES: usize = 16 << 10;

/// Median over `ROUNDS` rounds of the mean ns of one call in a round.
fn time_ns(batch: usize, mut call: impl FnMut(usize)) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            let start = Instant::now();
            for i in 0..batch {
                call(r * batch + i);
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&rounds)
}

pub fn measure(seed: u64, flow_hashes: &[u32]) -> io::Result<Vec<(&'static str, f64)>> {
    let mut v = Vec::new();
    reactor(&mut v)?;
    dispatch(flow_hashes, &mut v);
    scheduler(&mut v);
    backend(flow_hashes, &mut v);
    http(seed, &mut v);
    let mut hist = hermes_metrics::Histogram::latency();
    v.push((
        "metrics.hist_record_ns",
        time_ns(100_000, |i| hist.record(black_box(1_000 + 37 * i as u64))),
    ));
    Ok(v)
}

// --- lb.reactor ------------------------------------------------------------------

fn tcp_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let a = TcpStream::connect(listener.local_addr()?)?;
    let (b, _) = listener.accept()?;
    for s in [&a, &b] {
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
    }
    Ok((a, b))
}

/// `Waker::wake` on one thread to `Reactor::wait` returning on another, µs.
fn wake_latency_us() -> io::Result<f64> {
    let mut reactor = Reactor::new()?;
    let waker = reactor.waker();
    let stop = Arc::new(AtomicBool::new(false));
    let (woke_tx, woke_rx) = mpsc::channel();
    let sleeper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut events = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let _ = reactor.wait(&mut events, 1_000);
                if events.iter().any(|e| e.token == WAKE_TOKEN) {
                    let woke = now_ns();
                    reactor.drain_wake();
                    let _ = woke_tx.send(woke);
                }
            }
        })
    };
    let mut latencies = Vec::with_capacity(1_000);
    for _ in 0..1_000 {
        // Let the sleeper get back into epoll_wait: the figure is a wake
        // from sleep, as an idle worker's is.
        std::thread::sleep(Duration::from_micros(50));
        let rang = now_ns();
        waker.wake();
        match woke_rx.recv_timeout(Duration::from_secs(2)) {
            Ok(woke) => latencies.push(woke.saturating_sub(rang) as f64 / 1e3),
            Err(_) => break,
        }
    }
    stop.store(true, Ordering::SeqCst);
    waker.wake();
    sleeper.join().expect("sleeper panicked");
    Ok(median(&latencies))
}

/// Move `size` bytes from socket `b` to socket `c`, `rounds` times, by
/// splice through a pipe or by read + write through a scratch buffer; only
/// the moving is timed, feeding `a` and draining `d` are not. Returns the
/// median ns per `size` bytes moved, or 0 if the kernel refuses to splice.
fn move_ns(size: usize, rounds: usize, spliced: bool) -> io::Result<f64> {
    let ((mut a, mut b), (mut c, mut d)) = (tcp_pair()?, tcp_pair()?);
    let pipe = PipePair::new()?;
    let payload = vec![0xA5u8; size];
    let mut scratch = vec![0u8; SCRATCH_BYTES];
    let mut sink = vec![0u8; 64 << 10];
    let would_block = |e: &io::Error| e.kind() == ErrorKind::WouldBlock;
    let mut per_round = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (mut fed, mut moved, mut drained) = (0usize, 0usize, 0usize);
        // Bytes taken from `b` and not yet delivered to `c`: in the pipe, or
        // in `scratch[delivered..taken]`.
        let (mut staged, mut delivered, mut taken) = (0usize, 0usize, 0usize);
        let mut spent = Duration::ZERO;
        while drained < size {
            while fed < size {
                match a.write(&payload[fed..]) {
                    Ok(n) => fed += n,
                    Err(e) if would_block(&e) => break,
                    Err(e) => return Err(e),
                }
            }
            let start = Instant::now();
            loop {
                if spliced && staged > 0 {
                    match splice_from_pipe(&pipe, c.as_raw_fd(), staged)? {
                        Splice::Moved(n) => {
                            staged -= n;
                            moved += n;
                        }
                        Splice::Unsupported => return Ok(0.0),
                        _ => break,
                    }
                } else if spliced {
                    match splice_to_pipe(b.as_raw_fd(), &pipe, size - moved)? {
                        Splice::Moved(n) => staged += n,
                        Splice::Unsupported => return Ok(0.0),
                        _ => break,
                    }
                } else if delivered < taken {
                    match c.write(&scratch[delivered..taken]) {
                        Ok(n) => {
                            delivered += n;
                            moved += n;
                        }
                        Err(e) if would_block(&e) => break,
                        Err(e) => return Err(e),
                    }
                } else {
                    match b.read(&mut scratch) {
                        Ok(n) => (delivered, taken) = (0, n),
                        Err(e) if would_block(&e) => break,
                        Err(e) => return Err(e),
                    }
                }
                if moved == size {
                    break;
                }
            }
            spent += start.elapsed();
            loop {
                match d.read(&mut sink) {
                    Ok(n) => drained += n,
                    Err(e) if would_block(&e) => break,
                    Err(e) => return Err(e),
                }
            }
        }
        per_round.push(spent.as_nanos() as f64);
    }
    Ok(median(&per_round))
}

fn reactor(v: &mut Vec<(&'static str, f64)>) -> io::Result<()> {
    v.push(("lb.reactor.wake_us", wake_latency_us()?));

    // `wait` with an event already pending: a level-triggered readable socket.
    let (mut a, b) = tcp_pair()?;
    let mut reactor = Reactor::new()?;
    reactor.register_read(b.as_raw_fd(), 1)?;
    a.write_all(b"x")?;
    std::thread::sleep(Duration::from_millis(1));
    let mut events = Vec::new();
    v.push((
        "lb.reactor.wait_ready_ns",
        time_ns(2_000, |_| {
            let _ = black_box(reactor.wait(&mut events, 0));
        }),
    ));
    v.push((
        "lb.reactor.pipe_new_us",
        time_ns(200, |_| drop(black_box(PipePair::new()))) / 1e3,
    ));
    v.push(("lb.reactor.splice_64B_ns", move_ns(64, 2_000, true)?));
    v.push(("lb.reactor.copy_64B_ns", move_ns(64, 2_000, false)?));
    v.push(("lb.reactor.splice_64KiB_ns", move_ns(64 << 10, 300, true)?));
    v.push(("lb.reactor.copy_64KiB_ns", move_ns(64 << 10, 300, false)?));
    Ok(())
}

// --- ebpf, core --------------------------------------------------------------------

/// An 8-row table in which every worker but the last entered its loop just
/// now; the last one's entry is a second old, so the time filter drops it.
fn table_with_one_stale_row(now: u64) -> Arc<Wst> {
    let wst = Arc::new(Wst::new(WORKERS));
    for w in 0..WORKERS - 1 {
        wst.worker(w).enter_loop(now);
    }
    wst.worker(WORKERS - 1).enter_loop(1);
    wst
}

const NOW: u64 = 1_000_000_000;

fn dispatch(flow_hashes: &[u32], v: &mut Vec<(&'static str, f64)>) {
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(ReuseportGroup::new(WORKERS));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    v.push(("ebpf.group_build_ms", median(&builds)));

    // The bitmap the program reads is one a live scheduler published.
    let group = Arc::new(ReuseportGroup::new(WORKERS));
    let target = {
        let group = Arc::clone(&group);
        Arc::new(move |bitmap: WorkerBitmap| group.sync_bitmap(bitmap))
    };
    let mut session = WorkerSession::new(
        table_with_one_stale_row(NOW),
        0,
        SchedConfig::default(),
        target,
    );
    session.schedule_and_sync(NOW);
    v.push(("ebpf.tier", group.tier().trace_code() as f64));

    let hashes: Vec<u32> = if flow_hashes.is_empty() {
        (0..4096u32).map(|i| i.wrapping_mul(0x9E37_79B1)).collect()
    } else {
        flow_hashes.iter().copied().cycle().take(4096).collect()
    };
    v.push((
        "ebpf.dispatch_one_ns",
        time_ns(hashes.len(), |i| {
            black_box(group.dispatch(black_box(hashes[i % hashes.len()])));
        }),
    ));
    let mut outcomes: Vec<DispatchOutcome> = Vec::with_capacity(hermes_core::DISPATCH_BATCH);
    let batches: Vec<&[u32]> = hashes.chunks_exact(hermes_core::DISPATCH_BATCH).collect();
    v.push((
        "ebpf.dispatch_batch_ns",
        time_ns(batches.len(), |i| {
            outcomes.clear();
            group.dispatch_batch(batches[i % batches.len()], &mut outcomes);
            black_box(&outcomes);
        }) / hermes_core::DISPATCH_BATCH as f64,
    ));
}

fn scheduler(v: &mut Vec<(&'static str, f64)>) {
    let wst = table_with_one_stale_row(NOW);
    let scheduler = Scheduler::new(SchedConfig::default());
    let mut cache = SnapshotCache::new();
    // Each pass follows a row update, as in a worker's loop: an unchanged
    // table would be answered from the snapshot cache.
    v.push((
        "core.sched.pass_ns",
        time_ns(20_000, |i| {
            wst.worker(i % (WORKERS - 1)).enter_loop(NOW + i as u64);
            black_box(scheduler.schedule_into(&wst, NOW + i as u64, &mut cache));
        }),
    ));

    let group = Arc::new(ReuseportGroup::new(WORKERS));
    let target = {
        let group = Arc::clone(&group);
        Arc::new(move |bitmap: WorkerBitmap| group.sync_bitmap(bitmap))
    };
    let mut session = WorkerSession::new(Arc::clone(&wst), 0, SchedConfig::default(), target);
    v.push((
        "core.sched.session_pass_ns",
        time_ns(20_000, |i| {
            session.loop_top(NOW + i as u64);
            let decision = session.schedule_only(NOW + i as u64);
            session.sync_only(decision.bitmap);
        }),
    ));
    v.push((
        "core.wst.update_ns",
        time_ns(20_000, |i| {
            session.loop_top(NOW + i as u64);
            session.events_fetched(1);
            session.conn_opened();
            session.event_handled();
            session.conn_closed();
        }),
    ));
}

// --- backend -----------------------------------------------------------------------

fn backend(flow_hashes: &[u32], v: &mut Vec<(&'static str, f64)>) {
    let pool = BackendPool::new(2);
    let mut cache = TableCache::new();
    let hash_of = |i: usize| {
        flow_hashes
            .get(i % flow_hashes.len().max(1))
            .copied()
            .unwrap_or(i as u32)
    };
    v.push((
        "backend.admit_ns",
        time_ns(20_000, |i| {
            let table = pool.cached(&mut cache);
            let admission = table
                .admit(black_box(hash_of(i)))
                .expect("a healthy backend admits");
            black_box(admission.resolve());
        }),
    ));
    v.push((
        "backend.publish_us",
        time_ns(500, |i| {
            let to = if i % 2 == 0 {
                HealthState::Draining
            } else {
                HealthState::Healthy
            };
            assert!(pool.set_health(1, to, i as u64), "legal transition");
        }) / 1e3,
    ));
}

// --- lb.http, lb.router, lb.proxy ----------------------------------------------------

fn http(seed: u64, v: &mut Vec<(&'static str, f64)>) {
    let (_, request, _) = probe(seed, 0);
    let mut buf = BytesMut::with_capacity(256);
    v.push((
        "lb.http.parse_ns",
        time_ns(10_000, |_| {
            buf.clear();
            buf.extend_from_slice(&request);
            black_box(
                parse_request(&mut buf)
                    .expect("well-formed")
                    .expect("complete"),
            );
        }),
    ));
    let response = Response::new(StatusCode::Ok)
        .header("x-upstream", "up0")
        .body(String::from("GET /svc00/item1 via up0"));
    v.push((
        "lb.http.encode_ns",
        time_ns(10_000, |_| drop(black_box(response.encode()))),
    ));
    // A path only the catch-all matches: the lookup walks all 33 rules.
    let router = http_router();
    v.push((
        "lb.router.route_ns",
        time_ns(10_000, |_| {
            black_box(router.route(Some("bench.local"), black_box("/misc/item1")));
        }),
    ));
    let mut proxy = http_proxy().for_worker(0);
    v.push((
        "lb.proxy.handle_ns",
        time_ns(10_000, |_| {
            buf.clear();
            buf.extend_from_slice(&request);
            black_box(proxy.handle_bytes(&mut buf).expect("complete request"));
        }),
    ));
}
