//! A real TCP front end with Hermes-dispatched worker threads.
//!
//! Shape (and its one substitution): in production the kernel's reuseport
//! hook places each SYN directly onto a worker's listening socket. A
//! portable std-only process cannot open N reuseport sockets, so an
//! acceptor thread stands in for the kernel: it accepts, computes the
//! connection hash, runs the *same verified eBPF dispatch program*
//! (behind `hermes_ebpf::DispatchPlane`), and hands the socket to the
//! chosen worker over a channel. Workers run the Fig. 9 loop via the core SDK:
//! status hooks around a 5 ms-timeout receive, run-to-completion
//! connection handling, `schedule_and_sync` at the loop end.

use crate::http::RequestBuf;
use crate::proxy::Proxy;
use crate::reactor::{self, Reactor, Waker};
use hermes_core::sched::SchedConfig;
use hermes_core::sdk::{SyncTarget, WorkerSession};
use hermes_core::wst::Wst;
use hermes_core::{FlowKey, WorkerBitmap};
use hermes_ebpf::{DispatchPlane, Placement};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the acceptor hands a worker: the accepted stream and the flow
/// hash it dispatched on, so the worker never asks the kernel for the
/// addresses again.
pub(crate) type Handoff = (TcpStream, u32);

/// Hand-offs a worker's `sync_channel` holds: a worker that stops draining
/// blocks the acceptor at this many streams — the accept-queue semantics of
/// the kernel — instead of growing without limit.
pub(crate) const HANDOFF_QUEUE: usize = 1024;

/// Counters shared with callers for observability/tests.
#[derive(Debug, Default)]
pub struct LbStats {
    /// Connections accepted per worker.
    pub accepted: Vec<AtomicU64>,
    /// Requests served (all workers).
    pub requests: AtomicU64,
    /// Dispatches that took the directed bitmap path.
    pub directed: AtomicU64,
    /// Dispatches that fell back to hashing.
    pub fallback: AtomicU64,
}

/// What every LB is, whatever its workers do: the bound address, the
/// shared stats, and the threads with what stops them.
pub(crate) struct Running {
    pub(crate) local_addr: SocketAddr,
    pub(crate) stats: Arc<LbStats>,
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Workers that sleep in `epoll_wait` and must be rung out of it.
    wakers: Vec<Waker>,
    /// The acceptor, then the workers: joined in that order.
    threads: Vec<JoinHandle<()>>,
}

impl Running {
    /// Bind the (nonblocking) listener and size the stats to `workers`.
    /// No thread runs yet.
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> std::io::Result<(TcpListener, Running)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let running = Running {
            local_addr: listener.local_addr()?,
            stats: Arc::new(LbStats {
                accepted: (0..workers).map(|_| AtomicU64::new(0)).collect(),
                ..LbStats::default()
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
            wakers: Vec::new(),
            threads: Vec::new(),
        };
        Ok((listener, running))
    }

    /// Start the acceptor over `listener` (see [`accept_loop`] for the
    /// arguments passed through) and take over the spawned `workers`.
    pub(crate) fn start(
        &mut self,
        listener: TcpListener,
        senders: Vec<SyncSender<Handoff>>,
        wakers: Vec<Waker>,
        workers: Vec<JoinHandle<()>>,
        nonblocking: bool,
        plane: Arc<DispatchPlane>,
    ) {
        self.wakers = wakers.clone();
        let (stats, shutdown) = (Arc::clone(&self.stats), Arc::clone(&self.shutdown));
        self.threads.push(std::thread::spawn(move || {
            accept_loop(
                listener,
                senders,
                wakers,
                nonblocking,
                plane,
                stats,
                shutdown,
            )
        }));
        self.threads.extend(workers);
    }

    /// Stop accepting, let the workers drain, join every thread.
    pub(crate) fn stop(&mut self) {
        self.signal();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn signal(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        self.signal();
    }
}

/// A running TCP L7 LB.
pub struct TcpLb(Running);

impl TcpLb {
    /// Bind `addr`, spawn `workers` worker threads serving `proxy`, and
    /// start accepting: one group, the paper's flat program.
    pub fn start(addr: impl ToSocketAddrs, workers: usize, proxy: Proxy) -> std::io::Result<TcpLb> {
        assert!((1..=64).contains(&workers), "1..=64 workers");
        TcpLb::serve(addr, DispatchPlane::bytecode(1, workers), proxy)
    }

    /// Bind `addr` and serve `groups * group_size` workers sharded into
    /// per-group Worker Status Tables with the two-level (§7) dispatch
    /// program in front — the >64-worker deployment shape.
    pub fn start_sharded(
        addr: impl ToSocketAddrs,
        groups: usize,
        group_size: usize,
        proxy: Proxy,
    ) -> std::io::Result<TcpLb> {
        assert!((1..=64).contains(&groups), "1..=64 groups");
        assert!((1..=64).contains(&group_size), "1..=64 workers per group");
        TcpLb::serve(addr, DispatchPlane::bytecode(groups, group_size), proxy)
    }

    /// Spawn one HTTP worker per global id, then the acceptor that feeds
    /// them through `plane`.
    ///
    /// Each group runs its own scheduler instances over its own WST and
    /// publishes into its own selection map; the acceptor runs the program
    /// once per accept burst. Worker threads keep group-local ids (the WST
    /// is per group) while stats and proxies index the flattened global id.
    fn serve(
        addr: impl ToSocketAddrs,
        plane: DispatchPlane,
        proxy: Proxy,
    ) -> std::io::Result<TcpLb> {
        let (groups, group_size) = (plane.groups(), plane.group_size());
        let workers = groups * group_size;
        let (listener, mut running) = Running::bind(addr, workers)?;
        let plane = Arc::new(plane);
        let wsts: Vec<Arc<Wst>> = (0..groups)
            .map(|_| Arc::new(Wst::new(group_size)))
            .collect();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for id in 0..workers {
            let (tx, rx) = sync_channel(HANDOFF_QUEUE);
            senders.push(tx);
            let (g, local) = (id / group_size, id % group_size);
            let lane = hermes_trace::grouped_lane(g, group_size, local);
            let shard = Arc::clone(&plane);
            let sync = Arc::new(move |bitmap: WorkerBitmap| shard.sync(g, bitmap));
            let session =
                WorkerSession::new(Arc::clone(&wsts[g]), local, SchedConfig::default(), sync)
                    .with_trace_lane(lane);
            let stats = Arc::clone(&running.stats);
            let shutdown = Arc::clone(&running.shutdown);
            let proxy = proxy.for_worker(id);
            handles.push(std::thread::spawn(move || {
                worker_loop(id, lane, rx, session, proxy, stats, shutdown)
            }));
        }
        // HTTP workers block on their channel, not in epoll: no wakers
        // (the channel send itself unblocks them), and they serve with
        // blocking reads, so no nonblocking accept.
        running.start(listener, senders, Vec::new(), handles, false, plane);
        Ok(TcpLb(running))
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr
    }

    /// Shared counters.
    pub fn stats(&self) -> &Arc<LbStats> {
        &self.0.stats
    }

    /// Stop accepting, drain workers, join threads.
    pub fn shutdown(mut self) {
        self.0.stop();
    }
}

/// Largest accept burst dispatched through one batched program run — the
/// workspace-wide batch geometry shared with the runtime driver.
pub(crate) const ACCEPT_BURST: usize = hermes_core::DISPATCH_BATCH;

/// How long the acceptor stays away from a listener whose `accept` ran
/// out of fds or memory. The listener is level-triggered, so waiting on
/// it would return at once and spin; a clocked pause lets closes land.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Event-driven wait for the acceptor: the listening socket sits in a
/// (level-triggered) epoll set, so an idle acceptor blocks in the kernel
/// and wakes the moment a SYN completes. Falls back to a 500 µs sleep
/// when epoll is unavailable (non-Linux hosts, fd exhaustion).
pub(crate) struct AcceptWaiter {
    reactor: Option<Reactor>,
    events: Vec<reactor::Event>,
}

impl AcceptWaiter {
    pub(crate) fn new(listener: &TcpListener) -> AcceptWaiter {
        let reactor = Reactor::new()
            .ok()
            .filter(|r| r.register_read(listener.as_raw_fd(), 0).is_ok());
        AcceptWaiter {
            reactor,
            events: Vec::new(),
        }
    }

    /// Block until the listener is (probably) readable. Bounded at 5 ms
    /// either way so the shutdown flag stays responsive; level-triggered
    /// registration means a still-nonempty backlog re-reports immediately.
    pub(crate) fn wait(&mut self) {
        match &mut self.reactor {
            Some(r) => {
                let _ = r.wait(&mut self.events, 5);
            }
            None => std::thread::sleep(Duration::from_micros(500)),
        }
    }
}

/// What a failed `accept` means for the burst being drained. No errno
/// ends the acceptor: an LB that stops accepting is down for good.
#[derive(Debug, PartialEq, Eq)]
enum AcceptFailure {
    /// `EAGAIN`: the backlog is empty, the burst is complete.
    Drained,
    /// `ECONNABORTED` (the client reset before it was accepted) or
    /// `EINTR`: that call produced nothing, the next one may.
    NextConn,
    /// `EMFILE`/`ENFILE`/`ENOBUFS`/`ENOMEM`, or anything unforeseen:
    /// retrying at once would fail the same way, so dispatch what was
    /// drained and stay off the listener for [`ACCEPT_BACKOFF`].
    BackOff,
}

fn classify_accept_error(e: &std::io::Error) -> AcceptFailure {
    match e.kind() {
        std::io::ErrorKind::WouldBlock => AcceptFailure::Drained,
        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted => {
            AcceptFailure::NextConn
        }
        _ => AcceptFailure::BackOff,
    }
}

/// The "kernel": drain the accept backlog into a burst, hash, run the
/// dispatch program once for the whole burst, hand off, ring the worker.
/// Shared by the HTTP front ends and the byte relay ([`crate::relay`]),
/// which asks for its streams `nonblocking` straight from the accept and
/// passes its workers' `wakers` (empty when workers block on the channel
/// itself). `plane` is the dispatch step; a sharded plane's decisions are
/// also recorded one by one as `GroupDispatch` flight-recorder events.
fn accept_loop(
    listener: TcpListener,
    senders: Vec<SyncSender<Handoff>>,
    wakers: Vec<Waker>,
    nonblocking: bool,
    plane: Arc<DispatchPlane>,
    stats: Arc<LbStats>,
    shutdown: Arc<AtomicBool>,
) {
    let local = listener.local_addr().expect("bound");
    let epoch = std::time::Instant::now();
    let mut waiter = AcceptWaiter::new(&listener);
    let mut pending: Vec<TcpStream> = Vec::with_capacity(ACCEPT_BURST);
    let mut hashes: Vec<u32> = Vec::with_capacity(ACCEPT_BURST);
    let mut placed: Vec<Placement> = Vec::with_capacity(ACCEPT_BURST);
    let sharded = plane.groups() > 1;
    while !shutdown.load(Ordering::SeqCst) {
        // Drain whatever the kernel has queued, up to one burst: under
        // load this amortises the map-registry resolution and bitmap load
        // over the whole burst; when idle it degrades to per-connection
        // dispatch (batch of one).
        pending.clear();
        hashes.clear();
        let mut back_off = false;
        while pending.len() < ACCEPT_BURST {
            let accepted = if nonblocking {
                reactor::accept_nonblocking(&listener)
            } else {
                listener.accept()
            };
            match accepted {
                Ok((stream, peer)) => {
                    hashes.push(flow_hash(&peer, &local));
                    pending.push(stream);
                }
                Err(e) => match classify_accept_error(&e) {
                    AcceptFailure::NextConn => {}
                    AcceptFailure::Drained => break,
                    AcceptFailure::BackOff => {
                        back_off = true;
                        break;
                    }
                },
            }
        }
        let burst = pending.len();
        if burst > 0 {
            // Only the flight recorder reads the burst's timestamp.
            let now = if hermes_trace::ENABLED {
                epoch.elapsed().as_nanos() as u64
            } else {
                0
            };
            placed.clear();
            plane.dispatch_batch(&hashes, &mut placed);
            hermes_trace::trace_event!(
                now,
                hermes_trace::EventKind::AcceptBurst,
                hermes_trace::KERNEL_LANE,
                burst,
                placed.iter().filter(|p| p.directed).count()
            );
            hermes_trace::trace_count!(hermes_trace::CounterId::AcceptBursts);
            hermes_trace::trace_count!(hermes_trace::CounterId::AcceptedConns, burst);
            for ((stream, p), &hash) in pending.drain(..).zip(&placed).zip(&hashes) {
                if sharded {
                    hermes_trace::trace_event!(
                        now,
                        hermes_trace::EventKind::GroupDispatch,
                        hermes_trace::KERNEL_LANE,
                        hash,
                        ((p.group as u64) << 32) | p.worker as u64
                    );
                }
                let path = if p.directed {
                    &stats.directed
                } else {
                    &stats.fallback
                };
                path.fetch_add(1, Ordering::Relaxed);
                // A full worker queue applies backpressure by blocking the
                // acceptor — the accept-queue semantics of the kernel.
                if senders[p.worker].send((stream, hash)).is_err() {
                    return; // workers gone: shutting down
                }
                // Reactor workers sleep in epoll_wait: ring their eventfd so
                // the hand-off is picked up now, not at the next idle timeout.
                if let Some(w) = wakers.get(p.worker) {
                    w.wake();
                }
            }
        }
        if back_off {
            std::thread::sleep(ACCEPT_BACKOFF);
        } else if burst == 0 {
            waiter.wait();
        }
    }
}

/// The kernel-precomputed 4-tuple hash, from the socket addresses.
pub(crate) fn flow_hash(peer: &SocketAddr, local: &SocketAddr) -> u32 {
    let ip_bits = |a: &SocketAddr| match a.ip() {
        std::net::IpAddr::V4(v4) => u32::from(v4),
        std::net::IpAddr::V6(v6) => {
            let o = v6.octets();
            u32::from_be_bytes([o[12], o[13], o[14], o[15]])
        }
    };
    FlowKey::new(ip_bits(peer), peer.port(), ip_bits(local), local.port()).hash()
}

/// One worker: Fig. 9's loop over a socket channel. `id` indexes stats
/// (global worker id); `lane` is the flight-recorder lane (equal to `id`
/// flat, `grouped_lane(..)` sharded).
fn worker_loop<T: SyncTarget>(
    id: usize,
    lane: u32,
    rx: Receiver<Handoff>,
    mut session: WorkerSession<T>,
    mut proxy: Proxy,
    stats: Arc<LbStats>,
    shutdown: Arc<AtomicBool>,
) {
    let epoch = std::time::Instant::now();
    let now_ns = move || epoch.elapsed().as_nanos() as u64;
    loop {
        session.loop_top(now_ns());
        let mut idle = false;
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok((stream, _hash)) => {
                session.events_fetched(1);
                session.conn_opened();
                stats.accepted[id].fetch_add(1, Ordering::Relaxed);
                hermes_trace::trace_event!(
                    now_ns(),
                    hermes_trace::EventKind::ConnOpen,
                    lane,
                    stats.accepted[id].load(Ordering::Relaxed),
                    0u64
                );
                serve_connection(stream, &mut proxy, &stats);
                session.event_handled();
                session.conn_closed();
                hermes_trace::trace_event!(
                    now_ns(),
                    hermes_trace::EventKind::ConnClose,
                    lane,
                    stats.requests.load(Ordering::Relaxed),
                    0u64
                );
                hermes_trace::trace_count!(hermes_trace::CounterId::ProxiedConns);
            }
            Err(RecvTimeoutError::Timeout) => {
                session.events_fetched(0);
                idle = true;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let decision = session.schedule_only(now_ns());
        session.sync_only(decision.bitmap);
        // Stop only once a receive has found the queue empty: hand-offs
        // queued before the flag went up are still served.
        if idle && shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Run-to-completion connection handling: keep-alive until EOF, error, or
/// idle timeout.
fn serve_connection(mut stream: TcpStream, proxy: &mut Proxy, stats: &LbStats) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut buf = RequestBuf::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    // Hard per-connection deadline: a client trickling bytes just under
    // the read timeout must not pin this worker (slow-loris) or stall
    // shutdown joins indefinitely.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if std::time::Instant::now() >= deadline {
            return;
        }
        // Serve every complete request already buffered. Only *protocol*
        // errors (400: the byte stream is unparseable) close the
        // connection; routing misses (404) and upstream trouble (5xx) are
        // valid HTTP exchanges and keep-alive continues.
        while let Some(response) = proxy.handle_bytes(&mut buf) {
            let protocol_error = response.starts_with(b"HTTP/1.1 400");
            if stream.write_all(&response).is_err() {
                return;
            }
            stats.requests.fetch_add(1, Ordering::Relaxed);
            if protocol_error {
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return, // timeout or reset: drop the connection
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::EchoUpstream;
    use crate::router::{Router, Rule};

    fn demo_proxy() -> Proxy {
        let mut router = Router::new();
        router.add_rule(Rule::new().path_prefix("/api").pool("api"));
        router.add_rule(Rule::new().pool("web"));
        let mut p = Proxy::new(router);
        p.add_pool(
            "api",
            vec![
                Box::new(EchoUpstream::new("api-0")),
                Box::new(EchoUpstream::new("api-1")),
            ],
        );
        p.add_pool("web", vec![Box::new(EchoUpstream::new("web-0"))]);
        p
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_real_http_over_tcp() {
        let lb = TcpLb::start("127.0.0.1:0", 3, demo_proxy()).expect("bind");
        let addr = lb.local_addr();
        let resp = http_get(addr, "/api/users");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("GET /api/users via api-"));
        let resp = http_get(addr, "/index.html");
        assert!(resp.contains("via web-0"));
        lb.shutdown();
    }

    #[test]
    fn many_clients_spread_across_workers() {
        let lb = TcpLb::start("127.0.0.1:0", 4, demo_proxy()).expect("bind");
        let addr = lb.local_addr();
        std::thread::sleep(Duration::from_millis(15)); // first bitmaps
        let clients: Vec<_> = (0..32)
            .map(|i| {
                std::thread::spawn(move || {
                    let resp = http_get(addr, &format!("/c{i}"));
                    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        let stats = Arc::clone(lb.stats());
        lb.shutdown();
        let accepted: Vec<u64> = stats
            .accepted
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        assert_eq!(accepted.iter().sum::<u64>(), 32);
        assert_eq!(stats.requests.load(Ordering::Relaxed), 32);
        // No worker takes everything (Hermes spreads; loopback hashing
        // variance allows some skew).
        assert!(
            *accepted.iter().max().unwrap() < 32,
            "one worker took all: {accepted:?}"
        );
    }

    #[test]
    fn sharded_lb_serves_and_spreads_across_groups() {
        // 2 groups × 2 workers: small enough for the test host, but every
        // sharded code path (per-group WSTs, grouped program, global
        // flattening) is exercised.
        let lb = TcpLb::start_sharded("127.0.0.1:0", 2, 2, demo_proxy()).expect("bind");
        let addr = lb.local_addr();
        std::thread::sleep(Duration::from_millis(15)); // first bitmaps
        for i in 0..24 {
            let resp = http_get(addr, &format!("/api/s{i}"));
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        }
        let stats = Arc::clone(lb.stats());
        lb.shutdown();
        let accepted: Vec<u64> = stats
            .accepted
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect();
        assert_eq!(accepted.len(), 4, "stats indexed by global worker id");
        assert_eq!(accepted.iter().sum::<u64>(), 24);
        assert_eq!(stats.requests.load(Ordering::Relaxed), 24);
        assert!(
            *accepted.iter().max().unwrap() < 24,
            "one worker took all: {accepted:?}"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn no_accept_errno_ends_the_acceptor() {
        let classify = |errno| classify_accept_error(&std::io::Error::from_raw_os_error(errno));
        let (eintr, eagain, enomem, enfile, emfile) = (4, 11, 12, 23, 24);
        let (eproto, econnaborted, enobufs) = (71, 103, 105);
        assert_eq!(classify(eagain), AcceptFailure::Drained);
        // A client that reset before the accept took only itself out.
        assert_eq!(classify(econnaborted), AcceptFailure::NextConn);
        assert_eq!(classify(eintr), AcceptFailure::NextConn);
        for exhausted in [emfile, enfile, enobufs, enomem] {
            assert_eq!(classify(exhausted), AcceptFailure::BackOff, "{exhausted}");
        }
        // An errno nobody planned for must pause the loop, not spin it.
        assert_eq!(classify(eproto), AcceptFailure::BackOff);
    }

    #[test]
    #[should_panic(expected = "1..=64 groups")]
    fn sharded_lb_rejects_zero_groups() {
        let _ = TcpLb::start_sharded("127.0.0.1:0", 0, 4, demo_proxy());
    }

    #[test]
    fn keep_alive_serves_pipelined_requests() {
        let lb = TcpLb::start("127.0.0.1:0", 2, demo_proxy()).expect("bind");
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write!(s, "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 2, "{out}");
        lb.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_and_close() {
        let lb = TcpLb::start("127.0.0.1:0", 2, demo_proxy()).expect("bind");
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write!(s, "garbage garbage garbage\r\n\r\n").unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        lb.shutdown();
    }
}
