//! A real TCP front end whose workers the kernel dispatches to.
//!
//! Shape: every worker owns a listening socket of one `SO_REUSEPORT`
//! group, and the kernel's reuseport hook places each SYN on one of them.
//! What runs at the hook is the paper's Algorithm 2 — this workspace's
//! dispatch program, loaded by [`hermes_ebpf::kernel`] —
//! reading the bitmaps the workers' schedulers store into its mmap'd map:
//!
//! ```text
//! scheduler ─▶ mmap store ─▶ kernel program ─▶ listener[w] ─▶ worker w
//! ```
//!
//! Past 64 workers the workers split into ⌈workers/64⌉ equal groups (§7,
//! [`hermes_core::group::worker_groups`]): each group has its own WST, its
//! workers' schedulers see only that table and store only their group's
//! word, and the program picks the group by hash before it reads a bitmap.
//!
//! No thread exists to accept: a worker accepts from its own listener.
//! HTTP workers run the Fig. 9 loop via the core SDK — status hooks around
//! a 5 ms-bounded wait on the listener, run-to-completion connection
//! handling, schedule and sync at the loop end; relay workers
//! ([`crate::relay`]) keep the listener in their epoll set.
//!
//! Where the kernel refuses `bpf(2)` (no `CAP_BPF` + `CAP_NET_ADMIN`, no
//! `CONFIG_BPF_SYSCALL`) nothing is attached and the kernel's own
//! reuseport hash places every connection — Algorithm 2's `n <= 1` branch,
//! always — on the same accept path. [`Dispatch`] says which it is.

use crate::proxy::Proxy;
use crate::reactor::{self, Reactor, Waker, LISTEN_TOKEN};
use hermes_core::group::worker_groups;
use hermes_core::sched::SchedConfig;
use hermes_core::sdk::WorkerSession;
use hermes_core::wst::Wst;
use hermes_core::{FlowKey, WorkerBitmap};
use hermes_ebpf::kernel::{self, KernelDispatch};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Counters shared with callers for observability/tests.
#[derive(Debug, Default)]
pub struct LbStats {
    /// Connections accepted per worker, counted by the worker.
    pub accepted: Vec<AtomicU64>,
    /// Requests served (all workers).
    pub requests: AtomicU64,
    /// Connections the dispatch program placed through the bitmap. Counted
    /// by the program in its map; folded in here by `stats()` and `shutdown`.
    pub directed: AtomicU64,
    /// Connections left to the kernel's reuseport hash: by the program
    /// (folded in like `directed`), or all of them under
    /// [`Dispatch::HashOnly`].
    pub fallback: AtomicU64,
}

/// Who places a new connection on a worker's listener.
#[derive(Debug)]
pub enum Dispatch {
    /// The Algorithm 2 program at the group's reuseport hook, steered by
    /// the bitmap the schedulers store.
    Ebpf(KernelDispatch),
    /// `bpf(2)` was refused (the error says how): nothing is attached and
    /// the kernel's reuseport hash places every connection.
    HashOnly(std::io::Error),
}

impl Dispatch {
    /// Store group `group`'s bitmap where the program reads it; nothing to
    /// store under [`Dispatch::HashOnly`].
    pub fn publish(&self, group: usize, bitmap: WorkerBitmap) {
        if let Dispatch::Ebpf(kernel) = self {
            kernel.publish(group, bitmap);
        }
    }
}

impl std::fmt::Display for Dispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dispatch::Ebpf(_) => write!(f, "ebpf"),
            Dispatch::HashOnly(refusal) => write!(f, "hash-only ({refusal})"),
        }
    }
}

/// What every LB is, whatever its workers do: the bound address, the
/// shared stats, the dispatch mode, and the threads with what stops them.
pub(crate) struct Running {
    pub(crate) local_addr: SocketAddr,
    stats: Arc<LbStats>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) dispatch: Arc<Dispatch>,
    /// One table per group: a worker's scheduler sees its own group's.
    wsts: Vec<Arc<Wst>>,
    /// Workers sleep in `epoll_wait`: shutdown rings them out of it.
    wakers: Vec<Waker>,
    pub(crate) threads: Vec<JoinHandle<()>>,
}

impl Running {
    /// Bind one listener per worker on `addr` (one reuseport group; a port
    /// of 0 is chosen by the first and shared by the rest), each registered
    /// level-triggered under [`LISTEN_TOKEN`] in the epoll set its worker
    /// will wait on, and attach the dispatch program to the group. No
    /// thread runs yet. A count that does not split into ⌈workers/64⌉ equal
    /// groups of at most 64 ([`worker_groups`]) is `InvalidInput`, before
    /// anything is bound.
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> std::io::Result<(Vec<(Listener, Reactor)>, Running)> {
        let (groups, size) = worker_groups(workers)?;
        // Like `TcpListener::bind`: the first address that binds.
        let mut first = Err(std::io::ErrorKind::InvalidInput.into());
        for candidate in addr.to_socket_addrs()? {
            first = reactor::listen_reuseport(&candidate);
            if first.is_ok() {
                break;
            }
        }
        let first = first?;
        let local_addr = first.local_addr()?;
        let mut sockets = vec![first];
        for _ in 1..workers {
            sockets.push(reactor::listen_reuseport(&local_addr)?);
        }
        let fds: Vec<_> = sockets.iter().map(AsRawFd::as_raw_fd).collect();
        let dispatch = match KernelDispatch::attach(&fds) {
            Ok(kernel) => Dispatch::Ebpf(kernel),
            Err(e) if kernel::refused(&e) => Dispatch::HashOnly(e),
            // The host has `bpf(2)` and would not take the program, a map
            // or the attach: a bug here, not a mode to run in.
            Err(e) => return Err(e),
        };
        let stats = Arc::new(LbStats {
            accepted: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            ..LbStats::default()
        });
        let (mut members, mut wakers) = (Vec::new(), Vec::new());
        for (id, socket) in sockets.into_iter().enumerate() {
            let reactor = Reactor::new()?;
            reactor.register_read(socket.as_raw_fd(), LISTEN_TOKEN)?;
            wakers.push(reactor.waker());
            let listener = Listener {
                socket,
                local: local_addr,
                id,
                stats: Arc::clone(&stats),
                hash_only: matches!(dispatch, Dispatch::HashOnly(_)),
            };
            members.push((listener, reactor));
        }
        let running = Running {
            local_addr,
            stats,
            shutdown: Arc::new(AtomicBool::new(false)),
            dispatch: Arc::new(dispatch),
            wsts: (0..groups).map(|_| Arc::new(Wst::new(size))).collect(),
            wakers,
            threads: Vec::new(),
        };
        Ok((members, running))
    }

    /// Worker `id`'s handle on its group's WST, publishing its group's
    /// word of the dispatch.
    pub(crate) fn session(&self, id: usize) -> WorkerSession<impl Fn(WorkerBitmap) + Send + Sync> {
        let size = self.wsts[0].workers();
        let (group, local) = (id / size, id % size);
        let dispatch = Arc::clone(&self.dispatch);
        let target = move |bitmap: WorkerBitmap| dispatch.publish(group, bitmap);
        let wst = Arc::clone(&self.wsts[group]);
        WorkerSession::new(wst, local, SchedConfig::default(), Arc::new(target))
            .with_trace_lane(hermes_trace::grouped_lane(group, size, local))
    }

    /// The shared counters, with the program's two folded in.
    pub(crate) fn stats(&self) -> &Arc<LbStats> {
        if let Dispatch::Ebpf(kernel) = &*self.dispatch {
            let (directed, fallback) = kernel.counters();
            self.stats.directed.store(directed, Ordering::Relaxed);
            self.stats.fallback.store(fallback, Ordering::Relaxed);
        }
        &self.stats
    }

    /// Raise the flag, let every worker drain its listener and its
    /// connections, join them, fold the program's counters one last time.
    pub(crate) fn stop(&mut self) {
        self.signal();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.stats();
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
    /// Bind `addr` with one listener per worker, spawn `workers` worker
    /// threads serving `proxy`, each accepting from its own listener.
    /// Requires Linux (`SO_REUSEPORT` groups, epoll). A `workers` count the
    /// group rule refuses ([`worker_groups`]) is `InvalidInput`.
    pub fn start(addr: impl ToSocketAddrs, workers: usize, proxy: Proxy) -> std::io::Result<TcpLb> {
        let (members, mut running) = Running::bind(addr, workers)?;
        for (listener, reactor) in members {
            let session = running.session(listener.id);
            let proxy = proxy.for_worker(listener.id);
            let shutdown = Arc::clone(&running.shutdown);
            running.threads.push(std::thread::spawn(move || {
                worker_loop(listener, reactor, session, proxy, shutdown)
            }));
        }
        Ok(TcpLb(running))
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr
    }

    /// Shared counters.
    pub fn stats(&self) -> &Arc<LbStats> {
        self.0.stats()
    }

    /// Who places connections: the attached program, or the kernel's hash.
    pub fn dispatch(&self) -> &Dispatch {
        &self.0.dispatch
    }

    /// Stop accepting, drain workers, join threads.
    pub fn shutdown(mut self) {
        self.0.stop();
    }
}

/// How long a worker stays away from a listener whose `accept` ran out of
/// fds or memory. The listener is level-triggered, so waiting on it would
/// return at once and spin; a clocked pause lets closes land.
pub(crate) const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// What a failed `accept` means for the worker's listener. No errno ends
/// a worker's accepting: an LB that stops accepting is down for good.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum AcceptFailure {
    /// `EAGAIN`: the backlog is empty.
    Drained,
    /// `ECONNABORTED` (the client reset before it was accepted) or
    /// `EINTR`: that call produced nothing, the next one may.
    NextConn,
    /// `EMFILE`/`ENFILE`/`ENOBUFS`/`ENOMEM`, or anything unforeseen:
    /// retrying at once would fail the same way, so stay off the listener
    /// for [`ACCEPT_BACKOFF`].
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

/// One worker's member of the LB's reuseport group — the accept path of
/// both LBs in both dispatch modes.
pub(crate) struct Listener {
    pub(crate) socket: TcpListener,
    pub(crate) local: SocketAddr,
    /// The owning worker: the socket-array slot and the `accepted` index.
    pub(crate) id: usize,
    pub(crate) stats: Arc<LbStats>,
    /// No program counts placements: each accept is a hash placement.
    pub(crate) hash_only: bool,
}

impl Listener {
    /// Accept one queued connection and count it: the stream (nonblocking
    /// if asked, `TCP_NODELAY` inherited from the listener) and the flow
    /// hash its backend is admitted on.
    pub(crate) fn accept(&self, nonblocking: bool) -> Result<(TcpStream, u32), AcceptFailure> {
        let accepted = if nonblocking {
            reactor::accept_nonblocking(&self.socket)
        } else {
            self.socket.accept()
        };
        let (stream, peer) = accepted.map_err(|e| classify_accept_error(&e))?;
        self.stats.accepted[self.id].fetch_add(1, Ordering::Relaxed);
        if self.hash_only {
            self.stats.fallback.fetch_add(1, Ordering::Relaxed);
        }
        Ok((stream, flow_hash(&peer, &self.local)))
    }
}

/// A hash of the connection's 4-tuple, for backend admission. (Not the
/// hash the kernel dispatched on: that one is keyed by a boot-time secret.)
fn flow_hash(peer: &SocketAddr, local: &SocketAddr) -> u32 {
    let ip_bits = |a: &SocketAddr| match a.ip() {
        std::net::IpAddr::V4(v4) => u32::from(v4),
        std::net::IpAddr::V6(v6) => {
            let o = v6.octets();
            u32::from_be_bytes([o[12], o[13], o[14], o[15]])
        }
    };
    FlowKey::new(ip_bits(peer), peer.port(), ip_bits(local), local.port()).hash()
}

/// One worker: Fig. 9's loop over its own listener.
fn worker_loop<F: Fn(WorkerBitmap) + Send + Sync>(
    listener: Listener,
    mut reactor: Reactor,
    mut session: WorkerSession<F>,
    mut proxy: Proxy,
    shutdown: Arc<AtomicBool>,
) {
    let epoch = std::time::Instant::now();
    let now_ns = move || epoch.elapsed().as_nanos() as u64;
    let (stats, lane) = (Arc::clone(&listener.stats), session.trace_lane());
    let mut events = Vec::new();
    loop {
        session.loop_top(now_ns());
        // An idle worker blocks in the kernel on its own listener. Bounded
        // at 5 ms so the WST row stays fresh; a still-nonempty backlog, or
        // the shutdown ring (never drained here), ends the wait at once.
        let _ = reactor.wait(&mut events, 5);
        let accepted = listener.accept(false);
        session.events_fetched(usize::from(accepted.is_ok()));
        match accepted {
            Ok((stream, _hash)) => {
                session.conn_opened();
                // The connection's token is its listener's accept count.
                // Only this worker moves it, and it accepts nothing while it
                // serves, so the close reads the open's token again.
                let token = || stats.accepted[listener.id].load(Ordering::Relaxed);
                hermes_trace::trace_event!(
                    now_ns(),
                    hermes_trace::EventKind::ConnOpen,
                    lane,
                    token(),
                    0u64
                );
                let served = serve_connection(stream, &mut proxy, &stats);
                session.event_handled();
                session.conn_closed();
                hermes_trace::trace_event!(
                    now_ns(),
                    hermes_trace::EventKind::ConnClose,
                    lane,
                    token(),
                    served
                );
            }
            // Stop only once an accept has found the queue empty:
            // connections queued before the flag went up are still served.
            Err(AcceptFailure::Drained) if shutdown.load(Ordering::SeqCst) => return,
            Err(AcceptFailure::Drained | AcceptFailure::NextConn) => {}
            // Nothing else to do on this thread: sleep the back-off out.
            Err(AcceptFailure::BackOff) => std::thread::sleep(ACCEPT_BACKOFF),
        }
        session.schedule_and_sync(now_ns());
    }
}

/// Run-to-completion connection handling: keep-alive until EOF, error, or
/// idle timeout. Returns the number of requests answered.
fn serve_connection(mut stream: TcpStream, proxy: &mut Proxy, stats: &LbStats) -> u64 {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    // Hard per-connection deadline: a client trickling bytes just under
    // the read timeout must not pin this worker (slow-loris) or stall
    // shutdown joins indefinitely.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut served = 0;
    loop {
        if std::time::Instant::now() >= deadline {
            return served;
        }
        // Serve every complete request already buffered. Only *protocol*
        // errors (400: the byte stream is unparseable) close the
        // connection; routing misses (404) and upstream trouble (5xx) are
        // valid HTTP exchanges and keep-alive continues.
        while let Some((response, used)) = proxy.handle_bytes(&buf) {
            buf.drain(..used);
            let protocol_error = response.starts_with(b"HTTP/1.1 400");
            if stream.write_all(&response).is_err() {
                return served;
            }
            served += 1;
            stats.requests.fetch_add(1, Ordering::Relaxed);
            if protocol_error {
                return served;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return served, // client closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return served, // timeout or reset: drop the connection
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
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
    fn a_worker_count_the_group_rule_refuses_is_invalid_input() {
        let backend: SocketAddr = "127.0.0.1:9".parse().unwrap();
        for workers in [0, 65, 130, 4_097] {
            let errs = [
                TcpLb::start("127.0.0.1:0", workers, demo_proxy()).err(),
                crate::relay::RelayLb::start("127.0.0.1:0", workers, vec![backend]).err(),
            ];
            for err in errs {
                let err = err.expect("no LB of that size starts");
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidInput,
                    "{workers}: {err}"
                );
            }
        }
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
        // The first bitmap: the word is non-empty once a worker's scheduler
        // has stored (the kernel's hash alone has nothing to wait for).
        if let Dispatch::Ebpf(kernel) = lb.dispatch() {
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            loop {
                let word = kernel.bitmap(0);
                if !word.is_empty() {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "the program reads {word} after 2 s"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
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
    fn no_accept_errno_ends_a_workers_accepting() {
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
    fn requests_split_across_reads_are_served_in_order() {
        // A POST whose head terminator and body each straddle a read, and a
        // GET riding in the body's last segment: the buffer must keep what
        // one request left over for the next.
        let lb = TcpLb::start("127.0.0.1:0", 2, demo_proxy()).expect("bind");
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        for part in [
            &b"POST /api/up HTTP/1.1\r\ncontent-length: 10\r\n\r"[..],
            b"\nhello",
            b"worldGET /b HTTP/1.1\r\n\r\n",
        ] {
            s.write_all(part).unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        let bodies: Vec<&str> = out
            .split("HTTP/1.1 ")
            .skip(1)
            .map(|r| {
                assert!(r.starts_with("200 OK"), "{out}");
                r.rsplit("\r\n\r\n").next().unwrap()
            })
            .collect();
        assert_eq!(bodies.len(), 2, "{out}");
        assert!(bodies[0].starts_with("POST /api/up via api-"), "{out}");
        assert_eq!(bodies[1], "GET /b via web-0", "{out}");
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
