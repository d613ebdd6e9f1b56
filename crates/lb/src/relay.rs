//! The backend data plane over real sockets: a client↔backend byte relay.
//!
//! Where [`crate::server`] terminates HTTP and answers from in-process
//! upstreams, this module *forwards*: each accepted client connection is
//! admitted against the current [`hermes_backend::BackendTable`] version,
//! connected to the selected backend (walking the admitted table's
//! deterministic candidate order on connect failure), and then pumped.
//!
//! Each worker owns an epoll set ([`crate::reactor`]) and is the Fig. 9
//! loop with a real `epoll_wait` in it: its listener — the one the kernel
//! dispatches its connections to ([`crate::server`]) — registers
//! level-triggered and is accepted from in bursts, both relay legs
//! register edge-triggered, the backend leg is opened with a nonblocking
//! connect that completes as an event,
//! and the worker issues exactly the I/O the kernel reported possible — a
//! direction is read only while its source may be readable, flushed only
//! while it holds bytes. `epoll_wait` is the one call that blocks; an
//! idle *connection* is never touched at all.
//!
//! How a direction's bytes move is decided from the bytes themselves:
//! every direction starts on the copy path (one `read` + one `write`
//! through the worker's scratch buffer, the cheaper pair for small
//! messages), and one that proves to carry bulk — a read fills the
//! scratch buffer — moves to a pooled kernel pipe and from then on
//! travels socket→pipe→socket with splice(2), zero userspace copies. It
//! returns to the copy path only when the kernel refuses
//! (`EINVAL`/`ENOSYS`), and stays there when no pipe can be opened.
//!
//! The data plane requires Linux: elsewhere [`Reactor::new`] reports
//! `Unsupported` and so does [`RelayLb::start`].
//!
//! Consistency: a connection resolves its backend *once*, at admission,
//! against the table version current at accept time. Later churn (drain,
//! flap, scale) publishes new versions for *new* connections; established
//! relays keep their TCP peer until either side closes: the contract this
//! module's churn test and `hermes-backend`'s `tests/churn.rs` hold it to.
//!
//! Per-connection relay state handles the edges on either path alike:
//! half-close (EOF on one side propagates `shutdown(Write)` to the
//! other once buffered bytes drain), strict backpressure (a side is read
//! only when its forwarding buffer — userspace or pipe — is empty),
//! connect failure (retry the next candidate in the admitted table), and
//! a hard per-connection deadline.

use crate::reactor::{self, PipePair, Reactor, Splice, LISTEN_TOKEN, WAKE_TOKEN};
use crate::server::{
    AcceptFailure, Dispatch, LbStats, Listener, Running, ACCEPT_BACKOFF, ACCEPT_BURST,
};
use bytes::BytesMut;
use hermes_backend::{Admission, BackendId, BackendPool, TableCache};
use hermes_core::sdk::{SyncTarget, WorkerSession};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline for one backend connect attempt: long enough for
/// loopback/LAN, short enough that walking a few dead candidates stays
/// well under a second.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Hard ceiling on one relay's lifetime: a stuck peer must not pin worker
/// state forever (the relay analogue of the front end's slow-loris guard).
const RELAY_DEADLINE: Duration = Duration::from_secs(30);

/// Scratch buffer size for copy-path byte moves (shared per worker across
/// all of its relays). Also the size signal for the splice path: a read
/// that fills it marks its direction as bulk.
const SCRATCH_BYTES: usize = 16 * 1024;

/// Bytes requested per splice fill — the staging pipe's capacity, so one
/// move can stage a whole pipe's worth without a userspace round trip.
const SPLICE_WINDOW: usize = reactor::PIPE_CAPACITY;

/// Cap on buffer-fulls moved per direction per pump, so one hot relay
/// cannot starve its siblings on the same worker.
const MOVES_PER_PUMP: usize = 4;

/// Reactor idle wait: long enough that an idle worker is asleep in the
/// kernel virtually all the time, short enough that shutdown and the
/// deadline sweep stay responsive. Readiness wakeups arrive immediately
/// regardless.
const REACTOR_WAIT_MS: i32 = 25;

/// How often a reactor worker sweeps for expired deadlines. epoll never
/// fires for a silent peer, so expiry is clocked, not event-driven.
const SWEEP_INTERVAL: Duration = Duration::from_secs(1);

/// Pipes kept for reuse per worker (one per bulk direction); beyond this
/// they are closed instead, bounding idle fd consumption.
const PIPE_POOL_CAP: usize = 2 * ACCEPT_BURST;

/// Minimum spacing of a worker's thread-CPU-clock reads.
const CPU_SAMPLE_NS: u64 = 1_000_000;

/// Relay-specific counters (dispatch counters live in [`LbStats`]).
#[derive(Debug, Default)]
pub struct RelayStats {
    /// Relay connections fully torn down.
    pub relayed: AtomicU64,
    /// Bytes moved client → backend.
    pub bytes_up: AtomicU64,
    /// Bytes moved backend → client.
    pub bytes_down: AtomicU64,
    /// Connect attempts beyond the pinned candidate (failure → next).
    pub connect_retries: AtomicU64,
    /// Client connections dropped because no admitted candidate accepted.
    pub failed_connects: AtomicU64,
    /// Relay pump passes executed. Moves only when the kernel reports
    /// readiness — it stays flat across idle seconds, which the idle-CPU
    /// test asserts.
    pub pumps: AtomicU64,
    /// `read`/`write`/`splice` calls issued by pump passes: with `pumps`,
    /// what a wakeup costs as a count rather than a time.
    pub io_calls: AtomicU64,
    /// Of `io_calls`, those that returned `EAGAIN` — a read confirming
    /// its source is drained, or a write meeting a full destination.
    pub would_block: AtomicU64,
    /// Bytes moved kernel-to-kernel by the splice fast path.
    pub splice_bytes: AtomicU64,
    /// Relay directions demoted from splice to the copy path, or kept on
    /// it because no pipe could be opened.
    pub splice_fallbacks: AtomicU64,
    /// Relays whose backend id had no `per_backend` slot (late table
    /// versions can reference backends added after startup sizing).
    pub unindexed_backends: AtomicU64,
    /// Thread CPU nanoseconds burned by relay workers, read from
    /// `CLOCK_THREAD_CPUTIME_ID` at most once per millisecond of a
    /// worker's loop and once more when it exits. Dividing bytes relayed
    /// by this yields bytes-per-CPU-second — the metric where the splice
    /// path's skipped userspace copies show up even on links (loopback)
    /// whose wall throughput is memcpy-bound at the endpoints.
    pub cpu_ns: AtomicU64,
    /// Passes of the workers' Fig. 9 loop — each one `loop_top`, one
    /// `events_fetched`, one scheduler pass and one bitmap sync — as the
    /// worker sessions count them, folded in when a worker's loop ends.
    pub loop_passes: AtomicU64,
    /// Relay connections established per backend (sized at startup).
    pub per_backend: Vec<AtomicU64>,
}

impl RelayStats {
    /// Count an established relay against its backend, clamping against
    /// table versions that grew past the startup-sized vector: a late
    /// backend id lands in `unindexed_backends` instead of panicking.
    fn note_backend(&self, b: BackendId) {
        match self.per_backend.get(b) {
            Some(slot) => {
                slot.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                self.unindexed_backends.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Count a connect attempt beyond the pinned candidate.
    fn note_retry(&self) {
        self.connect_retries.fetch_add(1, Ordering::Relaxed);
        hermes_trace::trace_count!(hermes_trace::CounterId::BackendRetries);
    }
}

/// A running TCP relay LB.
pub struct RelayLb {
    running: Running,
    relay_stats: Arc<RelayStats>,
    pool: Arc<BackendPool>,
}

impl RelayLb {
    /// Bind `addr`, spawn `workers` relay workers over `backends`, and
    /// start accepting. The pool starts with every backend `Healthy`;
    /// drive churn through [`RelayLb::pool`].
    ///
    /// Every worker's listener and epoll set are opened before any thread
    /// is spawned: a host that cannot provide them (no Linux, fd
    /// exhaustion) fails the start with that error.
    pub fn start(
        addr: impl ToSocketAddrs,
        workers: usize,
        backends: Vec<SocketAddr>,
    ) -> std::io::Result<RelayLb> {
        assert!(!backends.is_empty(), "relay needs at least one backend");
        let (members, mut running) = Running::bind(addr, workers)?;
        let relay_stats = Arc::new(RelayStats {
            per_backend: (0..backends.len()).map(|_| AtomicU64::new(0)).collect(),
            ..RelayStats::default()
        });
        let pool = Arc::new(BackendPool::new(backends.len()));
        let backends = Arc::new(backends);
        for (listener, reactor) in members {
            let session = running.session(listener.id);
            let relay_stats = Arc::clone(&relay_stats);
            let shutdown = Arc::clone(&running.shutdown);
            let pool = Arc::clone(&pool);
            let backends = Arc::clone(&backends);
            running.threads.push(std::thread::spawn(move || {
                ReactorWorker::new(listener, reactor, session, pool, backends, relay_stats)
                    .run(&shutdown)
            }));
        }
        Ok(RelayLb {
            running,
            relay_stats,
            pool,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.running.local_addr
    }

    /// Dispatch counters (accepts, directed/fallback).
    pub fn stats(&self) -> &Arc<LbStats> {
        self.running.stats()
    }

    /// Who places connections: the attached program, or the kernel's hash.
    pub fn dispatch(&self) -> &Dispatch {
        &self.running.dispatch
    }

    /// Relay counters (bytes, retries, per-backend spread).
    pub fn relay_stats(&self) -> &Arc<RelayStats> {
        &self.relay_stats
    }

    /// The versioned backend pool: drive health transitions (drain, down,
    /// recover) here; each publishes a new frozen table for new admissions.
    pub fn pool(&self) -> &Arc<BackendPool> {
        &self.pool
    }

    /// Stop accepting, drain relays, join threads.
    pub fn shutdown(mut self) {
        self.running.stop();
    }
}

/// Folds the owning worker thread's CPU time into [`RelayStats::cpu_ns`].
/// `CLOCK_THREAD_CPUTIME_ID` is a real syscall (the wall clocks are
/// vDSO reads), so a busy loop reads it once per [`CPU_SAMPLE_NS`] rather
/// than once per pass; the drop at loop exit folds in the remainder.
struct CpuMeter {
    rstats: Arc<RelayStats>,
    last_cpu: u64,
    /// Loop-clock time from which the next read is due.
    due_ns: u64,
}

impl CpuMeter {
    fn new(rstats: Arc<RelayStats>) -> CpuMeter {
        CpuMeter {
            rstats,
            last_cpu: reactor::thread_cpu_ns(),
            due_ns: 0,
        }
    }

    /// Call once per loop pass with the loop's own clock.
    fn tick(&mut self, now_ns: u64) {
        if now_ns >= self.due_ns {
            self.due_ns = now_ns + CPU_SAMPLE_NS;
            self.sample();
        }
    }

    fn sample(&mut self) {
        let cpu = reactor::thread_cpu_ns();
        self.rstats
            .cpu_ns
            .fetch_add(cpu.saturating_sub(self.last_cpu), Ordering::Relaxed);
        self.last_cpu = cpu;
    }
}

impl Drop for CpuMeter {
    fn drop(&mut self) {
        self.sample();
    }
}

/// Outcome of one pump pass over a relay.
enum Pump {
    /// Still alive.
    Progress {
        /// Bytes delivered this pass; `0` means both sides would block.
        moved: u64,
        /// The pass stopped at the fairness cap with work left: under
        /// edge-triggered epoll no new event will announce it, so the
        /// worker must re-pump without waiting.
        more: bool,
    },
    /// Both directions saw EOF and every buffered byte was delivered.
    Done,
    /// A socket error (reset, deadline): tear down.
    Dead,
}

/// One relay direction's in-flight byte store.
enum DirBuf {
    /// Userspace staging through the worker's shared scratch buffer.
    Copy(BytesMut),
    /// Kernel staging: bytes move socket→pipe→socket via splice(2) and
    /// never surface in userspace. `buffered` tracks pipe occupancy.
    Splice {
        /// The pooled pipe pair staging this direction.
        pipe: PipePair,
        /// Bytes currently sitting in the pipe.
        buffered: usize,
    },
}

/// Accounting for one direction's pump pass.
#[derive(Default)]
struct DirPass {
    /// Bytes delivered to the destination socket.
    moved: u64,
    /// Bytes of `moved` that travelled the zero-copy splice path.
    spliced: u64,
    /// `read`/`write`/`splice` calls issued.
    io_calls: u64,
    /// Of `io_calls`, those that returned `EAGAIN`.
    would_block: u64,
    /// Stopped at the fairness cap, not on would-block (see [`Pump`]).
    more: bool,
    /// Splice fallbacks: the kernel refused and the direction was
    /// demoted, or no pipe could be opened to promote it.
    fallbacks: u64,
}

/// How a flush of a direction's store ended.
enum Flushed {
    /// Every staged byte reached the destination.
    Drained,
    /// The destination's send buffer is full (`EAGAIN`).
    Blocked,
    /// The kernel refused the splice (`EINVAL`/`ENOSYS`): demote.
    Unsupported,
}

impl DirBuf {
    /// No byte is waiting to be delivered.
    fn is_drained(&self) -> bool {
        match self {
            DirBuf::Copy(buf) => buf.is_empty(),
            DirBuf::Splice { buffered, .. } => *buffered == 0,
        }
    }

    /// Deliver what is staged to `dst`, until drained or `EAGAIN`.
    fn flush(&mut self, dst: &mut TcpStream, pass: &mut DirPass) -> std::io::Result<Flushed> {
        match self {
            DirBuf::Copy(buf) => {
                while !buf.is_empty() {
                    pass.io_calls += 1;
                    match dst.write(&buf[..]) {
                        Ok(0) => return Err(ErrorKind::WriteZero.into()),
                        Ok(n) => {
                            pass.moved += n as u64;
                            if n == buf.len() {
                                buf.clear(); // keeps the allocation for the next fill
                            } else {
                                let _ = buf.split_to(n);
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            pass.would_block += 1;
                            return Ok(Flushed::Blocked);
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
            }
            DirBuf::Splice { pipe, buffered } => {
                while *buffered > 0 {
                    pass.io_calls += 1;
                    match reactor::splice_from_pipe(pipe, dst.as_raw_fd(), *buffered)? {
                        Splice::Moved(n) => {
                            *buffered -= n.min(*buffered);
                            pass.moved += n as u64;
                            pass.spliced += n as u64;
                        }
                        // A zero-length pipe read with buffered > 0 cannot
                        // happen; fold it into would-block rather than
                        // trust it.
                        Splice::WouldBlock | Splice::Eof => {
                            pass.would_block += 1;
                            return Ok(Flushed::Blocked);
                        }
                        Splice::Unsupported => return Ok(Flushed::Unsupported),
                    }
                }
            }
        }
        Ok(Flushed::Drained)
    }

    /// Stage one buffer-full from `src` into the (drained) store: one
    /// `read` through `scratch`, or one splice into the pipe.
    fn fill(
        &mut self,
        src: &mut TcpStream,
        scratch: &mut [u8],
        pass: &mut DirPass,
    ) -> std::io::Result<Splice> {
        let got = match self {
            DirBuf::Copy(buf) => loop {
                pass.io_calls += 1;
                match src.read(scratch) {
                    Ok(0) => break Splice::Eof,
                    Ok(n) => {
                        buf.extend_from_slice(&scratch[..n]);
                        break Splice::Moved(n);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break Splice::WouldBlock,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            },
            DirBuf::Splice { pipe, buffered } => {
                pass.io_calls += 1;
                let got = reactor::splice_to_pipe(src.as_raw_fd(), pipe, SPLICE_WINDOW)?;
                if let Splice::Moved(n) = got {
                    *buffered += n;
                }
                got
            }
        };
        if matches!(got, Splice::WouldBlock) {
            pass.would_block += 1;
        }
        Ok(got)
    }

    /// Demote to the copy path, recovering any bytes already staged in
    /// the pipe — they must still reach the peer in order; dropping them
    /// would corrupt the stream.
    fn demote(&mut self, scratch: &mut [u8]) -> std::io::Result<()> {
        if let DirBuf::Splice { pipe, buffered } = self {
            let mut buf = BytesMut::with_capacity(SCRATCH_BYTES);
            while *buffered > 0 {
                let n = pipe.drain_into(scratch)?;
                if n == 0 {
                    break;
                }
                buf.extend_from_slice(&scratch[..n]);
                *buffered -= n.min(*buffered);
            }
            *self = DirBuf::Copy(buf);
        }
        Ok(())
    }

    /// Hand the pipe back for reuse. Only a fully drained pipe may be
    /// recycled — stranded bytes would corrupt the next connection — and
    /// the pool is capped to bound idle fds.
    fn reclaim(self, pipes: &mut Vec<PipePair>) {
        if let DirBuf::Splice { pipe, buffered: 0 } = self {
            if pipes.len() < PIPE_POOL_CAP {
                pipes.push(pipe);
            }
        }
    }
}

/// Where a direction stands on moving to the splice path. The choice is
/// made from the traffic itself: 64 B messages cost less through one
/// `read` + `write` than through two splices, and a connection that
/// never sends more never touches a pipe; bulk pays the copy path for
/// its first scratch-full only.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Promote {
    /// No longer a candidate: the direction already moved, or the kernel
    /// or the fd table refused.
    Off,
    /// Copying, and watching for a `read` that fills the scratch buffer.
    Watching,
    /// Such a read happened: move as soon as the staged bytes are flushed.
    Due,
}

/// One relay direction: its byte store, and what is known about the two
/// sockets it joins — which is what decides the I/O a pump issues.
struct Direction {
    store: DirBuf,
    /// The source may hold bytes (or an EOF) to read. Set when the relay
    /// is registered and by every `readable|closed` event on the source
    /// leg; cleared only by a read that really returned `EAGAIN`, or by
    /// EOF. A short read proves nothing (the next segment may have
    /// landed meanwhile), and the `EAGAIN` is also what re-arms the
    /// edge-triggered registration — so a pass reads on until it gets one.
    src_ready: bool,
    /// The source reached end-of-stream.
    src_eof: bool,
    /// The half-close was passed on to the destination (or the relay
    /// ended first, which closes it).
    dst_shut: bool,
    promote: Promote,
}

impl Direction {
    fn new() -> Direction {
        Direction {
            // Unallocated until the first read, sized by what arrives.
            store: DirBuf::Copy(BytesMut::new()),
            src_ready: true,
            src_eof: false,
            dst_shut: false,
            promote: Promote::Watching,
        }
    }

    /// Pump `src` → `dst`, issuing only I/O that can succeed: nothing at
    /// all unless the source may be readable or bytes are staged; then
    /// flush what is staged, and read more only once the store is empty
    /// (strict backpressure — the store's size is the bound), up to
    /// [`MOVES_PER_PUMP`] buffer-fulls. Moves to the splice path, within
    /// the pass, once a scratch-filling read has been flushed; a kernel
    /// splice refusal demotes back (recovering pipe bytes) and the pass
    /// carries on. Propagates half-close once `src`'s EOF is flushed —
    /// unless `peer_done` says the opposite direction has finished too:
    /// the relay is over and dropping both sockets closes them.
    fn pump(
        &mut self,
        src: &mut TcpStream,
        dst: &mut TcpStream,
        scratch: &mut [u8],
        pipes: &mut Vec<PipePair>,
        peer_done: bool,
    ) -> std::io::Result<DirPass> {
        let mut pass = DirPass::default();
        if !self.src_ready && self.store.is_drained() {
            return Ok(pass);
        }
        let mut fills = MOVES_PER_PUMP;
        loop {
            match self.store.flush(dst, &mut pass)? {
                Flushed::Drained => {}
                Flushed::Blocked => break,
                Flushed::Unsupported => {
                    self.demote(scratch, &mut pass)?;
                    continue;
                }
            }
            if self.promote == Promote::Due {
                self.promote = Promote::Off;
                match pipes.pop().map(Ok).unwrap_or_else(PipePair::new) {
                    Ok(pipe) => self.store = DirBuf::Splice { pipe, buffered: 0 },
                    // fd exhaustion: this direction stays on the copy path.
                    Err(_) => pass.fallbacks += 1,
                }
            }
            if !self.src_ready {
                break;
            }
            if fills == 0 {
                pass.more = true;
                break;
            }
            fills -= 1;
            match self.store.fill(src, scratch, &mut pass)? {
                Splice::Moved(n) => {
                    if n == scratch.len() && self.promote == Promote::Watching {
                        self.promote = Promote::Due;
                    }
                }
                Splice::WouldBlock => self.src_ready = false,
                Splice::Eof => {
                    self.src_eof = true;
                    self.src_ready = false;
                }
                Splice::Unsupported => self.demote(scratch, &mut pass)?,
            }
        }
        if self.done() && !self.dst_shut {
            // Half-close: the reader saw EOF and everything it buffered
            // has been delivered — tell the other side no more bytes are
            // coming, while its responses keep flowing the opposite way.
            if !peer_done {
                let _ = dst.shutdown(Shutdown::Write);
            }
            self.dst_shut = true;
        }
        Ok(pass)
    }

    /// The source ended and everything it sent has been delivered.
    fn done(&self) -> bool {
        self.src_eof && self.store.is_drained()
    }

    /// The kernel refused to splice: continue on the copy path for good.
    fn demote(&mut self, scratch: &mut [u8], pass: &mut DirPass) -> std::io::Result<()> {
        self.promote = Promote::Off;
        pass.fallbacks += 1;
        self.store.demote(scratch)
    }
}

/// One established relay: client socket, backend socket, and the two
/// directions between them.
struct RelayConn {
    client: TcpStream,
    backend: TcpStream,
    backend_id: BackendId,
    /// Table version this connection was admitted under (observability:
    /// proves which snapshot the routing decision came from).
    admitted_version: u64,
    /// Client → backend.
    up: Direction,
    /// Backend → client.
    down: Direction,
    bytes_up: u64,
    bytes_down: u64,
    deadline: Instant,
}

impl RelayConn {
    fn new(client: TcpStream, backend: TcpStream, backend_id: BackendId, version: u64) -> Self {
        Self {
            client,
            backend,
            backend_id,
            admitted_version: version,
            up: Direction::new(),
            down: Direction::new(),
            bytes_up: 0,
            bytes_down: 0,
            deadline: Instant::now() + RELAY_DEADLINE,
        }
    }

    /// The kernel reported `readable|closed` on a leg (0 = client,
    /// 1 = backend): the direction it feeds has something to read.
    fn source_ready(&mut self, leg: u64) {
        let dir = if leg == 0 {
            &mut self.up
        } else {
            &mut self.down
        };
        dir.src_ready = !dir.src_eof;
    }

    /// Move bytes in both directions until the sockets would block (or
    /// the per-pump cap). Returns the relay's life status. `now` is the
    /// caller's clock for the deadline check (one read serves a pass).
    fn pump(
        &mut self,
        now: Instant,
        scratch: &mut [u8],
        pipes: &mut Vec<PipePair>,
        rstats: &RelayStats,
    ) -> Pump {
        if now >= self.deadline {
            return Pump::Dead;
        }
        rstats.pumps.fetch_add(1, Ordering::Relaxed);
        let (client, backend) = (&mut self.client, &mut self.backend);
        let up = self
            .up
            .pump(client, backend, scratch, pipes, self.down.done());
        let down = self
            .down
            .pump(backend, client, scratch, pipes, self.up.done());
        let (Ok(u), Ok(d)) = (up, down) else {
            return Pump::Dead;
        };
        self.bytes_up += u.moved;
        self.bytes_down += d.moved;
        let io_calls = u.io_calls + d.io_calls;
        if io_calls > 0 {
            rstats.io_calls.fetch_add(io_calls, Ordering::Relaxed);
        }
        let would_block = u.would_block + d.would_block;
        if would_block > 0 {
            rstats.would_block.fetch_add(would_block, Ordering::Relaxed);
        }
        let spliced = u.spliced + d.spliced;
        if spliced > 0 {
            rstats.splice_bytes.fetch_add(spliced, Ordering::Relaxed);
            hermes_trace::trace_count!(hermes_trace::CounterId::SpliceBytes, spliced);
        }
        let fallbacks = u.fallbacks + d.fallbacks;
        if fallbacks > 0 {
            rstats
                .splice_fallbacks
                .fetch_add(fallbacks, Ordering::Relaxed);
            hermes_trace::trace_count!(hermes_trace::CounterId::SpliceFallbacks, fallbacks);
        }
        if self.up.done() && self.down.done() {
            Pump::Done
        } else {
            Pump::Progress {
                moved: u.moved + d.moved,
                more: u.more || d.more,
            }
        }
    }
}

/// A reactor slot's tenant.
enum Slot {
    /// The backend connect is in flight. Only the backend leg is
    /// registered; the client's bytes wait in its socket buffer.
    Connecting(Connecting),
    /// Both legs registered, bytes moving.
    Relay(RelayConn),
}

/// A client admitted against a table version whose backend leg is still
/// connecting — the state that lets a slow backend delay only its own
/// client instead of the worker.
struct Connecting {
    client: TcpStream,
    /// The socket of attempt `attempt`, registered under the slot's
    /// backend token (the registration carries over to the relay).
    backend: TcpStream,
    backend_id: BackendId,
    /// The pin: later attempts walk `adm.candidate(n)` within it.
    adm: Admission,
    attempt: usize,
    /// When this attempt is given up and the next candidate tried.
    deadline: Instant,
    /// A writable event arrived: connected, unless `closed` says to ask.
    resolved: bool,
    /// A closed event arrived: `SO_ERROR` holds the verdict.
    closed: bool,
}

/// The relay worker: the Fig. 9 loop shape where "wait for
/// events" is a real `epoll_wait` — readiness edges, connect completions
/// and its listener's backlog are the only things that move it, and
/// it is the only call that blocks. Idle connections cost nothing; an
/// idle worker sleeps in the kernel.
struct ReactorWorker<T: SyncTarget> {
    /// The listener the kernel places this worker's connections on,
    /// registered level-triggered under [`LISTEN_TOKEN`].
    listener: Listener,
    reactor: Reactor,
    session: WorkerSession<T>,
    pool: Arc<BackendPool>,
    backends: Arc<Vec<SocketAddr>>,
    rstats: Arc<RelayStats>,
    epoch: Instant,
    cache: TableCache,
    /// Slot-addressed connection table: fd tokens are `slot*2` (client
    /// leg) and `slot*2 + 1` (backend leg), so a readiness event maps
    /// straight back to its tenant. Freed slots are reused; events are
    /// decoded before a pass admits or tears down anything, so one never
    /// reaches a later tenant.
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    /// Occupied slots (connecting or relaying).
    live: usize,
    /// Slots in [`Slot::Connecting`]; `connect_deadlines` is only
    /// meaningful while this is non-zero.
    connecting: usize,
    /// `(deadline, slot)` per connect attempt, oldest first (every
    /// attempt gets the same [`CONNECT_TIMEOUT`], so start order is
    /// deadline order). An entry whose attempt already resolved is stale
    /// and skipped when it surfaces.
    connect_deadlines: VecDeque<(Instant, usize)>,
    pipes: Vec<PipePair>,
    scratch: Vec<u8>,
    events: Vec<reactor::Event>,
    /// Slots that stopped at the fairness cap: under edge-triggered epoll
    /// their remaining work will never re-announce itself, so they carry
    /// over to the next pass (which polls instead of blocking).
    ready: Vec<usize>,
    /// Slots owed service this pass.
    due: Vec<usize>,
    /// Connections accepted this pass (stream and flow hash), not yet
    /// admitted.
    inbox: Vec<(TcpStream, u32)>,
    /// The clock as read when this pass's wait returned: what every
    /// deadline in the pass is compared against.
    now: Instant,
    /// `accept` ran out of fds or memory: the listener's registration is
    /// disarmed until this instant. A worker with live relays cannot
    /// sleep the back-off out, and the level-triggered listener would end
    /// every wait at once.
    accept_resume: Option<Instant>,
    last_sweep: Instant,
}

impl<T: SyncTarget> ReactorWorker<T> {
    fn new(
        listener: Listener,
        reactor: Reactor,
        session: WorkerSession<T>,
        pool: Arc<BackendPool>,
        backends: Arc<Vec<SocketAddr>>,
        rstats: Arc<RelayStats>,
    ) -> Self {
        ReactorWorker {
            listener,
            reactor,
            session,
            pool,
            backends,
            rstats,
            epoch: Instant::now(),
            cache: TableCache::new(),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            connecting: 0,
            connect_deadlines: VecDeque::new(),
            pipes: Vec::new(),
            scratch: vec![0u8; SCRATCH_BYTES],
            events: Vec::new(),
            ready: Vec::new(),
            due: Vec::new(),
            inbox: Vec::with_capacity(ACCEPT_BURST),
            now: Instant::now(),
            accept_resume: None,
            last_sweep: Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lane(&self) -> u32 {
        self.listener.id as u32
    }

    /// Loop until `shutdown` is set and the listener and every relay
    /// drained.
    fn run(&mut self, shutdown: &AtomicBool) {
        let mut cpu = CpuMeter::new(Arc::clone(&self.rstats));
        let mut now_ns = self.now_ns();
        let passes = self.session.sched_calls();
        loop {
            self.session.loop_top(now_ns);
            cpu.tick(now_ns);
            let accepted = self.fetch();
            self.handle(accepted);
            self.sweep();
            // The end of this pass is the top of the next: one clock
            // read stamps both the schedule and the loop entry.
            now_ns = self.now_ns();
            let decision = self.session.schedule_only(now_ns);
            self.session.sync_only(decision.bitmap);
            if shutdown.load(Ordering::SeqCst) && self.live == 0 {
                // Leave only once a look at the listener finds nothing
                // queued: connections the kernel placed here before the
                // flag went up go to the next pass, not to a reset.
                self.accept_burst();
                if self.inbox.is_empty() {
                    break;
                }
            }
        }
        let passes = self.session.sched_calls() - passes;
        self.rstats.loop_passes.fetch_add(passes, Ordering::Relaxed);
    }

    /// Fig. 9 lines 13–14: wait for events, then publish how many this
    /// pass owes — accepted connections plus slots due service — so the WST
    /// shows a busy worker as busy. Returns the connections to admit.
    fn fetch(&mut self) -> usize {
        let timeout = if self.ready.is_empty() && self.inbox.is_empty() {
            self.idle_timeout_ms()
        } else {
            0
        };
        let fetched = self.reactor.wait(&mut self.events, timeout).unwrap_or(0);
        self.now = Instant::now();
        if fetched > 0 {
            hermes_trace::trace_count!(hermes_trace::CounterId::ReactorWakeups);
        }

        // Readiness → owed service: note what each event says is now
        // possible, and mark its slot due.
        self.due.clear();
        let mut queued = false;
        for e in &self.events {
            match e.token {
                // Rung at shutdown only: `run` reads the flag.
                WAKE_TOKEN => self.reactor.drain_wake(),
                LISTEN_TOKEN => queued = true,
                _ => {}
            }
            let slot = (e.token / 2) as usize;
            match self.slots.get_mut(slot).and_then(|s| s.as_mut()) {
                Some(Slot::Relay(conn)) => {
                    if e.readable || e.closed {
                        conn.source_ready(e.token & 1);
                    }
                }
                Some(Slot::Connecting(c)) => {
                    c.resolved |= e.writable;
                    c.closed |= e.closed;
                }
                // The two tokens above, or a stale event for a torn-down slot.
                None => continue,
            }
            self.due.push(slot);
        }
        // Connect attempts past their deadline are due a retry.
        while let Some(&(deadline, slot)) = self.connect_deadlines.front() {
            if deadline > self.now {
                break;
            }
            self.connect_deadlines.pop_front();
            if matches!(&self.slots[slot], Some(Slot::Connecting(c)) if c.deadline <= self.now) {
                self.due.push(slot);
            }
        }
        // Merge the carried-over fairness-cap list, deduplicated — a
        // relay whose both legs fired is still serviced once.
        self.due.append(&mut self.ready);
        self.due.sort_unstable();
        self.due.dedup();

        if self.accept_resume.is_some_and(|resume| resume <= self.now) {
            // Level-triggered: a backlog that built up meanwhile is
            // reported by the next wait.
            self.accept_resume = None;
            let _ = self.arm_listener(true);
        }
        if queued {
            self.accept_burst();
        }
        let accepted = self.inbox.len();
        self.session.events_fetched(accepted + self.due.len());
        accepted
    }

    fn arm_listener(&self, armed: bool) -> std::io::Result<()> {
        let fd = self.listener.socket.as_raw_fd();
        self.reactor.arm_read(fd, LISTEN_TOKEN, armed)
    }

    /// Accept what the kernel queued on this worker's listener into the
    /// inbox, up to one burst: the level-triggered registration announces
    /// what a capped burst leaves behind.
    fn accept_burst(&mut self) {
        let queued = self.inbox.len();
        while self.accept_resume.is_none() && self.inbox.len() < ACCEPT_BURST {
            match self.listener.accept(true) {
                Ok(conn) => self.inbox.push(conn),
                Err(AcceptFailure::NextConn) => {}
                Err(AcceptFailure::Drained) => break,
                Err(AcceptFailure::BackOff) => {
                    self.accept_resume = Some(self.now + ACCEPT_BACKOFF);
                    let _ = self.arm_listener(false);
                }
            }
        }
        let burst = self.inbox.len() - queued;
        if burst > 0 {
            hermes_trace::trace_event!(
                self.now_ns(),
                hermes_trace::EventKind::AcceptBurst,
                self.lane(),
                burst,
                self.listener.stats.accepted[self.listener.id].load(Ordering::Relaxed)
            );
            hermes_trace::trace_count!(hermes_trace::CounterId::AcceptBursts);
            hermes_trace::trace_count!(hermes_trace::CounterId::AcceptedConns, burst);
        }
    }

    /// How long an idle wait may last: the regular idle wait, cut short
    /// to the nearest connect deadline or the end of an accept back-off.
    fn idle_timeout_ms(&self) -> i32 {
        let connect = self
            .connect_deadlines
            .front()
            .map(|&(deadline, _)| deadline);
        match connect.into_iter().chain(self.accept_resume).min() {
            // Rounded up, so the deadline has passed on wakeup.
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                (left.as_millis() as i32 + 1).min(REACTOR_WAIT_MS)
            }
            None => REACTOR_WAIT_MS,
        }
    }

    /// Fig. 9 lines 15–19: handle what [`fetch`](Self::fetch) reported,
    /// one `event_handled` per connection admitted and per slot serviced.
    fn handle(&mut self, accepted: usize) {
        let mut inbox = std::mem::take(&mut self.inbox);
        for conn in inbox.drain(..accepted) {
            self.admit(conn);
            self.session.event_handled();
        }
        self.inbox = inbox;
        let mut moved = 0u64;
        for i in 0..self.due.len() {
            moved += self.service(self.due[i]);
            self.session.event_handled();
        }
        if !self.events.is_empty() {
            hermes_trace::trace_event!(
                self.now_ns(),
                hermes_trace::EventKind::RelayWakeup,
                self.lane(),
                self.events.len(),
                self.due.len()
            );
        }
        if moved > 0 || accepted > 0 {
            hermes_trace::trace_count!(hermes_trace::CounterId::RelayBursts);
            hermes_trace::trace_count!(hermes_trace::CounterId::RelayBytes, moved);
        }
    }

    /// Admit a freshly accepted client against the current table
    /// version (pinning it) and start connecting to its backend.
    fn admit(&mut self, (client, hash): (TcpStream, u32)) {
        let table = self.pool.cached(&mut self.cache);
        let Some(adm) = table.admit(hash) else {
            // Nothing admits new connections right now.
            self.rstats.failed_connects.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.live += 1;
        self.connect(slot, client, adm, 0);
    }

    /// Start connecting `client`'s backend leg at candidate `attempt` of
    /// its admission, walking on past candidates that fail on the spot;
    /// with none left the client is dropped and the slot freed.
    fn connect(&mut self, slot: usize, client: TcpStream, adm: Admission, mut attempt: usize) {
        while let Some(backend_id) = adm.candidate(attempt) {
            if attempt > 0 {
                self.rstats.note_retry();
            }
            // A candidate beyond the startup address list (a late table
            // version referencing backends this process never learned
            // addresses for) is skipped like a failed connect.
            let started = self
                .backends
                .get(backend_id)
                .and_then(|addr| reactor::connect_nonblocking(addr).ok())
                .filter(|b| {
                    self.reactor
                        .register(b.as_raw_fd(), slot as u64 * 2 + 1)
                        .is_ok()
                });
            if let Some(backend) = started {
                let deadline = self.now + CONNECT_TIMEOUT;
                self.connecting += 1;
                self.connect_deadlines.push_back((deadline, slot));
                self.slots[slot] = Some(Slot::Connecting(Connecting {
                    client,
                    backend,
                    backend_id,
                    adm,
                    attempt,
                    deadline,
                    resolved: false,
                    closed: false,
                }));
                return;
            }
            attempt += 1;
        }
        self.rstats.failed_connects.fetch_add(1, Ordering::Relaxed);
        self.release(slot);
    }

    /// Settle a connecting slot that is due: on success register the
    /// client leg and turn the slot into a relay (`true`); on failure or
    /// deadline move on to the next candidate; otherwise leave it be.
    fn finish_connect(&mut self, slot: usize) -> bool {
        let Some(Slot::Connecting(c)) = self.slots[slot].take() else {
            return false;
        };
        let connected = if c.closed {
            matches!(c.backend.take_error(), Ok(None))
        } else if c.resolved {
            true // writable and not closed *is* the success verdict
        } else if self.now < c.deadline {
            self.slots[slot] = Some(Slot::Connecting(c));
            return false;
        } else {
            false
        };
        self.connecting -= 1;
        if self.connecting == 0 {
            self.connect_deadlines.clear();
        }
        if !connected {
            // Dropping the abandoned socket closes it, which also takes
            // it out of the epoll set.
            self.connect(slot, c.client, c.adm, c.attempt + 1);
            return false;
        }
        if self
            .reactor
            .register(c.client.as_raw_fd(), slot as u64 * 2)
            .is_err()
        {
            self.rstats.failed_connects.fetch_add(1, Ordering::Relaxed);
            self.release(slot);
            return false;
        }
        let _ = c.backend.set_nodelay(true);
        self.rstats.note_backend(c.backend_id);
        self.session.conn_opened();
        hermes_trace::trace_event!(
            self.now_ns(),
            hermes_trace::EventKind::ConnOpen,
            self.lane(),
            c.backend_id,
            c.adm.version()
        );
        self.slots[slot] = Some(Slot::Relay(RelayConn::new(
            c.client,
            c.backend,
            c.backend_id,
            c.adm.version(),
        )));
        true
    }

    /// Service one due slot: settle its connect if it is still
    /// connecting, then pump. A relay is pumped the moment it is
    /// established — `EPOLL_CTL_ADD` does report readiness that predates
    /// it, but only at the next wait, and the client's first bytes are
    /// usually already there. Returns the bytes moved.
    fn service(&mut self, slot: usize) -> u64 {
        if matches!(self.slots[slot], Some(Slot::Connecting(_))) && !self.finish_connect(slot) {
            return 0;
        }
        let Some(Slot::Relay(conn)) = self.slots[slot].as_mut() else {
            return 0;
        };
        match conn.pump(self.now, &mut self.scratch, &mut self.pipes, &self.rstats) {
            Pump::Progress { moved, more } => {
                if more {
                    self.ready.push(slot);
                }
                moved
            }
            Pump::Done | Pump::Dead => {
                self.finish_relay(slot);
                0
            }
        }
    }

    /// Tear down the relay in `slot` and free the slot: fold its byte
    /// counts into the shared stats, notify the session/trace, and
    /// recycle drained pipes. Dropping the sockets closes both legs,
    /// which also takes them out of the epoll set.
    fn finish_relay(&mut self, slot: usize) {
        if let Some(Slot::Relay(conn)) = self.slots[slot].take() {
            self.rstats.relayed.fetch_add(1, Ordering::Relaxed);
            self.rstats
                .bytes_up
                .fetch_add(conn.bytes_up, Ordering::Relaxed);
            self.rstats
                .bytes_down
                .fetch_add(conn.bytes_down, Ordering::Relaxed);
            self.session.conn_closed();
            hermes_trace::trace_event!(
                self.now.duration_since(self.epoch).as_nanos() as u64,
                hermes_trace::EventKind::ConnClose,
                self.lane(),
                conn.backend_id,
                conn.admitted_version
            );
            let RelayConn { up, down, .. } = conn;
            up.store.reclaim(&mut self.pipes);
            down.store.reclaim(&mut self.pipes);
        }
        self.release(slot);
    }

    fn release(&mut self, slot: usize) {
        self.live -= 1;
        self.free.push(slot);
    }

    /// Deadline sweep: epoll never fires for a silent peer, so expiry is
    /// reaped on a coarse clock. Comparisons only — no pumps — so idle
    /// connections stay untouched (the idle-CPU property).
    fn sweep(&mut self) {
        let now = self.now;
        if self.live == 0 || now.duration_since(self.last_sweep) < SWEEP_INTERVAL {
            return;
        }
        self.last_sweep = now;
        for slot in 0..self.slots.len() {
            if matches!(&self.slots[slot], Some(Slot::Relay(c)) if now >= c.deadline) {
                self.finish_relay(slot);
            }
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use hermes_backend::HealthState;
    use hermes_core::sched::SchedConfig;
    use hermes_core::wst::Wst;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::Mutex;

    /// A backend on an ephemeral loopback port that runs `serve` on its
    /// own thread for every connection (blocking socket, 5 s read
    /// timeout, `TCP_NODELAY`) until the returned flag is set.
    fn spawn_backend(
        serve: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> (SocketAddr, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let serve = Arc::new(serve);
        std::thread::spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((s, _)) => {
                        let serve = Arc::clone(&serve);
                        std::thread::spawn(move || {
                            let _ = s.set_nonblocking(false);
                            let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                            let _ = s.set_nodelay(true);
                            serve(s);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
        });
        (addr, stop)
    }

    /// A line-greeting echo backend: sends `hello-<id>\n` on connect, then
    /// echoes every byte until client EOF, then closes.
    fn spawn_echo_backend(id: usize) -> (SocketAddr, Arc<AtomicBool>) {
        spawn_backend(move |mut s| {
            if s.write_all(format!("hello-{id}\n").as_bytes()).is_err() {
                return;
            }
            let mut chunk = [0u8; 1024];
            loop {
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if s.write_all(&chunk[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
        })
    }

    /// A backend that half-closes *first*: sends `bye\n`, shuts down its
    /// write side immediately, then keeps reading and recording whatever
    /// the client sends until EOF.
    fn spawn_closer_backend() -> (SocketAddr, Arc<AtomicBool>, Arc<Mutex<Vec<u8>>>) {
        spawn_recording_backend(true)
    }

    /// A backend that records whatever the client sends until EOF. With
    /// `farewell` it first sends `bye\n` and half-closes; without, it
    /// never writes a byte.
    fn spawn_recording_backend(
        farewell: bool,
    ) -> (SocketAddr, Arc<AtomicBool>, Arc<Mutex<Vec<u8>>>) {
        let received = Arc::new(Mutex::new(Vec::new()));
        let received2 = Arc::clone(&received);
        let (addr, stop) = spawn_backend(move |mut s| {
            if farewell {
                if s.write_all(b"bye\n").is_err() {
                    return;
                }
                let _ = s.shutdown(Shutdown::Write);
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match s.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => received2.lock().unwrap().extend_from_slice(&chunk[..n]),
                }
            }
        });
        (addr, stop, received)
    }

    /// A backend that sends `payload` on connect and closes.
    fn spawn_source_backend(payload: Arc<Vec<u8>>) -> (SocketAddr, Arc<AtomicBool>) {
        spawn_backend(move |mut s| {
            let _ = s.write_all(&payload);
        })
    }

    /// Connect through the relay and read the greeting: the stream, its
    /// buffered reader and the backend id that greeted.
    fn open_greeted(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>, usize) {
        let s = TcpStream::connect(addr).expect("connect relay");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.set_nodelay(true).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut greeting = String::new();
        r.read_line(&mut greeting).expect("greeting");
        let backend: usize = greeting
            .trim()
            .strip_prefix("hello-")
            .unwrap_or_else(|| panic!("bad greeting {greeting:?}"))
            .parse()
            .unwrap();
        (s, r, backend)
    }

    /// One echo round-trip on a greeted relay.
    fn echo_line(s: &mut TcpStream, r: &mut BufReader<TcpStream>, payload: &str) {
        writeln!(s, "{payload}").unwrap();
        let mut echoed = String::new();
        r.read_line(&mut echoed).expect("echo");
        assert_eq!(echoed.trim(), payload);
    }

    /// Half-close a greeted relay and drain it to EOF.
    fn close_greeted(s: TcpStream, mut r: BufReader<TcpStream>) {
        s.shutdown(Shutdown::Write).unwrap();
        let mut rest = String::new();
        let _ = r.read_to_string(&mut rest);
        assert!(rest.is_empty(), "unexpected trailing bytes {rest:?}");
    }

    /// Connect through the relay, read the greeting, exchange one echo
    /// round-trip, half-close, and drain to EOF. Returns the backend id
    /// that greeted.
    fn relay_round_trip(addr: SocketAddr, payload: &str) -> usize {
        let (mut s, mut r, backend) = open_greeted(addr);
        echo_line(&mut s, &mut r, payload);
        close_greeted(s, r);
        backend
    }

    /// Wait (bounded) until the closer backend has recorded `want` bytes.
    fn await_received(received: &Arc<Mutex<Vec<u8>>>, want: usize) -> Vec<u8> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let got = received.lock().unwrap();
                if got.len() >= want {
                    return got.clone();
                }
            }
            assert!(
                Instant::now() < deadline,
                "backend never received the client's post-EOF bytes"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A reactor worker on a one-row WST, fed by its own listener (a
    /// reuseport group of one, so the kernel has one place to put a
    /// connection), that the test steps (or runs) itself, so its private
    /// state can be read between steps.
    fn reactor_rig(backends: Vec<SocketAddr>) -> ReactorWorker<fn(hermes_core::WorkerBitmap)> {
        fn publish_nowhere(_: hermes_core::WorkerBitmap) {}
        let socket = reactor::listen_reuseport(&"127.0.0.1:0".parse().unwrap()).expect("bind rig");
        let reactor = Reactor::new().expect("epoll");
        reactor
            .register_read(socket.as_raw_fd(), LISTEN_TOKEN)
            .expect("register listener");
        let listener = Listener {
            local: socket.local_addr().unwrap(),
            socket,
            id: 0,
            stats: Arc::new(LbStats {
                accepted: vec![AtomicU64::new(0)],
                ..LbStats::default()
            }),
            hash_only: true,
        };
        let session = WorkerSession::new(
            Arc::new(Wst::new(1)),
            0,
            SchedConfig::default(),
            Arc::new(publish_nowhere as fn(hermes_core::WorkerBitmap)),
        );
        let rstats = Arc::new(RelayStats {
            per_backend: (0..backends.len()).map(|_| AtomicU64::new(0)).collect(),
            ..RelayStats::default()
        });
        ReactorWorker::new(
            listener,
            reactor,
            session,
            Arc::new(BackendPool::new(backends.len())),
            Arc::new(backends),
            rstats,
        )
    }

    #[test]
    fn connections_queued_before_shutdown_are_served_not_reset() {
        let (echo, stop) = spawn_echo_backend(0);
        let mut worker = reactor_rig(vec![echo]);
        let addr = worker.listener.local;
        // More than one burst, all queued by the kernel on the worker's
        // listener before the worker takes a single step; then the flag
        // goes up. Each must still get its greeting and its echo.
        let queued = ACCEPT_BURST + 8;
        let clients: Vec<TcpStream> = (0..queued)
            .map(|_| TcpStream::connect(addr).expect("queued by the kernel"))
            .collect();
        std::thread::scope(|scope| {
            scope.spawn(|| worker.run(&AtomicBool::new(true)));
            for (i, mut c) in clients.into_iter().enumerate() {
                c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let mut r = BufReader::new(c.try_clone().unwrap());
                let mut line = String::new();
                r.read_line(&mut line).expect("greeting: reset instead?");
                assert_eq!(line, "hello-0\n", "client {i}");
                writeln!(c, "served-{i}").unwrap();
                line.clear();
                r.read_line(&mut line).expect("echo");
                assert_eq!(line, format!("served-{i}\n"));
            }
        });
        // `run` returned: nothing in flight, nothing left on the listener.
        let accepted = worker.listener.stats.accepted[0].load(Ordering::Relaxed);
        assert_eq!(accepted, queued as u64);
        assert_eq!(worker.rstats.relayed.load(Ordering::Relaxed), queued as u64);
        assert_eq!(worker.rstats.failed_connects.load(Ordering::Relaxed), 0);
        assert!(matches!(
            worker.listener.accept(true),
            Err(AcceptFailure::Drained)
        ));
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn wst_row_shows_readiness_events_while_they_are_pending() {
        let (echo, stop) = spawn_echo_backend(0);
        let mut worker = reactor_rig(vec![echo]);
        let wst = Arc::clone(worker.session.wst());
        let pending = || wst.worker(0).snapshot().pending_events;

        // A burst of three connections, then stop the worker between
        // "events fetched" and "events handled": the row must say three.
        let mut waiting: Vec<TcpStream> = (0..3)
            .map(|_| {
                let c = TcpStream::connect(worker.listener.local).unwrap();
                c.set_nonblocking(true).unwrap();
                c
            })
            .collect();
        let accepted = worker.fetch();
        assert_eq!(accepted, 3);
        assert_eq!(pending(), 3, "connections accepted but not yet admitted");
        worker.handle(accepted);
        assert_eq!(pending(), 0, "row not back to zero at loop end");

        // From here on nothing arrives at the listener: connect completions
        // and greetings are readiness events, and they must show too.
        let mut readiness_shown = 0;
        let deadline = Instant::now() + Duration::from_secs(5);
        while !waiting.is_empty() {
            assert!(
                Instant::now() < deadline,
                "clients never got their greetings"
            );
            let accepted = worker.fetch();
            assert_eq!(accepted, 0);
            assert_eq!(pending() as usize, worker.due.len());
            readiness_shown += worker.due.len();
            worker.handle(accepted);
            assert_eq!(pending(), 0, "row not back to zero at loop end");
            let mut greeting = [0u8; 8];
            waiting.retain_mut(|c| !matches!(c.read(&mut greeting), Ok(8)));
        }
        assert!(
            readiness_shown >= 3,
            "readiness events never reached the WST"
        );
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn short_connections_never_touch_a_pipe() {
        let (echo, stop) = spawn_echo_backend(0);
        let mut worker = reactor_rig(vec![echo]);
        let (addr, waker) = (worker.listener.local, worker.reactor.waker());
        // Run the worker's real loop over `n` connections, then stop it so
        // its pipe pool can be looked at.
        let serve = |worker: &mut ReactorWorker<_>, n: usize, payload: &str| {
            let shutdown = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| worker.run(&shutdown));
                for _ in 0..n {
                    assert_eq!(relay_round_trip(addr, payload), 0);
                }
                shutdown.store(true, Ordering::SeqCst);
                waker.wake();
            });
        };
        serve(&mut worker, 8, &"x".repeat(63));
        assert_eq!(worker.rstats.relayed.load(Ordering::Relaxed), 8);
        assert_eq!(worker.rstats.splice_bytes.load(Ordering::Relaxed), 0);
        assert!(
            worker.pipes.is_empty(),
            "a 64 B echo took a pipe from the pool"
        );
        // The contrast: a payload of several scratch-fulls promotes, and
        // its pipe comes back to the pool when the relay ends.
        serve(&mut worker, 1, &"x".repeat(4 * SCRATCH_BYTES));
        assert!(worker.rstats.splice_bytes.load(Ordering::Relaxed) > 0);
        assert!(
            !worker.pipes.is_empty(),
            "the bulk direction's pipe was not pooled"
        );
        assert_eq!(worker.rstats.splice_fallbacks.load(Ordering::Relaxed), 0);
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn bulk_directions_move_to_splice_after_their_first_scratch_full() {
        let payload: Arc<Vec<u8>> = Arc::new((0..4 << 20).map(|i| (i % 251) as u8).collect());
        let check = |rstats: &RelayStats, what: &str| {
            let moved =
                rstats.bytes_up.load(Ordering::Relaxed) + rstats.bytes_down.load(Ordering::Relaxed);
            let spliced = rstats.splice_bytes.load(Ordering::Relaxed);
            assert!(
                moved >= payload.len() as u64,
                "{what}: relay lost count of bytes"
            );
            assert!(
                spliced * 100 >= moved * 99,
                "{what}: only {spliced} of {moved} bytes spliced — promotion is late"
            );
            assert_eq!(rstats.splice_fallbacks.load(Ordering::Relaxed), 0, "{what}");
        };

        let (addr, stop, received) = spawn_closer_backend();
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![addr]).expect("bind");
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(&payload).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut down = Vec::new();
        s.read_to_end(&mut down).expect("drain to backend EOF");
        assert_eq!(down, b"bye\n");
        let got = await_received(&received, payload.len());
        assert!(got == *payload, "upload corrupted");
        let rstats = Arc::clone(lb.relay_stats());
        lb.shutdown();
        check(&rstats, "upload");
        stop.store(true, Ordering::SeqCst);

        let (addr, stop) = spawn_source_backend(Arc::clone(&payload));
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![addr]).expect("bind");
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut got = Vec::with_capacity(payload.len());
        s.read_to_end(&mut got).expect("drain to backend EOF");
        assert!(got == *payload, "download corrupted");
        drop(s);
        let rstats = Arc::clone(lb.relay_stats());
        lb.shutdown();
        check(&rstats, "download");
        stop.store(true, Ordering::SeqCst);
    }

    /// `(io_calls, would_block, pumps)` once the worker has gone quiet.
    fn settled_io_counters(rstats: &RelayStats) -> (u64, u64, u64) {
        let read = || {
            (
                rstats.io_calls.load(Ordering::Relaxed),
                rstats.would_block.load(Ordering::Relaxed),
                rstats.pumps.load(Ordering::Relaxed),
            )
        };
        let mut last = read();
        loop {
            std::thread::sleep(Duration::from_millis(30));
            let now = read();
            if now == last {
                return now;
            }
            last = now;
        }
    }

    #[test]
    fn a_wakeup_issues_only_the_io_the_kernel_announced() {
        // 1 000 sequential 64 B ping-pongs are 2 000 direction-moves,
        // each one wakeup: read, write, and the read that confirms
        // EAGAIN. The direction the event did not name costs nothing.
        let (addr, stop) = spawn_echo_backend(0);
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![addr]).expect("bind");
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.set_nodelay(true).unwrap();
        let mut greeting = [0u8; 8];
        s.read_exact(&mut greeting).unwrap();
        let (ping, mut pong) = ([0x5Au8; 64], [0u8; 64]);
        let rstats = Arc::clone(lb.relay_stats());
        let (io0, wb0, pumps0) = settled_io_counters(&rstats);
        for _ in 0..1000 {
            s.write_all(&ping).unwrap();
            s.read_exact(&mut pong).unwrap();
            assert_eq!(pong, ping);
        }
        let (io, wb, pumps) = settled_io_counters(&rstats);
        let (io, wb, pumps) = (io - io0, wb - wb0, pumps - pumps0);
        assert!(io <= 3 * 2000, "{io} I/O calls for 2000 moves");
        assert!(wb <= pumps, "{wb} EAGAINs over {pumps} wakeups");
        assert_eq!(rstats.splice_bytes.load(Ordering::Relaxed), 0);
        drop(s);
        lb.shutdown();
        stop.store(true, Ordering::SeqCst);

        // A backend that never writes: once the down direction has met
        // its first EAGAIN, only the up direction does I/O.
        let (addr, stop, received) = spawn_recording_backend(false);
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![addr]).expect("bind");
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_nodelay(true).unwrap();
        s.write_all(&ping).unwrap();
        await_received(&received, 64);
        let rstats = Arc::clone(lb.relay_stats());
        let (io0, ..) = settled_io_counters(&rstats);
        for i in 2..=101 {
            s.write_all(&ping).unwrap();
            await_received(&received, 64 * i);
        }
        let (io, ..) = settled_io_counters(&rstats);
        assert!(
            io - io0 <= 3 * 100,
            "{} I/O calls for 100 one-way moves — the idle direction was polled",
            io - io0
        );
        drop(s);
        lb.shutdown();
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn a_connection_pays_no_setsockopt_no_so_error_and_one_shutdown() {
        // The only backend refuses every connect (its listener is gone).
        let refusing = TcpListener::bind("127.0.0.1:0").unwrap();
        let refused = refusing.local_addr().unwrap();
        drop(refusing);
        let mut worker = reactor_rig(vec![refused]);
        let addr = worker.listener.local;

        // TCP_NODELAY: on the accepted socket before anything but
        // `accept4` has touched it — inherited from the listener.
        let _first = TcpStream::connect(addr).unwrap();
        let (accepted, _) = worker.listener.accept(true).expect("queued");
        assert!(accepted.nodelay().unwrap(), "not inherited");

        // SO_ERROR: a connect's event that says writable and not closed is
        // taken at its word. Step until the refusal's event has been
        // noted — closed, with ECONNREFUSED in SO_ERROR — and turn it into
        // that other event: the worker must promote the slot without
        // asking, which leaves the error unread.
        let _second = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "the refusal never showed");
            let accepted = worker.fetch();
            if let Some(Some(Slot::Connecting(c))) = worker.slots.first_mut() {
                if c.closed {
                    (c.closed, c.resolved) = (false, true);
                    break;
                }
            }
            worker.handle(accepted);
        }
        assert!(
            worker.finish_connect(0),
            "asked, and was told of the refusal"
        );
        let Some(Some(Slot::Relay(conn))) = worker.slots.first() else {
            panic!("promoted to no relay");
        };
        let unread = conn
            .backend
            .take_error()
            .unwrap()
            .expect("SO_ERROR was read");
        assert_eq!(unread.kind(), ErrorKind::ConnectionRefused);
        worker.finish_relay(0);
        worker.handle(0);
        // Left as the kernel reported it, the same event is asked about.
        let _third = TcpStream::connect(addr).unwrap();
        while worker.rstats.failed_connects.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "the refusal was never asked for");
            let accepted = worker.fetch();
            worker.handle(accepted);
        }

        // shutdown(Write): a direction whose source ended passes the
        // half-close on while the opposite direction is still open, and
        // leaves it to the close that follows when that one is done too.
        let hub = TcpListener::bind("127.0.0.1:0").unwrap();
        let pair = || {
            let near = TcpStream::connect(hub.local_addr().unwrap()).unwrap();
            let (far, _) = hub.accept().unwrap();
            far.set_nonblocking(true).unwrap();
            (near, far)
        };
        for peer_done in [false, true] {
            let (src_peer, mut src) = pair();
            let (mut dst, mut dst_peer) = pair();
            drop(src_peer);
            let mut dir = Direction::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            while !dir.dst_shut {
                assert!(Instant::now() < deadline, "EOF never reached the pump");
                dir.src_ready = true;
                dir.pump(
                    &mut src,
                    &mut dst,
                    &mut [0u8; 64],
                    &mut Vec::new(),
                    peer_done,
                )
                .unwrap();
            }
            std::thread::sleep(Duration::from_millis(20));
            let got = dst_peer.read(&mut [0u8; 1]);
            match (peer_done, got) {
                (false, Ok(0)) => {}
                (true, Err(e)) if e.kind() == ErrorKind::WouldBlock => {}
                (_, got) => panic!("peer_done {peer_done}: destination's peer read {got:?}"),
            }
        }
    }

    #[test]
    fn pending_connect_stalls_neither_sibling_relays_nor_the_retry() {
        extern "C" {
            fn listen(fd: i32, backlog: i32) -> i32;
        }
        // Candidate 0 listens with a backlog of one and never accepts.
        // Once its accept queue is full the kernel drops further SYNs, so
        // a connect to it neither succeeds nor fails: it stays pending.
        let hole = TcpListener::bind("127.0.0.1:0").unwrap();
        // SAFETY: plain syscall on a live listening socket, no pointers;
        // listen() on a listening socket only updates its backlog.
        assert_eq!(unsafe { listen(hole.as_raw_fd(), 1) }, 0);
        let hole_addr = hole.local_addr().unwrap();
        // Fill the queue: of eight connects only the first few complete;
        // the rest stay in SYN_SENT and are closed again.
        let mut fillers: Vec<TcpStream> = (0..8)
            .map(|_| reactor::connect_nonblocking(&hole_addr).expect("connect starts"))
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        fillers.retain(|s| s.peer_addr().is_ok());
        assert!(
            (1..8).contains(&fillers.len()),
            "{} of 8 connects completed: the backlog never filled",
            fillers.len()
        );
        let (live_addr, stop) = spawn_echo_backend(1);
        // Stepped by the test, pass by pass, so that the worker's own view
        // of its connect attempts can be read between passes.
        let mut worker = reactor_rig(vec![hole_addr, live_addr]);
        let addr = worker.listener.local;
        let rstats = Arc::clone(&worker.rstats);
        let step = |worker: &mut ReactorWorker<_>| {
            let accepted = worker.fetch();
            worker.handle(accepted);
        };
        let connecting_to_hole = |worker: &ReactorWorker<_>| {
            let mut slots = worker.slots.iter().flatten();
            slots.any(|s| matches!(s, Slot::Connecting(c) if c.backend_id == 0))
        };
        let unserved = |c: &TcpStream| matches!(c.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
        let greet = |s: &mut TcpStream| {
            s.set_nonblocking(false).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut greeting = [0u8; 8];
            s.read_exact(&mut greeting).expect("greeting");
            assert_eq!(
                &greeting, b"hello-1\n",
                "served by the never-accepting backend"
            );
        };

        // The sibling: one established relay on the same (only) worker,
        // echoing for as long as the test runs and counting the echoes it
        // has started and those it has got back.
        let mut sibling = TcpStream::connect(addr).unwrap();
        sibling.set_nodelay(true).unwrap();
        sibling.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while unserved(&sibling) && Instant::now() < deadline {
            step(&mut worker);
        }
        greet(&mut sibling);
        let done = Arc::new(AtomicBool::new(false));
        let (started, completed) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let pinger = {
            let (done, started, completed) = (
                Arc::clone(&done),
                Arc::clone(&started),
                Arc::clone(&completed),
            );
            std::thread::spawn(move || {
                let (ping, mut pong) = ([0xC3u8; 64], [0u8; 64]);
                while !done.load(Ordering::SeqCst) {
                    started.fetch_add(1, Ordering::SeqCst);
                    sibling.write_all(&ping).unwrap();
                    sibling.read_exact(&mut pong).unwrap();
                    completed.fetch_add(1, Ordering::SeqCst);
                }
            })
        };

        // New clients until one is pinned to candidate 0: it waits out the
        // attempt's deadline, then candidate 1 serves it after one retry.
        // While a client waits for its greeting, count the sibling echoes
        // that lie wholly inside the time its connect to candidate 0 is
        // pending: started after one pass left the attempt open, back when
        // a later pass still had. A worker blocked in `connect` has settled
        // the attempt by the end of the pass that started it, so no pass
        // ever leaves one open.
        let mut waited = None;
        let mut echoes_while_pending = 0;
        for _ in 0..64 {
            let retries = rstats.connect_retries.load(Ordering::Relaxed);
            let t0 = Instant::now();
            let mut c = TcpStream::connect(addr).unwrap();
            c.set_nonblocking(true).unwrap();
            let mut started_while_pending = None;
            // (`greet` fails a client still unserved after the deadline.)
            while t0.elapsed() < Duration::from_secs(5) && unserved(&c) {
                step(&mut worker);
                if !connecting_to_hole(&worker) {
                    continue;
                }
                let back = completed.load(Ordering::SeqCst);
                match started_while_pending {
                    None => started_while_pending = Some(started.load(Ordering::SeqCst)),
                    Some(first) => {
                        echoes_while_pending = echoes_while_pending.max(back.saturating_sub(first))
                    }
                }
            }
            greet(&mut c);
            match rstats.connect_retries.load(Ordering::Relaxed) - retries {
                0 => continue,
                1 => waited = Some(t0.elapsed()),
                n => panic!("{n} retries for one client with one dead candidate"),
            }
            break;
        }
        done.store(true, Ordering::SeqCst);
        // The pinger's last echo needs the worker too.
        while !pinger.is_finished() {
            step(&mut worker);
        }
        pinger.join().unwrap();
        let waited = waited.expect("64 clients and none was pinned to candidate 0");
        assert!(
            waited >= CONNECT_TIMEOUT - Duration::from_millis(50),
            "the connect to candidate 0 was not pending: client served after {waited:?}"
        );
        assert!(
            echoes_while_pending >= 1,
            "no sibling echo started and came back while the connect was pending"
        );
        assert_eq!(rstats.failed_connects.load(Ordering::Relaxed), 0);
        // The abandoned attempt's socket is closed — and with that out of
        // the worker's epoll set: nothing is still trying to reach
        // candidate 0 (an open one would sit in SYN_SENT for minutes). One
        // look at the kernel's socket table, with no clock running: rows in
        // SYN_SENT with the hole as remote address.
        assert_eq!(worker.connecting, 0);
        let SocketAddr::V4(hole_v4) = hole_addr else {
            panic!("bound an IPv4 address");
        };
        let remote = format!(
            "{:08X}:{:04X}",
            u32::from_le_bytes(hole_v4.ip().octets()),
            hole_v4.port()
        );
        const SYN_SENT: &str = "02";
        let table = std::fs::read_to_string("/proc/net/tcp").expect("/proc/net/tcp");
        let still_open = table
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|f| f.len() > 3 && f[2] == remote && f[3] == SYN_SENT)
            .count();
        assert_eq!(still_open, 0, "an abandoned connect attempt is still open");
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn relays_end_to_end_and_spreads_across_backends() {
        let backends: Vec<_> = (0..4).map(spawn_echo_backend).collect();
        let addrs: Vec<SocketAddr> = backends.iter().map(|(a, _)| *a).collect();
        let lb = RelayLb::start("127.0.0.1:0", 4, addrs).expect("bind");
        let addr = lb.local_addr();
        std::thread::sleep(Duration::from_millis(15)); // first bitmaps
        let mut used = std::collections::HashSet::new();
        for i in 0..24 {
            used.insert(relay_round_trip(addr, &format!("ping-{i}")));
        }
        // One payload of several scratch-fulls: the size at which a
        // direction moves onto the splice path.
        relay_round_trip(addr, &"bulk".repeat(SCRATCH_BYTES));
        let rstats = Arc::clone(lb.relay_stats());
        lb.shutdown();
        assert!(
            used.len() >= 2,
            "all relays landed on one backend: {used:?}"
        );
        let landed: u64 = rstats
            .per_backend
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum();
        assert_eq!(landed, 25);
        assert_eq!(rstats.relayed.load(Ordering::Relaxed), 25);
        assert_eq!(rstats.failed_connects.load(Ordering::Relaxed), 0);
        // Greeting + echo flowed down; payload flowed up.
        assert!(
            rstats.bytes_down.load(Ordering::Relaxed) > rstats.bytes_up.load(Ordering::Relaxed)
        );
        assert!(
            rstats.splice_bytes.load(Ordering::Relaxed) > 0,
            "the bulk payload moved no bytes through splice"
        );
        for (_, stop) in backends {
            stop.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn half_close_in_all_three_orders() {
        // Client EOF first: the echo backend answers until the client
        // shuts its write side, then the relay drains and closes.
        let (echo_addr, echo_stop) = spawn_echo_backend(0);
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![echo_addr]).expect("bind");
        std::thread::sleep(Duration::from_millis(15));
        relay_round_trip(lb.local_addr(), "client-eof-first");
        lb.shutdown();
        echo_stop.store(true, Ordering::SeqCst);

        // Backend EOF first: the backend half-closes immediately; the
        // client must still be able to push bytes upstream afterwards.
        let (addr, stop, received) = spawn_closer_backend();
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![addr]).expect("bind");
        std::thread::sleep(Duration::from_millis(15));
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut down = Vec::new();
        let mut r = s.try_clone().unwrap();
        r.read_to_end(&mut down).expect("drain to backend EOF");
        assert_eq!(down, b"bye\n", "backend farewell corrupted");
        s.write_all(b"after-backend-eof").unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let got = await_received(&received, "after-backend-eof".len());
        assert_eq!(got, b"after-backend-eof");
        lb.shutdown();
        stop.store(true, Ordering::SeqCst);

        // Simultaneous: both sides half-close without waiting for the
        // other; every byte in flight must still be delivered.
        let (addr, stop, received) = spawn_closer_backend();
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![addr]).expect("bind");
        std::thread::sleep(Duration::from_millis(15));
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"both-sides-close").unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut down = Vec::new();
        s.read_to_end(&mut down).expect("drain to backend EOF");
        assert_eq!(down, b"bye\n", "simultaneous close lost bytes");
        let got = await_received(&received, "both-sides-close".len());
        assert_eq!(got, b"both-sides-close");
        let rstats = Arc::clone(lb.relay_stats());
        lb.shutdown();
        assert_eq!(
            rstats.relayed.load(Ordering::Relaxed),
            1,
            "a relay leaked past shutdown"
        );
        assert_eq!(
            rstats.splice_fallbacks.load(Ordering::Relaxed),
            0,
            "splice demoted on plain TCP sockets"
        );
        stop.store(true, Ordering::SeqCst);
    }

    /// Push `payload` through an echo relay on `s` while a deliberately
    /// slow reader collects what comes back: it dribbles its first reads
    /// so every staging buffer between backend and client fills to
    /// capacity. Returns everything read up to EOF (greeting included).
    fn echo_past_slow_reader(mut s: TcpStream, payload: &[u8]) -> Vec<u8> {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = s.try_clone().unwrap();
        let want = payload.len();
        let collector = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let mut got = Vec::with_capacity(want + 16);
            let mut small = [0u8; 512];
            for _ in 0..32 {
                match reader.read(&mut small) {
                    Ok(0) | Err(_) => return got,
                    Ok(n) => got.extend_from_slice(&small[..n]),
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match reader.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => got.extend_from_slice(&chunk[..n]),
                }
            }
            got
        });
        s.write_all(payload).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        collector.join().unwrap()
    }

    /// greeting (`hello-0\n`) + the full echoed payload, byte for byte.
    fn assert_greeted_echo(got: &[u8], payload: &[u8]) {
        assert_eq!(got.len(), 8 + payload.len(), "bytes lost");
        assert_eq!(&got[..8], b"hello-0\n");
        assert!(got[8..] == *payload, "payload corrupted");
    }

    /// What the sockets towards a client that reads nothing can take
    /// before a write to it would block: a send buffer grown as far as it
    /// can (`tcp_wmem` max) and a receive buffer at its starting size
    /// (`tcp_rmem` default; it grows as the application reads).
    fn unread_capacity() -> usize {
        let sysctl = |name: &str, field: usize, default: usize| {
            let text = std::fs::read_to_string(format!("/proc/sys/net/ipv4/{name}")).ok();
            let value = text.and_then(|t| t.split_whitespace().nth(field)?.parse().ok());
            value.unwrap_or(default)
        };
        sysctl("tcp_wmem", 2, 4 << 20) + sysctl("tcp_rmem", 1, 128 << 10)
    }

    #[test]
    fn slow_reader_backpressure_survives_bounded_pipes() {
        // Through a capacity-limited pipe against a slow client reader:
        // backpressure must throttle the backend->client direction without
        // losing or reordering a byte. The upload is bulk from its first
        // read; the echo comes back in 1 KiB writes and moves to splice only
        // once the client's sockets have pushed back and a scratch-full has
        // piled up behind them — which a payload they could hold whole
        // would leave to chance. A MiB more than they can hold does not.
        let len = unread_capacity() + (1 << 20);
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let (addr, stop) = spawn_echo_backend(0);
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![addr]).expect("bind");
        std::thread::sleep(Duration::from_millis(15));
        let s = TcpStream::connect(lb.local_addr()).unwrap();
        let got = echo_past_slow_reader(s, &payload);
        let rstats = Arc::clone(lb.relay_stats());
        lb.shutdown();
        assert_greeted_echo(&got, &payload);
        assert!(
            rstats.splice_bytes.load(Ordering::Relaxed) as usize >= payload.len(),
            "splice path moved too few bytes"
        );
        assert_eq!(rstats.splice_fallbacks.load(Ordering::Relaxed), 0);
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn copy_path_alone_carries_bulk_past_a_slow_reader() {
        // Production reaches `Promote::Off` on a copy store after a
        // kernel splice refusal or when `pipe2` hits EMFILE; pin a relay
        // there from its first byte and push the same 1 MiB through the
        // 16 KiB scratch buffer.
        let payload: Vec<u8> = (0..1024 * 1024).map(|i| (i % 251) as u8).collect();
        let (echo, stop) = spawn_echo_backend(0);
        let mut worker = reactor_rig(vec![echo]);
        let waker = worker.reactor.waker();
        let s = TcpStream::connect(worker.listener.local).unwrap();
        // Step the worker by hand until the backend connect completes
        // (the client has sent nothing, so no read can have promoted).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "backend connect never settled");
            let accepted = worker.fetch();
            worker.handle(accepted);
            if let Some(Some(Slot::Relay(conn))) = worker.slots.first_mut() {
                conn.up.promote = Promote::Off;
                conn.down.promote = Promote::Off;
                break;
            }
        }
        let shutdown = AtomicBool::new(false);
        let got = std::thread::scope(|scope| {
            scope.spawn(|| worker.run(&shutdown));
            let got = echo_past_slow_reader(s, &payload);
            shutdown.store(true, Ordering::SeqCst);
            waker.wake();
            got
        });
        assert_greeted_echo(&got, &payload);
        assert_eq!(worker.rstats.relayed.load(Ordering::Relaxed), 1);
        assert_eq!(worker.rstats.splice_bytes.load(Ordering::Relaxed), 0);
        assert_eq!(worker.rstats.splice_fallbacks.load(Ordering::Relaxed), 0);
        assert!(worker.pipes.is_empty(), "a pinned-off relay took a pipe");
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn reactor_worker_idles_without_pumping() {
        let (addr, stop) = spawn_echo_backend(0);
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![addr]).expect("bind");
        std::thread::sleep(Duration::from_millis(15));
        // Hold one live but idle relay open across the measurement.
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut greeting = String::new();
        r.read_line(&mut greeting).unwrap();
        std::thread::sleep(Duration::from_millis(100)); // quiesce
        let rstats = Arc::clone(lb.relay_stats());
        let before = rstats.pumps.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_secs(1));
        let after = rstats.pumps.load(Ordering::Relaxed);
        assert_eq!(
            after,
            before,
            "reactor pumped an idle connection {} times across an idle second",
            after - before
        );
        // The connection is still perfectly alive after the idle window.
        writeln!(s, "warm").unwrap();
        let mut echoed = String::new();
        r.read_line(&mut echoed).unwrap();
        assert_eq!(echoed.trim(), "warm");
        drop(r);
        drop(s);
        lb.shutdown();
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn splice_demotion_recovers_pipe_bytes() {
        // Stage bytes in a splice direction's pipe, then demote: the
        // bytes must surface intact in the copy-path buffer.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let pipe = PipePair::new().unwrap();
        client.write_all(b"must-not-be-dropped").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let n = match reactor::splice_to_pipe(server.as_raw_fd(), &pipe, 4096).unwrap() {
            Splice::Moved(n) => n,
            other => panic!("expected Moved, got {other:?}"),
        };
        let mut dir = DirBuf::Splice { pipe, buffered: n };
        let mut scratch = vec![0u8; SCRATCH_BYTES];
        dir.demote(&mut scratch).unwrap();
        match dir {
            DirBuf::Copy(buf) => assert_eq!(&buf[..], b"must-not-be-dropped"),
            DirBuf::Splice { .. } => panic!("demote left the splice path in place"),
        }
    }

    #[test]
    fn late_backend_ids_clamp_instead_of_panicking() {
        // Regression: per_backend is sized at startup; a later table
        // version can reference backend ids past the vector. Those must
        // clamp into unindexed_backends, not index out of bounds.
        let rstats = RelayStats {
            per_backend: (0..2).map(|_| AtomicU64::new(0)).collect(),
            ..RelayStats::default()
        };
        rstats.note_backend(1);
        rstats.note_backend(7);
        rstats.note_backend(2);
        assert_eq!(rstats.per_backend[1].load(Ordering::Relaxed), 1);
        assert_eq!(rstats.per_backend[0].load(Ordering::Relaxed), 0);
        assert_eq!(rstats.unindexed_backends.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn draining_backend_keeps_existing_relay_but_takes_no_new_ones() {
        let backends: Vec<_> = (0..2).map(spawn_echo_backend).collect();
        let addrs: Vec<SocketAddr> = backends.iter().map(|(a, _)| *a).collect();
        let lb = RelayLb::start("127.0.0.1:0", 2, addrs).expect("bind");
        let addr = lb.local_addr();
        std::thread::sleep(Duration::from_millis(15));

        // Open a long-lived relay and learn its backend.
        let (mut s, mut r, pinned) = open_greeted(addr);

        // Drain that backend: new admissions must avoid it…
        assert!(lb.pool().set_health(pinned, HealthState::Draining, 0));
        let other = 1 - pinned;
        for i in 0..8 {
            assert_eq!(
                relay_round_trip(addr, &format!("fresh-{i}")),
                other,
                "new connection landed on a draining backend"
            );
        }
        // …while the established relay keeps serving through it.
        echo_line(&mut s, &mut r, "still-here");
        close_greeted(s, r);
        lb.shutdown();
        for (_, stop) in backends {
            stop.store(true, Ordering::SeqCst);
        }
    }

    /// The churn script of `hermes-backend`'s `tests/churn.rs`, compressed
    /// (drains 150 ms apart, backend 6 `Down` for 600 ms) and played on
    /// sockets while four clients keep opening short connections.
    #[test]
    fn rolling_drain_and_flap_under_connection_churn_misroute_nothing() {
        const BACKENDS: usize = 8;
        const CLIENTS: usize = 4;
        const STEP: Duration = Duration::from_millis(150);
        let backends: Vec<_> = (0..BACKENDS).map(spawn_echo_backend).collect();
        let addrs: Vec<SocketAddr> = backends.iter().map(|(a, _)| *a).collect();
        let lb = RelayLb::start("127.0.0.1:0", 4, addrs).expect("bind");
        let addr = lb.local_addr();
        std::thread::sleep(Duration::from_millis(15));

        // Two long-lived relays opened before any churn: one on a backend
        // the rolling drain visits, one on the flap victim.
        let mut probes = 0u64;
        let mut held = [None, None];
        while held.iter().any(Option::is_none) {
            assert!(probes < 400, "400 connections missed backends 0..=5 or 6");
            let (s, r, backend) = open_greeted(addr);
            probes += 1;
            let slot = &mut held[usize::from(backend == 6)];
            if backend <= 6 && slot.is_none() {
                *slot = Some((s, r));
            } else {
                close_greeted(s, r);
            }
        }
        let mut held = held.map(Option::unwrap);

        // Steps 0..=5 drain backend `step` and bring back the one before
        // it; backend 6 is down from step 2 to step 6.
        let mut script = Vec::new();
        for b in 0..6 {
            script.push((b as u32, b, HealthState::Draining));
            script.push((b as u32 + 1, b, HealthState::Healthy));
        }
        script.push((2, 6, HealthState::Down));
        script.push((6, 6, HealthState::Healthy));
        script.sort_by_key(|&(step, ..)| step);

        let done = AtomicBool::new(false);
        // Per short connection: connect() began, greeting read, greeter.
        // Per outage: backend, `set_health(out)` returned, about to call
        // `set_health(Healthy)`.
        let (served, outages) = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let done = &done;
                    scope.spawn(move || {
                        let mut served = Vec::new();
                        while served.len() < 500 || !done.load(Ordering::SeqCst) {
                            let begun = Instant::now();
                            let (mut s, mut r, backend) = open_greeted(addr);
                            let greeted = Instant::now();
                            echo_line(&mut s, &mut r, &format!("c{c}-{}", served.len()));
                            close_greeted(s, r);
                            served.push((begun, greeted, backend));
                            // Pacing only: every connection leaves the
                            // client a TIME_WAIT port.
                            std::thread::sleep(Duration::from_micros(500));
                        }
                        served
                    })
                })
                .collect();
            let start = Instant::now();
            let mut out_since = [None; BACKENDS];
            let mut outages = Vec::new();
            for (step, b, to) in script {
                std::thread::sleep((start + STEP * step).saturating_duration_since(Instant::now()));
                let called = Instant::now();
                assert!(lb.pool().set_health(b, to, 0), "{b} -> {to:?}");
                match to {
                    HealthState::Healthy => {
                        outages.push((b, out_since[b].take().expect("was out"), called));
                    }
                    _ => out_since[b] = Some(Instant::now()),
                }
                // Established relays keep their peer through every version.
                for (s, r) in &mut held {
                    echo_line(s, r, &format!("held-at-{step}-{b}"));
                }
            }
            done.store(true, Ordering::SeqCst);
            let served: Vec<_> = clients
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect();
            (served, outages)
        });
        assert_eq!(lb.pool().version(), 15);
        for (mut s, mut r) in held {
            echo_line(&mut s, &mut r, "held-after-recovery");
            close_greeted(s, r);
        }

        assert!(served.len() >= 2_000, "{} connections", served.len());
        for &(b, out, back) in &outages {
            let inside =
                |&&(begun, greeted, _): &&(Instant, Instant, usize)| begun > out && greeted < back;
            let window: Vec<_> = served.iter().filter(inside).collect();
            assert!(!window.is_empty(), "no connection fell inside {b}'s outage");
            let misrouted = window.iter().filter(|&&&(.., by)| by == b).count();
            assert_eq!(
                misrouted,
                0,
                "of {} connections inside backend {b}'s outage",
                window.len()
            );
        }

        let made = probes + served.len() as u64;
        let rstats = Arc::clone(lb.relay_stats());
        let deadline = Instant::now() + Duration::from_secs(5);
        while rstats.relayed.load(Ordering::Relaxed) < made && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        lb.shutdown();
        assert_eq!(rstats.failed_connects.load(Ordering::Relaxed), 0);
        assert_eq!(rstats.relayed.load(Ordering::Relaxed), made);
        let landed: u64 = rstats
            .per_backend
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum();
        assert_eq!(landed, made);
        for (_, stop) in backends {
            stop.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn connect_failure_retries_next_candidate() {
        // Backend 0 is a dead address (bound then dropped: connect refused);
        // backend 1 is live. Every relay must end up on 1, with retries
        // recorded for the clients whose pinned candidate was 0.
        let dead_addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let (live_addr, stop) = spawn_echo_backend(1);
        let lb = RelayLb::start("127.0.0.1:0", 2, vec![dead_addr, live_addr]).expect("bind");
        let addr = lb.local_addr();
        std::thread::sleep(Duration::from_millis(15));
        for i in 0..16 {
            assert_eq!(relay_round_trip(addr, &format!("retry-{i}")), 1);
        }
        let rstats = Arc::clone(lb.relay_stats());
        lb.shutdown();
        assert!(
            rstats.connect_retries.load(Ordering::Relaxed) > 0,
            "no client was pinned to the dead backend across 16 flows"
        );
        assert_eq!(rstats.failed_connects.load(Ordering::Relaxed), 0);
        assert_eq!(rstats.per_backend[1].load(Ordering::Relaxed), 16);
        assert_eq!(rstats.per_backend[0].load(Ordering::Relaxed), 0);
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn down_pool_refuses_new_relays() {
        let (live_addr, stop) = spawn_echo_backend(0);
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![live_addr]).expect("bind");
        let addr = lb.local_addr();
        std::thread::sleep(Duration::from_millis(15));
        assert!(lb.pool().set_health(0, HealthState::Down, 0));
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        // The relay drops the client without a backend: EOF, no greeting.
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.is_empty(), "got bytes from a fully-down pool: {out:?}");
        let rstats = Arc::clone(lb.relay_stats());
        lb.shutdown();
        assert!(rstats.failed_connects.load(Ordering::Relaxed) >= 1);
        stop.store(true, Ordering::SeqCst);
    }

    #[test]
    fn half_close_with_large_payload_exercises_backpressure() {
        // 64 KiB through the staging buffers: the echo path
        // must chunk through the relay's strict-backpressure stores, and
        // half-close must still deliver every byte after the client stops
        // sending.
        let (live_addr, stop) = spawn_echo_backend(0);
        let lb = RelayLb::start("127.0.0.1:0", 1, vec![live_addr]).expect("bind");
        let addr = lb.local_addr();
        std::thread::sleep(Duration::from_millis(15));
        let payload = vec![0xA5u8; 64 * 1024];
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = s.try_clone().unwrap();
        let want = payload.len();
        let collector = std::thread::spawn(move || {
            let mut got = Vec::with_capacity(want + 16);
            let mut chunk = [0u8; 4096];
            loop {
                match reader.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => got.extend_from_slice(&chunk[..n]),
                }
            }
            got
        });
        s.write_all(&payload).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let got = collector.join().unwrap();
        lb.shutdown();
        // greeting ("hello-0\n" = 8 bytes) + the full echoed payload.
        assert_eq!(got.len(), 8 + payload.len(), "bytes lost in the relay");
        assert_eq!(&got[..8], b"hello-0\n");
        assert!(got[8..].iter().all(|&b| b == 0xA5), "payload corrupted");
        stop.store(true, Ordering::SeqCst);
    }
}
