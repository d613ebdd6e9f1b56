//! Userspace I/O event notification over raw epoll syscalls.
//!
//! The relay data plane ([`crate::relay`]) is the one place this
//! reproduction touches *real* kernel readiness machinery — the very
//! subsystem the paper is about. This module wraps exactly the
//! primitives it needs, declared straight against the C runtime in the
//! same hand-rolled style as `hermes_ebpf::kernel`'s `bpf(2)` calls (no new
//! crate dependencies):
//!
//! * [`Reactor`] — an `epoll` instance plus an `eventfd` wake channel.
//!   Relay sockets register **edge-triggered** for their read side
//!   (`EPOLLIN | EPOLLPRI | EPOLLRDHUP | EPOLLET`): the kernel raises an
//!   edge for every segment that lands, so the owning worker may stop
//!   reading once a read comes back short — unless the event said a FIN or
//!   an urgent mark is queued behind the bytes, which no later edge will
//!   announce ([`Event`] carries both). Write edges (`EPOLLOUT`) are asked
//!   for only where a write may wait: a backend leg from its registration
//!   on, because its nonblocking connect completes as one, and a client
//!   leg from the first flush into it that met `EAGAIN`
//!   ([`Reactor::watch_writes`], whose `EPOLL_CTL_MOD` re-polls the socket,
//!   so room that opened before it is still reported). Listeners register
//!   **level-triggered** read-only, so a non-empty accept backlog is
//!   reported again at every wait — their worker accepts one connection per
//!   report — and can be disarmed while `accept` is failing for want of
//!   fds.
//! * [`Waker`] — the cross-thread half of the eventfd: shutdown rings it
//!   so a worker asleep in `epoll_wait` sees the flag now, not at its next
//!   timeout. The fd is shared by `Arc`, so a waker can never write into a
//!   recycled descriptor after its reactor died.
//! * [`PipePair`] — a nonblocking pipe for the splice(2) zero-copy path:
//!   bytes move socket → pipe → socket entirely inside the kernel, with
//!   [`splice_to_pipe`]/[`splice_from_pipe`] reporting would-block, EOF,
//!   and not-supported as distinct outcomes so the relay can fall back
//!   to its scratch-buffer copy path.
//! * [`listen_reuseport`] / [`accept_nonblocking`] /
//!   [`connect_nonblocking`] — the socket calls std does not offer: a
//!   listener that joins an `SO_REUSEPORT` group before it binds (one per
//!   worker, so the kernel can place a SYN on any of them; with
//!   `SO_OOBINLINE`, as the backend legs have too, so a TCP urgent byte
//!   stays in the stream the relay copies),
//!   `accept4(SOCK_NONBLOCK)` for a stream that needs no further `fcntl`,
//!   and `socket(SOCK_NONBLOCK)` + `connect` → `EINPROGRESS`, which lets a
//!   worker open a backend leg without ever blocking outside `epoll_wait`.
//!
//! Non-Linux hosts get a stub whose constructors report `Unsupported`,
//! so the crate type-checks everywhere: there neither LB starts.

#[cfg(target_os = "linux")]
mod imp {
    use std::io;
    use std::net::{SocketAddr, SocketAddrV6, TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::sync::Arc;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLPRI: u32 = 0x002;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;
    /// A relay socket's read side, edge-triggered: bytes, urgent marks and
    /// peer half-close.
    const RELAY_EDGES: u32 = EPOLLIN | EPOLLPRI | EPOLLRDHUP | EPOLLET;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;
    const O_NONBLOCK: i32 = 0o4000;
    const O_CLOEXEC: i32 = 0o2000000;
    const SPLICE_F_MOVE: u32 = 1;
    const SPLICE_F_NONBLOCK: u32 = 2;
    const EINVAL: i32 = 22;
    const ENOSYS: i32 = 38;
    /// `F_SETPIPE_SZ` (`F_LINUX_SPECIFIC_BASE + 7`).
    const F_SETPIPE_SZ: i32 = 1031;

    /// Capacity requested for splice staging pipes: 1 MiB, the default
    /// unprivileged ceiling (`/proc/sys/fs/pipe-max-size`). The stock
    /// 64 KiB pipe throttles the splice path below the copy path on fast
    /// links; a deeper pipe lets each wakeup stage a full socket buffer.
    /// Best-effort — a refused resize just keeps the 64 KiB default.
    pub const PIPE_CAPACITY: usize = 1 << 20;

    /// Kernel ABI `struct epoll_event`. Packed on x86-64 (the kernel
    /// keeps the 32-bit layout there); naturally aligned elsewhere
    /// (e.g. aarch64) — mirroring the platform headers.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn splice(
            fd_in: i32,
            off_in: *mut i64,
            fd_out: i32,
            off_out: *mut i64,
            len: usize,
            flags: u32,
        ) -> isize;
        fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
        fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
    }

    /// Event token reserved for the reactor's own wake eventfd.
    pub const WAKE_TOKEN: u64 = u64::MAX;

    /// Event token a worker's listener is registered under.
    pub const LISTEN_TOKEN: u64 = u64::MAX - 1;

    /// What a descriptor-creating call returned, owned — or its errno.
    fn owned(fd: i32) -> io::Result<OwnedFd> {
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: a fresh descriptor the call just returned; nothing else
        // owns it.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// Most ready events one `epoll_wait` takes: both legs of 64 relays,
    /// plus the wake channel and the listener. It bounds one pass's work,
    /// not what can be ready: events past it stay on the kernel's ready
    /// list for the next wait.
    const EVENTS_PER_WAIT: usize = 130;

    /// One decoded readiness event.
    #[derive(Clone, Copy, Debug)]
    pub struct Event {
        /// The registration token (`WAKE_TOKEN` for the wake channel).
        pub token: u64,
        /// `EPOLLIN`: bytes (or an accept) are waiting.
        pub readable: bool,
        /// `EPOLLOUT`: the socket's send buffer has room again.
        pub writable: bool,
        /// `EPOLLRDHUP | EPOLLHUP | EPOLLERR`: the peer is gone or going.
        pub closed: bool,
        /// `EPOLLPRI`: a TCP urgent mark is queued and not yet read past.
        /// A read stops short at the mark.
        pub urgent: bool,
    }

    /// Cross-thread wake handle: bumping it makes the owning reactor's
    /// `wait` return with a [`WAKE_TOKEN`] event. The eventfd is owned
    /// jointly with the [`Reactor`] and closed when the last owner drops.
    #[derive(Clone, Debug)]
    pub struct Waker(Arc<OwnedFd>);

    impl Waker {
        /// Post one wake. Lossy coalescing is fine: the eventfd counter
        /// saturates and the reactor drains it whole.
        pub fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: the fd is alive (Arc-owned) and `one` is a valid
            // 8-byte buffer — the eventfd write contract.
            unsafe {
                write(
                    self.0.as_raw_fd(),
                    (&raw const one).cast::<core::ffi::c_void>(),
                    std::mem::size_of::<u64>(),
                )
            };
        }
    }

    /// An epoll instance plus its eventfd wake channel.
    pub struct Reactor {
        epfd: OwnedFd,
        wake: Arc<OwnedFd>,
        /// Scratch for `epoll_wait` output, reused across calls.
        scratch: Vec<EpollEvent>,
    }

    impl std::fmt::Debug for Reactor {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Reactor")
                .field("epfd", &self.epfd)
                .field("wake", &self.wake)
                .finish_non_exhaustive()
        }
    }

    impl Reactor {
        /// Create the epoll set and register the wake eventfd
        /// (level-triggered read; drained explicitly via [`drain_wake`]).
        ///
        /// [`drain_wake`]: Reactor::drain_wake
        pub fn new() -> io::Result<Reactor> {
            // SAFETY: plain syscall, no pointers.
            let epfd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: plain syscall, no pointers.
            let wake = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            let r = Reactor {
                epfd,
                wake: Arc::new(wake),
                scratch: vec![EpollEvent { events: 0, data: 0 }; EVENTS_PER_WAIT],
            };
            r.ctl(EPOLL_CTL_ADD, r.wake.as_raw_fd(), EPOLLIN, WAKE_TOKEN)?;
            Ok(r)
        }

        fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            // SAFETY: `ev` is a live, correctly-laid-out epoll_event for
            // the duration of the call; the kernel copies it out.
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// A handle other threads can use to wake this reactor.
        pub fn waker(&self) -> Waker {
            Waker(Arc::clone(&self.wake))
        }

        /// Register a relay socket edge-triggered for bytes, urgent marks
        /// and peer half-close, and with `writes` for send-buffer room too.
        /// After an event the owner reads until a read comes back short or
        /// `EAGAIN` — to `EAGAIN` when the event said `closed` or `urgent`,
        /// and always on a splice — or that event's bytes are stranded:
        /// that is the contract the relay's pump loop keeps. A registration
        /// reports readiness that predates it at the next wait. There is no
        /// deregistration: closing an fd (one that was never duplicated)
        /// drops it from the set, which is how the relay retires its
        /// sockets.
        pub fn register(&self, fd: RawFd, token: u64, writes: bool) -> io::Result<()> {
            let out = if writes { EPOLLOUT } else { 0 };
            self.ctl(EPOLL_CTL_ADD, fd, RELAY_EDGES | out, token)
        }

        /// Add write edges to a [`register`]ed socket registered without
        /// them. `EPOLL_CTL_MOD` polls the socket again, so room that
        /// opened after the write that met `EAGAIN` and before this call is
        /// reported at the next wait: no edge is lost in between.
        ///
        /// [`register`]: Reactor::register
        pub fn watch_writes(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, RELAY_EDGES | EPOLLOUT, token)
        }

        /// Register a listener level-triggered read-only: the reactor
        /// reports it at every wait while the accept backlog is non-empty,
        /// so a pass that accepts one connection strands none.
        pub fn register_read(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, EPOLLIN, token)
        }

        /// Disarm (`armed == false`) or re-arm a [`register_read`]
        /// registration: a level-triggered listener whose `accept` keeps
        /// failing would otherwise end every wait at once.
        ///
        /// [`register_read`]: Reactor::register_read
        pub fn arm_read(&self, fd: RawFd, token: u64, armed: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, if armed { EPOLLIN } else { 0 }, token)
        }

        /// Block up to `timeout_ms` (0 = poll, -1 = forever) for ready
        /// events, decoded into `out`. Returns the event count; EINTR
        /// reads as zero events.
        pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            out.clear();
            // SAFETY: `scratch` is EVENTS_PER_WAIT valid epoll_events;
            // the kernel writes at most that many.
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.scratch.as_mut_ptr(),
                    EVENTS_PER_WAIT as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(err);
            }
            for ev in &self.scratch[..n as usize] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    urgent: bits & EPOLLPRI != 0,
                });
            }
            Ok(n as usize)
        }

        /// Reset the wake eventfd so the next [`Waker::wake`] produces a
        /// fresh event. Coalesced wakes collapse into the one read.
        pub fn drain_wake(&self) {
            let mut buf: u64 = 0;
            // SAFETY: the fd is alive and `buf` is a valid 8-byte
            // buffer — the eventfd read contract (nonblocking: EAGAIN
            // when already drained is fine and ignored).
            unsafe {
                read(
                    self.wake.as_raw_fd(),
                    (&raw mut buf).cast::<core::ffi::c_void>(),
                    std::mem::size_of::<u64>(),
                )
            };
        }
    }

    /// Outcome of one splice attempt.
    #[derive(Debug)]
    pub enum Splice {
        /// Bytes moved kernel-to-kernel.
        Moved(usize),
        /// The source had nothing / the sink had no room right now.
        WouldBlock,
        /// The source reached end-of-stream.
        Eof,
        /// The kernel cannot splice these fds (`EINVAL`/`ENOSYS`):
        /// demote this relay to the copy path.
        Unsupported,
    }

    /// A nonblocking kernel pipe: the in-kernel staging buffer for one
    /// relay direction's zero-copy path. Pooled per worker and recycled
    /// across connections (a pipe outlives no worker, and a recycled
    /// pipe is always drained — `buffered == 0` — by construction).
    #[derive(Debug)]
    pub struct PipePair {
        rd: OwnedFd,
        wr: OwnedFd,
    }

    impl PipePair {
        /// Open a fresh `O_NONBLOCK | O_CLOEXEC` pipe, grown to
        /// [`PIPE_CAPACITY`] when the kernel allows (best-effort: the
        /// 64 KiB default still works, just slower).
        pub fn new() -> io::Result<PipePair> {
            let mut fds = [0i32; 2];
            // SAFETY: `fds` is a valid 2-slot buffer for pipe2's out-params.
            let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: fds[0] is the live pipe read end we just opened;
            // F_SETPIPE_SZ takes an integer argument, no pointers.
            unsafe {
                fcntl(fds[0], F_SETPIPE_SZ, PIPE_CAPACITY as i32);
            }
            Ok(PipePair {
                rd: owned(fds[0])?,
                wr: owned(fds[1])?,
            })
        }

        /// Drain up to `len` already-spliced bytes into `buf` (used when
        /// demoting a direction to the copy path: pipe contents must
        /// move to the userspace buffer, never be dropped). Pipe data is
        /// immediately readable, so a short read only means less was
        /// buffered than asked.
        pub fn drain_into(&self, buf: &mut [u8]) -> io::Result<usize> {
            // SAFETY: `buf` is a live unique borrow of `buf.len()` bytes.
            let n = unsafe { read(self.rd.as_raw_fd(), buf.as_mut_ptr().cast(), buf.len()) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::WouldBlock {
                    return Ok(0);
                }
                return Err(err);
            }
            Ok(n as usize)
        }
    }

    /// One nonblocking splice, classified. `EINTR` retries here so that
    /// `WouldBlock` always means a real `EAGAIN` — on the splice path the
    /// relay clears its "source may be readable" bit on nothing else, since
    /// a splice the pipe cut short says nothing about the socket.
    fn splice_once(
        fd_in: RawFd,
        fd_out: RawFd,
        len: usize,
        zero_is_eof: bool,
    ) -> io::Result<Splice> {
        loop {
            // SAFETY: both fds are alive (owned by the caller or its
            // pipe pair); null offsets are required for socket/pipe ends.
            let n = unsafe {
                splice(
                    fd_in,
                    std::ptr::null_mut(),
                    fd_out,
                    std::ptr::null_mut(),
                    len,
                    SPLICE_F_MOVE | SPLICE_F_NONBLOCK,
                )
            };
            if n > 0 {
                return Ok(Splice::Moved(n as usize));
            }
            if n == 0 {
                return Ok(if zero_is_eof {
                    Splice::Eof
                } else {
                    Splice::WouldBlock
                });
            }
            let err = io::Error::last_os_error();
            return match err.kind() {
                io::ErrorKind::Interrupted => continue,
                io::ErrorKind::WouldBlock => Ok(Splice::WouldBlock),
                _ if matches!(err.raw_os_error(), Some(EINVAL) | Some(ENOSYS)) => {
                    Ok(Splice::Unsupported)
                }
                _ => Err(err),
            };
        }
    }

    /// Splice up to `len` bytes from a socket into the pipe (the fill
    /// half). `Eof` means the peer half-closed.
    pub fn splice_to_pipe(src: RawFd, pipe: &PipePair, len: usize) -> io::Result<Splice> {
        splice_once(src, pipe.wr.as_raw_fd(), len, true)
    }

    /// Splice up to `len` buffered bytes from the pipe out to a socket
    /// (the flush half). `WouldBlock` is the destination's backpressure.
    pub fn splice_from_pipe(pipe: &PipePair, dst: RawFd, len: usize) -> io::Result<Splice> {
        splice_once(pipe.rd.as_raw_fd(), dst, len, false)
    }

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_STREAM: i32 = 1;
    // `SOCK_NONBLOCK`/`SOCK_CLOEXEC` equal `O_NONBLOCK`/`O_CLOEXEC`, and
    // like them (and `EINPROGRESS`) carry the asm-generic values on every
    // architecture this crate builds for (x86-64, aarch64).
    const SOCK_NONBLOCK: i32 = O_NONBLOCK;
    const SOCK_CLOEXEC: i32 = O_CLOEXEC;
    const EINPROGRESS: i32 = 115;

    /// Kernel ABI socket address, sized and aligned for `sockaddr_in6`
    /// (28 bytes; `sockaddr_in` uses the first 16). Linux lays both out
    /// identically on every architecture: native-endian `sa_family` at
    /// 0, big-endian port at 2, then the address — so the fields are
    /// written bytewise instead of through per-arch structs.
    #[repr(C, align(4))]
    struct SockAddr([u8; 28]);

    impl SockAddr {
        /// The address and the `socklen_t` the kernel expects with it.
        fn encode(addr: &SocketAddr) -> (SockAddr, u32) {
            let mut b = [0u8; 28];
            b[2..4].copy_from_slice(&addr.port().to_be_bytes());
            let len = match addr {
                SocketAddr::V4(a) => {
                    b[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                    b[4..8].copy_from_slice(&a.ip().octets());
                    16
                }
                SocketAddr::V6(a) => {
                    b[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                    b[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
                    b[8..24].copy_from_slice(&a.ip().octets());
                    b[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
                    28
                }
            };
            (SockAddr(b), len)
        }

        /// `None` for a family other than IPv4/IPv6 (no TCP listener
        /// yields one).
        fn decode(&self) -> Option<SocketAddr> {
            let b = &self.0;
            let port = u16::from_be_bytes([b[2], b[3]]);
            let word = |at: usize| u32::from_ne_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
            match u16::from_ne_bytes([b[0], b[1]]) {
                AF_INET => Some(SocketAddr::from(([b[4], b[5], b[6], b[7]], port))),
                AF_INET6 => {
                    let mut ip = [0u8; 16];
                    ip.copy_from_slice(&b[8..24]);
                    Some(SocketAddr::V6(SocketAddrV6::new(
                        ip.into(),
                        port,
                        word(4),
                        word(24),
                    )))
                }
                _ => None,
            }
        }
    }

    extern "C" {
        fn accept4(fd: i32, addr: *mut SockAddr, len: *mut u32, flags: i32) -> i32;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const SockAddr, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddr, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const i32, len: u32) -> i32;
    }

    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_OOBINLINE: i32 = 10;
    const SO_REUSEPORT: i32 = 15;
    const IPPROTO_TCP: i32 = 6;
    const TCP_NODELAY: i32 = 1;
    /// Connections the kernel queues per listener before refusing more
    /// (capped by `net.core.somaxconn`): what a worker that stops
    /// accepting can fall behind by.
    const LISTEN_BACKLOG: i32 = 1024;

    /// A fresh nonblocking TCP socket for `addr`'s family, owned at once
    /// so every later failure closes it.
    fn tcp_socket(addr: &SocketAddr) -> io::Result<OwnedFd> {
        let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        // SAFETY: plain syscall, no pointers.
        owned(unsafe { socket(family as i32, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })
    }

    /// Switch on each boolean socket option `(level, name)` of `fd`.
    fn set_options(fd: RawFd, options: &[(i32, i32)]) -> io::Result<()> {
        let on: i32 = 1;
        for &(level, name) in options {
            // SAFETY: `on` is a live 4-byte option value for the call.
            if unsafe { setsockopt(fd, level, name, &on, 4) } < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }

    /// A nonblocking listener on `addr` that is a member of the
    /// `SO_REUSEPORT` group of every other listener so bound there: the
    /// kernel places each new connection on one member's accept queue.
    /// `TCP_NODELAY` and `SO_OOBINLINE` are set here once, and accepted
    /// sockets inherit them: an urgent byte a client sends is read in
    /// stream order, not skipped.
    pub fn listen_reuseport(addr: &SocketAddr) -> io::Result<TcpListener> {
        let sock = tcp_socket(addr)?;
        let (sa, len) = SockAddr::encode(addr);
        set_options(
            sock.as_raw_fd(),
            &[
                (SOL_SOCKET, SO_REUSEADDR),
                (SOL_SOCKET, SO_REUSEPORT),
                (SOL_SOCKET, SO_OOBINLINE),
                (IPPROTO_TCP, TCP_NODELAY),
            ],
        )?;
        let fd = sock.as_raw_fd();
        // SAFETY: `sa` holds `len` initialised bytes of a sockaddr for the
        // socket's family and outlives the call; `listen` takes no pointer.
        if unsafe { bind(fd, &sa, len) < 0 || listen(fd, LISTEN_BACKLOG) < 0 } {
            return Err(io::Error::last_os_error());
        }
        Ok(TcpListener::from(sock))
    }

    /// `accept4(SOCK_NONBLOCK | SOCK_CLOEXEC)`: the accepted stream is
    /// already nonblocking and the peer address comes back from the same
    /// syscall, so the worker needs no `fcntl`/`getpeername` after it.
    pub fn accept_nonblocking(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        loop {
            let mut addr = SockAddr([0; 28]);
            let mut len = std::mem::size_of::<SockAddr>() as u32;
            // SAFETY: the listener fd is alive for the borrow; `addr`
            // and `len` are live out-params, `len` holding `addr`'s size.
            let fd = unsafe {
                accept4(
                    listener.as_raw_fd(),
                    &mut addr,
                    &mut len,
                    SOCK_NONBLOCK | SOCK_CLOEXEC,
                )
            };
            if fd < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            // SAFETY: `fd` is a fresh socket returned by accept4 that
            // nothing else owns.
            let stream = unsafe { TcpStream::from_raw_fd(fd) };
            let peer = addr
                .decode()
                .ok_or_else(|| io::Error::from(io::ErrorKind::InvalidData))?;
            return Ok((stream, peer));
        }
    }

    /// Start a TCP connect that never blocks: `socket(SOCK_NONBLOCK |
    /// SOCK_CLOEXEC)`, `SO_OOBINLINE` (a backend's urgent byte stays in
    /// the stream), then `connect`, where `EINPROGRESS` is success.
    /// The caller registers the stream with its [`Reactor`] and reads
    /// the verdict with [`TcpStream::take_error`] (`SO_ERROR`) on the
    /// first writable/closed event — which also fires for a connect
    /// that completed before registration, so both cases take one path.
    pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
        let (sa, len) = SockAddr::encode(addr);
        let stream = TcpStream::from(tcp_socket(addr)?);
        set_options(stream.as_raw_fd(), &[(SOL_SOCKET, SO_OOBINLINE)])?;
        // SAFETY: `sa` holds `len` initialised bytes of a sockaddr for
        // the socket's family and outlives the call.
        let rc = unsafe { connect(stream.as_raw_fd(), &sa, len) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            // EINTR on a nonblocking connect leaves it running in the
            // kernel exactly like EINPROGRESS.
            if err.raw_os_error() != Some(EINPROGRESS) && err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(stream)
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clk: i32, tp: *mut Timespec) -> i32;
    }

    /// CPU time consumed by the calling thread, in nanoseconds — a real
    /// syscall, unlike the vDSO wall clocks, so the relay workers sample
    /// it at most once a millisecond. It lets [`crate::relay::
    /// RelayStats`] report bytes moved *per CPU-second* — the metric
    /// where zero-copy shows up even when the wire itself (e.g.
    /// loopback) is memcpy-bound on both endpoints.
    pub fn thread_cpu_ns() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` outlives the call; CLOCK_THREAD_CPUTIME_ID is
        // valid on every Linux the workspace targets.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::io;
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::os::fd::RawFd;

    /// Event token reserved for the reactor's own wake eventfd.
    pub const WAKE_TOKEN: u64 = u64::MAX;

    /// Event token a worker's listener is registered under.
    pub const LISTEN_TOKEN: u64 = u64::MAX - 1;

    /// Capacity the Linux implementation requests for splice pipes —
    /// kept here so capacity-derived sizing compiles everywhere.
    pub const PIPE_CAPACITY: usize = 1 << 20;

    /// One decoded readiness event (never produced on this platform).
    #[derive(Clone, Copy, Debug)]
    pub struct Event {
        /// The registration token.
        pub token: u64,
        /// Readiness to read.
        pub readable: bool,
        /// Readiness to write.
        pub writable: bool,
        /// Peer gone.
        pub closed: bool,
        /// Urgent mark pending.
        pub urgent: bool,
    }

    /// Stub: wake channels require Linux.
    #[derive(Clone, Debug)]
    pub struct Waker(std::convert::Infallible);

    impl Waker {
        /// Unreachable on non-Linux targets (no constructor succeeds).
        pub fn wake(&self) {
            match self.0 {}
        }
    }

    /// Stub: epoll requires Linux.
    #[derive(Debug)]
    pub struct Reactor(std::convert::Infallible);

    impl Reactor {
        /// Always fails on non-Linux targets.
        pub fn new() -> io::Result<Reactor> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll reactor requires Linux",
            ))
        }

        /// Unreachable on non-Linux targets.
        pub fn waker(&self) -> Waker {
            match self.0 {}
        }

        /// Unreachable on non-Linux targets.
        pub fn register(&self, _fd: RawFd, _token: u64, _writes: bool) -> io::Result<()> {
            match self.0 {}
        }

        /// Unreachable on non-Linux targets.
        pub fn watch_writes(&self, _fd: RawFd, _token: u64) -> io::Result<()> {
            match self.0 {}
        }

        /// Unreachable on non-Linux targets.
        pub fn register_read(&self, _fd: RawFd, _token: u64) -> io::Result<()> {
            match self.0 {}
        }

        /// Unreachable on non-Linux targets.
        pub fn arm_read(&self, _fd: RawFd, _token: u64, _armed: bool) -> io::Result<()> {
            match self.0 {}
        }

        /// Unreachable on non-Linux targets.
        pub fn wait(&mut self, _out: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<usize> {
            match self.0 {}
        }

        /// Unreachable on non-Linux targets.
        pub fn drain_wake(&self) {
            match self.0 {}
        }
    }

    /// Outcome of one splice attempt (never produced on this platform).
    #[derive(Debug)]
    pub enum Splice {
        /// Bytes moved kernel-to-kernel.
        Moved(usize),
        /// Nothing to move right now.
        WouldBlock,
        /// Source end-of-stream.
        Eof,
        /// Kernel cannot splice these fds.
        Unsupported,
    }

    /// Stub: splice pipes require Linux.
    #[derive(Debug)]
    pub struct PipePair(std::convert::Infallible);

    impl PipePair {
        /// Always fails on non-Linux targets.
        pub fn new() -> io::Result<PipePair> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "splice pipes require Linux",
            ))
        }

        /// Unreachable on non-Linux targets.
        pub fn drain_into(&self, _buf: &mut [u8]) -> io::Result<usize> {
            match self.0 {}
        }
    }

    /// Unreachable on non-Linux targets (no [`PipePair`] exists).
    pub fn splice_to_pipe(_src: RawFd, pipe: &PipePair, _len: usize) -> io::Result<Splice> {
        match pipe.0 {}
    }

    /// Unreachable on non-Linux targets (no [`PipePair`] exists).
    pub fn splice_from_pipe(pipe: &PipePair, _dst: RawFd, _len: usize) -> io::Result<Splice> {
        match pipe.0 {}
    }

    /// Always fails on non-Linux targets: no LB starts without it.
    pub fn listen_reuseport(_addr: &SocketAddr) -> io::Result<TcpListener> {
        Err(io::ErrorKind::Unsupported.into())
    }

    /// Portable stand-in for `accept4(SOCK_NONBLOCK)`: accept, then
    /// switch the stream to nonblocking.
    pub fn accept_nonblocking(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
        let (stream, peer) = listener.accept()?;
        stream.set_nonblocking(true)?;
        Ok((stream, peer))
    }

    /// Always fails on non-Linux targets: only a reactor worker connects
    /// this way, and no [`Reactor`] exists here.
    pub fn connect_nonblocking(_addr: &SocketAddr) -> io::Result<TcpStream> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "nonblocking connect requires the Linux reactor",
        ))
    }

    /// Stub: per-thread CPU accounting is only wired up on Linux.
    pub fn thread_cpu_ns() -> u64 {
        0
    }
}

pub use imp::{
    accept_nonblocking, connect_nonblocking, listen_reuseport, splice_from_pipe, splice_to_pipe,
    thread_cpu_ns, Event, PipePair, Reactor, Splice, Waker, LISTEN_TOKEN, PIPE_CAPACITY,
    WAKE_TOKEN,
};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_wakes_and_drains() {
        let mut r = Reactor::new().expect("epoll");
        let mut events = Vec::new();
        // Nothing pending: a zero-timeout wait returns no events.
        assert_eq!(r.wait(&mut events, 0).unwrap(), 0);
        let w = r.waker();
        w.wake();
        w.wake(); // coalesces into the same eventfd counter
        let n = r.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, WAKE_TOKEN);
        assert!(events[0].readable);
        r.drain_wake();
        assert_eq!(r.wait(&mut events, 0).unwrap(), 0, "drained wake re-fires");
        // A post-drain wake produces a fresh event.
        w.wake();
        assert_eq!(r.wait(&mut events, 1000).unwrap(), 1);
    }

    #[test]
    fn socket_readiness_is_edge_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut r = Reactor::new().expect("epoll");
        r.register(server.as_raw_fd(), 7, true).unwrap();
        let mut events = Vec::new();
        // Registration reports the initial writable edge.
        let n = r.wait(&mut events, 1000).unwrap();
        assert!(n >= 1);
        assert!(events.iter().all(|e| e.token == 7));

        client.write_all(b"ping").unwrap();
        let n = r.wait(&mut events, 1000).unwrap();
        assert!(n >= 1, "no event for arriving bytes");
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        drop(client); // peer close → EPOLLRDHUP/EPOLLHUP edge
        let n = r.wait(&mut events, 1000).unwrap();
        assert!(n >= 1, "no event for peer close");
        assert!(events.iter().any(|e| e.token == 7 && e.closed));
    }

    #[test]
    fn write_edges_are_reported_only_once_watched() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut r = Reactor::new().expect("epoll");
        r.register(server.as_raw_fd(), 7, false).unwrap();
        let mut events = Vec::new();
        // Room in the send buffer is no news to a read-side registration.
        assert_eq!(r.wait(&mut events, 50).unwrap(), 0);
        // Watching re-polls: room that was already there is reported.
        r.watch_writes(server.as_raw_fd(), 7).unwrap();
        assert_eq!(r.wait(&mut events, 1000).unwrap(), 1);
        assert!(events[0].token == 7 && events[0].writable);

        // Fill the send buffer: no room, no edge — until the peer reads.
        let chunk = [0x42u8; 64 * 1024];
        let mut sent = 0;
        loop {
            match server.write(&chunk) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("write: {e}"),
            }
        }
        assert_eq!(r.wait(&mut events, 50).unwrap(), 0, "writable while full");
        let reader = std::thread::spawn(move || {
            let mut got = 0;
            let mut buf = vec![0u8; 64 * 1024];
            while let Ok(n @ 1..) = (&client).read(&mut buf) {
                got += n;
            }
            got
        });
        assert!(r.wait(&mut events, 5000).unwrap() >= 1, "no edge for room");
        assert!(events.iter().all(|e| e.token == 7) && events.iter().any(|e| e.writable));
        drop(server);
        assert_eq!(reader.join().unwrap(), sent);
    }

    #[test]
    fn listener_registration_is_level_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut r = Reactor::new().expect("epoll");
        r.register_read(listener.as_raw_fd(), 3).unwrap();
        let _c = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        // Level-triggered: while the backlog is non-empty, every wait
        // reports readiness — accepting one per report strands nothing.
        for _ in 0..2 {
            let n = r.wait(&mut events, 1000).unwrap();
            assert_eq!(n, 1);
            assert!(events[0].readable && events[0].token == 3);
        }
    }

    #[test]
    fn splice_moves_socket_bytes_through_a_pipe() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let listener2 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr2 = listener2.local_addr().unwrap();
        let client2 = TcpStream::connect(addr2).unwrap();
        let (sink, _) = listener2.accept().unwrap();
        sink.set_nonblocking(true).unwrap();

        let pipe = PipePair::new().expect("pipe2");
        // Empty source: would-block, not EOF.
        assert!(matches!(
            splice_to_pipe(server.as_raw_fd(), &pipe, 4096).unwrap(),
            Splice::WouldBlock
        ));
        client.write_all(b"zero-copy").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let n = match splice_to_pipe(server.as_raw_fd(), &pipe, 4096).unwrap() {
            Splice::Moved(n) => n,
            other => panic!("expected Moved, got {other:?}"),
        };
        assert_eq!(n, 9);
        let m = match splice_from_pipe(&pipe, sink.as_raw_fd(), n).unwrap() {
            Splice::Moved(m) => m,
            other => panic!("expected Moved, got {other:?}"),
        };
        assert_eq!(m, 9);
        let mut got = [0u8; 16];
        let mut c2 = client2;
        c2.set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let r = c2.read(&mut got).unwrap();
        assert_eq!(&got[..r], b"zero-copy");

        // Peer half-close reads as Eof through splice.
        client.shutdown(std::net::Shutdown::Write).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!(
            splice_to_pipe(server.as_raw_fd(), &pipe, 4096).unwrap(),
            Splice::Eof
        ));
    }

    #[test]
    fn nonblocking_accept_and_connect_complete_through_events() {
        // Both address families cross the hand-written sockaddr layout in
        // both directions (connect encodes, accept decodes).
        for bind in ["127.0.0.1:0", "[::1]:0"] {
            let Ok(listener) = TcpListener::bind(bind) else {
                eprintln!("SKIP: cannot bind {bind}");
                continue;
            };
            listener.set_nonblocking(true).unwrap();
            let addr = listener.local_addr().unwrap();
            let mut r = Reactor::new().expect("epoll");
            let out = connect_nonblocking(&addr).expect("connect starts");
            r.register(out.as_raw_fd(), 9, true).unwrap();
            let mut events = Vec::new();
            // Success is an event, never a blocked call.
            assert!(r.wait(&mut events, 1000).unwrap() >= 1);
            assert!(events.iter().any(|e| e.token == 9 && e.writable));
            assert!(
                out.take_error().unwrap().is_none(),
                "SO_ERROR after connect"
            );
            let (inn, peer) = accept_nonblocking(&listener).expect("accept");
            assert_eq!(
                peer,
                out.local_addr().unwrap(),
                "{bind}: peer decoded wrong"
            );
            // SOCK_NONBLOCK took: an empty read is EAGAIN, not a hang.
            let mut byte = [0u8; 1];
            let err = (&inn).read(&mut byte).expect_err("nothing was sent");
            assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
            let err = accept_nonblocking(&listener).expect_err("backlog is empty");
            assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);

            // Refusal is the call's own error when loopback delivers the
            // RST inside `connect`, else a closed event with the errno in
            // SO_ERROR.
            drop(listener);
            let err = match connect_nonblocking(&addr) {
                Err(e) => e,
                Ok(out) => {
                    r.register(out.as_raw_fd(), 11, true).unwrap();
                    loop {
                        assert!(r.wait(&mut events, 1000).unwrap() >= 1, "no refusal event");
                        if events.iter().any(|e| e.token == 11 && e.closed) {
                            break;
                        }
                    }
                    out.take_error().unwrap().expect("SO_ERROR set")
                }
            };
            assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
        }
    }

    #[test]
    fn pipe_drain_recovers_buffered_bytes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let pipe = PipePair::new().unwrap();
        client.write_all(b"stranded").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let n = match splice_to_pipe(server.as_raw_fd(), &pipe, 4096).unwrap() {
            Splice::Moved(n) => n,
            other => panic!("expected Moved, got {other:?}"),
        };
        // The copy-path demotion move: buffered pipe bytes must come
        // back out intact through a plain read.
        let mut buf = [0u8; 64];
        let got = pipe.drain_into(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"stranded");
        assert_eq!(got, n);
        assert_eq!(pipe.drain_into(&mut buf).unwrap(), 0, "pipe not empty");
    }
}
