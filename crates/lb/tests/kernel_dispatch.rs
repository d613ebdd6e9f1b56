//! The kernel against the oracle: the Algorithm 2 program attached to a
//! real `SO_REUSEPORT` group must put every connection on the listener
//! `ReuseportGroup` (the same program on the checked interpreter) names for
//! the hash the kernel dispatched on — at one group, and at two (§7), where
//! the native `ConnDispatcher` names the same one — run once per connection by
//! the kernel's own count, steer a whole load balancer's connections around
//! a worker that is held, and carry a 128-worker one's through both groups.
//!
//! Needs `bpf(2)`. Where the kernel refuses it a test prints
//! `SKIP: bpf(2) refused (<errno>)` and returns: `scripts/ci.sh` turns that
//! line into a SKIP row, it is not a pass.
#![cfg(target_os = "linux")]

use hermes_core::hash::reciprocal_scale;
use hermes_core::{ConnDispatcher, WorkerBitmap};
use hermes_ebpf::kernel::{enable_stats, refused, KernelDispatch};
use hermes_ebpf::ReuseportGroup;
use hermes_lb::reactor::{accept_nonblocking, listen_reuseport};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 8;
const CONNECTS: usize = 200;

/// Connect once and return the index of the listener the kernel queued
/// the connection on — exactly one of them. The client then closes with a
/// reset while the accepted end is still open, so neither end enters
/// `TIME_WAIT` and no later packet of the connection reaches the listening
/// port: the program runs for the test's own SYNs and nothing else. (When
/// the host's `TIME_WAIT` table is full, a server socket that closed first
/// is freed at once, and its peer's FIN then meets the listener and runs
/// the program again — one to three stray runs a test after a socket
/// benchmark.)
fn connect_and_find(listeners: &[TcpListener]) -> usize {
    let addr = listeners[0].local_addr().unwrap();
    let client = TcpStream::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut took = Vec::new();
    while took.is_empty() {
        assert!(Instant::now() < deadline, "no listener got the connection");
        took = (0..listeners.len())
            .filter_map(|w| Some((w, accept_nonblocking(&listeners[w]).ok()?)))
            .collect();
    }
    let on: Vec<usize> = took.iter().map(|&(w, _)| w).collect();
    assert_eq!(on.len(), 1, "one connection on listeners {on:?}");
    close_with_reset(client);
    on[0]
}

/// Close `stream` abortively (`SO_LINGER` on, zero seconds): the kernel
/// sends a reset and keeps no `TIME_WAIT` state.
fn close_with_reset(stream: TcpStream) {
    #[repr(C)]
    struct Linger {
        on: i32,
        seconds: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger { on: 1, seconds: 0 };
    let len = std::mem::size_of::<Linger>() as u32;
    // SAFETY: `linger` is a live `struct linger` for the call, `len` its size.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), SOL_SOCKET, SO_LINGER, &linger, len) };
    assert_eq!(rc, 0, "SO_LINGER: {}", std::io::Error::last_os_error());
}

/// A reuseport group of `workers` listeners with the program attached — or,
/// where the kernel refuses `bpf(2)`, the SKIP line and `None`.
fn attached_group(workers: usize) -> Option<(Vec<TcpListener>, KernelDispatch)> {
    let first = listen_reuseport(&"127.0.0.1:0".parse().unwrap()).expect("bind");
    let addr = first.local_addr().unwrap();
    let mut listeners = vec![first];
    for _ in 1..workers {
        listeners.push(listen_reuseport(&addr).expect("join the group"));
    }
    let fds: Vec<_> = listeners.iter().map(AsRawFd::as_raw_fd).collect();
    match KernelDispatch::attach(&fds) {
        Ok(kernel) => Some((listeners, kernel)),
        Err(e) if refused(&e) => {
            println!("SKIP: bpf(2) refused ({e})");
            None
        }
        Err(e) => panic!("bpf(2) is allowed, attaching is not: {e}"),
    }
}

#[test]
fn the_kernel_places_where_the_oracle_says() {
    let Some((listeners, kernel)) = attached_group(WORKERS) else {
        return;
    };
    let oracle = ReuseportGroup::new(WORKERS);
    let publish = |bitmap: WorkerBitmap| {
        kernel.sync_bitmap(bitmap);
        oracle.sync_bitmap(bitmap);
    };

    // Two or more candidates: the program selects, and selects the
    // oracle's worker for the hash it recorded.
    let steering = [
        WorkerBitmap::from_workers([1, 4]),
        WorkerBitmap::from_workers([0, 7]),
        WorkerBitmap::from_workers([2, 3, 5]),
        WorkerBitmap::from_workers([0, 2, 5, 6, 7]),
        WorkerBitmap::from_workers([1, 2, 3, 4, 5, 6, 7]),
        WorkerBitmap::all(WORKERS),
    ];
    for bitmap in steering {
        publish(bitmap);
        let (directed, fallback) = kernel.counters();
        let mut used = WorkerBitmap::EMPTY;
        for _ in 0..CONNECTS {
            let took = connect_and_find(&listeners);
            let want = oracle.dispatch(kernel.last_hash());
            assert!(want.is_directed(), "{bitmap:?}: the oracle fell back");
            assert_eq!(
                took,
                want.worker(),
                "{bitmap:?} hash {:#x}",
                kernel.last_hash()
            );
            used.insert(took);
        }
        assert_eq!(used, bitmap, "{CONNECTS} hashes never reached a candidate");
        let counted = (directed + CONNECTS as u64, fallback);
        assert_eq!(kernel.counters(), counted, "{bitmap:?}");
    }

    // At most one candidate: the program selects nothing, and the
    // kernel's own reuseport hash spreads over every listener.
    for bitmap in [WorkerBitmap::EMPTY, WorkerBitmap::from_workers([3])] {
        publish(bitmap);
        let (directed, fallback) = kernel.counters();
        let mut per_listener = [0usize; WORKERS];
        for _ in 0..CONNECTS {
            per_listener[connect_and_find(&listeners)] += 1;
            assert!(!oracle.dispatch(kernel.last_hash()).is_directed());
        }
        assert!(
            per_listener.iter().all(|&n| n > 0),
            "{bitmap:?}: hash placement left a listener out: {per_listener:?}"
        );
        let counted = (directed, fallback + CONNECTS as u64);
        assert_eq!(kernel.counters(), counted, "{bitmap:?}");
    }
}

/// §7 on real sockets: 96 listeners are two groups of 48. Level 1 picks
/// the group by hash and level 2 runs Algorithm 2 on that group's own
/// bitmap, and where a group has at most one candidate the program commits
/// the group's own hash pick — so every placement is the interpreter's and
/// the native two-level oracle's, fallbacks included.
#[test]
fn the_kernel_places_two_groups_where_both_oracles_say() {
    const LISTENERS: usize = 96;
    const SIZE: usize = 48;
    let Some((listeners, kernel)) = attached_group(LISTENERS) else {
        return;
    };
    let bytecode = ReuseportGroup::new(LISTENERS);
    let native = ConnDispatcher::new(SIZE);
    let publish = |group: usize, bitmap: WorkerBitmap| {
        kernel.publish(group, bitmap);
        bytecode.publish(group, bitmap);
    };

    // Per-group steering, one group at a time down to a single candidate.
    let steering = [
        [
            WorkerBitmap::from_workers([1, 4, 40]),
            WorkerBitmap::from_workers([0, 47]),
        ],
        [
            WorkerBitmap::all(SIZE),
            WorkerBitmap::from_workers([5, 6, 7, 30]),
        ],
        [WorkerBitmap::from_workers([3]), WorkerBitmap::all(SIZE)],
        [WorkerBitmap::from_workers([9, 10]), WorkerBitmap::EMPTY],
    ];
    for bitmaps in steering {
        bitmaps.iter().enumerate().for_each(|(g, &b)| publish(g, b));
        let (directed, fallback) = kernel.counters();
        let mut steered = 0;
        for _ in 0..CONNECTS {
            let took = connect_and_find(&listeners);
            let hash = kernel.last_hash();
            let (want, placed) = (bytecode.dispatch(hash), native.dispatch(&bitmaps, hash));
            assert_eq!(took, want.worker(), "{bitmaps:?} hash {hash:#x}");
            assert_eq!(want, placed, "{bitmaps:?} hash {hash:#x}");
            if want.is_directed() {
                assert!(bitmaps[took / SIZE].contains(took % SIZE));
                steered += 1;
            }
        }
        let counted = (directed + steered, fallback + CONNECTS as u64 - steered);
        assert_eq!(kernel.counters(), counted, "{bitmaps:?}");
    }

    // Full bitmaps: every listener of both groups is reached.
    kernel.sync_bitmap(WorkerBitmap::all(SIZE));
    let mut per_listener = [0usize; LISTENERS];
    for _ in 0..2_000 {
        per_listener[connect_and_find(&listeners)] += 1;
    }
    assert!(
        per_listener.iter().all(|&n| n > 0),
        "a listener was never reached: {per_listener:?}"
    );

    // No candidates anywhere: every placement stays in its level-1 group,
    // and each is counted as a fallback.
    kernel.sync_bitmap(WorkerBitmap::EMPTY);
    let (directed, fallback) = kernel.counters();
    for _ in 0..CONNECTS {
        let took = connect_and_find(&listeners);
        let hash = kernel.last_hash();
        assert_eq!(
            took / SIZE,
            reciprocal_scale(hash, 2) as usize,
            "hash {hash:#x}"
        );
    }
    assert_eq!(kernel.counters(), (directed, fallback + CONNECTS as u64));
}

#[test]
fn the_kernel_counts_one_run_per_connection() {
    let Some((listeners, kernel)) = attached_group(WORKERS) else {
        return;
    };
    // Counted from here on, for as long as the fd is open.
    let _stats = enable_stats().expect("bpf(2) is allowed, BPF_ENABLE_STATS is not");
    assert_eq!(kernel.run_stats().expect("bpf_prog_info"), (0, 0));
    for bitmap in [WorkerBitmap::all(WORKERS), WorkerBitmap::EMPTY] {
        kernel.sync_bitmap(bitmap);
        for _ in 0..CONNECTS {
            connect_and_find(&listeners);
        }
    }
    // The program's own two counters, in its map, against the kernel's.
    let (directed, fallback) = kernel.counters();
    assert_eq!((directed, fallback), (CONNECTS as u64, CONNECTS as u64));
    let (run_cnt, run_time_ns) = kernel.run_stats().expect("bpf_prog_info");
    assert_eq!(run_cnt, directed + fallback);
    assert!(run_time_ns > 0, "{run_cnt} runs took no time");
}

/// Clear the calling thread's effective capabilities (threads it spawns
/// inherit that), so `bpf(2)` answers `EPERM` as it does to a process
/// without `CAP_BPF` + `CAP_NET_ADMIN`. Permitted ones stay: nothing else
/// in the process changes. (Only where `capget`'s number is known here.)
#[cfg(any(
    target_arch = "x86_64",
    target_arch = "aarch64",
    target_arch = "riscv64"
))]
fn drop_effective_capabilities() {
    extern "C" {
        fn syscall(num: i64, ...) -> i64;
    }
    #[cfg(target_arch = "x86_64")]
    const SYS_CAPGET: i64 = 125;
    #[cfg(not(target_arch = "x86_64"))]
    const SYS_CAPGET: i64 = 90; // asm-generic
    const SYS_CAPSET: i64 = SYS_CAPGET + 1;
    // `_LINUX_CAPABILITY_VERSION_3`, this thread.
    let header: [u32; 2] = [0x2008_0522, 0];
    // Two words of {effective, permitted, inheritable}.
    let mut data = [[0u32; 3]; 2];
    // SAFETY: `header` and `data` are live and laid out as the kernel's
    // `__user_cap_header_struct` and `__user_cap_data_struct[2]`.
    assert_eq!(unsafe { syscall(SYS_CAPGET, &header, &mut data) }, 0);
    data[0][0] = 0;
    data[1][0] = 0;
    // SAFETY: as above; the kernel only reads both.
    assert_eq!(unsafe { syscall(SYS_CAPSET, &header, &data) }, 0);
}

#[cfg(any(
    target_arch = "x86_64",
    target_arch = "aarch64",
    target_arch = "riscv64"
))]
#[test]
fn without_bpf_the_kernels_hash_places_and_the_lb_says_so() {
    use hermes_lb::prelude::*;
    use hermes_lb::server::Dispatch;
    use std::io::{Read, Write};
    use std::sync::atomic::Ordering;

    drop_effective_capabilities();
    let mut router = Router::new();
    router.add_rule(Rule::new().pool("web"));
    let mut proxy = Proxy::new(router);
    proxy.add_pool("web", vec![Box::new(EchoUpstream::new("web-0"))]);
    let lb = TcpLb::start("127.0.0.1:0", 4, proxy).expect("listeners need no capability");
    let Dispatch::HashOnly(refusal) = lb.dispatch() else {
        panic!("bpf(2) was not refused: {}", lb.dispatch());
    };
    assert_eq!(refusal.kind(), std::io::ErrorKind::PermissionDenied);
    assert!(lb.dispatch().to_string().starts_with("hash-only ("));

    // The same accept path: every worker serves what the kernel's hash
    // puts on its listener, and each accept counts as a fallback.
    for i in 0..64 {
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write!(s, "GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
    }
    let stats = std::sync::Arc::clone(lb.stats());
    lb.shutdown();
    let accepted: Vec<u64> = stats
        .accepted
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    assert_eq!(accepted.iter().sum::<u64>(), 64);
    assert!(accepted.iter().all(|&n| n > 0), "{accepted:?}");
    assert_eq!(stats.fallback.load(Ordering::Relaxed), 64);
    assert_eq!(stats.directed.load(Ordering::Relaxed), 0);
}

/// A connection the program places is one a free worker serves: a worker
/// held inside a request (run-to-completion) drops out of the bitmap once
/// its loop entry is a hang threshold old, and gets nothing more.
#[test]
fn a_held_worker_is_steered_around() {
    use hermes_core::sched::SchedConfig;
    use hermes_lb::prelude::*;
    use hermes_lb::server::Dispatch;
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const WORKERS: usize = 4;
    let mut router = Router::new();
    router.add_rule(Rule::new().pool("web"));
    let mut proxy = Proxy::new(router);
    proxy.add_pool("web", vec![Box::new(EchoUpstream::new("web-0"))]);
    let lb = TcpLb::start("127.0.0.1:0", WORKERS, proxy)
        .expect("bpf(2) is refused or the program attaches");
    if let Dispatch::HashOnly(refusal) = lb.dispatch() {
        println!("SKIP: bpf(2) refused ({refusal})");
        return lb.shutdown();
    }
    let addr = lb.local_addr();
    let accepted = |w: usize| lb.stats().accepted[w].load(Ordering::Relaxed);
    let placed = || {
        let stats = lb.stats();
        stats.directed.load(Ordering::Relaxed) + stats.fallback.load(Ordering::Relaxed)
    };

    // The trickling client: a request head that never ends, a header line
    // at a time and each inside the worker's read timeout.
    let release = Arc::new(AtomicBool::new(false));
    let trickler = {
        let release = Arc::clone(&release);
        std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /held HTTP/1.1\r\nHost: t\r\n").unwrap();
            while !release.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
                s.write_all(b"X-Trickle: drip\r\n")
                    .expect("the worker gave up on the trickle");
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    let held = loop {
        assert!(
            Instant::now() < deadline,
            "the trickling client was never accepted"
        );
        if let Some(w) = (0..WORKERS).find(|&w| accepted(w) == 1) {
            break w;
        }
        std::thread::yield_now();
    };
    let (before, held_at) = (placed(), Instant::now());

    // `held`'s one connection already puts it over the average + θ, so its
    // bit is clear from the first pass after the accept; only its hang keeps
    // it out once the free workers carry connections too. From a hang
    // threshold after the accept, every pass of a free worker's scheduler
    // leaves it out as hung. Empty the word then, so that the next word a
    // scheduler stores (an idle worker's wait is bounded at 5 ms) is one of
    // those passes', and wait for a word without `held`'s bit and with the
    // free workers in it (at most one candidate would fall back to the
    // kernel's hash).
    let Dispatch::Ebpf(kernel) = lb.dispatch() else {
        unreachable!("the program is attached")
    };
    let hang = Duration::from_nanos(SchedConfig::default().hang_threshold_ns);
    std::thread::sleep(hang);
    kernel.publish(0, WorkerBitmap::EMPTY);
    loop {
        let word = kernel.bitmap(0);
        if !word.contains(held) && word.count() > 1 {
            break;
        }
        assert!(
            held_at.elapsed() < Duration::from_secs(2),
            "2 s after worker {held} was held the program reads {word}: \
             bit {held} set, or at most one candidate"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for i in 0..64 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write!(s, "GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        assert!(
            out.starts_with("HTTP/1.1 200 OK"),
            "connection {i}: {out:?}"
        );
    }
    assert_eq!(accepted(held), 1, "the held worker was given a connection");
    assert_eq!(placed() - before, 64);
    let elsewhere: u64 = (0..WORKERS).filter(|&w| w != held).map(accepted).sum();
    assert_eq!(elsewhere, 64);
    release.store(true, Ordering::SeqCst);
    trickler.join().unwrap();
    lb.shutdown();
}

/// The paper's rule on a whole load balancer: 128 workers are two groups of
/// 64, each worker's scheduler publishing its own group's word, and the
/// program places every connection in one of them.
#[test]
fn a_128_worker_relay_steers_through_both_groups() {
    use hermes_lb::prelude::*;
    use hermes_lb::server::Dispatch;
    use std::io::{Read, Write};
    use std::sync::atomic::Ordering;

    const CONNECTIONS: u64 = 500;
    let backend = TcpListener::bind("127.0.0.1:0").unwrap();
    let lb = RelayLb::start("127.0.0.1:0", 128, vec![backend.local_addr().unwrap()])
        .expect("bpf(2) is refused or the program attaches");
    if let Dispatch::HashOnly(refusal) = lb.dispatch() {
        println!("SKIP: bpf(2) refused ({refusal})");
        return lb.shutdown();
    }
    let echo = std::thread::spawn(move || {
        for _ in 0..CONNECTIONS {
            let (mut s, _) = backend.accept().expect("backend accept");
            let mut chunk = [0u8; 64];
            while let Ok(n @ 1..) = s.read(&mut chunk) {
                s.write_all(&chunk[..n]).unwrap();
            }
        }
    });
    // The first bitmaps: each group's word is non-empty once one of its
    // workers' schedulers has stored.
    let Dispatch::Ebpf(kernel) = lb.dispatch() else {
        unreachable!("the program is attached")
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    while kernel.bitmap(0).is_empty() || kernel.bitmap(1).is_empty() {
        assert!(
            Instant::now() < deadline,
            "a group's bitmap is still empty after 2 s: {} {}",
            kernel.bitmap(0),
            kernel.bitmap(1)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for i in 0..CONNECTIONS {
        let mut s = TcpStream::connect(lb.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let ping = i.to_le_bytes();
        s.write_all(&ping).unwrap();
        let mut pong = [0u8; 8];
        s.read_exact(&mut pong)
            .unwrap_or_else(|e| panic!("connection {i} was not echoed: {e}"));
        assert_eq!(pong, ping);
    }
    echo.join().unwrap();
    let stats = Arc::clone(lb.stats());
    lb.shutdown();
    let placed = stats.directed.load(Ordering::Relaxed) + stats.fallback.load(Ordering::Relaxed);
    assert_eq!(placed, CONNECTIONS);
    let accepted: Vec<u64> = stats
        .accepted
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    assert_eq!(accepted.iter().sum::<u64>(), CONNECTIONS);
    for group in accepted.chunks(64) {
        assert!(
            group.iter().sum::<u64>() > 0,
            "a group accepted nothing: {accepted:?}"
        );
    }
    assert!(
        stats.directed.load(Ordering::Relaxed) > 0,
        "nothing was steered"
    );
}
