//! The kernel against the oracle: the Algorithm 2 program attached to a
//! real `SO_REUSEPORT` group must put every connection on the listener
//! `ReuseportGroup` (the same program on the checked interpreter) names for
//! the hash the kernel dispatched on, run once per connection by the
//! kernel's own count, and steer a whole load balancer's connections around
//! a worker that is held.
//!
//! Needs `bpf(2)`. Where the kernel refuses it a test prints
//! `SKIP: bpf(2) refused (<errno>)` and returns: `scripts/ci.sh` turns that
//! line into a SKIP row, it is not a pass.
#![cfg(target_os = "linux")]

use hermes_core::sdk::SyncTarget;
use hermes_core::WorkerBitmap;
use hermes_ebpf::kernel::{enable_stats, refused, KernelDispatch};
use hermes_ebpf::ReuseportGroup;
use hermes_lb::reactor::{accept_nonblocking, listen_reuseport};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

const WORKERS: usize = 8;
const CONNECTS: usize = 200;

/// Connect once and return the index of the listener the kernel queued
/// the connection on — exactly one of them.
fn connect_and_find(listeners: &[TcpListener]) -> usize {
    let addr = listeners[0].local_addr().unwrap();
    let _client = TcpStream::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut took = Vec::new();
    while took.is_empty() {
        assert!(Instant::now() < deadline, "no listener got the connection");
        took = (0..listeners.len())
            .filter(|&w| accept_nonblocking(&listeners[w]).is_ok())
            .collect();
    }
    assert_eq!(took.len(), 1, "one connection on listeners {took:?}");
    took[0]
}

/// A reuseport group of [`WORKERS`] listeners with the program attached —
/// or, where the kernel refuses `bpf(2)`, the SKIP line and `None`.
fn attached_group() -> Option<(Vec<TcpListener>, KernelDispatch)> {
    let first = listen_reuseport(&"127.0.0.1:0".parse().unwrap()).expect("bind");
    let addr = first.local_addr().unwrap();
    let mut listeners = vec![first];
    for _ in 1..WORKERS {
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
    let Some((listeners, kernel)) = attached_group() else {
        return;
    };
    let oracle = ReuseportGroup::new(WORKERS);
    let publish = |bitmap: WorkerBitmap| {
        kernel.sync(bitmap);
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

#[test]
fn the_kernel_counts_one_run_per_connection() {
    let Some((listeners, kernel)) = attached_group() else {
        return;
    };
    // Counted from here on, for as long as the fd is open.
    let _stats = enable_stats().expect("bpf(2) is allowed, BPF_ENABLE_STATS is not");
    assert_eq!(kernel.run_stats().expect("bpf_prog_info"), (0, 0));
    for bitmap in [WorkerBitmap::all(WORKERS), WorkerBitmap::EMPTY] {
        kernel.sync(bitmap);
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
    let before = placed();

    // One hang threshold and one scheduler period (an idle worker's wait
    // is bounded at 5 ms) later, every bitmap published leaves `held` out.
    let hang = Duration::from_nanos(SchedConfig::default().hang_threshold_ns);
    std::thread::sleep(hang + Duration::from_millis(5));
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
