//! The kernel against the oracle: the Algorithm 2 program attached to a
//! real `SO_REUSEPORT` group must put every connection on the listener
//! `DispatchPlane::bytecode` names for the hash the kernel dispatched on.
//!
//! Needs `bpf(2)`. Where the kernel refuses it the test prints
//! `SKIP: bpf(2) refused (<errno>)` and returns: `scripts/ci.sh` turns that
//! line into a SKIP row, it is not a pass.
#![cfg(target_os = "linux")]

use hermes_core::sdk::SyncTarget;
use hermes_core::WorkerBitmap;
use hermes_ebpf::kernel::{refused, KernelDispatch};
use hermes_ebpf::DispatchPlane;
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

#[test]
fn the_kernel_places_where_the_oracle_says() {
    let first = listen_reuseport(&"127.0.0.1:0".parse().unwrap()).expect("bind");
    let addr = first.local_addr().unwrap();
    let mut listeners = vec![first];
    for _ in 1..WORKERS {
        listeners.push(listen_reuseport(&addr).expect("join the group"));
    }
    let fds: Vec<_> = listeners.iter().map(AsRawFd::as_raw_fd).collect();
    let kernel = match KernelDispatch::attach(&fds) {
        Ok(kernel) => kernel,
        Err(e) if refused(&e) => {
            println!("SKIP: bpf(2) refused ({e})");
            return;
        }
        Err(e) => panic!("bpf(2) is allowed, attaching is not: {e}"),
    };
    let oracle = DispatchPlane::bytecode(1, WORKERS);
    let publish = |bitmap: WorkerBitmap| {
        kernel.sync(bitmap);
        oracle.sync(0, bitmap);
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
            assert!(want.directed, "{bitmap:?}: the oracle fell back");
            assert_eq!(
                took,
                want.worker,
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
            assert!(!oracle.dispatch(kernel.last_hash()).directed);
        }
        assert!(
            per_listener.iter().all(|&n| n > 0),
            "{bitmap:?}: hash placement left a listener out: {per_listener:?}"
        );
        let counted = (directed, fallback + CONNECTS as u64);
        assert_eq!(kernel.counters(), counted, "{bitmap:?}");
    }
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
