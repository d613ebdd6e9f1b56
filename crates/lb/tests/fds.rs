//! What a load balancer does to its process's fd table, and what an
//! exhausted fd table does to it. Both tests look at (or change) state of
//! the whole process, so they live in a test binary of their own and take
//! turns.
#![cfg(target_os = "linux")]

use hermes_lb::prelude::*;
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static PROCESS_WIDE: Mutex<()> = Mutex::new(());

/// Numbers of the process's open fds (the one reading the directory
/// included, in every call alike).
fn open_fds() -> Vec<i32> {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .map(|e| e.unwrap().file_name().to_str().unwrap().parse().unwrap())
        .collect()
}

/// Mappings of the process, and how many of them are bpf maps.
fn mappings() -> (usize, usize) {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
    let bpf = maps.lines().filter(|l| l.contains("bpf-map")).count();
    (maps.lines().count(), bpf)
}

#[test]
fn start_and_shutdown_leave_no_fd_and_no_mapping_behind() {
    let _turn = PROCESS_WIDE.lock().unwrap_or_else(|e| e.into_inner());
    // Never connected to: no relay is ever admitted.
    let backend: SocketAddr = "127.0.0.1:1".parse().unwrap();
    let cycle = || {
        let lb = RelayLb::start("127.0.0.1:0", 4, vec![backend]).expect("bind");
        println!("dispatch mode: {}", lb.dispatch());
        lb.shutdown();
    };
    // The first threads leave their stacks in the allocator's cache.
    (0..4).for_each(|_| cycle());
    let (fds, (maps, _)) = (open_fds().len(), mappings());
    (0..50).for_each(|_| cycle());
    assert_eq!(
        open_fds().len(),
        fds,
        "a listener, epoll set, map or program fd leaked"
    );
    let (maps_after, bpf_maps) = mappings();
    assert_eq!(bpf_maps, 0, "a bitmap map is still mapped");
    assert!(
        maps_after <= maps + 2,
        "{maps} mappings before 50 start/shutdown cycles, {maps_after} after"
    );
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut [u64; 2]) -> i32;
    fn setrlimit(resource: i32, rlim: *const [u64; 2]) -> i32;
}
const RLIMIT_NOFILE: i32 = 7;

/// Set the soft fd limit, returning the `[soft, hard]` pair it replaced.
fn set_fd_limit(soft: u64) -> [u64; 2] {
    let mut old = [0u64; 2];
    // SAFETY: `old` is a live `struct rlimit` (two 64-bit words) out-param.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut old) }, 0);
    let new = [soft, old[1]];
    // SAFETY: `new` is a live `struct rlimit` for the duration of the call.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &new) }, 0);
    old
}

#[test]
fn fd_exhaustion_neither_spins_the_worker_nor_stalls_its_relays() {
    let _turn = PROCESS_WIDE.lock().unwrap_or_else(|e| e.into_inner());
    // An echo backend serving one connection: relay A's.
    let backend = TcpListener::bind("127.0.0.1:0").unwrap();
    let backend_addr = backend.local_addr().unwrap();
    let echo = std::thread::spawn(move || {
        let (mut s, _) = backend.accept().expect("backend accept");
        drop(backend);
        let mut chunk = [0u8; 64];
        while let Ok(n @ 1..) = s.read(&mut chunk) {
            s.write_all(&chunk[..n]).unwrap();
        }
    });
    let lb = RelayLb::start("127.0.0.1:0", 1, vec![backend_addr]).expect("bind");
    let rstats = std::sync::Arc::clone(lb.relay_stats());
    let mut a = TcpStream::connect(lb.local_addr()).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    a.set_nodelay(true).unwrap();
    let (ping, mut pong) = ([0x42u8; 64], [0u8; 64]);
    let mut echo_once = |a: &mut TcpStream| {
        a.write_all(&ping).unwrap();
        a.read_exact(&mut pong)
            .expect("relay A stopped moving bytes");
    };
    echo_once(&mut a);

    // Fill every hole in the fd table, then leave room for exactly one
    // more fd: client B's socket. The worker's accept4 finds none.
    let top = *open_fds().iter().max().unwrap();
    let mut filler = Vec::new();
    let top = loop {
        let f = File::open("/dev/null").unwrap();
        let fd = f.as_raw_fd();
        filler.push(f);
        if fd > top {
            break fd;
        }
    };
    let old = set_fd_limit(top as u64 + 2);
    let b = TcpStream::connect(lb.local_addr()).expect("the one free fd");
    let refused = File::open("/dev/null").expect_err("the fd table is full");
    assert_eq!(refused.raw_os_error(), Some(24), "EMFILE");

    // While accept fails: relay A keeps echoing (the worker is neither
    // asleep nor starved), B stays queued, and a worker with nothing to
    // do burns no CPU on a listener that is always ready.
    let held = Instant::now();
    let mut echoes = 0;
    while held.elapsed() < Duration::from_millis(100) {
        echo_once(&mut a);
        echoes += 1;
    }
    assert!(echoes >= 10, "{echoes} echoes in 100 ms of back-off");
    let cpu = rstats.cpu_ns.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(200));
    let burnt = Duration::from_nanos(rstats.cpu_ns.load(Ordering::Relaxed) - cpu);
    assert!(
        burnt < Duration::from_millis(40),
        "the worker burnt {burnt:?} of CPU across 200 idle ms of back-off"
    );
    b.set_nonblocking(true).unwrap();
    let err = b
        .peek(&mut [0u8; 1])
        .expect_err("B was accepted without an fd");
    assert_eq!(err.kind(), ErrorKind::WouldBlock);
    assert_eq!(lb.stats().accepted[0].load(Ordering::Relaxed), 1);

    // Fds are back: accepting resumes within a back-off. B's relay finds
    // the one-connection backend gone and is closed — which is an answer.
    set_fd_limit(old[0]);
    drop(filler);
    b.set_nonblocking(false).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!((&b).read(&mut [0u8; 1]).expect("B never accepted"), 0);
    assert_eq!(lb.stats().accepted[0].load(Ordering::Relaxed), 2);
    echo_once(&mut a);
    drop(a);
    lb.shutdown();
    echo.join().unwrap();
}
