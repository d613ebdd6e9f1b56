//! What the harness reads from the operating system: process CPU time and
//! context switches (`getrusage`), peak memory and thread count
//! (`/proc/self/status`), a shared monotonic clock, and the host facts that
//! go into every result's provenance block.

use std::sync::OnceLock;
use std::time::Instant;

static BASE: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call. Client threads and rig backends share
/// one process, so stamps from both sides are on one clock.
pub fn now_ns() -> u64 {
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock, oublock,
    /// msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin this process — the load balancer, the rig and the clients, which all
/// start as threads of it afterwards — to the highest-numbered CPU it may
/// run on, and return that CPU; `None` if the kernel refuses.
///
/// Why: on the authoring host (a 2-vCPU microVM without a cpuidle driver) an
/// idle vCPU halts, so every cross-CPU wake-up is a round trip through the
/// hypervisor whose cost depends on the host's load. Spread over both vCPUs
/// the socket workloads were no faster and three to ten times noisier run to
/// run; on one CPU every hand-off is a local context switch. The highest CPU
/// is the one furthest from the kernel's own housekeeping on CPU 0.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `size` bytes; pid 0 is
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `size` bytes naming one CPU the
    // thread was already allowed on.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// CPU time the calling thread has consumed, seconds.
pub fn thread_cpu_s() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable `struct timespec`; the thread CPU-time
    // clock exists on every Linux this harness builds for.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 / 1e9
}

/// Process-wide resource use so far.
#[derive(Clone, Copy, Default)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
}

impl Rusage {
    pub fn now() -> Rusage {
        let mut raw = RawRusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            longs: [0; 14],
        };
        // SAFETY: `raw` is a live, writable `struct rusage` of the layout
        // 64-bit Linux defines; RUSAGE_SELF (0) is always a valid target.
        let rc = unsafe { getrusage(0, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        Rusage {
            user_s: raw.utime.sec as f64 + raw.utime.usec as f64 / 1e6,
            sys_s: raw.stime.sec as f64 + raw.stime.usec as f64 / 1e6,
            ctx_switches: (raw.longs[12] + raw.longs[13]) as u64,
        }
    }

    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

fn status_field(name: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn rss_peak_mib() -> f64 {
    status_field("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Threads alive in this process right now.
pub fn threads() -> f64 {
    status_field("Threads:").unwrap_or(0.0)
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

fn env_or_unknown(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unknown".into())
}

/// Host and build facts recorded with every result, so a number can be
/// traced to the machine and the build that produced it.
pub struct Provenance {
    /// CPUs the process could run on before it pinned itself.
    pub nproc: usize,
    /// The one CPU a run pins itself to; -1 before that, or if it failed.
    pub pinned_cpu: i64,
    pub cpu_model: String,
    pub kernel: String,
    pub commit: String,
    pub rustc: String,
    /// `cargo` or `rustc-stubs`; numbers from different modes are not comparable.
    pub build_mode: String,
    pub tcp_tw_reuse: String,
    pub port_range: (u64, u64),
}

impl Provenance {
    pub fn collect() -> Provenance {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown".into(), |m| m.trim().to_string());
        let range = read_trim("/proc/sys/net/ipv4/ip_local_port_range");
        let mut bounds = range.split(' ').filter_map(|p| p.parse::<u64>().ok());
        let port_range = (bounds.next().unwrap_or(0), bounds.next().unwrap_or(0));
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pinned_cpu: -1,
            cpu_model,
            kernel: read_trim("/proc/sys/kernel/osrelease"),
            commit: env_or_unknown("HERMES_E2E_COMMIT"),
            rustc: env_or_unknown("HERMES_E2E_RUSTC"),
            build_mode: env_or_unknown("HERMES_E2E_BUILD_MODE"),
            tcp_tw_reuse: read_trim("/proc/sys/net/ipv4/tcp_tw_reuse"),
            port_range,
        }
    }

    /// Every op of a connection-per-op workload leaves a client port in
    /// TIME_WAIT for a minute. Without `tcp_tw_reuse` the range must hold
    /// them all, or the kernel refuses connects and the run would report
    /// port exhaustion as load-balancer failures.
    pub fn ports_cover(&self, connections: u64) -> bool {
        self.tcp_tw_reuse != "0" || self.port_range.1 - self.port_range.0 >= connections
    }
}
