//! The socket workloads: closed-loop clients in this process drive a fresh
//! load balancer per epoch over loopback TCP and check every reply.
//!
//! All loops are closed (a caller sends its next op when the previous one
//! completed): the authoring host has two cores, and an open-loop generator
//! with enough connections in flight to hold a schedule would be the largest
//! CPU consumer in the run.
//!
//! Every client alternates short turns **through the load balancer** and
//! **directly to a rig backend** with the same op. The direct turns are the
//! reference: the host's speed for this kind of work drifts by a quarter
//! within minutes, the two lanes feel it alike because they interleave every
//! 50 ms, and the end-to-end metrics are the load balancer's figures relative
//! to the direct ones.

use crate::rig::{self, Backend, BackendLog, Kind, BULK_BYTES, MSG};
use crate::spans::{self, ClientConn, ClientStamp};
use crate::stats::{cv, Hist, SplitMix};
use crate::sys::{self, now_ns, Rusage};
use crate::EpochOut;
use hermes_lb::prelude::{EchoUpstream, Proxy, RelayLb, Router, Rule, TcpLb};
use hermes_lb::relay::RelayStats;
use hermes_lb::server::LbStats;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{IpAddr, Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relay workers; HTTP workers. With 8 HTTP workers a stalled one leaves the
/// candidate set above the dispatch fallback floor; with 4 it does not and
/// probes hash onto the stalled worker several times per episode.
const RELAY_WORKERS: usize = 4;
const HTTP_WORKERS: usize = 8;
const CLIENT_THREADS: u64 = 2;
/// How long a client stays on one lane before it turns to the other (it
/// finishes the op in hand first, so a bulk transfer is a turn of its own).
const TURN: Duration = Duration::from_millis(50);
/// Messages each keep-alive connection keeps outstanding.
const KEEPALIVE_WINDOW: usize = 16;
/// The second keep-alive client opens its connections this much later, so
/// that where they land depends on the WST connection filter and not on
/// port-hash luck.
const KEEPALIVE_STAGGER: Duration = Duration::from_millis(100);
/// An op that takes this long is failed rather than waited for.
const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// A probe waits this long for its reply before it is counted as having hit
/// the stalled worker and set aside (it is still read and checked later).
const PROBE_GIVE_UP: Duration = Duration::from_millis(20);
const STALL_HOLD: Duration = Duration::from_millis(400);
const STALL_PAUSE: Duration = Duration::from_millis(100);
const STALL_TRICKLE: Duration = Duration::from_millis(50);
/// Router rules: 32 prefixes over 4 pools, and the catch-all.
pub const PREFIX_RULES: u64 = 32;
const POOLS: u64 = 4;
const EADDRNOTAVAIL: i32 = 99;
/// Loopback addresses a connection-per-op client spreads its connections
/// over. A closed connection leaves its (source port, destination) pair in
/// TIME_WAIT, and `connect` walks the port range past every pair younger
/// than a second. At 20 k connections a second to one destination that walk
/// covered most of the range and took milliseconds — unless the kernel's
/// TIME_WAIT table happened to be full, in which case it keeps no new
/// entries — so the same code ran 40 % slower after a minute's idle than
/// right after another run. Sixteen destinations keep the walk short in
/// either state.
const LOOPBACK_ADDRS: u64 = 16;
/// The load balancer listens on every address so that all of those reach it.
const LISTEN: &str = "0.0.0.0:0";
/// Thread field of the op ids of direct keep-alive connections and of set-up.
const DIRECT_IDS: u64 = 0x80;
const SETUP_IDS: u64 = 0xff;

#[derive(Clone, Copy, PartialEq)]
pub enum Workload {
    Churn,
    Keepalive,
    BulkUp,
    BulkDown,
    HttpStall,
}

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        Some(match name {
            "churn" => Workload::Churn,
            "keepalive" => Workload::Keepalive,
            "bulk_up" => Workload::BulkUp,
            "bulk_down" => Workload::BulkDown,
            "http_stall" => Workload::HttpStall,
            _ => return None,
        })
    }
}

pub struct Cx<'a> {
    pub seed: u64,
    pub epoch: u64,
    pub traced: bool,
    pub epoch_len: Duration,
    pub block: &'a Arc<Vec<u8>>,
}

impl Cx<'_> {
    /// Op ids are unique within a run: epoch, client thread, sequence.
    fn op_id(&self, thread: u64, n: u64) -> u64 {
        (self.epoch << 48) | (thread << 40) | n
    }

    /// The same context for ops that leave no stamps: set-up, and the direct
    /// lane (the spans are the load balancer's).
    fn untraced(&self) -> Cx<'_> {
        Cx {
            traced: false,
            ..*self
        }
    }
}

/// Where op `op` connects: `port` on one of `LOOPBACK_ADDRS` loopback
/// addresses, in rotation.
fn target(port: u16, op: u64) -> SocketAddr {
    let host = 1 + (op % LOOPBACK_ADDRS) as u8;
    SocketAddr::from(([127, 0, 0, host], port))
}

/// What one client measured on one lane.
#[derive(Default)]
struct Lane {
    lat: Hist,
    attempted: u64,
    failed: u64,
    eaddrnotavail: u64,
    /// Sum of op latencies, to derive the gap between ops.
    busy_ns: u64,
    /// Time spent in this lane's turns.
    turn_ns: u64,
    bytes_up: u64,
    bytes_down: u64,
    /// Probes set aside at `PROBE_GIVE_UP`.
    late: u64,
    ops: Vec<ClientStamp>,
    conns: Vec<ClientConn>,
    /// Local addresses of the connections opened (traced epochs).
    locals: Vec<SocketAddr>,
    first_error: Option<String>,
}

impl Lane {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        self.first_error.get_or_insert_with(what);
    }

    fn done(&mut self, latency_ns: u64) {
        self.lat.record(latency_ns);
        self.busy_ns += latency_ns;
    }

    fn verified(&self) -> u64 {
        self.attempted.saturating_sub(self.failed)
    }
}

/// One client's two lanes.
#[derive(Default)]
struct ClientOut {
    lb: Lane,
    direct: Lane,
}

/// Run `turn(direct, until)` alternately on the two lanes, starting through
/// the load balancer, each until `TURN` from its start, up to `deadline`; the
/// time of each turn goes to its lane.
fn alternate(
    out: &mut ClientOut,
    deadline: Instant,
    mut turn: impl FnMut(bool, Instant, &mut Lane),
) {
    let mut direct = false;
    while Instant::now() < deadline {
        let lane = if direct { &mut out.direct } else { &mut out.lb };
        let start = Instant::now();
        turn(direct, (start + TURN).min(deadline), lane);
        lane.turn_ns += start.elapsed().as_nanos() as u64;
        direct = !direct;
    }
}

/// Connect, counting (and retrying after) `EADDRNOTAVAIL`: running out of
/// client ports is the rig's limit, not a load-balancer failure.
fn connect(addr: SocketAddr, lane: &mut Lane) -> io::Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Err(e) if e.raw_os_error() == Some(EADDRNOTAVAIL) && lane.eaddrnotavail < 1000 => {
                lane.eaddrnotavail += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            other => return other,
        }
    }
}

fn open(cx: &Cx, port: u16, op: u64, lane: &mut Lane) -> io::Result<(TcpStream, u64)> {
    let t0 = now_ns();
    let stream = connect(target(port, op), lane)?;
    let t1 = now_ns();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(OP_TIMEOUT))?;
    if cx.traced {
        lane.conns.push(ClientConn {
            first_op: op,
            t0,
            t1,
        });
        lane.locals.push(stream.local_addr()?);
    }
    Ok((stream, t0))
}

/// Record a finished connection-per-op exchange: latency from `t0` to `t5`,
/// and in a traced epoch its stamps (`t_send` is the connection's `t1`).
fn close_op(cx: &Cx, stream: TcpStream, op: u64, t0: u64, t5: u64, lane: &mut Lane) {
    drop(stream);
    lane.done(t5 - t0);
    if cx.traced {
        let t_send = lane.conns.last().map_or(t0, |c| c.t1);
        lane.ops.push(ClientStamp {
            op,
            t_send,
            t5,
            t_close: now_ns(),
        });
    }
}

// --- churn -------------------------------------------------------------------

/// connect → 64 B → 64 B echo compared byte for byte → close.
fn echo_op(cx: &Cx, port: u16, op: u64, lane: &mut Lane) {
    lane.attempted += 1;
    let (mut msg, mut back) = ([0u8; MSG], [0u8; MSG]);
    rig::fill_msg(cx.seed, op, &mut msg);
    let exchange = open(cx, port, op, lane).and_then(|(mut s, t0)| {
        s.write_all(&msg)?;
        s.read_exact(&mut back)?;
        Ok((s, t0, now_ns()))
    });
    match exchange {
        Ok((s, t0, t5)) if back == msg => {
            lane.bytes_up += MSG as u64;
            lane.bytes_down += MSG as u64;
            close_op(cx, s, op, t0, t5, lane);
        }
        Ok(_) => lane.fail(|| format!("op {op:#x}: echo differs from what was sent")),
        Err(e) => lane.fail(|| format!("op {op:#x}: {e}")),
    }
}

/// The ports a client's two lanes connect to.
#[derive(Clone, Copy)]
struct Ports {
    lb: u16,
    direct: u16,
}

impl Ports {
    fn of(self, direct: bool) -> u16 {
        if direct {
            self.direct
        } else {
            self.lb
        }
    }
}

fn churn_client(cx: &Cx, ports: Ports, thread: u64, deadline: Instant) -> ClientOut {
    let mut out = ClientOut::default();
    let plain = cx.untraced();
    let mut n = 0;
    alternate(&mut out, deadline, |direct, until, lane| loop {
        let cx = if direct { &plain } else { cx };
        echo_op(cx, ports.of(direct), cx.op_id(thread, n), lane);
        n += 1;
        if Instant::now() >= until {
            break;
        }
    });
    out
}

// --- keepalive ---------------------------------------------------------------

/// One persistent connection carrying windows of `KEEPALIVE_WINDOW` messages.
struct Stream {
    s: TcpStream,
    /// Thread field of this connection's op ids.
    ids: u64,
    next_send: u64,
    next_recv: u64,
    sent_at: [u64; KEEPALIVE_WINDOW],
    outgoing: [u8; KEEPALIVE_WINDOW * MSG],
    incoming: [u8; KEEPALIVE_WINDOW * MSG],
    have: usize,
}

impl Stream {
    fn open(cx: &Cx, port: u16, ids: u64, lane: &mut Lane) -> io::Result<Stream> {
        let (s, _) = open(cx, port, cx.op_id(ids, 0), lane)?;
        Ok(Stream {
            s,
            ids,
            next_send: 0,
            next_recv: 0,
            sent_at: [0; KEEPALIVE_WINDOW],
            outgoing: [0; KEEPALIVE_WINDOW * MSG],
            incoming: [0; KEEPALIVE_WINDOW * MSG],
            have: 0,
        })
    }

    /// Fill the window, then check every echoed message and replace it with
    /// a new one until `until`; then let the window drain.
    fn turn(&mut self, cx: &Cx, until: Instant, lane: &mut Lane) -> io::Result<()> {
        const W: u64 = KEEPALIVE_WINDOW as u64;
        let mut expected = [0u8; MSG];
        let mut to_send = KEEPALIVE_WINDOW;
        loop {
            if to_send > 0 {
                for k in 0..to_send {
                    let op = cx.op_id(self.ids, self.next_send + k as u64);
                    rig::fill_msg(cx.seed, op, &mut self.outgoing[k * MSG..(k + 1) * MSG]);
                }
                let now = now_ns();
                self.s.write_all(&self.outgoing[..to_send * MSG])?;
                for _ in 0..to_send {
                    self.sent_at[(self.next_send % W) as usize] = now;
                    self.next_send += 1;
                }
                lane.attempted += to_send as u64;
                lane.bytes_up += (to_send * MSG) as u64;
            }
            if self.next_recv == self.next_send {
                return Ok(());
            }
            let n = self.s.read(&mut self.incoming[self.have..])?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.have += n;
            let now = now_ns();
            let whole = self.have / MSG;
            for k in 0..whole {
                let op = cx.op_id(self.ids, self.next_recv);
                rig::fill_msg(cx.seed, op, &mut expected);
                if self.incoming[k * MSG..(k + 1) * MSG] != expected {
                    lane.fail(|| format!("op {op:#x}: echo differs from what was sent"));
                } else {
                    let t_send = self.sent_at[(self.next_recv % W) as usize];
                    lane.done(now - t_send);
                    lane.bytes_down += MSG as u64;
                    if cx.traced {
                        lane.ops.push(ClientStamp {
                            op,
                            t_send,
                            t5: now,
                            t_close: 0,
                        });
                    }
                }
                self.next_recv += 1;
            }
            self.incoming.copy_within(whole * MSG..self.have, 0);
            self.have -= whole * MSG;
            to_send = if Instant::now() < until { whole } else { 0 };
        }
    }
}

/// Two persistent connections, one per lane, taking turns.
fn keepalive_client(cx: &Cx, ports: Ports, thread: u64, deadline: Instant) -> ClientOut {
    let mut out = ClientOut::default();
    let plain = cx.untraced();
    std::thread::sleep(KEEPALIVE_STAGGER * thread as u32);
    let through = Stream::open(cx, ports.lb, thread, &mut out.lb);
    let around = Stream::open(&plain, ports.direct, DIRECT_IDS | thread, &mut out.direct);
    match (through, around) {
        (Ok(mut through), Ok(mut around)) => {
            alternate(&mut out, deadline, |direct, until, lane| {
                let (cx, stream) = if direct {
                    (&plain, &mut around)
                } else {
                    (cx, &mut through)
                };
                if let Err(e) = stream.turn(cx, until, lane) {
                    // The connection is gone: every message still
                    // outstanding failed, and so will every later turn.
                    lane.failed += (stream.next_send - stream.next_recv).max(1);
                    stream.next_recv = stream.next_send;
                    lane.first_error
                        .get_or_insert(format!("keepalive connection {thread}: {e}"));
                }
            });
        }
        (through, around) => {
            for (lane, opened) in [(&mut out.lb, through), (&mut out.direct, around)] {
                if let Err(e) = opened {
                    lane.attempted += 1;
                    lane.fail(|| format!("keepalive connection {thread}: {e}"));
                }
            }
        }
    }
    out
}

// --- bulk --------------------------------------------------------------------

/// One transfer on its own connection. Upload: header, `bytes` of pattern,
/// half-close, then the sink's 16-byte acknowledgement (bytes received,
/// sampled words that differed). Download: header, then the pattern until
/// end of stream, checked here the same way.
fn bulk_op(cx: &Cx, port: u16, op: u64, upload: bool, bytes: u64, lane: &mut Lane) {
    lane.attempted += 1;
    let block = cx.block.as_slice();
    let transfer = open(cx, port, op, lane).and_then(|(mut s, t0)| {
        s.write_all(&rig::bulk_header(op, upload))?;
        let (count, bad) = if upload {
            for _ in 0..bytes / block.len() as u64 {
                s.write_all(block)?;
            }
            s.shutdown(Shutdown::Write)?;
            let mut ack = [0u8; 16];
            s.read_exact(&mut ack)?;
            (
                u64::from_le_bytes(ack[..8].try_into().expect("8 bytes")),
                u64::from_le_bytes(ack[8..].try_into().expect("8 bytes")),
            )
        } else {
            let mut buf = vec![0u8; 256 << 10];
            let (mut count, mut bad) = (0u64, 0u64);
            loop {
                let n = s.read(&mut buf)?;
                if n == 0 {
                    break (count, bad);
                }
                bad += rig::check_samples(block, count, &buf[..n]);
                count += n as u64;
            }
        };
        Ok((s, t0, now_ns(), count, bad))
    });
    match transfer {
        Ok((s, t0, t5, count, 0)) if count == bytes => {
            if upload {
                lane.bytes_up += count;
            } else {
                lane.bytes_down += count;
            }
            close_op(cx, s, op, t0, t5, lane);
        }
        Ok((_, _, _, count, bad)) => lane.fail(|| {
            format!("op {op:#x}: {count} of {bytes} bytes arrived, {bad} sampled words differ")
        }),
        Err(e) => lane.fail(|| format!("op {op:#x}: {e}")),
    }
}

fn bulk_client(cx: &Cx, ports: Ports, upload: bool, deadline: Instant) -> ClientOut {
    let mut out = ClientOut::default();
    let plain = cx.untraced();
    let mut n = 0;
    alternate(&mut out, deadline, |direct, until, lane| loop {
        let cx = if direct { &plain } else { cx };
        bulk_op(
            cx,
            ports.of(direct),
            cx.op_id(0, n),
            upload,
            BULK_BYTES,
            lane,
        );
        n += 1;
        if Instant::now() >= until {
            break;
        }
    });
    out
}

// --- what an epoch reports -------------------------------------------------------

/// Flow hash of a connection from `client` as the acceptor computes it: peer
/// address against the listener's own.
fn flow_hash(client: SocketAddr, lb: SocketAddr) -> u32 {
    let bits = |a: SocketAddr| match a.ip() {
        IpAddr::V4(v4) => u32::from(v4),
        IpAddr::V6(_) => 0,
    };
    hermes_core::FlowKey::new(bits(client), client.port(), bits(lb), lb.port()).hash()
}

struct Window {
    usage: Rusage,
    threads: f64,
}

/// One lane over all clients: ops a second while on that lane, and the
/// latency distribution.
struct LaneTotal {
    verified: f64,
    ops_per_s: f64,
    /// Mean time a client spent on this lane.
    turn_s: f64,
    lat: Hist,
}

fn lane_total<'a>(lanes: impl Iterator<Item = &'a Lane> + Clone) -> LaneTotal {
    let mut lat = Hist::default();
    lanes.clone().for_each(|l| lat.merge(&l.lat));
    let clients = lanes.clone().count().max(1) as f64;
    LaneTotal {
        verified: lanes.clone().map(Lane::verified).sum::<u64>().max(1) as f64,
        ops_per_s: lanes
            .clone()
            .map(|l| l.verified() as f64 / (l.turn_ns.max(1) as f64 / 1e9))
            .sum(),
        turn_s: lanes.map(|l| l.turn_ns as f64 / 1e9).sum::<f64>() / clients,
        lat,
    }
}

/// Totals over an epoch's clients, and the values every socket epoch reports
/// from them and from the process: the load balancer's lane (`e2e.*`), the
/// direct lane (`ref.*`), and the first relative to the second, which are the
/// end-to-end metrics. Returns the load balancer's lane.
fn common_values(
    setup_s: f64,
    clients: &[ClientOut],
    w: &Window,
    sequential: bool,
    out: &mut EpochOut,
) -> LaneTotal {
    let lanes = || clients.iter().flat_map(|c| [&c.lb, &c.direct]);
    out.attempted = lanes().map(|l| l.attempted).sum();
    out.failed = lanes().map(|l| l.failed).sum();
    if let Some(e) = lanes().find_map(|l| l.first_error.as_ref()) {
        out.problems.push(format!(
            "{} of {} ops failed, first: {e}",
            out.failed, out.attempted
        ));
    }
    let lb = lane_total(clients.iter().map(|c| &c.lb));
    let direct = lane_total(clients.iter().map(|c| &c.direct));
    let all = lb.verified + direct.verified;
    let (lb_p50, lb_p99) = (lb.lat.quantile(0.5), lb.lat.quantile(0.99));
    let (direct_p50, direct_p99) = (direct.lat.quantile(0.5), direct.lat.quantile(0.99));
    out.values.extend([
        ("setup_s", setup_s),
        ("rel_throughput", lb.ops_per_s / direct.ops_per_s),
        ("rel_p50", lb_p50 / direct_p50.max(1.0)),
        ("rel_p99", lb_p99 / direct_p99.max(1.0)),
        ("e2e.ops_per_s", lb.ops_per_s),
        ("e2e.op_p50_us", lb_p50 / 1e3),
        ("e2e.op_p99_us", lb_p99 / 1e3),
        ("ref.ops_per_s", direct.ops_per_s),
        ("ref.op_p50_us", direct_p50 / 1e3),
        ("ref.op_p99_us", direct_p99 / 1e3),
        ("proc.cpu_user_s", w.usage.user_s),
        ("proc.cpu_sys_s", w.usage.sys_s),
        ("proc.cpu_us_per_op", w.usage.cpu_s() * 1e6 / all),
        (
            "proc.ctx_switches_per_op",
            w.usage.ctx_switches as f64 / all,
        ),
        ("proc.threads", w.threads),
        (
            "rig.samples_beyond_p99",
            lb.lat.count_above(lb_p99 as u64) as f64,
        ),
        (
            "rig.eaddrnotavail",
            lanes().map(|l| l.eaddrnotavail).sum::<u64>() as f64,
        ),
        (
            "rig.fail_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        ),
    ]);
    if sequential {
        // Time a caller spent between one op ending and the next starting.
        let idle: u64 = clients
            .iter()
            .map(|c| c.lb.turn_ns.saturating_sub(c.lb.busy_ns))
            .sum();
        out.values
            .push(("rig.client_gap_us", idle as f64 / 1e3 / lb.verified));
    }
    lb
}

fn load(a: &AtomicU64) -> f64 {
    a.load(Ordering::Relaxed) as f64
}

/// Dispatch counters, common to both load balancers.
fn server_values(stats: &LbStats, values: &mut Vec<(&'static str, f64)>) {
    let accepted: Vec<f64> = stats.accepted.iter().map(load).collect();
    let dispatched = (load(&stats.directed) + load(&stats.fallback)).max(1.0);
    values.extend([
        ("lb.server.accepted", accepted.iter().sum()),
        (
            "lb.server.directed_frac",
            load(&stats.directed) / dispatched,
        ),
        ("lb.server.worker_spread_cv", cv(&accepted)),
    ]);
}

fn relay_values(relay: &RelayStats, lb: &LaneTotal, values: &mut Vec<(&'static str, f64)>) {
    const MIB: f64 = (1u64 << 20) as f64;
    let bytes = (load(&relay.bytes_up) + load(&relay.bytes_down)).max(1.0);
    let pumps = load(&relay.pumps);
    let cpu_s = load(&relay.cpu_ns) / 1e9;
    values.extend([
        ("lb.relay.cpu_us_per_op", cpu_s * 1e6 / lb.verified),
        ("lb.relay.pumps_per_op", pumps / lb.verified),
        ("lb.relay.bytes_per_pump", bytes / pumps.max(1.0)),
        (
            "lb.relay.splice_byte_frac",
            load(&relay.splice_bytes) / bytes,
        ),
        ("lb.relay.splice_fallbacks", load(&relay.splice_fallbacks)),
        ("lb.relay.connect_retries", load(&relay.connect_retries)),
        ("lb.relay.failed_connects", load(&relay.failed_connects)),
        ("lb.relay.cpu_s_per_GiB", cpu_s / (bytes / 1024.0 / MIB)),
        (
            "lb.relay.up_MiB_per_s",
            load(&relay.bytes_up) / MIB / lb.turn_s,
        ),
        (
            "lb.relay.down_MiB_per_s",
            load(&relay.bytes_down) / MIB / lb.turn_s,
        ),
    ]);
}

/// A traced epoch's spans: join the clients' stamps with the backends',
/// report the span quantiles, and keep the spans and the flow hashes.
fn trace_values(clients: &[ClientOut], backends: &BackendLog, lb: SocketAddr, out: &mut EpochOut) {
    let ops: Vec<ClientStamp> = clients
        .iter()
        .flat_map(|c| c.lb.ops.iter().copied())
        .collect();
    let conns: Vec<ClientConn> = clients
        .iter()
        .flat_map(|c| c.lb.conns.iter().copied())
        .collect();
    let j = spans::join(&ops, &conns, &backends.ops, &backends.conns);
    let spans_recorded: u64 = j.durations.values().map(Hist::count).sum();
    out.values.extend([
        ("span.connect_p50_us", j.p50_us("connect")),
        ("span.connect_p99_us", j.p99_us("connect")),
        ("span.admit_p50_us", j.p50_us("admit")),
        ("span.admit_p99_us", j.p99_us("admit")),
        ("span.relay_up_p50_us", j.p50_us("relay_up")),
        ("span.relay_up_p99_us", j.p99_us("relay_up")),
        ("span.backend_p50_us", j.p50_us("backend")),
        ("span.backend_p99_us", j.p99_us("backend")),
        ("span.relay_down_p50_us", j.p50_us("relay_down")),
        ("span.relay_down_p99_us", j.p99_us("relay_down")),
        ("span.teardown_p50_us", j.p50_us("teardown")),
        ("span.lb_serve_p50_us", j.p50_us("lb_serve")),
        ("rig.backend_us_p50", j.p50_us("backend")),
        (
            "rig.span_unordered_frac",
            j.unordered as f64 / spans_recorded.max(1) as f64,
        ),
    ]);
    out.flow_hashes = clients
        .iter()
        .flat_map(|c| c.lb.locals.iter().map(|&local| flow_hash(local, lb)))
        .collect();
    out.joined = Some(j);
}

// --- the relay epoch -----------------------------------------------------------

/// One epoch of a `RelayLb` workload: rig backends, a fresh load balancer,
/// one verified op to end set-up, then `epoch_len` of measured load.
fn relay_epoch(cx: &Cx, wl: Workload) -> io::Result<EpochOut> {
    let mut out = EpochOut {
        traced: cx.traced,
        ..EpochOut::default()
    };
    let kind = match wl {
        Workload::BulkUp | Workload::BulkDown => Kind::Bulk,
        _ => Kind::Echo,
    };
    let setup = Instant::now();
    let backends = [
        Backend::spawn(kind, cx.traced, cx.block)?,
        Backend::spawn(kind, cx.traced, cx.block)?,
    ];
    let lb = RelayLb::start(
        LISTEN,
        RELAY_WORKERS,
        backends.iter().map(Backend::loopback).collect(),
    )?;
    let addr = lb.local_addr();
    let mut first = Lane::default();
    let setup_op = cx.op_id(SETUP_IDS, 0);
    match kind {
        Kind::Bulk => bulk_op(&cx.untraced(), addr.port(), setup_op, true, 0, &mut first),
        _ => echo_op(&cx.untraced(), addr.port(), setup_op, &mut first),
    }
    let setup_s = setup.elapsed().as_secs_f64();
    if let Some(e) = first.first_error {
        out.problems.push(format!("set-up op failed: {e}"));
    }

    let before = Rusage::now();
    let deadline = Instant::now() + cx.epoch_len;
    // Client `t` takes its direct turns on backend `t`.
    let ports = |t: u64| Ports {
        lb: addr.port(),
        direct: backends[t as usize % backends.len()].loopback().port(),
    };
    let (clients, threads) = std::thread::scope(|s| {
        let handles: Vec<_> = match wl {
            Workload::Churn => (0..CLIENT_THREADS)
                .map(|t| s.spawn(move || churn_client(cx, ports(t), t, deadline)))
                .collect(),
            Workload::Keepalive => (0..CLIENT_THREADS)
                .map(|t| s.spawn(move || keepalive_client(cx, ports(t), t, deadline)))
                .collect(),
            _ => vec![s.spawn(move || bulk_client(cx, ports(0), wl == Workload::BulkUp, deadline))],
        };
        let threads = sys::threads();
        let clients: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (clients, threads)
    });
    let w = Window {
        usage: Rusage::now().since(&before),
        threads,
    };
    let (stats, relay) = (Arc::clone(lb.stats()), Arc::clone(lb.relay_stats()));
    lb.shutdown();
    let mut backend_log = BackendLog::default();
    for b in backends {
        backend_log.absorb(b.stop());
    }

    let through = common_values(setup_s, &clients, &w, wl != Workload::Keepalive, &mut out);
    server_values(&stats, &mut out.values);
    relay_values(&relay, &through, &mut out.values);

    // Output checks beyond the per-op comparisons the clients made. What
    // the relay moved beyond the clients' payload: the set-up op, and for
    // bulk a 16 B header up per op and a 16 B acknowledgement down per upload.
    let sent_up: u64 = clients.iter().map(|c| c.lb.bytes_up).sum();
    let sent_down: u64 = clients.iter().map(|c| c.lb.bytes_down).sum();
    let relayed_up = relay.bytes_up.load(Ordering::Relaxed);
    let relayed_down = relay.bytes_down.load(Ordering::Relaxed);
    let ops = clients.iter().map(|c| c.lb.verified()).sum::<u64>() + 1;
    let (extra_up, extra_down) = match wl {
        Workload::BulkUp => (16 * ops, 16 * ops),
        Workload::BulkDown => (16 * ops, 16),
        _ => (MSG as u64, MSG as u64),
    };
    if out.failed == 0
        && (relayed_up != sent_up + extra_up || relayed_down != sent_down + extra_down)
    {
        out.problems.push(format!(
            "byte counts differ: clients sent {sent_up} B up and read {sent_down} B down, \
             the relay moved {relayed_up} up and {relayed_down} down"
        ));
    }
    if backend_log.mismatches > 0 {
        out.problems.push(format!(
            "{} sampled words differed at the sink",
            backend_log.mismatches
        ));
    }
    if kind == Kind::Bulk && relay.splice_fallbacks.load(Ordering::Relaxed) > 0 {
        out.problems
            .push("lb.relay.splice_fallbacks is not 0".into());
    }
    if relay.failed_connects.load(Ordering::Relaxed) > 0 {
        out.problems
            .push("lb.relay.failed_connects is not 0".into());
    }

    if cx.traced {
        trace_values(&clients, &backend_log, addr, &mut out);
        let joined = out.joined.as_ref().expect("just joined");
        if joined.matched != joined.ops || joined.residual_ns != 0 {
            out.problems.push(format!(
                "spans do not tile: {} of {} ops matched backend stamps, residual {} ns",
                joined.matched, joined.ops, joined.residual_ns
            ));
        }
    }
    Ok(out)
}

// --- http_stall ----------------------------------------------------------------

/// The router every `http_stall` epoch serves: `/svcNN/` → `pool(NN mod 4)`
/// for 32 prefixes, and a catch-all to `pool0`.
pub fn http_router() -> Router {
    let mut router = Router::new();
    for i in 0..PREFIX_RULES {
        router.add_rule(
            Rule::new()
                .path_prefix(format!("/svc{i:02}/"))
                .pool(format!("pool{}", i % POOLS)),
        );
    }
    router.add_rule(Rule::new().pool("pool0"));
    router
}

pub fn http_proxy() -> Proxy {
    let mut proxy = Proxy::new(http_router());
    for p in 0..POOLS {
        proxy.add_pool(
            format!("pool{p}"),
            vec![Box::new(EchoUpstream::new(format!("up{p}")))],
        );
    }
    proxy
}

/// The `n`th probe of a seed: which rule it matches is drawn from the seed
/// (rule 32 is the catch-all). Returns the path, the request bytes, and the
/// exact reply the echo upstream of the matching pool must produce.
pub fn probe(seed: u64, n: u64) -> (String, Vec<u8>, Vec<u8>) {
    let mut rng = SplitMix(seed ^ n.wrapping_mul(0x9E6C_63D0_676A_9A99));
    let rule = rng.next() % (PREFIX_RULES + 1);
    let item = rng.next() % 100_000;
    let (path, pool) = if rule < PREFIX_RULES {
        (format!("/svc{rule:02}/item{item}"), rule % POOLS)
    } else {
        (format!("/misc/item{item}"), 0)
    };
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench.local\r\n\r\n").into_bytes();
    let body = format!("GET {path} via up{pool}");
    let reply = format!(
        "HTTP/1.1 200 OK\r\nx-upstream: up{pool}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();
    (path, request, reply)
}

/// A probe whose reply did not come within `PROBE_GIVE_UP`.
struct Parked {
    stream: TcpStream,
    op: u64,
    t0: u64,
    got: Vec<u8>,
    want: Vec<u8>,
}

/// Read until `want` bytes arrived; `Ok(false)` on a read time-out.
fn read_reply(s: &mut TcpStream, got: &mut Vec<u8>, want: usize) -> io::Result<bool> {
    let mut buf = [0u8; 512];
    while got.len() < want {
        match s.read(&mut buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(false)
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// connect → GET → the whole reply compared byte for byte → close. A probe
/// still waiting at `PROBE_GIVE_UP` has hit the stalled worker: it is counted
/// as late, half-closed and parked, and its caller moves on; the reply is
/// read and checked when the epoch ends, so no probe goes unverified.
fn probe_op(cx: &Cx, port: u16, direct: bool, op: u64, lane: &mut Lane, parked: &mut Vec<Parked>) {
    lane.attempted += 1;
    let (path, request, via_lb) = probe(cx.seed, op);
    let want = if direct {
        rig::direct_reply(&path)
    } else {
        via_lb
    };
    let mut got = Vec::with_capacity(want.len());
    let sent = open(cx, port, op, lane).and_then(|(mut s, t0)| {
        s.set_read_timeout(Some(PROBE_GIVE_UP))?;
        s.write_all(&request)?;
        let whole = read_reply(&mut s, &mut got, want.len())?;
        Ok((s, t0, whole))
    });
    match sent {
        Ok((s, t0, true)) if got == want => {
            lane.bytes_up += request.len() as u64;
            lane.bytes_down += want.len() as u64;
            close_op(cx, s, op, t0, now_ns(), lane);
        }
        Ok((_, _, true)) => lane.fail(|| format!("GET {path}: reply is not the 200 naming it")),
        Ok((stream, t0, false)) => {
            lane.late += 1;
            let _ = stream.shutdown(Shutdown::Write);
            parked.push(Parked {
                stream,
                op,
                t0,
                got,
                want,
            });
        }
        Err(e) => lane.fail(|| format!("GET {path}: {e}")),
    }
}

/// Read and check the replies of parked probes. A hold is far shorter than
/// `OP_TIMEOUT`, so every one of them arrives.
fn collect_parked(cx: &Cx, parked: Vec<Parked>, lane: &mut Lane) {
    for mut p in parked {
        let finished = p
            .stream
            .set_read_timeout(Some(OP_TIMEOUT))
            .and_then(|()| read_reply(&mut p.stream, &mut p.got, p.want.len()));
        match finished {
            Ok(true) if p.got == p.want => close_op(cx, p.stream, p.op, p.t0, now_ns(), lane),
            Ok(_) => {
                lane.fail(|| format!("op {:#x}: parked probe's reply is wrong or missing", p.op))
            }
            Err(e) => lane.fail(|| format!("op {:#x}: parked probe: {e}", p.op)),
        }
    }
}

fn prober(cx: &Cx, ports: Ports, thread: u64, deadline: Instant) -> ClientOut {
    let mut out = ClientOut::default();
    let plain = cx.untraced();
    let mut parked = Vec::new();
    let mut n = 0;
    alternate(&mut out, deadline, |direct, until, lane| loop {
        let cx = if direct { &plain } else { cx };
        let op = cx.op_id(thread, n);
        probe_op(cx, ports.of(direct), direct, op, lane, &mut parked);
        n += 1;
        if Instant::now() >= until {
            break;
        }
    });
    // Only probes through the load balancer ever wait long enough to park.
    collect_parked(cx, parked, &mut out.lb);
    out
}

/// Hold one worker at a time: open a connection, trickle a request that
/// never completes for `STALL_HOLD`, close, pause, repeat. Returns the number
/// of holds. The thread sleeps practically all the time.
fn staller(cx: &Cx, port: u16, stop: &AtomicBool) -> u64 {
    let phase = SplitMix(cx.seed ^ cx.epoch).next() % STALL_PAUSE.as_millis() as u64;
    std::thread::sleep(Duration::from_millis(phase));
    let mut episodes = 0;
    while !stop.load(Ordering::SeqCst) {
        if let Ok(mut s) = TcpStream::connect(target(port, episodes)) {
            let _ = s.set_nodelay(true);
            let _ = s.write_all(b"GET /stall HTTP/1.1\r\nHost: bench.local\r\nx-hold: ");
            let held = Instant::now();
            while held.elapsed() < STALL_HOLD {
                std::thread::sleep(STALL_TRICKLE);
                let _ = s.write_all(b"z");
            }
            episodes += 1;
        }
        std::thread::sleep(STALL_PAUSE);
    }
    episodes
}

/// One epoch of `http_stall`: `TcpLb` with in-process upstreams, two probers
/// and the staller; the probers' direct turns go to a rig HTTP responder.
fn http_epoch(cx: &Cx) -> io::Result<EpochOut> {
    let mut out = EpochOut {
        traced: cx.traced,
        ..EpochOut::default()
    };
    let setup = Instant::now();
    let responder = Backend::spawn(Kind::Http, false, cx.block)?;
    let lb = TcpLb::start(LISTEN, HTTP_WORKERS, http_proxy())?;
    let addr = lb.local_addr();
    let ports = Ports {
        lb: addr.port(),
        direct: responder.loopback().port(),
    };
    let (mut first, mut parked) = (Lane::default(), Vec::new());
    let setup_op = cx.op_id(SETUP_IDS, 0);
    probe_op(
        &cx.untraced(),
        ports.lb,
        false,
        setup_op,
        &mut first,
        &mut parked,
    );
    collect_parked(&cx.untraced(), parked, &mut first);
    let setup_s = setup.elapsed().as_secs_f64();
    if let Some(e) = first.first_error {
        out.problems.push(format!("set-up probe failed: {e}"));
    }

    let before = Rusage::now();
    let deadline = Instant::now() + cx.epoch_len;
    let stop = AtomicBool::new(false);
    let (clients, threads, episodes) = std::thread::scope(|s| {
        let stall = s.spawn(|| staller(cx, ports.lb, &stop));
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| s.spawn(move || prober(cx, ports, t, deadline)))
            .collect();
        let threads = sys::threads();
        let clients: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("prober panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        (clients, threads, stall.join().expect("staller panicked"))
    });
    let w = Window {
        usage: Rusage::now().since(&before),
        threads,
    };
    let stats = Arc::clone(lb.stats());
    lb.shutdown();
    responder.stop();

    common_values(setup_s, &clients, &w, true, &mut out);
    server_values(&stats, &mut out.values);
    let late: u64 = clients.iter().map(|c| c.lb.late).sum();
    out.values.extend([
        ("lb.server.stall_episodes", episodes as f64),
        ("lb.server.stalled_hits", late as f64),
    ]);
    if cx.traced {
        trace_values(&clients, &BackendLog::default(), addr, &mut out);
    }
    Ok(out)
}

/// One epoch of socket workload `wl`.
pub fn epoch(cx: &Cx, wl: Workload) -> io::Result<EpochOut> {
    match wl {
        Workload::HttpStall => http_epoch(cx),
        _ => relay_epoch(cx, wl),
    }
}
