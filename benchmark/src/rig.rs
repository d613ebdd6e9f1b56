//! The rig around the load balancer: seed-derived payloads, the backends the
//! relay connects to (and the clients connect to directly, for the
//! reference), and the time stamps both sides take in a traced epoch.
//!
//! Backends are plain blocking threads sharing one listener that serve one
//! connection at a time to its end. `keepalive` holds four connections open
//! for a whole epoch (two through the load balancer, two direct) and all of
//! them may land on one backend, so a backend has `HANDLERS` of them.

use crate::spans::{BackendConn, BackendStamp};
use crate::stats::SplitMix;
use crate::sys::now_ns;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Echo message size: 8 bytes of op id, 56 bytes of seed-derived body.
pub const MSG: usize = 64;

/// Handler threads per backend.
pub const HANDLERS: usize = 4;

/// One bulk transfer.
pub const BULK_BYTES: u64 = 64 << 20;
/// The bulk pattern repeats every MiB; receivers check one word per 64 KiB.
pub const BLOCK_BYTES: usize = 1 << 20;
const SAMPLE_EVERY: u64 = 64 << 10;
const BULK_UPLOAD: u32 = 1;
const BULK_DOWNLOAD: u32 = 2;

/// The 64 bytes of op `op` under `seed`; both ends can recompute them.
pub fn fill_msg(seed: u64, op: u64, out: &mut [u8]) {
    out[..8].copy_from_slice(&op.to_le_bytes());
    let mut rng = SplitMix(seed ^ op.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    for word in out[8..MSG].chunks_exact_mut(8) {
        word.copy_from_slice(&rng.next().to_le_bytes());
    }
}

/// The repeating block bulk transfers are made of.
pub fn bulk_block(seed: u64) -> Arc<Vec<u8>> {
    let mut rng = SplitMix(seed ^ 0xB01C);
    let mut block = Vec::with_capacity(BLOCK_BYTES);
    while block.len() < BLOCK_BYTES {
        block.extend_from_slice(&rng.next().to_le_bytes());
    }
    Arc::new(block)
}

/// Compare the sampled words of `chunk`, which starts `off` bytes into a
/// transfer, with the pattern; returns how many differ.
pub fn check_samples(block: &[u8], off: u64, chunk: &[u8]) -> u64 {
    let mut bad = 0;
    let mut k = off.next_multiple_of(SAMPLE_EVERY);
    while k + 8 <= off + chunk.len() as u64 {
        let (i, b) = ((k - off) as usize, (k % block.len() as u64) as usize);
        bad += u64::from(chunk[i..i + 8] != block[b..b + 8]);
        k += SAMPLE_EVERY;
    }
    bad
}

pub fn bulk_header(op: u64, upload: bool) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[..8].copy_from_slice(&op.to_le_bytes());
    let mode = if upload { BULK_UPLOAD } else { BULK_DOWNLOAD };
    h[8..12].copy_from_slice(&mode.to_le_bytes());
    h
}

#[derive(Default)]
pub struct BackendLog {
    pub ops: Vec<BackendStamp>,
    pub conns: Vec<BackendConn>,
    /// Sampled words of uploads that did not match the pattern.
    pub mismatches: u64,
}

impl BackendLog {
    pub fn absorb(&mut self, other: BackendLog) {
        self.ops.extend(other.ops);
        self.conns.extend(other.conns);
        self.mismatches += other.mismatches;
    }
}

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// Writes back every byte it reads.
    Echo,
    /// Reads a 16-byte header, then sinks an upload and acknowledges its
    /// byte count, or streams a download.
    Bulk,
    /// Answers every `GET` with `direct_reply` of its path: what the probers
    /// of `http_stall` talk to when they bypass the load balancer.
    Http,
}

/// The reply of the `Kind::Http` backend to a `GET` of `path`.
pub fn direct_reply(path: &str) -> Vec<u8> {
    let body = format!("GET {path} direct");
    format!(
        "HTTP/1.1 200 OK\r\nx-upstream: rig\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub struct Backend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handlers: Vec<JoinHandle<BackendLog>>,
}

impl Backend {
    /// Bind a listener (on every address: direct clients spread over the
    /// loopback addresses as they do towards the load balancer) and start
    /// `HANDLERS` threads accepting from it. With `traced` they stamp every
    /// op; without, they only move bytes.
    pub fn spawn(kind: Kind, traced: bool, block: &Arc<Vec<u8>>) -> io::Result<Backend> {
        let listener = TcpListener::bind("0.0.0.0:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let handlers = (0..HANDLERS)
            .map(|_| {
                let listener = listener.try_clone()?;
                let stop = Arc::clone(&stop);
                let block = Arc::clone(block);
                Ok(std::thread::spawn(move || {
                    let mut log = BackendLog::default();
                    let mut buf = vec![0u8; 256 << 10];
                    while let Ok((stream, _)) = listener.accept() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let t2 = now_ns();
                        let _ = stream.set_nodelay(true);
                        let first = log.ops.len();
                        let saw_close = match kind {
                            Kind::Echo => serve_echo(stream, traced, &mut buf, &mut log),
                            Kind::Bulk => serve_bulk(stream, &block, &mut buf, &mut log),
                            Kind::Http => serve_http(stream, &mut buf),
                        };
                        if !traced {
                            log.ops.clear();
                        } else if let Some(op) = log.ops.get(first) {
                            log.conns.push(BackendConn {
                                first_op: op.op,
                                t2,
                                t6: if saw_close { now_ns() } else { 0 },
                            });
                        }
                    }
                    log
                }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Backend {
            addr,
            stop,
            handlers,
        })
    }

    /// Where the load balancer and direct clients reach this backend.
    pub fn loopback(&self) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], self.addr.port()))
    }

    /// Stop accepting, join every handler, and return what they logged. Each
    /// handler is blocked in `accept`; one throw-away connection each wakes
    /// them (whichever handler takes it sees the flag and leaves).
    pub fn stop(self) -> BackendLog {
        self.stop.store(true, Ordering::SeqCst);
        let _pokes: Vec<_> = (0..self.handlers.len())
            .map(|_| TcpStream::connect(self.loopback()))
            .collect();
        let mut all = BackendLog::default();
        for h in self.handlers {
            all.absorb(h.join().expect("backend handler panicked"));
        }
        all
    }
}

/// Echo until end of stream. Traced, it also walks the 64-byte frames in
/// each chunk and stamps every frame the chunk completes: `t3` when the read
/// that completed it returned, `t4` when the write that echoed it returned.
/// Returns whether the client's close arrived after the last reply (so that
/// the moment of return is the teardown reaching the backend).
fn serve_echo(mut s: TcpStream, traced: bool, buf: &mut [u8], log: &mut BackendLog) -> bool {
    let mut pos = 0usize;
    let mut head = [0u8; 8];
    loop {
        let n = match s.read(buf) {
            Ok(0) => return true,
            Err(_) => return false,
            Ok(n) => n,
        };
        let t3 = now_ns();
        if s.write_all(&buf[..n]).is_err() {
            return false;
        }
        if !traced {
            continue;
        }
        let t4 = now_ns();
        let mut i = 0;
        while i < n {
            let off = (pos + i) % MSG;
            if off < 8 {
                let take = (8 - off).min(n - i);
                head[off..off + take].copy_from_slice(&buf[i..i + take]);
                i += take;
            } else {
                let take = (MSG - off).min(n - i);
                i += take;
                if off + take == MSG {
                    let op = u64::from_le_bytes(head);
                    log.ops.push(BackendStamp { op, t3, t4 });
                }
            }
        }
        pos += n;
    }
}

/// Returns as `serve_echo` does: an upload's end of stream comes before its
/// acknowledgement, so only a download sees the close after the reply.
fn serve_bulk(mut s: TcpStream, block: &[u8], buf: &mut [u8], log: &mut BackendLog) -> bool {
    let mut header = [0u8; 16];
    if s.read_exact(&mut header).is_err() {
        return false;
    }
    let op = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
    let mode = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let t3;
    if mode == BULK_UPLOAD {
        let (mut count, mut bad) = (0u64, 0u64);
        loop {
            match s.read(buf) {
                Ok(0) => break,
                Ok(n) => {
                    bad += check_samples(block, count, &buf[..n]);
                    count += n as u64;
                }
                Err(_) => return false,
            }
        }
        t3 = now_ns();
        log.mismatches += bad;
        let mut ack = [0u8; 16];
        ack[..8].copy_from_slice(&count.to_le_bytes());
        ack[8..].copy_from_slice(&bad.to_le_bytes());
        if s.write_all(&ack).is_err() {
            return false;
        }
    } else {
        t3 = now_ns();
        for _ in 0..BULK_BYTES / BLOCK_BYTES as u64 {
            if s.write_all(block).is_err() {
                return false;
            }
        }
    }
    let t4 = now_ns();
    log.ops.push(BackendStamp { op, t3, t4 });
    // Half-close, then wait for the client's own end of stream so that the
    // connection's `t6` is the moment the teardown reached the backend.
    let _ = s.shutdown(Shutdown::Write);
    while matches!(s.read(buf), Ok(n) if n > 0) {}
    mode != BULK_UPLOAD
}

/// Answer `GET`s until end of stream. Requests are far smaller than `buf`
/// and the probers send one at a time, so a read that ends in a blank line
/// ends a request.
fn serve_http(mut s: TcpStream, buf: &mut [u8]) -> bool {
    let mut have = 0;
    loop {
        match s.read(&mut buf[have..]) {
            Ok(0) => return true,
            Err(_) => return false,
            Ok(n) => have += n,
        }
        if !buf[..have].ends_with(b"\r\n\r\n") {
            continue;
        }
        let request = String::from_utf8_lossy(&buf[..have]);
        let path = request.split(' ').nth(1).unwrap_or("/");
        if s.write_all(&direct_reply(path)).is_err() {
            return false;
        }
        have = 0;
    }
}
