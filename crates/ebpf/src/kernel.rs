//! Algorithm 2 in the real kernel.
//!
//! The flat program [`DispatchProgram::build`] emits — the one this
//! crate's [`analyze`] admits and its interpreter executes — is lowered here to
//! kernel eBPF, loaded with raw `bpf(2)` as `BPF_PROG_TYPE_SK_REUSEPORT`
//! (so the kernel's verifier admits the same source) and attached to a
//! group of `SO_REUSEPORT` listeners, one per worker, which it picks
//! among from the bitmap the workers' schedulers store into its mmap'd map
//! value (the picture is in DESIGN.md, "Dispatch plane").
//!
//! What the lowering changes, and nothing else: the context is a pointer
//! (`hash` is loaded from `sk_reuseport_md`), `bpf_map_lookup_elem` takes
//! a key pointer and returns a value pointer, `reciprocal_scale` is not a
//! kernel helper and becomes a multiply and a shift, immediates beyond 32
//! bits travel through `ld_imm64`, `bpf_sk_select_reuseport` takes the
//! context and a key pointer, and jumps are re-offset over the expansion.
//! Every exit returns `SK_PASS`: with a socket selected the kernel uses
//! it, without one it places by its own reuseport hash — Algorithm 2's
//! `n <= 1` branch. On its way in the program records `ctx->hash`, on its
//! way out it counts the path taken, both in the shared map value — a
//! `BPF_F_MMAPABLE` array's, so a scheduler's sync stays a plain store.

use crate::analysis::{analyze, AnalysisCtx, AnalysisReport};
use crate::helpers::{HELPER_MAP_LOOKUP, HELPER_RECIPROCAL_SCALE, HELPER_SK_SELECT_REUSEPORT};
use crate::insn::{Alu, Cond, Insn, Op, Reg, Src};
use crate::maps::MapKind;
use crate::program::DispatchProgram;
use hermes_core::sdk::SyncTarget;
use hermes_core::WorkerBitmap;
use std::ffi::c_void;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// One kernel eBPF instruction, `struct bpf_insn`: opcode, `dst_reg` (low
/// nibble) and `src_reg` (high nibble), offset, immediate.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct KInsn(u8, u8, i16, i32);

const fn k(code: u8, dst: u8, src: u8, off: i16, imm: i32) -> KInsn {
    KInsn(code, dst | src << 4, off, imm)
}

// Opcode pieces (`linux/bpf_common.h`, `linux/bpf.h`).
const LD_IMM64: u8 = 0x18;
const LDX_W: u8 = 0x61;
const LDX_DW: u8 = 0x79;
const STX_W: u8 = 0x63;
const STX_DW: u8 = 0x7b;
const ATOMIC_ADD_DW: u8 = 0xdb;
const ALU64: u8 = 0x07;
const MOV32_X: u8 = 0xbc;
const JMP: u8 = 0x05;
const X: u8 = 0x08;
const MOV: u8 = 0xb0;
const JA: u8 = 0x00;
const JEQ: u8 = 0x10;
const CALL: u8 = 0x80;
const EXIT: u8 = 0x90;
const PSEUDO_MAP_FD: u8 = 1;
const PSEUDO_MAP_VALUE: u8 = 2;
const FN_MAP_LOOKUP_ELEM: i32 = 1;
const FN_SK_SELECT_REUSEPORT: i32 = 82;
const SK_PASS: i32 = 1;
const MD_HASH: i16 = 32; // offsetof(struct sk_reuseport_md, hash)

/// Registers the lowering keeps for itself: R5 carries wide immediates,
/// R4 the flags of `bpf_sk_select_reuseport`. The emitters never name them.
const SCRATCH: u8 = 5;
/// Stack slots of the lowering: the spilled context and a helper's key.
const CTX_SLOT: i16 = -8;
const KEY_SLOT: i16 = -12;

/// The array map's one value, mmap'd by the schedulers: what they publish,
/// and — a cache line away, so a SYN does not invalidate the line every
/// scheduler pass compares the bitmap on — what the program reports back.
#[repr(C)]
struct Shared {
    bitmap: AtomicU64,
    _line: [u64; 7],
    directed: AtomicU64,
    fallback: AtomicU64,
    hash: AtomicU64,
}
const DIRECTED: i16 = 64;
const FALLBACK: i16 = 72;
const HASH: i16 = 80;

/// In-repo fd of the bitmap map in a program given to [`LoadedProgram::new`].
pub const SEL_FD: u32 = 0;
/// In-repo fd of the socket array there.
pub const SOCK_FD: u32 = 1;

fn ld64(dst: u8, pseudo: u8, v: i64) -> [KInsn; 2] {
    let (lo, hi) = (v as i32, (v >> 32) as i32);
    [k(LD_IMM64, dst, pseudo, 0, lo), k(0, 0, 0, 0, hi)]
}

/// R2's low word onto the stack as a helper's key, its address in `ptr`.
fn key_ptr(ptr: u8) -> [KInsn; 3] {
    let (fp, slot) = (k(ALU64 | MOV | X, ptr, 10, 0, 0), KEY_SLOT as i32);
    [k(STX_W, 10, 2, KEY_SLOT, 0), fp, k(ALU64, ptr, 0, 0, slot)]
}

/// Lower `prog` to kernel eBPF against the kernel maps `maps`, indexed by
/// in-repo fd ([`SEL_FD`], [`SOCK_FD`]). `report` names the map each helper
/// call was proven to address. `InvalidInput` for what the flat program
/// never does: the stack, R4/R5, a map fd not known at the call, a jump
/// out of the program.
fn lower(prog: &[Insn], report: &AnalysisReport, maps: [RawFd; 2]) -> io::Result<Vec<KInsn>> {
    let sel = maps[SEL_FD as usize] as i64;
    // Entry: spill the context, record its hash, and leave the hash in R1
    // — the in-repo program's entry state.
    let mut out = vec![k(STX_DW, 10, 1, CTX_SLOT, 0), k(LDX_W, 1, 1, MD_HASH, 0)];
    out.extend(ld64(2, PSEUDO_MAP_VALUE, sel));
    out.push(k(STX_DW, 2, 1, HASH, 0));

    let mut at = Vec::with_capacity(prog.len() + 1);
    let mut jumps = Vec::new();
    for (i, Insn(op)) in prog.iter().enumerate() {
        let err = |why| io::Error::new(io::ErrorKind::InvalidInput, format!("insn {i}: {why}"));
        let reg = |r: Reg| match r.0 {
            r @ (0..=3 | 6..=10) => Ok(r),
            _ => Err(err("R4/R5 are reserved by the lowering")),
        };
        // `(X, register)` for a register or wide operand, `(0, 0)` with
        // the immediate for a narrow one; a wide one is loaded first.
        let operand = |src: Src, out: &mut Vec<KInsn>| match src {
            Src::Reg(r) => reg(r).map(|r| (X, r, 0)),
            Src::Imm(v) => Ok(match i32::try_from(v) {
                Ok(imm) => (0, 0, imm),
                Err(_) => {
                    out.extend(ld64(SCRATCH, 0, v));
                    (X, SCRATCH, 0)
                }
            }),
        };
        let target = |off: i32| match usize::try_from(i as i64 + 1 + off as i64) {
            Ok(to) if to <= prog.len() => Ok(to),
            _ => Err(err("jump leaves the program")),
        };
        let map_of = |kind| match report.fd_range(i) {
            Some(r) if r.lo == r.hi && r.kind == kind && r.lo < 2 => Ok(maps[r.lo as usize] as i64),
            _ => Err(err("helper's map fd is not one known map")),
        };
        at.push(out.len());
        match *op {
            Op::Alu { op, dst, src } => {
                let (x, src, imm) = operand(src, &mut out)?;
                out.push(k(ALU64 | alu_code(op) | x, reg(dst)?, src, 0, imm));
            }
            Op::Ja { off } => {
                jumps.push((out.len(), target(off)?));
                out.push(k(JMP | JA, 0, 0, 0, 0));
            }
            Op::Jmp {
                cond,
                dst,
                src,
                off,
            } => {
                let (x, src, imm) = operand(src, &mut out)?;
                jumps.push((out.len(), target(off)?));
                out.push(k(JMP | cond_code(cond) | x, reg(dst)?, src, 0, imm));
            }
            Op::Call { helper } => match helper {
                // (map, &key); a missing element reads as 0, as the
                // in-repo helper's does.
                HELPER_MAP_LOOKUP => {
                    out.extend(key_ptr(2));
                    out.extend(ld64(1, PSEUDO_MAP_FD, map_of(MapKind::Array)?));
                    out.push(k(JMP | CALL, 0, 0, 0, FN_MAP_LOOKUP_ELEM));
                    out.extend([k(JMP | JEQ, 0, 0, 1, 0), k(LDX_DW, 0, 0, 0, 0)]);
                }
                // ((u32)R1 * (u32)R2) >> 32: 32-bit moves zero-extend.
                HELPER_RECIPROCAL_SCALE => out.extend([
                    k(MOV32_X, 0, 1, 0, 0),
                    k(MOV32_X, 2, 2, 0, 0),
                    k(ALU64 | alu_code(Alu::Mul) | X, 0, 2, 0, 0),
                    k(ALU64 | alu_code(Alu::Rsh), 0, 0, 0, 32),
                ]),
                // (ctx, map, &key, flags); 0 or a negative errno in R0.
                HELPER_SK_SELECT_REUSEPORT => {
                    out.extend(key_ptr(3));
                    out.extend(ld64(2, PSEUDO_MAP_FD, map_of(MapKind::SockArray)?));
                    out.extend([k(LDX_DW, 1, 10, CTX_SLOT, 0), k(ALU64 | MOV, 4, 0, 0, 0)]);
                    out.push(k(JMP | CALL, 0, 0, 0, FN_SK_SELECT_REUSEPORT));
                }
                _ => return Err(err("no kernel lowering for this helper")),
            },
            // Count the path the in-repo return value names, then pass:
            // the kernel drops the connection on anything else.
            Op::Exit => {
                out.extend(ld64(1, PSEUDO_MAP_VALUE, sel));
                out.extend([
                    k(ALU64 | MOV, 2, 0, 0, 1),
                    k(JMP | JEQ, 0, 0, 2, 0),
                    k(ATOMIC_ADD_DW, 1, 2, DIRECTED, 0),
                    k(JMP | JA, 0, 0, 1, 0),
                    k(ATOMIC_ADD_DW, 1, 2, FALLBACK, 0),
                    k(ALU64 | MOV, 0, 0, 0, SK_PASS),
                    k(JMP | EXIT, 0, 0, 0, 0),
                ]);
            }
            _ => return Err(err("the stack belongs to the lowering")),
        }
    }
    at.push(out.len());
    for (jump, target) in jumps {
        let off = at[target] as i64 - jump as i64 - 1;
        out[jump].2 = i16::try_from(off).expect("program fits i16");
    }
    Ok(out)
}

fn alu_code(op: Alu) -> u8 {
    match op {
        Alu::Add => 0x00,
        Alu::Sub => 0x10,
        Alu::Mul => 0x20,
        Alu::Div => 0x30,
        Alu::Or => 0x40,
        Alu::And => 0x50,
        Alu::Lsh => 0x60,
        Alu::Rsh => 0x70,
        Alu::Mod => 0x90,
        Alu::Xor => 0xa0,
        Alu::Mov => MOV,
        Alu::Arsh => 0xc0,
    }
}

fn cond_code(cond: Cond) -> u8 {
    match cond {
        Cond::Eq => JEQ,
        Cond::Gt => 0x20,
        Cond::Ge => 0x30,
        Cond::Ne => 0x50,
        Cond::Lt => 0xa0,
        Cond::Le => 0xb0,
    }
}

/// A program the kernel's verifier admitted, with its two maps. Dropping it
/// closes the three fds; what the kernel still uses lives on by refcount.
#[derive(Debug)]
pub struct LoadedProgram {
    sel: OwnedFd,
    socks: OwnedFd,
    prog: OwnedFd,
}

impl LoadedProgram {
    /// Create the maps (the socket array with `socks` slots), lower `prog`
    /// against them and `BPF_PROG_LOAD` it. `Err` is the kernel's errno, or
    /// — not a [`refused`] `bpf(2)` — `InvalidData` and its verifier's log.
    pub fn new(prog: &[Insn], report: &AnalysisReport, socks: usize) -> io::Result<LoadedProgram> {
        // map_type, key_size, value_size, max_entries, map_flags
        let shared = std::mem::size_of::<Shared>() as u32;
        let mut array = [MAP_TYPE_ARRAY, 4, shared, 1, F_MMAPABLE];
        let sel = bpf_fd(BPF_MAP_CREATE, &mut array)?;
        let mut sockarray = [MAP_TYPE_REUSEPORT_SOCKARRAY, 4, 8, socks as u32, 0];
        let socks = bpf_fd(BPF_MAP_CREATE, &mut sockarray)?;
        let insns = lower(prog, report, [sel.as_raw_fd(), socks.as_raw_fd()])?;
        let (len, insns) = (insns.len() as u32, insns.as_ptr() as u64);
        let gpl = c"GPL".as_ptr() as u64;
        let mut load = ProgLoad(PROG_TYPE_SK_REUSEPORT, len, insns, gpl, 0, 0, 0);
        let refused = match bpf_fd(BPF_PROG_LOAD, &mut load) {
            Ok(prog) => return Ok(LoadedProgram { sel, socks, prog }),
            Err(e) => e,
        };
        // Once more with a log, so the error says what the verifier said.
        let mut log = vec![0u8; 64 * 1024];
        (load.4, load.5, load.6) = (1, log.len() as u32, log.as_mut_ptr() as u64);
        let _ = bpf(BPF_PROG_LOAD, &mut load);
        let said = String::from_utf8_lossy(&log);
        let said = said.trim_end_matches('\0').trim_end();
        if said.is_empty() {
            return Err(refused); // the verifier never ran
        }
        let verdict = format!("{refused}: {said}");
        Err(io::Error::new(io::ErrorKind::InvalidData, verdict))
    }

    /// The flat Algorithm 2 program for `workers` sockets: assembled,
    /// admitted by [`analyze`], lowered, admitted by the kernel.
    pub fn flat(workers: usize) -> io::Result<LoadedProgram> {
        let prog = DispatchProgram::build(SEL_FD, SOCK_FD, workers);
        let ctx = AnalysisCtx::new().bind(SEL_FD, MapKind::Array, 1);
        let ctx = ctx.bind(SOCK_FD, MapKind::SockArray, workers);
        let report = analyze(&prog, &ctx).expect("the flat program analyzes");
        LoadedProgram::new(&prog, &report, workers)
    }
}

/// The flat program attached to a reuseport group, seen from userspace:
/// the mapped map value, and the program's fd to ask the kernel about it.
/// The sockets hold the program, the program its maps, this mapping the
/// bitmap's: closing them and dropping this frees all.
#[derive(Debug)]
pub struct KernelDispatch {
    shared: NonNull<Shared>,
    prog: OwnedFd,
}

// SAFETY: `shared` points at a live mapping of atomics that is unmapped
// only in Drop; every access goes through `&Shared`.
unsafe impl Send for KernelDispatch {}
// SAFETY: see Send — `Shared` holds atomics only.
unsafe impl Sync for KernelDispatch {}

impl KernelDispatch {
    /// Load the flat program for `listeners.len()` workers, put listener
    /// `w` in socket-array slot `w` and attach the program to the group
    /// (every fd must be a listening `SO_REUSEPORT` socket of one group).
    /// `Err` leaves the group placing by hash; [`refused`] tells a host
    /// without `bpf(2)` from a step that should not have failed.
    pub fn attach(listeners: &[RawFd]) -> io::Result<KernelDispatch> {
        let loaded = LoadedProgram::flat(listeners.len())?;
        let socks = loaded.socks.as_raw_fd() as u32;
        for (slot, &fd) in listeners.iter().enumerate() {
            let (key, value) = (slot as u32, fd as u64);
            let (key, value) = (&raw const key as u64, &raw const value as u64);
            bpf(BPF_MAP_UPDATE_ELEM, &mut MapUpdate(socks, 0, key, value, 0))?;
        }
        let (prog, len) = (loaded.prog.as_raw_fd(), std::mem::size_of::<Shared>());
        let (group, opt) = (listeners[0], (&raw const prog).cast());
        // SAFETY: `opt` points at `prog`, a live 4-byte option value.
        if unsafe { setsockopt(group, SOL_SOCKET, SO_ATTACH_REUSEPORT_EBPF, opt, 4) } < 0 {
            return Err(io::Error::last_os_error());
        }
        let (null, sel) = (std::ptr::null_mut(), loaded.sel.as_raw_fd());
        // SAFETY: a fresh shared mapping of the map's one value at an
        // address the kernel picks; no Rust object aliases it.
        let ptr = unsafe { mmap(null, len, PROT_READ_WRITE, MAP_SHARED, sel, 0) };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        let shared = NonNull::new(ptr.cast()).expect("mmap placed the mapping");
        let prog = loaded.prog;
        Ok(KernelDispatch { shared, prog })
    }

    fn shared(&self) -> &Shared {
        // SAFETY: the mapping is live until Drop, page-aligned, `Shared`-sized
        // and zeroed by the kernel; both sides access it atomically.
        unsafe { self.shared.as_ref() }
    }

    /// `(directed, fallback)`: program runs that selected a socket through
    /// the bitmap, and runs that left placement to the kernel's hash.
    pub fn counters(&self) -> (u64, u64) {
        let (d, f) = (&self.shared().directed, &self.shared().fallback);
        (d.load(Ordering::Relaxed), f.load(Ordering::Relaxed))
    }

    /// `ctx->hash` of the program's latest run.
    pub fn last_hash(&self) -> u32 {
        self.shared().hash.load(Ordering::Relaxed) as u32
    }

    /// `(run_cnt, run_time_ns)`: how often the kernel ran the attached
    /// program and for how long in all, counted only while some process
    /// holds [`enable_stats`] open — `bpf_prog_info` as
    /// `BPF_OBJ_GET_INFO_BY_FD` fills it.
    pub fn run_stats(&self) -> io::Result<(u64, u64)> {
        // `struct bpf_prog_info` up to `run_time_ns` and `run_cnt`, its
        // 25th and 26th 8-byte words; the kernel fills what it is given.
        let mut info = [0u64; 26];
        let (fd, len) = (self.prog.as_raw_fd() as u32, size_of_val(&info) as u32);
        bpf(
            BPF_OBJ_GET_INFO_BY_FD,
            &mut ObjInfo(fd, len, info.as_mut_ptr() as u64),
        )?;
        Ok((info[25], info[24]))
    }
}

/// Have the kernel count the runs and the run time of every loaded program
/// for as long as the returned fd stays open (`BPF_ENABLE_STATS`).
pub fn enable_stats() -> io::Result<OwnedFd> {
    bpf_fd(BPF_ENABLE_STATS, &mut [STATS_RUN_TIME])
}

impl SyncTarget for KernelDispatch {
    /// Algorithm 1 line 8 as one store into the mapped value; an unchanged
    /// bitmap is skipped and counted, as `SelMap::store_if_changed` does.
    fn sync(&self, bitmap: WorkerBitmap) {
        let cell = &self.shared().bitmap;
        if cell.load(Ordering::Relaxed) == bitmap.0 {
            hermes_trace::trace_count!(hermes_trace::CounterId::BitmapSyncSkips);
        } else {
            cell.store(bitmap.0, Ordering::Release);
            hermes_trace::trace_count!(hermes_trace::CounterId::KernelBitmapSyncs);
        }
    }
}

impl Drop for KernelDispatch {
    fn drop(&mut self) {
        // SAFETY: the mapping made in `attach`, whose one owner is being
        // dropped: nothing reads it after this.
        unsafe { munmap(self.shared.as_ptr().cast(), std::mem::size_of::<Shared>()) };
    }
}

/// Whether `e` is the host refusing `bpf(2)` itself — `EPERM` without
/// `CAP_BPF` + `CAP_NET_ADMIN`, `ENOSYS`, a target with no such syscall —
/// the one failure that means "place by hash" and not "a bug here".
pub fn refused(e: &io::Error) -> bool {
    use io::ErrorKind::{PermissionDenied, Unsupported};
    matches!(e.kind(), PermissionDenied | Unsupported)
}

// Raw `bpf(2)` / `setsockopt` / `mmap` against the C runtime, as `lb/reactor.rs`.
const SYS_BPF: Option<i64> = match () {
    _ if cfg!(all(target_os = "linux", target_arch = "x86_64")) => Some(321),
    _ if cfg!(all(target_os = "linux", target_arch = "aarch64")) => Some(280), // asm-generic
    _ => None,
};
const BPF_MAP_CREATE: i64 = 0;
const BPF_MAP_UPDATE_ELEM: i64 = 2;
const BPF_PROG_LOAD: i64 = 5;
const BPF_OBJ_GET_INFO_BY_FD: i64 = 15;
const BPF_ENABLE_STATS: i64 = 32;
const STATS_RUN_TIME: u32 = 0;
const MAP_TYPE_ARRAY: u32 = 2;
const MAP_TYPE_REUSEPORT_SOCKARRAY: u32 = 20;
const F_MMAPABLE: u32 = 1 << 10;
const PROG_TYPE_SK_REUSEPORT: u32 = 21;
const SOL_SOCKET: i32 = 1;
const SO_ATTACH_REUSEPORT_EBPF: i32 = 52;
const PROT_READ_WRITE: i32 = 0x3;
const MAP_SHARED: i32 = 0x01;

extern "C" {
    fn syscall(num: i64, ...) -> i64;
    fn setsockopt(fd: i32, level: i32, name: i32, val: *const c_void, len: u32) -> i32;
    fn mmap(at: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

// Leading fields of `union bpf_attr` per command (`BPF_MAP_CREATE` takes
// five `u32`s); the kernel reads the size passed and takes the rest as 0.
/// `map_fd`, padding, `key`, `value`, `flags`.
#[repr(C)]
struct MapUpdate(u32, u32, u64, u64, u64);
/// `bpf_fd`, `info_len`, `info`.
#[repr(C)]
struct ObjInfo(u32, u32, u64);
/// `prog_type`, `insn_cnt`, `insns`, `license`, `log_level`, `log_size`, `log_buf`.
#[repr(C)]
struct ProgLoad(u32, u32, u64, u64, u32, u32, u64);

/// One `bpf(2)` command; `Unsupported` where [`SYS_BPF`] has no number.
fn bpf<T>(cmd: i64, attr: &mut T) -> io::Result<i32> {
    let Some(sys_bpf) = SYS_BPF else {
        return Err(io::ErrorKind::Unsupported.into());
    };
    // A command may write back into `attr` (a length), hence `&mut`.
    // SAFETY: `attr` is a live, fully initialised prefix of `union
    // bpf_attr` passed with its own size; the buffers it points to are
    // kept alive by the caller for the duration of the call.
    let rc = unsafe { syscall(sys_bpf, cmd, attr as *mut T, std::mem::size_of::<T>()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as i32)
}

/// A `bpf(2)` command that returns a new fd.
fn bpf_fd<T>(cmd: i64, attr: &mut T) -> io::Result<OwnedFd> {
    // SAFETY: the command succeeded, so its result is an fd it created
    // and nothing else owns.
    bpf(cmd, attr).map(|fd| unsafe { OwnedFd::from_raw_fd(fd) })
}
