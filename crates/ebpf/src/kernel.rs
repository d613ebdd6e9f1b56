//! Algorithm 2 in the real kernel, at any group count (§7).
//!
//! The program [`DispatchProgram::build`] emits — the bytes this crate's
//! interpreter executes in the differential tests — is loaded here with raw
//! `bpf(2)` as `BPF_PROG_TYPE_SK_REUSEPORT` (the kernel's verifier is the
//! one admission it meets) and attached to a group of `SO_REUSEPORT`
//! listeners, one per worker, in ⌈workers/64⌉ equal groups. It picks among
//! them by the bitmaps the workers' schedulers store into its mmap'd array,
//! one word per group (the picture is in DESIGN.md, "Dispatch plane: in the
//! kernel").
//!
//! Loading changes one thing: each `ld_imm64` that names a map by index
//! ([`SEL`](crate::program::SEL), [`SOCKS`](crate::program::SOCKS),
//! [`RECORD`](crate::program::RECORD)) is relocated to that map's fd. Every
//! exit returns `SK_PASS`: with a socket selected the kernel uses it,
//! without one it places by its own reuseport hash over every listener.
//! That is Algorithm 2's `n <= 1` branch at one group; at several, the
//! program commits its own pick within the group first. On its way in the
//! program records `ctx->hash`, on its way out it counts the path taken,
//! both in its record. The bitmaps and the record are `BPF_F_MMAPABLE`
//! arrays, so a scheduler's sync stays a plain store and reading the
//! counters a plain load.

use crate::insn::{Insn, LD_IMM64, PSEUDO_MAP_FD, PSEUDO_MAP_VALUE};
use crate::program::{DispatchProgram, DIRECTED, FALLBACK, HASH, RECORD_WORDS};
use hermes_core::group::worker_groups;
use hermes_core::WorkerBitmap;
use std::ffi::c_void;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

/// `prog` with the map index of each map-naming `ld_imm64` replaced by
/// `maps[index]`; `InvalidInput` for an index past `maps`.
fn relocate(prog: &[Insn], maps: [RawFd; 3]) -> io::Result<Vec<Insn>> {
    let named = |i: &Insn| matches!(i.src(), PSEUDO_MAP_FD | PSEUDO_MAP_VALUE);
    let relocated = |(at, &insn): (usize, &Insn)| match insn {
        Insn { code: LD_IMM64, .. } if named(&insn) => {
            let fd = usize::try_from(insn.imm).ok().and_then(|i| maps.get(i));
            let why = || format!("insn {at}: no map {}", insn.imm);
            let fd = fd.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, why()))?;
            Ok(Insn { imm: *fd, ..insn })
        }
        _ => Ok(insn),
    };
    prog.iter().enumerate().map(relocated).collect()
}

/// A program the kernel's verifier admitted, with its three maps. Dropping
/// it closes the four fds; what the kernel still uses lives on by refcount.
#[derive(Debug)]
pub struct LoadedProgram {
    sel: OwnedFd,
    socks: OwnedFd,
    record: OwnedFd,
    prog: OwnedFd,
}

impl LoadedProgram {
    /// Create the maps — `groups` bitmap words, `groups·size` socket slots
    /// and the program's record — relocate `prog`'s map indices to them and
    /// `BPF_PROG_LOAD` it. `Err` is the kernel's errno, or — not a
    /// [`refused`] `bpf(2)` — `InvalidData` and its verifier's log.
    pub fn new(prog: &[Insn], groups: usize, size: usize) -> io::Result<LoadedProgram> {
        // map_type, key_size, value_size, max_entries, map_flags
        let mut array = [MAP_TYPE_ARRAY, 4, 8, groups as u32, F_MMAPABLE];
        let sel = bpf_fd(BPF_MAP_CREATE, &mut array)?;
        let slots = (groups * size) as u32;
        let mut sockarray = [MAP_TYPE_REUSEPORT_SOCKARRAY, 4, 8, slots, 0];
        let socks = bpf_fd(BPF_MAP_CREATE, &mut sockarray)?;
        let mut single = [MAP_TYPE_ARRAY, 4, 8 * RECORD_WORDS as u32, 1, F_MMAPABLE];
        let record = bpf_fd(BPF_MAP_CREATE, &mut single)?;
        let maps = [&sel, &socks, &record].map(AsRawFd::as_raw_fd);
        let insns = relocate(prog, maps)?;
        let (len, insns) = (insns.len() as u32, insns.as_ptr() as u64);
        let gpl = c"GPL".as_ptr() as u64;
        let mut load = ProgLoad(PROG_TYPE_SK_REUSEPORT, len, insns, gpl, 0, 0, 0);
        let refused = match bpf_fd(BPF_PROG_LOAD, &mut load) {
            Ok(prog) => {
                return Ok(LoadedProgram {
                    sel,
                    socks,
                    record,
                    prog,
                })
            }
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

    /// The Algorithm 2 program for `groups` groups of `size` sockets:
    /// assembled ([`DispatchProgram::build`], which panics on a shape outside
    /// `1..=64` of each), relocated, admitted by the kernel.
    pub fn dispatch(groups: usize, size: usize) -> io::Result<LoadedProgram> {
        LoadedProgram::new(&DispatchProgram::build(groups, size), groups, size)
    }
}

/// A shared read-write mapping of `len` words of an mmapable array map,
/// unmapped on drop.
#[derive(Debug)]
struct Mapping {
    words: NonNull<AtomicU64>,
    len: usize,
}

// SAFETY: `words` points at a live mapping of atomics that is unmapped only
// in Drop; every access goes through `&[AtomicU64]`.
unsafe impl Send for Mapping {}
// SAFETY: see Send — the mapping holds atomics only.
unsafe impl Sync for Mapping {}

impl Mapping {
    fn new(map: &OwnedFd, len: usize) -> io::Result<Mapping> {
        let (null, fd) = (std::ptr::null_mut(), map.as_raw_fd());
        // SAFETY: a fresh shared mapping of the map's values at an address
        // the kernel picks; no Rust object aliases it.
        let ptr = unsafe { mmap(null, len * 8, PROT_READ_WRITE, MAP_SHARED, fd, 0) };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        let words = NonNull::new(ptr.cast()).expect("mmap placed the mapping");
        Ok(Mapping { words, len })
    }

    fn words(&self) -> &[AtomicU64] {
        // SAFETY: the mapping is live until Drop, page-aligned, `len` words
        // long and zeroed by the kernel; both sides access it atomically.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr(), self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: the mapping made in `new`, whose one owner is being
        // dropped: nothing reads it after this.
        unsafe { munmap(self.words.as_ptr().cast(), self.len * 8) };
    }
}

/// The program attached to a reuseport group, seen from userspace: the
/// mapped bitmaps and record, and the program's fd to ask the kernel about
/// it. The sockets hold the program, the program its maps, these mappings
/// two of them: closing them and dropping this frees all.
#[derive(Debug)]
pub struct KernelDispatch {
    bitmaps: Mapping,
    record: Mapping,
    prog: OwnedFd,
}

impl KernelDispatch {
    /// Load the program for `listeners.len()` workers in ⌈workers/64⌉ equal
    /// groups ([`worker_groups`]), put listener `w` in socket-array slot `w`
    /// — worker `w` of group `w / size` — and attach the program to the group
    /// (every fd must be a listening `SO_REUSEPORT` socket of one group).
    /// `Err` leaves the group placing by hash; [`refused`] tells a host
    /// without `bpf(2)` from a step that should not have failed. A count the
    /// group rule refuses is `InvalidInput`, before any map exists.
    pub fn attach(listeners: &[RawFd]) -> io::Result<KernelDispatch> {
        let (groups, size) = worker_groups(listeners.len())?;
        let loaded = LoadedProgram::dispatch(groups, size)?;
        let socks = loaded.socks.as_raw_fd() as u32;
        for (slot, &fd) in listeners.iter().enumerate() {
            let (key, value) = (slot as u32, fd as u64);
            let (key, value) = (&raw const key as u64, &raw const value as u64);
            bpf(BPF_MAP_UPDATE_ELEM, &mut MapUpdate(socks, 0, key, value, 0))?;
        }
        let prog = loaded.prog.as_raw_fd();
        let (group, opt) = (listeners[0], (&raw const prog).cast());
        // SAFETY: `opt` points at `prog`, a live 4-byte option value.
        if unsafe { setsockopt(group, SOL_SOCKET, SO_ATTACH_REUSEPORT_EBPF, opt, 4) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(KernelDispatch {
            bitmaps: Mapping::new(&loaded.sel, groups)?,
            record: Mapping::new(&loaded.record, RECORD_WORDS)?,
            prog: loaded.prog,
        })
    }

    /// Algorithm 1 line 8 for group `group`: one store into its mapped
    /// word. An unchanged bitmap is skipped: a steady-state scheduler
    /// recomputes the same bitmap every loop, and storing it again would
    /// move the word's cache line between cores for nothing.
    pub fn publish(&self, group: usize, bitmap: WorkerBitmap) {
        let cell = &self.bitmaps.words()[group];
        if cell.load(Ordering::Relaxed) != bitmap.0 {
            cell.store(bitmap.0, Ordering::Release);
        }
    }

    /// [`publish`](Self::publish) `bitmap` as every group's: the one
    /// group's at `G == 1`.
    pub fn sync_bitmap(&self, bitmap: WorkerBitmap) {
        (0..self.bitmaps.len).for_each(|g| self.publish(g, bitmap));
    }

    /// `(directed, fallback)`: program runs that selected a socket through
    /// a bitmap, and runs that fell back — to the kernel's hash, or at
    /// `G > 1` to the program's own pick within the group.
    pub fn counters(&self) -> (u64, u64) {
        (self.recorded(DIRECTED), self.recorded(FALLBACK))
    }

    /// `ctx->hash` of the program's latest run.
    pub fn last_hash(&self) -> u32 {
        self.recorded(HASH) as u32
    }

    /// The record's word at byte offset `off`.
    fn recorded(&self, off: i16) -> u64 {
        self.record.words()[off as usize / 8].load(Ordering::Relaxed)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// What ships, byte for byte, pinned without `bpf(2)`: the program at
    /// four shapes with its maps relocated to three stand-in fds (100, 101,
    /// 102), against `tests/golden/` — the bytes the kernel's verifier
    /// admits at those shapes (its log counts the same instructions), one
    /// slot per line as the kernel reads it.
    #[test]
    fn the_shipped_bytes_are_pinned() {
        let golden = [
            (1, 4, 137, include_str!("../tests/golden/dispatch_1x4.hex")),
            (1, 8, 168, include_str!("../tests/golden/dispatch_1x8.hex")),
            (
                1,
                64,
                263,
                include_str!("../tests/golden/dispatch_1x64.hex"),
            ),
            (
                2,
                64,
                286,
                include_str!("../tests/golden/dispatch_2x64.hex"),
            ),
        ];
        for (groups, size, len, want) in golden {
            let built = DispatchProgram::build(groups, size);
            let prog = relocate(&built, [100, 101, 102]).expect("every map index resolves");
            let want: Vec<&str> = want.lines().collect();
            assert_eq!((prog.len(), want.len()), (len, len), "{groups}x{size}");
            for (at, (insn, want)) in prog.iter().zip(want).enumerate() {
                let got: String = insn.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
                let text = crate::disasm::disasm_insn(at, insn);
                assert_eq!(got, want, "{groups}x{size}: `{text}`");
            }
        }
    }

    #[test]
    fn relocation_refuses_a_map_index_it_has_no_fd_for() {
        let mut a = crate::Assembler::new();
        a.ld_imm64(1, PSEUDO_MAP_FD, 3).exit();
        let err = relocate(&a.finish(), [100, 101, 102]).expect_err("map 3 does not exist");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn a_count_the_group_rule_refuses_is_invalid_input() {
        for n in [0, 65, 130, 4_097] {
            let err = KernelDispatch::attach(&vec![-1; n]).expect_err("no group of that size");
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "{n} listeners: {err}"
            );
        }
    }
}
