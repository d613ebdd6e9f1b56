//! The Algorithm 2 connection-dispatch program, in bytecode, plus the
//! reuseport attach point.
//!
//! The program mirrors the paper's `conn_dispatch_socket_select`:
//!
//! ```text
//! C   <- bpf_map_lookup_elem(M_Sel)          // userspace bitmap
//! n   <- CountNonZeroBits(C)                 // SWAR popcount, straight-line
//! if n > 1:
//!     Nth <- reciprocal_scale(hash, n) + 1   // helper
//!     ID  <- FindNthNonZeroBit(C, Nth)       // branchless rank-select ladder
//!     return bpf_sk_select_reuseport(M_socket, ID)
//! else: fall back to default reuseport hashing
//! ```
//!
//! `CountNonZeroBits` and `FindNthNonZeroBit` cannot be helpers — the paper
//! implements them "based on [Bit Twiddling Hacks / Hamming weight]" because
//! the verifier forbids loops. Here they are emitted as straight-line SWAR
//! popcount and a forward-branching rank-select ladder of at most six rungs, and the
//! whole program passes this crate's analysis with a clean report.

use crate::analysis::{AnalysisCtx, AnalysisReport};
use crate::asm::Assembler;
use crate::helpers::{HELPER_MAP_LOOKUP, HELPER_RECIPROCAL_SCALE, HELPER_SK_SELECT_REUSEPORT};
use crate::insn::{Alu, Cond, Insn, Reg};
use crate::maps::{ArrayMap, MapRef, MapRegistry, SockArrayMap};
use crate::vm::{ExecResult, ExecTier, Vm};
use hermes_core::bitmap::WorkerBitmap;
use hermes_core::dispatch::DispatchOutcome;
use hermes_core::hash::reciprocal_scale;
use hermes_core::WorkerId;
use std::sync::Arc;

/// Emit SWAR popcount of `x` into `x` itself, using `scratch` (clobbered).
pub(crate) fn emit_popcount(a: &mut Assembler, x: Reg, scratch: Reg) {
    // x -= (x >> 1) & 0x5555...
    a.mov(scratch, x);
    a.alu_imm(Alu::Rsh, scratch, 1);
    a.alu_imm(Alu::And, scratch, 0x5555_5555_5555_5555u64 as i64);
    a.alu(Alu::Sub, x, scratch);
    // x = (x & 0x3333...) + ((x >> 2) & 0x3333...)
    a.mov(scratch, x);
    a.alu_imm(Alu::Rsh, scratch, 2);
    a.alu_imm(Alu::And, scratch, 0x3333_3333_3333_3333u64 as i64);
    a.alu_imm(Alu::And, x, 0x3333_3333_3333_3333u64 as i64);
    a.alu(Alu::Add, x, scratch);
    // x = (x + (x >> 4)) & 0x0f0f...
    a.mov(scratch, x);
    a.alu_imm(Alu::Rsh, scratch, 4);
    a.alu(Alu::Add, x, scratch);
    a.alu_imm(Alu::And, x, 0x0f0f_0f0f_0f0f_0f0fu64 as i64);
    // x = (x * 0x0101...) >> 56
    a.alu_imm(Alu::Mul, x, 0x0101_0101_0101_0101u64 as i64);
    a.alu_imm(Alu::Rsh, x, 56);
}

/// Assemble Algorithm 2 over one group of `group_size` sockets — the one
/// emitter behind the flat program and the two-level one
/// ([`crate::group_program`]), which differ only in how they name their
/// maps: `load_bitmap` emits the lookup that leaves the group's bitmap C
/// in R0, `sock_fd` leaves the group's sockarray fd in R1. Both run with
/// the hash saved in R6 and may use the stack.
///
/// Register plan: R6 = hash, R7 = bitmap C, R8 = n then pos,
/// R9 = remaining rank r, R2/R3 = scratch.
///
/// For a single-socket group the `n > 1` guard can never pass (the masked
/// bitmap has at most one set bit), so only the fallback return is emitted
/// — the abstract interpreter would otherwise prove everything below the
/// guard dead.
pub(crate) fn assemble(
    group_size: usize,
    load_bitmap: impl FnOnce(&mut Assembler),
    sock_fd: impl FnOnce(&mut Assembler),
) -> Vec<Insn> {
    assert!(
        (1..=hermes_core::MAX_WORKERS_PER_GROUP).contains(&group_size),
        "1..=64 workers per group"
    );
    let mut a = Assembler::new();
    if group_size > 1 {
        let fallback = a.label();
        // Save ctx hash; load C.
        a.mov(Reg::R6, Reg::R1);
        load_bitmap(&mut a);
        a.mov(Reg::R7, Reg::R0);
        // Defensive mask: never select past the group.
        a.alu_imm(Alu::And, Reg::R7, WorkerBitmap::all(group_size).0 as i64);

        // n = popcount(C) in R8.
        a.mov(Reg::R8, Reg::R7);
        emit_popcount(&mut a, Reg::R8, Reg::R3);

        // Guard: if n <= 1 fall back (two-stage filtering, §5.3.2).
        a.jmp_imm(Cond::Le, Reg::R8, 1, fallback);

        // Nth = reciprocal_scale(hash, n) + 1, in R9.
        a.mov(Reg::R1, Reg::R6);
        a.mov(Reg::R2, Reg::R8);
        a.call(HELPER_RECIPROCAL_SCALE);
        a.mov(Reg::R9, Reg::R0);
        a.alu_imm(Alu::Add, Reg::R9, 1);

        // FindNthNonZeroBit(C, Nth): pos = 0 in R8 (n no longer needed);
        // rungs of widths 32..1, each counting the set bits of the low half
        // of the remaining window and branching forward — only those
        // narrower than the group: C is masked to `group_size` bits, so a
        // wider rung always finds all n bits in its low half and keeps pos.
        a.mov_imm(Reg::R8, 0);
        let reach = group_size.next_power_of_two() as i64;
        for width in [32i64, 16, 8, 4, 2, 1].into_iter().filter(|&w| w < reach) {
            let skip = a.label();
            // low = popcount((C >> pos) & ((1 << width) - 1))
            a.mov(Reg::R2, Reg::R7);
            a.alu(Alu::Rsh, Reg::R2, Reg::R8);
            a.alu_imm(Alu::And, Reg::R2, ((1u64 << width) - 1) as i64);
            emit_popcount(&mut a, Reg::R2, Reg::R3);
            // if low >= r: answer is in the low half, keep pos.
            a.jmp(Cond::Ge, Reg::R2, Reg::R9, skip);
            // else r -= low; pos += width.
            a.alu(Alu::Sub, Reg::R9, Reg::R2);
            a.alu_imm(Alu::Add, Reg::R8, width);
            a.bind(skip);
        }

        // Commit: bpf_sk_select_reuseport(M_socket, pos).
        sock_fd(&mut a);
        a.mov(Reg::R2, Reg::R8);
        a.call(HELPER_SK_SELECT_REUSEPORT);
        // Non-zero return (ENOENT: socket slot empty) ⇒ fall back.
        a.jmp_imm(Cond::Ne, Reg::R0, 0, fallback);
        a.mov_imm(Reg::R0, 1);
        a.exit();
        a.bind(fallback);
    }
    a.mov_imm(Reg::R0, 0);
    a.exit();
    a.finish()
}

/// The flat Algorithm 2 program, as bytecode. Admission happens where the
/// program is attached ([`ReuseportGroup::new`]), loaded
/// ([`Vm::load_analyzed`]) or handed to the kernel ([`crate::kernel`]).
pub struct DispatchProgram;

impl DispatchProgram {
    /// Assemble Algorithm 2 for a group of `workers` sockets, reading the
    /// bitmap from array-map `sel_fd` (key 0) and committing the socket via
    /// sockarray `sock_fd`, both constant fds.
    pub fn build(sel_fd: u32, sock_fd: u32, workers: usize) -> Vec<Insn> {
        assemble(
            workers,
            |a| {
                a.mov_imm(Reg::R1, sel_fd as i64);
                a.mov_imm(Reg::R2, 0);
                a.call(HELPER_MAP_LOOKUP);
            },
            |a| {
                a.mov_imm(Reg::R1, sock_fd as i64);
            },
        )
    }
}

/// A dispatch program loaded and attached at the reuseport hook, with the
/// maps it runs against. [`ReuseportGroup`] and
/// [`crate::GroupedReuseportGroup`] both deref to this, so what is known
/// about the attached program reads the same on either.
#[derive(Debug)]
pub struct AttachedProgram {
    registry: MapRegistry,
    vm: Vm,
}

impl AttachedProgram {
    /// `BPF_PROG_LOAD` plus attach, and the one admission bar every
    /// consumer serves behind: freeze `registry`'s fd table, admit `prog`
    /// against it ([`crate::analyze`]) and require a clean report. Anything
    /// less is a bug in this crate's emitter, so it panics.
    pub(crate) fn attach(registry: MapRegistry, prog: Vec<Insn>) -> Self {
        let ctx = AnalysisCtx::from_registry(&registry);
        let vm = Vm::load_analyzed(prog, &ctx).expect("dispatch program must analyze");
        assert!(
            vm.analysis().is_clean(),
            "dispatch program must analyze clean:\n{}",
            vm.analysis().render(vm.program())
        );
        Self { registry, vm }
    }

    /// The analysis report the attached program was admitted under.
    pub fn analysis(&self) -> &AnalysisReport {
        self.vm.analysis()
    }

    /// The attached bytecode.
    pub fn program(&self) -> &[Insn] {
        self.vm.program()
    }

    /// Execution tier the attached program runs on: the checked
    /// interpreter.
    pub fn tier(&self) -> ExecTier {
        self.vm.tier()
    }

    /// One program execution for a connection with 4-tuple hash `hash`.
    pub(crate) fn run(&self, hash: u32) -> ExecResult {
        self.vm
            .run(hash, &self.registry)
            .expect("admitted program cannot fault")
    }
}

/// A reuseport group with the Hermes program attached — the moral
/// equivalent of `setsockopt(SO_ATTACH_REUSEPORT_EBPF)` plus its two maps.
///
/// Userspace-facing methods: [`sync_bitmap`](Self::sync_bitmap) (the
/// `BPF_MAP_UPDATE` of Algorithm 1) and socket registration. Kernel-facing
/// method: [`dispatch`](Self::dispatch), run for every incoming connection.
///
/// ```
/// use hermes_ebpf::ReuseportGroup;
/// use hermes_core::WorkerBitmap;
/// let group = ReuseportGroup::new(8);
/// group.sync_bitmap(WorkerBitmap::from_workers([1, 4]));
/// let out = group.dispatch(0x1234_5678);
/// assert!(out.is_directed());
/// assert!([1usize, 4].contains(&out.worker()));
/// ```
#[derive(Debug)]
pub struct ReuseportGroup {
    attached: AttachedProgram,
    sel_map: Arc<ArrayMap>,
    sock_map: Arc<SockArrayMap>,
    workers: usize,
}

impl std::ops::Deref for ReuseportGroup {
    type Target = AttachedProgram;

    fn deref(&self) -> &AttachedProgram {
        &self.attached
    }
}

impl ReuseportGroup {
    /// Create a group of `workers` sockets with the dispatch program
    /// attached and all sockets initially registered (socket handle ==
    /// worker id, as the paper's init populates `M_socket`).
    pub fn new(workers: usize) -> Self {
        let registry = MapRegistry::new();
        let sel_map = Arc::new(ArrayMap::new(1));
        let sock_map = Arc::new(SockArrayMap::new(workers));
        let sel_fd = registry.register(MapRef::Array(Arc::clone(&sel_map)));
        let sock_fd = registry.register(MapRef::SockArray(Arc::clone(&sock_map)));
        for w in 0..workers {
            sock_map.register(w, w);
        }
        let prog = DispatchProgram::build(sel_fd, sock_fd, workers);
        Self {
            attached: AttachedProgram::attach(registry, prog),
            sel_map,
            sock_map,
            workers,
        }
    }

    /// Workers (sockets) in the group.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Userspace sync: store the scheduling bitmap (Algorithm 1 line 8).
    pub fn sync_bitmap(&self, bitmap: WorkerBitmap) {
        self.sel_map.update(0, bitmap.0);
        hermes_trace::trace_count!(hermes_trace::CounterId::KernelBitmapSyncs);
    }

    /// Current bitmap (monitoring).
    pub fn bitmap(&self) -> WorkerBitmap {
        WorkerBitmap(self.sel_map.lookup(0).expect("one element"))
    }

    /// Remove a worker's socket (crash/drain): the program will fall back
    /// if it selects this slot, and default hashing skips it too.
    pub fn unregister_socket(&self, worker: WorkerId) {
        self.sock_map.unregister(worker);
    }

    /// Re-register a worker's socket (restart).
    pub fn register_socket(&self, worker: WorkerId) {
        self.sock_map.register(worker, worker);
    }

    /// Kernel-side dispatch of one new connection with 4-tuple hash `hash`.
    ///
    /// Runs the attached bytecode; when the program falls back, applies the
    /// default reuseport selection (the hash scaled over the group), so the
    /// outcome equals `ConnDispatcher::dispatch` on the same bitmap.
    pub fn dispatch(&self, hash: u32) -> DispatchOutcome {
        let result = self.run(hash);
        if result.return_value != 0 {
            let sock = result
                .selected_sock
                .expect("successful program must have committed a socket");
            DispatchOutcome::Directed(sock as WorkerId)
        } else {
            DispatchOutcome::Fallback(reciprocal_scale(hash, self.workers as u32) as WorkerId)
        }
    }

    /// The end-to-end benchmark's shim (`benchmark/src/layers.rs` times it
    /// as `ebpf.dispatch_batch_ns`): [`dispatch`](Self::dispatch) per hash,
    /// appended to `out`. Goes with ROADMAP 3(d), when the benchmark stops
    /// naming it.
    pub fn dispatch_batch(&self, hashes: &[u32], out: &mut Vec<DispatchOutcome>) {
        out.extend(hashes.iter().map(|&h| self.dispatch(h)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_core::dispatch::ConnDispatcher;
    use hermes_metrics::rng::for_each_case;

    #[test]
    fn directed_dispatch_lands_in_bitmap() {
        let g = ReuseportGroup::new(8);
        let bm = WorkerBitmap::from_workers([1, 4, 6]);
        g.sync_bitmap(bm);
        assert_eq!(g.bitmap(), bm);
        for i in 0..500u32 {
            let out = g.dispatch(i.wrapping_mul(0x9E37_79B9));
            assert!(out.is_directed());
            assert!(bm.contains(out.worker()));
        }
    }

    #[test]
    fn single_candidate_falls_back() {
        let g = ReuseportGroup::new(8);
        g.sync_bitmap(WorkerBitmap::from_workers([3]));
        let out = g.dispatch(12345);
        assert!(!out.is_directed());
        assert!(out.worker() < 8);
    }

    #[test]
    fn empty_bitmap_falls_back() {
        let g = ReuseportGroup::new(4);
        assert!(!g.dispatch(7).is_directed());
    }

    #[test]
    fn unregistered_socket_forces_fallback() {
        let g = ReuseportGroup::new(4);
        g.sync_bitmap(WorkerBitmap::from_workers([0, 1]));
        // Remove both candidate sockets: any directed pick hits ENOENT.
        g.unregister_socket(0);
        g.unregister_socket(1);
        for h in 0..100u32 {
            assert!(!g.dispatch(h).is_directed());
        }
        g.register_socket(0);
        g.register_socket(1);
        assert!(g.dispatch(1).is_directed());
    }

    #[test]
    fn group_attaches_clean_at_every_size() {
        for workers in [1usize, 2, 7, 32, 63, 64] {
            let g = ReuseportGroup::new(workers);
            assert_eq!(g.tier().trace_code(), 0, "workers={workers}");
            assert!(g.analysis().is_clean());
            let len = g.program().len();
            assert!(len < 256, "program unexpectedly large: {len}");
        }
    }

    #[test]
    fn batch_dispatch_matches_per_connection_dispatch() {
        let g = ReuseportGroup::new(64);
        g.sync_bitmap(WorkerBitmap(0x0000_F0F0_A5A5_3C3C));
        let hashes: Vec<u32> = (0..256u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let mut batch = Vec::new();
        g.dispatch_batch(&hashes, &mut batch);
        assert_eq!(batch.len(), hashes.len());
        for (h, got) in hashes.iter().zip(&batch) {
            assert_eq!(*got, g.dispatch(*h), "hash {h:#x}");
        }
        // Appends, does not clear: callers own the buffer lifecycle.
        g.dispatch_batch(&hashes[..4], &mut batch);
        assert_eq!(batch.len(), hashes.len() + 4);
    }

    #[test]
    fn dispatch_cost_is_loop_free_bounded() {
        let g = ReuseportGroup::new(64);
        g.sync_bitmap(WorkerBitmap::all(64));
        let cost = g.run(42).insns_executed;
        // Straight-line program: cost can never exceed its length.
        assert!(cost <= DispatchProgram::build(0, 1, 64).len());
        assert!(cost > 50, "popcount + ladder should dominate, got {cost}");
    }

    /// The bytecode program agrees with the native oracle
    /// `ConnDispatcher` on every bitmap/hash/group-size combination.
    #[test]
    fn bytecode_matches_native_oracle() {
        for_each_case(256, |g| {
            // Uniform bits, thinned half the time so that masked to a small
            // group the empty and single-candidate sets occur too.
            let mut bits = g.next_u64();
            if g.index(2) == 0 {
                bits &= g.next_u64() & g.next_u64();
            }
            let (hash, workers) = (g.next_u64() as u32, 1 + g.index(64));
            let group = ReuseportGroup::new(workers);
            group.sync_bitmap(WorkerBitmap(bits));
            let native = ConnDispatcher::new(workers).dispatch(WorkerBitmap(bits), hash);
            assert_eq!(
                native,
                group.dispatch(hash),
                "bits {bits:#x} hash {hash:#x} workers {workers}"
            );
        });
    }
}
