//! The Algorithm 2 connection-dispatch program, in bytecode, at any group
//! count `G` (§7), plus the reuseport attach point.
//!
//! The program mirrors the paper's `conn_dispatch_socket_select`, with §7's
//! level 1 — "select a worker group using a simple 4-tuple hash" — in
//! front of it:
//!
//! ```text
//! g   <- reciprocal_scale(hash, G)           // level 1
//! h   <- level2_hash(hash, G)                // the bits level 1 left
//! C   <- bpf_map_lookup_elem(M_Sel, g)       // group g's bitmap
//! n   <- CountNonZeroBits(C)                 // SWAR popcount, straight-line
//! if n > 1:
//!     Nth <- reciprocal_scale(h, n) + 1      // helper
//!     ID  <- FindNthNonZeroBit(C, Nth)       // branchless rank-select ladder
//!     return bpf_sk_select_reuseport(M_socket, g·size + ID)
//! else if G > 1: bpf_sk_select_reuseport(M_socket, g·size + reciprocal_scale(h, size))
//! fall back to default reuseport hashing
//! ```
//!
//! At `G == 1`, `g` is 0 and `h` the hash, and the emitter leaves level 1
//! out: what comes out is the flat program, instruction for instruction. At
//! `G > 1` the program makes the fallback pick itself, inside group `g`,
//! because the kernel's own would hash over every group's sockets.
//!
//! `CountNonZeroBits` and `FindNthNonZeroBit` cannot be helpers — the paper
//! implements them "based on [Bit Twiddling Hacks / Hamming weight]" because
//! the verifier forbids loops. Here they are emitted as straight-line SWAR
//! popcount and a forward-branching rank-select ladder of at most six rungs, and the
//! kernel's verifier admits the whole program at every shape
//! (`tests/kernel_verifier.rs`).

use crate::asm::Assembler;
use crate::helpers::{HELPER_MAP_LOOKUP, HELPER_RECIPROCAL_SCALE, HELPER_SK_SELECT_REUSEPORT};
use crate::insn::{Alu, Cond, Insn, Reg};
use crate::maps::{ArrayMap, SockArrayMap};
use crate::vm::{ExecResult, ExecTier, Vm};
use hermes_core::bitmap::{WorkerBitmap, MAX_WORKERS_PER_GROUP};
use hermes_core::dispatch::DispatchOutcome;
use hermes_core::group::worker_groups;
use hermes_core::hash::reciprocal_scale;
use hermes_core::WorkerId;

/// Fd by which a dispatch program names its bitmap array (`M_Sel`).
pub const SEL_FD: u32 = 0;
/// Fd by which it names its socket array (`M_socket`).
pub const SOCK_FD: u32 = 1;

/// Emit SWAR popcount of `x` into `x` itself, using `scratch` (clobbered).
fn emit_popcount(a: &mut Assembler, x: Reg, scratch: Reg) {
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

/// The Algorithm 2 program, as bytecode. The kernel's verifier admits it
/// where it ships ([`crate::kernel`]); userspace runs it on the checked
/// interpreter ([`ReuseportGroup`], [`Vm::new`]).
pub struct DispatchProgram;

impl DispatchProgram {
    /// Assemble Algorithm 2 for `groups` groups of `size` sockets each,
    /// reading group `g`'s bitmap from key `g` of array [`SEL_FD`] and
    /// committing socket `g·size + pos` through socket array [`SOCK_FD`].
    ///
    /// Register plan: R6 = hash·G — its high word is level 1's `g`
    /// (`reciprocal_scale`), its low word level 2's hash (`level2_hash`, the
    /// one word the helper reads), the hash itself at `G == 1` — R7 = bitmap
    /// C, R8 = n then pos, R9 = remaining rank r, R2/R3 = scratch. No stack.
    ///
    /// For single-socket groups the `n > 1` guard can never pass (the masked
    /// bitmap has at most one set bit), so only the fallback is emitted —
    /// everything below the guard would be dead code.
    pub fn build(groups: usize, size: usize) -> Vec<Insn> {
        let shapes = 1..=MAX_WORKERS_PER_GROUP;
        assert!(shapes.contains(&groups), "1..=64 groups");
        assert!(shapes.contains(&size), "1..=64 workers per group");
        let grouped = groups > 1;
        // R2 <- g, the high word of hash·G.
        let group = |a: &mut Assembler| {
            a.mov(Reg::R2, Reg::R6);
            a.alu_imm(Alu::Rsh, Reg::R2, 32);
        };
        // R2 <- the socket-array key of slot `pos` of group g.
        let key = |a: &mut Assembler, pos: Reg| {
            if grouped {
                group(a);
                a.alu_imm(Alu::Mul, Reg::R2, size as i64);
                a.alu(Alu::Add, Reg::R2, pos);
            } else {
                a.mov(Reg::R2, pos);
            }
        };
        let mut a = Assembler::new();
        let fallback = a.label();
        if grouped || size > 1 {
            a.mov(Reg::R6, Reg::R1);
        }
        if grouped {
            // Levels 1 and 2 at once: g in the high word, h in the low.
            a.alu_imm(Alu::Mul, Reg::R6, groups as i64);
        }
        if size > 1 {
            // C = M_Sel[g].
            a.mov_imm(Reg::R1, SEL_FD as i64);
            if grouped {
                group(&mut a);
            } else {
                a.mov_imm(Reg::R2, 0);
            }
            a.call(HELPER_MAP_LOOKUP);
            a.mov(Reg::R7, Reg::R0);
            // Defensive mask: never select past the group.
            a.alu_imm(Alu::And, Reg::R7, WorkerBitmap::all(size).0 as i64);

            // n = popcount(C) in R8.
            a.mov(Reg::R8, Reg::R7);
            emit_popcount(&mut a, Reg::R8, Reg::R3);

            // Guard: if n <= 1 fall back (two-stage filtering, §5.3.2).
            a.jmp_imm(Cond::Le, Reg::R8, 1, fallback);

            // Nth = reciprocal_scale(h, n) + 1, in R9.
            a.mov(Reg::R1, Reg::R6);
            a.mov(Reg::R2, Reg::R8);
            a.call(HELPER_RECIPROCAL_SCALE);
            a.mov(Reg::R9, Reg::R0);
            a.alu_imm(Alu::Add, Reg::R9, 1);

            // FindNthNonZeroBit(C, Nth): pos = 0 in R8 (n no longer needed);
            // rungs of widths 32..1, each counting the set bits of the low half
            // of the remaining window and branching forward — only those
            // narrower than the group: C is masked to `size` bits, so a
            // wider rung always finds all n bits in its low half and keeps pos.
            a.mov_imm(Reg::R8, 0);
            let reach = size.next_power_of_two() as i64;
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

            // Commit: bpf_sk_select_reuseport(M_socket, g·size + pos).
            a.mov_imm(Reg::R1, SOCK_FD as i64);
            key(&mut a, Reg::R8);
            a.call(HELPER_SK_SELECT_REUSEPORT);
            // Non-zero return (ENOENT: socket slot empty) ⇒ fall back.
            a.jmp_imm(Cond::Ne, Reg::R0, 0, fallback);
            a.mov_imm(Reg::R0, 1);
            a.exit();
        }
        a.bind(fallback);
        if grouped {
            // The kernel's fallback would hash over all G·size sockets:
            // commit group g's reuseport pick, reciprocal_scale(h, size).
            a.mov(Reg::R1, Reg::R6);
            a.mov_imm(Reg::R2, size as i64);
            a.call(HELPER_RECIPROCAL_SCALE);
            key(&mut a, Reg::R0);
            a.mov_imm(Reg::R1, SOCK_FD as i64);
            a.call(HELPER_SK_SELECT_REUSEPORT);
        }
        a.mov_imm(Reg::R0, 0);
        a.exit();
        a.finish()
    }
}

/// A reuseport group with the Hermes program attached — the moral
/// equivalent of `setsockopt(SO_ATTACH_REUSEPORT_EBPF)` plus its two maps —
/// on the checked interpreter.
///
/// Userspace-facing methods: [`publish`](Self::publish) (the
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
    vm: Vm,
    sel: ArrayMap,
    socks: SockArrayMap,
}

impl ReuseportGroup {
    /// Create a group of `workers` sockets in ⌈workers/64⌉ equal groups
    /// ([`worker_groups`], which the load balancers use too) with the
    /// dispatch program attached and every socket registered (socket handle
    /// == global worker id, as the paper's init populates `M_socket`).
    /// Panics on a count that rule refuses.
    pub fn new(workers: usize) -> Self {
        let (groups, size) = worker_groups(workers).unwrap_or_else(|e| panic!("{e}"));
        Self::with_groups(groups, size)
    }

    /// The same, at any shape the emitter takes: `groups` groups of `size`.
    pub fn with_groups(groups: usize, size: usize) -> Self {
        let socks = SockArrayMap::new(groups * size);
        for w in 0..socks.len() {
            socks.register(w, w);
        }
        Self {
            vm: Vm::new(DispatchProgram::build(groups, size)),
            sel: ArrayMap::new(groups),
            socks,
        }
    }

    /// Userspace sync: store group `group`'s scheduling bitmap (Algorithm 1
    /// line 8).
    pub fn publish(&self, group: usize, bitmap: WorkerBitmap) {
        self.sel.update(group, bitmap.0);
    }

    /// [`publish`](Self::publish) `bitmap` as every group's: the one
    /// group's at `G == 1`.
    pub fn sync_bitmap(&self, bitmap: WorkerBitmap) {
        (0..self.sel.len()).for_each(|g| self.publish(g, bitmap));
    }

    /// Remove a worker's socket (crash/drain): the program will fall back
    /// if it selects this slot, and default hashing skips it too.
    pub fn unregister_socket(&self, worker: WorkerId) {
        self.socks.unregister(worker);
    }

    /// Re-register a worker's socket (restart).
    pub fn register_socket(&self, worker: WorkerId) {
        self.socks.register(worker, worker);
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
    fn run(&self, hash: u32) -> ExecResult {
        self.vm
            .run(hash, &self.sel, &self.socks)
            .expect("the dispatch program never traps")
    }

    /// Kernel-side dispatch of one new connection with 4-tuple hash `hash`.
    ///
    /// Runs the attached bytecode. A socket the program committed is the
    /// placement, directed or — at `G > 1` — its own in-group fallback;
    /// with none, the kernel's default reuseport selection applies (the
    /// hash scaled over every socket). So the outcome equals
    /// `ConnDispatcher::dispatch` on the same bitmap at `G == 1`, and
    /// `GroupedConnDispatcher::dispatch` at any `G`.
    pub fn dispatch(&self, hash: u32) -> DispatchOutcome {
        let ran = self.run(hash);
        match ran.selected_sock {
            Some(sock) if ran.return_value != 0 => DispatchOutcome::Directed(sock),
            Some(sock) => DispatchOutcome::Fallback(sock),
            None => DispatchOutcome::Fallback(
                reciprocal_scale(hash, self.socks.len() as u32) as WorkerId
            ),
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
        assert!(cost <= g.program().len());
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

    /// At `G > 1` a group with at most one candidate falls back inside
    /// itself: the program commits the group's own reuseport pick.
    #[test]
    fn a_group_without_candidates_falls_back_within_itself() {
        let g = ReuseportGroup::with_groups(4, 8);
        // Only group 2 has candidates; the others are empty.
        g.publish(2, WorkerBitmap::from_workers([0, 1]));
        let (mut directed, mut fallback) = (0, 0);
        for i in 0..2_000u32 {
            let hash = i.wrapping_mul(0x517C_C1B7);
            let out = g.dispatch(hash);
            assert_eq!(out.worker() / 8, reciprocal_scale(hash, 4) as usize);
            if out.worker() / 8 == 2 {
                assert!(out.is_directed());
                assert!(out.worker() % 8 < 2);
                directed += 1;
            } else {
                assert!(!out.is_directed());
                fallback += 1;
            }
        }
        assert!(directed > 0 && fallback > 0);
    }
}
