//! The Algorithm 2 connection-dispatch program, in kernel eBPF encoding, at
//! any group count `G` (§7), plus the reuseport attach point.
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
//!     Nth <- reciprocal_scale(h, n) + 1      // multiply and shift
//!     ID  <- FindNthNonZeroBit(C, Nth)       // branchless rank-select ladder
//!     return bpf_sk_select_reuseport(M_socket, g·size + ID)
//! else if G > 1: bpf_sk_select_reuseport(M_socket, g·size + reciprocal_scale(h, size))
//! fall back to default reuseport hashing
//! ```
//!
//! At `G == 1`, `g` is 0 and `h` the hash, and the emitter leaves level 1
//! out: what comes out is the flat program, byte for byte. At
//! `G > 1` the program makes the fallback pick itself, inside group `g`,
//! because the kernel's own would hash over every group's sockets.
//!
//! `CountNonZeroBits` and `FindNthNonZeroBit` cannot be helpers — the paper
//! implements them "based on [Bit Twiddling Hacks / Hamming weight]" because
//! the verifier forbids loops. Here they are emitted as straight-line SWAR
//! popcount and a forward-branching rank-select ladder of at most six rungs,
//! and the kernel's verifier admits the whole program at every shape
//! (`tests/kernel_verifier.rs`). The bytes that ship at four shapes are
//! pinned by `kernel.rs`'s tests.

use crate::asm::Assembler;
use crate::insn::*;
use crate::vm::{ExecResult, ExecTier, Maps, Vm};
use hermes_core::bitmap::{WorkerBitmap, MAX_WORKERS_PER_GROUP};
use hermes_core::dispatch::DispatchOutcome;
use hermes_core::group::worker_groups;
use hermes_core::hash::reciprocal_scale;
use hermes_core::WorkerId;

/// Map index (the `imm` of an `ld_imm64`, relocated to an fd at load) of
/// the bitmap array, `M_Sel`: one word per group.
pub const SEL: i32 = 0;
/// Map index of the socket array, `M_socket`: `G·size` slots.
pub const SOCKS: i32 = 1;
/// Map index of the program's record: a one-element array, the only kind
/// `BPF_PSEUDO_MAP_VALUE` may point into, off the pages the schedulers
/// store into. Its value is `RECORD_WORDS` words at the byte offsets below.
pub const RECORD: i32 = 2;
/// Words in the record.
pub const RECORD_WORDS: usize = 3;
/// Record offset: runs that selected a socket through a bitmap.
pub const DIRECTED: i16 = 0;
/// Record offset: runs that fell back.
pub const FALLBACK: i16 = 8;
/// Record offset: `ctx->hash` of the latest run.
pub const HASH: i16 = 16;

/// Stack slots: the spilled context, and a helper's 4-byte key.
const CTX_SLOT: i16 = -8;
const KEY_SLOT: i16 = -12;

/// Emit SWAR popcount of `x` into `x` itself, using `scratch` (clobbered).
fn emit_popcount(a: &mut Assembler, x: u8, scratch: u8) {
    // x -= (x >> 1) & 0x5555...
    a.mov(scratch, x);
    a.alu_imm(RSH, scratch, 1);
    a.alu_imm(AND, scratch, 0x5555_5555_5555_5555);
    a.alu(SUB, x, scratch);
    // x = (x & 0x3333...) + ((x >> 2) & 0x3333...)
    a.mov(scratch, x);
    a.alu_imm(RSH, scratch, 2);
    a.alu_imm(AND, scratch, 0x3333_3333_3333_3333);
    a.alu_imm(AND, x, 0x3333_3333_3333_3333);
    a.alu(ADD, x, scratch);
    // x = (x + (x >> 4)) & 0x0f0f...
    a.mov(scratch, x);
    a.alu_imm(RSH, scratch, 4);
    a.alu(ADD, x, scratch);
    a.alu_imm(AND, x, 0x0f0f_0f0f_0f0f_0f0f);
    // x = (x * 0x0101...) >> 56
    a.alu_imm(MUL, x, 0x0101_0101_0101_0101);
    a.alu_imm(RSH, x, 56);
}

/// `R0 = reciprocal_scale(R1, R2)`, `((u32)R1 * (u32)R2) >> 32` — not a
/// kernel helper, so a multiply and a shift; 32-bit moves zero-extend.
fn emit_reciprocal_scale(a: &mut Assembler) {
    a.emit(ALU | MOV | X, R0, R1, 0, 0);
    a.emit(ALU | MOV | X, R2, R2, 0, 0);
    a.alu(MUL, R0, R2);
    a.alu_imm(RSH, R0, 32);
}

/// `R2`'s low word onto the stack as a helper's key, its address in `ptr`.
fn emit_key_ptr(a: &mut Assembler, ptr: u8) {
    a.stx(W, R10, R2, KEY_SLOT);
    a.mov(ptr, R10);
    a.alu_imm(ADD, ptr, KEY_SLOT as i64);
}

/// `R0 = M_Sel[R2]`: the lookup returns a pointer to the value, or null
/// for a key past the array's end, which reads as an empty bitmap.
fn emit_lookup(a: &mut Assembler) {
    let null = a.label();
    emit_key_ptr(a, R2);
    a.ld_imm64(R1, PSEUDO_MAP_FD, SEL as i64);
    a.call(FN_MAP_LOOKUP_ELEM);
    a.jmp_imm(JEQ, R0, 0, null);
    a.ldx(DW, R0, R0, 0);
    a.bind(null);
}

/// `R0 = bpf_sk_select_reuseport(ctx, M_socket, &R2, 0)`: 0, or a negative
/// errno (`ENOENT`: the slot is empty).
fn emit_select(a: &mut Assembler) {
    emit_key_ptr(a, R3);
    a.ld_imm64(R2, PSEUDO_MAP_FD, SOCKS as i64);
    a.ldx(DW, R1, R10, CTX_SLOT);
    a.mov_imm(R4, 0);
    a.call(FN_SK_SELECT_REUSEPORT);
}

/// Exit with `SK_PASS`, counting the path in the record word at `counter`
/// ([`DIRECTED`] or [`FALLBACK`]): the kernel drops the connection on any
/// other return value. Each exit site knows its path, so it emits its own
/// count.
fn emit_exit(a: &mut Assembler, counter: i16) {
    a.ld_imm64(R1, PSEUDO_MAP_VALUE, RECORD as i64);
    a.mov_imm(R2, 1);
    a.emit(STX | DW | ATOMIC, R1, R2, counter, ADD as i32);
    a.mov_imm(R0, SK_PASS as i64);
    a.exit();
}

/// The Algorithm 2 program, in kernel encoding: the kernel's verifier
/// admits these bytes where they ship ([`crate::kernel`]), and userspace
/// runs the same bytes on the checked interpreter ([`ReuseportGroup`],
/// [`Vm::new`]).
pub struct DispatchProgram;

impl DispatchProgram {
    /// Assemble Algorithm 2 for `groups` groups of `size` sockets each,
    /// reading group `g`'s bitmap from key `g` of map [`SEL`] and
    /// committing socket `g·size + pos` through map [`SOCKS`].
    ///
    /// Entry spills the context to the stack and records its hash. Register
    /// plan: R6 = hash·G — its high word is level 1's `g`
    /// (`reciprocal_scale`), its low word level 2's hash (`level2_hash`, the
    /// one word the scale reads), the hash itself at `G == 1` — R7 = bitmap
    /// C, R8 = n then pos, R9 = remaining rank r, R2/R3 = scratch, R5 the
    /// assembler's wide immediates. Each helper call's `ld_imm64` loads the
    /// map it names straight into its argument register.
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
            a.mov(R2, R6);
            a.alu_imm(RSH, R2, 32);
        };
        // R2 <- the socket-array key of slot `pos` of group g.
        let key = |a: &mut Assembler, pos: u8| {
            if grouped {
                group(a);
                a.alu_imm(MUL, R2, size as i64);
                a.alu(ADD, R2, pos);
            } else {
                a.mov(R2, pos);
            }
        };
        let mut a = Assembler::new();
        let fallback = a.label();
        a.stx(DW, R10, R1, CTX_SLOT);
        a.ldx(W, R1, R1, MD_HASH);
        a.ld_imm64(R2, PSEUDO_MAP_VALUE, RECORD as i64);
        a.stx(DW, R2, R1, HASH);
        if grouped || size > 1 {
            a.mov(R6, R1);
        }
        if grouped {
            // Levels 1 and 2 at once: g in the high word, h in the low.
            a.alu_imm(MUL, R6, groups as i64);
        }
        if size > 1 {
            // C = M_Sel[g].
            if grouped {
                group(&mut a);
            } else {
                a.mov_imm(R2, 0);
            }
            emit_lookup(&mut a);
            a.mov(R7, R0);
            // Defensive mask: never select past the group.
            a.alu_imm(AND, R7, WorkerBitmap::all(size).0 as i64);

            // n = popcount(C) in R8.
            a.mov(R8, R7);
            emit_popcount(&mut a, R8, R3);

            // Guard: if n <= 1 fall back (two-stage filtering, §5.3.2).
            a.jmp_imm(JLE, R8, 1, fallback);

            // Nth = reciprocal_scale(h, n) + 1, in R9.
            a.mov(R1, R6);
            a.mov(R2, R8);
            emit_reciprocal_scale(&mut a);
            a.mov(R9, R0);
            a.alu_imm(ADD, R9, 1);

            // FindNthNonZeroBit(C, Nth): pos = 0 in R8 (n no longer needed);
            // rungs of widths 32..1, each counting the set bits of the low half
            // of the remaining window and branching forward — only those
            // narrower than the group: C is masked to `size` bits, so a
            // wider rung always finds all n bits in its low half and keeps pos.
            a.mov_imm(R8, 0);
            let reach = size.next_power_of_two() as i64;
            for width in [32i64, 16, 8, 4, 2, 1].into_iter().filter(|&w| w < reach) {
                let skip = a.label();
                // low = popcount((C >> pos) & ((1 << width) - 1))
                a.mov(R2, R7);
                a.alu(RSH, R2, R8);
                a.alu_imm(AND, R2, (1i64 << width) - 1);
                emit_popcount(&mut a, R2, R3);
                // if low >= r: answer is in the low half, keep pos.
                a.jmp(JGE, R2, R9, skip);
                // else r -= low; pos += width.
                a.alu(SUB, R9, R2);
                a.alu_imm(ADD, R8, width);
                a.bind(skip);
            }

            // Commit: bpf_sk_select_reuseport(M_socket, g·size + pos).
            key(&mut a, R8);
            emit_select(&mut a);
            // Non-zero return (ENOENT: socket slot empty) ⇒ fall back.
            a.jmp_imm(JNE, R0, 0, fallback);
            emit_exit(&mut a, DIRECTED);
        }
        a.bind(fallback);
        if grouped {
            // The kernel's fallback would hash over all G·size sockets:
            // commit group g's reuseport pick, reciprocal_scale(h, size).
            a.mov(R1, R6);
            a.mov_imm(R2, size as i64);
            emit_reciprocal_scale(&mut a);
            key(&mut a, R0);
            emit_select(&mut a);
        }
        emit_exit(&mut a, FALLBACK);
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
    maps: Maps,
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
        let maps = Maps::new(groups, groups * size);
        (0..maps.slots()).for_each(|w| maps.register(w, w));
        Self {
            vm: Vm::new(DispatchProgram::build(groups, size)),
            maps,
        }
    }

    /// Userspace sync: store group `group`'s scheduling bitmap (Algorithm 1
    /// line 8).
    pub fn publish(&self, group: usize, bitmap: WorkerBitmap) {
        self.maps.publish(group, bitmap.0);
    }

    /// [`publish`](Self::publish) `bitmap` as every group's: the one
    /// group's at `G == 1`.
    pub fn sync_bitmap(&self, bitmap: WorkerBitmap) {
        (0..self.maps.groups()).for_each(|g| self.publish(g, bitmap));
    }

    /// Remove a worker's socket (crash/drain): the program will fall back
    /// if it selects this slot, and default hashing skips it too.
    pub fn unregister_socket(&self, worker: WorkerId) {
        self.maps.unregister(worker);
    }

    /// Re-register a worker's socket (restart).
    pub fn register_socket(&self, worker: WorkerId) {
        self.maps.register(worker, worker);
    }

    /// The attached program.
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
            .run(hash, &self.maps)
            .expect("the dispatch program never traps")
    }

    /// Kernel-side dispatch of one new connection with 4-tuple hash `hash`.
    ///
    /// Runs the attached program. A socket it committed is the placement,
    /// directed (the run counted itself in the record's [`DIRECTED`] word)
    /// or — at `G > 1` — its own in-group fallback;
    /// with none, the kernel's default reuseport selection applies (the
    /// hash scaled over every socket). So the outcome equals
    /// `ConnDispatcher::dispatch` on the same bitmap at `G == 1`, and
    /// `GroupedConnDispatcher::dispatch` at any `G`.
    pub fn dispatch(&self, hash: u32) -> DispatchOutcome {
        let ran = self.run(hash);
        match ran.selected_sock {
            Some(sock) if ran.record[DIRECTED as usize / 8] != 0 => DispatchOutcome::Directed(sock),
            Some(sock) => DispatchOutcome::Fallback(sock),
            None => DispatchOutcome::Fallback(
                reciprocal_scale(hash, self.maps.slots() as u32) as WorkerId
            ),
        }
    }

    /// The end-to-end benchmark's shim (`benchmark/src/layers.rs` times it
    /// as `ebpf.dispatch_batch_ns`): [`dispatch`](Self::dispatch) per hash,
    /// appended to `out`. Goes with ROADMAP 1(c), when the benchmark stops
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
