//! The fourth execution tier: x86-64 machine-code emission for
//! translation-validated programs.
//!
//! The compiled tier ([`crate::compile`]) removed per-instruction
//! fetch/decode but still walks `Step` slices through a Rust match — an
//! interpretation tax of ~250 ns/dispatch against the native oracle's
//! ~17 ns. This module removes the interpreter entirely: each
//! [`CompiledProgram`] basic block is lowered to native code in a
//! hand-rolled emitter (raw bytes, no dependencies), with
//!
//! * the frozen map table baked in: constant-fd slots and
//!   [`ResolvedBank`] base/len tables become immediate operands — zero
//!   registry traffic, zero `Arc` traffic, zero locks per dispatch;
//! * helper calls inlined: `reciprocal_scale` is four instructions, map
//!   lookups a guarded indexed load, `bpf_sk_select_reuseport` a
//!   compare-and-store;
//! * the fused SWAR popcount window collapsed to a single `POPCNT`
//!   instruction when the scratch register is provably dead (a small
//!   cross-block liveness pass over the forward DAG) and the CPU has it.
//!
//! **Admission** mirrors the compiled tier's cert gate:
//! [`JitProgram::emit`] demands a [`ValidationCert`], which only
//! [`crate::validate::validate`] can mint — so native code exists only
//! for programs proven bit-equivalent to the checked interpreter.
//!
//! **Safety policy.** Emitted code never trusts the analysis proofs with
//! memory safety: every baked-pointer access is preceded by a bounds
//! guard that branches to a fault stub on violation, and the Rust
//! wrapper turns a tripped guard into a loud panic — the exact analogue
//! of [`crate::maps::ArrayMap::lookup_fast`]'s safe-indexing panic. The
//! guards are never taken for certified programs; they cost one
//! predictable compare each. Code pages follow a strict W^X lifecycle
//! ([`crate::execmem`]): written under `PROT_READ|PROT_WRITE`, sealed to
//! `PROT_READ|PROT_EXEC`, never both.
//!
//! Non-x86-64 (or non-Linux) builds keep the portable ladder: emission
//! reports [`JitError::UnsupportedArch`] and [`crate::vm::Vm`] stays on
//! the compiled tier.
//!
//! [`ResolvedBank`]: crate::compile::ResolvedBank

/// Why a certified program could not be JIT'd. Every variant is a clean
/// fallback to the compiled tier, not a correctness problem — except
/// [`JitError::BadJumpTarget`], which indicates the emitter itself
/// produced a control transfer outside the audited landing set and
/// refuses to map the code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JitError {
    /// The build target is not x86-64 Linux; the compiled tier remains
    /// the ceiling.
    UnsupportedArch,
    /// A constant-fd slot or bank fd did not resolve in the registry the
    /// JIT was asked to bake against.
    UnresolvedMap {
        /// The fd that failed to resolve.
        fd: u32,
    },
    /// The program writes R10 — the analysis forbids this, and the JIT's
    /// register convention pins R10's home to a constant, so emission
    /// refuses rather than miscompile.
    WritesFramePointer,
    /// The post-patch jump audit found a control transfer landing outside
    /// the recorded set of valid targets (block entries, epilogue, fault
    /// stub). The code buffer is discarded unexecuted.
    BadJumpTarget {
        /// Byte offset of the offending rel32 field.
        at: usize,
    },
    /// `mmap`/`mprotect` failed while mapping the code pages.
    Map(String),
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::UnsupportedArch => write!(f, "jit requires x86-64 Linux"),
            JitError::UnresolvedMap { fd } => {
                write!(f, "map fd {fd} did not resolve in the target registry")
            }
            JitError::WritesFramePointer => write!(f, "program writes R10"),
            JitError::BadJumpTarget { at } => {
                write!(
                    f,
                    "emitted jump at byte {at} lands outside the audited target set"
                )
            }
            JitError::Map(e) => write!(f, "mapping code pages failed: {e}"),
        }
    }
}

impl std::error::Error for JitError {}

/// Seeded miscompilations for the mutation-kill suite (`tests/jit_mutants.rs`).
/// Each models a classic emitter bug; the suite asserts every one is
/// either rejected at emit time by the jump audit or caught by the
/// differential fuzz against the interpreter tiers. Test-only: production
/// code paths never pass a mutation.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JitMutation {
    /// Encode conditional-branch immediates off by one (`jle r, v`
    /// becomes `jle r, v+1`).
    WrongImmediate,
    /// Clobber callee-saved RBX (eBPF R6's home) inside the popcount
    /// lowering without saving it.
    ClobberCalleeSaved,
    /// Patch the first block-level rel32 one byte past its target.
    OffByOneJump,
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use super::{JitError, JitMutation};
    use crate::compile::{BrSrc, CompiledProgram, ResolvedBank, Step, Terminator, M1, M2, M3, M4};
    use crate::execmem::{CodeBuf, ExecBuf};
    use crate::helpers::ENOENT_RET;
    use crate::insn::{Alu, Cond, STACK_SIZE};
    use crate::maps::{ArrayMap, MapKind, MapRef, MapRegistry, SockArrayMap, NO_SOCK};
    use crate::validate::ValidationCert;
    use crate::vm::ExecResult;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    // x86-64 register numbers (hardware encoding; bit 3 goes to REX).
    const RAX: u8 = 0;
    const RCX: u8 = 1;
    const RDX: u8 = 2;
    const RBX: u8 = 3;
    const RSP: u8 = 4;
    const RBP: u8 = 5;
    const RSI: u8 = 6;
    const RDI: u8 = 7;
    const R8: u8 = 8;
    const R9: u8 = 9;
    const R10: u8 = 10;
    const R11: u8 = 11;
    const R12: u8 = 12;
    const R13: u8 = 13;
    const R14: u8 = 14;
    const R15: u8 = 15;

    /// eBPF register → x86-64 home. R1 lands in RDI so the entry
    /// argument (the ctx hash, SysV arg 0) is already in place; R0's
    /// home RSI doubles as the return-value staging register; the
    /// callee-saved eBPF registers R6–R9 live in callee-saved hardware
    /// registers; R10 (the frame "pointer" — really the constant
    /// `STACK_SIZE`) lives in RBP. RAX/RCX/RDX are never homes, so
    /// division (RAX:RDX) and variable shifts (CL) need no shuffling.
    const REG_MAP: [u8; 11] = [RSI, RDI, R8, R9, R10, R11, RBX, R13, R14, R15, RBP];

    /// Retired-instruction accumulator.
    const EXEC_CTR: u8 = R12;

    // Frame layout below RSP after the prologue's `sub rsp, FRAME`:
    // [rsp+0 .. rsp+512)   eBPF stack (byte-addressed, little-endian,
    //                      exactly the interpreter's `[u8; 512]`)
    // [rsp+512]            selected socket (u64::MAX = none)
    // [rsp+520]            out-pointer (entry arg 1, spilled)
    const SELECTED_OFF: u32 = STACK_SIZE as u32;
    const OUT_OFF: u32 = SELECTED_OFF + 8;
    const FRAME: i32 = OUT_OFF as i32 + 8;

    // Condition codes for Jcc (0x0F 0x80|cc). eBPF compares are
    // unsigned, so Gt/Ge/Lt/Le map to above/below. Inverting a
    // condition is `cc ^ 1` by ModR/M construction.
    const CC_E: u8 = 0x4;
    const CC_NE: u8 = 0x5;
    const CC_B: u8 = 0x2;
    const CC_AE: u8 = 0x3;
    const CC_BE: u8 = 0x6;
    const CC_A: u8 = 0x7;

    fn cc_of(cond: Cond) -> u8 {
        match cond {
            Cond::Eq => CC_E,
            Cond::Ne => CC_NE,
            Cond::Gt => CC_A,
            Cond::Ge => CC_AE,
            Cond::Lt => CC_B,
            Cond::Le => CC_BE,
        }
    }

    fn hw(r: u8) -> u8 {
        REG_MAP[r as usize]
    }

    fn imm_fits_i32(v: u64) -> bool {
        v as i64 >= i32::MIN as i64 && v as i64 <= i32::MAX as i64
    }

    /// CPUID.01H:ECX bit 23 — the `POPCNT` instruction. Probed once per
    /// emission; the SWAR ladder is the fallback on pre-Nehalem silicon.
    fn has_popcnt() -> bool {
        (std::arch::x86_64::__cpuid(1).ecx >> 23) & 1 == 1
    }

    /// Raw byte buffer with the encodings this emitter needs. Operands
    /// are hardware register numbers; `rex` places bit 3 of each.
    struct Asm {
        code: Vec<u8>,
    }

    impl Asm {
        fn new() -> Self {
            Asm { code: Vec::new() }
        }

        fn here(&self) -> usize {
            self.code.len()
        }

        fn u8(&mut self, b: u8) {
            self.code.push(b);
        }

        fn u32le(&mut self, v: u32) {
            self.code.extend_from_slice(&v.to_le_bytes());
        }

        fn u64le(&mut self, v: u64) {
            self.code.extend_from_slice(&v.to_le_bytes());
        }

        /// REX prefix for (reg, index, rm); skipped when empty and no
        /// 64-bit width is requested.
        fn rex(&mut self, w: bool, reg: u8, index: u8, rm: u8) {
            let b = 0x40
                | u8::from(w) << 3
                | ((reg >> 3) & 1) << 2
                | ((index >> 3) & 1) << 1
                | ((rm >> 3) & 1);
            if b != 0x40 {
                self.u8(b);
            }
        }

        fn modrm(&mut self, mode: u8, reg: u8, rm: u8) {
            self.u8(mode << 6 | (reg & 7) << 3 | (rm & 7));
        }

        /// `mov dst, src` (64-bit).
        fn mov_rr(&mut self, dst: u8, src: u8) {
            self.rex(true, src, 0, dst);
            self.u8(0x89);
            self.modrm(3, src, dst);
        }

        /// `mov dst32, src32` — zero-extends into the full register.
        fn mov_rr32(&mut self, dst: u8, src: u8) {
            self.rex(false, src, 0, dst);
            self.u8(0x89);
            self.modrm(3, src, dst);
        }

        /// `xor dst32, dst32` — the canonical zero idiom.
        fn zero(&mut self, r: u8) {
            self.rex(false, r, 0, r);
            self.u8(0x31);
            self.modrm(3, r, r);
        }

        /// `mov dst, imm` via the cheapest encoding.
        fn mov_ri(&mut self, dst: u8, imm: u64) {
            if imm == 0 {
                self.zero(dst);
            } else if imm <= u32::MAX as u64 {
                // B8+r imm32 zero-extends.
                self.rex(false, 0, 0, dst);
                self.u8(0xB8 + (dst & 7));
                self.u32le(imm as u32);
            } else if imm_fits_i32(imm) {
                // C7 /0 imm32 sign-extends.
                self.rex(true, 0, 0, dst);
                self.u8(0xC7);
                self.modrm(3, 0, dst);
                self.u32le(imm as u32);
            } else {
                // movabs.
                self.rex(true, 0, 0, dst);
                self.u8(0xB8 + (dst & 7));
                self.u64le(imm);
            }
        }

        /// Two-operand ALU, register form: `opc` is the /r opcode
        /// (0x01 add, 0x29 sub, 0x21 and, 0x09 or, 0x31 xor, 0x39 cmp).
        fn alu_rr(&mut self, opc: u8, dst: u8, src: u8) {
            self.rex(true, src, 0, dst);
            self.u8(opc);
            self.modrm(3, src, dst);
        }

        /// Two-operand ALU, immediate form: `ext` is the /digit
        /// (0 add, 1 or, 4 and, 5 sub, 6 xor, 7 cmp).
        fn alu_ri(&mut self, ext: u8, dst: u8, imm: i32) {
            self.rex(true, 0, 0, dst);
            if (-128..=127).contains(&imm) {
                self.u8(0x83);
                self.modrm(3, ext, dst);
                self.u8(imm as u8);
            } else {
                self.u8(0x81);
                self.modrm(3, ext, dst);
                self.u32le(imm as u32);
            }
        }

        /// `imul dst, src` (64-bit, truncating — eBPF `mul` semantics).
        fn imul_rr(&mut self, dst: u8, src: u8) {
            self.rex(true, dst, 0, src);
            self.u8(0x0F);
            self.u8(0xAF);
            self.modrm(3, dst, src);
        }

        /// Shift by immediate: `ext` 4 shl, 5 shr, 7 sar.
        fn shift_ri(&mut self, ext: u8, dst: u8, imm: u8) {
            self.rex(true, 0, 0, dst);
            self.u8(0xC1);
            self.modrm(3, ext, dst);
            self.u8(imm);
        }

        /// Shift by CL: `ext` 4 shl, 5 shr, 7 sar.
        fn shift_cl(&mut self, ext: u8, dst: u8) {
            self.rex(true, 0, 0, dst);
            self.u8(0xD3);
            self.modrm(3, ext, dst);
        }

        /// `div src` — unsigned RDX:RAX / src.
        fn div_r(&mut self, src: u8) {
            self.rex(true, 0, 0, src);
            self.u8(0xF7);
            self.modrm(3, 6, src);
        }

        /// `popcnt dst, src` (F3 REX.W 0F B8 /r).
        fn popcnt_rr(&mut self, dst: u8, src: u8) {
            self.u8(0xF3);
            self.rex(true, dst, 0, src);
            self.u8(0x0F);
            self.u8(0xB8);
            self.modrm(3, dst, src);
        }

        /// `mov dst, [base + index*8]`. `base` must be RAX/RCX/RDX
        /// (low encodings that need neither disp nor SIB-base special
        /// cases); `index` may be any register but RSP.
        fn load_idx8(&mut self, dst: u8, base: u8, index: u8) {
            debug_assert!(base & 7 != 5 && base != RSP && index != RSP);
            self.rex(true, dst, index, base);
            self.u8(0x8B);
            self.modrm(0, dst, 4);
            self.u8(3 << 6 | (index & 7) << 3 | (base & 7));
        }

        /// `mov dst, [base + index + disp8]` (scale 1).
        fn load_idx1_disp8(&mut self, dst: u8, base: u8, index: u8, disp: i8) {
            debug_assert!(base != RSP && index != RSP);
            self.rex(true, dst, index, base);
            self.u8(0x8B);
            self.modrm(1, dst, 4);
            self.u8((index & 7) << 3 | (base & 7));
            self.u8(disp as u8);
        }

        /// `mov [rsp + disp], src`.
        fn store_rsp(&mut self, disp: u32, src: u8) {
            self.rex(true, src, 0, RSP);
            self.u8(0x89);
            self.modrm(2, src, 4);
            self.u8(0x24);
            self.u32le(disp);
        }

        /// `mov dst, [rsp + disp]`.
        fn load_rsp(&mut self, dst: u8, disp: u32) {
            self.rex(true, dst, 0, RSP);
            self.u8(0x8B);
            self.modrm(2, dst, 4);
            self.u8(0x24);
            self.u32le(disp);
        }

        /// `mov qword [rsp + disp], imm32` (sign-extended).
        fn store_imm_rsp(&mut self, disp: u32, imm: i32) {
            self.rex(true, 0, 0, RSP);
            self.u8(0xC7);
            self.modrm(2, 0, 4);
            self.u8(0x24);
            self.u32le(disp);
            self.u32le(imm as u32);
        }

        /// `mov qword [base + disp8], imm32` (sign-extended).
        fn store_imm_disp8(&mut self, base: u8, disp: i8, imm: i32) {
            debug_assert!(base & 7 != 4);
            self.rex(true, 0, 0, base);
            self.u8(0xC7);
            self.modrm(1, 0, base);
            self.u8(disp as u8);
            self.u32le(imm as u32);
        }

        /// `mov [base + disp8], src`.
        fn store_disp8(&mut self, base: u8, disp: i8, src: u8) {
            debug_assert!(base & 7 != 4);
            self.rex(true, src, 0, base);
            self.u8(0x89);
            self.modrm(1, src, base);
            self.u8(disp as u8);
        }

        fn push(&mut self, r: u8) {
            self.rex(false, 0, 0, r);
            self.u8(0x50 + (r & 7));
        }

        fn pop(&mut self, r: u8) {
            self.rex(false, 0, 0, r);
            self.u8(0x58 + (r & 7));
        }

        fn ret(&mut self) {
            self.u8(0xC3);
        }

        /// `jmp rel32` with a zero placeholder; returns the rel32 offset.
        fn jmp_rel32(&mut self) -> usize {
            self.u8(0xE9);
            let at = self.here();
            self.u32le(0);
            at
        }

        /// `jcc rel32` with a zero placeholder; returns the rel32 offset.
        fn jcc_rel32(&mut self, cc: u8) -> usize {
            self.u8(0x0F);
            self.u8(0x80 | cc);
            let at = self.here();
            self.u32le(0);
            at
        }

        /// Patch the rel32 at `at` to land on byte offset `target`.
        fn patch(&mut self, at: usize, target: usize) {
            let rel = (target as i64 - (at as i64 + 4)) as i32;
            self.code[at..at + 4].copy_from_slice(&rel.to_le_bytes());
        }
    }

    /// Where a pending rel32 must land.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum FixTarget {
        Block(u32),
        Epilogue,
        Fault,
    }

    /// A baked map slot: the Arc keeps the buffer whose base address the
    /// emitted code carries as an immediate.
    #[derive(Debug)]
    enum JitSlot {
        Array(Arc<ArrayMap>),
        Sock(Arc<SockArrayMap>),
    }

    /// One bank entry as the emitted code reads it: `[elems_ptr, len]`,
    /// indexed by `(R1 - base) * 16`.
    #[repr(C)]
    #[derive(Debug)]
    struct BankEntry {
        ptr: *const u8,
        len: u64,
    }

    /// Register read/write sets per step, as R0..R10 bitmasks — the
    /// transfer function of the scratch-liveness pass. Sets are exact,
    /// not conservative: an over-wide read set would only disable the
    /// POPCNT collapse, but an over-narrow one would miscompile, so
    /// these mirror `CompiledProgram::exec` case by case.
    fn step_writes(s: &Step) -> u16 {
        match *s {
            Step::MovImm { dst, .. }
            | Step::MovReg { dst, .. }
            | Step::AluImm { dst, .. }
            | Step::AluReg { dst, .. }
            | Step::LdxStack { dst, .. } => 1 << dst,
            Step::StxStack { .. } => 0,
            Step::Popcount { x, scratch } => (1 << x) | (1 << scratch),
            Step::ReciprocalScale
            | Step::LookupConst { .. }
            | Step::LookupBank { .. }
            | Step::SkSelectConst { .. }
            | Step::SkSelectBank { .. } => 0b11_1111,
        }
    }

    fn step_reads(s: &Step) -> u16 {
        match *s {
            Step::MovImm { .. } | Step::LdxStack { .. } => 0,
            Step::MovReg { src, .. } => 1 << src,
            Step::AluImm { dst, .. } => 1 << dst,
            Step::AluReg { dst, src, .. } => (1 << dst) | (1 << src),
            Step::StxStack { src, .. } => 1 << src,
            Step::Popcount { x, .. } => 1 << x,
            Step::ReciprocalScale | Step::LookupBank { .. } | Step::SkSelectBank { .. } => 0b110,
            Step::LookupConst { .. } | Step::SkSelectConst { .. } => 1 << 2,
        }
    }

    /// For every `Popcount` step, whether its scratch register is live
    /// after the step on any path. Backward dataflow over the forward
    /// DAG: blocks in reverse index order see all successors resolved
    /// (targets always point forward).
    fn popcount_scratch_live(cp: &CompiledProgram) -> Vec<Box<[bool]>> {
        let n = cp.blocks.len();
        let mut live_in = vec![0u16; n];
        let mut flags: Vec<Box<[bool]>> = cp
            .blocks
            .iter()
            .map(|b| vec![false; b.steps.len()].into_boxed_slice())
            .collect();
        for bi in (0..n).rev() {
            let block = &cp.blocks[bi];
            let mut live: u16 = match block.term {
                Terminator::Jump { target } => live_in[target as usize],
                Terminator::Branch {
                    dst,
                    src,
                    taken,
                    fall,
                    ..
                } => {
                    let mut l = live_in[taken as usize] | live_in[fall as usize] | 1 << dst;
                    if let BrSrc::Reg(r) = src {
                        l |= 1 << r;
                    }
                    l
                }
                Terminator::Exit => 1, // R0
            };
            for (si, step) in block.steps.iter().enumerate().rev() {
                if let Step::Popcount { scratch, .. } = *step {
                    flags[bi][si] = live & 1 << scratch != 0;
                }
                live = (live & !step_writes(step)) | step_reads(step);
            }
            live_in[bi] = live;
        }
        flags
    }

    /// Signature of the emitted entry point. `out` receives
    /// `[selected, executed, fault]`.
    type EntryFn = unsafe extern "sysv64" fn(hash: u64, out: *mut u64) -> u64;

    /// A certified program lowered to native x86-64 code, plus ownership
    /// of everything the baked immediates point into.
    pub struct JitProgram {
        buf: ExecBuf,
        entry: EntryFn,
        /// Frozen fd table the code was baked against — the identity key
        /// [`Vm::prepare_jit`](crate::vm::Vm::prepare_jit) checks before
        /// running.
        table: Arc<[MapRef]>,
        blocks: usize,
        /// Keepalives: the emitted code holds raw addresses into these.
        _slots: Vec<JitSlot>,
        _banks: Option<Arc<[ResolvedBank]>>,
        _bank_tables: Vec<Box<[BankEntry]>>,
    }

    // The raw pointers inside (`entry`, bank tables) address the sealed
    // RX mapping and map buffers owned by the Arcs in `_slots` /
    // `_banks`, which live as long as `self`; emitted code only performs
    // aligned 8-byte loads from atomically-updated buffers (an aligned
    // mov on x86-64 is a relaxed-or-stronger atomic load).
    // SAFETY: per the above, sharing across threads cannot race or
    // dangle — all reachable state is immutable or atomically read.
    unsafe impl Send for JitProgram {}
    // SAFETY: see the Send impl — all reachable state is immutable or
    // atomically accessed.
    unsafe impl Sync for JitProgram {}

    impl std::fmt::Debug for JitProgram {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("JitProgram")
                .field("code_len", &self.buf.len())
                .field("blocks", &self.blocks)
                .finish_non_exhaustive()
        }
    }

    /// The emitter proper: assembler plus pending fixups and the landing
    /// map the post-patch audit checks.
    struct Emitter {
        asm: Asm,
        block_offs: Vec<usize>,
        fixups: Vec<(usize, FixTarget)>,
        use_popcnt: bool,
        scratch_live: Vec<Box<[bool]>>,
        mutation: Option<JitMutation>,
    }

    impl Emitter {
        /// Zero eBPF caller-clobbered helper argument registers R1–R5 —
        /// every inlined helper ends with this, mirroring
        /// `regs[1..=5].fill(0)`.
        fn zero_r1_r5(&mut self) {
            for r in 1..=5u8 {
                self.asm.zero(hw(r));
            }
        }

        /// `cmp hw_reg, imm` for an arbitrary u64 immediate (via RAX
        /// when it does not sign-extend from 32 bits).
        fn cmp_ri(&mut self, hw_reg: u8, imm: u64) {
            if imm_fits_i32(imm) {
                self.asm.alu_ri(7, hw_reg, imm as i32);
            } else {
                self.asm.mov_ri(RAX, imm);
                self.asm.alu_rr(0x39, hw_reg, RAX);
            }
        }

        fn prologue(&mut self, cp: &CompiledProgram) {
            for r in [RBX, RBP, R12, R13, R14, R15] {
                self.asm.push(r);
            }
            self.asm.alu_ri(5, RSP, FRAME);
            // Spill entry arg 1; arg 0 (the hash) is already in RDI, which
            // is exactly eBPF R1's home.
            self.asm.store_rsp(OUT_OFF, RSI);
            self.asm.store_imm_rsp(SELECTED_OFF, -1);
            // Zero-init exactly the stack bytes any LdxStack can read:
            // with identical stores, every byte a load observes is then
            // bit-identical to the interpreter's fully-zeroed frame.
            let read_bases: BTreeSet<u16> = cp
                .blocks
                .iter()
                .flat_map(|b| b.steps.iter())
                .filter_map(|s| match *s {
                    Step::LdxStack { base, .. } => Some(base),
                    _ => None,
                })
                .collect();
            for base in read_bases {
                self.asm.store_imm_rsp(base as u32, 0);
            }
            // eBPF register file: R1 = hash (already in RDI), R10 = 512,
            // everything else zero.
            for r in [0u8, 2, 3, 4, 5, 6, 7, 8, 9] {
                self.asm.zero(hw(r));
            }
            self.asm.mov_ri(hw(10), STACK_SIZE as u64);
            self.asm.zero(EXEC_CTR);
        }

        fn epilogue(&mut self) {
            // Return value = R0; write selected + executed through the
            // spilled out-pointer. The fault flag is owned by the Rust
            // wrapper (0) and the fault stub (1).
            self.asm.mov_rr(RAX, hw(0));
            self.asm.load_rsp(RCX, OUT_OFF);
            self.asm.load_rsp(RDX, SELECTED_OFF);
            self.asm.store_disp8(RCX, 0, RDX);
            self.asm.store_disp8(RCX, 8, EXEC_CTR);
            self.asm.alu_ri(0, RSP, FRAME);
            for r in [R15, R14, R13, R12, RBP, RBX] {
                self.asm.pop(r);
            }
            self.asm.ret();
        }

        /// Fault stub: an analysis-proof-backed bounds guard failed at
        /// run time. Set `out.fault = 1` and leave through the epilogue;
        /// the wrapper panics. Never reached by certified programs.
        fn fault_stub(&mut self, epilogue: usize) {
            self.asm.load_rsp(RCX, OUT_OFF);
            self.asm.store_imm_disp8(RCX, 16, 1);
            let j = self.asm.jmp_rel32();
            self.asm.patch(j, epilogue);
        }

        fn step(
            &mut self,
            step: &Step,
            scratch_is_live: bool,
            slots: &[JitSlot],
            bank_tables: &[Box<[BankEntry]>],
            bank_lens: &[u32],
        ) {
            match *step {
                Step::MovImm { dst, imm } => self.asm.mov_ri(hw(dst), imm),
                Step::MovReg { dst, src } => self.asm.mov_rr(hw(dst), hw(src)),
                Step::AluImm { op, dst, imm } => self.alu_imm(op, hw(dst), imm),
                Step::AluReg { op, dst, src } => self.alu_reg(op, hw(dst), hw(src)),
                Step::StxStack { base, src } => self.asm.store_rsp(base as u32, hw(src)),
                Step::LdxStack { dst, base } => self.asm.load_rsp(hw(dst), base as u32),
                Step::Popcount { x, scratch } => self.popcount(hw(x), hw(scratch), scratch_is_live),
                Step::ReciprocalScale => {
                    // R0 = (u32(R1) * u32(R2)) >> 32, branch-free: the
                    // interpreter's range==0 arm returns 0, and so does
                    // the multiply.
                    self.asm.mov_rr32(RAX, hw(1));
                    self.asm.mov_rr32(RCX, hw(2));
                    self.asm.imul_rr(RAX, RCX);
                    self.asm.shift_ri(5, RAX, 32);
                    self.asm.mov_rr(hw(0), RAX);
                    self.zero_r1_r5();
                }
                Step::LookupConst { slot } => {
                    let JitSlot::Array(m) = &slots[slot as usize] else {
                        unreachable!("emit checked slot kinds");
                    };
                    // Guard key < len, then R0 = elems[R2]. The guard
                    // backs an analysis proof: lookup_fast would panic.
                    self.cmp_ri(hw(2), m.len() as u64);
                    let f = self.asm.jcc_rel32(CC_AE);
                    self.fixups.push((f, FixTarget::Fault));
                    self.asm.mov_ri(RAX, m.elems_ptr() as usize as u64);
                    self.asm.load_idx8(hw(0), RAX, hw(2));
                    self.zero_r1_r5();
                }
                Step::LookupBank { bank, base } => {
                    self.bank_index(bank, base, bank_tables, bank_lens);
                    // RAX = entry.ptr, RDX = entry.len; guard key < len.
                    self.asm.alu_rr(0x39, hw(2), RDX);
                    let f = self.asm.jcc_rel32(CC_AE);
                    self.fixups.push((f, FixTarget::Fault));
                    self.asm.load_idx8(hw(0), RAX, hw(2));
                    self.zero_r1_r5();
                }
                Step::SkSelectConst { slot } => {
                    let JitSlot::Sock(m) = &slots[slot as usize] else {
                        unreachable!("emit checked slot kinds");
                    };
                    // Out-of-range key or empty slot → -ENOENT: run-time
                    // Algorithm 2 semantics (not a proof), so these
                    // branches go to a local miss label, not the fault
                    // stub.
                    self.cmp_ri(hw(2), m.len() as u64);
                    let miss_oob = self.asm.jcc_rel32(CC_AE);
                    self.asm.mov_ri(RAX, m.slots_ptr() as usize as u64);
                    self.asm.load_idx8(RAX, RAX, hw(2));
                    self.asm.alu_ri(7, RAX, NO_SOCK as i32); // cmp rax, -1
                    let miss_empty = self.asm.jcc_rel32(CC_E);
                    self.asm.store_rsp(SELECTED_OFF, RAX);
                    self.asm.zero(hw(0));
                    let done = self.asm.jmp_rel32();
                    let miss = self.asm.here();
                    self.asm.patch(miss_oob, miss);
                    self.asm.patch(miss_empty, miss);
                    self.asm.mov_ri(hw(0), ENOENT_RET);
                    let end = self.asm.here();
                    self.asm.patch(done, end);
                    self.zero_r1_r5();
                }
                Step::SkSelectBank { bank, base } => {
                    self.bank_index(bank, base, bank_tables, bank_lens);
                    self.asm.alu_rr(0x39, hw(2), RDX);
                    let miss_oob = self.asm.jcc_rel32(CC_AE);
                    self.asm.load_idx8(RAX, RAX, hw(2));
                    self.asm.alu_ri(7, RAX, NO_SOCK as i32);
                    let miss_empty = self.asm.jcc_rel32(CC_E);
                    self.asm.store_rsp(SELECTED_OFF, RAX);
                    self.asm.zero(hw(0));
                    let done = self.asm.jmp_rel32();
                    let miss = self.asm.here();
                    self.asm.patch(miss_oob, miss);
                    self.asm.patch(miss_empty, miss);
                    self.asm.mov_ri(hw(0), ENOENT_RET);
                    let end = self.asm.here();
                    self.asm.patch(done, end);
                    self.zero_r1_r5();
                }
            }
        }

        /// Common bank prelude: RCX = R1 - base (guarded < bank len →
        /// fault, backing the compile-time range proof), then RAX =
        /// table[RCX].ptr, RDX = table[RCX].len.
        fn bank_index(
            &mut self,
            bank: u8,
            base: u32,
            bank_tables: &[Box<[BankEntry]>],
            bank_lens: &[u32],
        ) {
            self.asm.mov_rr(RCX, hw(1));
            if base != 0 {
                self.asm.alu_ri(5, RCX, base as i32);
            }
            self.asm.alu_ri(7, RCX, bank_lens[bank as usize] as i32);
            let f = self.asm.jcc_rel32(CC_AE);
            self.fixups.push((f, FixTarget::Fault));
            self.asm.shift_ri(4, RCX, 4); // ×16 = sizeof(BankEntry)
            self.asm
                .mov_ri(RAX, bank_tables[bank as usize].as_ptr() as usize as u64);
            self.asm.load_idx1_disp8(RDX, RAX, RCX, 8);
            self.asm.load_idx1_disp8(RAX, RAX, RCX, 0);
        }

        fn alu_imm(&mut self, op: Alu, dst: u8, imm: u64) {
            match op {
                Alu::Mov => self.asm.mov_ri(dst, imm),
                Alu::Add | Alu::Sub | Alu::And | Alu::Or | Alu::Xor => {
                    let ext = match op {
                        Alu::Add => 0,
                        Alu::Sub => 5,
                        Alu::And => 4,
                        Alu::Or => 1,
                        _ => 6,
                    };
                    if imm_fits_i32(imm) {
                        self.asm.alu_ri(ext, dst, imm as i32);
                    } else {
                        let opc = match op {
                            Alu::Add => 0x01,
                            Alu::Sub => 0x29,
                            Alu::And => 0x21,
                            Alu::Or => 0x09,
                            _ => 0x31,
                        };
                        self.asm.mov_ri(RAX, imm);
                        self.asm.alu_rr(opc, dst, RAX);
                    }
                }
                Alu::Mul => {
                    self.asm.mov_ri(RAX, imm);
                    self.asm.imul_rr(dst, RAX);
                }
                Alu::Lsh => self.asm.shift_ri(4, dst, (imm & 63) as u8),
                Alu::Rsh => self.asm.shift_ri(5, dst, (imm & 63) as u8),
                Alu::Arsh => self.asm.shift_ri(7, dst, (imm & 63) as u8),
                Alu::Div | Alu::Mod => {
                    // Divisor proven nonzero by the analysis.
                    self.asm.mov_ri(RCX, imm);
                    self.div_mod(op, dst, RCX);
                }
            }
        }

        fn alu_reg(&mut self, op: Alu, dst: u8, src: u8) {
            match op {
                Alu::Mov => self.asm.mov_rr(dst, src),
                Alu::Add => self.asm.alu_rr(0x01, dst, src),
                Alu::Sub => self.asm.alu_rr(0x29, dst, src),
                Alu::And => self.asm.alu_rr(0x21, dst, src),
                Alu::Or => self.asm.alu_rr(0x09, dst, src),
                Alu::Xor => self.asm.alu_rr(0x31, dst, src),
                Alu::Mul => self.asm.imul_rr(dst, src),
                Alu::Lsh | Alu::Rsh | Alu::Arsh => {
                    // Shift count proven < 64; x86 masks to 6 bits, which
                    // agrees on every proven value.
                    let ext = match op {
                        Alu::Lsh => 4,
                        Alu::Rsh => 5,
                        _ => 7,
                    };
                    self.asm.mov_rr(RCX, src);
                    self.asm.shift_cl(ext, dst);
                }
                Alu::Div | Alu::Mod => {
                    self.asm.mov_rr(RCX, src);
                    self.div_mod(op, dst, RCX);
                }
            }
        }

        /// Unsigned `dst = dst / rcx` or `dst % rcx`. eBPF register homes
        /// never include RAX/RCX/RDX, so the RDX:RAX dance is conflict-free.
        fn div_mod(&mut self, op: Alu, dst: u8, divisor: u8) {
            self.asm.mov_rr(RAX, dst);
            self.asm.zero(RDX);
            self.asm.div_r(divisor);
            let res = if matches!(op, Alu::Div) { RAX } else { RDX };
            self.asm.mov_rr(dst, res);
        }

        /// The fused SWAR popcount window. When the scratch register is
        /// dead and the CPU has POPCNT, a single instruction; otherwise
        /// the exact 15-op ladder replayed in RAX/RCX/RDX, including the
        /// scratch register's final value (`s = t2 >> 4`), so fusion
        /// remains observationally identical for all inputs.
        fn popcount(&mut self, x: u8, scratch: u8, scratch_is_live: bool) {
            if self.use_popcnt && !scratch_is_live {
                self.asm.popcnt_rr(x, x);
            } else {
                self.asm.mov_rr(RAX, x);
                self.asm.shift_ri(5, RAX, 1);
                self.asm.mov_ri(RCX, M1);
                self.asm.alu_rr(0x21, RAX, RCX);
                self.asm.mov_rr(RDX, x);
                self.asm.alu_rr(0x29, RDX, RAX); // rdx = t
                self.asm.mov_ri(RCX, M2);
                self.asm.mov_rr(RAX, RDX);
                self.asm.alu_rr(0x21, RAX, RCX); // rax = t & M2
                self.asm.shift_ri(5, RDX, 2);
                self.asm.alu_rr(0x21, RDX, RCX); // rdx = (t>>2) & M2
                self.asm.alu_rr(0x01, RAX, RDX); // rax = t2
                self.asm.mov_rr(RDX, RAX);
                self.asm.shift_ri(5, RDX, 4); // rdx = s
                self.asm.alu_rr(0x01, RAX, RDX);
                self.asm.mov_ri(RCX, M3);
                self.asm.alu_rr(0x21, RAX, RCX);
                self.asm.mov_ri(RCX, M4);
                self.asm.imul_rr(RAX, RCX);
                self.asm.shift_ri(5, RAX, 56);
                self.asm.mov_rr(x, RAX);
                self.asm.mov_rr(scratch, RDX);
            }
            if self.mutation == Some(JitMutation::ClobberCalleeSaved) {
                // Seeded bug: trash RBX (eBPF R6's home) as if the
                // emitter forgot it holds live program state.
                self.asm.zero(RBX);
            }
        }

        fn terminator(&mut self, bi: usize, term: &Terminator) {
            let next = (bi + 1) as u32;
            match *term {
                Terminator::Jump { target } => {
                    if target != next {
                        let j = self.asm.jmp_rel32();
                        self.fixups.push((j, FixTarget::Block(target)));
                    }
                }
                Terminator::Branch {
                    cond,
                    dst,
                    src,
                    taken,
                    fall,
                } => {
                    match src {
                        BrSrc::Reg(r) => self.asm.alu_rr(0x39, hw(dst), hw(r)),
                        BrSrc::Imm(v) => {
                            let v = if self.mutation == Some(JitMutation::WrongImmediate) {
                                v.wrapping_add(1)
                            } else {
                                v
                            };
                            self.cmp_ri(hw(dst), v);
                        }
                    }
                    let cc = cc_of(cond);
                    if fall == next {
                        let j = self.asm.jcc_rel32(cc);
                        self.fixups.push((j, FixTarget::Block(taken)));
                    } else if taken == next {
                        let j = self.asm.jcc_rel32(cc ^ 1);
                        self.fixups.push((j, FixTarget::Block(fall)));
                    } else {
                        let j = self.asm.jcc_rel32(cc);
                        self.fixups.push((j, FixTarget::Block(taken)));
                        let j2 = self.asm.jmp_rel32();
                        self.fixups.push((j2, FixTarget::Block(fall)));
                    }
                }
                Terminator::Exit => {
                    let j = self.asm.jmp_rel32();
                    self.fixups.push((j, FixTarget::Epilogue));
                }
            }
        }
    }

    impl JitProgram {
        /// Lower a translation-validated program to native code, baking
        /// map addresses from `maps`' frozen table. The `ValidationCert`
        /// parameter is the admission gate: only
        /// [`crate::validate::validate`] mints one, so — exactly like the
        /// compiled tier — uncertified programs cannot reach native code.
        ///
        /// Freezes `maps` if it is not already frozen (this is load time,
        /// the `BPF_PROG_LOAD` moment).
        pub fn emit(
            cp: &CompiledProgram,
            _cert: &ValidationCert,
            maps: &MapRegistry,
        ) -> Result<JitProgram, JitError> {
            Self::emit_inner(cp, maps, None)
        }

        /// Emit with a seeded miscompilation — the mutation-kill suite's
        /// entry point. Never used by production paths.
        #[doc(hidden)]
        pub fn emit_mutated(
            cp: &CompiledProgram,
            _cert: &ValidationCert,
            maps: &MapRegistry,
            mutation: JitMutation,
        ) -> Result<JitProgram, JitError> {
            Self::emit_inner(cp, maps, Some(mutation))
        }

        fn emit_inner(
            cp: &CompiledProgram,
            maps: &MapRegistry,
            mutation: Option<JitMutation>,
        ) -> Result<JitProgram, JitError> {
            // The register convention pins R10's home to the constant
            // STACK_SIZE; the analysis already forbids R10 writes, so
            // this trips only on hand-built Step streams.
            let writes_r10 = cp
                .blocks
                .iter()
                .flat_map(|b| b.steps.iter())
                .any(|s| step_writes(s) & 1 << 10 != 0);
            if writes_r10 {
                return Err(JitError::WritesFramePointer);
            }

            let table = Arc::clone(maps.frozen_table());
            let mut slots = Vec::with_capacity(cp.const_fds.len());
            for &(fd, kind) in cp.const_fds.iter() {
                let slot = match kind {
                    MapKind::Array => maps.array(fd).map(JitSlot::Array),
                    MapKind::SockArray => maps.sockarray(fd).map(JitSlot::Sock),
                };
                slots.push(slot.ok_or(JitError::UnresolvedMap { fd })?);
            }
            for spec in cp.banks.iter() {
                for fd in spec.base..spec.base + spec.len {
                    let ok = match spec.kind {
                        MapKind::Array => maps.array(fd).is_some(),
                        MapKind::SockArray => maps.sockarray(fd).is_some(),
                    };
                    if !ok {
                        return Err(JitError::UnresolvedMap { fd });
                    }
                }
            }
            let banks = (!cp.banks.is_empty()).then(|| cp.resolve_banks(maps));
            let bank_tables: Vec<Box<[BankEntry]>> = banks
                .iter()
                .flat_map(|bs| bs.iter())
                .map(|bank| match bank {
                    ResolvedBank::Arrays(ms) => ms
                        .iter()
                        .map(|m| BankEntry {
                            ptr: m.elems_ptr().cast(),
                            len: m.len() as u64,
                        })
                        .collect(),
                    ResolvedBank::Socks(ms) => ms
                        .iter()
                        .map(|m| BankEntry {
                            ptr: m.slots_ptr().cast(),
                            len: m.len() as u64,
                        })
                        .collect(),
                })
                .collect();
            let bank_lens: Vec<u32> = cp.banks.iter().map(|s| s.len).collect();

            let mut e = Emitter {
                asm: Asm::new(),
                block_offs: Vec::with_capacity(cp.blocks.len()),
                fixups: Vec::new(),
                use_popcnt: has_popcnt(),
                scratch_live: popcount_scratch_live(cp),
                mutation,
            };

            e.prologue(cp);
            for (bi, block) in cp.blocks.iter().enumerate() {
                e.block_offs.push(e.asm.here());
                if block.retired > 0 {
                    e.asm.alu_ri(0, EXEC_CTR, block.retired as i32);
                }
                for (si, step) in block.steps.iter().enumerate() {
                    let scratch_is_live = e.scratch_live[bi][si];
                    e.step(step, scratch_is_live, &slots, &bank_tables, &bank_lens);
                }
                e.terminator(bi, &block.term);
            }
            let epilogue = e.asm.here();
            e.epilogue();
            let fault = e.asm.here();
            e.fault_stub(epilogue);

            // Patch all pending rel32s, applying the off-by-one seed (if
            // any) to the first block-level transfer.
            let mut off_by_one_armed = mutation == Some(JitMutation::OffByOneJump);
            for &(at, target) in &e.fixups {
                let mut dest = match target {
                    FixTarget::Block(t) => e.block_offs[t as usize],
                    FixTarget::Epilogue => epilogue,
                    FixTarget::Fault => fault,
                };
                if off_by_one_armed && matches!(target, FixTarget::Block(_)) {
                    dest += 1;
                    off_by_one_armed = false;
                }
                e.asm.patch(at, dest);
            }

            // Post-patch jump audit: decode every pending rel32 back out
            // of the byte stream and require it to land on a recorded
            // valid target — a block entry, the epilogue, or the fault
            // stub. (Intra-step local labels are patched forward within
            // their own emission and cannot cross blocks.) This is the
            // emit-time net that catches off-by-one patching bugs before
            // any byte becomes executable.
            let valid: std::collections::BTreeSet<usize> = e
                .block_offs
                .iter()
                .copied()
                .chain([epilogue, fault])
                .collect();
            for &(at, _) in &e.fixups {
                let rel = i32::from_le_bytes(e.asm.code[at..at + 4].try_into().unwrap());
                let land = (at as i64 + 4 + rel as i64) as usize;
                if !valid.contains(&land) {
                    return Err(JitError::BadJumpTarget { at });
                }
            }

            let buf = CodeBuf::with_code(&e.asm.code)
                .map_err(|err| JitError::Map(err.to_string()))?
                .seal()
                .map_err(|err| JitError::Map(err.to_string()))?;
            // `buf` is a sealed RX mapping whose first byte is the
            // prologue emitted above with exactly the EntryFn ABI
            // (sysv64, two integer args, integer return).
            // SAFETY: the code behind the fn pointer is valid for the
            // transmuted signature and outlives it (both live in `self`).
            let entry: EntryFn = unsafe { std::mem::transmute(buf.addr()) };
            Ok(JitProgram {
                buf,
                entry,
                table,
                blocks: cp.blocks.len(),
                _slots: slots,
                _banks: banks,
                _bank_tables: bank_tables,
            })
        }

        /// Execute the native code. Observationally identical to
        /// [`CompiledProgram`] execution (same return value, selected
        /// socket, retired count) — enforced by the differential fuzz
        /// suite. Panics if an emitted bounds guard tripped, which means
        /// an analysis proof was violated at run time (the JIT analogue
        /// of `lookup_fast`'s panic).
        #[inline]
        pub fn run(&self, ctx_hash: u32) -> ExecResult {
            let mut out = [u64::MAX, 0, 0];
            // SAFETY: `entry` is the sealed RX buffer owned by
            // `self.buf`; emitted code touches only its frame, `out`,
            // and map buffers kept alive by `_slots` / `_banks`.
            let ret = unsafe { (self.entry)(ctx_hash as u64, out.as_mut_ptr()) };
            assert_eq!(
                out[2], 0,
                "jit bounds guard tripped: an analysis proof was violated at run time"
            );
            ExecResult {
                return_value: ret,
                selected_sock: (out[0] != u64::MAX).then_some(out[0] as usize),
                insns_executed: out[1] as usize,
            }
        }

        /// Whether this code was baked against `maps`' frozen table —
        /// checked before every run picked through [`crate::vm::Vm`].
        #[inline]
        pub fn table_matches(&self, maps: &MapRegistry) -> bool {
            maps.is_frozen() && Arc::ptr_eq(&self.table, maps.frozen_table())
        }

        /// Emitted code size in bytes.
        pub fn code_len(&self) -> usize {
            self.buf.len()
        }

        /// Base address of the executable mapping (lifecycle tests).
        pub fn code_addr(&self) -> *const u8 {
            self.buf.addr()
        }

        /// Basic blocks lowered.
        pub fn block_count(&self) -> usize {
            self.blocks
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod imp {
    use super::{JitError, JitMutation};
    use crate::compile::CompiledProgram;
    use crate::maps::MapRegistry;
    use crate::validate::ValidationCert;
    use crate::vm::ExecResult;

    /// Portable stub: on targets without an emitter the type exists (so
    /// [`crate::vm::Vm`] carries the same shape everywhere) but has no
    /// constructor — the compiled tier stays the ceiling.
    #[derive(Debug)]
    pub struct JitProgram {
        never: std::convert::Infallible,
    }

    impl JitProgram {
        /// Always [`JitError::UnsupportedArch`] on this target.
        pub fn emit(
            _cp: &CompiledProgram,
            _cert: &ValidationCert,
            _maps: &MapRegistry,
        ) -> Result<JitProgram, JitError> {
            Err(JitError::UnsupportedArch)
        }

        /// Always [`JitError::UnsupportedArch`] on this target.
        #[doc(hidden)]
        pub fn emit_mutated(
            _cp: &CompiledProgram,
            _cert: &ValidationCert,
            _maps: &MapRegistry,
            _mutation: JitMutation,
        ) -> Result<JitProgram, JitError> {
            Err(JitError::UnsupportedArch)
        }

        /// Unreachable: no constructor exists on this target.
        pub fn run(&self, _ctx_hash: u32) -> ExecResult {
            match self.never {}
        }

        /// Unreachable: no constructor exists on this target.
        pub fn table_matches(&self, _maps: &MapRegistry) -> bool {
            match self.never {}
        }

        /// Unreachable: no constructor exists on this target.
        pub fn code_len(&self) -> usize {
            match self.never {}
        }

        /// Unreachable: no constructor exists on this target.
        pub fn code_addr(&self) -> *const u8 {
            match self.never {}
        }

        /// Unreachable: no constructor exists on this target.
        pub fn block_count(&self) -> usize {
            match self.never {}
        }
    }
}

pub use imp::JitProgram;
