//! The bytecode interpreter: the one userspace execution of a dispatch
//! program, and the reference the kernel's is compared against.
//!
//! [`Vm::new`] admits nothing: what ships is admitted by the kernel's
//! verifier ([`crate::kernel`]), and this interpreter is the safety net
//! for everything else. Every pc move, stack access and helper argument is
//! checked as it happens, and what the kernel's verifier would refuse up
//! front traps here instead, as an [`ExecError`] naming the faulting
//! instruction: a pc that leaves the program, a stack access outside the
//! frame, an unknown helper, and a taken jump whose target is not after it.
//! What the kernel defines at run time is defined the same way here: shifts
//! mask their amount, division by zero yields 0, modulo zero keeps the
//! dividend, and a map key out of range reads as a missing element. With
//! backward jumps trapped the pc only moves forward, so every run ends
//! within `prog.len()` steps.
//!
//! Nothing faster sits above it. What ships runs the same program in the
//! kernel (its verifier, its JIT); this interpreter is what the
//! differential tests and `kernel_dispatch.rs`'s oracle execute.

use crate::disasm::disasm_insn;
use crate::helpers::{call_helper, HelperCtx};
use crate::insn::{Insn, Op, Reg, Src, NUM_REGS, STACK_SIZE};
use crate::maps::{ArrayMap, SockArrayMap};

/// How a loaded program executes: on the checked interpreter. (An enum of
/// one: the end-to-end benchmark reads `tier().trace_code()`, and traces
/// carry the code in `EventKind::VmLoad`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecTier {
    /// Checked reference interpreter: every pc move, stack access, and
    /// helper argument validated at run time.
    Checked,
}

impl ExecTier {
    /// Stable numeric code used in flight-recorder payloads
    /// (`EventKind::VmLoad` payload `a`).
    pub fn trace_code(self) -> u64 {
        0
    }
}

/// Result of one program execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecResult {
    /// R0 at `exit` — for reuseport programs, nonzero means "selection
    /// committed" and zero means "fall back to default hashing".
    pub return_value: u64,
    /// Socket committed via `bpf_sk_select_reuseport`, if any.
    pub selected_sock: Option<usize>,
    /// Instructions retired (bounded by program length: no loops).
    pub insns_executed: usize,
}

/// Runtime trap: the interpreter's verdict on what the kernel's verifier
/// would have refused to load (the shipped programs never hit one). Each
/// variant pins the faulting instruction so the `Display` rendering names
/// the exact site — index plus disassembled mnemonic — instead of a bare
/// offset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// Program counter left the program without `exit`.
    PcOutOfBounds {
        /// The out-of-range program counter.
        pc: i64,
        /// Program length the pc escaped.
        len: usize,
    },
    /// A helper id unknown at run time.
    UnknownHelper {
        /// The unknown helper id.
        helper: u32,
        /// Index of the faulting `call` instruction.
        at: usize,
        /// The faulting instruction, for disassembly.
        insn: Insn,
    },
    /// Stack access outside the frame.
    StackOutOfBounds {
        /// The offending frame-pointer-relative byte offset.
        off: i32,
        /// Index of the faulting load/store.
        at: usize,
        /// The faulting instruction, for disassembly.
        insn: Insn,
    },
    /// A taken jump whose target is not after it: a loop.
    BackEdge {
        /// Index of the faulting jump.
        at: usize,
        /// The faulting instruction, for disassembly.
        insn: Insn,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::PcOutOfBounds { pc, len } => {
                write!(f, "pc {pc} out of bounds (program length {len})")
            }
            ExecError::UnknownHelper { helper, at, insn } => {
                write!(f, "unknown helper {helper} at `{}`", disasm_insn(*at, insn))
            }
            ExecError::StackOutOfBounds { off, at, insn } => {
                write!(
                    f,
                    "stack offset {off} out of bounds at `{}`",
                    disasm_insn(*at, insn)
                )
            }
            ExecError::BackEdge { at, insn } => {
                write!(f, "backward jump taken at `{}`", disasm_insn(*at, insn))
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// A loaded program and the interpreter that runs it.
#[derive(Clone, Debug)]
pub struct Vm {
    prog: Vec<Insn>,
}

impl Vm {
    /// Load a program. Nothing is refused here: whatever the kernel's
    /// verifier would refuse traps when [`run`](Self::run) reaches it.
    pub fn new(prog: Vec<Insn>) -> Self {
        let vm = Self { prog };
        hermes_trace::trace_event!(
            0u64,
            hermes_trace::EventKind::VmLoad,
            hermes_trace::KERNEL_LANE,
            vm.tier().trace_code(),
            vm.prog.len()
        );
        vm
    }

    /// The loaded bytecode.
    pub fn program(&self) -> &[Insn] {
        &self.prog
    }

    /// The tier the program runs on: [`ExecTier::Checked`], always.
    pub fn tier(&self) -> ExecTier {
        ExecTier::Checked
    }

    /// Run the program with `ctx_hash` in R1 (the kernel-precomputed
    /// 4-tuple hash — our simplified `sk_reuseport_md`) against its two
    /// maps, the bitmap array `sel` and the socket array `socks`: every pc
    /// move, stack access, and helper argument is validated at run time.
    pub fn run(
        &self,
        ctx_hash: u32,
        sel: &ArrayMap,
        socks: &SockArrayMap,
    ) -> Result<ExecResult, ExecError> {
        let mut regs = [0u64; NUM_REGS];
        let mut stack = [0u8; STACK_SIZE];
        regs[Reg::R1.idx()] = ctx_hash as u64;
        // R10 points one past the top of the stack; slots are addressed by
        // negative offsets.
        regs[Reg::R10.idx()] = STACK_SIZE as u64;
        let mut helper_ctx = HelperCtx::default();
        let mut pc: i64 = 0;
        let mut executed = 0usize;

        loop {
            if pc < 0 || pc as usize >= self.prog.len() {
                return Err(ExecError::PcOutOfBounds {
                    pc,
                    len: self.prog.len(),
                });
            }
            executed += 1;
            let at = pc as usize;
            let insn = self.prog[at];
            pc += 1;
            match insn.0 {
                Op::Alu { op, dst, src } => {
                    let s = match src {
                        Src::Reg(r) => regs[r.idx()],
                        Src::Imm(i) => i as u64,
                    };
                    regs[dst.idx()] = op.eval(regs[dst.idx()], s);
                }
                Op::Ja { off } => {
                    pc = Self::forward(pc, off, at, insn)?;
                }
                Op::Jmp {
                    cond,
                    dst,
                    src,
                    off,
                } => {
                    let s = match src {
                        Src::Reg(r) => regs[r.idx()],
                        Src::Imm(i) => i as u64,
                    };
                    if cond.eval(regs[dst.idx()], s) {
                        pc = Self::forward(pc, off, at, insn)?;
                    }
                }
                Op::StxStack { off, src } => {
                    let base = Self::stack_base(off).ok_or(ExecError::StackOutOfBounds {
                        off,
                        at,
                        insn,
                    })?;
                    stack[base..base + 8].copy_from_slice(&regs[src.idx()].to_le_bytes());
                }
                Op::LdxStack { dst, off } => {
                    let base = Self::stack_base(off).ok_or(ExecError::StackOutOfBounds {
                        off,
                        at,
                        insn,
                    })?;
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(&stack[base..base + 8]);
                    regs[dst.idx()] = u64::from_le_bytes(buf);
                }
                Op::Call { helper } => {
                    let args = [
                        regs[Reg::R1.idx()],
                        regs[Reg::R2.idx()],
                        regs[Reg::R3.idx()],
                        regs[Reg::R4.idx()],
                        regs[Reg::R5.idx()],
                    ];
                    let ret =
                        call_helper(helper, args, sel, socks, &mut helper_ctx).map_err(|e| {
                            ExecError::UnknownHelper {
                                helper: e.0,
                                at,
                                insn,
                            }
                        })?;
                    regs[Reg::R0.idx()] = ret;
                    // Clobber caller-saved registers as the ABI declares, so
                    // no program can rely on stale argument values.
                    regs[1..=5].fill(0);
                }
                Op::Exit => {
                    return Ok(ExecResult {
                        return_value: regs[Reg::R0.idx()],
                        selected_sock: helper_ctx.selected_sock,
                        insns_executed: executed,
                    });
                }
            }
        }
    }

    /// Translate a frame-pointer-relative byte offset into a stack index;
    /// `off` must be negative and the 8-byte access must stay in frame.
    /// `None` means out of frame — the caller attaches the faulting site.
    fn stack_base(off: i32) -> Option<usize> {
        let addr = STACK_SIZE as i64 + off as i64;
        if off >= 0 || addr < 0 || (addr as usize) + 8 > STACK_SIZE {
            return None;
        }
        Some(addr as usize)
    }

    /// The pc after jump `insn` at `at` is taken by `off`, from `pc` (the
    /// instruction after it). A target not after the jump is a loop: trap.
    fn forward(pc: i64, off: i32, at: usize, insn: Insn) -> Result<i64, ExecError> {
        if off < 0 {
            return Err(ExecError::BackEdge { at, insn });
        }
        Ok(pc + off as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::helpers::HELPER_RECIPROCAL_SCALE;
    use crate::insn::{Alu, Cond};

    /// What the checked interpreter makes of `prog`.
    fn run(prog: Vec<Insn>, hash: u32) -> ExecResult {
        try_run(prog, hash).expect("executes")
    }

    fn try_run(prog: Vec<Insn>, hash: u32) -> Result<ExecResult, ExecError> {
        Vm::new(prog).run(hash, &ArrayMap::new(1), &SockArrayMap::new(1))
    }

    #[test]
    fn returns_r0() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R0, 42);
        a.exit();
        assert_eq!(run(a.finish(), 0).return_value, 42);
    }

    #[test]
    fn context_hash_arrives_in_r1() {
        let mut a = Assembler::new();
        a.mov(Reg::R0, Reg::R1);
        a.exit();
        assert_eq!(run(a.finish(), 0xdead_beef).return_value, 0xdead_beef);
    }

    #[test]
    fn arithmetic_and_branches() {
        // R0 = (hash > 100) ? 1 : 2
        let mut a = Assembler::new();
        let big = a.label();
        let done = a.label();
        a.jmp_imm(Cond::Gt, Reg::R1, 100, big);
        a.mov_imm(Reg::R0, 2);
        a.ja(done);
        a.bind(big);
        a.mov_imm(Reg::R0, 1);
        a.bind(done);
        a.exit();
        let prog = a.finish();
        assert_eq!(run(prog.clone(), 101).return_value, 1);
        assert_eq!(run(prog, 100).return_value, 2);
    }

    #[test]
    fn stack_round_trip() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R6, 0x1234_5678_9abc_def0u64 as i64);
        a.stx_stack(-16, Reg::R6);
        a.ldx_stack(Reg::R0, -16);
        a.exit();
        assert_eq!(run(a.finish(), 0).return_value, 0x1234_5678_9abc_def0);
    }

    #[test]
    fn helper_call_and_clobber() {
        // reciprocal_scale(hash, 8) via helper; R1/R2 die after the call.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R2, 8);
        a.call(HELPER_RECIPROCAL_SCALE);
        a.exit();
        let r = run(a.finish(), u32::MAX);
        assert_eq!(r.return_value, 7);
    }

    #[test]
    fn swar_popcount_in_bytecode() {
        // The CountNonZeroBits kernel of Algorithm 2, straight-line SWAR:
        // x -= (x >> 1) & 0x5555...; x = (x & 0x3333) + ((x>>2) & 0x3333);
        // x = (x + (x >> 4)) & 0x0f0f...; x = (x * 0x0101...) >> 56.
        let mut a = Assembler::new();
        a.mov(Reg::R6, Reg::R1); // x
        a.mov(Reg::R7, Reg::R6);
        a.alu_imm(Alu::Rsh, Reg::R7, 1);
        a.alu_imm(Alu::And, Reg::R7, 0x5555_5555_5555_5555u64 as i64);
        a.alu(Alu::Sub, Reg::R6, Reg::R7);
        a.mov(Reg::R7, Reg::R6);
        a.alu_imm(Alu::Rsh, Reg::R7, 2);
        a.alu_imm(Alu::And, Reg::R7, 0x3333_3333_3333_3333u64 as i64);
        a.alu_imm(Alu::And, Reg::R6, 0x3333_3333_3333_3333u64 as i64);
        a.alu(Alu::Add, Reg::R6, Reg::R7);
        a.mov(Reg::R7, Reg::R6);
        a.alu_imm(Alu::Rsh, Reg::R7, 4);
        a.alu(Alu::Add, Reg::R6, Reg::R7);
        a.alu_imm(Alu::And, Reg::R6, 0x0f0f_0f0f_0f0f_0f0fu64 as i64);
        a.alu_imm(Alu::Mul, Reg::R6, 0x0101_0101_0101_0101u64 as i64);
        a.alu_imm(Alu::Rsh, Reg::R6, 56);
        a.mov(Reg::R0, Reg::R6);
        a.exit();
        let prog = a.finish();
        for x in [0u32, 1, 0b1011, u32::MAX, 0x8000_0001] {
            assert_eq!(
                run(prog.clone(), x).return_value,
                x.count_ones() as u64,
                "popcount({x:#x})"
            );
        }
    }

    #[test]
    fn insn_count_is_bounded_by_program_length() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R0, 1);
        a.mov_imm(Reg::R0, 2);
        a.exit();
        let r = run(a.finish(), 0);
        assert_eq!(r.insns_executed, 3);
    }

    #[test]
    fn a_backward_jump_traps() {
        // `ja -1` jumps to itself: without the trap, `run` never returns.
        let ja = Insn(Op::Ja { off: -1 });
        assert_eq!(
            try_run(vec![ja, Insn(Op::Exit)], 0),
            Err(ExecError::BackEdge { at: 0, insn: ja })
        );
    }

    #[test]
    fn a_loop_traps_when_its_back_edge_is_taken() {
        // A backward branch not taken is harmless; taken, it traps.
        let mut a = Assembler::new();
        let top = a.label();
        a.bind(top);
        a.mov_imm(Reg::R0, 7);
        a.jmp_imm(Cond::Eq, Reg::R1, 0, top);
        a.exit();
        let prog = a.finish();
        assert_eq!(run(prog.clone(), 1).return_value, 7);
        let err = try_run(prog, 0).expect_err("the taken back-edge traps");
        assert!(matches!(err, ExecError::BackEdge { at: 1, .. }), "{err}");
    }

    #[test]
    fn a_map_key_reads_its_element_and_out_of_range_reads_zero() {
        use crate::helpers::HELPER_MAP_LOOKUP;
        use crate::program::SEL_FD;

        // The low 4 bits of the hash index an 8-element array: keys 8..=15
        // are out of range and read as a missing element, 0.
        let array = ArrayMap::new(8);
        for k in 0..8 {
            array.update(k, (k as u64 + 1) * 100);
        }
        let mut a = Assembler::new();
        a.mov(Reg::R2, Reg::R1);
        a.alu_imm(Alu::And, Reg::R2, 15);
        a.mov_imm(Reg::R1, SEL_FD as i64);
        a.call(HELPER_MAP_LOOKUP);
        a.stx_stack(-8, Reg::R0);
        a.ldx_stack(Reg::R0, -8);
        a.exit();
        let vm = Vm::new(a.finish());
        assert_eq!(vm.tier().trace_code(), 0);
        for hash in [0u32, 1, 7, 8, 15, 0xdead_beef, u32::MAX] {
            let key = hash as u64 & 15;
            let want = if key < 8 { (key + 1) * 100 } else { 0 };
            let ran = vm.run(hash, &array, &SockArrayMap::new(1)).unwrap();
            assert_eq!(ran.return_value, want);
        }
    }

    #[test]
    fn an_oversized_shift_is_masked() {
        // Shift by the raw hash: 65 shifts by 65 & 63 = 1.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R0, 1);
        a.mov(Reg::R2, Reg::R1);
        a.alu(Alu::Lsh, Reg::R0, Reg::R2);
        a.exit();
        assert_eq!(run(a.finish(), 65).return_value, 2);
    }

    #[test]
    fn division_by_a_zero_register_yields_zero_and_modulo_keeps_the_dividend() {
        for (op, at_zero, at_three) in [(Alu::Div, 0, 3), (Alu::Mod, 10, 1)] {
            let mut a = Assembler::new();
            a.mov_imm(Reg::R0, 10);
            a.mov(Reg::R2, Reg::R1);
            a.alu(op, Reg::R0, Reg::R2);
            a.exit();
            let prog = a.finish();
            assert_eq!(run(prog.clone(), 0).return_value, at_zero, "{op:?} by 0");
            assert_eq!(run(prog, 3).return_value, at_three, "{op:?} by 3");
        }
    }

    #[test]
    fn exec_error_display_names_the_faulting_insn() {
        // Construct error values directly, so each rendering is checked
        // without a program that reaches it.
        let stx = Insn(Op::StxStack {
            off: -1024,
            src: Reg::R6,
        });
        let e = ExecError::StackOutOfBounds {
            off: -1024,
            at: 3,
            insn: stx,
        };
        let msg = e.to_string();
        assert!(msg.contains("-1024"), "offset in {msg:?}");
        assert!(msg.contains("3: stx"), "index + mnemonic in {msg:?}");

        let call = Insn(Op::Call { helper: 42 });
        let e = ExecError::UnknownHelper {
            helper: 42,
            at: 7,
            insn: call,
        };
        let msg = e.to_string();
        assert!(msg.contains("helper 42"), "helper id in {msg:?}");
        assert!(msg.contains("7: call #42"), "index + mnemonic in {msg:?}");

        let e = ExecError::PcOutOfBounds { pc: 12, len: 5 };
        let msg = e.to_string();
        assert!(msg.contains("12") && msg.contains("5"), "{msg:?}");

        let e = ExecError::BackEdge {
            at: 4,
            insn: Insn(Op::Ja { off: -3 }),
        };
        let msg = e.to_string();
        assert!(msg.contains("4: ja -> 2"), "index + mnemonic in {msg:?}");
    }

    #[test]
    fn checked_interpreter_reports_faulting_site() {
        // The checked interpreter pins the faulting instruction index.
        let prog = vec![
            Insn(Op::Alu {
                op: Alu::Mov,
                dst: Reg::R6,
                src: Src::Imm(1),
            }),
            Insn(Op::Call { helper: 999 }),
            Insn(Op::Exit),
        ];
        let err = try_run(prog, 0).expect_err("unknown helper must fault");
        assert_eq!(
            err,
            ExecError::UnknownHelper {
                helper: 999,
                at: 1,
                insn: Insn(Op::Call { helper: 999 }),
            }
        );
        assert!(err.to_string().contains("1: call #999"), "{err}");
    }

    #[test]
    fn sk_select_commits_a_populated_slot_and_reports_an_empty_one() {
        use crate::helpers::{ENOENT_RET, HELPER_SK_SELECT_REUSEPORT};
        use crate::program::SOCK_FD;

        let (sel, socks) = (ArrayMap::new(1), SockArrayMap::new(4));
        socks.register(2, 77);
        // Select slot = hash & 3.
        let mut a = Assembler::new();
        a.mov(Reg::R2, Reg::R1);
        a.alu_imm(Alu::And, Reg::R2, 3);
        a.mov_imm(Reg::R1, SOCK_FD as i64);
        a.call(HELPER_SK_SELECT_REUSEPORT);
        a.exit();
        let vm = Vm::new(a.finish());
        // Slot 2 is populated: success, socket committed.
        let hit = vm.run(2, &sel, &socks).unwrap();
        assert_eq!(hit.return_value, 0);
        assert_eq!(hit.selected_sock, Some(77));
        // Slot 1 is empty: an in-range index still meets the ENOENT check.
        let miss = vm.run(1, &sel, &socks).unwrap();
        assert_eq!(miss.return_value, ENOENT_RET);
        assert_eq!(miss.selected_sock, None);
    }
}
