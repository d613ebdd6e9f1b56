//! The bytecode interpreter: the one userspace execution of a dispatch
//! program, and the reference the kernel's is compared against.
//!
//! Executes an *admitted* program against a map registry and a reuseport
//! context. [`Vm::load_analyzed`] is the only constructor and
//! [`crate::analysis::analyze`] its first act, so loops, bad jumps and
//! uninitialized reads are already ruled out and the interpreter can be a
//! straight-line fetch / decode / execute loop; residual runtime errors
//! (which indicate an analysis bug, not a program bug) surface as
//! [`ExecError`] rather than being silently masked.
//!
//! Nothing faster sits above it. What ships runs the same program in the
//! kernel ([`crate::kernel`]: its verifier, its JIT); this interpreter is
//! what the differential tests and `kernel_dispatch.rs`'s oracle execute,
//! and every pc move, stack access and helper argument stays checked.

use crate::analysis::{analyze, AnalysisCtx, AnalysisError, AnalysisReport};
use crate::disasm::disasm_insn;
use crate::helpers::{call_helper, HelperCtx};
use crate::insn::{Insn, Op, Reg, Src, NUM_REGS, STACK_SIZE};
use crate::maps::MapRegistry;

/// How a loaded program executes: on the checked interpreter. (An enum of
/// one: the end-to-end benchmark reads `tier().trace_code()`, and recorded
/// traces carry the code in `EventKind::VmLoad`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecTier {
    /// Checked reference interpreter: every pc move, stack access, and
    /// helper argument validated at run time.
    Checked,
}

impl ExecTier {
    /// Stable numeric code used in flight-recorder payloads
    /// (`EventKind::VmLoad` payload `a`). 1, 2 and 3 were the retired
    /// lowered, compiled and jit tiers; recorded traces keep decoding.
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

/// Runtime failure (an admitted program should never hit these; they exist
/// to fail loudly instead of corrupting state if the analysis were wrong).
/// Each variant pins the faulting instruction so the `Display` rendering
/// names the exact site — index plus disassembled mnemonic — instead of a
/// bare offset.
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
        }
    }
}

impl std::error::Error for ExecError {}

/// A loaded (analyzed) program and the interpreter that runs it.
#[derive(Clone, Debug)]
pub struct Vm {
    prog: Vec<Insn>,
    /// The report the program was admitted under.
    report: AnalysisReport,
}

impl Vm {
    /// Load a program — mirroring `bpf(BPF_PROG_LOAD)`, which refuses what
    /// it cannot prove safe: run [`analyze`], binding map fds against
    /// `ctx`. A report with warnings (a possibly oversized shift, dead
    /// code) still loads; the attach constructors demand a clean one.
    pub fn load_analyzed(prog: Vec<Insn>, ctx: &AnalysisCtx) -> Result<Self, AnalysisError> {
        let report = analyze(&prog, ctx)?;
        let vm = Self { prog, report };
        hermes_trace::trace_event!(
            0u64,
            hermes_trace::EventKind::VmLoad,
            hermes_trace::KERNEL_LANE,
            vm.tier().trace_code(),
            vm.prog.len()
        );
        Ok(vm)
    }

    /// The analysis report the program was admitted under.
    pub fn analysis(&self) -> &AnalysisReport {
        &self.report
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
    /// 4-tuple hash — our simplified `sk_reuseport_md`): every pc move,
    /// stack access, and helper argument is validated at run time.
    pub fn run(&self, ctx_hash: u32, maps: &MapRegistry) -> Result<ExecResult, ExecError> {
        hermes_trace::trace_count!(hermes_trace::CounterId::VmRunsChecked);
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
                    pc += off as i64;
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
                        pc += off as i64;
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
                    let ret = call_helper(helper, args, maps, &mut helper_ctx).map_err(|e| {
                        ExecError::UnknownHelper {
                            helper: e.0,
                            at,
                            insn,
                        }
                    })?;
                    regs[Reg::R0.idx()] = ret;
                    // Clobber caller-saved registers as the ABI declares, so
                    // a program that slipped past an analysis bug cannot rely
                    // on stale argument values.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::helpers::HELPER_RECIPROCAL_SCALE;
    use crate::insn::{Alu, Cond};

    /// What the checked interpreter makes of `prog`.
    fn run(prog: Vec<Insn>, hash: u32) -> ExecResult {
        let vm = Vm::load_analyzed(prog, &AnalysisCtx::new()).expect("analyzes");
        vm.run(hash, &MapRegistry::new()).expect("executes")
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
    fn load_rejects_unverifiable() {
        let mut a = Assembler::new();
        let top = a.label();
        a.bind(top);
        a.mov_imm(Reg::R0, 0);
        a.ja(top);
        assert!(Vm::load_analyzed(a.finish(), &AnalysisCtx::new()).is_err());
    }

    #[test]
    fn a_proven_key_reads_the_element_it_names() {
        use crate::helpers::HELPER_MAP_LOOKUP;
        use crate::maps::{ArrayMap, MapKind, MapRef};
        use std::sync::Arc;

        // hash & 7 indexes an 8-element array; provable, so clean.
        let maps = MapRegistry::new();
        let array = Arc::new(ArrayMap::new(8));
        for k in 0..8 {
            array.update(k, (k as u64) * 100);
        }
        let fd = maps.register(MapRef::Array(array));
        let mut a = Assembler::new();
        a.mov(Reg::R2, Reg::R1);
        a.alu_imm(Alu::And, Reg::R2, 7);
        a.mov_imm(Reg::R1, fd as i64);
        a.call(HELPER_MAP_LOOKUP);
        a.stx_stack(-8, Reg::R0);
        a.ldx_stack(Reg::R0, -8);
        a.exit();
        let prog = a.finish();

        let ctx = AnalysisCtx::new().bind(fd, MapKind::Array, 8);
        let vm = Vm::load_analyzed(prog, &ctx).expect("clean");
        assert!(vm.analysis().is_clean());
        assert_eq!(vm.tier().trace_code(), 0);
        for hash in [0u32, 1, 7, 8, 0xdead_beef, u32::MAX] {
            let want = (hash as u64 & 7) * 100;
            assert_eq!(vm.run(hash, &maps).unwrap().return_value, want);
        }
    }

    #[test]
    fn warned_program_loads_and_its_shift_is_masked() {
        // Shift by the raw hash: may exceed 63, a warning, but execution
        // still works (the interpreter masks the shift).
        let mut a = Assembler::new();
        a.mov_imm(Reg::R0, 1);
        a.mov(Reg::R2, Reg::R1);
        a.alu(Alu::Lsh, Reg::R0, Reg::R2);
        a.exit();
        let vm = Vm::load_analyzed(a.finish(), &AnalysisCtx::new()).expect("warns, loads");
        assert!(!vm.analysis().is_clean());
        let r = vm.run(65, &MapRegistry::new()).unwrap();
        assert_eq!(r.return_value, 2, "the interpreter masks the shift");
    }

    #[test]
    fn load_analyzed_rejects_unprovable_program() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R0, 10);
        a.mov(Reg::R2, Reg::R1);
        a.alu(Alu::Div, Reg::R0, Reg::R2);
        a.exit();
        assert!(matches!(
            Vm::load_analyzed(a.finish(), &AnalysisCtx::new()),
            Err(AnalysisError::DivByPossiblyZero { .. })
        ));
    }

    #[test]
    fn exec_error_display_names_the_faulting_insn() {
        // Construct error values directly: an admitted program cannot reach
        // them, which is exactly why the Display path needs its own test.
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
    }

    #[test]
    fn checked_interpreter_reports_faulting_site() {
        // Bypass the analysis (which would reject this) to prove the
        // checked interpreter pins the faulting instruction index.
        let prog = vec![
            Insn(Op::Alu {
                op: Alu::Mov,
                dst: Reg::R6,
                src: Src::Imm(1),
            }),
            Insn(Op::Call { helper: 999 }),
            Insn(Op::Exit),
        ];
        let vm = Vm {
            prog,
            report: AnalysisReport::default(),
        };
        let err = vm
            .run(0, &MapRegistry::new())
            .expect_err("unknown helper must fault");
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
        use crate::maps::{MapKind, MapRef, SockArrayMap};
        use std::sync::Arc;

        let maps = MapRegistry::new();
        let socks = Arc::new(SockArrayMap::new(4));
        socks.register(2, 77);
        let fd = maps.register(MapRef::SockArray(socks));
        // Select slot = hash & 3.
        let mut a = Assembler::new();
        a.mov(Reg::R2, Reg::R1);
        a.alu_imm(Alu::And, Reg::R2, 3);
        a.mov_imm(Reg::R1, fd as i64);
        a.call(HELPER_SK_SELECT_REUSEPORT);
        a.exit();
        let ctx = AnalysisCtx::new().bind(fd, MapKind::SockArray, 4);
        let vm = Vm::load_analyzed(a.finish(), &ctx).expect("clean");
        // Slot 2 is populated: success, socket committed.
        let hit = vm.run(2, &maps).unwrap();
        assert_eq!(hit.return_value, 0);
        assert_eq!(hit.selected_sock, Some(77));
        // Slot 1 is empty: a proven index still meets the runtime ENOENT check.
        let miss = vm.run(1, &maps).unwrap();
        assert_eq!(miss.return_value, ENOENT_RET);
        assert_eq!(miss.selected_sock, None);
    }
}
