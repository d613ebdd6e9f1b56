//! The instruction set: a compact eBPF-like register machine.
//!
//! Eleven 64-bit registers. By eBPF convention: R0 holds return values,
//! R1–R5 carry helper-call arguments (and R1 the program context at entry),
//! R6–R9 are callee-saved scratch, R10 is the read-only frame pointer.
//! Conditional jumps carry a *relative forward* offset; admission rejects
//! backward targets, which is what rules loops out.

/// A register name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// Return-value / scratch register.
    pub const R0: Reg = Reg(0);
    /// First argument / context register.
    pub const R1: Reg = Reg(1);
    /// Second argument register.
    pub const R2: Reg = Reg(2);
    /// Third argument register.
    pub const R3: Reg = Reg(3);
    /// Fourth argument register.
    pub const R4: Reg = Reg(4);
    /// Fifth argument register.
    pub const R5: Reg = Reg(5);
    /// Callee-saved scratch.
    pub const R6: Reg = Reg(6);
    /// Callee-saved scratch.
    pub const R7: Reg = Reg(7);
    /// Callee-saved scratch.
    pub const R8: Reg = Reg(8);
    /// Callee-saved scratch.
    pub const R9: Reg = Reg(9);
    /// Frame pointer (read-only).
    pub const R10: Reg = Reg(10);

    /// Register index as usize.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Source operand: another register or a 64-bit immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Src {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i64),
}

/// Comparison condition for conditional jumps (unsigned unless noted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// `dst == src`
    Eq,
    /// `dst != src`
    Ne,
    /// `dst > src` (unsigned)
    Gt,
    /// `dst >= src` (unsigned)
    Ge,
    /// `dst < src` (unsigned)
    Lt,
    /// `dst <= src` (unsigned)
    Le,
}

impl Cond {
    /// Evaluate the condition over unsigned 64-bit operands.
    #[inline]
    pub fn eval(self, dst: u64, src: u64) -> bool {
        match self {
            Cond::Eq => dst == src,
            Cond::Ne => dst != src,
            Cond::Gt => dst > src,
            Cond::Ge => dst >= src,
            Cond::Lt => dst < src,
            Cond::Le => dst <= src,
        }
    }
}

/// ALU operation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Alu {
    /// `dst = src`
    Mov,
    /// `dst += src` (wrapping)
    Add,
    /// `dst -= src` (wrapping)
    Sub,
    /// `dst *= src` (wrapping)
    Mul,
    /// `dst &= src`
    And,
    /// `dst |= src`
    Or,
    /// `dst ^= src`
    Xor,
    /// `dst <<= src & 63`
    Lsh,
    /// `dst >>= src & 63` (logical)
    Rsh,
    /// `dst >>= src & 63` (arithmetic: sign-extending)
    Arsh,
    /// `dst /= src` (unsigned; BPF semantics: division by zero yields 0)
    Div,
    /// `dst %= src` (unsigned; BPF semantics: modulo zero leaves dst)
    Mod,
}

impl Alu {
    /// Apply the operation.
    #[inline]
    pub fn eval(self, dst: u64, src: u64) -> u64 {
        match self {
            Alu::Mov => src,
            Alu::Add => dst.wrapping_add(src),
            Alu::Sub => dst.wrapping_sub(src),
            Alu::Mul => dst.wrapping_mul(src),
            Alu::And => dst & src,
            Alu::Or => dst | src,
            Alu::Xor => dst ^ src,
            Alu::Lsh => dst << (src & 63),
            Alu::Rsh => dst >> (src & 63),
            Alu::Arsh => ((dst as i64) >> (src & 63)) as u64,
            // BPF runtime semantics (since v5.x the verifier patches in
            // these totalizing behaviours rather than trapping):
            Alu::Div => dst.checked_div(src).unwrap_or(0),
            Alu::Mod => {
                if src == 0 {
                    dst
                } else {
                    dst % src
                }
            }
        }
    }
}

/// One instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// 64-bit ALU: `dst = dst <op> src` (Mov replaces).
    Alu {
        /// Operation kind.
        op: Alu,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Src,
    },
    /// Unconditional relative jump (`pc += off + 1`).
    Ja {
        /// Relative offset from the following instruction.
        off: i32,
    },
    /// Conditional relative jump: `if dst <cond> src { pc += off + 1 }`.
    Jmp {
        /// Condition.
        cond: Cond,
        /// Left operand register.
        dst: Reg,
        /// Right operand.
        src: Src,
        /// Relative offset from the following instruction.
        off: i32,
    },
    /// Store a 64-bit register to the stack at `fp + off` (off negative).
    StxStack {
        /// Byte offset from the frame pointer (must be in `-512..=-8`).
        off: i32,
        /// Source register.
        src: Reg,
    },
    /// Load 64 bits from the stack at `fp + off` into `dst`.
    LdxStack {
        /// Destination register.
        dst: Reg,
        /// Byte offset from the frame pointer (must be in `-512..=-8`).
        off: i32,
    },
    /// Call a helper function by id; args in R1–R5, result in R0.
    /// R1–R5 are clobbered by the call, as in eBPF.
    Call {
        /// Helper function id (see [`crate::helpers`]).
        helper: u32,
    },
    /// Return from the program with R0 as the result.
    Exit,
}

/// A single instruction (newtype over [`Op`] so a `Vec<Insn>` reads as a
/// program).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Insn(pub Op);

/// Stack size available to a program, in bytes (eBPF's 512).
pub const STACK_SIZE: usize = 512;

/// Maximum instructions per program (classic verifier's 4096 cap).
pub const MAX_INSNS: usize = 4096;

/// Number of architectural registers.
pub const NUM_REGS: usize = 11;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_unsigned_semantics() {
        assert!(Cond::Gt.eval(u64::MAX, 0)); // -1 as unsigned is max
        assert!(!Cond::Lt.eval(u64::MAX, 0));
        assert!(Cond::Eq.eval(5, 5));
        assert!(Cond::Ne.eval(5, 6));
        assert!(Cond::Ge.eval(5, 5));
        assert!(Cond::Le.eval(5, 5));
    }

    #[test]
    fn alu_eval_wrapping_and_shifts() {
        assert_eq!(Alu::Add.eval(u64::MAX, 1), 0);
        assert_eq!(Alu::Sub.eval(0, 1), u64::MAX);
        assert_eq!(Alu::Mul.eval(1 << 63, 2), 0);
        assert_eq!(Alu::Lsh.eval(1, 64), 1); // shift masked to 0
        assert_eq!(Alu::Rsh.eval(0x8000_0000_0000_0000, 63), 1);
        assert_eq!(Alu::Mov.eval(123, 7), 7);
        assert_eq!(Alu::Xor.eval(0b1010, 0b0110), 0b1100);
    }

    #[test]
    fn alu_eval_div_mod_arsh_bpf_semantics() {
        assert_eq!(Alu::Div.eval(10, 3), 3);
        assert_eq!(Alu::Div.eval(10, 0), 0, "BPF div-by-zero yields 0");
        assert_eq!(Alu::Mod.eval(10, 3), 1);
        assert_eq!(Alu::Mod.eval(10, 0), 10, "BPF mod-zero keeps dst");
        assert_eq!(Alu::Arsh.eval((-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(Alu::Arsh.eval(8, 1), 4);
        assert_eq!(Alu::Arsh.eval(u64::MAX, 63), u64::MAX); // sign fill
    }

    #[test]
    fn reg_constants_are_distinct() {
        let regs = [
            Reg::R0,
            Reg::R1,
            Reg::R2,
            Reg::R3,
            Reg::R4,
            Reg::R5,
            Reg::R6,
            Reg::R7,
            Reg::R8,
            Reg::R9,
            Reg::R10,
        ];
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(r.idx(), i);
        }
    }
}
