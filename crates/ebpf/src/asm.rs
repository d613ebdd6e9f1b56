//! Label-based assembler for building programs.
//!
//! The dispatch program of Algorithm 2 contains a handful of forward
//! branches (the `n > 1` guard and the rank-select ladder); hand-computing
//! relative offsets is error-prone, so programs are written against symbolic
//! labels and the assembler resolves offsets at `finish()`.

use crate::insn::{Alu, Cond, Insn, Op, Reg, Src};
use std::collections::HashMap;

/// A forward-reference label handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Program builder with symbolic labels.
#[derive(Default)]
pub struct Assembler {
    insns: Vec<Op>,
    /// Label id → resolved instruction index.
    bound: HashMap<usize, usize>,
    /// (instruction index, label id) pairs awaiting resolution.
    fixups: Vec<(usize, usize)>,
    next_label: usize,
}

impl Assembler {
    /// Start an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Bind `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        let prev = self.bound.insert(label.0, self.insns.len());
        assert!(prev.is_none(), "label bound twice");
    }

    fn push(&mut self, op: Op) -> &mut Self {
        self.insns.push(op);
        self
    }

    /// `dst = imm`
    pub fn mov_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Op::Alu {
            op: Alu::Mov,
            dst,
            src: Src::Imm(imm),
        })
    }

    /// `dst = src`
    pub fn mov(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Op::Alu {
            op: Alu::Mov,
            dst,
            src: Src::Reg(src),
        })
    }

    /// Generic ALU with register source.
    pub fn alu(&mut self, op: Alu, dst: Reg, src: Reg) -> &mut Self {
        self.push(Op::Alu {
            op,
            dst,
            src: Src::Reg(src),
        })
    }

    /// Generic ALU with immediate source.
    pub fn alu_imm(&mut self, op: Alu, dst: Reg, imm: i64) -> &mut Self {
        self.push(Op::Alu {
            op,
            dst,
            src: Src::Imm(imm),
        })
    }

    /// Conditional jump to `label` comparing `dst` with register `src`.
    pub fn jmp(&mut self, cond: Cond, dst: Reg, src: Reg, label: Label) -> &mut Self {
        self.fixups.push((self.insns.len(), label.0));
        self.push(Op::Jmp {
            cond,
            dst,
            src: Src::Reg(src),
            off: i32::MIN, // patched at finish()
        })
    }

    /// Conditional jump to `label` comparing `dst` with an immediate.
    pub fn jmp_imm(&mut self, cond: Cond, dst: Reg, imm: i64, label: Label) -> &mut Self {
        self.fixups.push((self.insns.len(), label.0));
        self.push(Op::Jmp {
            cond,
            dst,
            src: Src::Imm(imm),
            off: i32::MIN,
        })
    }

    /// Unconditional jump to `label`.
    pub fn ja(&mut self, label: Label) -> &mut Self {
        self.fixups.push((self.insns.len(), label.0));
        self.push(Op::Ja { off: i32::MIN })
    }

    /// Store `src` to stack slot `fp + off`.
    pub fn stx_stack(&mut self, off: i32, src: Reg) -> &mut Self {
        self.push(Op::StxStack { off, src })
    }

    /// Load stack slot `fp + off` into `dst`.
    pub fn ldx_stack(&mut self, dst: Reg, off: i32) -> &mut Self {
        self.push(Op::LdxStack { dst, off })
    }

    /// Call helper `helper`.
    pub fn call(&mut self, helper: u32) -> &mut Self {
        self.push(Op::Call { helper })
    }

    /// Exit the program.
    pub fn exit(&mut self) -> &mut Self {
        self.push(Op::Exit)
    }

    /// Resolve labels and produce the instruction stream.
    ///
    /// # Panics
    /// Panics on unbound labels — an unbound label is a construction bug.
    pub fn finish(self) -> Vec<Insn> {
        let mut insns = self.insns;
        for (at, label) in self.fixups {
            let target = *self
                .bound
                .get(&label)
                .unwrap_or_else(|| panic!("unbound label {label}"));
            // Relative to the instruction *after* the jump, as in eBPF.
            let rel = target as i64 - (at as i64 + 1);
            let off = i32::try_from(rel).expect("jump offset fits i32");
            match &mut insns[at] {
                Op::Ja { off: o } => *o = off,
                Op::Jmp { off: o, .. } => *o = off,
                other => unreachable!("fixup on non-jump {other:?}"),
            }
        }
        insns.into_iter().map(Insn).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_forward_labels() {
        let mut a = Assembler::new();
        let done = a.label();
        a.mov_imm(Reg::R0, 0);
        a.jmp_imm(Cond::Eq, Reg::R1, 7, done);
        a.mov_imm(Reg::R0, 1);
        a.bind(done);
        a.exit();
        let prog = a.finish();
        assert_eq!(prog.len(), 4);
        match prog[1].0 {
            Op::Jmp { off, .. } => assert_eq!(off, 1), // skips one insn
            ref other => panic!("expected jmp, got {other:?}"),
        }
    }

    #[test]
    fn zero_offset_jump_to_next_insn() {
        let mut a = Assembler::new();
        let l = a.label();
        a.mov_imm(Reg::R0, 0);
        a.ja(l);
        a.bind(l);
        a.exit();
        let prog = a.finish();
        match prog[1].0 {
            Op::Ja { off } => assert_eq!(off, 0),
            ref other => panic!("expected ja, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Assembler::new();
        let l = a.label();
        a.ja(l);
        a.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Assembler::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }

    #[test]
    fn backward_labels_resolve_to_negative_offsets() {
        // The assembler permits back-edges; rejecting them is the
        // *analysis'* job (tested there).
        let mut a = Assembler::new();
        let top = a.label();
        a.bind(top);
        a.mov_imm(Reg::R0, 0);
        a.ja(top);
        let prog = a.finish();
        match prog[1].0 {
            Op::Ja { off } => assert_eq!(off, -2),
            ref other => panic!("expected ja, got {other:?}"),
        }
    }
}
