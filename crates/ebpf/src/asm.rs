//! Label-based assembler for kernel-encoded programs.
//!
//! The dispatch program of Algorithm 2 contains a handful of forward
//! branches (the `n > 1` guard, the null check and the rank-select ladder);
//! hand-computing relative offsets is error-prone, so programs are written
//! against symbolic labels and the assembler resolves offsets at
//! `finish()`. An offset counts slots, and `ld_imm64` fills two.

use crate::insn::{Insn, ALU64, CALL, EXIT, JA, JMP, K, LDX, LD_IMM64, MEM, MOV, R5, STX, X};

/// A label handle, bound to a slot once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Label(usize);

/// Program builder with symbolic labels.
#[derive(Default)]
pub struct Assembler {
    insns: Vec<Insn>,
    /// Label → the slot it is bound to.
    bound: Vec<Option<usize>>,
    /// (jump slot, label) pairs awaiting resolution.
    fixups: Vec<(usize, Label)>,
}

impl Assembler {
    /// Start an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Bind `label` to the next slot.
    pub fn bind(&mut self, label: Label) {
        let prev = self.bound[label.0].replace(self.insns.len());
        assert!(prev.is_none(), "label bound twice");
    }

    /// One instruction, as the kernel encodes it.
    pub fn emit(&mut self, code: u8, dst: u8, src: u8, off: i16, imm: i32) -> &mut Self {
        self.insns.push(Insn::new(code, dst, src, off, imm));
        self
    }

    /// `dst = src`
    pub fn mov(&mut self, dst: u8, src: u8) -> &mut Self {
        self.alu(MOV, dst, src)
    }

    /// `dst = imm`
    pub fn mov_imm(&mut self, dst: u8, imm: i64) -> &mut Self {
        self.alu_imm(MOV, dst, imm)
    }

    /// 64-bit ALU `op` with a register source.
    pub fn alu(&mut self, op: u8, dst: u8, src: u8) -> &mut Self {
        self.emit(ALU64 | op | X, dst, src, 0, 0)
    }

    /// 64-bit ALU `op` with an immediate. The encoding has 32 bits for one
    /// (sign-extended), so a wider one travels in R5, through `ld_imm64`:
    /// R5 belongs to the assembler.
    pub fn alu_imm(&mut self, op: u8, dst: u8, imm: i64) -> &mut Self {
        match i32::try_from(imm) {
            Ok(imm) => self.emit(ALU64 | op | K, dst, 0, 0, imm),
            Err(_) => self.ld_imm64(R5, 0, imm).alu(op, dst, R5),
        }
    }

    /// `dst = imm`, 64 bits wide, in two slots; `pseudo` says what `imm` is
    /// ([`crate::insn::LD_IMM64`]).
    pub fn ld_imm64(&mut self, dst: u8, pseudo: u8, imm: i64) -> &mut Self {
        self.emit(LD_IMM64, dst, pseudo, 0, imm as i32);
        self.emit(0, 0, 0, 0, (imm >> 32) as i32)
    }

    /// `dst = *(size *)(src + off)`
    pub fn ldx(&mut self, size: u8, dst: u8, src: u8, off: i16) -> &mut Self {
        self.emit(LDX | size | MEM, dst, src, off, 0)
    }

    /// `*(size *)(dst + off) = src`
    pub fn stx(&mut self, size: u8, dst: u8, src: u8, off: i16) -> &mut Self {
        self.emit(STX | size | MEM, dst, src, off, 0)
    }

    /// Jump `op` to `label` comparing `dst` with register `src`.
    pub fn jmp(&mut self, op: u8, dst: u8, src: u8, label: Label) -> &mut Self {
        self.fixups.push((self.insns.len(), label));
        self.emit(JMP | op | X, dst, src, 0, 0)
    }

    /// Jump `op` to `label` comparing `dst` with an immediate.
    pub fn jmp_imm(&mut self, op: u8, dst: u8, imm: i32, label: Label) -> &mut Self {
        self.fixups.push((self.insns.len(), label));
        self.emit(JMP | op | K, dst, 0, 0, imm)
    }

    /// Unconditional jump to `label`.
    pub fn ja(&mut self, label: Label) -> &mut Self {
        self.jmp_imm(JA, 0, 0, label)
    }

    /// Call helper `id`.
    pub fn call(&mut self, id: i32) -> &mut Self {
        self.emit(JMP | CALL, 0, 0, 0, id)
    }

    /// Return R0.
    pub fn exit(&mut self) -> &mut Self {
        self.emit(JMP | EXIT, 0, 0, 0, 0)
    }

    /// Resolve labels and produce the instruction stream.
    ///
    /// # Panics
    /// Panics on an unbound label, a construction bug.
    pub fn finish(self) -> Vec<Insn> {
        let mut insns = self.insns;
        for (at, label) in self.fixups {
            let target = self.bound[label.0].unwrap_or_else(|| panic!("unbound label {}", label.0));
            // Relative to the slot after the jump, as in eBPF.
            let rel = target as i64 - (at as i64 + 1);
            insns[at].off = i16::try_from(rel).expect("jump offset fits i16");
        }
        insns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{JEQ, R0, R1};

    #[test]
    fn resolves_forward_labels_over_a_wide_load() {
        let mut a = Assembler::new();
        let done = a.label();
        a.mov_imm(R0, 0);
        a.jmp_imm(JEQ, R1, 7, done);
        a.ld_imm64(R0, 0, 1 << 40);
        a.bind(done);
        a.exit();
        let prog = a.finish();
        assert_eq!(prog.len(), 5);
        assert_eq!(prog[1].off, 2, "skips both slots of ld_imm64");
        assert_eq!((prog[2].imm, prog[3].imm), (0, 1 << 8));
    }

    #[test]
    fn a_wide_immediate_travels_in_r5() {
        let mut a = Assembler::new();
        a.alu_imm(crate::insn::AND, R0, 0xffff_ffff);
        a.alu_imm(crate::insn::AND, R0, -1);
        let prog = a.finish();
        assert_eq!(prog.len(), 4);
        assert_eq!(
            (prog[0].code, prog[0].dst(), prog[0].imm),
            (LD_IMM64, R5, -1)
        );
        assert_eq!(prog[1].imm, 0);
        assert_eq!((prog[2].code, prog[2].src()), (ALU64 | 0x50 | X, R5));
        assert_eq!((prog[3].code, prog[3].imm), (ALU64 | 0x50 | K, -1));
    }

    #[test]
    fn zero_offset_jump_to_next_insn() {
        let mut a = Assembler::new();
        let l = a.label();
        a.ja(l);
        a.bind(l);
        assert_eq!(a.finish()[0].off, 0);
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
        // The assembler permits back-edges; the interpreter traps one when
        // it is taken (`vm.rs`), and the kernel's verifier refuses a loop it
        // cannot bound.
        let mut a = Assembler::new();
        let top = a.label();
        a.bind(top);
        a.mov_imm(R0, 0);
        a.ja(top);
        assert_eq!(a.finish()[1].off, -2);
    }
}
