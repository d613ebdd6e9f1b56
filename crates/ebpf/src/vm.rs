//! The interpreter: the one userspace execution of kernel-encoded programs,
//! and the reference the kernel's is compared against.
//!
//! It runs the bytes [`crate::kernel`] loads, concretely: a register holds
//! nothing yet, a scalar, a map (a helper's argument), or a pointer — a
//! region and a byte offset into it. There are four regions: the context
//! (`sk_reuseport_md`, of which only the 4-byte `hash` at offset 32 is
//! readable), the 512-byte stack below R10, the bitmap array's values (map
//! [`SEL`], 8 bytes each) and the program's record (map [`RECORD`]'s one
//! value, zeroed at each run). A lookup's result is a pointer that may be
//! null until a `jeq`/`jne` against 0 tells which it is. This is the
//! execution model of a verifier's abstract interpreter with a value in
//! place of each value set.
//!
//! [`Vm::new`] admits nothing: what ships is admitted by the kernel's
//! verifier, and what that verifier would refuse at load traps here when a
//! run reaches it, as an [`ExecError`] naming the faulting slot ([`Trap`]
//! lists them). What the kernel defines at run time is defined the same way
//! here: shifts mask their amount, division by zero yields 0, modulo zero
//! keeps the dividend, a lookup past the array's end returns null and a
//! select of an empty slot `-ENOENT`. With backward jumps trapped the pc
//! only moves forward, so every run ends within `prog.len()` steps.
//!
//! The model is stricter than the kernel's verifier where that costs the
//! dispatch program nothing: an opcode it never uses (`neg`, byte swaps,
//! signed and 32-bit jumps, atomics other than `add`) is [`Trap::BadInsn`];
//! context fields other than `hash` are refused; every access is aligned to
//! its size; a null check refines only the register it tests; and a pointer
//! takes part in no comparison but a null check and in no store but an
//! 8-byte spill to the stack. The bitmap values are read-only: the program
//! only reads `M_Sel`, and a store into a word userspace publishes
//! concurrently could lose a publish, so a store or an atomic add through a
//! bitmap pointer is [`Trap::PointerOp`] and `ld_imm64` names a map value
//! only in the record.

use crate::disasm::disasm_insn;
use crate::insn::*;
use crate::program::{RECORD, RECORD_WORDS, SEL, SOCKS};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How a loaded program executes: on the checked interpreter. (An enum of
/// one: the end-to-end benchmark reads `tier().trace_code()`, and traces
/// carry the code in `EventKind::VmLoad`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecTier {
    /// Checked reference interpreter: every pc move, register, memory
    /// access and helper argument validated at run time.
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
    /// R0 at `exit`.
    pub return_value: u64,
    /// Socket committed via `bpf_sk_select_reuseport`, if any.
    pub selected_sock: Option<usize>,
    /// The program's record after the run, one `u64` per 8 bytes.
    pub record: [u64; RECORD_WORDS],
    /// Instructions retired (bounded by program length: no loops).
    pub insns_executed: usize,
}

/// What stopped a run: each is a rule the kernel's verifier enforces at
/// load, met here when a run breaks it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trap {
    /// A jump or a fall-through left the program.
    PcOutOfBounds,
    /// An opcode, register, map or `ld_imm64` pair the model does not know.
    BadInsn,
    /// A helper id the program type may not call.
    UnknownHelper,
    /// A taken jump whose target is not after it: a loop.
    BackEdge,
    /// A read of a register nothing wrote (or a call clobbered).
    UninitReg,
    /// A read of stack bytes nothing wrote.
    UninitStack,
    /// An access outside its region.
    OutOfBounds,
    /// An access not aligned to its size.
    Misaligned,
    /// A context access other than the 4-byte read of `hash`.
    Context,
    /// A use of a lookup's result before its null check.
    NullDeref,
    /// Pointer arithmetic other than ± a scalar, or another use of a
    /// pointer the model does not follow.
    PointerOp,
    /// A memory access through a scalar or a map.
    NotAPointer,
    /// A write to the frame pointer.
    FrameWrite,
    /// A helper argument of the wrong type.
    HelperArg,
}

/// A trap at slot `at`, which holds `insn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecError {
    /// What the run broke.
    pub trap: Trap,
    /// The faulting slot.
    pub at: usize,
    /// The faulting instruction, for disassembly.
    pub insn: Insn,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} at `{}`",
            self.trap,
            disasm_insn(self.at, &self.insn)
        )
    }
}

impl std::error::Error for ExecError {}

/// An empty socket-array slot.
const NO_SOCK: usize = usize::MAX;
/// `-ENOENT`, `bpf_sk_select_reuseport` on an empty slot.
const ENOENT: u64 = (-2i64) as u64;

/// The two maps a dispatch program shares with userspace: map [`SEL`], one
/// bitmap word per group (`BPF_MAP_TYPE_ARRAY`, Algorithm 1's `M_Sel`),
/// and map [`SOCKS`], the socket array (`BPF_MAP_TYPE_REUSEPORT_SOCKARRAY`,
/// `M_socket`). Userspace stores into both while programs run.
#[derive(Debug)]
pub struct Maps {
    bitmaps: Box<[AtomicU64]>,
    socks: Box<[AtomicUsize]>,
}

impl Maps {
    /// `groups` zeroed bitmap words and `slots` empty socket slots.
    pub fn new(groups: usize, slots: usize) -> Maps {
        assert!(groups > 0 && slots > 0, "each map needs an element");
        Maps {
            bitmaps: (0..groups).map(|_| AtomicU64::new(0)).collect(),
            socks: (0..slots).map(|_| AtomicUsize::new(NO_SOCK)).collect(),
        }
    }

    /// Number of bitmap words.
    pub fn groups(&self) -> usize {
        self.bitmaps.len()
    }

    /// Number of socket slots.
    pub fn slots(&self) -> usize {
        self.socks.len()
    }

    /// `bpf_map_update_elem` on the bitmap array: store group `group`'s word.
    pub fn publish(&self, group: usize, bitmap: u64) {
        self.bitmaps[group].store(bitmap, Ordering::Release);
    }

    /// Put socket handle `sock` in slot `slot` (program init, restart).
    pub fn register(&self, slot: usize, sock: usize) {
        assert_ne!(sock, NO_SOCK, "socket handle collides with the empty slot");
        self.socks[slot].store(sock, Ordering::Release);
    }

    /// Empty slot `slot` (crash, drain).
    pub fn unregister(&self, slot: usize) {
        self.socks[slot].store(NO_SOCK, Ordering::Release);
    }
}

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

    /// The loaded instructions.
    pub fn program(&self) -> &[Insn] {
        &self.prog
    }

    /// The tier the program runs on: [`ExecTier::Checked`], always.
    pub fn tier(&self) -> ExecTier {
        ExecTier::Checked
    }

    /// Run the program for a connection whose `sk_reuseport_md.hash` is
    /// `hash`, against `maps` and a zeroed record.
    pub fn run(&self, hash: u32, maps: &Maps) -> Result<ExecResult, ExecError> {
        let mut m = Machine::new(maps, hash);
        let (mut pc, mut executed) = (0, 0);
        loop {
            executed += 1;
            let trap = |trap| ExecError {
                trap,
                at: pc,
                insn: self.prog.get(pc).copied().unwrap_or_default(),
            };
            match m.step(&self.prog, pc).map_err(trap)? {
                Flow::Next(to) if to < self.prog.len() => pc = to,
                Flow::Next(_) => return Err(trap(Trap::PcOutOfBounds)),
                Flow::Exit(return_value) => {
                    let mut record = [0; RECORD_WORDS];
                    for (word, bytes) in record.iter_mut().zip(m.record.chunks(8)) {
                        *word = le(bytes);
                    }
                    return Ok(ExecResult {
                        return_value,
                        selected_sock: m.selected,
                        record,
                        insns_executed: executed,
                    });
                }
            }
        }
    }
}

/// Memory a pointer points into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Region {
    Ctx,
    Stack,
    Bitmap(usize),
    Record,
}

/// What a register (or a spilled stack slot) holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Val {
    Uninit,
    Scalar(u64),
    Ptr(Region, i64),
    /// A lookup's result before its null check: a value, or null.
    OrNull(Option<Region>),
    /// A map, by index: a helper's argument only.
    Map(i32),
}

enum Flow {
    Next(usize),
    Exit(u64),
}

/// One run's state.
struct Machine<'a> {
    maps: &'a Maps,
    hash: u32,
    regs: [Val; 11],
    stack: [u8; STACK_SIZE],
    written: [bool; STACK_SIZE],
    /// Pointers spilled to the stack, per 8-byte slot.
    spilled: [Option<Val>; STACK_SIZE / 8],
    record: [u8; RECORD_WORDS * 8],
    selected: Option<usize>,
}

/// A little-endian value of up to 8 bytes.
fn le(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |v, &b| v << 8 | b as u64)
}

/// A scalar ALU operation, 64 bits wide or 32 (operands truncated, result
/// zero-extended); `None` for an operation the model does not know.
fn scalar_op(op: u8, wide: bool, a: u64, b: u64) -> Option<u64> {
    let (a, b, shift) = match wide {
        true => (a, b, b & 63),
        false => (a as u32 as u64, b as u32 as u64, b & 31),
    };
    let r = match op {
        ADD => a.wrapping_add(b),
        SUB => a.wrapping_sub(b),
        MUL => a.wrapping_mul(b),
        DIV => a.checked_div(b).unwrap_or(0),
        MOD => a.checked_rem(b).unwrap_or(a),
        OR => a | b,
        AND => a & b,
        XOR => a ^ b,
        LSH => a << shift,
        RSH => a >> shift,
        ARSH if wide => ((a as i64) >> shift) as u64,
        ARSH => ((a as u32 as i32 as i64) >> shift) as u64,
        _ => return None,
    };
    Some(if wide { r } else { r as u32 as u64 })
}

impl<'a> Machine<'a> {
    fn new(maps: &'a Maps, hash: u32) -> Self {
        let mut regs = [Val::Uninit; 11];
        regs[R1 as usize] = Val::Ptr(Region::Ctx, 0);
        regs[R10 as usize] = Val::Ptr(Region::Stack, STACK_SIZE as i64);
        Machine {
            maps,
            hash,
            regs,
            stack: [0; STACK_SIZE],
            written: [false; STACK_SIZE],
            spilled: [None; STACK_SIZE / 8],
            record: [0; RECORD_WORDS * 8],
            selected: None,
        }
    }

    fn read(&self, r: usize) -> Result<Val, Trap> {
        match self.regs[r] {
            Val::Uninit => Err(Trap::UninitReg),
            v => Ok(v),
        }
    }

    fn write(&mut self, r: usize, v: Val) -> Result<(), Trap> {
        if r == R10 as usize {
            return Err(Trap::FrameWrite);
        }
        self.regs[r] = v;
        Ok(())
    }

    /// Execute the instruction at `pc`.
    fn step(&mut self, prog: &[Insn], pc: usize) -> Result<Flow, Trap> {
        let insn = *prog.get(pc).ok_or(Trap::PcOutOfBounds)?;
        let (code, off, imm) = (insn.code, insn.off, insn.imm);
        let (dst, src) = (insn.dst() as usize, insn.src() as usize);
        if dst > 10 || src > 10 {
            return Err(Trap::BadInsn);
        }
        let size = [4, 2, 1, 8][(code >> 3 & 3) as usize];
        let operand = || match code & X {
            0 => Ok(Val::Scalar(imm as i64 as u64)),
            _ => self.read(src),
        };
        match code & 7 {
            ALU | ALU64 if off == 0 => {
                let value = self.alu(code, dst, operand()?)?;
                self.write(dst, value)?;
            }
            JMP if code == JMP | CALL && insn.regs == 0 => {
                let ret = self.call(imm)?;
                self.regs[0] = ret;
                self.regs[1..=5].fill(Val::Uninit);
            }
            JMP if code == JMP | EXIT && insn.regs == 0 => {
                return match self.read(0)? {
                    Val::Scalar(v) => Ok(Flow::Exit(v)),
                    _ => Err(Trap::PointerOp),
                };
            }
            JMP => {
                let taken = match code & 0xf0 {
                    JA if code & X == 0 => true,
                    op => self.compare(op, dst, operand()?, code & X == 0)?,
                };
                if taken && off < 0 {
                    return Err(Trap::BackEdge);
                }
                return Ok(Flow::Next(pc + 1 + if taken { off as usize } else { 0 }));
            }
            LDX if code & 0xe0 == MEM => {
                let (region, at) = self.pointee(src, off)?;
                let value = self.load(region, at, size)?;
                self.write(dst, value)?;
            }
            STX if code & 0xe0 == MEM => {
                let (region, at) = self.pointee(dst, off)?;
                self.store(region, at, size, self.read(src)?)?;
            }
            // `lock *(size *)(dst + off) += src`, 4 or 8 bytes.
            STX if code & 0xe0 == ATOMIC && imm == ADD as i32 && size >= 4 => {
                let (region, at) = self.pointee(dst, off)?;
                let (Val::Scalar(old), Val::Scalar(add)) =
                    (self.load(region, at, size)?, self.read(src)?)
                else {
                    return Err(Trap::PointerOp);
                };
                self.store(region, at, size, Val::Scalar(old.wrapping_add(add)))?;
            }
            LD if code == LD_IMM64 => {
                let value = match prog.get(pc + 1) {
                    Some(hi) if hi.code == 0 && hi.regs == 0 && hi.off == 0 && off == 0 => {
                        self.wide(src as u8, imm, hi.imm)?
                    }
                    _ => return Err(Trap::BadInsn),
                };
                self.write(dst, value)?;
                return Ok(Flow::Next(pc + 2));
            }
            _ => return Err(Trap::BadInsn),
        }
        Ok(Flow::Next(pc + 1))
    }

    /// `dst op operand`, with pointer arithmetic limited to ± a scalar.
    fn alu(&self, code: u8, dst: usize, operand: Val) -> Result<Val, Trap> {
        let (op, wide) = (code & 0xf0, code & 7 == ALU64);
        if op == MOV {
            return match operand {
                Val::Scalar(v) if !wide => Ok(Val::Scalar(v as u32 as u64)),
                v if wide => Ok(v),
                _ => Err(Trap::PointerOp),
            };
        }
        match (self.read(dst)?, operand) {
            (Val::Scalar(a), Val::Scalar(b)) => scalar_op(op, wide, a, b)
                .map(Val::Scalar)
                .ok_or(Trap::BadInsn),
            (Val::Ptr(r, o), Val::Scalar(b)) if wide && op == ADD => {
                Ok(Val::Ptr(r, o.wrapping_add(b as i64)))
            }
            (Val::Ptr(r, o), Val::Scalar(b)) if wide && op == SUB => {
                Ok(Val::Ptr(r, o.wrapping_sub(b as i64)))
            }
            (Val::Scalar(a), Val::Ptr(r, o)) if wide && op == ADD => {
                Ok(Val::Ptr(r, o.wrapping_add(a as i64)))
            }
            _ => Err(Trap::PointerOp),
        }
    }

    /// Whether jump `op` is taken. A pointer may only be tested against an
    /// immediate 0, which settles a lookup's result either way.
    fn compare(&mut self, op: u8, dst: usize, operand: Val, imm: bool) -> Result<bool, Trap> {
        match (self.read(dst)?, operand) {
            (Val::Scalar(a), Val::Scalar(b)) => match op {
                JEQ => Ok(a == b),
                JGT => Ok(a > b),
                JGE => Ok(a >= b),
                JNE => Ok(a != b),
                JLT => Ok(a < b),
                JLE => Ok(a <= b),
                _ => Err(Trap::BadInsn),
            },
            (v @ (Val::Ptr(..) | Val::OrNull(_)), Val::Scalar(0))
                if imm && (op == JEQ || op == JNE) =>
            {
                let null = v == Val::OrNull(None);
                self.regs[dst] = match v {
                    Val::OrNull(None) => Val::Scalar(0),
                    Val::OrNull(Some(r)) => Val::Ptr(r, 0),
                    v => v,
                };
                Ok(null == (op == JEQ))
            }
            _ => Err(Trap::PointerOp),
        }
    }

    /// The value `ld_imm64` loads: a constant, a map or a pointer into the
    /// record.
    fn wide(&self, pseudo: u8, lo: i32, hi: i32) -> Result<Val, Trap> {
        match (pseudo, lo) {
            (0, _) => Ok(Val::Scalar((hi as u64) << 32 | lo as u32 as u64)),
            (PSEUDO_MAP_FD, SEL | SOCKS | RECORD) => Ok(Val::Map(lo)),
            (PSEUDO_MAP_VALUE, RECORD) => Ok(Val::Ptr(Region::Record, hi as i64)),
            _ => Err(Trap::BadInsn),
        }
    }

    /// Helper `id` on R1–R5.
    fn call(&mut self, id: i32) -> Result<Val, Trap> {
        match id {
            FN_MAP_LOOKUP_ELEM => {
                let map = self.read(1)?;
                let key = self.key(2)?;
                let value = match map {
                    Val::Map(SEL) => (key < self.maps.groups()).then_some(Region::Bitmap(key)),
                    Val::Map(RECORD) => (key == 0).then_some(Region::Record),
                    _ => return Err(Trap::HelperArg),
                };
                Ok(Val::OrNull(value))
            }
            FN_SK_SELECT_REUSEPORT => {
                let (ctx, map) = (self.read(1)?, self.read(2)?);
                let key = self.key(3)?;
                let flags = self.read(4)?;
                if ctx != Val::Ptr(Region::Ctx, 0) || map != Val::Map(SOCKS) {
                    return Err(Trap::HelperArg);
                }
                let Val::Scalar(_) = flags else {
                    return Err(Trap::HelperArg);
                };
                let slot = self.maps.socks.get(key);
                match slot.map(|s| s.load(Ordering::Acquire)) {
                    Some(sock) if sock != NO_SOCK => {
                        self.selected = Some(sock);
                        Ok(Val::Scalar(0))
                    }
                    _ => Ok(Val::Scalar(ENOENT)),
                }
            }
            _ => Err(Trap::UnknownHelper),
        }
    }

    /// The 4-byte map key register `r` points at, on the stack or in a map
    /// value.
    fn key(&self, r: usize) -> Result<usize, Trap> {
        match self.read(r)? {
            Val::Ptr(region, at) if region != Region::Ctx => match self.load(region, at, 4)? {
                Val::Scalar(key) => Ok(key as usize),
                _ => Err(Trap::HelperArg),
            },
            _ => Err(Trap::HelperArg),
        }
    }

    /// The region and offset `base + off` points at; what register `base`
    /// holds must be a pointer.
    fn pointee(&self, base: usize, off: i16) -> Result<(Region, i64), Trap> {
        match self.read(base)? {
            Val::Ptr(region, at) => Ok((region, at.wrapping_add(off as i64))),
            Val::OrNull(_) => Err(Trap::NullDeref),
            _ => Err(Trap::NotAPointer),
        }
    }

    /// Whether `size` bytes at `at` are in bounds and aligned.
    fn check(&self, region: Region, at: i64, size: usize) -> Result<(), Trap> {
        let len = match region {
            Region::Ctx if at == MD_HASH as i64 && size == 4 => return Ok(()),
            Region::Ctx => return Err(Trap::Context),
            Region::Stack => STACK_SIZE,
            Region::Bitmap(_) => 8,
            Region::Record => RECORD_WORDS * 8,
        };
        if at < 0 || at as usize + size > len {
            return Err(Trap::OutOfBounds);
        }
        if !(at as usize).is_multiple_of(size) {
            return Err(Trap::Misaligned);
        }
        Ok(())
    }

    fn load(&self, region: Region, at: i64, size: usize) -> Result<Val, Trap> {
        self.check(region, at, size)?;
        let a = at as usize;
        let bytes = |b: &[u8]| Val::Scalar(le(&b[a..a + size]));
        Ok(match region {
            Region::Ctx => Val::Scalar(self.hash as u64),
            // A spilled pointer fills back whole, or not at all.
            Region::Stack => match self.spilled[a / 8] {
                Some(v) if size == 8 => v,
                Some(_) => return Err(Trap::PointerOp),
                None if self.written[a..a + size].contains(&false) => {
                    return Err(Trap::UninitStack)
                }
                None => bytes(&self.stack),
            },
            Region::Bitmap(k) => bytes(&self.maps.bitmaps[k].load(Ordering::Acquire).to_le_bytes()),
            Region::Record => bytes(&self.record),
        })
    }

    fn store(&mut self, region: Region, at: i64, size: usize, value: Val) -> Result<(), Trap> {
        self.check(region, at, size)?;
        let a = at as usize;
        let v = match (region, value) {
            (Region::Ctx, _) => return Err(Trap::Context),
            (Region::Bitmap(_), _) => return Err(Trap::PointerOp),
            (Region::Stack, Val::Scalar(v)) => {
                // Overwriting part of a spilled pointer leaves the rest unwritten.
                if self.spilled[a / 8].take().is_some() {
                    self.written[a / 8 * 8..a / 8 * 8 + 8].fill(false);
                }
                v
            }
            (Region::Stack, v) if size == 8 => {
                self.spilled[a / 8] = Some(v);
                return Ok(());
            }
            (_, Val::Scalar(v)) => v,
            _ => return Err(Trap::PointerOp),
        };
        let new = &v.to_le_bytes()[..size];
        if region == Region::Record {
            self.record[a..a + size].copy_from_slice(new);
        } else {
            self.stack[a..a + size].copy_from_slice(new);
            self.written[a..a + size].fill(true);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn run(prog: Vec<Insn>, hash: u32) -> ExecResult {
        try_run(prog, hash).expect("executes")
    }

    fn try_run(prog: Vec<Insn>, hash: u32) -> Result<ExecResult, ExecError> {
        Vm::new(prog).run(hash, &Maps::new(1, 1))
    }

    /// The trap a program ends in, on hash 0.
    fn trap(build: impl FnOnce(&mut Assembler)) -> Trap {
        let mut a = Assembler::new();
        build(&mut a);
        try_run(a.finish(), 0).expect_err("traps").trap
    }

    /// `R2 = &key` on the stack, for a helper.
    fn key_on_stack(a: &mut Assembler, key: i64) {
        a.mov_imm(R2, key).stx(W, R10, R2, -4);
        a.mov(R2, R10).alu_imm(ADD, R2, -4);
    }

    #[test]
    fn returns_r0() {
        let mut a = Assembler::new();
        a.mov_imm(R0, 42).exit();
        assert_eq!(run(a.finish(), 0).return_value, 42);
    }

    #[test]
    fn the_hash_is_read_through_the_context() {
        let mut a = Assembler::new();
        a.ldx(W, R0, R1, MD_HASH).exit();
        assert_eq!(run(a.finish(), 0xdead_beef).return_value, 0xdead_beef);
    }

    #[test]
    fn arithmetic_and_branches() {
        // R0 = (hash > 100) ? 1 : 2
        let mut a = Assembler::new();
        let (big, done) = (a.label(), a.label());
        a.ldx(W, R1, R1, MD_HASH);
        a.jmp_imm(JGT, R1, 100, big);
        a.mov_imm(R0, 2);
        a.ja(done);
        a.bind(big);
        a.mov_imm(R0, 1);
        a.bind(done);
        a.exit();
        let prog = a.finish();
        assert_eq!(run(prog.clone(), 101).return_value, 1);
        assert_eq!(run(prog, 100).return_value, 2);
    }

    #[test]
    fn comparisons_are_unsigned() {
        // u64::MAX against 0, by register and by immediate (an immediate
        // sign-extends, so -1 is u64::MAX too): a signed compare flips each.
        let taken = |op, a: i64, b: i64, by_reg: bool| {
            let mut asm = Assembler::new();
            let yes = asm.label();
            asm.mov_imm(R2, a).mov_imm(R3, b).mov_imm(R0, 1);
            match by_reg {
                true => asm.jmp(op, R2, R3, yes),
                false => asm.jmp_imm(op, R2, b as i32, yes),
            };
            asm.mov_imm(R0, 0).bind(yes);
            asm.exit();
            run(asm.finish(), 0).return_value == 1
        };
        for by_reg in [true, false] {
            for (op, max_vs_zero) in [(JGT, true), (JGE, true), (JLT, false), (JLE, false)] {
                assert_eq!(taken(op, -1, 0, by_reg), max_vs_zero, "{op:#x} MAX, 0");
                assert_eq!(taken(op, 0, -1, by_reg), !max_vs_zero, "{op:#x} 0, MAX");
            }
        }
    }

    #[test]
    fn the_stack_round_trips_scalars_and_spilled_pointers() {
        let mut a = Assembler::new();
        a.ld_imm64(R6, 0, 0x1234_5678_9abc_def0);
        a.stx(DW, R10, R6, -16).ldx(DW, R0, R10, -16);
        a.stx(DW, R10, R1, -8).ldx(DW, R1, R10, -8);
        a.ldx(W, R1, R1, MD_HASH).alu(ADD, R0, R1).exit();
        assert_eq!(run(a.finish(), 1).return_value, 0x1234_5678_9abc_def1);
    }

    #[test]
    fn thirty_two_bit_alu_zero_extends() {
        // reciprocal_scale(hash, range) as the dispatch program inlines it:
        // 32-bit moves zero-extend both operands before a 64-bit multiply.
        let mut a = Assembler::new();
        a.ldx(W, R1, R1, MD_HASH).mov_imm(R2, -8);
        a.emit(ALU | MOV | X, R0, R1, 0, 0);
        a.emit(ALU | MOV | X, R2, R2, 0, 0);
        a.alu(MUL, R0, R2).alu_imm(RSH, R0, 32).exit();
        let vm = Vm::new(a.finish());
        for hash in [0, 1, 0x8000_0000, u32::MAX] {
            let want = hermes_core::hash::reciprocal_scale(hash, -8i32 as u32);
            assert_eq!(
                vm.run(hash, &Maps::new(1, 1)).unwrap().return_value,
                want as u64
            );
        }
        assert_eq!(scalar_op(ARSH, false, 0x8000_0000, 4), Some(0xf800_0000));
        assert_eq!(scalar_op(LSH, false, 1, 33), Some(2));
    }

    #[test]
    #[should_panic(expected = "each map needs an element")]
    fn a_map_without_elements_is_refused() {
        Maps::new(0, 1);
    }

    #[test]
    fn a_lookup_never_reads_a_torn_bitmap() {
        // The M_Sel pattern: userspace publishers, one program reading.
        let maps = std::sync::Arc::new(Maps::new(1, 1));
        let mut a = Assembler::new();
        key_on_stack(&mut a, 0);
        a.ld_imm64(R1, PSEUDO_MAP_FD, SEL as i64)
            .call(FN_MAP_LOOKUP_ELEM);
        let null = a.label();
        a.jmp_imm(JEQ, R0, 0, null).ldx(DW, R0, R0, 0);
        a.bind(null);
        a.exit();
        let vm = Vm::new(a.finish());
        let writers: Vec<_> = (1..=3u64)
            .map(|v| {
                let maps = std::sync::Arc::clone(&maps);
                std::thread::spawn(move || {
                    (0..10_000).for_each(|_| maps.publish(0, v * 0x1111_1111_1111_1111))
                })
            })
            .collect();
        for _ in 0..10_000 {
            let v = vm.run(0, &maps).unwrap().return_value;
            assert!(v.is_multiple_of(0x1111_1111_1111_1111), "torn read {v:#x}");
        }
        writers.into_iter().for_each(|w| w.join().unwrap());
    }

    #[test]
    fn an_oversized_shift_is_masked_and_division_by_zero_is_defined() {
        assert_eq!(scalar_op(LSH, true, 1, 65), Some(2));
        assert_eq!(scalar_op(ARSH, true, u64::MAX, 63), Some(u64::MAX));
        assert_eq!(scalar_op(DIV, true, 10, 0), Some(0));
        assert_eq!(scalar_op(MOD, true, 10, 0), Some(10));
        assert_eq!(
            scalar_op(MOD, false, 10, 1 << 32),
            Some(10),
            "the divisor truncates to 0"
        );
        assert_eq!(scalar_op(0x80, true, 1, 1), None, "neg is not modelled");
    }

    #[test]
    fn insn_count_is_bounded_by_program_length() {
        let mut a = Assembler::new();
        a.ld_imm64(R0, 0, 1).mov_imm(R0, 2).exit();
        let prog = a.finish();
        assert_eq!((prog.len(), run(prog, 0).insns_executed), (4, 3));
    }

    #[test]
    fn a_loop_traps_when_its_back_edge_is_taken() {
        // A backward branch not taken is harmless; taken, it traps.
        let mut a = Assembler::new();
        let top = a.label();
        a.ldx(W, R1, R1, MD_HASH);
        a.bind(top);
        a.mov_imm(R0, 7);
        a.jmp_imm(JEQ, R1, 0, top);
        a.exit();
        let prog = a.finish();
        assert_eq!(run(prog.clone(), 1).return_value, 7);
        let err = try_run(prog, 0).expect_err("the taken back-edge traps");
        assert_eq!((err.trap, err.at), (Trap::BackEdge, 2));
    }

    #[test]
    fn a_lookup_returns_a_value_pointer_or_null() {
        // The low 4 bits of the hash index an 8-element array: keys 8..=15
        // are past its end, and the lookup returns null.
        let maps = Maps::new(8, 1);
        (0..8).for_each(|k| maps.publish(k, (k as u64 + 1) * 100));
        let mut a = Assembler::new();
        let null = a.label();
        a.ldx(W, R2, R1, MD_HASH)
            .alu_imm(AND, R2, 15)
            .stx(W, R10, R2, -4);
        a.mov(R2, R10).alu_imm(ADD, R2, -4);
        a.ld_imm64(R1, PSEUDO_MAP_FD, SEL as i64);
        a.call(FN_MAP_LOOKUP_ELEM);
        a.jmp_imm(JEQ, R0, 0, null);
        a.ldx(DW, R0, R0, 0);
        a.bind(null);
        a.exit();
        let vm = Vm::new(a.finish());
        for hash in [0u32, 1, 7, 8, 15, 0xdead_beef, u32::MAX] {
            let key = hash as u64 & 15;
            let want = if key < 8 { (key + 1) * 100 } else { 0 };
            assert_eq!(vm.run(hash, &maps).unwrap().return_value, want);
        }
    }

    #[test]
    fn sk_select_commits_a_populated_slot_and_reports_an_empty_one() {
        let maps = Maps::new(1, 4);
        maps.register(2, 77);
        // Select slot = hash & 3.
        let mut a = Assembler::new();
        a.ldx(W, R3, R1, MD_HASH)
            .alu_imm(AND, R3, 3)
            .stx(W, R10, R3, -4);
        a.mov(R3, R10).alu_imm(ADD, R3, -4);
        a.ld_imm64(R2, PSEUDO_MAP_FD, SOCKS as i64).mov_imm(R4, 0);
        a.call(FN_SK_SELECT_REUSEPORT).exit();
        let vm = Vm::new(a.finish());
        let hit = vm.run(2, &maps).unwrap();
        assert_eq!((hit.return_value, hit.selected_sock), (0, Some(77)));
        let miss = vm.run(1, &maps).unwrap();
        assert_eq!((miss.return_value, miss.selected_sock), (ENOENT, None));
    }

    #[test]
    fn the_record_is_written_through_a_map_value_pointer() {
        let mut a = Assembler::new();
        a.ld_imm64(R2, PSEUDO_MAP_VALUE, RECORD as i64 | 8 << 32)
            .mov_imm(R3, 5);
        a.emit(STX | DW | ATOMIC, R2, R3, 8, ADD as i32);
        a.emit(STX | DW | ATOMIC, R2, R3, 8, ADD as i32);
        a.mov_imm(R0, 0).exit();
        assert_eq!(run(a.finish(), 0).record, [0, 0, 10]);
    }

    /// Each rule the kernel's verifier checks at load, broken once.
    #[test]
    fn each_verifier_rule_traps() {
        type Build = fn(&mut Assembler);
        let cases: [(Trap, Build); 14] = [
            (Trap::PcOutOfBounds, |a| {
                a.mov_imm(R0, 0);
            }),
            (Trap::BadInsn, |a| {
                a.emit(0x06, 0, 0, 0, 0); // a 32-bit jump
            }),
            (Trap::UnknownHelper, |a| {
                a.call(2);
            }),
            (Trap::BackEdge, |a| {
                a.emit(JMP | JA, 0, 0, -1, 0);
            }),
            (Trap::UninitReg, |a| {
                // A call leaves R1–R5 unwritten.
                key_on_stack(a, 0);
                a.ld_imm64(R1, PSEUDO_MAP_FD, SEL as i64)
                    .call(FN_MAP_LOOKUP_ELEM);
                a.mov(R0, R2);
            }),
            (Trap::UninitStack, |a| {
                a.mov_imm(R0, 0).stx(W, R10, R0, -8).ldx(DW, R0, R10, -8);
            }),
            (Trap::OutOfBounds, |a| {
                a.mov_imm(R0, 0).stx(DW, R10, R0, -520);
            }),
            (Trap::Misaligned, |a| {
                a.mov_imm(R0, 0).stx(DW, R10, R0, -12);
            }),
            (Trap::Context, |a| {
                a.ldx(DW, R0, R1, MD_HASH);
            }),
            (Trap::NullDeref, |a| {
                key_on_stack(a, 0);
                a.ld_imm64(R1, PSEUDO_MAP_FD, SEL as i64)
                    .call(FN_MAP_LOOKUP_ELEM);
                a.ldx(DW, R0, R0, 0);
            }),
            (Trap::PointerOp, |a| {
                a.alu_imm(MUL, R1, 2);
            }),
            (Trap::NotAPointer, |a| {
                a.mov_imm(R2, 64).ldx(DW, R0, R2, 0);
            }),
            (Trap::FrameWrite, |a| {
                a.alu_imm(ADD, R10, -8);
            }),
            (Trap::HelperArg, |a| {
                key_on_stack(a, 0);
                a.ld_imm64(R1, PSEUDO_MAP_FD, SOCKS as i64)
                    .call(FN_MAP_LOOKUP_ELEM);
            }),
        ];
        for (want, build) in cases {
            assert_eq!(trap(build), want);
        }
    }

    #[test]
    fn an_empty_program_traps() {
        let err = try_run(vec![], 0).expect_err("nothing to run");
        assert_eq!((err.trap, err.at), (Trap::PcOutOfBounds, 0));
    }

    #[test]
    fn the_bitmap_values_are_read_only() {
        // The program reads M_Sel; a store or an atomic add through a
        // lookup's bitmap pointer traps, and `ld_imm64` points only into
        // the record.
        for (mode, imm) in [(MEM, 0), (ATOMIC, ADD as i32)] {
            let err = trap(|a| {
                key_on_stack(a, 0);
                a.ld_imm64(R1, PSEUDO_MAP_FD, SEL as i64)
                    .call(FN_MAP_LOOKUP_ELEM);
                let null = a.label();
                a.jmp_imm(JEQ, R0, 0, null).mov_imm(R1, 1);
                a.emit(STX | DW | mode, R0, R1, 0, imm);
                a.bind(null);
                a.exit();
            });
            assert_eq!(err, Trap::PointerOp, "{mode:#x}");
        }
        let err = trap(|a| {
            a.ld_imm64(R2, PSEUDO_MAP_VALUE, SEL as i64);
        });
        assert_eq!(err, Trap::BadInsn);
    }

    #[test]
    fn exec_error_display_names_the_faulting_insn() {
        let mut a = Assembler::new();
        a.mov_imm(R6, 1).call(999).exit();
        let err = try_run(a.finish(), 0).expect_err("unknown helper must fault");
        assert_eq!((err.trap, err.at), (Trap::UnknownHelper, 1));
        assert_eq!(err.to_string(), "UnknownHelper at `1: call 999`");
    }
}
