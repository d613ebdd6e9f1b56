//! Kernel eBPF instructions, `struct bpf_insn`, and the opcode pieces the
//! dispatch program is written in (`linux/bpf_common.h`, `linux/bpf.h`).
//!
//! Eleven 64-bit registers. By eBPF convention: R0 holds return values,
//! R1–R5 carry helper-call arguments (and R1 the context pointer at entry),
//! R6–R9 are callee-saved scratch, R10 is the read-only frame pointer.
//! A jump's offset counts slots from the one after it; `ld_imm64` fills two
//! slots, the second carrying the immediate's high word.

/// One kernel eBPF instruction: opcode, `dst_reg` (low nibble) and
/// `src_reg` (high nibble), offset, immediate — eight bytes, laid out as
/// the kernel reads them.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Insn {
    /// Opcode: class | size/op | mode/source.
    pub code: u8,
    /// `dst_reg | src_reg << 4`.
    pub regs: u8,
    /// Memory offset, or a jump's offset in slots.
    pub off: i16,
    /// Immediate.
    pub imm: i32,
}

impl Insn {
    /// `struct bpf_insn { code, dst, src, off, imm }`.
    pub const fn new(code: u8, dst: u8, src: u8, off: i16, imm: i32) -> Insn {
        Insn {
            code,
            regs: dst | src << 4,
            off,
            imm,
        }
    }

    /// Destination register.
    pub fn dst(self) -> u8 {
        self.regs & 0xf
    }

    /// Source register (for `ld_imm64`, its pseudo kind).
    pub fn src(self) -> u8 {
        self.regs >> 4
    }

    /// The eight bytes the kernel loads (little-endian fields).
    pub fn to_bytes(self) -> [u8; 8] {
        let [o0, o1] = self.off.to_le_bytes();
        let [i0, i1, i2, i3] = self.imm.to_le_bytes();
        [self.code, self.regs, o0, o1, i0, i1, i2, i3]
    }
}

// Classes.
pub const LD: u8 = 0x00; // Wide immediate loads (`ld_imm64`).
pub const LDX: u8 = 0x01; // Loads from memory.
pub const STX: u8 = 0x03; // Stores of a register to memory (and atomics).
pub const ALU: u8 = 0x04; // 32-bit ALU: operands truncated, result zero-extended.
pub const JMP: u8 = 0x05; // Jumps, calls and exit.
pub const ALU64: u8 = 0x07; // 64-bit ALU.

// Access sizes.
pub const W: u8 = 0x00; // 4 bytes.
pub const H: u8 = 0x08; // 2 bytes.
pub const B: u8 = 0x10; // 1 byte.
pub const DW: u8 = 0x18; // 8 bytes.

// Modes.
pub const IMM: u8 = 0x00; // Immediate (`ld_imm64`).
pub const MEM: u8 = 0x60; // Memory at `reg + off`.
pub const ATOMIC: u8 = 0xc0; // Read-modify-write at `reg + off`, `imm` the operation.

// Operand source.
pub const K: u8 = 0x00; // The immediate.
pub const X: u8 = 0x08; // The source register.

// ALU operations.
pub const ADD: u8 = 0x00; // `dst += src` (wrapping).
pub const SUB: u8 = 0x10; // `dst -= src` (wrapping).
pub const MUL: u8 = 0x20; // `dst *= src` (wrapping).
pub const DIV: u8 = 0x30; // `dst /= src` (unsigned; division by zero yields 0).
pub const OR: u8 = 0x40; // `dst |= src`.
pub const AND: u8 = 0x50; // `dst &= src`.
pub const LSH: u8 = 0x60; // `dst <<= src` (amount masked to the width).
pub const RSH: u8 = 0x70; // `dst >>= src`, logical.
pub const MOD: u8 = 0x90; // `dst %= src` (unsigned; modulo zero keeps `dst`).
pub const XOR: u8 = 0xa0; // `dst ^= src`.
pub const MOV: u8 = 0xb0; // `dst = src`.
pub const ARSH: u8 = 0xc0; // `dst >>= src`, arithmetic.

// Jump operations (unsigned comparisons).
pub const JA: u8 = 0x00; // Unconditional.
pub const JEQ: u8 = 0x10; // `dst == src`.
pub const JGT: u8 = 0x20; // `dst > src`.
pub const JGE: u8 = 0x30; // `dst >= src`.
pub const JNE: u8 = 0x50; // `dst != src`.
pub const CALL: u8 = 0x80; // Helper call, id in `imm`.
pub const EXIT: u8 = 0x90; // Return R0.
pub const JLT: u8 = 0xa0; // `dst < src`.
pub const JLE: u8 = 0xb0; // `dst <= src`.

/// `ld_imm64`, two slots. Its source register says what the immediate is:
/// 0 a constant, [`PSEUDO_MAP_FD`] a map (a helper's map argument),
/// [`PSEUDO_MAP_VALUE`] a pointer into an array map's first value, the
/// second slot's `imm` the offset.
pub const LD_IMM64: u8 = LD | DW | IMM;
pub const PSEUDO_MAP_FD: u8 = 1;
pub const PSEUDO_MAP_VALUE: u8 = 2;

/// Helper `bpf_map_lookup_elem(map, &key)`: a pointer to the value, or null.
pub const FN_MAP_LOOKUP_ELEM: i32 = 1;
/// Helper `bpf_sk_select_reuseport(ctx, map, &key, flags)`: 0, or a
/// negative errno with no socket selected.
pub const FN_SK_SELECT_REUSEPORT: i32 = 82;

/// `offsetof(struct sk_reuseport_md, hash)`: the one context field the
/// dispatch program reads, 4 bytes wide.
pub const MD_HASH: i16 = 32;
pub const SK_PASS: i32 = 1; // Return value that lets the kernel place the connection.
pub const STACK_SIZE: usize = 512; // Stack bytes below the frame pointer.

pub const R0: u8 = 0; // Return value / scratch.
pub const R1: u8 = 1; // Context pointer at entry; first helper argument.
pub const R2: u8 = 2; // Second helper argument.
pub const R3: u8 = 3; // Third helper argument.
pub const R4: u8 = 4; // Fourth helper argument.
pub const R5: u8 = 5; // Fifth helper argument.
pub const R6: u8 = 6; // Callee-saved scratch.
pub const R7: u8 = 7; // Callee-saved scratch.
pub const R8: u8 = 8; // Callee-saved scratch.
pub const R9: u8 = 9; // Callee-saved scratch.
pub const R10: u8 = 10; // Frame pointer (read-only), one past the top of the stack.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_insn_is_the_kernels_eight_bytes() {
        assert_eq!(std::mem::size_of::<Insn>(), 8);
        let i = Insn::new(STX | DW | MEM, R10, R1, -8, 0x0102_0304);
        assert_eq!((i.dst(), i.src()), (10, 1));
        assert_eq!(i.to_bytes(), [0x7b, 0x1a, 0xf8, 0xff, 4, 3, 2, 1]);
    }
}
