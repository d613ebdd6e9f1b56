//! Program disassembler — debugging/inspection support, the moral
//! equivalent of `bpftool prog dump xlated`. One line per instruction,
//! prefixed with its slot; `ld_imm64` is one line over two slots.

use crate::insn::{Insn, ALU, ALU64, ATOMIC, CALL, EXIT, JA, JMP, LDX, LD_IMM64, MEM, STX, X};
use crate::insn::{PSEUDO_MAP_FD, PSEUDO_MAP_VALUE};

const ALU_OPS: [&str; 13] = [
    "add", "sub", "mul", "div", "or", "and", "lsh", "rsh", "neg", "mod", "xor", "mov", "arsh",
];
const JMP_OPS: [&str; 12] = [
    "ja", "jeq", "jgt", "jge", "jset", "jne", "jsgt", "jsge", "call", "exit", "jlt", "jle",
];
const SIZES: [&str; 4] = ["w", "h", "b", "dw"];

/// Render the instruction at slot `at`; `hi` is the next slot's `imm`, read
/// only by `ld_imm64` (jump targets are printed as absolute slots).
fn render(at: usize, insn: &Insn, hi: i32) -> String {
    let (d, s, off, imm) = (insn.dst(), insn.src(), insn.off, insn.imm);
    let src = if insn.code & X != 0 {
        format!("r{s}")
    } else {
        imm.to_string()
    };
    let size = SIZES[(insn.code >> 3 & 3) as usize];
    let body = match (insn.code & 7, insn.code & 0xf0) {
        (class @ (ALU | ALU64), op) if op <= 0xc0 => {
            let wide = if class == ALU { "32" } else { "" };
            format!("{}{wide} r{d}, {src}", ALU_OPS[op as usize >> 4])
        }
        (JMP, JA) if insn.code == JMP | JA => format!("ja -> {}", at as i64 + 1 + off as i64),
        (JMP, CALL) => format!("call {imm}"),
        (JMP, EXIT) => "exit".into(),
        (JMP, op) if op <= 0xb0 => {
            let to = at as i64 + 1 + off as i64;
            format!("{} r{d}, {src} -> {to}", JMP_OPS[op as usize >> 4])
        }
        _ if insn.code == LD_IMM64 => match s {
            PSEUDO_MAP_FD => format!("lddw r{d}, map {imm}"),
            PSEUDO_MAP_VALUE => format!("lddw r{d}, map {imm} value+{hi}"),
            _ => format!("lddw r{d}, {:#x}", (hi as i64) << 32 | imm as u32 as i64),
        },
        _ if insn.code & !0x18 == LDX | MEM => format!("ldx{size} r{d}, [r{s}{off:+}]"),
        _ if insn.code & !0x18 == STX | MEM => format!("stx{size} [r{d}{off:+}], r{s}"),
        _ if insn.code & !0x18 == STX | ATOMIC && imm == 0 => {
            format!("xadd{size} [r{d}{off:+}], r{s}")
        }
        _ => format!("unknown {:#04x}", insn.code),
    };
    format!("{at}: {body}")
}

/// Render one instruction at slot `at` on its own (an `ld_imm64`'s high
/// word reads as 0).
pub fn disasm_insn(at: usize, insn: &Insn) -> String {
    render(at, insn, 0)
}

/// Render a whole program, one instruction per line.
pub fn disasm(prog: &[Insn]) -> String {
    let mut lines = Vec::new();
    let mut at = 0;
    while at < prog.len() {
        let wide = prog[at].code == LD_IMM64;
        let hi = if wide {
            prog.get(at + 1).map_or(0, |n| n.imm)
        } else {
            0
        };
        lines.push(render(at, &prog[at], hi));
        at += 1 + wide as usize;
    }
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::insn::*;
    use crate::program::DispatchProgram;

    #[test]
    fn renders_each_instruction_kind() {
        let mut a = Assembler::new();
        let end = a.label();
        a.mov_imm(R0, 0x1234_5678);
        a.mov(R6, R1);
        a.alu_imm(ADD, R6, 5);
        a.stx(DW, R10, R6, -8);
        a.ldx(W, R2, R1, MD_HASH);
        a.jmp_imm(JGT, R2, 7, end);
        a.ld_imm64(R3, PSEUDO_MAP_VALUE, 2 | 16 << 32);
        a.emit(ALU | MOV | X, R0, R1, 0, 0);
        a.emit(STX | DW | ATOMIC, R3, R2, 8, 0);
        a.call(FN_MAP_LOOKUP_ELEM);
        a.alu_imm(AND, R0, 0x5555_5555_5555_5555);
        a.bind(end);
        a.exit();
        a.emit(0xff, 0, 0, 0, 0);
        let text = disasm(&a.finish());
        let want = [
            "0: mov r0, 305419896",
            "1: mov r6, r1",
            "2: add r6, 5",
            "3: stxdw [r10-8], r6",
            "4: ldxw r2, [r1+32]",
            "5: jgt r2, 7 -> 14",
            "6: lddw r3, map 2 value+16",
            "8: mov32 r0, r1",
            "9: xadddw [r3+8], r2",
            "10: call 1",
            "11: lddw r5, 0x5555555555555555",
            "13: and r0, r5",
            "14: exit",
            "15: unknown 0xff",
        ];
        assert_eq!(text, want.join("\n"));
    }

    #[test]
    fn dispatch_program_listing_is_loop_free() {
        let prog = DispatchProgram::build(1, 32);
        let text = disasm(&prog);
        // Every jump target printed must be strictly forward — a readable
        // witness that the interpreter's back-edge trap never fires on it.
        for line in text.lines() {
            let at: i64 = line[..line.find(':').unwrap()].parse().unwrap();
            if let Some(pos) = line.find("-> ") {
                let target: i64 = line[pos + 3..].trim().parse().unwrap();
                assert!(target > at && target < prog.len() as i64, "{line}");
            }
        }
        // Two exits (selected / fallback), one lookup and one select.
        assert_eq!(text.matches("exit").count(), 2);
        assert_eq!(text.matches("call 1\n").count(), 1);
        assert_eq!(text.matches("call 82\n").count(), 1);
    }
}
