//! Program disassembler — debugging/inspection support, the moral
//! equivalent of `bpftool prog dump xlated`.

use crate::insn::{Alu, Cond, Insn, Op, Src};

fn src(s: Src) -> String {
    match s {
        Src::Reg(r) => format!("r{}", r.0),
        Src::Imm(i) => {
            if i.unsigned_abs() > 0xFFFF {
                format!("{:#x}", i as u64)
            } else {
                format!("{i}")
            }
        }
    }
}

fn alu_op(op: Alu) -> &'static str {
    match op {
        Alu::Mov => "mov",
        Alu::Add => "add",
        Alu::Sub => "sub",
        Alu::Mul => "mul",
        Alu::And => "and",
        Alu::Or => "or",
        Alu::Xor => "xor",
        Alu::Lsh => "lsh",
        Alu::Rsh => "rsh",
        Alu::Arsh => "arsh",
        Alu::Div => "div",
        Alu::Mod => "mod",
    }
}

fn cond(c: Cond) -> &'static str {
    match c {
        Cond::Eq => "jeq",
        Cond::Ne => "jne",
        Cond::Gt => "jgt",
        Cond::Ge => "jge",
        Cond::Lt => "jlt",
        Cond::Le => "jle",
    }
}

/// Render one instruction at index `at` (absolute jump targets resolved).
pub fn disasm_insn(at: usize, insn: &Insn) -> String {
    match insn.0 {
        Op::Alu { op, dst, src: s } => {
            format!("{}: {} r{}, {}", at, alu_op(op), dst.0, src(s))
        }
        Op::Ja { off } => format!("{}: ja -> {}", at, at as i64 + 1 + off as i64),
        Op::Jmp {
            cond: c,
            dst,
            src: s,
            off,
        } => format!(
            "{}: {} r{}, {} -> {}",
            at,
            cond(c),
            dst.0,
            src(s),
            at as i64 + 1 + off as i64
        ),
        Op::StxStack { off, src: s } => format!("{}: stx [fp{}], r{}", at, off, s.0),
        Op::LdxStack { dst, off } => format!("{}: ldx r{}, [fp{}]", at, dst.0, off),
        Op::Call { helper } => format!("{}: call #{}", at, helper),
        Op::Exit => format!("{}: exit", at),
    }
}

/// Render a whole program, one instruction per line.
pub fn disasm(prog: &[Insn]) -> String {
    prog.iter()
        .enumerate()
        .map(|(i, insn)| disasm_insn(i, insn))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::insn::Reg;
    use crate::program::DispatchProgram;

    #[test]
    fn renders_each_instruction_kind() {
        let mut a = Assembler::new();
        let end = a.label();
        a.mov_imm(Reg::R0, 0x12345678);
        a.mov(Reg::R6, Reg::R1);
        a.alu_imm(crate::insn::Alu::Add, Reg::R6, 5);
        a.stx_stack(-8, Reg::R6);
        a.ldx_stack(Reg::R2, -8);
        a.jmp_imm(crate::insn::Cond::Gt, Reg::R2, 7, end);
        a.call(crate::helpers::HELPER_RECIPROCAL_SCALE);
        a.bind(end);
        a.exit();
        let text = disasm(&a.finish());
        assert!(text.contains("0: mov r0, 0x12345678"));
        assert!(text.contains("1: mov r6, r1"));
        assert!(text.contains("2: add r6, 5"));
        assert!(text.contains("3: stx [fp-8], r6"));
        assert!(text.contains("4: ldx r2, [fp-8]"));
        assert!(text.contains("5: jgt r2, 7 -> 7"));
        assert!(text.contains("6: call #2"));
        assert!(text.contains("7: exit"));
    }

    #[test]
    fn dispatch_program_listing_is_complete_and_loop_free() {
        let prog = DispatchProgram::build(0, 1, 32);
        let text = disasm(&prog);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), prog.len());
        // Every jump target printed must be strictly forward — a readable
        // witness of the analysis' no-back-edge rule.
        for (i, line) in lines.iter().enumerate() {
            if let Some(pos) = line.find("-> ") {
                let target: i64 = line[pos + 3..].trim().parse().unwrap();
                assert!(target > i as i64, "backward jump rendered: {line}");
            }
        }
        // Spot-check the structure: two exits (selected / fallback), the
        // three helper calls of Algorithm 2.
        assert_eq!(text.matches("exit").count(), 2);
        assert_eq!(text.matches("call #1").count(), 1); // map_lookup
        assert_eq!(text.matches("call #2").count(), 1); // reciprocal_scale
        assert_eq!(text.matches("call #3").count(), 1); // sk_select_reuseport
    }
}
