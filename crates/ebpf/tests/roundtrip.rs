//! The analysis report renderer's output, pinned by a golden snapshot.

use hermes_ebpf::helpers::HELPER_MAP_LOOKUP;
use hermes_ebpf::insn::{Alu, Reg};
use hermes_ebpf::maps::MapKind;
use hermes_ebpf::{analyze, AnalysisCtx, Assembler};

/// Small fixed program exercising the renderer: a masked map lookup (clean
/// facts in the margin) followed by a shift by an unbounded register (the
/// one warning class that loads anyway).
fn snapshot_program() -> Vec<hermes_ebpf::Insn> {
    let mut a = Assembler::new();
    a.mov(Reg::R6, Reg::R1);
    a.alu_imm(Alu::And, Reg::R6, 7);
    a.mov_imm(Reg::R1, 0);
    a.mov(Reg::R2, Reg::R6);
    a.call(HELPER_MAP_LOOKUP);
    a.alu(Alu::Lsh, Reg::R0, Reg::R0);
    a.exit();
    a.finish()
}

#[test]
fn analysis_report_render_snapshot() {
    let prog = snapshot_program();
    let ctx = AnalysisCtx::new().bind(0, MapKind::Array, 8);
    let report = analyze(&prog, &ctx).expect("snapshot program analyzes");
    let expected = "\
analysis: 7 insns, 1 warnings
  0: mov r6, r1                                ; r6 in [0, 4294967295]
  1: and r6, 7                                 ; r6 in [0, 7]
  2: mov r1, 0                                 ; r1 in [0, 0]
  3: mov r2, r6                                ; r2 in [0, 7]
  4: call #1                                   ; key-bounded,typed key<8
  5: lsh r0, r0
  6: exit
warning: insn 5: shift amount may reach 18446744073709551615 (>= 64)
";
    assert_eq!(report.render(&prog), expected);
}
