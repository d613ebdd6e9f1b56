//! Two verifiers, one source: the kernel's own verifier against
//! `hermes_ebpf::analyze` on programs lowered by `hermes_ebpf::kernel`.
//!
//! Every test here needs `bpf(2)`. Where the kernel refuses it (`EPERM`
//! without `CAP_BPF` + `CAP_NET_ADMIN`, `ENOSYS`) a test prints
//! `SKIP: bpf(2) refused (<errno>)` and returns: `scripts/ci.sh` turns that
//! line into a SKIP row, it is not a pass.
#![cfg(target_os = "linux")]

use hermes_ebpf::insn::{Cond, Reg};
use hermes_ebpf::kernel::{refused, LoadedProgram, SEL_FD, SOCK_FD};
use hermes_ebpf::maps::MapKind;
use hermes_ebpf::{analyze, AnalysisCtx, AnalysisReport, Assembler, DispatchProgram, Insn};

/// `false` (after printing the SKIP line) when this host refuses `bpf(2)`.
/// Any other failure of the one-worker program fails the test.
fn bpf_allowed() -> bool {
    match LoadedProgram::flat(1) {
        Ok(_) => true,
        Err(e) if refused(&e) => {
            println!("SKIP: bpf(2) refused ({e})");
            false
        }
        Err(e) => panic!("bpf(2) is allowed, the shipped program is not: {e}"),
    }
}

#[test]
fn probe_prints_the_dispatch_mode() {
    // The line `scripts/ci.sh` puts in its lane table.
    match LoadedProgram::flat(1) {
        Ok(_) => println!("kernel dispatch: ebpf"),
        Err(e) if refused(&e) => println!("kernel dispatch: hash-only ({e})"),
        Err(e) => panic!("bpf(2) is allowed, the shipped program is not: {e}"),
    }
}

#[test]
fn the_kernel_admits_the_shipped_program_at_every_group_size() {
    if !bpf_allowed() {
        return;
    }
    for workers in 1..=64 {
        if let Err(e) = LoadedProgram::flat(workers) {
            panic!("the kernel refused the flat program for {workers} workers: {e}");
        }
    }
}

fn ctx(workers: usize) -> AnalysisCtx {
    AnalysisCtx::new()
        .bind(SEL_FD, MapKind::Array, 1)
        .bind(SOCK_FD, MapKind::SockArray, workers)
}

#[test]
fn both_verifiers_give_the_same_verdict() {
    if !bpf_allowed() {
        return;
    }
    // Admitted by both: the flat program at sizes on either side of every
    // rung count (no ladder, one rung, .., six).
    for workers in [1usize, 2, 4, 8, 33, 64] {
        let prog = DispatchProgram::build(SEL_FD, SOCK_FD, workers);
        let report = analyze(&prog, &ctx(workers)).expect("flat program analyzes");
        if let Err(e) = LoadedProgram::new(&prog, &report, workers) {
            panic!("analyze admits {workers} workers, the kernel does not: {e}");
        }
    }

    // Refused by both, each for the reason the other gives. None calls a
    // helper, so an empty report lowers them.
    let rejected: [(&str, Vec<Insn>); 3] = [
        ("reads a register nothing wrote", {
            let mut a = Assembler::new();
            a.mov(Reg::R0, Reg::R7);
            a.exit();
            a.finish()
        }),
        // (A loop with a bound is where the two part ways on purpose: the
        // kernel has admitted those since 5.3, `analyze` keeps the classic
        // verifier's ban on every back-edge, which the paper worked under.)
        ("loops forever", {
            let mut a = Assembler::new();
            let top = a.label();
            a.mov_imm(Reg::R0, 0);
            a.bind(top);
            a.jmp_imm(Cond::Eq, Reg::R0, 0, top);
            a.exit();
            a.finish()
        }),
        ("returns a value written on one path only", {
            let mut a = Assembler::new();
            let join = a.label();
            a.jmp_imm(Cond::Eq, Reg::R1, 0, join);
            a.mov_imm(Reg::R0, 1);
            a.bind(join);
            a.exit();
            a.finish()
        }),
    ];
    for (what, prog) in rejected {
        let ours = analyze(&prog, &ctx(1));
        let theirs = LoadedProgram::new(&prog, &AnalysisReport::default(), 1);
        assert!(ours.is_err(), "analyze admitted a program that {what}");
        let theirs = theirs.expect_err(&format!("the kernel admitted a program that {what}"));
        assert!(
            !refused(&theirs),
            "a verdict that reads as no bpf(2): {theirs}"
        );
        println!("{what}: ours {:?}; theirs {theirs}", ours.unwrap_err());
    }
}
