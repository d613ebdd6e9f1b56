//! The one admission: the kernel's own verifier, on programs loaded by
//! `hermes_ebpf::kernel`. It admits the shipped program at every group
//! size, at one group and at several, and refuses malformed ones with its
//! own verdict — each of which the interpreter traps too.
//!
//! Every test here needs `bpf(2)`. Where the kernel refuses it (`EPERM`
//! without `CAP_BPF` + `CAP_NET_ADMIN`, `ENOSYS`) a test prints
//! `SKIP: bpf(2) refused (<errno>)` and returns: `scripts/ci.sh` turns that
//! line into a SKIP row, it is not a pass.
#![cfg(target_os = "linux")]

use hermes_ebpf::insn::{JEQ, MD_HASH, R0, R1, R7, W};
use hermes_ebpf::kernel::{refused, LoadedProgram};
use hermes_ebpf::{Assembler, Insn, Maps, Trap, Vm};

/// `false` (after printing the SKIP line) when this host refuses `bpf(2)`.
/// Any other failure of the one-worker program fails the test.
fn bpf_allowed() -> bool {
    match LoadedProgram::dispatch(1, 1) {
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
    match LoadedProgram::dispatch(1, 1) {
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
    let grouped = [(2, 64), (3, 5), (4, 16)];
    for (groups, size) in (1..=64).map(|size| (1, size)).chain(grouped) {
        if let Err(e) = LoadedProgram::dispatch(groups, size) {
            panic!("the kernel refused the program for {groups} groups of {size}: {e}");
        }
    }
}

#[test]
fn the_kernel_refuses_malformed_programs_with_its_own_verdict() {
    if !bpf_allowed() {
        return;
    }
    // None calls a helper; each reaches the verifier, which answers with
    // its log (`InvalidData`), not with a refused `bpf(2)`. (A loop *with* a
    // bound the kernel has admitted since 5.3; the interpreter traps every
    // taken back-edge, the classic verifier's ban the paper worked under.)
    for (what, prog, _) in rejected() {
        let verdict = LoadedProgram::new(&prog, 1, 1)
            .expect_err(&format!("the kernel admitted a program that {what}"));
        assert!(
            !refused(&verdict),
            "a verdict that reads as no bpf(2): {verdict}"
        );
        assert_eq!(verdict.kind(), std::io::ErrorKind::InvalidData, "{verdict}");
        println!("{what}: {verdict}");
    }
}

/// Programs the kernel's verifier refuses, with the trap the interpreter
/// meets each at on hash 0.
fn rejected() -> [(&'static str, Vec<Insn>, Trap); 3] {
    [
        (
            "reads a register nothing wrote",
            {
                let mut a = Assembler::new();
                a.mov(R0, R7).exit();
                a.finish()
            },
            Trap::UninitReg,
        ),
        (
            "loops forever",
            {
                let mut a = Assembler::new();
                let top = a.label();
                a.mov_imm(R0, 0);
                a.bind(top);
                a.jmp_imm(JEQ, R0, 0, top);
                a.exit();
                a.finish()
            },
            Trap::BackEdge,
        ),
        (
            "returns a value written on one path only",
            {
                let mut a = Assembler::new();
                let join = a.label();
                a.ldx(W, R1, R1, MD_HASH);
                a.jmp_imm(JEQ, R1, 0, join);
                a.mov_imm(R0, 1);
                a.bind(join);
                a.exit();
                a.finish()
            },
            Trap::UninitReg,
        ),
    ]
}

#[test]
fn the_interpreter_traps_what_the_kernel_refuses() {
    for (what, prog, trap) in rejected() {
        let err = Vm::new(prog).run(0, &Maps::new(1, 1)).expect_err(what);
        assert_eq!(err.trap, trap, "a program that {what}: {err}");
    }
}
