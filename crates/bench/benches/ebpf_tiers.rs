//! Load-time costs of the execution-tier ladder.
//!
//! What a program pays once, before its first connection: the analysis and
//! compilation of the Algorithm 2 bytecode, the translation proof for the
//! flat and the two-level (grouped, dynamic-fd) program, and native emission
//! of the validated stream (mmap + lower + seal). The per-connection cost of
//! each tier, single-shot and batched, flat and grouped, belongs to
//! `src/bin/dispatch_throughput.rs`, which measures the tiers in alternation
//! and gates their ratios.

use hermes_bench::{flat_registry, time_it};
use hermes_core::WorkerBitmap;
use hermes_ebpf::{AnalysisCtx, DispatchProgram, ExecTier, GroupedReuseportGroup, Vm};
use std::hint::black_box;

const WORKERS: usize = 64;
const BITMAP: u64 = 0x0000_F0F0_A5A5_3C3C;

fn main() {
    let prog = DispatchProgram::build(0, 1, WORKERS);
    let maps = flat_registry(WORKERS, BITMAP);
    let ctx = AnalysisCtx::from_registry(&maps);

    let vm = Vm::load_analyzed(prog.clone(), &ctx).expect("program analyzes");
    vm.prepare_jit(&maps);
    assert_eq!(vm.tier(), ExecTier::native_ceiling());

    // Native emission alone, isolated from analysis/compilation by reusing
    // the already-proven artifact.
    if vm.tier() == ExecTier::Jit {
        let cp = vm.compiled().expect("compiled tier earned");
        let cert = vm.validation().expect("certificate issued");
        time_it("ebpf_tiers/jit_emit_dispatch_program", || {
            hermes_ebpf::JitProgram::emit(cp, cert, &maps).expect("jit emission")
        });
    }

    // The proof + compilation (amortized over every connection the program
    // then serves).
    time_it("ebpf_tiers/analyze_and_compile_dispatch_program", || {
        Vm::load_analyzed(black_box(prog.clone()), &ctx).expect("analyzes")
    });

    // The translation proof alone (EXPERIMENTS.md budget: < 5 ms per
    // program; in practice tens of microseconds).
    let report = vm.analysis();
    let cp = vm.compiled().expect("compiled tier earned");
    time_it("ebpf_tiers/validate_cost_flat", || {
        hermes_ebpf::validate(&prog, cp, &ctx, report).expect("proves")
    });

    // The same for the grouped program (bank obligations included).
    let grouped = GroupedReuseportGroup::new(4, 16);
    for grp in 0..4 {
        grouped.sync_group_bitmap(grp, WorkerBitmap(0xA5A5));
    }
    assert_eq!(grouped.tier(), ExecTier::native_ceiling());
    let grouped_ctx = AnalysisCtx::from_registry(grouped.registry());
    let grouped_report = grouped.analysis();
    let grouped_cp = grouped.vm().compiled().expect("compiled tier earned");
    time_it("ebpf_tiers/validate_cost_grouped", || {
        hermes_ebpf::validate(grouped.program(), grouped_cp, &grouped_ctx, grouped_report)
            .expect("proves")
    });
}
