//! The three execution tiers vs the native oracle.
//!
//! The verifier/compiler ladder's payoff on the per-connection critical
//! path: the same Algorithm 2 bytecode executed by (a) the checked
//! interpreter with pc/stack/div/shift guards on every step, (b) the
//! load-time compiled basic-block program with fused SWAR popcounts and
//! direct helper calls, and (c) the jit tier — the validated compiled
//! stream lowered to native x86-64 with map addresses baked in — against
//! the native `ConnDispatcher` oracle as the floor. Batched variants
//! amortize the map-registry resolution and bitmap load over a
//! 64-connection burst. Also measures the two-level
//! (grouped, dynamic-fd) program and the analysis itself (a load-time,
//! not per-connection, cost).

use hermes_bench::time_it;
use hermes_core::{ConnDispatcher, WorkerBitmap};
use hermes_ebpf::maps::{ArrayMap, MapRef, MapRegistry, SockArrayMap};
use hermes_ebpf::{AnalysisCtx, DispatchProgram, ExecTier, GroupedReuseportGroup, Vm};
use std::hint::black_box;
use std::sync::Arc;

const WORKERS: usize = 64;
const BITMAP: u64 = 0x0000_F0F0_A5A5_3C3C;
const BURST: usize = 64;

/// Live maps mirroring [`hermes_ebpf::ReuseportGroup::new`].
fn registry() -> MapRegistry {
    let registry = MapRegistry::new();
    let sel = Arc::new(ArrayMap::new(1));
    sel.update(0, BITMAP);
    registry.register(MapRef::Array(sel));
    let socks = Arc::new(SockArrayMap::new(WORKERS));
    for w in 0..WORKERS {
        socks.register(w, w);
    }
    registry.register(MapRef::SockArray(socks));
    registry
}

fn burst_hashes() -> Vec<u32> {
    (0..BURST as u32)
        .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(9) ^ 0x5A5A_A5A5)
        .collect()
}

fn main() {
    let prog = DispatchProgram::build(0, 1, WORKERS);
    let maps = registry();
    let ctx = AnalysisCtx::from_registry(&maps);
    let hashes = burst_hashes();

    let oracle = ConnDispatcher::new(WORKERS);
    time_it("ebpf_tiers/native_oracle", || {
        oracle.dispatch(WorkerBitmap(BITMAP), black_box(0x1234_5678))
    });

    let vm = Vm::load_analyzed(prog.insns().to_vec(), &ctx).expect("program analyzes");
    vm.prepare_jit(&maps);
    assert_eq!(vm.tier(), ExecTier::native_ceiling());
    for tier in [ExecTier::Checked, ExecTier::Compiled, ExecTier::Jit] {
        if tier > vm.tier() {
            continue;
        }
        time_it(&format!("ebpf_tiers/{tier}_tier"), || {
            vm.run_tier(tier, black_box(0x1234_5678), &maps, 0).unwrap()
        });
    }

    // Whole-burst dispatch: one registry resolution for 64 connections.
    // On x86-64 `run_batch` dispatches through the jit; the row keeps its
    // historical name so baselines stay comparable.
    let mut out = Vec::with_capacity(BURST);
    time_it("ebpf_tiers/compiled_batch64", || {
        out.clear();
        vm.run_batch(black_box(&hashes), &maps, 0, &mut out)
            .unwrap();
        out.len()
    });

    // Load-time cost of native emission (mmap + lower + seal), isolated
    // from analysis/compilation by reusing the already-proven artifact.
    if vm.tier() == ExecTier::Jit {
        let cp = vm.compiled().expect("compiled tier earned");
        let cert = vm.validation().expect("certificate issued");
        time_it("ebpf_tiers/jit_emit_dispatch_program", || {
            hermes_ebpf::JitProgram::emit(cp, cert, &maps).expect("jit emission")
        });
    }

    // Load-time cost of the proof + compilation (amortized over every
    // connection the program then serves).
    time_it("ebpf_tiers/analyze_and_compile_dispatch_program", || {
        Vm::load_analyzed(black_box(prog.insns().to_vec()), &ctx).expect("analyzes")
    });

    // Load-time cost of the translation proof alone (EXPERIMENTS.md
    // budget: < 5 ms per program; in practice tens of microseconds).
    let report = vm.analysis().expect("loaded via load_analyzed");
    let cp = vm.compiled().expect("compiled tier earned");
    time_it("ebpf_tiers/validate_cost_flat", || {
        hermes_ebpf::validate(prog.insns(), cp, &ctx, report).expect("proves")
    });

    // Two-level program (dynamic-fd compiled path), single and batched.
    let grouped = GroupedReuseportGroup::new(4, 16);
    for grp in 0..4 {
        grouped.sync_group_bitmap(grp, WorkerBitmap(0xA5A5));
    }
    assert_eq!(grouped.tier(), ExecTier::native_ceiling());
    time_it("ebpf_tiers/grouped_compiled", || {
        grouped.dispatch(black_box(0x1234_5678))
    });
    let mut grouped_out = Vec::with_capacity(BURST);
    time_it("ebpf_tiers/grouped_compiled_batch64", || {
        grouped_out.clear();
        grouped.dispatch_batch(black_box(&hashes), &mut grouped_out);
        grouped_out.len()
    });

    // Translation proof for the grouped program (bank obligations
    // included).
    let grouped_ctx = AnalysisCtx::from_registry(grouped.registry());
    let grouped_report = grouped.analysis();
    let grouped_cp = grouped.vm().compiled().expect("compiled tier earned");
    time_it("ebpf_tiers/validate_cost_grouped", || {
        hermes_ebpf::validate(grouped.program(), grouped_cp, &grouped_ctx, grouped_report)
            .expect("proves")
    });
}
