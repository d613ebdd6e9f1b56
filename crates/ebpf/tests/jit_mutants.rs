//! Mutation-kill suite for the jit tier (x86-64 Linux only).
//!
//! The differential fuzz in `soundness.rs` asserts the jit agrees with the
//! checked interpreter — but a vacuous harness would pass that trivially.
//! Here we prove the harness has teeth: seeded single-defect emitters
//! ([`JitMutation`]) must each be *caught*, either by the emit-time jump
//! audit refusing to map the code, or by the differential sweep observing
//! a divergence from checked semantics.
//!
//! Mutants:
//! * [`JitMutation::WrongImmediate`] — a branch compares against `imm + 1`.
//! * [`JitMutation::ClobberCalleeSaved`] — RBX (the R6 home) is zeroed
//!   after every popcount lowering.
//! * [`JitMutation::OffByOneJump`] — the first block-target fixup lands
//!   one byte past its block; the post-patch audit must reject the buffer.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use hermes_ebpf::maps::{ArrayMap, MapRef, MapRegistry, SockArrayMap};
use hermes_ebpf::{
    AnalysisCtx, DispatchProgram, ExecTier, JitError, JitMutation, JitProgram, MapKind, Vm,
};
use std::sync::Arc;

const ARRAY_FD: u32 = 0;
const SOCK_FD: u32 = 1;
const WORKERS: usize = 64;

/// Algorithm 2 loaded onto the compiled tier plus a live registry — the
/// same shape the soundness differential drives.
fn dispatch_fixture(bits: u64) -> (Vm, MapRegistry) {
    let prog = DispatchProgram::build(ARRAY_FD, SOCK_FD, WORKERS);
    let ctx = AnalysisCtx::new().bind(ARRAY_FD, MapKind::Array, 1).bind(
        SOCK_FD,
        MapKind::SockArray,
        WORKERS,
    );
    let vm = Vm::load_analyzed(prog, &ctx).expect("dispatch program analyzes");
    let registry = MapRegistry::new();
    let arr = Arc::new(ArrayMap::new(1));
    arr.update(0, bits);
    registry.register(MapRef::Array(arr));
    let socks = Arc::new(SockArrayMap::new(WORKERS));
    for w in 0..WORKERS {
        socks.register(w, w);
    }
    registry.register(MapRef::SockArray(socks));
    (vm, registry)
}

/// Emit a seeded mutant of the fixture's program and sweep it against the
/// checked interpreter, returning how many hashes diverged. The mutant
/// must build (these defects are semantic, not structural) and the sweep
/// must catch it — mirroring how the real differential would.
fn divergences(mutation: JitMutation, bits: u64) -> usize {
    let (vm, registry) = dispatch_fixture(bits);
    let cp = vm.compiled().expect("compiled tier earned");
    let cert = vm.validation().expect("certificate issued");
    let mutant =
        JitProgram::emit_mutated(cp, cert, &registry, mutation).expect("mutant must still map");
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut diverged = 0usize;
    for _ in 0..4096 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let hash = (state >> 33) as u32;
        let want = vm
            .run_tier(ExecTier::Checked, hash, &registry)
            .expect("checked run cannot trap");
        if mutant.run(hash) != want {
            diverged += 1;
        }
    }
    diverged
}

#[test]
fn wrong_immediate_mutant_is_caught_by_differential() {
    // `n > 1` becomes `n > 2`: two-candidate bitmaps silently fall back.
    let caught = divergences(JitMutation::WrongImmediate, 0b11);
    assert!(caught > 0, "wrong-immediate mutant survived the sweep");
}

#[test]
fn clobbered_callee_saved_mutant_is_caught_by_differential() {
    // R6 (the saved hash, homed in RBX) dies across the first popcount:
    // reciprocal_scale then runs on a zero hash, shifting the pick for
    // almost every hash on a wide bitmap.
    let caught = divergences(JitMutation::ClobberCalleeSaved, u64::MAX);
    assert!(caught > 0, "callee-saved-clobber mutant survived the sweep");
}

#[test]
fn off_by_one_jump_mutant_is_rejected_at_emit() {
    // A control transfer into the middle of an instruction can execute
    // arbitrary bytes; the post-patch audit must refuse to map it rather
    // than rely on the differential noticing.
    let (vm, registry) = dispatch_fixture(0xF0F0);
    let cp = vm.compiled().expect("compiled tier earned");
    let cert = vm.validation().expect("certificate issued");
    match JitProgram::emit_mutated(cp, cert, &registry, JitMutation::OffByOneJump) {
        Err(JitError::BadJumpTarget { .. }) => {}
        Ok(_) => panic!("off-by-one jump mapped executable code"),
        Err(e) => panic!("wrong rejection: {e}"),
    }
}

#[test]
fn unmutated_emission_passes_the_same_sweep() {
    // The control arm: the honest emitter goes through the identical
    // harness and shows zero divergences, so the kills above are
    // attributable to the seeded defects alone.
    let (vm, registry) = dispatch_fixture(0b11);
    let jit = vm.prepare_jit(&registry).expect("jit tier earned");
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..4096 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let hash = (state >> 33) as u32;
        let want = vm
            .run_tier(ExecTier::Checked, hash, &registry)
            .expect("checked run cannot trap");
        assert_eq!(jit.run(hash), want, "honest emitter diverged on {hash:#x}");
    }
}
