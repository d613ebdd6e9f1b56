//! Counter-backed proof of the frozen-registry resolution cache
//! (`CompiledProgram::resolve`): a warm dispatch loop performs **one**
//! slot resolution total, no matter how many single-shot dispatches run.
//!
//! This is the grouped-batch investigation's fix made falsifiable — see
//! the "Why grouped batch64 barely beat single-shot" note in
//! EXPERIMENTS.md. Requires the `trace` feature (ci.sh runs it in the
//! jit-soundness step); the file holds exactly one test so the global
//! counter delta cannot race a sibling test in the same process.

#![cfg(feature = "trace")]

use hermes_core::WorkerBitmap;
use hermes_ebpf::{ExecTier, ReuseportGroup};
use hermes_trace::CounterId;

#[test]
fn warm_dispatch_loop_resolves_maps_at_most_once() {
    let g = ReuseportGroup::new(16);
    g.sync_bitmap(WorkerBitmap(0xA5A5));

    // Warm every path once: single-shot, compiled run_tier, and a batch.
    g.dispatch(1);
    g.vm()
        .run_tier(ExecTier::Compiled, 1, g.registry())
        .unwrap();
    let mut out = Vec::new();
    g.dispatch_batch(&[1, 2, 3], &mut out);

    let builds_before = hermes_trace::counter_get(CounterId::VmResolveBuilds);
    let compiled_before = hermes_trace::counter_get(CounterId::VmRunsCompiled);
    let jit_before = hermes_trace::counter_get(CounterId::VmRunsJit);

    const N: u64 = 10_000;
    for i in 0..N as u32 {
        g.dispatch(i.wrapping_mul(0x9E37_79B9));
    }
    // Force the compiled tier too: its per-run resolve must also be a
    // cache hit against the frozen registry.
    for i in 0..N as u32 {
        g.vm()
            .run_tier(ExecTier::Compiled, i, g.registry())
            .unwrap();
    }

    let builds = hermes_trace::counter_get(CounterId::VmResolveBuilds) - builds_before;
    let runs = hermes_trace::counter_get(CounterId::VmRunsCompiled) - compiled_before
        + hermes_trace::counter_get(CounterId::VmRunsJit)
        - jit_before;
    assert_eq!(runs, 2 * N, "loop did not run on the proven tiers");
    assert_eq!(
        builds, 0,
        "warm frozen-registry dispatch rebuilt its map resolution {builds} times \
         over {runs} runs — the slot cache regressed"
    );
}
