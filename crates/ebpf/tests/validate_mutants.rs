//! Mutation-kill suite for the translation validator.
//!
//! Each [`Mutation`] seeds one realistic miscompilation into a
//! [`hermes_ebpf::CompiledProgram`] — swapped operands, a shifted fusion
//! window, a stale bank base, a dropped step. The validator must reject
//! every applicable mutant of both Algorithm 2 programs *statically*: no
//! obligation here is discharged by executing the program on sample
//! inputs, so a mutant that diverges only on rare inputs dies just as
//! surely as one that diverges everywhere.
//!
//! The last test makes that point sharp: the weakened branch-guard mutant
//! agrees with the pristine program on *every* multi-bit admit bitmap —
//! differential fuzzing would need to draw one of the 16 single-bit
//! bitmaps out of 65535 (≈0.02% per uniform draw) to notice it. The
//! validator kills it without running either program once.
//!
//! Note the admission side of the contract is not testable here because it
//! is compile-time unreachable: `Vm` stores the compiled tier as
//! `Option<(CompiledProgram, ValidationCert)>` and the cert's fields are
//! private to `hermes_ebpf::validate`, so no code path can place an
//! unvalidated program on the compiled tier.

use hermes_core::bitmap::WorkerBitmap;
use hermes_ebpf::validate::{mutate, validate, Mutation};
use hermes_ebpf::{AnalysisCtx, GroupedReuseportGroup, ReuseportGroup};

/// Count of workers in the flat deployment under test.
const WORKERS: usize = 16;

fn flat() -> ReuseportGroup {
    ReuseportGroup::new(WORKERS)
}

fn grouped() -> GroupedReuseportGroup {
    GroupedReuseportGroup::new(4, 8)
}

#[test]
fn pristine_programs_validate_with_static_obligations() {
    let flat = flat();
    let cert = flat.validation();
    assert!(cert.blocks_proven() > 0);
    assert!(
        cert.obligations_discharged() > 0,
        "slot/key/type obligations must be discharged by proof, not sampling"
    );

    let grouped = grouped();
    let cert = grouped.validation();
    assert!(cert.blocks_proven() > 0);
    assert!(cert.obligations_discharged() > 0);
}

/// Every applicable seeded mutant of both Algorithm 2 programs must be
/// rejected. Mutations with no applicable site on a program (e.g. bank
/// mutations on the flat program, const-slot aliasing on the grouped one)
/// return `None` from [`mutate`] and are counted out, not skipped silently.
#[test]
fn every_applicable_mutant_is_rejected() {
    let flat = flat();
    let grouped = grouped();
    let cases = [
        (
            "flat",
            flat.program(),
            AnalysisCtx::from_registry(flat.registry()),
            flat.vm().compiled().expect("flat compiled tier"),
        ),
        (
            "grouped",
            grouped.program(),
            AnalysisCtx::from_registry(grouped.registry()),
            grouped.vm().compiled().expect("grouped compiled tier"),
        ),
    ];

    let mut applicable = 0usize;
    let mut kinds_applied = std::collections::HashSet::new();
    for (name, prog, ctx, cp) in &cases {
        let report = hermes_ebpf::analyze(prog, ctx).expect("pristine program analyzes");
        // Sanity: the pristine program proves before we break it.
        validate(prog, cp, ctx, &report)
            .unwrap_or_else(|e| panic!("pristine {name} program must validate: {e}"));
        for m in Mutation::ALL {
            let Some(mutant) = mutate(cp, m) else {
                continue;
            };
            applicable += 1;
            kinds_applied.insert(m);
            let verdict = validate(prog, &mutant, ctx, &report);
            assert!(
                verdict.is_err(),
                "{name}: mutant {m:?} must be rejected, got cert {:?}",
                verdict.ok()
            );
        }
    }
    assert!(
        applicable >= 10,
        "mutation suite lost coverage: only {applicable} applicable mutants"
    );
    assert_eq!(
        kinds_applied.len(),
        Mutation::ALL.len(),
        "every mutation kind must apply to at least one program"
    );
}

/// The validator's advantage over differential fuzzing, demonstrated: the
/// weakened guard (`jle` → `jlt`) diverges *only* when the admit bitmap
/// has exactly one set bit. Sweeping all 65535 nonempty 16-worker bitmaps
/// shows the mutant and the pristine program agree everywhere else —
/// return value, selected socket, and retired-instruction count — so a
/// fuzzer drawing bitmaps uniformly has a ≈0.02% chance per draw of ever
/// seeing a difference. The validator rejects the mutant statically.
#[test]
fn weakened_guard_mutant_needs_a_lucky_fuzz_draw() {
    let flat = flat();
    let ctx = AnalysisCtx::from_registry(flat.registry());
    let report = hermes_ebpf::analyze(flat.program(), &ctx).expect("analyzes");
    let cp = flat.vm().compiled().expect("flat compiled tier");
    let mutant = mutate(cp, Mutation::WeakenBranchCond).expect("flat program has a jle guard");

    // Static kill, zero executions.
    assert!(
        validate(flat.program(), &mutant, &ctx, &report).is_err(),
        "weakened guard must fail translation validation"
    );

    // Exhaustive differential sweep: the divergence set is exactly the
    // single-bit bitmaps.
    let mut diverging = Vec::new();
    for bits in 1..=u64::from(u16::MAX) {
        flat.sync_bitmap(WorkerBitmap(bits));
        let hash = (bits as u32).wrapping_mul(2_654_435_761);
        let pristine = cp.run_uncertified(hash, flat.registry());
        let mutated = mutant.run_uncertified(hash, flat.registry());
        if pristine != mutated {
            // The divergence mode: pristine falls back (n <= 1 takes the
            // guard), the mutant commits the lone admitted worker.
            assert_eq!(pristine.return_value, 0);
            assert_eq!(pristine.selected_sock, None);
            assert_eq!(mutated.return_value, 1);
            assert_eq!(
                mutated.selected_sock,
                Some(bits.trailing_zeros() as usize),
                "mutant commits the lone admitted worker"
            );
            diverging.push(bits);
        }
    }
    assert_eq!(
        diverging.len(),
        WORKERS,
        "divergence set must be exactly the single-bit bitmaps"
    );
    assert!(
        diverging.iter().all(|b| b.count_ones() == 1),
        "mutant is input-indistinguishable except on single-bit bitmaps"
    );
}
