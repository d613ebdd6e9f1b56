//! Soundness fuzzing for the abstract interpreter: any program
//! [`Vm::load_analyzed`] accepts must never trap on the checked interpreter
//! — across randomized context hashes, map contents, and socket
//! registrations — and the two shipped dispatch programs, run by that
//! interpreter, must decide exactly as core's native oracles do.
//!
//! The generator and the oracle are plain functions, driven by seeded cases
//! from the workspace generator and by an older LCG sweep that also holds
//! an acceptance-rate floor asserting the property is not vacuous.

use hermes_ebpf::helpers::{
    HELPER_MAP_LOOKUP, HELPER_RECIPROCAL_SCALE, HELPER_SK_SELECT_REUSEPORT,
};
use hermes_ebpf::insn::{Alu, Cond, Insn, Op, Reg, Src};
use hermes_ebpf::maps::{ArrayMap, MapRef, MapRegistry, SockArrayMap};
use hermes_ebpf::{AnalysisCtx, MapKind, Vm};
use hermes_metrics::rng::for_each_case;
use std::sync::Arc;

const ARRAY_SIZE: usize = 4;
const SOCKS: usize = 8;
const ARRAY_FD: u32 = 0;
const SOCK_FD: u32 = 1;

fn test_ctx() -> AnalysisCtx {
    AnalysisCtx::new()
        .bind(ARRAY_FD, MapKind::Array, ARRAY_SIZE)
        .bind(SOCK_FD, MapKind::SockArray, SOCKS)
}

/// Live maps matching [`test_ctx`]: array contents from `vals`, sockarray
/// slots registered per the low bits of `registered`.
fn test_registry(vals: &[u64; ARRAY_SIZE], registered: u8) -> MapRegistry {
    let registry = MapRegistry::new();
    let arr = Arc::new(ArrayMap::new(ARRAY_SIZE));
    for (i, &v) in vals.iter().enumerate() {
        arr.update(i, v);
    }
    registry.register(MapRef::Array(arr));
    let socks = Arc::new(SockArrayMap::new(SOCKS));
    for w in 0..SOCKS {
        if (registered >> w) & 1 == 1 {
            socks.register(w, w);
        }
    }
    registry.register(MapRef::SockArray(socks));
    registry
}

/// Expand a seed byte stream into a structurally plausible program.
///
/// Deliberately not always verifiable: unguarded register divisors,
/// oversized map keys, and reads after helper clobbers all appear, so the
/// analysis gets exercised on its reject paths too. The soundness property
/// only constrains what happens to the *accepted* remainder.
fn gen_program(seed: &[u8]) -> Vec<Insn> {
    let mut body: Vec<Op> = Vec::new();
    // Give R0-R5 defined values so early ALU ops pass defined-before-use.
    for r in 0..=5u8 {
        body.push(Op::Alu {
            op: Alu::Mov,
            dst: Reg(r),
            src: Src::Imm(seed.get(r as usize).copied().unwrap_or(r + 1) as i64),
        });
    }
    // (body index, desired forward skip) for post-hoc jump patching.
    let mut jumps: Vec<(usize, i64)> = Vec::new();
    let mut stored_slots = 0u8; // bit i ⇒ [fp - 8*(i+1)] written
    let mut bytes = seed.iter().copied().skip(6);
    while let (Some(a), Some(b), Some(c)) = (bytes.next(), bytes.next(), bytes.next()) {
        let dst = Reg(a % 6);
        match a % 16 {
            0..=6 => {
                let ops = [
                    Alu::Add,
                    Alu::Sub,
                    Alu::Mul,
                    Alu::And,
                    Alu::Or,
                    Alu::Xor,
                    Alu::Mov,
                ];
                let src = if b % 2 == 0 {
                    Src::Reg(Reg(b % 6))
                } else {
                    Src::Imm(c as i64 - 128)
                };
                body.push(Op::Alu {
                    op: ops[(a % 7) as usize],
                    dst,
                    src,
                });
            }
            7 | 8 => {
                // Shifts: usually a bounded immediate, sometimes a register
                // (warned unless its range is proven < 64).
                let op = match b % 3 {
                    0 => Alu::Lsh,
                    1 => Alu::Rsh,
                    _ => Alu::Arsh,
                };
                let src = if c % 4 == 0 {
                    Src::Reg(Reg(c % 6))
                } else {
                    Src::Imm((c % 64) as i64)
                };
                body.push(Op::Alu { op, dst, src });
            }
            9 => {
                // Division: usually a nonzero immediate, sometimes a
                // possibly-zero register (rejected unless guarded).
                let op = if b % 2 == 0 { Alu::Div } else { Alu::Mod };
                let src = if c % 8 == 0 {
                    Src::Reg(Reg(c % 6))
                } else {
                    Src::Imm((c | 1) as i64)
                };
                body.push(Op::Alu { op, dst, src });
            }
            10 => {
                let slot = b % 4;
                body.push(Op::StxStack {
                    off: -8 * (slot as i32 + 1),
                    src: dst,
                });
                stored_slots |= 1 << slot;
            }
            11 => {
                // Only load slots already written; the analysis rejects
                // uninitialized stack reads outright.
                let slot = b % 4;
                if stored_slots & (1 << slot) != 0 {
                    body.push(Op::LdxStack {
                        dst,
                        off: -8 * (slot as i32 + 1),
                    });
                }
            }
            12 | 13 => {
                // Forward jump; the exact offset is patched once the final
                // program length is known.
                jumps.push((body.len(), (c % 4) as i64 + 1));
                let conds = [Cond::Eq, Cond::Ne, Cond::Gt, Cond::Ge, Cond::Lt, Cond::Le];
                body.push(Op::Jmp {
                    cond: conds[(b % 6) as usize],
                    dst,
                    src: Src::Imm(c as i64),
                    off: 0,
                });
            }
            _ => {
                // Helper call with argument setup; reinitialize R1-R5
                // afterwards so later uses survive the clobber.
                match b % 3 {
                    0 => {
                        body.push(Op::Alu {
                            op: Alu::Mov,
                            dst: Reg(1),
                            src: Src::Imm(ARRAY_FD as i64),
                        });
                        // Sometimes mask the key in bounds, sometimes leave
                        // it oversized (an analysis reject).
                        let key = if c % 2 == 0 {
                            (c % ARRAY_SIZE as u8) as i64
                        } else {
                            c as i64
                        };
                        body.push(Op::Alu {
                            op: Alu::Mov,
                            dst: Reg(2),
                            src: Src::Imm(key),
                        });
                        body.push(Op::Call {
                            helper: HELPER_MAP_LOOKUP,
                        });
                    }
                    1 => {
                        body.push(Op::Alu {
                            op: Alu::Mov,
                            dst: Reg(1),
                            src: Src::Imm(c as i64),
                        });
                        body.push(Op::Alu {
                            op: Alu::Mov,
                            dst: Reg(2),
                            src: Src::Imm((c % 65) as i64),
                        });
                        body.push(Op::Call {
                            helper: HELPER_RECIPROCAL_SCALE,
                        });
                    }
                    _ => {
                        body.push(Op::Alu {
                            op: Alu::Mov,
                            dst: Reg(1),
                            src: Src::Imm(SOCK_FD as i64),
                        });
                        body.push(Op::Alu {
                            op: Alu::Mov,
                            dst: Reg(2),
                            src: Src::Imm((c % 16) as i64),
                        });
                        body.push(Op::Call {
                            helper: HELPER_SK_SELECT_REUSEPORT,
                        });
                    }
                }
                for r in 1..=5u8 {
                    body.push(Op::Alu {
                        op: Alu::Mov,
                        dst: Reg(r),
                        src: Src::Imm((c % 32) as i64),
                    });
                }
            }
        }
    }
    let end = body.len() as i64; // index of the final exit
    for (at, skip) in jumps {
        let max_off = end - at as i64 - 1;
        if let Op::Jmp { off, .. } = &mut body[at] {
            *off = skip.min(max_off) as i32;
        }
    }
    body.push(Op::Exit);
    body.into_iter().map(Insn).collect()
}

/// The soundness oracle. Returns whether the program was accepted.
///
/// For accepted programs: no trap, and instruction counts respect the
/// no-loop bound.
fn check_soundness(seed: &[u8], hashes: &[u32], vals: &[u64; ARRAY_SIZE], registered: u8) -> bool {
    let prog = gen_program(seed);
    let analyzed = match Vm::load_analyzed(prog.clone(), &test_ctx()) {
        Ok(vm) => vm,
        Err(_) => return false,
    };
    let registry = test_registry(vals, registered);
    for &hash in hashes {
        let c = analyzed
            .run(hash, &registry)
            .unwrap_or_else(|e| panic!("accepted program trapped: {e}"));
        assert!(c.insns_executed <= prog.len(), "executed past the program");
    }
    true
}

/// Deterministic sweep: 600 LCG-derived programs, each run over four hashes. Also asserts the
/// generator's acceptance rate stays high enough to be meaningful.
#[test]
fn lcg_sweep_accepted_programs_never_trap() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let mut accepted = 0usize;
    for _ in 0..600 {
        let len = 6 + (lcg() % 40) as usize;
        let seed: Vec<u8> = (0..len).map(|_| lcg() as u8).collect();
        let hashes = [0u32, 1, u32::MAX, lcg()];
        let vals = [lcg() as u64, u64::MAX, 0, (lcg() as u64) << 32];
        if check_soundness(&seed, &hashes, &vals, lcg() as u8) {
            accepted += 1;
        }
    }
    assert!(
        accepted >= 100,
        "generator acceptance collapsed: {accepted}/600 — the property is near-vacuous"
    );
}

/// Deliberately unsafe constructs must be rejected, not silently run: an
/// out-of-bounds constant map key and a possibly-zero register divisor.
#[test]
fn negative_seeds_are_rejected() {
    let oob_key = {
        let mut body = vec![
            Op::Alu {
                op: Alu::Mov,
                dst: Reg(1),
                src: Src::Imm(ARRAY_FD as i64),
            },
            Op::Alu {
                op: Alu::Mov,
                dst: Reg(2),
                src: Src::Imm(ARRAY_SIZE as i64), // one past the end
            },
            Op::Call {
                helper: HELPER_MAP_LOOKUP,
            },
        ];
        body.push(Op::Exit);
        body.into_iter().map(Insn).collect::<Vec<_>>()
    };
    assert!(Vm::load_analyzed(oob_key, &test_ctx()).is_err());

    let div_by_reg = vec![
        Insn(Op::Alu {
            op: Alu::Mov,
            dst: Reg(0),
            src: Src::Imm(40),
        }),
        Insn(Op::Alu {
            op: Alu::Mov,
            dst: Reg(3),
            src: Src::Reg(Reg(1)), // the hash: may be zero
        }),
        Insn(Op::Alu {
            op: Alu::Div,
            dst: Reg(0),
            src: Src::Reg(Reg(3)),
        }),
        Insn(Op::Exit),
    ];
    assert!(Vm::load_analyzed(div_by_reg, &test_ctx()).is_err());
}

/// Random seeds: accepted programs never trap, whatever the maps hold.
#[test]
fn accepted_programs_never_trap() {
    for_each_case(256, |g| {
        let seed: Vec<u8> = (0..6 + g.index(74)).map(|_| g.next_u64() as u8).collect();
        let hashes: Vec<u32> = (0..1 + g.index(5)).map(|_| g.next_u64() as u32).collect();
        let vals = [(); ARRAY_SIZE].map(|()| g.next_u64());
        check_soundness(&seed, &hashes, &vals, g.next_u64() as u8);
    });
}

/// The grouped (bounded-dynamic-fd) program under the fuzz harness: the
/// interpreter, its batched path, and the native two-level oracle agree
/// for random group shapes, bitmaps, and hashes.
#[test]
fn grouped_dispatch_matches_native_oracle() {
    for_each_case(256, |g| {
        let bitmaps: Vec<u64> = (0..1 + g.index(5)).map(|_| g.next_u64()).collect();
        let hashes: Vec<u32> = (0..1 + g.index(7)).map(|_| g.next_u64() as u32).collect();
        check_grouped_dispatch(bitmaps.len(), 1 + g.index(64), &bitmaps, &hashes);
    });
}

/// The shipped flat program loaded into a bare `Vm` against maps of the
/// test's own: build it for `workers`, load the bitmap, and assert the
/// interpreter's `ExecResult` names the worker (or the fallback)
/// `ConnDispatcher` picks. (Seeded random cases of the same property, through
/// `ReuseportGroup`, are `program.rs`'s `bytecode_matches_native_oracle`.)
fn check_flat_dispatch(bits: u64, hash: u32, workers: usize) {
    use hermes_core::dispatch::{ConnDispatcher, DispatchOutcome};
    use hermes_core::WorkerBitmap;
    use hermes_ebpf::DispatchProgram;
    let prog = DispatchProgram::build(ARRAY_FD, SOCK_FD, workers);
    let ctx = AnalysisCtx::new().bind(ARRAY_FD, MapKind::Array, 1).bind(
        SOCK_FD,
        MapKind::SockArray,
        workers,
    );
    let analyzed = Vm::load_analyzed(prog, &ctx).unwrap();
    assert!(analyzed.analysis().is_clean(), "Algorithm 2 must be clean");
    let registry = MapRegistry::new();
    let arr = Arc::new(ArrayMap::new(1));
    arr.update(0, bits);
    registry.register(MapRef::Array(arr));
    let socks = Arc::new(SockArrayMap::new(workers));
    for w in 0..workers {
        socks.register(w, w);
    }
    registry.register(MapRef::SockArray(socks));
    let ran = analyzed.run(hash, &registry).unwrap();
    let picked = (ran.return_value != 0).then_some(ran.selected_sock);
    let want = match ConnDispatcher::new(workers).dispatch(WorkerBitmap(bits), hash) {
        DispatchOutcome::Directed(w) => Some(Some(w)),
        DispatchOutcome::Fallback(_) => None,
    };
    assert_eq!(
        picked, want,
        "bits {bits:#x} hash {hash:#x} workers {workers}"
    );
}

/// Deterministic sweep of the flat differential across group sizes on
/// either side of every rung count, with the degenerate bitmaps.
#[test]
fn dispatch_program_differential_sweep() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for workers in [1usize, 2, 3, 17, 64] {
        for _ in 0..40 {
            check_flat_dispatch(lcg(), lcg() as u32, workers);
        }
        check_flat_dispatch(0, 0, workers);
        check_flat_dispatch(u64::MAX, u32::MAX, workers);
    }
}

/// Grouped-dispatch differential oracle. Loads `bitmaps[g]` into group
/// `g`'s selection map on both planes, then asserts for every hash that the
/// bytecode decision (group, directed flag, flattened worker) equals the
/// native [`GroupedConnDispatcher`] — the §7 two-level composition the
/// scheduler side publishes into, and what the simulator places through.
fn check_grouped_dispatch(groups: usize, group_size: usize, bitmaps: &[u64], hashes: &[u32]) {
    use hermes_core::{GroupedConnDispatcher, SelMap, WorkerBitmap};
    use hermes_ebpf::GroupedReuseportGroup;
    assert_eq!(bitmaps.len(), groups);
    let g = GroupedReuseportGroup::new(groups, group_size);
    let sel_maps: Vec<Arc<SelMap>> = bitmaps
        .iter()
        .map(|&b| {
            let s = SelMap::new();
            s.store(WorkerBitmap(b));
            Arc::new(s)
        })
        .collect();
    let oracle = GroupedConnDispatcher::new(sel_maps, &vec![group_size; groups], group_size);
    for (i, &b) in bitmaps.iter().enumerate() {
        g.sync_group_bitmap(i, WorkerBitmap(b));
    }
    for &h in hashes {
        assert_eq!(g.dispatch(h), oracle.dispatch(h), "diverged on {h:#x}");
    }
}

/// Deterministic LCG sweep of the grouped differential: shapes from the
/// degenerate single group through the 256-worker scale point (4×64),
/// bitmaps and hashes randomized per round.
#[test]
fn grouped_dispatch_differential_sweep() {
    let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };
    for (groups, size) in [
        (1usize, 1usize),
        (1, 64),
        (2, 32),
        (3, 5),
        (4, 16),
        (4, 64),
        (8, 8),
    ] {
        for _ in 0..6 {
            let bitmaps: Vec<u64> = (0..groups).map(|_| lcg()).collect();
            let hashes: Vec<u32> = (0..24).map(|_| lcg() as u32).collect();
            check_grouped_dispatch(groups, size, &bitmaps, &hashes);
        }
        // Degenerate bitmaps: all-empty (pure fallback) and all-full.
        check_grouped_dispatch(groups, size, &vec![0u64; groups], &[0, 1, u32::MAX]);
        check_grouped_dispatch(groups, size, &vec![u64::MAX; groups], &[0, 1, u32::MAX]);
    }
}

/// Level 2 reaches every worker of the level-1 group: with full bitmaps,
/// spread hashes give each global worker its `1/(groups·size)` share, on
/// the native oracle and on the bytecode. (Scaling level 1's own hash again
/// confined group `g` to the `g`-th `groups`-th of its candidates — half
/// the workers of a 4×2 deployment accepted nothing.)
#[test]
fn grouped_dispatch_reaches_every_worker_evenly() {
    use hermes_core::{GroupedConnDispatcher, SelMap, WorkerBitmap};
    use hermes_ebpf::GroupedReuseportGroup;
    const HASHES: u32 = 100_000;
    for (groups, size) in [(2usize, 4usize), (4, 2), (4, 16)] {
        let full = WorkerBitmap::all(size);
        let bytecode = GroupedReuseportGroup::new(groups, size);
        let sel_maps = (0..groups)
            .map(|g| {
                bytecode.sync_group_bitmap(g, full);
                let s = SelMap::new();
                s.store(full);
                Arc::new(s)
            })
            .collect();
        let native = GroupedConnDispatcher::new(sel_maps, &vec![size; groups], size);
        let mut hits = vec![[0u32; 2]; groups * size];
        for h in (0..HASHES).map(|i| i.wrapping_mul(0x9E37_79B9)) {
            hits[native.dispatch(h).worker][0] += 1;
            hits[bytecode.dispatch(h).worker][1] += 1;
        }
        let share = f64::from(HASHES) / (groups * size) as f64;
        for (w, plane) in hits.iter().enumerate() {
            for (&n, name) in plane.iter().zip(["native", "bytecode"]) {
                assert!(
                    (f64::from(n) - share).abs() <= 0.2 * share,
                    "{groups}x{size} {name}: worker {w} took {n} of {HASHES}, fair share {share}"
                );
            }
        }
    }
}
