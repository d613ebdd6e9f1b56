//! The checked interpreter is total, and the shipped program decides as
//! core's native oracle does.
//!
//! Totality: every generated program, run on random hashes, map contents
//! and socket registrations, returns `Ok` or a named `Trap` and never
//! panics, and an `Ok` run retires at most `prog.len()` instructions. The
//! programs are kernel encoding, plausible and not: loops, jumps past the
//! end or into an `ld_imm64`, unknown opcodes, stack accesses out of frame,
//! misaligned or of bytes never written, context fields other than `hash`,
//! lookup results used before their null check, pointer arithmetic, writes
//! to R10, unknown helpers and helper arguments of the wrong type, beside
//! what the kernel defines at run time: zero divisors, any shift amount and
//! keys past a map's end. No admission stands in front of [`Vm::new`]; this
//! is what makes that safe. The differential half holds the one dispatch
//! program — the bytes the kernel loads — run by that interpreter, against
//! `ConnDispatcher` at one group and at many.
//!
//! The generator and the oracles are plain functions, driven by seeded cases
//! from the workspace generator and by an LCG sweep that also holds a floor
//! asserting the property is not vacuous.

use hermes_ebpf::insn::*;
use hermes_ebpf::program::{RECORD, SEL, SOCKS};
use hermes_ebpf::{ExecError, Insn, Maps, Vm};
use hermes_metrics::rng::for_each_case;

const GROUPS: usize = 4;
const SLOTS: usize = 8;

/// A program's two maps: bitmap words from `vals`, socket slots registered
/// per the bits of `registered`.
fn test_maps(vals: &[u64; GROUPS], registered: u8) -> Maps {
    let maps = Maps::new(GROUPS, SLOTS);
    for (g, &v) in vals.iter().enumerate() {
        maps.publish(g, v);
    }
    for w in (0..SLOTS).filter(|w| (registered >> w) & 1 == 1) {
        maps.register(w, w);
    }
    maps
}

/// Where a generated jump goes, fixed once the program's length is known.
enum Jump {
    /// Forward by up to this many slots, clamped to the final exit.
    Forward(i16),
    /// Backward: a loop, if taken.
    Back(i16),
    /// Past the final exit, if taken.
    Escape(i16),
}

/// Expand a seed byte stream into a program. A fixed prologue spills the
/// context to `fp-8`, writes the three stack slots below it and gives R0
/// and R2–R5 values; then each three bytes make one piece, most of them
/// what the dispatch program does and a few what the kernel's verifier
/// refuses.
fn gen_program(seed: &[u8]) -> Vec<Insn> {
    let i = Insn::new;
    let mut body = vec![
        i(STX | DW | MEM, R10, R1, -8, 0),
        i(ALU64 | MOV | K, R0, 0, 0, 0),
        i(LDX | W | MEM, R2, R1, MD_HASH, 0),
        i(ALU64 | MOV | K, R3, 0, 0, 1),
        i(ALU64 | MOV | K, R4, 0, 0, 2),
        i(ALU64 | MOV | K, R5, 0, 0, 3),
        i(STX | DW | MEM, R10, R0, -16, 0),
        i(STX | DW | MEM, R10, R0, -24, 0),
        i(STX | DW | MEM, R10, R0, -32, 0),
    ];
    let mut jumps: Vec<(usize, Jump)> = Vec::new();
    let mut bytes = seed.iter().copied();
    while let (Some(a), Some(b), Some(c)) = (bytes.next(), bytes.next(), bytes.next()) {
        let dst = [R0, R2, R3, R4, R5][(a >> 4) as usize % 5];
        let ops = [ADD, SUB, MUL, AND, OR, XOR, MOV];
        let op = ops[(b >> 1) as usize % ops.len()];
        // A register source (one in sixteen a pointer) or a small immediate.
        let (x, src, imm) = match (b & 1, c % 16) {
            (0, 15) => (X, [R1, R10][c as usize / 16 % 2], 0),
            (0, _) => (X, [R0, R2, R3, R4, R5][c as usize % 5], 0),
            _ => (K, 0, c as i8 as i32),
        };
        // A written stack slot below the spilled context; one access in
        // thirty-two out of frame, one misaligned, one through a register
        // of any kind, one at the spilled context.
        let (base, off) = match c % 32 {
            0 => (R10, -520),
            1 => (R10, 0),
            2 => (R10, -13),
            3 => (b % 6, 0),
            4 => (R10, -8),
            _ => (R10, -8 * (b as i16 % 3 + 2)),
        };
        let size = [W, DW, B, H][(c >> 4) as usize % 4];
        match a % 16 {
            0..=3 => body.push(i(ALU64 | op | x, dst, src, 0, imm)),
            4 => body.push(i(ALU | op | x, dst, src, 0, imm)),
            5 => {
                // Shifts by a bounded immediate or a register of any value.
                let op = [LSH, RSH, ARSH][b as usize % 3];
                let class = if b & 4 == 0 { ALU64 } else { ALU };
                body.push(match c % 4 {
                    0 => i(class | op | X, dst, c % 6, 0, 0),
                    _ => i(class | op | K, dst, 0, 0, (c % 64) as i32),
                });
            }
            6 => {
                // Division by a nonzero immediate or a register that may be 0.
                let op = if b % 2 == 0 { DIV } else { MOD };
                body.push(match c % 8 {
                    0 => i(ALU64 | op | X, dst, c % 6, 0, 0),
                    _ => i(ALU64 | op | K, dst, 0, 0, (c | 1) as i32),
                });
            }
            7 | 14 => {
                // An access through a pointer in R5 — into the stack,
                // usually in frame, or into the record (the bitmap array and
                // the socket array name no value: a bad instruction) — then
                // R5 is a scalar again.
                if a % 16 == 7 {
                    let by = if c % 16 == 15 {
                        8
                    } else {
                        -8 * (c as i32 % 3 + 2)
                    };
                    body.push(i(ALU64 | MOV | X, R5, R10, 0, 0));
                    body.push(i(ALU64 | ADD | K, R5, 0, 0, by));
                } else {
                    let map = [RECORD, RECORD, RECORD, RECORD, RECORD, RECORD, SEL, SOCKS]
                        [(b >> 1) as usize % 8];
                    body.push(i(LD_IMM64, R5, PSEUDO_MAP_VALUE, 0, map));
                    body.push(i(0, 0, 0, 0, if c % 16 == 15 { 24 } else { 0 }));
                }
                let val = [R0, R2, R3, R4][(a >> 4) as usize % 4];
                body.push(match b & 1 {
                    0 => i(STX | size | MEM, R5, val, 0, 0),
                    _ => i(LDX | size | MEM, val, R5, 0, 0),
                });
                body.push(i(ALU64 | MOV | K, R5, 0, 0, c as i32));
            }
            8 | 9 => body.push(i(STX | size | MEM, base, dst, off, 0)),
            10 if c % 8 == 4 => body.extend([
                i(LDX | DW | MEM, R1, R10, -8, 0),
                i(LDX | size | MEM, dst, R1, MD_HASH, 0),
            ]),
            10 => body.push(i(LDX | size | MEM, dst, base, off, 0)),
            11 | 12 => {
                // One in sixteen backward, one past the end.
                let jump = match c % 16 {
                    0 => Jump::Back(-1 - (c / 16 % 4) as i16),
                    1 => Jump::Escape((c / 16 % 4) as i16),
                    _ => Jump::Forward((c % 4) as i16 + 1),
                };
                jumps.push((body.len(), jump));
                let op = [JEQ, JNE, JGT, JGE, JLT, JLE][b as usize % 6];
                body.push(i(JMP | op | x, dst, src, 0, imm & 7));
            }
            13 => {
                // A helper call with its arguments set up: a key on the
                // stack, and a map — one in four of the wrong kind.
                let (key_reg, helper) = match b % 8 {
                    0..=3 => (R2, FN_MAP_LOOKUP_ELEM),
                    4..=6 => (R3, FN_SK_SELECT_REUSEPORT),
                    _ => (R2, 4 + c as i32),
                };
                let map = match (c % 4, helper) {
                    (3, _) => [SEL, SOCKS, RECORD][c as usize / 4 % 3],
                    (_, FN_SK_SELECT_REUSEPORT) => SOCKS,
                    (0, _) => RECORD,
                    _ => SEL,
                };
                body.push(i(ALU64 | MOV | K, key_reg, 0, 0, (c / 3 % 8) as i32));
                body.push(i(STX | W | MEM, R10, key_reg, -16, 0));
                body.push(i(ALU64 | MOV | X, key_reg, R10, 0, 0));
                body.push(i(ALU64 | ADD | K, key_reg, 0, 0, -16));
                let map_reg = if helper == FN_SK_SELECT_REUSEPORT {
                    R2
                } else {
                    R1
                };
                body.extend([i(LD_IMM64, map_reg, PSEUDO_MAP_FD, 0, map), Insn::default()]);
                if helper == FN_SK_SELECT_REUSEPORT {
                    body.push(i(LDX | DW | MEM, R1, R10, -8, 0));
                    body.push(i(ALU64 | MOV | K, R4, 0, 0, 0));
                }
                body.push(i(JMP | CALL, 0, 0, 0, helper));
                // A lookup's result used: read after its null check, or
                // stored through after it (a bitmap word is read-only: a
                // trap), or (one in four) read before it, or dropped; the
                // arguments set again, or (one in four) not.
                if helper == FN_MAP_LOOKUP_ELEM {
                    body.extend(match b / 8 % 4 {
                        0 => vec![i(LDX | DW | MEM, R0, R0, 0, 0)],
                        1 => vec![
                            i(JMP | JEQ | K, R0, 0, 1, 0),
                            i(LDX | DW | MEM, R0, R0, 0, 0),
                        ],
                        2 => vec![
                            i(JMP | JEQ | K, R0, 0, 2, 0),
                            i(ALU64 | MOV | K, R1, 0, 0, c as i32),
                            i(STX | DW | MEM, R0, R1, 0, 0),
                        ],
                        _ => vec![i(ALU64 | MOV | K, R0, 0, 0, 0)],
                    });
                }
                if b & 0x60 != 0 {
                    body.extend(
                        [R1, R2, R3, R4, R5].map(|r| i(ALU64 | MOV | K, r, 0, 0, c as i32)),
                    );
                }
            }
            _ => match b % 8 {
                // A 64-bit constant.
                0 | 1 => body.extend([i(LD_IMM64, dst, 0, 0, b as i32), i(0, 0, 0, 0, c as i32)]),
                // A write to R10.
                2 => body.push(i(ALU64 | ADD | K, R10, 0, 0, 8)),
                // Anything at all.
                3 => body.push(i(c, a, b, (b as i16) - 128, c as i32)),
                // An atomic add into the stack (the spilled context's slot
                // too) or through a register.
                _ => body.push(i(STX | DW | ATOMIC, base, dst, off & !7, ADD as i32)),
            },
        }
    }
    let end = body.len() as i16; // slot of the final exit
    for (at, jump) in jumps {
        let next = at as i16 + 1;
        body[at].off = match jump {
            Jump::Forward(skip) => skip.min(end - next),
            Jump::Back(off) => off,
            Jump::Escape(extra) => end - next + 1 + extra,
        };
    }
    body.push(Insn::new(JMP | EXIT, 0, 0, 0, 0));
    body
}

/// The totality oracle: run `seed`'s program on every hash and return how
/// each run ended — `Ok` having retired no more instructions than the
/// program has, or a trap. A panic fails the calling test.
fn check_total(
    seed: &[u8],
    hashes: &[u32],
    vals: &[u64; GROUPS],
    registered: u8,
) -> Vec<Result<(), ExecError>> {
    let prog = gen_program(seed);
    let vm = Vm::new(prog.clone());
    let maps = test_maps(vals, registered);
    hashes
        .iter()
        .map(|&hash| {
            let ran = vm.run(hash, &maps)?;
            assert!(
                ran.insns_executed <= prog.len(),
                "retired {} of a {}-insn program",
                ran.insns_executed,
                prog.len()
            );
            Ok(())
        })
        .collect()
}

/// Deterministic sweep: 600 LCG-derived programs, each run over four
/// hashes. The floor keeps the property from going vacuous: at least 100
/// programs reach `exit` on every hash, and every trap occurs.
#[test]
fn lcg_sweep_every_program_exits_or_traps() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let (mut exited, mut traps) = (0usize, [0usize; 14]);
    for _ in 0..600 {
        let len = (lcg() % 120) as usize;
        let seed: Vec<u8> = (0..len).map(|_| lcg() as u8).collect();
        let hashes = [0u32, 1, u32::MAX, lcg()];
        let vals = [lcg() as u64, u64::MAX, 0, (lcg() as u64) << 32];
        let runs = check_total(&seed, &hashes, &vals, lcg() as u8);
        exited += runs.iter().all(Result::is_ok) as usize;
        for e in runs.into_iter().filter_map(Result::err) {
            traps[e.trap as usize] += 1;
        }
    }
    assert!(
        exited >= 100,
        "{exited}/600 programs reached exit on every hash: the property is near-vacuous"
    );
    assert!(
        traps.iter().all(|&n| n > 0),
        "runs per trap, in `Trap`'s order: {traps:?}"
    );
}

/// Random seeds: every program exits or traps, whatever the maps hold.
#[test]
fn every_program_exits_or_traps() {
    for_each_case(256, |g| {
        let seed: Vec<u8> = (0..g.index(120)).map(|_| g.next_u64() as u8).collect();
        let hashes: Vec<u32> = (0..1 + g.index(5)).map(|_| g.next_u64() as u32).collect();
        let vals = [(); GROUPS].map(|()| g.next_u64());
        check_total(&seed, &hashes, &vals, g.next_u64() as u8);
    });
}

/// The program at random group counts under the fuzz harness: the
/// interpreter and the native two-level oracle agree for random group
/// shapes, bitmaps, and hashes.
#[test]
fn grouped_dispatch_matches_native_oracle() {
    for_each_case(256, |g| {
        let bitmaps: Vec<u64> = (0..1 + g.index(5)).map(|_| g.next_u64()).collect();
        let hashes: Vec<u32> = (0..1 + g.index(7)).map(|_| g.next_u64() as u32).collect();
        check_grouped_dispatch(bitmaps.len(), 1 + g.index(64), &bitmaps, &hashes);
    });
}

/// The shipped program at one group loaded into a bare `Vm` against maps of
/// the test's own: build it for `workers`, load the bitmap, and assert the
/// interpreter's `ExecResult` names the worker `ConnDispatcher` picks, its
/// record counting the run as directed (or the fallback, counted as such). (Seeded random cases of the same property, through
/// `ReuseportGroup`, are `program.rs`'s `bytecode_matches_native_oracle`.)
fn check_flat_dispatch(bits: u64, hash: u32, workers: usize) {
    use hermes_core::dispatch::{ConnDispatcher, DispatchOutcome};
    use hermes_core::WorkerBitmap;
    use hermes_ebpf::program::{DIRECTED, FALLBACK, HASH};
    use hermes_ebpf::DispatchProgram;
    let vm = Vm::new(DispatchProgram::build(1, workers));
    let maps = Maps::new(1, workers);
    maps.publish(0, bits);
    (0..workers).for_each(|w| maps.register(w, w));
    let ran = vm.run(hash, &maps).unwrap();
    assert_eq!(ran.return_value, SK_PASS as u64);
    let [directed, fallback, recorded] =
        [DIRECTED, FALLBACK, HASH].map(|o| ran.record[o as usize / 8]);
    assert_eq!((directed + fallback, recorded), (1, hash as u64));
    let picked = (directed == 1).then_some(ran.selected_sock);
    let want = match ConnDispatcher::new(workers).dispatch(&[WorkerBitmap(bits)], hash) {
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
/// bytecode decision (directed flag, flattened worker, and so the group)
/// equals the native `ConnDispatcher` — the §7 two-level
/// composition the scheduler side publishes into, and what the simulator
/// places through.
fn check_grouped_dispatch(groups: usize, group_size: usize, bitmaps: &[u64], hashes: &[u32]) {
    use hermes_core::{ConnDispatcher, WorkerBitmap};
    use hermes_ebpf::ReuseportGroup;
    assert_eq!(bitmaps.len(), groups);
    let g = ReuseportGroup::with_groups(groups, group_size);
    let bitmaps: Vec<WorkerBitmap> = bitmaps.iter().map(|&b| WorkerBitmap(b)).collect();
    let oracle = ConnDispatcher::new(group_size);
    for (i, &b) in bitmaps.iter().enumerate() {
        g.publish(i, b);
    }
    for &h in hashes {
        let want = oracle.dispatch(&bitmaps, h);
        assert_eq!(g.dispatch(h), want, "diverged on {h:#x}");
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
    use hermes_core::{ConnDispatcher, WorkerBitmap};
    use hermes_ebpf::ReuseportGroup;
    const HASHES: u32 = 100_000;
    for (groups, size) in [(2usize, 4usize), (4, 2), (4, 16)] {
        let full = vec![WorkerBitmap::all(size); groups];
        let bytecode = ReuseportGroup::with_groups(groups, size);
        (0..groups).for_each(|g| bytecode.publish(g, full[g]));
        let native = ConnDispatcher::new(size);
        let mut hits = vec![[0u32; 2]; groups * size];
        for h in (0..HASHES).map(|i| i.wrapping_mul(0x9E37_79B9)) {
            hits[native.dispatch(&full, h).worker()][0] += 1;
            hits[bytecode.dispatch(h).worker()][1] += 1;
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
