//! The portable ceiling tier: load-time compilation of clean-analysis
//! programs into a direct-threaded basic-block stream.
//!
//! The checked interpreter ([`crate::vm`]) validates every pc move, stack
//! access and helper argument at run time, and pays fetch/decode per
//! instruction and a map-registry lock per helper call. This module drops
//! the checks the analysis discharged and removes those constant factors,
//! the way a JIT would, while staying in safe Rust:
//!
//! * **Basic blocks.** The program is split at jump targets (it is
//!   loop-free, so blocks form a DAG). Straight-line code inside a block
//!   executes as a tight slice walk with no per-instruction pc arithmetic;
//!   control flow happens only at block terminators, which carry
//!   pre-resolved block indices.
//! * **Superinstruction fusion.** The 15-instruction SWAR popcount
//!   sequence emitted by [`crate::program::emit_popcount`] — Algorithm 2
//!   runs it seven times per dispatch (one count + six rank-select rungs)
//!   — is recognized structurally and fused into a single [`Step`] that
//!   reproduces the exact register effects (including the scratch
//!   register's final value) of the unfused sequence, for *all* inputs.
//! * **Direct helper calls.** `reciprocal_scale` becomes an inline op. Map
//!   helpers whose fd operand is a compile-time constant (per-block
//!   constant propagation) are bound to a *slot*, and those whose fd the
//!   analysis bounded to a contiguous registered range to a *bank*: the
//!   executor resolves slots and banks against the registry **once per
//!   run — or once per batch** — instead of taking a registry lock inside
//!   every helper call. A call site that is neither makes
//!   `CompiledProgram::compile` decline, and the program stays on the
//!   checked interpreter. The bounds checks stay discharged by the
//!   [`crate::analysis`] proofs; socket selection keeps its runtime
//!   `-ENOENT` check because that is part of Algorithm 2's semantics, not
//!   a safety check.
//!
//! Compilation is only ever invoked for programs whose analysis report is
//! clean ([`crate::analysis::AnalysisReport::is_clean`]); the unchecked
//! arithmetic below ([`Alu::eval_unchecked`]) is sound under exactly those
//! proofs. Equivalence with the checked interpreter — return value,
//! selected socket, and retired-instruction count — is enforced by the
//! differential fuzz suite in `tests/soundness.rs`.

use crate::analysis::{AnalysisCtx, AnalysisReport};
use crate::helpers::{
    ENOENT_RET, HELPER_MAP_LOOKUP, HELPER_RECIPROCAL_SCALE, HELPER_SK_SELECT_REUSEPORT,
};
use crate::insn::{Alu, Cond, Insn, Op, Reg, Src, NUM_REGS, STACK_SIZE};
use crate::maps::{ArrayMap, MapKind, MapRef, MapRegistry, SockArrayMap};
use crate::vm::ExecResult;
use std::sync::{Arc, OnceLock};

/// SWAR popcount masks (Bit Twiddling Hacks / Hamming weight). Shared with
/// the translation validator, whose symbolic popcount ladder must build the
/// same constants.
pub(crate) const M1: u64 = 0x5555_5555_5555_5555;
pub(crate) const M2: u64 = 0x3333_3333_3333_3333;
pub(crate) const M3: u64 = 0x0f0f_0f0f_0f0f_0f0f;
pub(crate) const M4: u64 = 0x0101_0101_0101_0101;

/// Length of the fused popcount window, in source instructions.
pub(crate) const POPCOUNT_LEN: usize = 15;

/// Maximum constant-fd map slots pre-resolved per program. Algorithm 2
/// uses two (selection map + sockarray); the cap only bounds the resolved
/// array on the stack — a program with more is not compiled.
const MAX_CONST_SLOTS: usize = 8;

/// Maximum pre-resolved fd banks per program (the grouped program needs
/// two: the selmap bank and the sockarray bank).
const MAX_BANKS: usize = 4;

/// Maximum fds per bank — bounds the resolved table, not correctness; a
/// program with a wider proven range is not compiled. 64 covers every
/// group-count the bitmap dispatch plane can shard into.
const MAX_BANK_LEN: u64 = 64;

/// One compiled operation. Monomorphic where it pays: `Mov` is the most
/// common op in the dispatch programs, and helper calls are resolved to
/// direct code at compile time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step {
    MovImm {
        dst: u8,
        imm: u64,
    },
    MovReg {
        dst: u8,
        src: u8,
    },
    AluImm {
        op: Alu,
        dst: u8,
        imm: u64,
    },
    AluReg {
        op: Alu,
        dst: u8,
        src: u8,
    },
    /// Store to a precomputed stack base (offset proven in frame).
    StxStack {
        base: u16,
        src: u8,
    },
    /// Load from a precomputed stack base.
    LdxStack {
        dst: u8,
        base: u16,
    },
    /// Fused SWAR popcount: `x = popcount(x)`, `scratch` set to the same
    /// value the unfused sequence leaves in it. Retires 15 instructions.
    Popcount {
        x: u8,
        scratch: u8,
    },
    /// `reciprocal_scale(r1, r2)` inlined; clobbers R1–R5 like any call.
    ReciprocalScale,
    /// `bpf_map_lookup_elem` with a compile-time-constant array fd: reads
    /// through pre-resolved slot `slot`, key from R2 (proven in bounds).
    LookupConst {
        slot: u8,
    },
    /// `bpf_map_lookup_elem` whose fd is runtime-computed but proven to
    /// lie in a contiguous registered array-map range: indexes
    /// pre-resolved bank `bank` at `R1 - base` with no registry access.
    LookupBank {
        bank: u8,
        base: u32,
    },
    /// `bpf_sk_select_reuseport` with a constant sockarray fd.
    SkSelectConst {
        slot: u8,
    },
    /// `bpf_sk_select_reuseport` with a bounded dynamic sockarray fd:
    /// pre-resolved bank indexed at `R1 - base`.
    SkSelectBank {
        bank: u8,
        base: u32,
    },
}

/// How a basic block ends. Targets are *block* indices, resolved at
/// compile time; the program is loop-free so targets always point forward.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Terminator {
    /// Unconditional transfer (a `ja`, or a fall-through into the next
    /// block when a jump target splits straight-line code).
    Jump { target: u32 },
    /// Conditional transfer (`jmp`): both edges pre-resolved.
    Branch {
        cond: Cond,
        dst: u8,
        src: BrSrc,
        taken: u32,
        fall: u32,
    },
    /// `exit`.
    Exit,
}

/// Branch source operand, immediates pre-converted.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BrSrc {
    Reg(u8),
    Imm(u64),
}

/// One basic block: a straight-line step slice plus its terminator.
#[derive(Clone, Debug)]
pub(crate) struct Block {
    pub(crate) steps: Box<[Step]>,
    pub(crate) term: Terminator,
    /// Source instructions retired by executing this block (fused steps
    /// count their whole window; the terminator counts iff it is a real
    /// instruction rather than a fall-through edge). Identical on both
    /// branch edges, so it is a per-block constant.
    pub(crate) retired: u32,
}

/// A contiguous fd range a helper call site was proven to stay within —
/// the analysis' [`crate::analysis::FdRange`] after compile-time
/// validation that *every* fd in the interval is bound with the expected
/// kind (analysis only checks tnum-possible candidates; the bank is
/// indexed by subtraction, so the whole interval must resolve).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BankSpec {
    pub(crate) kind: MapKind,
    pub(crate) base: u32,
    pub(crate) len: u32,
}

/// A clean-analysis program lowered to basic blocks (see module docs).
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    pub(crate) blocks: Box<[Block]>,
    /// Constant map fds discovered at compile time, resolved once per
    /// run/batch into [`ResolvedMaps`].
    pub(crate) const_fds: Box<[(u32, MapKind)]>,
    /// Bounded dynamic-fd banks (grouped program selmap/sockarray ranges).
    pub(crate) banks: Box<[BankSpec]>,
    /// Bank resolution cache, keyed by the frozen fd table it was built
    /// against. Holding the table `Arc` pins its address, so the identity
    /// check cannot alias a recycled allocation; a different frozen
    /// registry gets a fresh, uncached resolution.
    pub(crate) bank_cache: BankCache,
    /// Whole-resolution cache, keyed the same way as `bank_cache`: once
    /// the registry freezes, the per-run [`ResolvedMaps`] (slot `Arc`
    /// clones + bank attach) collapses to one refcount bump. This is what
    /// makes the *single*-dispatch compiled/jit path as cheap as the
    /// batched one — see the grouped-batch investigation in
    /// EXPERIMENTS.md.
    pub(crate) slot_cache: SlotCache,
    pub(crate) fused_popcounts: usize,
}

/// One cached bank resolution: the frozen fd table it was built against
/// (the identity key) plus the banks resolved from it.
pub(crate) type BankCache = OnceLock<(Arc<[MapRef]>, Arc<[ResolvedBank]>)>;

/// One cached full resolution: frozen fd table identity plus the shared
/// [`ResolvedMaps`] built against it.
pub(crate) type SlotCache = OnceLock<(Arc<[MapRef]>, Arc<ResolvedMaps>)>;

/// Per-run (or per-batch) resolution of the constant-fd slots: the Arc
/// clones replace one registry lock per helper call with one per slot per
/// run. Banked programs additionally carry their pre-resolved fd banks —
/// one refcount bump per run once the cache is warm.
#[derive(Debug)]
pub(crate) struct ResolvedMaps {
    slots: [ResolvedSlot; MAX_CONST_SLOTS],
    banks: Option<Arc<[ResolvedBank]>>,
}

#[derive(Debug)]
enum ResolvedSlot {
    Missing,
    Array(Arc<ArrayMap>),
    Sock(Arc<SockArrayMap>),
}

/// One resolved fd bank: every map in the proven range, densely indexed by
/// `fd - base`.
#[derive(Debug)]
pub(crate) enum ResolvedBank {
    Arrays(Box<[Arc<ArrayMap>]>),
    Socks(Box<[Arc<SockArrayMap>]>),
}

/// Match the exact instruction window `emit_popcount` produces, returning
/// `(x, scratch)` on success. Structural — any two distinct registers —
/// so all seven popcounts of Algorithm 2 fuse, as do fuzz-generated ones.
fn match_popcount(win: &[Insn]) -> Option<(u8, u8)> {
    if win.len() < POPCOUNT_LEN {
        return None;
    }
    let (s, x) = match win[0].0 {
        Op::Alu {
            op: Alu::Mov,
            dst,
            src: Src::Reg(r),
        } if dst != r => (dst, r),
        _ => return None,
    };
    let template: [(Alu, Reg, Src); POPCOUNT_LEN - 1] = [
        (Alu::Rsh, s, Src::Imm(1)),
        (Alu::And, s, Src::Imm(M1 as i64)),
        (Alu::Sub, x, Src::Reg(s)),
        (Alu::Mov, s, Src::Reg(x)),
        (Alu::Rsh, s, Src::Imm(2)),
        (Alu::And, s, Src::Imm(M2 as i64)),
        (Alu::And, x, Src::Imm(M2 as i64)),
        (Alu::Add, x, Src::Reg(s)),
        (Alu::Mov, s, Src::Reg(x)),
        (Alu::Rsh, s, Src::Imm(4)),
        (Alu::Add, x, Src::Reg(s)),
        (Alu::And, x, Src::Imm(M3 as i64)),
        (Alu::Mul, x, Src::Imm(M4 as i64)),
        (Alu::Rsh, x, Src::Imm(56)),
    ];
    for (i, &(op, dst, src)) in template.iter().enumerate() {
        match win[i + 1].0 {
            Op::Alu {
                op: o,
                dst: d,
                src: sr,
            } if o == op && d == dst && sr == src => {}
            _ => return None,
        }
    }
    Some((x.0, s.0))
}

/// Per-block constant propagation state: which registers hold a
/// compile-time-known value. Only consulted to classify helper fd
/// operands; reset at block entry (no cross-edge dataflow needed — the
/// dispatch programs materialize fds immediately before each call).
struct Consts([Option<u64>; NUM_REGS]);

impl Consts {
    fn new() -> Self {
        // R10 is the architectural frame pointer, constant by definition.
        let mut k = [None; NUM_REGS];
        k[Reg::R10.idx()] = Some(STACK_SIZE as u64);
        Self(k)
    }

    fn apply_alu(&mut self, op: Alu, dst: Reg, src: Src) {
        let s = match src {
            Src::Imm(i) => Some(i as u64),
            Src::Reg(r) => self.0[r.idx()],
        };
        self.0[dst.idx()] = match (op, self.0[dst.idx()], s) {
            (Alu::Mov, _, v) => v,
            // `eval` (the totalized semantics) is the right folder here:
            // constness tracking must never panic, and for clean programs
            // the guards it adds are unreachable anyway.
            (op, Some(d), Some(v)) => Some(op.eval(d, v)),
            _ => None,
        };
    }

    fn clobber_call(&mut self) {
        // R0 takes the (unknown) return value; the ABI then zeroes R1–R5,
        // which *is* a known constant.
        self.0[0] = None;
        for r in 1..=5 {
            self.0[r] = Some(0);
        }
    }
}

impl CompiledProgram {
    /// Lower a clean-analysis program. `ctx` is the map layout the analysis
    /// ran against; it classifies constant fds by kind so the right
    /// pre-resolved access path is emitted. `report` supplies the
    /// per-call-site fd intervals the analysis proved, turning bounded
    /// dynamic fds (the grouped program's per-group map banks) into
    /// pre-resolved bank indexes. `None` when some map helper's fd operand
    /// is neither (see [`Self::compile_call`]): there is no compiled step
    /// that consults the registry per call.
    ///
    /// Panics on malformed input (out-of-range jump targets, code past
    /// `exit` that is not a jump target) — impossible for programs
    /// [`crate::analysis::analyze`] admitted, which is the only way this
    /// is reached.
    pub(crate) fn compile(
        prog: &[Insn],
        ctx: &AnalysisCtx,
        report: &AnalysisReport,
    ) -> Option<Self> {
        assert!(!prog.is_empty(), "admitted programs are non-empty");
        // Pass 1: find block leaders — entry, every jump target, and every
        // instruction following a control transfer.
        let mut leader = vec![false; prog.len()];
        leader[0] = true;
        for (at, insn) in prog.iter().enumerate() {
            match insn.0 {
                Op::Ja { off } => {
                    leader[(at as i64 + 1 + off as i64) as usize] = true;
                    if at + 1 < prog.len() {
                        leader[at + 1] = true;
                    }
                }
                Op::Jmp { off, .. } => {
                    leader[(at as i64 + 1 + off as i64) as usize] = true;
                    if at + 1 < prog.len() {
                        leader[at + 1] = true;
                    }
                }
                Op::Exit if at + 1 < prog.len() => {
                    leader[at + 1] = true;
                }
                _ => {}
            }
        }
        // Insn index → block index, for terminator resolution.
        let mut block_of = vec![u32::MAX; prog.len()];
        let mut starts = Vec::new();
        for (at, &l) in leader.iter().enumerate() {
            if l {
                starts.push(at);
            }
            block_of[at] = (starts.len() - 1) as u32;
        }

        // Pass 2: compile each block.
        let mut const_fds: Vec<(u32, MapKind)> = Vec::new();
        let mut banks: Vec<BankSpec> = Vec::new();
        let mut fused_popcounts = 0usize;
        let mut blocks = Vec::with_capacity(starts.len());
        for (b, &start) in starts.iter().enumerate() {
            let end = starts.get(b + 1).copied().unwrap_or(prog.len());
            let mut konst = Consts::new();
            let mut steps = Vec::new();
            let mut retired = 0u32;
            let mut at = start;
            let mut term = None;
            while at < end {
                let insn = prog[at];
                // Try superinstruction fusion first: the window cannot
                // cross `end`, so no jump target can land inside it.
                if let Some((x, s)) = match_popcount(&prog[at..end.min(at + POPCOUNT_LEN)]) {
                    steps.push(Step::Popcount { x, scratch: s });
                    retired += POPCOUNT_LEN as u32;
                    konst.0[x as usize] = None;
                    konst.0[s as usize] = None;
                    fused_popcounts += 1;
                    at += POPCOUNT_LEN;
                    continue;
                }
                match insn.0 {
                    Op::Alu { op, dst, src } => {
                        steps.push(match (op, src) {
                            (Alu::Mov, Src::Imm(i)) => Step::MovImm {
                                dst: dst.0,
                                imm: i as u64,
                            },
                            (Alu::Mov, Src::Reg(r)) => Step::MovReg {
                                dst: dst.0,
                                src: r.0,
                            },
                            (op, Src::Imm(i)) => Step::AluImm {
                                op,
                                dst: dst.0,
                                imm: i as u64,
                            },
                            (op, Src::Reg(r)) => Step::AluReg {
                                op,
                                dst: dst.0,
                                src: r.0,
                            },
                        });
                        konst.apply_alu(op, dst, src);
                        retired += 1;
                    }
                    Op::StxStack { off, src } => {
                        steps.push(Step::StxStack {
                            base: (STACK_SIZE as i64 + off as i64) as u16,
                            src: src.0,
                        });
                        retired += 1;
                    }
                    Op::LdxStack { dst, off } => {
                        steps.push(Step::LdxStack {
                            dst: dst.0,
                            base: (STACK_SIZE as i64 + off as i64) as u16,
                        });
                        konst.0[dst.idx()] = None;
                        retired += 1;
                    }
                    Op::Call { helper } => {
                        steps.push(Self::compile_call(
                            at,
                            helper,
                            &konst,
                            ctx,
                            report,
                            &mut const_fds,
                            &mut banks,
                        )?);
                        konst.clobber_call();
                        retired += 1;
                    }
                    Op::Ja { off } => {
                        term = Some(Terminator::Jump {
                            target: block_of[(at as i64 + 1 + off as i64) as usize],
                        });
                        retired += 1;
                    }
                    Op::Jmp {
                        cond,
                        dst,
                        src,
                        off,
                    } => {
                        term = Some(Terminator::Branch {
                            cond,
                            dst: dst.0,
                            src: match src {
                                Src::Reg(r) => BrSrc::Reg(r.0),
                                Src::Imm(i) => BrSrc::Imm(i as u64),
                            },
                            taken: block_of[(at as i64 + 1 + off as i64) as usize],
                            fall: block_of[at + 1],
                        });
                        retired += 1;
                    }
                    Op::Exit => {
                        term = Some(Terminator::Exit);
                        retired += 1;
                    }
                }
                at += 1;
            }
            // No explicit terminator: the block was cut by a jump target
            // splitting straight-line code — fall through (retires 0).
            let term = term.unwrap_or_else(|| Terminator::Jump {
                target: block_of[end],
            });
            blocks.push(Block {
                steps: steps.into_boxed_slice(),
                term,
                retired,
            });
        }
        Some(Self {
            blocks: blocks.into_boxed_slice(),
            const_fds: const_fds.into_boxed_slice(),
            banks: banks.into_boxed_slice(),
            bank_cache: OnceLock::new(),
            slot_cache: OnceLock::new(),
            fused_popcounts,
        })
    }

    /// Resolve one helper call site into a direct step: a constant-fd slot
    /// when block-local constant propagation pins the fd, else a
    /// pre-resolved bank when the analysis proved the fd stays inside a
    /// contiguous registered range of the right kind, else `None`.
    #[allow(clippy::too_many_arguments)]
    fn compile_call(
        at: usize,
        helper: u32,
        konst: &Consts,
        ctx: &AnalysisCtx,
        report: &AnalysisReport,
        const_fds: &mut Vec<(u32, MapKind)>,
        banks: &mut Vec<BankSpec>,
    ) -> Option<Step> {
        let slot_for = |const_fds: &mut Vec<(u32, MapKind)>, fd: u64, want: MapKind| {
            let bound = ctx.fd_layout(fd)?;
            if bound.0 != want {
                return None;
            }
            let fd = fd as u32;
            if let Some(i) = const_fds.iter().position(|&e| e == (fd, want)) {
                return Some(i as u8);
            }
            if const_fds.len() >= MAX_CONST_SLOTS {
                return None;
            }
            const_fds.push((fd, want));
            Some((const_fds.len() - 1) as u8)
        };
        // The bounded-dynamic-fd step: the analysis proved the fd operand
        // lies in `[lo, hi]`; the bank is sound only if every fd in that
        // interval (the analysis skips tnum-excluded values, the runtime
        // subtraction does not) is bound with the expected kind.
        let bank_for = |banks: &mut Vec<BankSpec>, want: MapKind| {
            let range = report.fd_range(at)?;
            if range.kind != want || range.hi - range.lo + 1 > MAX_BANK_LEN {
                return None;
            }
            for fd in range.lo..=range.hi {
                if ctx.fd_layout(fd).map(|(k, _)| k) != Some(want) {
                    return None;
                }
            }
            let spec = BankSpec {
                kind: want,
                base: range.lo as u32,
                len: (range.hi - range.lo + 1) as u32,
            };
            if let Some(i) = banks.iter().position(|&b| b == spec) {
                return Some((i as u8, spec.base));
            }
            if banks.len() >= MAX_BANKS {
                return None;
            }
            banks.push(spec);
            Some(((banks.len() - 1) as u8, spec.base))
        };
        match helper {
            HELPER_RECIPROCAL_SCALE => Some(Step::ReciprocalScale),
            HELPER_MAP_LOOKUP => konst.0[1]
                .and_then(|fd| slot_for(const_fds, fd, MapKind::Array))
                .map(|slot| Step::LookupConst { slot })
                .or_else(|| {
                    bank_for(banks, MapKind::Array)
                        .map(|(bank, base)| Step::LookupBank { bank, base })
                }),
            HELPER_SK_SELECT_REUSEPORT => konst.0[1]
                .and_then(|fd| slot_for(const_fds, fd, MapKind::SockArray))
                .map(|slot| Step::SkSelectConst { slot })
                .or_else(|| {
                    bank_for(banks, MapKind::SockArray)
                        .map(|(bank, base)| Step::SkSelectBank { bank, base })
                }),
            other => unreachable!("analysis admits only known helpers, got {other}"),
        }
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of SWAR popcount windows fused into superinstructions
    /// (Algorithm 2 dispatch has seven).
    pub fn fused_popcounts(&self) -> usize {
        self.fused_popcounts
    }

    /// Constant map fds bound to pre-resolved slots.
    pub fn const_map_fds(&self) -> impl Iterator<Item = u32> + '_ {
        self.const_fds.iter().map(|&(fd, _)| fd)
    }

    /// Number of bounded dynamic-fd banks compiled in.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Resolve the constant-fd slots against `maps`. Called once per run
    /// by [`crate::vm::Vm::run`], and once per *batch* by
    /// [`crate::vm::Vm::run_batch`]. Once the registry is frozen (the
    /// steady state for every dispatch plane), the whole resolution is
    /// cached against the frozen table's identity and a run costs one
    /// `Arc` refcount bump; an unfrozen or mismatched registry falls back
    /// to a fresh build, exactly as before.
    pub(crate) fn resolve(&self, maps: &MapRegistry) -> Arc<ResolvedMaps> {
        if maps.is_frozen() {
            let table = Arc::clone(maps.frozen_table());
            let (cached_table, cached) = self
                .slot_cache
                .get_or_init(|| (table.clone(), Arc::new(self.resolve_fresh(maps))));
            if Arc::ptr_eq(cached_table, &table) {
                return Arc::clone(cached);
            }
        }
        Arc::new(self.resolve_fresh(maps))
    }

    /// Build a [`ResolvedMaps`] from scratch: one registry access per
    /// constant-fd slot plus the bank attach. The flight-recorder counter
    /// proves cache behavior: a warm frozen-registry dispatch loop holds
    /// `vm.resolve_builds` at one build total, not one per run.
    fn resolve_fresh(&self, maps: &MapRegistry) -> ResolvedMaps {
        hermes_trace::trace_count!(hermes_trace::CounterId::VmResolveBuilds);
        let mut slots: [ResolvedSlot; MAX_CONST_SLOTS] =
            std::array::from_fn(|_| ResolvedSlot::Missing);
        for (i, &(fd, kind)) in self.const_fds.iter().enumerate() {
            slots[i] = match kind {
                MapKind::Array => maps
                    .array(fd)
                    .map(ResolvedSlot::Array)
                    .unwrap_or(ResolvedSlot::Missing),
                MapKind::SockArray => maps
                    .sockarray(fd)
                    .map(ResolvedSlot::Sock)
                    .unwrap_or(ResolvedSlot::Missing),
            };
        }
        let banks = (!self.banks.is_empty()).then(|| self.resolve_banks(maps));
        ResolvedMaps { slots, banks }
    }

    /// Pre-resolve every bank against `maps`, reusing the cached
    /// resolution when `maps` is frozen and matches the cache. A banked
    /// program forces the freeze: banks exist precisely so the hot path
    /// never consults the locked registry.
    pub(crate) fn resolve_banks(&self, maps: &MapRegistry) -> Arc<[ResolvedBank]> {
        let build = || -> Arc<[ResolvedBank]> {
            self.banks
                .iter()
                .map(|spec| {
                    let fds = spec.base..spec.base + spec.len;
                    match spec.kind {
                        MapKind::Array => ResolvedBank::Arrays(
                            fds.map(|fd| maps.array(fd).expect("compile proved the bank fd bound"))
                                .collect(),
                        ),
                        MapKind::SockArray => ResolvedBank::Socks(
                            fds.map(|fd| {
                                maps.sockarray(fd)
                                    .expect("compile proved the bank fd bound")
                            })
                            .collect(),
                        ),
                    }
                })
                .collect()
        };
        let table = Arc::clone(maps.frozen_table());
        let (cached_table, cached) = self.bank_cache.get_or_init(|| (table.clone(), build()));
        if Arc::ptr_eq(cached_table, &table) {
            Arc::clone(cached)
        } else {
            // A different registry than the one cached: resolve fresh,
            // uncached (only differential tests run one program against
            // several registries).
            build()
        }
    }

    /// Execute against pre-resolved map slots. Observationally identical
    /// to the checked interpreter for clean programs: same return value,
    /// same selected socket, same retired-instruction count.
    pub(crate) fn exec(&self, ctx_hash: u32, resolved: &ResolvedMaps) -> ExecResult {
        let mut regs = [0u64; NUM_REGS];
        let mut stack = [0u8; STACK_SIZE];
        regs[Reg::R1.idx()] = ctx_hash as u64;
        regs[Reg::R10.idx()] = STACK_SIZE as u64;
        let mut selected: Option<usize> = None;
        let mut executed = 0usize;
        let mut bi = 0usize;
        loop {
            let block = &self.blocks[bi];
            executed += block.retired as usize;
            for step in block.steps.iter() {
                match *step {
                    Step::MovImm { dst, imm } => regs[dst as usize] = imm,
                    Step::MovReg { dst, src } => regs[dst as usize] = regs[src as usize],
                    Step::AluImm { op, dst, imm } => {
                        regs[dst as usize] = op.eval_unchecked(regs[dst as usize], imm)
                    }
                    Step::AluReg { op, dst, src } => {
                        regs[dst as usize] =
                            op.eval_unchecked(regs[dst as usize], regs[src as usize])
                    }
                    Step::StxStack { base, src } => {
                        let base = base as usize;
                        stack[base..base + 8].copy_from_slice(&regs[src as usize].to_le_bytes());
                    }
                    Step::LdxStack { dst, base } => {
                        let base = base as usize;
                        let mut buf = [0u8; 8];
                        buf.copy_from_slice(&stack[base..base + 8]);
                        regs[dst as usize] = u64::from_le_bytes(buf);
                    }
                    Step::Popcount { x, scratch } => {
                        // Exact register-effect replay of the 15-op SWAR
                        // window, wrapping ops included, so fusion is sound
                        // for all inputs — not just genuine popcounts.
                        let v = regs[x as usize];
                        let t = v.wrapping_sub((v >> 1) & M1);
                        let t2 = (t & M2).wrapping_add((t >> 2) & M2);
                        let s = t2 >> 4;
                        regs[x as usize] = (t2.wrapping_add(s) & M3).wrapping_mul(M4) >> 56;
                        regs[scratch as usize] = s;
                    }
                    Step::ReciprocalScale => {
                        let val = regs[1] as u32;
                        let range = regs[2] as u32;
                        regs[0] = if range == 0 {
                            0
                        } else {
                            (val as u64 * range as u64) >> 32
                        };
                        regs[1..=5].fill(0);
                    }
                    Step::LookupConst { slot } => {
                        let ResolvedSlot::Array(m) = &resolved.slots[slot as usize] else {
                            unreachable!("analysis proved the array fd bound")
                        };
                        regs[0] = m.lookup_fast(regs[2] as usize);
                        regs[1..=5].fill(0);
                    }
                    Step::LookupBank { bank, base } => {
                        let banks = resolved.banks.as_ref().expect("banked program resolved");
                        let ResolvedBank::Arrays(bank) = &banks[bank as usize] else {
                            unreachable!("compile proved the bank kind")
                        };
                        // R1 proven in [base, base+len) by the analysis.
                        let idx = (regs[1] - base as u64) as usize;
                        regs[0] = bank[idx].lookup_fast(regs[2] as usize);
                        regs[1..=5].fill(0);
                    }
                    Step::SkSelectConst { slot } => {
                        let ResolvedSlot::Sock(m) = &resolved.slots[slot as usize] else {
                            unreachable!("analysis proved the sockarray fd bound")
                        };
                        regs[0] = match m.lookup(regs[2] as usize) {
                            Some(sock) => {
                                selected = Some(sock);
                                0
                            }
                            None => ENOENT_RET,
                        };
                        regs[1..=5].fill(0);
                    }
                    Step::SkSelectBank { bank, base } => {
                        let banks = resolved.banks.as_ref().expect("banked program resolved");
                        let ResolvedBank::Socks(bank) = &banks[bank as usize] else {
                            unreachable!("compile proved the bank kind")
                        };
                        let idx = (regs[1] - base as u64) as usize;
                        regs[0] = match bank[idx].lookup(regs[2] as usize) {
                            Some(sock) => {
                                selected = Some(sock);
                                0
                            }
                            None => ENOENT_RET,
                        };
                        regs[1..=5].fill(0);
                    }
                }
            }
            match block.term {
                Terminator::Jump { target } => bi = target as usize,
                Terminator::Branch {
                    cond,
                    dst,
                    src,
                    taken,
                    fall,
                } => {
                    let s = match src {
                        BrSrc::Reg(r) => regs[r as usize],
                        BrSrc::Imm(v) => v,
                    };
                    bi = if cond.eval(regs[dst as usize], s) {
                        taken as usize
                    } else {
                        fall as usize
                    };
                }
                Terminator::Exit => {
                    return ExecResult {
                        return_value: regs[Reg::R0.idx()],
                        selected_sock: selected,
                        insns_executed: executed,
                    };
                }
            }
        }
    }

    /// Single execution: resolve the constant-fd slots, then run.
    pub(crate) fn run(&self, ctx_hash: u32, maps: &MapRegistry) -> ExecResult {
        self.exec(ctx_hash, &self.resolve(maps))
    }

    /// Execute *without* a [`crate::validate::ValidationCert`]. Test-only
    /// escape hatch for the mutation-kill harness, which must run seeded
    /// miscompilations to demonstrate how rarely they diverge under
    /// differential fuzzing. Production execution goes through
    /// [`crate::vm::Vm::run`], which only reaches the compiled tier with a
    /// cert in hand.
    #[doc(hidden)]
    pub fn run_uncertified(&self, ctx_hash: u32, maps: &MapRegistry) -> ExecResult {
        self.run(ctx_hash, maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::maps::MapRef;
    use crate::program::{emit_popcount, DispatchProgram};
    use crate::vm::{ExecTier, Vm};
    use hermes_core::bitmap::WorkerBitmap;

    /// `prog` loaded, and compiled a second time on its own. The checked
    /// interpreter inside the `Vm` is what every test here compares with.
    fn compiled(prog: Vec<Insn>, ctx: &AnalysisCtx) -> (Vm, CompiledProgram) {
        let vm = Vm::load_analyzed(prog, ctx).expect("clean");
        let cp = CompiledProgram::compile(vm.program(), ctx, vm.analysis()).expect("compiles");
        (vm, cp)
    }

    fn checked(vm: &Vm, hash: u32, maps: &MapRegistry) -> ExecResult {
        vm.run_tier(ExecTier::Checked, hash, maps).unwrap()
    }

    #[test]
    fn popcount_window_fuses_and_matches_interpreter() {
        let mut a = Assembler::new();
        a.mov(Reg::R6, Reg::R1);
        emit_popcount(&mut a, Reg::R6, Reg::R3);
        // Return popcount ^ scratch so the fused scratch value is observed.
        a.mov(Reg::R0, Reg::R6);
        a.alu(Alu::Xor, Reg::R0, Reg::R3);
        a.exit();
        let prog = a.finish();
        let ctx = AnalysisCtx::new();
        let (vm, cp) = compiled(prog, &ctx);
        assert_eq!(cp.fused_popcounts(), 1);
        let maps = MapRegistry::new();
        for hash in [0u32, 1, 0b1011, 0xdead_beef, u32::MAX] {
            assert_eq!(cp.run(hash, &maps), checked(&vm, hash, &maps));
        }
    }

    #[test]
    fn dispatch_program_fuses_all_seven_popcounts() {
        let ctx = AnalysisCtx::new()
            .bind(0, MapKind::Array, 1)
            .bind(1, MapKind::SockArray, 64);
        let (_, cp) = compiled(DispatchProgram::build(0, 1, 64), &ctx);
        assert_eq!(cp.fused_popcounts(), 7);
        // Both map fds become pre-resolved constant slots.
        let fds: Vec<u32> = cp.const_map_fds().collect();
        assert_eq!(fds, vec![0, 1]);
        assert_eq!(cp.bank_count(), 0);
    }

    #[test]
    fn compiled_dispatch_matches_checked_interpreter() {
        let maps = MapRegistry::new();
        let sel = Arc::new(ArrayMap::new(1));
        let socks = Arc::new(SockArrayMap::new(16));
        let sel_fd = maps.register(MapRef::Array(Arc::clone(&sel)));
        let sock_fd = maps.register(MapRef::SockArray(Arc::clone(&socks)));
        for w in 0..16 {
            socks.register(w, w);
        }
        sel.update(0, WorkerBitmap::from_workers([1, 4, 9, 13]).0);
        let ctx = AnalysisCtx::from_registry(&maps);
        let (vm, cp) = compiled(DispatchProgram::build(sel_fd, sock_fd, 16), &ctx);
        let resolved = cp.resolve(&maps);
        for i in 0..1_000u32 {
            let h = i.wrapping_mul(0x9E37_79B9);
            assert_eq!(
                cp.exec(h, &resolved),
                checked(&vm, h, &maps),
                "divergence at hash {h:#x}"
            );
        }
    }

    #[test]
    fn bounded_dynamic_fd_compiles_to_bank() {
        // fd = hash & 3 — runtime-computed, but provably in [0, 3]; all
        // four fds are registered arrays, so the lookup compiles to a
        // pre-resolved bank index instead of a registry lock.
        let mut a = Assembler::new();
        a.mov(Reg::R6, Reg::R1);
        a.alu_imm(Alu::And, Reg::R6, 3);
        a.mov(Reg::R1, Reg::R6);
        a.mov_imm(Reg::R2, 0);
        a.call(crate::helpers::HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();

        let maps = MapRegistry::new();
        for fd in 0..4u64 {
            let m = Arc::new(ArrayMap::new(1));
            m.update(0, 100 + fd);
            maps.register(MapRef::Array(m));
        }
        let ctx = AnalysisCtx::from_registry(&maps);
        let (vm, cp) = compiled(prog, &ctx);
        assert_eq!(cp.bank_count(), 1);
        for hash in 0..16u32 {
            let got = cp.run(hash, &maps);
            assert_eq!(got.return_value, 100 + (hash & 3) as u64);
            assert_eq!(got, checked(&vm, hash, &maps));
        }
        // The bank cache is keyed to this registry's frozen table; a
        // different (also frozen) registry must resolve fresh, not reuse it.
        let other = MapRegistry::new();
        for fd in 0..4u64 {
            let m = Arc::new(ArrayMap::new(1));
            m.update(0, 200 + fd);
            other.register(MapRef::Array(m));
        }
        other.freeze();
        assert_eq!(cp.run(2, &other).return_value, 202);
        assert_eq!(cp.run(2, &maps).return_value, 102);
    }

    #[test]
    fn unbankable_dynamic_fd_stays_on_the_checked_tier() {
        // fd = hash & 2 is 0 or 2, both arrays, so the program is admitted
        // with a clean report; but fd 1, inside the interval, is a
        // sockarray, so the fd is neither a constant nor a bank index.
        // Nothing compiled consults the registry per call: compile declines.
        let mut a = Assembler::new();
        a.alu_imm(Alu::And, Reg::R1, 2);
        a.mov_imm(Reg::R2, 0);
        a.call(crate::helpers::HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();

        let maps = MapRegistry::new();
        for fd in 0..3u64 {
            if fd == 1 {
                maps.register(MapRef::SockArray(Arc::new(SockArrayMap::new(1))));
            } else {
                let m = Arc::new(ArrayMap::new(1));
                m.update(0, 100 + fd);
                maps.register(MapRef::Array(m));
            }
        }
        let ctx = AnalysisCtx::from_registry(&maps);
        let vm = Vm::load_analyzed(prog, &ctx).expect("admitted");
        assert!(vm.analysis().is_clean());
        assert!(CompiledProgram::compile(vm.program(), &ctx, vm.analysis()).is_none());
        assert_eq!(vm.tier(), ExecTier::Checked);
        assert!(vm.validation_error().is_none(), "declined, not demoted");
        assert!(vm.prepare_jit(&maps).is_none());
        for hash in 0..8u32 {
            let got = vm.run(hash, &maps).unwrap();
            assert_eq!(got.return_value, 100 + (hash & 2) as u64);
            assert_eq!(got, checked(&vm, hash, &maps));
        }
    }

    #[test]
    fn fallthrough_blocks_retire_correct_counts() {
        // A jump target splitting straight-line code produces a
        // fall-through terminator that must retire nothing extra.
        let mut a = Assembler::new();
        let join = a.label();
        a.mov_imm(Reg::R0, 1);
        a.jmp_imm(Cond::Eq, Reg::R1, 7, join);
        a.alu_imm(Alu::Add, Reg::R0, 10);
        a.bind(join);
        a.alu_imm(Alu::Add, Reg::R0, 100);
        a.exit();
        let prog = a.finish();
        let ctx = AnalysisCtx::new();
        let (vm, cp) = compiled(prog, &ctx);
        let maps = MapRegistry::new();
        for hash in [7u32, 8] {
            assert_eq!(cp.run(hash, &maps), checked(&vm, hash, &maps));
        }
    }
}
