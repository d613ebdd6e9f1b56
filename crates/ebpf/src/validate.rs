//! Translation validation for the compiled dispatch tier.
//!
//! [`CompiledProgram`] (the direct-threaded tier) was, until this module,
//! admitted on the strength of differential fuzzing alone. This pass
//! upgrades that to a proof: for every compiled basic block it runs two
//! symbolic machines in lockstep — a *reference* machine executing the
//! source instructions under the checked VM's semantics, and a *compiled*
//! machine executing the lowered [`Step`]s — and demands that they end the
//! block in bit-identical states:
//!
//! * **Register effects** — all eleven registers hold structurally equal
//!   symbolic expressions. Expressions are hash-consed, so structural
//!   equality is pointer equality on interned ids and equal ids denote the
//!   same 64-bit function of the block's entry state.
//! * **Stack effects** — the sets of 8-byte frame writes agree base-by-base
//!   and value-by-value; overlapping accesses are rejected outright rather
//!   than reasoned about.
//! * **Helper effects** — map lookups and socket selections are ordered
//!   observable events. Both machines must emit the same sequence, with the
//!   same map *observable* (which fd is actually read) and the same key.
//!   This is where slot/bank resolution is proven: a [`Step::LookupConst`]
//!   records the pre-resolved slot's fd as its observable, so the proof
//!   obliges the interpreter's fd operand to be exactly that constant; a
//!   [`Step::LookupBank`] records `R1` itself, licensed by the analysis'
//!   [`FdRange`] proof that `bank[R1 - base]` resolves fd `R1`.
//! * **Retire counts** — the block's `retired` constant equals the number
//!   of source instructions the block covers, so `insns_executed` cannot
//!   drift between tiers.
//! * **Popcount fusion** — a fused [`Step::Popcount`] is proven against the
//!   *unfused* ladder: the validator symbolically executes the 15 source
//!   instructions one by one and the fused closed form side by side. The
//!   SWAR closed form builds exactly the expression tree the ladder builds,
//!   so a genuine window proves itself structurally and anything else
//!   (an off-by-one window, swapped registers) diverges. No pattern
//!   matching against the emitter's template is involved.
//!
//! **The lattice.** Symbolic values are annotated with the analysis'
//! [`Tnum`] domain (the same known-bits lattice `analysis.rs` runs), which
//! discharges the checked-vs-unchecked semantics gap for constant-bounded
//! operands: a shift is only interned unchecked if its amount is provably
//! `< 64`, a division only if its divisor is provably nonzero. Where the
//! local lattice cannot see the bound (e.g. a shift amount computed in an
//! earlier block), the obligation is discharged by the analysis facts that
//! already license unchecked execution ([`InsnFacts::SHIFT_BOUNDED`],
//! [`InsnFacts::DIV_NONZERO`], [`InsnFacts::MAP_KEY_BOUNDED`],
//! [`InsnFacts::HELPER_TYPED`]). Every obligation is discharged
//! symbolically or by a named analysis fact — none by fuzzing.
//!
//! **Cert lifecycle.** [`validate`] is the only constructor of
//! [`ValidationCert`]; [`crate::vm::Vm::load_analyzed`] calls it on every
//! compiled program and stores the cert *with* the compiled program, making
//! certificate-free admission to [`crate::vm::ExecTier::Compiled`]
//! unrepresentable. A program that compiles but fails validation is demoted
//! to the checked tier and the error kept for diagnostics — the attach
//! constructors ([`crate::program::AttachedProgram`]) turn that demotion
//! into a loud failure.
//!
//! Blocks are validated independently with fresh entry symbols, so the
//! proof quantifies over *all* entry states — stronger than needed (only
//! reachable states matter) and therefore sound. The validator is
//! positioned to check emitted machine code against the same reference
//! semantics once ROADMAP item 1 (real x86-64 emission) lands: only the
//! "compiled machine" half changes.

use std::collections::HashMap;
use std::fmt;

use crate::analysis::{AnalysisCtx, AnalysisReport, FdRange, InsnFacts, Tnum};
use crate::compile::{
    BankSpec, Block, BrSrc, CompiledProgram, Step, Terminator, M1, M2, M3, M4, POPCOUNT_LEN,
};
use crate::helpers::{HELPER_MAP_LOOKUP, HELPER_RECIPROCAL_SCALE, HELPER_SK_SELECT_REUSEPORT};
use crate::insn::{Alu, Insn, Op, Src, NUM_REGS, STACK_SIZE};
use crate::maps::MapKind;

/// Proof that a [`CompiledProgram`] is observationally equivalent to the
/// checked-VM semantics of its source. Only [`validate`] constructs one;
/// carrying a cert is what admits a program to the compiled tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValidationCert {
    blocks_proven: usize,
    symbolic_steps: usize,
    fused_windows_proven: usize,
    obligations_discharged: usize,
}

impl ValidationCert {
    /// Basic blocks proven equivalent (every block of the program).
    pub fn blocks_proven(&self) -> usize {
        self.blocks_proven
    }

    /// Symbolic machine steps executed across both machines.
    pub fn symbolic_steps(&self) -> usize {
        self.symbolic_steps
    }

    /// Fused SWAR popcount windows proven against the unfused ladder.
    pub fn fused_windows_proven(&self) -> usize {
        self.fused_windows_proven
    }

    /// Obligations discharged symbolically or by a named analysis fact.
    /// By construction none are discharged by fuzzing: an undischarged
    /// obligation is a [`ValidationError`], never a test to run later.
    pub fn obligations_discharged(&self) -> usize {
        self.obligations_discharged
    }
}

impl fmt::Display for ValidationCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proved {} block(s) in {} symbolic steps ({} fused popcount window(s), {} obligation(s) discharged)",
            self.blocks_proven,
            self.symbolic_steps,
            self.fused_windows_proven,
            self.obligations_discharged
        )
    }
}

/// Why a compiled program failed validation. Carried by the [`crate::vm::Vm`]
/// so construction-site asserts can render the exact unproven obligation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationError {
    /// Compiled basic block the proof failed in.
    pub block: usize,
    /// Source instruction index, when the failure is tied to one.
    pub at: Option<usize>,
    /// Human-readable obligation that could not be discharged.
    pub reason: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(
                f,
                "translation validation failed in block {} at insn {}: {}",
                self.block, at, self.reason
            ),
            None => write!(
                f,
                "translation validation failed in block {}: {}",
                self.block, self.reason
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Interned symbolic expression id. Equal ids ⇔ structurally equal terms
/// ⇔ (by induction over constructors) the same function of the entry state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct ExprId(u32);

/// One hash-consed expression node. `Alu` nodes always denote the
/// *unchecked* operation; checked semantics are interned only after their
/// guard obligation (shift bound, nonzero divisor) is discharged, at which
/// point the two semantics coincide.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Node {
    /// Register `r` at block entry.
    EntryReg(u8),
    /// 8-byte stack slot at `base` at block entry.
    EntryStack(u16),
    Const(u64),
    Alu(Alu, ExprId, ExprId),
    /// `reciprocal_scale(a, b)` — uninterpreted, identical on both tiers.
    Scale(ExprId, ExprId),
    /// R0 of the block's `k`-th map-helper effect (value read from the
    /// map / status of the selection). Meaningful only alongside the
    /// effect-sequence equality check, which pins what effect `k` *is*.
    Ret(u32),
}

struct Interner {
    nodes: Vec<(Node, Tnum)>,
    index: HashMap<Node, ExprId>,
}

impl Interner {
    fn new() -> Self {
        Self {
            nodes: Vec::with_capacity(256),
            index: HashMap::with_capacity(256),
        }
    }

    fn intern(&mut self, n: Node) -> ExprId {
        if let Some(&id) = self.index.get(&n) {
            return id;
        }
        let t = self.tnum_of(&n);
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push((n, t));
        self.index.insert(n, id);
        id
    }

    fn node(&self, id: ExprId) -> Node {
        self.nodes[id.0 as usize].0
    }

    fn tnum(&self, id: ExprId) -> Tnum {
        self.nodes[id.0 as usize].1
    }

    fn konst(&mut self, v: u64) -> ExprId {
        self.intern(Node::Const(v))
    }

    /// Intern an ALU application, constant-folding when both operands are
    /// known. Folding uses the checked (total) evaluator; callers intern
    /// ALU nodes only after discharging the obligation under which checked
    /// and unchecked semantics agree, so the fold is exact for both.
    fn alu(&mut self, op: Alu, a: ExprId, b: ExprId) -> ExprId {
        if let (Node::Const(x), Node::Const(y)) = (self.node(a), self.node(b)) {
            return self.konst(op.eval(x, y));
        }
        self.intern(Node::Alu(op, a, b))
    }

    /// Abstract value of a node in the analysis' known-bits lattice —
    /// the local half of the obligation-discharge machinery.
    fn tnum_of(&self, n: &Node) -> Tnum {
        match *n {
            Node::Const(v) => Tnum::constant(v),
            // reciprocal_scale maps into [0, 2^32): high word known zero.
            Node::Scale(..) => Tnum::low_bits(32),
            Node::Alu(op, a, b) => {
                let (ta, tb) = (self.tnum(a), self.tnum(b));
                match op {
                    Alu::Add => ta.add(tb),
                    Alu::Sub => ta.sub(tb),
                    Alu::And => ta.and(tb),
                    Alu::Or => ta.or(tb),
                    Alu::Xor => ta.xor(tb),
                    Alu::Mul => ta.mul(tb),
                    Alu::Lsh | Alu::Rsh | Alu::Arsh if tb.is_const() && tb.min() < 64 => {
                        let s = tb.min() as u32;
                        match op {
                            Alu::Lsh => ta.lshift(s),
                            Alu::Rsh => ta.rshift(s),
                            _ => ta.arshift(s),
                        }
                    }
                    _ => Tnum::UNKNOWN,
                }
            }
            Node::EntryReg(_) | Node::EntryStack(_) | Node::Ret(_) => Tnum::UNKNOWN,
        }
    }
}

/// An observable helper effect: which map operation ran, against which fd,
/// with which key. Two equal effect sequences read the same maps in the
/// same order and (for selections) pick the same socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Effect {
    kind: EffectKind,
    /// The fd the machine *observably reads*: the interpreter's R1 operand
    /// on the reference side; the pre-resolved constant (const slots) or
    /// the proven-equal R1 (banks) on the compiled side.
    fd: ExprId,
    key: ExprId,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EffectKind {
    Lookup,
    SkSelect,
}

/// One symbolic machine: registers, 8-byte-granular stack writes, and the
/// ordered helper-effect log.
struct MachState {
    regs: [ExprId; NUM_REGS],
    /// Frame writes this block: `(base, value)`, base-unique.
    stack: Vec<(u16, ExprId)>,
    effects: Vec<Effect>,
}

impl MachState {
    fn entry(intern: &mut Interner) -> Self {
        Self {
            regs: std::array::from_fn(|i| intern.intern(Node::EntryReg(i as u8))),
            stack: Vec::new(),
            effects: Vec::new(),
        }
    }

    fn clobber_call(&mut self, intern: &mut Interner, ret: ExprId) {
        self.regs[0] = ret;
        let zero = intern.konst(0);
        for r in 1..=5 {
            self.regs[r] = zero;
        }
    }

    fn stack_write(&mut self, base: u16, val: ExprId) -> Result<(), String> {
        if base as usize + 8 > STACK_SIZE {
            return Err(format!("stack store at base {base} leaves the frame"));
        }
        for &(b, _) in &self.stack {
            if b != base && b.abs_diff(base) < 8 {
                return Err(format!(
                    "overlapping stack accesses at bases {b} and {base} (unprovable aliasing)"
                ));
            }
        }
        match self.stack.iter_mut().find(|(b, _)| *b == base) {
            Some(slot) => slot.1 = val,
            None => self.stack.push((base, val)),
        }
        Ok(())
    }

    fn stack_read(&mut self, base: u16, intern: &mut Interner) -> Result<ExprId, String> {
        if base as usize + 8 > STACK_SIZE {
            return Err(format!("stack load at base {base} leaves the frame"));
        }
        for &(b, e) in &self.stack {
            if b == base {
                return Ok(e);
            }
            if b.abs_diff(base) < 8 {
                return Err(format!(
                    "stack load at base {base} overlaps the store at base {b} (unprovable aliasing)"
                ));
            }
        }
        Ok(intern.intern(Node::EntryStack(base)))
    }
}

/// Validate `compiled` against the checked-VM semantics of `prog`. `ctx`
/// and `report` must be the analysis context and report the program was
/// compiled from — the same inputs [`CompiledProgram::compile`] consumed.
///
/// On success every basic block has been proven bit-exactly equivalent and
/// the returned [`ValidationCert`] admits the program to
/// [`crate::vm::ExecTier::Compiled`]. On failure the first undischarged
/// obligation is reported; the caller must fall back to an interpreted
/// tier.
pub fn validate(
    prog: &[Insn],
    compiled: &CompiledProgram,
    ctx: &AnalysisCtx,
    report: &AnalysisReport,
) -> Result<ValidationCert, ValidationError> {
    let mut v = Validator::new(prog, compiled, ctx, report)?;
    for b in 0..compiled.blocks.len() {
        v.validate_block(b)?;
    }
    let cert = ValidationCert {
        blocks_proven: compiled.blocks.len(),
        symbolic_steps: v.symbolic_steps,
        fused_windows_proven: v.fused_windows,
        obligations_discharged: v.obligations,
    };
    hermes_trace::trace_count!(
        hermes_trace::CounterId::ValidatorBlocksProven,
        cert.blocks_proven
    );
    hermes_trace::trace_count!(
        hermes_trace::CounterId::ValidatorSymbolicSteps,
        cert.symbolic_steps
    );
    hermes_trace::trace_count!(hermes_trace::CounterId::ValidatorCertsIssued);
    Ok(cert)
}

struct Validator<'a> {
    prog: &'a [Insn],
    compiled: &'a CompiledProgram,
    ctx: &'a AnalysisCtx,
    report: &'a AnalysisReport,
    /// Source index each block starts at (independently recomputed).
    starts: Vec<usize>,
    /// Source index → containing block (independently recomputed).
    block_of: Vec<u32>,
    intern: Interner,
    symbolic_steps: usize,
    obligations: usize,
    fused_windows: usize,
}

impl<'a> Validator<'a> {
    fn new(
        prog: &'a [Insn],
        compiled: &'a CompiledProgram,
        ctx: &'a AnalysisCtx,
        report: &'a AnalysisReport,
    ) -> Result<Self, ValidationError> {
        let structural = |reason: String| ValidationError {
            block: 0,
            at: None,
            reason,
        };
        let (starts, block_of) = match block_structure(prog) {
            Ok(v) => v,
            Err(reason) => return Err(structural(reason)),
        };
        if compiled.blocks.len() != starts.len() {
            return Err(structural(format!(
                "compiled program has {} block(s), source has {}",
                compiled.blocks.len(),
                starts.len()
            )));
        }
        Ok(Self {
            prog,
            compiled,
            ctx,
            report,
            starts,
            block_of,
            intern: Interner::new(),
            symbolic_steps: 0,
            obligations: 0,
            fused_windows: 0,
        })
    }

    fn validate_block(&mut self, b: usize) -> Result<(), ValidationError> {
        let start = self.starts[b];
        let end = self.starts.get(b + 1).copied().unwrap_or(self.prog.len());
        let block = &self.compiled.blocks[b];
        let last = self.prog[end - 1].0;
        let has_term = matches!(last, Op::Ja { .. } | Op::Jmp { .. } | Op::Exit);
        let body_end = if has_term { end - 1 } else { end };

        let mut rf = MachState::entry(&mut self.intern);
        let mut cp = MachState::entry(&mut self.intern);

        // Lockstep walk: every compiled step consumes the source
        // instruction(s) it was lowered from — one each, or a whole
        // 15-instruction window for a fused popcount.
        let mut si = start;
        for step in block.steps.iter() {
            let fail = |at: usize, reason: String| ValidationError {
                block: b,
                at: Some(at),
                reason,
            };
            if let Step::Popcount { x, scratch } = *step {
                if si + POPCOUNT_LEN > body_end {
                    return Err(fail(
                        si,
                        format!(
                            "fused popcount window overruns the block \
                             (needs {POPCOUNT_LEN} instructions, {} left)",
                            body_end - si
                        ),
                    ));
                }
                // Reference: the unfused ladder, instruction by instruction.
                for k in 0..POPCOUNT_LEN {
                    self.ref_insn(&mut rf, si + k)
                        .map_err(|r| fail(si + k, r))?;
                    self.symbolic_steps += 1;
                }
                // Compiled: the SWAR closed form. A genuine window builds
                // the identical expression tree; anything else diverges.
                let v = cp.regs[x as usize];
                let (xe, se) = self.popcount_sym(v);
                cp.regs[x as usize] = xe;
                cp.regs[scratch as usize] = se;
                self.symbolic_steps += 1;
                self.fused_windows += 1;
                si += POPCOUNT_LEN;
            } else {
                if si >= body_end {
                    return Err(fail(
                        si,
                        format!(
                            "compiled block has more steps than source instructions \
                             (extra step {step:?})"
                        ),
                    ));
                }
                self.ref_insn(&mut rf, si).map_err(|r| fail(si, r))?;
                self.comp_step(&mut cp, step, si).map_err(|r| fail(si, r))?;
                self.symbolic_steps += 2;
                si += 1;
            }
        }
        if si != body_end {
            return Err(ValidationError {
                block: b,
                at: Some(si),
                reason: format!(
                    "compiled steps cover source instructions {start}..{si}, \
                     block body is {start}..{body_end}"
                ),
            });
        }

        self.check_terminator(b, end, has_term.then_some(last), block)?;
        self.check_states(b, body_end, &rf, &cp)?;

        // Retire count: the block must account for every source instruction
        // it covers — body plus real terminator, or body alone for a
        // synthesized fall-through. Both equal `end - start`.
        let expected = (end - start) as u32;
        if block.retired != expected {
            return Err(ValidationError {
                block: b,
                at: None,
                reason: format!(
                    "block retires {} instruction(s), source covers {expected}",
                    block.retired
                ),
            });
        }
        Ok(())
    }

    /// Execute one source instruction on the reference machine under the
    /// checked VM's semantics.
    fn ref_insn(&mut self, st: &mut MachState, at: usize) -> Result<(), String> {
        match self.prog[at].0 {
            Op::Alu { op, dst, src } => {
                let s = match src {
                    Src::Reg(r) => st.regs[r.idx()],
                    Src::Imm(i) => self.intern.konst(i as u64),
                };
                if op == Alu::Mov {
                    st.regs[dst.idx()] = s;
                } else {
                    self.alu_obligation(op, s, at)?;
                    let d = st.regs[dst.idx()];
                    st.regs[dst.idx()] = self.intern.alu(op, d, s);
                }
            }
            Op::StxStack { off, src } => {
                let base = frame_base(off)?;
                let val = st.regs[src.idx()];
                st.stack_write(base, val)?;
            }
            Op::LdxStack { dst, off } => {
                let base = frame_base(off)?;
                st.regs[dst.idx()] = st.stack_read(base, &mut self.intern)?;
            }
            Op::Call { helper } => self.ref_call(st, helper)?,
            Op::Ja { .. } | Op::Jmp { .. } | Op::Exit => {
                return Err("control transfer inside a block body".to_string());
            }
        }
        Ok(())
    }

    /// Model one checked-VM helper call on the reference machine.
    fn ref_call(&mut self, st: &mut MachState, helper: u32) -> Result<(), String> {
        match helper {
            HELPER_RECIPROCAL_SCALE => {
                let r = self.intern.intern(Node::Scale(st.regs[1], st.regs[2]));
                st.clobber_call(&mut self.intern, r);
            }
            HELPER_MAP_LOOKUP => {
                let fd = st.regs[1];
                self.push_effect(st, EffectKind::Lookup, fd);
            }
            HELPER_SK_SELECT_REUSEPORT => {
                let fd = st.regs[1];
                self.push_effect(st, EffectKind::SkSelect, fd);
            }
            other => return Err(format!("unknown helper {other} in source program")),
        }
        Ok(())
    }

    /// Log a map-helper effect with observable fd `fd`, set R0 to the
    /// effect's uninterpreted result and clobber the argument registers.
    fn push_effect(&mut self, st: &mut MachState, kind: EffectKind, fd: ExprId) {
        let k = st.effects.len() as u32;
        let key = st.regs[2];
        st.effects.push(Effect { kind, fd, key });
        let ret = self.intern.intern(Node::Ret(k));
        st.clobber_call(&mut self.intern, ret);
    }

    /// Execute one compiled step on the compiled machine, discharging the
    /// obligations under which its unchecked/pre-resolved semantics agree
    /// with the checked interpreter. `at` is the source instruction the
    /// step was lowered from.
    fn comp_step(&mut self, st: &mut MachState, step: &Step, at: usize) -> Result<(), String> {
        match *step {
            Step::MovImm { dst, imm } => st.regs[dst as usize] = self.intern.konst(imm),
            Step::MovReg { dst, src } => st.regs[dst as usize] = st.regs[src as usize],
            Step::AluImm { op, dst, imm } => {
                let s = self.intern.konst(imm);
                self.alu_obligation(op, s, at)?;
                let d = st.regs[dst as usize];
                st.regs[dst as usize] = self.intern.alu(op, d, s);
            }
            Step::AluReg { op, dst, src } => {
                let s = st.regs[src as usize];
                self.alu_obligation(op, s, at)?;
                let d = st.regs[dst as usize];
                st.regs[dst as usize] = self.intern.alu(op, d, s);
            }
            Step::StxStack { base, src } => {
                let val = st.regs[src as usize];
                st.stack_write(base, val)?;
            }
            Step::LdxStack { dst, base } => {
                st.regs[dst as usize] = st.stack_read(base, &mut self.intern)?;
            }
            Step::Popcount { .. } => unreachable!("fused windows handled by the block walk"),
            Step::ReciprocalScale => {
                let r = self.intern.intern(Node::Scale(st.regs[1], st.regs[2]));
                st.clobber_call(&mut self.intern, r);
            }
            Step::LookupConst { slot } => {
                let fd = self.const_slot_obligation(slot, MapKind::Array, at)?;
                self.require_fact(at, InsnFacts::MAP_KEY_BOUNDED, "lookup key in bounds")?;
                let fd = self.intern.konst(fd as u64);
                self.push_effect(st, EffectKind::Lookup, fd);
            }
            Step::SkSelectConst { slot } => {
                let fd = self.const_slot_obligation(slot, MapKind::SockArray, at)?;
                let fd = self.intern.konst(fd as u64);
                self.push_effect(st, EffectKind::SkSelect, fd);
            }
            Step::LookupBank { bank, base } => {
                self.bank_obligation(bank, base, MapKind::Array, at)?;
                self.require_fact(at, InsnFacts::MAP_KEY_BOUNDED, "lookup key in bounds")?;
                // The bank read `bank[R1 - base]` resolves exactly fd R1
                // under the proven range: the observable is R1 itself.
                let fd = st.regs[1];
                self.push_effect(st, EffectKind::Lookup, fd);
            }
            Step::SkSelectBank { bank, base } => {
                self.bank_obligation(bank, base, MapKind::SockArray, at)?;
                let fd = st.regs[1];
                self.push_effect(st, EffectKind::SkSelect, fd);
            }
        }
        Ok(())
    }

    /// Discharge the checked-vs-unchecked gap for one ALU application:
    /// shifts must be provably `< 64`, divisors provably nonzero. Proven
    /// locally by the expression's [`Tnum`] when possible, else by the
    /// analysis fact that already licenses unchecked execution.
    fn alu_obligation(&mut self, op: Alu, src: ExprId, at: usize) -> Result<(), String> {
        match op {
            Alu::Lsh | Alu::Rsh | Alu::Arsh => {
                if self.intern.tnum(src).max() < 64 {
                    self.obligations += 1;
                    Ok(())
                } else {
                    self.require_fact(at, InsnFacts::SHIFT_BOUNDED, "shift amount < 64")
                }
            }
            Alu::Div | Alu::Mod => {
                // A nonzero known bit proves the divisor nonzero.
                if self.intern.tnum(src).min() != 0 {
                    self.obligations += 1;
                    Ok(())
                } else {
                    self.require_fact(at, InsnFacts::DIV_NONZERO, "divisor nonzero")
                }
            }
            _ => Ok(()),
        }
    }

    /// Require an analysis fact at `at`, or fail the named obligation.
    fn require_fact(&mut self, at: usize, fact: InsnFacts, what: &str) -> Result<(), String> {
        if self.report.facts(at).contains(fact) {
            self.obligations += 1;
            Ok(())
        } else {
            Err(format!(
                "obligation '{what}' not discharged: analysis proved [{}] here",
                self.report.facts(at).labels().join(", ")
            ))
        }
    }

    /// Prove a pre-resolved constant slot sound: the slot exists, holds
    /// the expected kind, and its fd is bound with that kind in the map
    /// layout the analysis ran against. The slot's fd is returned so the
    /// effect comparison can oblige the interpreter's R1 to equal it.
    fn const_slot_obligation(&mut self, slot: u8, want: MapKind, at: usize) -> Result<u32, String> {
        let Some(&(fd, kind)) = self.compiled.const_fds.get(slot as usize) else {
            return Err(format!("constant slot {slot} out of range"));
        };
        if kind != want {
            return Err(format!(
                "constant slot {slot} holds a {kind:?} fd, step needs {want:?}"
            ));
        }
        match self.ctx.fd_layout(fd as u64) {
            Some((k, _)) if k == want => {}
            other => {
                return Err(format!(
                    "constant slot fd {fd} not bound as {want:?} in the analysis layout \
                     (found {other:?})"
                ));
            }
        }
        self.require_fact(at, InsnFacts::HELPER_TYPED, "helper arguments typed")?;
        self.obligations += 1;
        Ok(fd)
    }

    /// Prove a bank-indexed step sound: the step's bank and base agree
    /// with the compiled [`BankSpec`], the spec matches the [`FdRange`]
    /// the analysis proved for this call site, and every fd in the range
    /// is bound with the expected kind. Under these facts,
    /// `bank[R1 - base]` reads exactly fd `R1` — the fd the interpreter
    /// would resolve.
    fn bank_obligation(
        &mut self,
        bank: u8,
        base: u32,
        want: MapKind,
        at: usize,
    ) -> Result<(), String> {
        let Some(&spec) = self.compiled.banks.get(bank as usize) else {
            return Err(format!("bank {bank} out of range"));
        };
        let BankSpec {
            kind,
            base: spec_base,
            len,
        } = spec;
        if kind != want {
            return Err(format!(
                "bank {bank} holds {kind:?} fds, step needs {want:?}"
            ));
        }
        if spec_base != base {
            return Err(format!(
                "step indexes bank {bank} from base {base}, bank is based at {spec_base}"
            ));
        }
        let Some(range) = self.report.fd_range(at) else {
            return Err("no fd interval proven for this call site".to_string());
        };
        let FdRange { kind: rk, lo, hi } = range;
        if rk != want || hi > u32::MAX as u64 {
            return Err(format!(
                "proven fd interval [{lo}, {hi}] of kind {rk:?} cannot license a {want:?} bank"
            ));
        }
        if lo != base as u64 || hi - lo + 1 != len as u64 {
            return Err(format!(
                "bank covers fds [{base}, {}], analysis proved R1 in [{lo}, {hi}]",
                base as u64 + len as u64 - 1
            ));
        }
        for fd in lo..=hi {
            match self.ctx.fd_layout(fd) {
                Some((k, _)) if k == want => {}
                other => {
                    return Err(format!(
                        "bank fd {fd} not bound as {want:?} in the analysis layout \
                         (found {other:?})"
                    ));
                }
            }
        }
        self.require_fact(at, InsnFacts::HELPER_TYPED, "helper arguments typed")?;
        self.obligations += 1;
        Ok(())
    }

    /// The SWAR popcount closed form, node for node. Built with the same
    /// interner calls the unfused reference ladder makes, so a genuine
    /// window yields identical [`ExprId`]s on both machines.
    fn popcount_sym(&mut self, v: ExprId) -> (ExprId, ExprId) {
        let (c1, c2, c4, c56) = (
            self.intern.konst(1),
            self.intern.konst(2),
            self.intern.konst(4),
            self.intern.konst(56),
        );
        let (m1, m2, m3, m4) = (
            self.intern.konst(M1),
            self.intern.konst(M2),
            self.intern.konst(M3),
            self.intern.konst(M4),
        );
        // t = v - ((v >> 1) & M1)
        let v1 = self.intern.alu(Alu::Rsh, v, c1);
        let v1m = self.intern.alu(Alu::And, v1, m1);
        let t = self.intern.alu(Alu::Sub, v, v1m);
        // t2 = (t & M2) + ((t >> 2) & M2)
        let tl = self.intern.alu(Alu::And, t, m2);
        let t2s = self.intern.alu(Alu::Rsh, t, c2);
        let th = self.intern.alu(Alu::And, t2s, m2);
        let t2 = self.intern.alu(Alu::Add, tl, th);
        // s = t2 >> 4 (the ladder's scratch residue)
        let s = self.intern.alu(Alu::Rsh, t2, c4);
        // x = ((t2 + s) & M3) * M4 >> 56
        let sum = self.intern.alu(Alu::Add, t2, s);
        let msk = self.intern.alu(Alu::And, sum, m3);
        let mul = self.intern.alu(Alu::Mul, msk, m4);
        let x = self.intern.alu(Alu::Rsh, mul, c56);
        (x, s)
    }

    /// Prove the block's terminator transfers control exactly where the
    /// checked interpreter's next-instruction logic goes.
    fn check_terminator(
        &self,
        b: usize,
        end: usize,
        src_term: Option<Op>,
        block: &Block,
    ) -> Result<(), ValidationError> {
        let fail = |at: Option<usize>, reason: String| ValidationError {
            block: b,
            at,
            reason,
        };
        let n = self.prog.len();
        let target_block = |at: usize, off: i32| -> Result<u32, ValidationError> {
            let t = at as i64 + 1 + off as i64;
            if t < 0 || t >= n as i64 {
                return Err(fail(Some(at), format!("jump target {t} out of range")));
            }
            Ok(self.block_of[t as usize])
        };
        let at = end - 1;
        match (src_term, block.term) {
            (Some(Op::Ja { off }), Terminator::Jump { target }) => {
                let want = target_block(at, off)?;
                if want != target {
                    return Err(fail(
                        Some(at),
                        format!("ja resolves to block {want}, compiled jumps to {target}"),
                    ));
                }
            }
            (None, Terminator::Jump { target }) => {
                if end >= n {
                    return Err(fail(None, "fall-through off the end of the program".into()));
                }
                if self.block_of[end] != target {
                    return Err(fail(
                        None,
                        format!(
                            "fall-through continues in block {}, compiled jumps to {target}",
                            self.block_of[end]
                        ),
                    ));
                }
            }
            (
                Some(Op::Jmp {
                    cond,
                    dst,
                    src,
                    off,
                }),
                Terminator::Branch {
                    cond: c,
                    dst: d,
                    src: s,
                    taken,
                    fall,
                },
            ) => {
                if cond != c {
                    return Err(fail(
                        Some(at),
                        format!("branch condition {cond:?} compiled as {c:?}"),
                    ));
                }
                if dst.0 != d {
                    return Err(fail(
                        Some(at),
                        format!("branch compares r{}, compiled compares r{d}", dst.0),
                    ));
                }
                let src_ok = match (src, s) {
                    (Src::Reg(r), BrSrc::Reg(cr)) => r.0 == cr,
                    (Src::Imm(i), BrSrc::Imm(cv)) => i as u64 == cv,
                    _ => false,
                };
                if !src_ok {
                    return Err(fail(
                        Some(at),
                        format!("branch operand {src:?} compiled as {s:?}"),
                    ));
                }
                let want_taken = target_block(at, off)?;
                if want_taken != taken {
                    return Err(fail(
                        Some(at),
                        format!("taken edge resolves to block {want_taken}, compiled to {taken}"),
                    ));
                }
                if end >= n {
                    return Err(fail(Some(at), "branch falls off the program end".into()));
                }
                if self.block_of[end] != fall {
                    return Err(fail(
                        Some(at),
                        format!(
                            "fall edge resolves to block {}, compiled to {fall}",
                            self.block_of[end]
                        ),
                    ));
                }
            }
            (Some(Op::Exit), Terminator::Exit) => {}
            (st, ct) => {
                return Err(fail(
                    st.map(|_| at),
                    format!("terminator mismatch: source ends with {st:?}, compiled with {ct:?}"),
                ));
            }
        }
        Ok(())
    }

    /// The equivalence check proper: registers, stack writes and helper
    /// effects must be structurally identical at block exit.
    fn check_states(
        &self,
        b: usize,
        at: usize,
        rf: &MachState,
        cp: &MachState,
    ) -> Result<(), ValidationError> {
        let fail = |reason: String| ValidationError {
            block: b,
            at: Some(at),
            reason,
        };
        for (r, (&a, &c)) in rf.regs.iter().zip(&cp.regs).enumerate() {
            if a != c {
                return Err(fail(format!(
                    "r{r} diverges at block exit: reference {:?}, compiled {:?}",
                    self.intern.node(a),
                    self.intern.node(c)
                )));
            }
        }
        let mut a = rf.stack.clone();
        let mut c = cp.stack.clone();
        a.sort_unstable_by_key(|&(base, _)| base);
        c.sort_unstable_by_key(|&(base, _)| base);
        if a != c {
            return Err(fail(format!(
                "stack effects diverge at block exit: reference writes {:?}, compiled writes {:?}",
                a.iter().map(|&(base, _)| base).collect::<Vec<_>>(),
                c.iter().map(|&(base, _)| base).collect::<Vec<_>>()
            )));
        }
        if rf.effects != cp.effects {
            let k = rf
                .effects
                .iter()
                .zip(&cp.effects)
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| rf.effects.len().min(cp.effects.len()));
            return Err(fail(format!(
                "helper effect {k} diverges: reference {:?}, compiled {:?}",
                rf.effects.get(k),
                cp.effects.get(k)
            )));
        }
        Ok(())
    }
}

/// `STACK_SIZE + off`, proven to address a full 8-byte slot in frame.
fn frame_base(off: i32) -> Result<u16, String> {
    let b = STACK_SIZE as i64 + off as i64;
    if b < 0 || b + 8 > STACK_SIZE as i64 {
        return Err(format!("stack offset {off} leaves the frame"));
    }
    Ok(b as u16)
}

/// Recompute the basic-block structure of `prog` independently of the
/// compiler: entry, every jump target and every instruction after a
/// control transfer start a block. Mirrors `CompiledProgram::compile`'s
/// pass 1, but totalized — malformed programs report instead of panicking.
fn block_structure(prog: &[Insn]) -> Result<(Vec<usize>, Vec<u32>), String> {
    if prog.is_empty() {
        return Err("empty program has no blocks".to_string());
    }
    let n = prog.len();
    let mut leader = vec![false; n];
    leader[0] = true;
    for (at, insn) in prog.iter().enumerate() {
        let target = |off: i32| -> Result<usize, String> {
            let t = at as i64 + 1 + off as i64;
            if t < 0 || t >= n as i64 {
                return Err(format!("jump target {t} out of range at insn {at}"));
            }
            Ok(t as usize)
        };
        match insn.0 {
            Op::Ja { off } | Op::Jmp { off, .. } => {
                leader[target(off)?] = true;
                if at + 1 < n {
                    leader[at + 1] = true;
                }
            }
            Op::Exit if at + 1 < n => leader[at + 1] = true,
            _ => {}
        }
    }
    let mut block_of = vec![u32::MAX; n];
    let mut starts = Vec::new();
    for (at, &l) in leader.iter().enumerate() {
        if l {
            starts.push(at);
        }
        block_of[at] = (starts.len() - 1) as u32;
    }
    Ok((starts, block_of))
}

/// A seeded miscompilation for the mutation-kill suite
/// (`crates/ebpf/tests/validate_mutants.rs`). Every variant is a bug the
/// validator must reject statically — chosen so that several of them
/// diverge only on inputs differential fuzzing is unlikely to draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Swap the operands of the first non-commutative `AluReg` (a `sub`).
    SwapAluRegOperands,
    /// Turn the first `add dst, imm` into `sub dst, imm`.
    AluImmAddToSub,
    /// Flip the low bit of the first immediate loaded into R0.
    CorruptReturnImm,
    /// Swap the result and scratch registers of a fused popcount.
    SwapPopcountRegs,
    /// Fuse the popcount window one instruction early: a stray `mov`
    /// prefix shifts the whole 15-instruction window off by one.
    ShiftPopcountWindow,
    /// Delete the first register-to-register move.
    DropStep,
    /// Under-report a block's retired-instruction count by one.
    DropRetire,
    /// Swap the taken/fall edges of the first two-way branch.
    SwapBranchEdges,
    /// Weaken the first `jle` guard to `jlt`: diverges only when the
    /// admit bitmap has exactly one set bit.
    WeakenBranchCond,
    /// Point the first sockarray-slot step at an array-kind slot.
    AliasConstSlot,
    /// Shift a bank-indexed step's base by one: it silently reads the
    /// *adjacent group's* map.
    StaleBankBase,
    /// Point a bank-indexed lookup at a bank of the wrong kind.
    SwapBankKinds,
    /// Slide a stack store down one slot.
    ShiftStackBase,
}

impl Mutation {
    /// Every mutation, for exhaustive kill sweeps.
    pub const ALL: [Mutation; 13] = [
        Mutation::SwapAluRegOperands,
        Mutation::AluImmAddToSub,
        Mutation::CorruptReturnImm,
        Mutation::SwapPopcountRegs,
        Mutation::ShiftPopcountWindow,
        Mutation::DropStep,
        Mutation::DropRetire,
        Mutation::SwapBranchEdges,
        Mutation::WeakenBranchCond,
        Mutation::AliasConstSlot,
        Mutation::StaleBankBase,
        Mutation::SwapBankKinds,
        Mutation::ShiftStackBase,
    ];
}

/// Apply `m` to the first applicable site of `p`, returning the mutated
/// program, or `None` when `p` has no such site (e.g. bank mutations on
/// the flat program). Used only by the mutation-kill suite.
pub fn mutate(p: &CompiledProgram, m: Mutation) -> Option<CompiledProgram> {
    use crate::insn::Cond;
    let mut blocks: Vec<Block> = p.blocks.to_vec();
    // Edit the first step (in block order) the predicate rewrites.
    fn edit_step(blocks: &mut [Block], f: impl Fn(&Step) -> Option<Step>) -> bool {
        for blk in blocks.iter_mut() {
            if let Some(i) = blk.steps.iter().position(|s| f(s).is_some()) {
                let mut steps = blk.steps.to_vec();
                steps[i] = f(&steps[i]).expect("position found a rewrite");
                blk.steps = steps.into_boxed_slice();
                return true;
            }
        }
        false
    }
    let applied = match m {
        Mutation::SwapAluRegOperands => edit_step(&mut blocks, |s| match *s {
            Step::AluReg {
                op: Alu::Sub,
                dst,
                src,
            } if dst != src => Some(Step::AluReg {
                op: Alu::Sub,
                dst: src,
                src: dst,
            }),
            _ => None,
        }),
        Mutation::AluImmAddToSub => edit_step(&mut blocks, |s| match *s {
            Step::AluImm {
                op: Alu::Add,
                dst,
                imm,
            } => Some(Step::AluImm {
                op: Alu::Sub,
                dst,
                imm,
            }),
            _ => None,
        }),
        Mutation::CorruptReturnImm => {
            // Target the R0 load feeding an `exit` directly, so the flip is
            // guaranteed live — a dead R0 write would be (correctly)
            // accepted by the validator as semantically equal.
            let mut done = false;
            for blk in blocks.iter_mut() {
                if !matches!(blk.term, Terminator::Exit) {
                    continue;
                }
                if let Some(Step::MovImm { dst: 0, imm }) = blk.steps.last().copied() {
                    let mut steps = blk.steps.to_vec();
                    let last = steps.len() - 1;
                    steps[last] = Step::MovImm {
                        dst: 0,
                        imm: imm ^ 1,
                    };
                    blk.steps = steps.into_boxed_slice();
                    done = true;
                    break;
                }
            }
            done
        }
        Mutation::SwapPopcountRegs => edit_step(&mut blocks, |s| match *s {
            Step::Popcount { x, scratch } if x != scratch => Some(Step::Popcount {
                x: scratch,
                scratch: x,
            }),
            _ => None,
        }),
        Mutation::ShiftPopcountWindow => {
            let mut done = false;
            for blk in blocks.iter_mut() {
                if let Some(i) = blk
                    .steps
                    .iter()
                    .position(|s| matches!(s, Step::Popcount { .. }))
                {
                    let Step::Popcount { x, scratch } = blk.steps[i] else {
                        unreachable!()
                    };
                    let mut steps = blk.steps.to_vec();
                    steps.insert(
                        i,
                        Step::MovReg {
                            dst: scratch,
                            src: x,
                        },
                    );
                    blk.steps = steps.into_boxed_slice();
                    done = true;
                    break;
                }
            }
            done
        }
        Mutation::DropStep => {
            let mut done = false;
            for blk in blocks.iter_mut() {
                if let Some(i) = blk
                    .steps
                    .iter()
                    .position(|s| matches!(s, Step::MovReg { .. }))
                {
                    let mut steps = blk.steps.to_vec();
                    steps.remove(i);
                    blk.steps = steps.into_boxed_slice();
                    done = true;
                    break;
                }
            }
            done
        }
        Mutation::DropRetire => match blocks.iter_mut().find(|blk| blk.retired > 0) {
            Some(blk) => {
                blk.retired -= 1;
                true
            }
            None => false,
        },
        Mutation::SwapBranchEdges => {
            let mut done = false;
            for blk in blocks.iter_mut() {
                if let Terminator::Branch {
                    cond,
                    dst,
                    src,
                    taken,
                    fall,
                } = blk.term
                {
                    if taken != fall {
                        blk.term = Terminator::Branch {
                            cond,
                            dst,
                            src,
                            taken: fall,
                            fall: taken,
                        };
                        done = true;
                        break;
                    }
                }
            }
            done
        }
        Mutation::WeakenBranchCond => {
            let mut done = false;
            for blk in blocks.iter_mut() {
                if let Terminator::Branch {
                    cond: Cond::Le,
                    dst,
                    src,
                    taken,
                    fall,
                } = blk.term
                {
                    blk.term = Terminator::Branch {
                        cond: Cond::Lt,
                        dst,
                        src,
                        taken,
                        fall,
                    };
                    done = true;
                    break;
                }
            }
            done
        }
        Mutation::AliasConstSlot => {
            // Find an array-kind slot to alias a sockarray step onto.
            let array_slot = p
                .const_fds
                .iter()
                .position(|&(_, k)| k == MapKind::Array)
                .map(|i| i as u8);
            match array_slot {
                Some(alias) => edit_step(&mut blocks, |s| match *s {
                    Step::SkSelectConst { slot } if slot != alias => {
                        Some(Step::SkSelectConst { slot: alias })
                    }
                    _ => None,
                }),
                None => false,
            }
        }
        Mutation::StaleBankBase => edit_step(&mut blocks, |s| match *s {
            Step::LookupBank { bank, base } => Some(Step::LookupBank {
                bank,
                base: base.wrapping_add(1),
            }),
            Step::SkSelectBank { bank, base } => Some(Step::SkSelectBank {
                bank,
                base: base.wrapping_add(1),
            }),
            _ => None,
        }),
        Mutation::SwapBankKinds => {
            let sock_bank = p
                .banks
                .iter()
                .position(|b| b.kind == MapKind::SockArray)
                .map(|i| i as u8);
            match sock_bank {
                Some(alias) => edit_step(&mut blocks, |s| match *s {
                    Step::LookupBank { bank, base } if bank != alias => {
                        Some(Step::LookupBank { bank: alias, base })
                    }
                    _ => None,
                }),
                None => false,
            }
        }
        Mutation::ShiftStackBase => edit_step(&mut blocks, |s| match *s {
            Step::StxStack { base, src } if base >= 8 => Some(Step::StxStack {
                base: base - 8,
                src,
            }),
            _ => None,
        }),
    };
    applied.then(|| CompiledProgram {
        blocks: blocks.into_boxed_slice(),
        const_fds: p.const_fds.clone(),
        banks: p.banks.clone(),
        bank_cache: std::sync::OnceLock::new(),
        slot_cache: std::sync::OnceLock::new(),
        fused_popcounts: p.fused_popcounts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::asm::Assembler;
    use crate::group_program::GroupedReuseportGroup;
    use crate::insn::Reg;
    use crate::maps::{ArrayMap, MapRef, MapRegistry, SockArrayMap};
    use crate::program::{emit_popcount, DispatchProgram};
    use crate::vm::{ExecTier, Vm};
    use hermes_core::bitmap::WorkerBitmap;
    use std::sync::Arc;

    /// The flat Algorithm 2 setup: registry, program, ctx, report, compiled.
    fn flat() -> (Vec<Insn>, AnalysisCtx, AnalysisReport, CompiledProgram) {
        let maps = MapRegistry::new();
        let sel = Arc::new(ArrayMap::new(1));
        let socks = Arc::new(SockArrayMap::new(16));
        let sel_fd = maps.register(MapRef::Array(Arc::clone(&sel)));
        let sock_fd = maps.register(MapRef::SockArray(Arc::clone(&socks)));
        for w in 0..16 {
            socks.register(w, w);
        }
        sel.update(0, WorkerBitmap::from_workers([1, 4, 9, 13]).0);
        let prog = DispatchProgram::build(sel_fd, sock_fd, 16);
        let ctx = AnalysisCtx::from_registry(&maps);
        let report = analyze(&prog, &ctx).expect("analyzes");
        let cp = CompiledProgram::compile(&prog, &ctx, &report).expect("compiles");
        (prog, ctx, report, cp)
    }

    #[test]
    fn flat_dispatch_program_earns_a_cert() {
        let (prog, ctx, report, cp) = flat();
        let cert = validate(&prog, &cp, &ctx, &report).expect("flat program proves");
        assert_eq!(cert.blocks_proven(), cp.num_blocks());
        // n's popcount plus the four rungs a 16-bit bitmap can reach.
        assert_eq!(cert.fused_windows_proven(), 5);
        assert!(cert.symbolic_steps() > 0);
        assert!(
            cert.obligations_discharged() > 0,
            "slot/key/type obligations must be discharged, not skipped"
        );
    }

    #[test]
    fn grouped_dispatch_program_earns_a_cert() {
        // Constructing the group already validates internally (tier assert);
        // re-prove explicitly and check the cert shape.
        let group = GroupedReuseportGroup::new(4, 8);
        let ctx = AnalysisCtx::from_registry(group.registry());
        let report = analyze(group.program(), &ctx).expect("analyzes");
        let cp = group.vm().compiled().expect("compiled tier earned");
        let cert = validate(group.program(), cp, &ctx, &report).expect("grouped program proves");
        assert_eq!(cert.blocks_proven(), cp.num_blocks());
        assert_eq!(cert.fused_windows_proven(), cp.fused_popcounts());
        assert!(cp.bank_count() >= 2, "grouped program uses fd banks");
    }

    #[test]
    fn vm_carries_cert_onto_the_compiled_tier() {
        let maps = MapRegistry::new();
        maps.register(MapRef::Array(Arc::new(ArrayMap::new(1))));
        let socks = Arc::new(SockArrayMap::new(8));
        for w in 0..8 {
            socks.register(w, w);
        }
        maps.register(MapRef::SockArray(socks));
        let prog = DispatchProgram::build(0, 1, 8);
        let ctx = AnalysisCtx::from_registry(&maps);
        let vm = Vm::load_analyzed(prog, &ctx).expect("clean");
        assert_eq!(vm.tier(), ExecTier::Compiled);
        let cert = vm.validation().expect("compiled tier implies a cert");
        assert!(cert.blocks_proven() > 0);
        assert!(vm.validation_error().is_none());
    }

    #[test]
    fn popcount_fusion_is_proved_against_the_unfused_ladder() {
        let mut a = Assembler::new();
        a.mov(Reg::R6, Reg::R1);
        emit_popcount(&mut a, Reg::R6, Reg::R3);
        a.mov(Reg::R0, Reg::R6);
        a.alu(Alu::Xor, Reg::R0, Reg::R3);
        a.exit();
        let prog = a.finish();
        let ctx = AnalysisCtx::new();
        let report = analyze(&prog, &ctx).expect("analyzes");
        let cp = CompiledProgram::compile(&prog, &ctx, &report).expect("compiles");
        assert_eq!(cp.fused_popcounts(), 1);
        let cert = validate(&prog, &cp, &ctx, &report).expect("fused window proves");
        assert_eq!(cert.fused_windows_proven(), 1);
    }

    #[test]
    fn bank_indexed_program_discharges_range_obligations() {
        // fd = hash & 3, all four fds registered arrays: compiles to a
        // bank, and the validator must prove the bank reads fd R1.
        let mut a = Assembler::new();
        a.mov(Reg::R6, Reg::R1);
        a.alu_imm(Alu::And, Reg::R6, 3);
        a.mov(Reg::R1, Reg::R6);
        a.mov_imm(Reg::R2, 0);
        a.call(crate::helpers::HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        let maps = MapRegistry::new();
        for _ in 0..4 {
            maps.register(MapRef::Array(Arc::new(ArrayMap::new(1))));
        }
        let ctx = AnalysisCtx::from_registry(&maps);
        let report = analyze(&prog, &ctx).expect("analyzes");
        let cp = CompiledProgram::compile(&prog, &ctx, &report).expect("compiles");
        assert_eq!(cp.bank_count(), 1);
        validate(&prog, &cp, &ctx, &report).expect("bank obligations discharge");
    }

    #[test]
    fn trivial_single_worker_fallback_validates() {
        let prog = DispatchProgram::build(0, 1, 1);
        let ctx = AnalysisCtx::new()
            .bind(0, MapKind::Array, 1)
            .bind(1, MapKind::SockArray, 1);
        let report = analyze(&prog, &ctx).expect("analyzes");
        let cp = CompiledProgram::compile(&prog, &ctx, &report).expect("compiles");
        validate(&prog, &cp, &ctx, &report).expect("trivial program proves");
    }

    #[test]
    fn seeded_mutants_are_rejected_inline() {
        // The full kill sweep lives in tests/validate_mutants.rs; spot-check
        // two representative mutants here so the unit suite guards the core.
        let (prog, ctx, report, cp) = flat();
        for m in [Mutation::SwapPopcountRegs, Mutation::DropRetire] {
            let bad = mutate(&cp, m).expect("mutation applies to the flat program");
            assert!(
                validate(&prog, &bad, &ctx, &report).is_err(),
                "mutant {m:?} must be rejected"
            );
        }
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "wall-clock budget is meaningless under the interpreter"
    )]
    fn validation_cost_stays_under_load_time_budget() {
        // The acceptance bar is < 5 ms per program at load time; even in
        // debug builds the symbolic pass should clear it with huge margin.
        let (prog, ctx, report, cp) = flat();
        let best = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                validate(&prog, &cp, &ctx, &report).expect("proves");
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            best < std::time::Duration::from_millis(5),
            "flat validation took {best:?}, budget is 5 ms"
        );
        let group = GroupedReuseportGroup::new(4, 8);
        let gctx = AnalysisCtx::from_registry(group.registry());
        let greport = analyze(group.program(), &gctx).expect("analyzes");
        let gcp = group.vm().compiled().expect("compiled");
        let best = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                validate(group.program(), gcp, &gctx, &greport).expect("proves");
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(
            best < std::time::Duration::from_millis(5),
            "grouped validation took {best:?}, budget is 5 ms"
        );
    }

    #[test]
    fn unfused_popcount_source_requires_no_popcount_step() {
        // A program whose popcount ladder is broken (one op replaced) must
        // not validate against a compiled program carrying a fused window.
        let mut a = Assembler::new();
        a.mov(Reg::R6, Reg::R1);
        emit_popcount(&mut a, Reg::R6, Reg::R3);
        a.mov(Reg::R0, Reg::R6);
        a.exit();
        let prog = a.finish();
        let ctx = AnalysisCtx::new();
        let report = analyze(&prog, &ctx).expect("analyzes");
        let cp = CompiledProgram::compile(&prog, &ctx, &report).expect("compiles");
        assert_eq!(cp.fused_popcounts(), 1);
        // Break the source ladder *after* compiling: swap the final shift
        // for a no-op mov. The fused step no longer matches the source.
        let mut broken = prog.clone();
        let pos = 15; // last insn of the window (mov at 0 + 15-insn ladder)
        broken[pos] = Insn(Op::Alu {
            op: Alu::Mov,
            dst: Reg::R6,
            src: Src::Reg(Reg::R6),
        });
        let report2 = analyze(&broken, &ctx).expect("analyzes");
        assert!(
            validate(&broken, &cp, &ctx, &report2).is_err(),
            "compiled popcount must not prove against a non-popcount source"
        );
    }
}
