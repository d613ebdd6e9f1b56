//! Program admission: the one pass every program goes through before it may
//! run — this crate's `bpf(BPF_PROG_LOAD)`.
//!
//! §5.1.3: "for security and performance reasons, eBPF's programmability is
//! limited: it does not support loops, recursive calls, or complex hash
//! computations." [`analyze`] enforces the classic-verifier discipline the
//! paper designs Algorithm 2 under, in the four steps of a kernel-style
//! verifier (ebpf-analyzer's architecture, SNIPPETS.md):
//!
//! 1. **Decode.** Every instruction is well-formed on its own: the program
//!    is non-empty and at most [`MAX_INSNS`] long, R10 (the frame pointer)
//!    is never written, stack accesses are 8-byte aligned within the
//!    512-byte frame, only known helper ids are called.
//! 2. **Control-flow graph.** Every jump target is in bounds, so the edge
//!    set is well defined.
//! 3. **Graph checks.** Every edge goes **strictly forward** (no back-edges
//!    ⇒ termination is structural and program order is a topological
//!    order) and the last instruction is `exit`, so no path falls off the
//!    end. Unreachable code is found by step 4, which also discounts
//!    branches it proves dead, and reported as a warning.
//! 4. **Abstract interpretation.** One forward pass tracks, per register
//!    and stack slot, a conservative description of every value it may
//!    hold — type tag (scalar / frame pointer / uninitialized), unsigned
//!    range `[umin, umax]` and "known bits" (the kernel's `struct tnum`: a
//!    `value`/`mask` pair where mask bits are unknown) — and rejects on the
//!    first unsafe state.
//!
//! Steps 1–3 are one linear scan (`check_structure`); step 4 is the rest
//! of this module:
//!
//! * every ALU op propagates ranges and known bits with the kernel's
//!   transfer functions (`tnum_add`, `tnum_and`, ... from
//!   `kernel/bpf/tnum.c`);
//! * path-sensitive branch refinement: each conditional jump tightens the
//!   ranges on its taken and fall-through edges (`reg_set_min_max`), and
//!   statically infeasible edges are pruned, as the kernel's verifier does;
//! * per-path state join at merge points (range hull + tnum union; a
//!   register or slot written on only one path joins to *uninitialized*);
//! * defined-before-use from the type tags: reading a register or loading a
//!   stack slot that is uninitialized on some path reaching the read is an
//!   error (R1 = context and R10 = fp are defined at entry; helper calls
//!   define R0 and clobber R1–R5);
//! * helper call checking against the [`crate::helpers::HELPER_SIGNATURES`]
//!   table: argument type tags, array-map element indices proven in bounds
//!   against the bound [`AnalysisCtx`] map layout, divisors proven
//!   nonzero, shift amounts proven `< 64`;
//! * dead-code detection and a structured [`AnalysisReport`] of per-insn
//!   proven facts and warnings.
//!
//! That proof is why eBPF map access costs no bounds check on the hot
//! path, which for the paper's per-connection dispatch program (§5.1.3,
//! Algorithm 2) is the entire point of being in the kernel. Programs that
//! cannot be proven safe are *rejected* ([`AnalysisError`]), exactly as
//! `bpf(BPF_PROG_LOAD)` refuses them. A clean report (no warnings) is what
//! the attach constructors demand ([`crate::program::AttachedProgram`]);
//! [`crate::kernel`] lowers from the same report.
//!
//! ## Scope notes
//!
//! * This ISA has no pointer loads besides the stack, and
//!   `bpf_map_lookup_elem` returns the element value rather than a pointer
//!   (crate-level simplification), so the type lattice needs only
//!   scalar / fp / uninit — the map-value-pointer state of the kernel
//!   verifier collapses into "scalar from a proven-in-bounds lookup".
//! * `bpf_sk_select_reuseport` keeps its runtime socket-slot check: an
//!   empty or out-of-range slot returns `-ENOENT` and Algorithm 2 falls
//!   back, mirroring kernel semantics. The analysis records a proof when
//!   the index is statically bounded but never demands one.

use crate::helpers::{signature, ArgKind, RetKind, ENOENT_RET};
use crate::insn::{Alu, Cond, Insn, Op, Reg, Src, MAX_INSNS, NUM_REGS, STACK_SIZE};
use crate::maps::{MapKind, MapRegistry};
use std::collections::BTreeMap;
use std::fmt;

/// Number of 8-byte stack slots tracked.
const STACK_SLOTS: usize = STACK_SIZE / 8;

/// Maximum number of distinct fds a single fd-typed argument range may
/// span before the analysis gives up (guards the per-fd binding loop).
/// Sized for the grouped program's computed fds: one fd per worker group,
/// so this admits deployments of up to `65536 * 64` workers.
const MAX_FD_FAN: u64 = 65536;

// ---------------------------------------------------------------------------
// Known-bits tracking (kernel `struct tnum`)
// ---------------------------------------------------------------------------

/// A tracked number: bits set in `mask` are unknown; for known bits the
/// truth is in `value`. Invariant: `value & mask == 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tnum {
    /// Known-bit values.
    pub value: u64,
    /// Unknown-bit positions.
    pub mask: u64,
}

// Method names deliberately mirror the kernel's `tnum_add`/`tnum_sub`/…
// rather than the std operator traits, to keep the transfer functions
// diffable against `kernel/bpf/tnum.c`.
#[allow(clippy::should_implement_trait)]
impl Tnum {
    /// Completely unknown 64-bit value.
    pub const UNKNOWN: Tnum = Tnum {
        value: 0,
        mask: u64::MAX,
    };

    /// A fully known constant.
    pub const fn constant(v: u64) -> Self {
        Tnum { value: v, mask: 0 }
    }

    /// An unknown value within `bits` low bits (upper bits known zero).
    pub const fn low_bits(bits: u32) -> Self {
        Tnum {
            value: 0,
            mask: if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            },
        }
    }

    /// True when every bit is known.
    pub fn is_const(&self) -> bool {
        self.mask == 0
    }

    /// Smallest value consistent with the known bits.
    pub fn min(&self) -> u64 {
        self.value
    }

    /// Largest value consistent with the known bits.
    pub fn max(&self) -> u64 {
        self.value | self.mask
    }

    /// Could this tracked number be exactly `v`?
    pub fn could_be(&self, v: u64) -> bool {
        v & !self.mask == self.value
    }

    /// `tnum_add`.
    pub fn add(self, o: Tnum) -> Tnum {
        let sm = self.mask.wrapping_add(o.mask);
        let sv = self.value.wrapping_add(o.value);
        let sigma = sm.wrapping_add(sv);
        let chi = sigma ^ sv;
        let mu = chi | self.mask | o.mask;
        Tnum {
            value: sv & !mu,
            mask: mu,
        }
    }

    /// `tnum_sub`.
    pub fn sub(self, o: Tnum) -> Tnum {
        let dv = self.value.wrapping_sub(o.value);
        let alpha = dv.wrapping_add(self.mask);
        let beta = dv.wrapping_sub(o.mask);
        let chi = alpha ^ beta;
        let mu = chi | self.mask | o.mask;
        Tnum {
            value: dv & !mu,
            mask: mu,
        }
    }

    /// `tnum_and`.
    pub fn and(self, o: Tnum) -> Tnum {
        let alpha = self.value | self.mask;
        let beta = o.value | o.mask;
        let v = self.value & o.value;
        Tnum {
            value: v,
            mask: alpha & beta & !v,
        }
    }

    /// `tnum_or`.
    pub fn or(self, o: Tnum) -> Tnum {
        let v = self.value | o.value;
        let mu = self.mask | o.mask;
        Tnum {
            value: v,
            mask: mu & !v,
        }
    }

    /// `tnum_xor`.
    pub fn xor(self, o: Tnum) -> Tnum {
        let v = self.value ^ o.value;
        let mu = self.mask | o.mask;
        Tnum {
            value: v & !mu,
            mask: mu,
        }
    }

    /// `tnum_lshift` by a known amount (< 64).
    pub fn lshift(self, s: u32) -> Tnum {
        Tnum {
            value: self.value << s,
            mask: self.mask << s,
        }
    }

    /// `tnum_rshift` by a known amount (< 64).
    pub fn rshift(self, s: u32) -> Tnum {
        Tnum {
            value: self.value >> s,
            mask: self.mask >> s,
        }
    }

    /// `tnum_arshift` by a known amount (< 64). An unknown sign bit fills
    /// unknown high bits, which stays conservative.
    pub fn arshift(self, s: u32) -> Tnum {
        Tnum {
            value: ((self.value as i64) >> s) as u64 & !(((self.mask as i64) >> s) as u64),
            mask: ((self.mask as i64) >> s) as u64,
        }
    }

    /// Multiplication: exact for constants, conservative otherwise.
    pub fn mul(self, o: Tnum) -> Tnum {
        if self.is_const() && o.is_const() {
            Tnum::constant(self.value.wrapping_mul(o.value))
        } else if (self.is_const() && self.value == 0) || (o.is_const() && o.value == 0) {
            Tnum::constant(0)
        } else {
            Tnum::UNKNOWN
        }
    }

    /// Join (path merge): a bit stays known only when known *and equal* on
    /// both sides.
    pub fn union(self, o: Tnum) -> Tnum {
        let known = !self.mask & !o.mask & !(self.value ^ o.value);
        Tnum {
            value: self.value & known,
            mask: !known,
        }
    }

    /// Meet (branch refinement): combine two sources of knowledge about
    /// the *same* value. `None` when they contradict (infeasible path).
    pub fn intersect(self, o: Tnum) -> Option<Tnum> {
        // Bits known in both must agree.
        let both = !self.mask & !o.mask;
        if (self.value ^ o.value) & both != 0 {
            return None;
        }
        let mask = self.mask & o.mask;
        Some(Tnum {
            value: (self.value | o.value) & !mask,
            mask,
        })
    }
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// Register type tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Never written on some path reaching here.
    Uninit,
    /// A plain 64-bit scalar.
    Scalar,
    /// The read-only frame pointer (R10 and its copies).
    Fp,
}

/// Abstract value: type tag + unsigned range + known bits. Signed bounds
/// are derived on demand (see [`AbsVal::smin`]/[`AbsVal::smax`]) — with
/// only unsigned conditional jumps in the ISA they never refine anything
/// the unsigned range cannot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AbsVal {
    kind: Kind,
    umin: u64,
    umax: u64,
    tnum: Tnum,
}

impl AbsVal {
    fn uninit() -> Self {
        AbsVal {
            kind: Kind::Uninit,
            umin: 0,
            umax: u64::MAX,
            tnum: Tnum::UNKNOWN,
        }
    }

    fn fp() -> Self {
        AbsVal {
            kind: Kind::Fp,
            umin: 0,
            umax: u64::MAX,
            tnum: Tnum::UNKNOWN,
        }
    }

    fn unknown() -> Self {
        AbsVal {
            kind: Kind::Scalar,
            umin: 0,
            umax: u64::MAX,
            tnum: Tnum::UNKNOWN,
        }
    }

    fn constant(v: u64) -> Self {
        AbsVal {
            kind: Kind::Scalar,
            umin: v,
            umax: v,
            tnum: Tnum::constant(v),
        }
    }

    fn range(umin: u64, umax: u64) -> Self {
        AbsVal {
            kind: Kind::Scalar,
            umin,
            umax,
            tnum: Tnum::UNKNOWN,
        }
        .normalized()
    }

    /// Derived signed minimum (kernel `smin_value`).
    fn smin(&self) -> i64 {
        if self.umax <= i64::MAX as u64 || self.umin > i64::MAX as u64 {
            self.umin as i64
        } else {
            i64::MIN
        }
    }

    /// Derived signed maximum (kernel `smax_value`).
    fn smax(&self) -> i64 {
        if self.umax <= i64::MAX as u64 || self.umin > i64::MAX as u64 {
            self.umax as i64
        } else {
            i64::MAX
        }
    }

    /// Tighten range from tnum and vice versa; collapse constants.
    fn normalized(mut self) -> Self {
        self.umin = self.umin.max(self.tnum.min());
        self.umax = self.umax.min(self.tnum.max());
        if self.umin == self.umax {
            self.tnum = Tnum::constant(self.umin);
        }
        self
    }

    /// True when no concrete value satisfies the constraints — the path
    /// carrying this value is infeasible.
    fn is_bottom(&self) -> bool {
        self.umin > self.umax
    }

    /// Could this value be exactly zero?
    fn possibly_zero(&self) -> bool {
        self.umin == 0 && self.tnum.could_be(0)
    }

    /// True when the value is a single known constant.
    fn as_const(&self) -> Option<u64> {
        (self.umin == self.umax).then_some(self.umin)
    }

    /// Path-join hull.
    fn join(&self, o: &AbsVal) -> AbsVal {
        match (self.kind, o.kind) {
            (Kind::Uninit, _) | (_, Kind::Uninit) => AbsVal::uninit(),
            (Kind::Fp, Kind::Fp) => AbsVal::fp(),
            // fp merged with a scalar: no longer a usable pointer, treat
            // as an arbitrary scalar.
            (Kind::Fp, _) | (_, Kind::Fp) => AbsVal::unknown(),
            (Kind::Scalar, Kind::Scalar) => AbsVal {
                kind: Kind::Scalar,
                umin: self.umin.min(o.umin),
                umax: self.umax.max(o.umax),
                tnum: self.tnum.union(o.tnum),
            }
            .normalized(),
        }
    }
}

/// Power-of-two upper bound: smallest `2^k - 1 >= x`.
fn pow2_bound(x: u64) -> u64 {
    if x == 0 {
        0
    } else {
        u64::MAX >> x.leading_zeros()
    }
}

/// ALU transfer function over scalars (`adjust_scalar_min_max_vals`).
/// `a` is the destination's current value, `b` the source operand.
fn alu_transfer(op: Alu, a: &AbsVal, b: &AbsVal) -> AbsVal {
    // Arithmetic on a frame pointer degrades to unknown (the caller has
    // already rejected uninitialized operands).
    if op != Alu::Mov && (a.kind != Kind::Scalar || b.kind != Kind::Scalar) {
        return AbsVal::unknown();
    }
    let out = match op {
        Alu::Mov => return *b,
        Alu::Add => {
            let tnum = a.tnum.add(b.tnum);
            match a.umax.checked_add(b.umax) {
                Some(hi) => AbsVal {
                    kind: Kind::Scalar,
                    umin: a.umin + b.umin,
                    umax: hi,
                    tnum,
                },
                None => AbsVal {
                    tnum,
                    ..AbsVal::unknown()
                },
            }
        }
        Alu::Sub => {
            let tnum = a.tnum.sub(b.tnum);
            if a.umin >= b.umax {
                AbsVal {
                    kind: Kind::Scalar,
                    umin: a.umin - b.umax,
                    umax: a.umax - b.umin,
                    tnum,
                }
            } else {
                AbsVal {
                    tnum,
                    ..AbsVal::unknown()
                }
            }
        }
        Alu::Mul => {
            let tnum = a.tnum.mul(b.tnum);
            match a.umax.checked_mul(b.umax) {
                Some(hi) => AbsVal {
                    kind: Kind::Scalar,
                    umin: a.umin * b.umin,
                    umax: hi,
                    tnum,
                },
                None => AbsVal {
                    tnum,
                    ..AbsVal::unknown()
                },
            }
        }
        Alu::And => AbsVal {
            kind: Kind::Scalar,
            umin: 0,
            umax: a.umax.min(b.umax),
            tnum: a.tnum.and(b.tnum),
        },
        Alu::Or => AbsVal {
            kind: Kind::Scalar,
            umin: a.umin.max(b.umin),
            umax: pow2_bound(a.umax | b.umax),
            tnum: a.tnum.or(b.tnum),
        },
        Alu::Xor => AbsVal {
            kind: Kind::Scalar,
            umin: 0,
            umax: pow2_bound(a.umax | b.umax),
            tnum: a.tnum.xor(b.tnum),
        },
        Alu::Lsh => {
            if b.umax >= 64 {
                AbsVal::unknown() // masked shift: caller warns
            } else {
                let (s1, s2) = (b.umin as u32, b.umax as u32);
                let tnum = if b.umin == b.umax {
                    a.tnum.lshift(s1)
                } else {
                    Tnum::UNKNOWN
                };
                if a.umax.leading_zeros() >= s2 {
                    AbsVal {
                        kind: Kind::Scalar,
                        umin: a.umin << s1,
                        umax: a.umax << s2,
                        tnum,
                    }
                } else {
                    AbsVal {
                        tnum,
                        ..AbsVal::unknown()
                    }
                }
            }
        }
        Alu::Rsh => {
            if b.umax >= 64 {
                AbsVal::unknown()
            } else {
                let (s1, s2) = (b.umin as u32, b.umax as u32);
                AbsVal {
                    kind: Kind::Scalar,
                    umin: a.umin >> s2,
                    umax: a.umax >> s1,
                    tnum: if b.umin == b.umax {
                        a.tnum.rshift(s1)
                    } else {
                        Tnum::UNKNOWN
                    },
                }
            }
        }
        Alu::Arsh => {
            if b.umax >= 64 {
                AbsVal::unknown()
            } else if a.smin() >= 0 {
                // Non-negative as signed: identical to logical shift.
                return alu_transfer(Alu::Rsh, a, b);
            } else if b.umin == b.umax {
                let s = b.umin as u32;
                let tnum = a.tnum.arshift(s);
                if a.smax() < 0 {
                    // Strictly negative: arithmetic shift preserves order.
                    AbsVal {
                        kind: Kind::Scalar,
                        umin: ((a.umin as i64) >> s) as u64,
                        umax: ((a.umax as i64) >> s) as u64,
                        tnum,
                    }
                } else {
                    AbsVal {
                        tnum,
                        ..AbsVal::unknown()
                    }
                }
            } else {
                AbsVal::unknown()
            }
        }
        Alu::Div => {
            // Caller has rejected possibly-zero divisors; the BPF
            // "div-by-zero yields 0" case is thus unreachable.
            let lo_div = b.umin.max(1);
            AbsVal {
                kind: Kind::Scalar,
                umin: a.umin / b.umax.max(1),
                umax: a.umax / lo_div,
                tnum: if a.tnum.is_const() && b.tnum.is_const() && b.tnum.value != 0 {
                    Tnum::constant(a.tnum.value / b.tnum.value)
                } else {
                    Tnum::UNKNOWN
                },
            }
        }
        Alu::Mod => AbsVal {
            kind: Kind::Scalar,
            umin: 0,
            umax: a.umax.min(b.umax.saturating_sub(1)),
            tnum: if a.tnum.is_const() && b.tnum.is_const() && b.tnum.value != 0 {
                Tnum::constant(a.tnum.value % b.tnum.value)
            } else {
                Tnum::UNKNOWN
            },
        },
    };
    out.normalized()
}

/// Refine `(dst, src)` under the assumption that `dst <cond> src` holds
/// (kernel `reg_set_min_max`). Returns `None` when the assumption is
/// statically impossible — the edge is infeasible and gets pruned.
fn refine(cond: Cond, dst: &AbsVal, src: &AbsVal) -> Option<(AbsVal, AbsVal)> {
    if dst.kind != Kind::Scalar || src.kind != Kind::Scalar {
        // Comparisons against fp copies carry no scalar information.
        return Some((*dst, *src));
    }
    let mut d = *dst;
    let mut s = *src;
    match cond {
        Cond::Eq => {
            let umin = d.umin.max(s.umin);
            let umax = d.umax.min(s.umax);
            let tnum = d.tnum.intersect(s.tnum)?;
            d.umin = umin;
            d.umax = umax;
            d.tnum = tnum;
            s = d;
        }
        Cond::Ne => {
            // Only a boundary constant can tighten an interval.
            if let Some(c) = s.as_const() {
                if d.as_const() == Some(c) {
                    return None;
                }
                if d.umin == c {
                    d.umin += 1;
                }
                if d.umax == c {
                    d.umax -= 1;
                }
            }
            if let Some(c) = d.as_const() {
                if s.umin == c {
                    s.umin += 1;
                }
                if s.umax == c {
                    s.umax -= 1;
                }
            }
        }
        Cond::Gt => {
            if s.umin == u64::MAX || d.umax == 0 {
                return None;
            }
            d.umin = d.umin.max(s.umin + 1);
            s.umax = s.umax.min(d.umax - 1);
        }
        Cond::Ge => {
            d.umin = d.umin.max(s.umin);
            s.umax = s.umax.min(d.umax);
        }
        Cond::Lt => {
            if d.umin == u64::MAX || s.umax == 0 {
                return None;
            }
            d.umax = d.umax.min(s.umax - 1);
            s.umin = s.umin.max(d.umin + 1);
        }
        Cond::Le => {
            d.umax = d.umax.min(s.umax);
            s.umin = s.umin.max(d.umin);
        }
    }
    d = d.normalized();
    s = s.normalized();
    if d.is_bottom() || s.is_bottom() {
        return None;
    }
    Some((d, s))
}

/// The negation of a condition (for the fall-through edge).
fn negate(cond: Cond) -> Cond {
    match cond {
        Cond::Eq => Cond::Ne,
        Cond::Ne => Cond::Eq,
        Cond::Gt => Cond::Le,
        Cond::Ge => Cond::Lt,
        Cond::Lt => Cond::Ge,
        Cond::Le => Cond::Gt,
    }
}

// ---------------------------------------------------------------------------
// Program state
// ---------------------------------------------------------------------------

/// Abstract machine state at one program point.
#[derive(Clone, PartialEq, Eq)]
struct AbsState {
    regs: [AbsVal; NUM_REGS],
    stack: [AbsVal; STACK_SLOTS],
}

impl AbsState {
    /// Entry state: R1 = 32-bit connection hash, R10 = frame pointer.
    fn entry() -> Self {
        let mut regs = [AbsVal::uninit(); NUM_REGS];
        regs[Reg::R1.idx()] = AbsVal {
            kind: Kind::Scalar,
            umin: 0,
            umax: u32::MAX as u64,
            tnum: Tnum::low_bits(32),
        };
        regs[Reg::R10.idx()] = AbsVal::fp();
        AbsState {
            regs,
            stack: [AbsVal::uninit(); STACK_SLOTS],
        }
    }

    fn join(&self, o: &AbsState) -> AbsState {
        let mut out = self.clone();
        for i in 0..NUM_REGS {
            out.regs[i] = self.regs[i].join(&o.regs[i]);
        }
        for i in 0..STACK_SLOTS {
            out.stack[i] = self.stack[i].join(&o.stack[i]);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Analysis context, facts, report
// ---------------------------------------------------------------------------

/// Map layout the program is analyzed against: fd → (kind, size). The
/// analogue of the kernel resolving map fds at `BPF_PROG_LOAD` time.
#[derive(Clone, Debug, Default)]
pub struct AnalysisCtx {
    maps: BTreeMap<u32, (MapKind, usize)>,
}

impl AnalysisCtx {
    /// Empty context (no maps bound).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `fd` to a map of `kind` with `size` elements (builder-style).
    pub fn bind(mut self, fd: u32, kind: MapKind, size: usize) -> Self {
        self.maps.insert(fd, (kind, size));
        self
    }

    /// Snapshot every map registered in `registry`. Freezes the registry's
    /// fd table (program analysis is the `BPF_PROG_LOAD` moment after which
    /// no fds may appear) and binds against the cached layout slice.
    pub fn from_registry(registry: &MapRegistry) -> Self {
        let mut ctx = Self::new();
        for &(fd, kind, size) in registry.layout() {
            ctx.maps.insert(fd, (kind, size));
        }
        ctx
    }

    fn get(&self, fd: u64) -> Option<(MapKind, usize)> {
        u32::try_from(fd)
            .ok()
            .and_then(|fd| self.maps.get(&fd).copied())
    }
}

/// Per-instruction facts the analysis proved (bitset): the margin notes of
/// [`AnalysisReport::render`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InsnFacts(u16);

impl InsnFacts {
    /// Instruction is reachable from entry.
    pub const REACHABLE: InsnFacts = InsnFacts(1 << 0);
    /// Division/modulo divisor proven nonzero on every path.
    pub const DIV_NONZERO: InsnFacts = InsnFacts(1 << 1);
    /// Shift amount proven `< 64` on every path.
    pub const SHIFT_BOUNDED: InsnFacts = InsnFacts(1 << 2);
    /// Array-map element index proven in bounds for the bound map size.
    pub const MAP_KEY_BOUNDED: InsnFacts = InsnFacts(1 << 3);
    /// Sockarray index proven in bounds (informational: the helper is
    /// runtime-checked regardless).
    pub const SOCK_KEY_BOUNDED: InsnFacts = InsnFacts(1 << 4);
    /// Helper arguments match the signature table.
    pub const HELPER_TYPED: InsnFacts = InsnFacts(1 << 5);
    /// Conditional jump proven always taken.
    pub const BRANCH_ALWAYS: InsnFacts = InsnFacts(1 << 6);
    /// Conditional jump proven never taken.
    pub const BRANCH_NEVER: InsnFacts = InsnFacts(1 << 7);

    /// Set union.
    pub fn insert(&mut self, o: InsnFacts) {
        self.0 |= o.0;
    }

    /// True when every fact in `o` is present.
    pub fn contains(&self, o: InsnFacts) -> bool {
        self.0 & o.0 == o.0
    }

    /// Render as short comma-separated labels (stable across releases —
    /// snapshot-tested).
    pub fn labels(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (flag, label) in [
            (Self::DIV_NONZERO, "div-nonzero"),
            (Self::SHIFT_BOUNDED, "shift<64"),
            (Self::MAP_KEY_BOUNDED, "key-bounded"),
            (Self::SOCK_KEY_BOUNDED, "sock-bounded"),
            (Self::HELPER_TYPED, "typed"),
            (Self::BRANCH_ALWAYS, "always-taken"),
            (Self::BRANCH_NEVER, "never-taken"),
        ] {
            if self.contains(flag) {
                out.push(label);
            }
        }
        out
    }
}

/// A non-fatal finding: the program is admissible (the interpreter checks
/// what was not proven) but not attachable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisWarning {
    /// Instruction can never execute.
    DeadCode {
        /// Unreachable instruction index.
        at: usize,
    },
    /// Shift amount may reach 64 or more (the VM masks it, but the intent
    /// is almost certainly a bug — the kernel rejects these outright).
    ShiftMayExceedWidth {
        /// Offending instruction index.
        at: usize,
        /// Largest shift amount the analysis could not exclude.
        umax: u64,
    },
}

impl fmt::Display for AnalysisWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisWarning::DeadCode { at } => write!(f, "insn {at}: unreachable (dead code)"),
            AnalysisWarning::ShiftMayExceedWidth { at, umax } => {
                write!(f, "insn {at}: shift amount may reach {umax} (>= 64)")
            }
        }
    }
}

/// Why a program was refused admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalysisError {
    /// Program has no instructions.
    Empty,
    /// Program exceeds [`MAX_INSNS`].
    TooLong(usize),
    /// Jump at `at` targets `target`, outside the program.
    JumpOutOfBounds {
        /// Jump instruction index.
        at: usize,
        /// Computed absolute target.
        target: i64,
    },
    /// Jump at `at` targets an earlier or same instruction — a loop.
    BackEdge {
        /// Jump instruction index.
        at: usize,
        /// Computed absolute target.
        target: usize,
    },
    /// The last instruction is not `exit`: execution can run off the end.
    FallsOffEnd,
    /// Instruction at `at` writes the read-only frame pointer.
    WritesFramePointer {
        /// Offending instruction index.
        at: usize,
    },
    /// Stack access at `at` is out of frame or misaligned.
    BadStackAccess {
        /// Offending instruction index.
        at: usize,
        /// Byte offset used.
        off: i32,
    },
    /// Call at `at` names a helper the kernel does not export.
    UnknownHelper {
        /// Offending instruction index.
        at: usize,
        /// Helper id.
        helper: u32,
    },
    /// Instruction at `at` reads register `reg` (for a call: helper
    /// argument `reg`) that is unwritten on some path reaching it.
    UninitRegister {
        /// Offending instruction index.
        at: usize,
        /// Register read.
        reg: u8,
    },
    /// Instruction at `at` loads stack slot `off`, which is unwritten on
    /// some path reaching it.
    UninitStack {
        /// Offending instruction index.
        at: usize,
        /// Byte offset loaded.
        off: i32,
    },
    /// Division or modulo by a register that may be zero.
    DivByPossiblyZero {
        /// Offending instruction index.
        at: usize,
    },
    /// Array-map element index not provably in bounds.
    MapKeyOutOfBounds {
        /// Offending call-site index.
        at: usize,
        /// Largest index the analysis could not exclude.
        key_umax: u64,
        /// Size of the smallest map the fd may name.
        size: usize,
    },
    /// Helper argument has the wrong type tag.
    BadHelperArg {
        /// Offending call-site index.
        at: usize,
        /// Helper id.
        helper: u32,
        /// Argument number (1-based, R1..R5).
        arg: u8,
        /// What the signature demands.
        expected: &'static str,
    },
    /// A map fd the context does not bind.
    UnboundMapFd {
        /// Offending call-site index.
        at: usize,
        /// The unbound fd value.
        fd: u64,
    },
    /// An fd argument ranges over too many candidates to enumerate.
    FdRangeTooWide {
        /// Offending call-site index.
        at: usize,
        /// Number of candidate fds.
        span: u64,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Empty => write!(f, "empty program"),
            AnalysisError::TooLong(n) => write!(f, "program too long: {n} > {MAX_INSNS}"),
            AnalysisError::JumpOutOfBounds { at, target } => {
                write!(f, "insn {at}: jump target {target} out of bounds")
            }
            AnalysisError::BackEdge { at, target } => {
                write!(f, "insn {at}: back-edge to {target} (loops forbidden)")
            }
            AnalysisError::FallsOffEnd => write!(f, "execution can fall off program end"),
            AnalysisError::WritesFramePointer { at } => {
                write!(f, "insn {at}: write to read-only frame pointer R10")
            }
            AnalysisError::BadStackAccess { at, off } => {
                write!(f, "insn {at}: bad stack access at offset {off}")
            }
            AnalysisError::UnknownHelper { at, helper } => {
                write!(f, "insn {at}: unknown helper {helper}")
            }
            AnalysisError::UninitRegister { at, reg } => {
                write!(f, "insn {at}: read of uninitialized register r{reg}")
            }
            AnalysisError::UninitStack { at, off } => {
                write!(f, "insn {at}: load of uninitialized stack slot {off}")
            }
            AnalysisError::DivByPossiblyZero { at } => {
                write!(f, "insn {at}: division/modulo by possibly-zero register")
            }
            AnalysisError::MapKeyOutOfBounds { at, key_umax, size } => write!(
                f,
                "insn {at}: array key may reach {key_umax}, map has {size} elements"
            ),
            AnalysisError::BadHelperArg {
                at,
                helper,
                arg,
                expected,
            } => write!(
                f,
                "insn {at}: helper {helper} argument r{arg} must be {expected}"
            ),
            AnalysisError::UnboundMapFd { at, fd } => {
                write!(
                    f,
                    "insn {at}: map fd {fd} is not bound in the analysis context"
                )
            }
            AnalysisError::FdRangeTooWide { at, span } => {
                write!(
                    f,
                    "insn {at}: fd argument spans {span} candidates, unprovable"
                )
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// The fd interval one helper call site was proven to stay within, with
/// every candidate checked against the bound layout. Recorded so
/// [`crate::kernel`]'s lowering can name the one kernel map a call
/// addresses. Exact because the analysis is a single forward pass over a
/// loop-free, forward-jump-only program: each call site is visited exactly
/// once with all predecessor states merged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FdRange {
    /// Map kind every candidate fd was proven to be.
    pub kind: MapKind,
    /// Smallest candidate fd.
    pub lo: u64,
    /// Largest candidate fd.
    pub hi: u64,
}

/// Structured result of a successful analysis: per-instruction proven
/// facts, human-readable range notes, warnings, and per-call-site fd
/// intervals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    facts: Vec<InsnFacts>,
    notes: Vec<String>,
    warnings: Vec<AnalysisWarning>,
    fd_ranges: Vec<Option<FdRange>>,
}

impl AnalysisReport {
    /// Facts proven for instruction `at`.
    pub fn facts(&self, at: usize) -> InsnFacts {
        self.facts.get(at).copied().unwrap_or_default()
    }

    /// The fd interval proven for the helper call at `at`, if that
    /// instruction is a call taking a map fd.
    pub fn fd_range(&self, at: usize) -> Option<FdRange> {
        self.fd_ranges.get(at).copied().flatten()
    }

    /// All warnings.
    pub fn warnings(&self) -> &[AnalysisWarning] {
        &self.warnings
    }

    /// No warnings: the program may be attached.
    pub fn is_clean(&self) -> bool {
        self.warnings.is_empty()
    }

    /// Render the report as an annotated listing — `bpftool prog dump`
    /// with verifier margin notes. Stable format, snapshot-tested.
    pub fn render(&self, prog: &[Insn]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "analysis: {} insns, {} warnings\n",
            self.facts.len(),
            self.warnings.len()
        ));
        for (at, insn) in prog.iter().enumerate() {
            let line = crate::disasm::disasm_insn(at, insn);
            let facts = self.facts(at);
            let mut margin = Vec::new();
            if !facts.contains(InsnFacts::REACHABLE) {
                margin.push("dead".to_string());
            }
            let labels = facts.labels();
            if !labels.is_empty() {
                margin.push(labels.join(","));
            }
            if let Some(note) = self.notes.get(at).filter(|n| !n.is_empty()) {
                margin.push(note.clone());
            }
            if margin.is_empty() {
                out.push_str(&format!("  {line}\n"));
            } else {
                out.push_str(&format!("  {line:<44} ; {}\n", margin.join(" ")));
            }
        }
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The analysis pass
// ---------------------------------------------------------------------------

/// Helper-argument positions: R1..R5 map to `sig.args[0..5]`.
fn arg_reg(i: usize) -> usize {
    i + 1
}

/// Steps 1–3 of admission (module docs): everything that can be decided
/// from the instructions and their jump edges alone, in one linear scan.
/// What it leaves the abstract interpreter to rely on: `prog` is non-empty,
/// every successor index is in bounds and greater than its instruction's,
/// every stack offset names a slot, every helper id has a signature.
fn check_structure(prog: &[Insn]) -> Result<(), AnalysisError> {
    let Some(last) = prog.last() else {
        return Err(AnalysisError::Empty);
    };
    if prog.len() > MAX_INSNS {
        return Err(AnalysisError::TooLong(prog.len()));
    }
    for (at, insn) in prog.iter().enumerate() {
        match insn.0 {
            Op::Ja { off } | Op::Jmp { off, .. } => {
                let target = at as i64 + 1 + off as i64;
                if target < 0 || target >= prog.len() as i64 {
                    return Err(AnalysisError::JumpOutOfBounds { at, target });
                }
                let target = target as usize;
                if target <= at {
                    return Err(AnalysisError::BackEdge { at, target });
                }
            }
            Op::Alu { dst, .. } | Op::LdxStack { dst, .. } if dst == Reg::R10 => {
                return Err(AnalysisError::WritesFramePointer { at });
            }
            Op::LdxStack { off, .. } | Op::StxStack { off, .. }
                if off >= 0 || off < -(STACK_SIZE as i32) || off % 8 != 0 =>
            {
                return Err(AnalysisError::BadStackAccess { at, off });
            }
            Op::Call { helper } if signature(helper).is_none() => {
                return Err(AnalysisError::UnknownHelper { at, helper });
            }
            _ => {}
        }
    }
    // Jumps only go forward and stay in bounds, so a final jump was refused
    // above and a final `exit` closes every path.
    if last.0 != Op::Exit {
        return Err(AnalysisError::FallsOffEnd);
    }
    Ok(())
}

/// Index of the 8-byte slot at frame offset `off` (validated by
/// [`check_structure`]).
fn stack_slot(off: i32) -> usize {
    ((-off) / 8 - 1) as usize
}

/// Admit a program: the structural scan, then the abstract interpreter —
/// the only way bytecode becomes runnable ([`crate::vm::Vm::load_analyzed`]
/// calls nothing else).
///
/// On success the returned [`AnalysisReport`] lists per-instruction proven
/// facts and the warnings, if any. Rejection mirrors `BPF_PROG_LOAD`: the
/// program never runs.
pub fn analyze(prog: &[Insn], ctx: &AnalysisCtx) -> Result<AnalysisReport, AnalysisError> {
    check_structure(prog)?;
    let n = prog.len();
    let mut facts = vec![InsnFacts::default(); n];
    let mut notes = vec![String::new(); n];
    let mut warnings = Vec::new();
    let mut fd_ranges: Vec<Option<FdRange>> = vec![None; n];
    // All edges go forward, so one in-order pass visits every instruction
    // after all its predecessors: `incoming[at]` is final when read.
    let mut incoming: Vec<Option<AbsState>> = vec![None; n];
    incoming[0] = Some(AbsState::entry());

    let merge = |slot: &mut Option<AbsState>, state: &AbsState| match slot {
        None => *slot = Some(state.clone()),
        Some(existing) => *existing = existing.join(state),
    };

    for at in 0..n {
        let Some(mut state) = incoming[at].clone() else {
            continue; // dead code: reported after the pass
        };
        facts[at].insert(InsnFacts::REACHABLE);
        // Defined-before-use: the value of `reg`, or the rejection.
        let read = |state: &AbsState, reg: Reg| -> Result<AbsVal, AnalysisError> {
            let v = state.regs[reg.idx()];
            if v.kind == Kind::Uninit {
                return Err(AnalysisError::UninitRegister { at, reg: reg.0 });
            }
            Ok(v)
        };
        let read_src = |state: &AbsState, src: Src| match src {
            Src::Reg(r) => read(state, r),
            Src::Imm(i) => Ok(AbsVal::constant(i as u64)),
        };
        match prog[at].0 {
            Op::Alu { op, dst, src } => {
                // Mov defines dst without reading it; others read-modify.
                let a = if op == Alu::Mov {
                    state.regs[dst.idx()]
                } else {
                    read(&state, dst)?
                };
                let b = read_src(&state, src)?;
                match op {
                    Alu::Div | Alu::Mod => {
                        if b.kind != Kind::Scalar || b.possibly_zero() {
                            return Err(AnalysisError::DivByPossiblyZero { at });
                        }
                        facts[at].insert(InsnFacts::DIV_NONZERO);
                    }
                    Alu::Lsh | Alu::Rsh | Alu::Arsh => {
                        if b.kind == Kind::Scalar && b.umax < 64 {
                            facts[at].insert(InsnFacts::SHIFT_BOUNDED);
                        } else {
                            warnings
                                .push(AnalysisWarning::ShiftMayExceedWidth { at, umax: b.umax });
                        }
                    }
                    _ => {}
                }
                let out = alu_transfer(op, &a, &b);
                if out.kind == Kind::Scalar && !(out.umin == 0 && out.umax == u64::MAX) {
                    notes[at] = format!("r{} in [{}, {}]", dst.0, out.umin, out.umax);
                }
                state.regs[dst.idx()] = out;
                merge(&mut incoming[at + 1], &state);
            }
            Op::Ja { off } => {
                let target = (at as i64 + 1 + off as i64) as usize;
                merge(&mut incoming[target], &state);
            }
            Op::Jmp {
                cond,
                dst,
                src,
                off,
            } => {
                let target = (at as i64 + 1 + off as i64) as usize;
                let a = read(&state, dst)?;
                let b = read_src(&state, src)?;
                let apply = |state: &AbsState, d: AbsVal, s: AbsVal| {
                    let mut st = state.clone();
                    st.regs[dst.idx()] = d;
                    if let Src::Reg(r) = src {
                        st.regs[r.idx()] = s;
                    }
                    st
                };
                let taken = refine(cond, &a, &b);
                let fall = refine(negate(cond), &a, &b);
                match (&taken, &fall) {
                    (Some(_), None) => facts[at].insert(InsnFacts::BRANCH_ALWAYS),
                    (None, Some(_)) => facts[at].insert(InsnFacts::BRANCH_NEVER),
                    _ => {}
                }
                if let Some((d, s)) = taken {
                    merge(&mut incoming[target], &apply(&state, d, s));
                }
                if let Some((d, s)) = fall {
                    merge(&mut incoming[at + 1], &apply(&state, d, s));
                }
            }
            Op::StxStack { off, src } => {
                state.stack[stack_slot(off)] = read(&state, src)?;
                merge(&mut incoming[at + 1], &state);
            }
            Op::LdxStack { dst, off } => {
                let v = state.stack[stack_slot(off)];
                if v.kind == Kind::Uninit {
                    return Err(AnalysisError::UninitStack { at, off });
                }
                if v.kind == Kind::Scalar && !(v.umin == 0 && v.umax == u64::MAX) {
                    notes[at] = format!("r{} in [{}, {}]", dst.0, v.umin, v.umax);
                }
                state.regs[dst.idx()] = v;
                merge(&mut incoming[at + 1], &state);
            }
            Op::Call { helper } => {
                apply_call(
                    at,
                    helper,
                    &mut state,
                    ctx,
                    &mut facts,
                    &mut notes,
                    &mut fd_ranges,
                )?;
                merge(&mut incoming[at + 1], &state);
            }
            Op::Exit => {
                read(&state, Reg::R0)?;
            }
        }
    }

    for (at, f) in facts.iter().enumerate() {
        if !f.contains(InsnFacts::REACHABLE) {
            warnings.push(AnalysisWarning::DeadCode { at });
        }
    }
    warnings.sort_by_key(|w| match w {
        AnalysisWarning::DeadCode { at } | AnalysisWarning::ShiftMayExceedWidth { at, .. } => *at,
    });

    Ok(AnalysisReport {
        facts,
        notes,
        warnings,
        fd_ranges,
    })
}

/// Check one helper call against its signature and model its effects.
#[allow(clippy::too_many_arguments)]
fn apply_call(
    at: usize,
    helper: u32,
    state: &mut AbsState,
    ctx: &AnalysisCtx,
    facts: &mut [InsnFacts],
    notes: &mut [String],
    fd_ranges: &mut [Option<FdRange>],
) -> Result<(), AnalysisError> {
    let sig = signature(helper).expect("check_structure admits only known helpers");
    // Captured before the call clobbers R1-R5: reciprocal_scale models its
    // result from the range argument.
    let scale_range = state.regs[Reg::R2.idx()];

    for (i, kind) in sig.args.iter().enumerate() {
        let reg = state.regs[arg_reg(i)];
        let argno = arg_reg(i) as u8;
        match *kind {
            ArgKind::Unused => {}
            ArgKind::Scalar | ArgKind::MapKey => {
                if reg.kind == Kind::Uninit {
                    return Err(AnalysisError::UninitRegister { at, reg: argno });
                }
                if reg.kind != Kind::Scalar {
                    return Err(AnalysisError::BadHelperArg {
                        at,
                        helper,
                        arg: argno,
                        expected: "a scalar",
                    });
                }
            }
            ArgKind::ArrayFd { strict_key } => {
                let size = resolve_fd_range(at, helper, argno, &reg, MapKind::Array, ctx)?;
                fd_ranges[at] = Some(FdRange {
                    kind: MapKind::Array,
                    lo: reg.umin,
                    hi: reg.umax,
                });
                let key = state.regs[arg_reg(i + 1)];
                if key.kind != Kind::Scalar {
                    return Err(AnalysisError::BadHelperArg {
                        at,
                        helper,
                        arg: argno + 1,
                        expected: "a scalar element index",
                    });
                }
                if key.umax < size as u64 {
                    facts[at].insert(InsnFacts::MAP_KEY_BOUNDED);
                    notes[at] = format!("key<{size}");
                } else if strict_key {
                    return Err(AnalysisError::MapKeyOutOfBounds {
                        at,
                        key_umax: key.umax,
                        size,
                    });
                }
            }
            ArgKind::SockArrayFd => {
                let size = resolve_fd_range(at, helper, argno, &reg, MapKind::SockArray, ctx)?;
                fd_ranges[at] = Some(FdRange {
                    kind: MapKind::SockArray,
                    lo: reg.umin,
                    hi: reg.umax,
                });
                let key = state.regs[arg_reg(i + 1)];
                if key.kind != Kind::Scalar {
                    return Err(AnalysisError::BadHelperArg {
                        at,
                        helper,
                        arg: argno + 1,
                        expected: "a scalar socket index",
                    });
                }
                if key.umax < size as u64 {
                    facts[at].insert(InsnFacts::SOCK_KEY_BOUNDED);
                }
            }
        }
    }
    facts[at].insert(InsnFacts::HELPER_TYPED);

    // Model the return value and clobber the argument registers, exactly
    // as the checked VM does.
    state.regs[Reg::R0.idx()] = match sig.ret {
        RetKind::AnyScalar => AbsVal::unknown(),
        RetKind::ScaledBySecondArg => {
            if scale_range.kind != Kind::Scalar {
                AbsVal::unknown()
            } else {
                // The helper truncates to u32; result < range (or 0 when
                // range == 0).
                let r32max = scale_range.umax.min(u32::MAX as u64);
                AbsVal::range(0, r32max.saturating_sub(1))
            }
        }
        RetKind::StatusOrEnoent => {
            let mut v = AbsVal::range(0, ENOENT_RET);
            v.tnum = Tnum::constant(0).union(Tnum::constant(ENOENT_RET));
            v.normalized()
        }
    };
    for r in 1..=5 {
        state.regs[r] = AbsVal::uninit();
    }
    Ok(())
}

/// Resolve the set of maps an fd-typed argument may name; every candidate
/// must be bound with the expected kind. Returns the smallest candidate
/// size (indices proven against it are in bounds for every candidate).
fn resolve_fd_range(
    at: usize,
    helper: u32,
    argno: u8,
    reg: &AbsVal,
    want: MapKind,
    ctx: &AnalysisCtx,
) -> Result<usize, AnalysisError> {
    if reg.kind == Kind::Uninit {
        return Err(AnalysisError::UninitRegister { at, reg: argno });
    }
    if reg.kind != Kind::Scalar {
        return Err(AnalysisError::BadHelperArg {
            at,
            helper,
            arg: argno,
            expected: "a map fd scalar",
        });
    }
    // An unconstrained scalar spans all 2⁶⁴ values: saturate, do not wrap.
    let span = (reg.umax - reg.umin).saturating_add(1);
    if span > MAX_FD_FAN {
        return Err(AnalysisError::FdRangeTooWide { at, span });
    }
    let mut min_size: Option<usize> = None;
    for fd in reg.umin..=reg.umax {
        if !reg.tnum.could_be(fd) {
            continue;
        }
        let Some((kind, size)) = ctx.get(fd) else {
            return Err(AnalysisError::UnboundMapFd { at, fd });
        };
        if kind != want {
            return Err(AnalysisError::BadHelperArg {
                at,
                helper,
                arg: argno,
                expected: match want {
                    MapKind::Array => "an array map fd",
                    MapKind::SockArray => "a sockarray fd",
                },
            });
        }
        min_size = Some(min_size.map_or(size, |m| m.min(size)));
    }
    // The tnum excluded every value in the range: cannot happen for a
    // normalized value, but stay total.
    min_size.ok_or(AnalysisError::UnboundMapFd { at, fd: reg.umin })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::helpers::{HELPER_MAP_LOOKUP, HELPER_RECIPROCAL_SCALE};

    fn ctx_one_array(size: usize) -> AnalysisCtx {
        AnalysisCtx::new().bind(0, MapKind::Array, size)
    }

    // -- tnum algebra ------------------------------------------------------

    #[test]
    fn tnum_constant_arithmetic_is_exact() {
        let a = Tnum::constant(12);
        let b = Tnum::constant(30);
        assert_eq!(a.add(b), Tnum::constant(42));
        assert_eq!(b.sub(a), Tnum::constant(18));
        assert_eq!(a.and(b), Tnum::constant(12 & 30));
        assert_eq!(a.or(b), Tnum::constant(12 | 30));
        assert_eq!(a.xor(b), Tnum::constant(12 ^ 30));
        assert_eq!(a.lshift(3), Tnum::constant(12 << 3));
        assert_eq!(b.rshift(2), Tnum::constant(30 >> 2));
    }

    #[test]
    fn tnum_and_learns_known_zeros() {
        // unknown & 0x3f: upper 58 bits become known-zero.
        let masked = Tnum::UNKNOWN.and(Tnum::constant(0x3f));
        assert_eq!(masked.value, 0);
        assert_eq!(masked.mask, 0x3f);
        assert_eq!(masked.max(), 0x3f);
        assert!(masked.could_be(0));
        assert!(!masked.could_be(0x40));
    }

    #[test]
    fn tnum_union_keeps_agreeing_bits() {
        let u = Tnum::constant(0b1010).union(Tnum::constant(0b1000));
        assert!(u.could_be(0b1010));
        assert!(u.could_be(0b1000));
        assert!(!u.could_be(0b0100));
        // Bit 3 agrees on both sides and stays known.
        assert_eq!(u.value & 0b1000, 0b1000);
    }

    #[test]
    fn tnum_intersect_detects_contradiction() {
        assert_eq!(Tnum::constant(1).intersect(Tnum::constant(2)), None);
        let masked = Tnum::UNKNOWN.and(Tnum::constant(0xff));
        assert_eq!(masked.intersect(Tnum::constant(7)), Some(Tnum::constant(7)));
    }

    // -- soundness spot checks for the transfer functions ------------------

    /// Every concrete evaluation must land inside the abstract result.
    fn assert_sound(op: Alu, avals: &[u64], bvals: &[u64]) {
        let abstract_a = avals
            .iter()
            .map(|&v| AbsVal::constant(v))
            .reduce(|x, y| x.join(&y))
            .unwrap();
        let abstract_b = bvals
            .iter()
            .map(|&v| AbsVal::constant(v))
            .reduce(|x, y| x.join(&y))
            .unwrap();
        let out = alu_transfer(op, &abstract_a, &abstract_b);
        for &a in avals {
            for &b in bvals {
                let got = op.eval(a, b);
                assert!(
                    out.umin <= got && got <= out.umax && out.tnum.could_be(got),
                    "{op:?}: {a} op {b} = {got} outside [{}, {}] tnum {:?}",
                    out.umin,
                    out.umax,
                    out.tnum
                );
            }
        }
    }

    #[test]
    fn transfer_functions_cover_concrete_eval() {
        let interesting: &[u64] = &[0, 1, 2, 3, 5, 63, 64, 255, u32::MAX as u64, u64::MAX - 1];
        let shifts: &[u64] = &[0, 1, 5, 31, 63];
        for op in [
            Alu::Add,
            Alu::Sub,
            Alu::Mul,
            Alu::And,
            Alu::Or,
            Alu::Xor,
            Alu::Mod,
        ] {
            assert_sound(op, interesting, &[1, 7, 255]);
        }
        for op in [Alu::Lsh, Alu::Rsh, Alu::Arsh] {
            assert_sound(op, interesting, shifts);
        }
        assert_sound(Alu::Div, interesting, &[1, 7, 255]);
    }

    // -- acceptance: the proofs the dispatch program depends on ------------

    #[test]
    fn masked_index_is_provably_in_bounds() {
        // r2 = hash & 7; lookup in an 8-element array: provable.
        let mut a = Assembler::new();
        a.mov(Reg::R2, Reg::R1);
        a.alu_imm(Alu::And, Reg::R2, 7);
        a.mov_imm(Reg::R1, 0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        let report = analyze(&prog, &ctx_one_array(8)).expect("provably in bounds");
        assert!(report.is_clean());
        assert!(report.facts(3).contains(InsnFacts::MAP_KEY_BOUNDED));
        assert!(report.facts(3).contains(InsnFacts::HELPER_TYPED));
    }

    #[test]
    fn oob_map_key_rejected() {
        // r2 = hash & 15 against an 8-element array: index may reach 15.
        let mut a = Assembler::new();
        a.mov(Reg::R2, Reg::R1);
        a.alu_imm(Alu::And, Reg::R2, 15);
        a.mov_imm(Reg::R1, 0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        match analyze(&prog, &ctx_one_array(8)) {
            Err(AnalysisError::MapKeyOutOfBounds {
                at: 3,
                key_umax: 15,
                size: 8,
            }) => {}
            other => panic!("expected MapKeyOutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn unrefined_key_rejected_even_for_huge_map() {
        // The raw 32-bit hash can reach u32::MAX; no finite array admits it
        // without a mask or guard.
        let mut a = Assembler::new();
        a.mov(Reg::R2, Reg::R1);
        a.mov_imm(Reg::R1, 0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        assert!(matches!(
            analyze(&prog, &ctx_one_array(1024)),
            Err(AnalysisError::MapKeyOutOfBounds { .. })
        ));
    }

    #[test]
    fn branch_guard_proves_key_in_bounds() {
        // if r2 > 7 goto fallback; lookup — the classic guarded access.
        let mut a = Assembler::new();
        let fallback = a.label();
        a.mov(Reg::R2, Reg::R1);
        a.jmp_imm(Cond::Gt, Reg::R2, 7, fallback);
        a.mov_imm(Reg::R1, 0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        a.bind(fallback);
        a.mov_imm(Reg::R0, 0);
        a.exit();
        let prog = a.finish();
        let report = analyze(&prog, &ctx_one_array(8)).expect("guard refines the range");
        assert!(report.is_clean());
        assert!(report.facts(3).contains(InsnFacts::MAP_KEY_BOUNDED));
    }

    #[test]
    fn possibly_zero_divisor_rejected() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R0, 100);
        a.mov(Reg::R2, Reg::R1); // hash: may be zero
        a.alu(Alu::Div, Reg::R0, Reg::R2);
        a.exit();
        let prog = a.finish();
        assert_eq!(
            analyze(&prog, &AnalysisCtx::new()),
            Err(AnalysisError::DivByPossiblyZero { at: 2 })
        );
    }

    #[test]
    fn constant_zero_divisor_rejected() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R0, 100);
        a.alu_imm(Alu::Mod, Reg::R0, 0);
        a.exit();
        let prog = a.finish();
        assert_eq!(
            analyze(&prog, &AnalysisCtx::new()),
            Err(AnalysisError::DivByPossiblyZero { at: 1 })
        );
    }

    #[test]
    fn guarded_divisor_accepted() {
        // if r2 == 0 goto out; r0 /= r2 — the Ne refinement on the
        // fall-through edge proves the divisor nonzero.
        let mut a = Assembler::new();
        let out = a.label();
        a.mov_imm(Reg::R0, 100);
        a.mov(Reg::R2, Reg::R1);
        a.jmp_imm(Cond::Eq, Reg::R2, 0, out);
        a.alu(Alu::Div, Reg::R0, Reg::R2);
        a.bind(out);
        a.exit();
        let prog = a.finish();
        let report = analyze(&prog, &AnalysisCtx::new()).expect("guard proves nonzero");
        assert!(report.is_clean());
        assert!(report.facts(3).contains(InsnFacts::DIV_NONZERO));
    }

    #[test]
    fn oversized_shift_warns_but_loads() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R0, 1);
        a.mov(Reg::R2, Reg::R1); // up to u32::MAX
        a.alu(Alu::Lsh, Reg::R0, Reg::R2);
        a.exit();
        let prog = a.finish();
        let report = analyze(&prog, &AnalysisCtx::new()).expect("warning, not error");
        assert!(!report.is_clean());
        assert_eq!(
            report.warnings(),
            &[AnalysisWarning::ShiftMayExceedWidth {
                at: 2,
                umax: u32::MAX as u64
            }]
        );
    }

    #[test]
    fn dead_code_after_always_taken_branch_warns() {
        // r0 = 5; if r0 >= 1 goto exit — the fall-through mov is dead.
        let mut a = Assembler::new();
        let end = a.label();
        a.mov_imm(Reg::R0, 5);
        a.jmp_imm(Cond::Ge, Reg::R0, 1, end);
        a.mov_imm(Reg::R0, 0);
        a.bind(end);
        a.exit();
        let prog = a.finish();
        let report = analyze(&prog, &AnalysisCtx::new()).unwrap();
        assert!(report.facts(1).contains(InsnFacts::BRANCH_ALWAYS));
        assert!(!report.facts(2).contains(InsnFacts::REACHABLE));
        assert_eq!(report.warnings(), &[AnalysisWarning::DeadCode { at: 2 }]);
    }

    #[test]
    fn never_taken_branch_detected() {
        let mut a = Assembler::new();
        let end = a.label();
        a.mov_imm(Reg::R0, 5);
        a.jmp_imm(Cond::Gt, Reg::R0, 9, end); // 5 > 9: never
        a.mov_imm(Reg::R0, 1);
        a.bind(end);
        a.exit();
        let prog = a.finish();
        let report = analyze(&prog, &AnalysisCtx::new()).unwrap();
        assert!(report.facts(1).contains(InsnFacts::BRANCH_NEVER));
        assert!(report.facts(2).contains(InsnFacts::REACHABLE));
        assert!(report.is_clean());
    }

    #[test]
    fn unbound_fd_rejected() {
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 9); // fd 9 bound nowhere
        a.mov_imm(Reg::R2, 0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        assert_eq!(
            analyze(&prog, &AnalysisCtx::new()),
            Err(AnalysisError::UnboundMapFd { at: 2, fd: 9 })
        );
    }

    #[test]
    fn unconstrained_fd_is_too_wide_not_an_overflow() {
        // r1 = a map element: any of 2⁶⁴ values. The span must saturate; it
        // used to wrap to 0 (a panic in debug builds, a walk over fds
        // otherwise).
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0);
        a.mov_imm(Reg::R2, 0);
        a.call(HELPER_MAP_LOOKUP);
        a.mov(Reg::R1, Reg::R0);
        a.mov_imm(Reg::R2, 0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        assert_eq!(
            analyze(&prog, &ctx_one_array(4)),
            Err(AnalysisError::FdRangeTooWide {
                at: 5,
                span: u64::MAX
            })
        );
    }

    #[test]
    fn sockarray_fd_for_array_helper_rejected() {
        let ctx = AnalysisCtx::new().bind(0, MapKind::SockArray, 4);
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 0);
        a.mov_imm(Reg::R2, 0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        assert!(matches!(
            analyze(&prog, &ctx),
            Err(AnalysisError::BadHelperArg { at: 2, arg: 1, .. })
        ));
    }

    #[test]
    fn uninit_helper_arg_rejected() {
        // reciprocal_scale reads R1 and R2; R2 never written.
        let mut a = Assembler::new();
        a.mov_imm(Reg::R1, 7);
        a.call(HELPER_RECIPROCAL_SCALE);
        a.exit();
        let prog = a.finish();
        assert_eq!(
            analyze(&prog, &AnalysisCtx::new()),
            Err(AnalysisError::UninitRegister { at: 1, reg: 2 })
        );
    }

    #[test]
    fn frame_pointer_as_scalar_arg_rejected() {
        let mut a = Assembler::new();
        a.mov(Reg::R1, Reg::R10);
        a.mov_imm(Reg::R2, 1);
        a.call(HELPER_RECIPROCAL_SCALE);
        a.exit();
        let prog = a.finish();
        assert!(matches!(
            analyze(&prog, &AnalysisCtx::new()),
            Err(AnalysisError::BadHelperArg { at: 2, arg: 1, .. })
        ));
    }

    #[test]
    fn reciprocal_scale_return_is_bounded_by_range_arg() {
        // r0 = reciprocal_scale(hash, 4); lookup with r2 = r0 in a
        // 4-element array: provable only through the ScaledBySecondArg
        // return model.
        let mut a = Assembler::new();
        a.mov(Reg::R1, Reg::R1); // hash already in R1
        a.mov_imm(Reg::R2, 4);
        a.call(HELPER_RECIPROCAL_SCALE);
        a.mov_imm(Reg::R1, 0);
        a.mov(Reg::R2, Reg::R0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        let report = analyze(&prog, &ctx_one_array(4)).expect("return model bounds the key");
        assert!(report.is_clean());
        assert!(report.facts(5).contains(InsnFacts::MAP_KEY_BOUNDED));
    }

    #[test]
    fn range_survives_stack_round_trip() {
        // Park a bounded value in a stack slot, reload it, use as key —
        // the grouped dispatch program's exact pattern.
        let mut a = Assembler::new();
        a.mov(Reg::R2, Reg::R1);
        a.alu_imm(Alu::And, Reg::R2, 3);
        a.stx_stack(-8, Reg::R2);
        a.mov_imm(Reg::R1, 0);
        a.ldx_stack(Reg::R2, -8);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        let report = analyze(&prog, &ctx_one_array(4)).expect("slot keeps the range");
        assert!(report.is_clean());
        assert!(report.facts(5).contains(InsnFacts::MAP_KEY_BOUNDED));
    }

    #[test]
    fn join_widens_to_cover_both_paths() {
        // r0 = 2 or 9 depending on the hash; dividing by it is still fine
        // (both nonzero), but an 8-element lookup keyed by it must fail.
        let mut a = Assembler::new();
        let other = a.label();
        let done = a.label();
        a.mov_imm(Reg::R0, 2);
        a.jmp_imm(Cond::Gt, Reg::R1, 100, other);
        a.ja(done);
        a.bind(other);
        a.mov_imm(Reg::R0, 9);
        a.bind(done);
        a.mov_imm(Reg::R1, 0);
        a.mov(Reg::R2, Reg::R0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        assert!(matches!(
            analyze(&prog, &ctx_one_array(8)),
            Err(AnalysisError::MapKeyOutOfBounds {
                key_umax: 9,
                size: 8,
                ..
            })
        ));
    }

    // -- the structural rules and defined-before-use ------------------------

    fn mov_imm(dst: Reg, imm: i64) -> Insn {
        Insn(Op::Alu {
            op: Alu::Mov,
            dst,
            src: Src::Imm(imm),
        })
    }

    fn asm(build: impl FnOnce(&mut Assembler)) -> Vec<Insn> {
        let mut a = Assembler::new();
        build(&mut a);
        a.finish()
    }

    /// Each structural and defined-before-use rule, with the program that
    /// breaks it: the variant and the instruction index are both pinned.
    #[test]
    fn every_structural_and_uninit_rule_rejects_at_its_instruction() {
        use AnalysisError as E;
        let too_long = {
            let mut prog = vec![mov_imm(Reg::R0, 0); MAX_INSNS];
            prog.push(Insn(Op::Exit));
            prog
        };
        let mut cases: Vec<(&str, Vec<Insn>, AnalysisError)> = vec![
            ("empty", vec![], E::Empty),
            ("too long", too_long, E::TooLong(MAX_INSNS + 1)),
            (
                "back-edge",
                asm(|a| {
                    let top = a.label();
                    a.bind(top);
                    a.mov_imm(Reg::R0, 0);
                    a.ja(top);
                }),
                E::BackEdge { at: 1, target: 0 },
            ),
            (
                "self jump",
                vec![mov_imm(Reg::R0, 0), Insn(Op::Ja { off: -1 })],
                E::BackEdge { at: 1, target: 1 },
            ),
            (
                "jump out of bounds",
                vec![Insn(Op::Ja { off: 5 }), Insn(Op::Exit)],
                E::JumpOutOfBounds { at: 0, target: 6 },
            ),
            (
                "jump before the program",
                vec![Insn(Op::Ja { off: -3 }), Insn(Op::Exit)],
                E::JumpOutOfBounds { at: 0, target: -2 },
            ),
            (
                "falls off the end",
                vec![mov_imm(Reg::R0, 0)],
                E::FallsOffEnd,
            ),
            (
                "writes the frame pointer",
                vec![mov_imm(Reg::R10, 0), Insn(Op::Exit)],
                E::WritesFramePointer { at: 0 },
            ),
            (
                "loads into the frame pointer",
                asm(|a| {
                    a.mov_imm(Reg::R0, 0);
                    a.stx_stack(-8, Reg::R0);
                    a.ldx_stack(Reg::R10, -8);
                    a.exit();
                }),
                E::WritesFramePointer { at: 2 },
            ),
            (
                "unknown helper",
                asm(|a| {
                    a.mov_imm(Reg::R1, 0);
                    a.call(999);
                    a.exit();
                }),
                E::UnknownHelper { at: 1, helper: 999 },
            ),
            (
                "uninitialized register read",
                asm(|a| {
                    a.mov(Reg::R0, Reg::R7); // R7 never written
                    a.exit();
                }),
                E::UninitRegister { at: 0, reg: 7 },
            ),
            (
                "call clobbers its argument registers",
                asm(|a| {
                    a.mov_imm(Reg::R2, 5);
                    a.call(HELPER_RECIPROCAL_SCALE); // R1 is live (context)
                    a.mov(Reg::R0, Reg::R2);
                    a.exit();
                }),
                E::UninitRegister { at: 2, reg: 2 },
            ),
            (
                "register set on one branch only",
                asm(|a| {
                    let join = a.label();
                    a.mov_imm(Reg::R0, 0);
                    a.jmp_imm(Cond::Eq, Reg::R1, 0, join);
                    a.mov_imm(Reg::R6, 1);
                    a.bind(join);
                    a.mov(Reg::R0, Reg::R6);
                    a.exit();
                }),
                E::UninitRegister { at: 3, reg: 6 },
            ),
            (
                "exit without r0",
                vec![Insn(Op::Exit)],
                E::UninitRegister { at: 0, reg: 0 },
            ),
            (
                "uninitialized stack load",
                asm(|a| {
                    a.ldx_stack(Reg::R0, -8);
                    a.exit();
                }),
                E::UninitStack { at: 0, off: -8 },
            ),
            (
                "stack slot stored on one branch only",
                asm(|a| {
                    let join = a.label();
                    a.mov_imm(Reg::R0, 0);
                    a.jmp_imm(Cond::Eq, Reg::R1, 0, join);
                    a.stx_stack(-16, Reg::R0);
                    a.bind(join);
                    a.ldx_stack(Reg::R0, -16);
                    a.exit();
                }),
                E::UninitStack { at: 3, off: -16 },
            ),
        ];
        for off in [0, 8, -4, -520] {
            cases.push((
                "bad stack offset",
                asm(|a| {
                    a.mov_imm(Reg::R0, 0);
                    a.stx_stack(off, Reg::R0);
                    a.exit();
                }),
                E::BadStackAccess { at: 1, off },
            ));
        }
        for (name, prog, want) in cases {
            assert_eq!(analyze(&prog, &AnalysisCtx::new()), Err(want), "{name}");
        }
    }

    #[test]
    fn sound_programs_pass_the_same_rules() {
        let admitted = [
            (
                "context and frame pointer are live at entry",
                asm(|a| {
                    a.mov(Reg::R0, Reg::R1);
                    a.mov(Reg::R2, Reg::R10);
                    a.exit();
                }),
                true,
            ),
            (
                "register defined on both paths",
                asm(|a| {
                    let else_l = a.label();
                    let join_l = a.label();
                    a.mov_imm(Reg::R0, 0);
                    a.jmp_imm(Cond::Eq, Reg::R1, 0, else_l);
                    a.mov_imm(Reg::R6, 1);
                    a.ja(join_l);
                    a.bind(else_l);
                    a.mov_imm(Reg::R6, 2);
                    a.bind(join_l);
                    a.mov(Reg::R0, Reg::R6);
                    a.exit();
                }),
                true,
            ),
            (
                "lowest slot of the frame",
                asm(|a| {
                    a.mov_imm(Reg::R0, 0);
                    a.stx_stack(-(STACK_SIZE as i32), Reg::R0);
                    a.exit();
                }),
                true,
            ),
            (
                // Unreachable instructions are not interpreted (like pruned
                // states): the R9 read would be an error if they were.
                "dead code after exit is a warning",
                asm(|a| {
                    a.mov_imm(Reg::R0, 0);
                    a.exit();
                    a.mov(Reg::R0, Reg::R9);
                    a.exit();
                }),
                false,
            ),
        ];
        for (name, prog, clean) in admitted {
            let report =
                analyze(&prog, &AnalysisCtx::new()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.is_clean(), clean, "{name}");
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = AnalysisError::BackEdge { at: 3, target: 1 };
        assert!(e.to_string().contains("back-edge"));
        let e = AnalysisError::UninitRegister { at: 0, reg: 6 };
        assert!(e.to_string().contains("r6"));
    }

    #[test]
    fn report_renders_facts_and_warnings() {
        let mut a = Assembler::new();
        a.mov(Reg::R2, Reg::R1);
        a.alu_imm(Alu::And, Reg::R2, 7);
        a.mov_imm(Reg::R1, 0);
        a.call(HELPER_MAP_LOOKUP);
        a.exit();
        let prog = a.finish();
        let report = analyze(&prog, &ctx_one_array(8)).unwrap();
        let text = report.render(&prog);
        assert!(text.starts_with("analysis: 5 insns, 0 warnings"));
        assert!(text.contains("and r2, 7"));
        assert!(text.contains("r2 in [0, 7]"));
        assert!(text.contains("key-bounded"));
        assert!(text.contains("typed"));
    }
}
