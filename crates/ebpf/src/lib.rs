//! # hermes-ebpf
//!
//! A from-scratch, minimal eBPF-subset substrate, standing in for the Linux
//! `SO_ATTACH_REUSEPORT_EBPF` machinery the paper attaches its dispatch
//! program to (§3, §5.4).
//!
//! Why build this instead of calling the native dispatch code? Because a
//! central claim of the paper is that the kernel-side stage must live within
//! eBPF's *limited programmability* — no loops, no complex hash
//! computations, bounded program size — which forces the bit-twiddling
//! implementation of `CountNonZeroBits` (SWAR popcount) and
//! `FindNthNonZeroBit` (branchless rank-select ladder). This crate
//! reproduces those constraints honestly:
//!
//! * [`insn`] — a register-machine ISA mirroring eBPF: 11 registers
//!   (R0–R10, R10 = read-only frame pointer), 64-bit ALU, forward
//!   conditional jumps, helper calls, a 512-byte stack.
//! * [`asm`] — a label-based assembler for building programs.
//! * [`analysis`] — admission, the one pass before a program may run
//!   ([`analyze`]): a structural scan (bounded size, in-bounds jump
//!   targets, **no back-edges** — the classic-verifier loop ban the paper
//!   works under — every path ends in `exit`, no writes to R10, stack
//!   accesses in bounds, known helper ids), then a kernel-verifier-style
//!   abstract interpreter (ranges and known bits per register and stack
//!   slot, branch refinement, registers and slots defined before use,
//!   helper arguments typed, map keys proven in bounds).
//! * [`vm`] — [`Vm::load_analyzed`], the only way to load, and the checked
//!   interpreter, with the per-connection reuseport context (the
//!   kernel-precomputed 4-tuple hash) in R1 at entry: the one userspace
//!   execution, and the reference every differential test compares against
//!   (the simulator places through core's native oracle, not through here).
//! * [`maps`] — `BPF_MAP_TYPE_ARRAY` (atomic u64 elements, shared with
//!   userspace — the `M_Sel` map of Algorithm 1/2) and
//!   `BPF_MAP_TYPE_REUSEPORT_SOCKARRAY` (`M_socket`).
//! * [`helpers`] — the kernel-provided functions the paper names:
//!   `bpf_map_lookup_elem`, `reciprocal_scale`, `bpf_sk_select_reuseport`.
//! * [`program`] — the Algorithm 2 connection-dispatch program assembled
//!   from all of the above, plus [`program::ReuseportGroup`], the program
//!   attached with its two maps; [`group_program`] — the §7 two-level
//!   variant that picks its maps by group first.
//! * [`kernel`] — the flat program lowered to kernel eBPF, loaded with raw
//!   `bpf(2)` and attached to real listeners: the kernel's own verifier
//!   and JIT are the execution engine of everything that ships.
//!
//! The bytecode program is property-tested for exact equivalence with the
//! native oracle `hermes_core::ConnDispatcher` over all bitmaps and hashes.
//!
//! ## Documented simplifications ([`kernel`] undoes both when it lowers)
//!
//! * `bpf_map_lookup_elem` returns the element *value* in R0 rather than a
//!   pointer into map memory; the analysis therefore needs no pointer-type
//!   tracking. Atomicity of the underlying element is preserved.
//! * The context (R1) is the 32-bit connection hash itself rather than a
//!   pointer to `sk_reuseport_md`; the hash is the only context field the
//!   dispatch program reads.

pub mod analysis;
pub mod asm;
pub mod disasm;
pub mod group_program;
pub mod helpers;
pub mod insn;
#[cfg(unix)]
pub mod kernel;
pub mod maps;
pub mod program;
pub mod vm;

pub use analysis::{analyze, AnalysisCtx, AnalysisError, AnalysisReport, FdRange};
pub use asm::Assembler;
pub use group_program::GroupedReuseportGroup;
pub use insn::{Insn, Op, Reg};
pub use maps::{ArrayMap, MapKind, MapRegistry, SockArrayMap};
pub use program::{AttachedProgram, DispatchProgram, ReuseportGroup};
pub use vm::{ExecError, ExecResult, ExecTier, Vm};
