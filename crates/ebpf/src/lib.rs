//! # hermes-ebpf
//!
//! The Algorithm 2 dispatch program in kernel eBPF, the Linux
//! `SO_ATTACH_REUSEPORT_EBPF` machinery the paper attaches it to (§3,
//! §5.4), and a checked interpreter that runs the same bytes in userspace.
//!
//! A central claim of the paper is that the kernel-side stage must live
//! within eBPF's *limited programmability* — no loops, no complex hash
//! computations, bounded program size — which forces the bit-twiddling
//! implementation of `CountNonZeroBits` (SWAR popcount) and
//! `FindNthNonZeroBit` (branchless rank-select ladder). This crate meets
//! those constraints where they are enforced, in the kernel's verifier, and
//! every test runs the program the kernel loads:
//!
//! * [`insn`] — `struct bpf_insn` and the opcodes: 11 registers (R0–R10,
//!   R10 = read-only frame pointer), 64- and 32-bit ALU, jumps, helper
//!   calls, `ld_imm64` with map pseudo-sources, a 512-byte stack.
//! * [`asm`] — a label-based assembler for building programs.
//! * [`vm`] — [`Vm::new`] and the checked interpreter, with the program's
//!   two shared maps ([`vm::Maps`]: the `M_Sel` bitmaps, one word per
//!   group, and the `M_socket` socket array): the one userspace execution,
//!   and the reference every differential test compares against (the
//!   simulator places through core's native oracle, not through here). A
//!   register holds a scalar or a pointer into the context, the stack, a
//!   bitmap or the program's record; what the kernel's verifier refuses at
//!   load traps at run time — a pc that leaves the program, a taken
//!   backward jump (**no back-edges**, the classic-verifier loop ban the
//!   paper works under), an access out of bounds, misaligned, through a
//!   lookup result not yet null-checked or into an unreadable context
//!   field, pointer arithmetic other than ± a scalar, a write to R10, a
//!   read of anything never written, a helper argument of the wrong type —
//!   so every run ends within the program's length.
//! * [`program`] — the Algorithm 2 program at any group count `G` (§7:
//!   level 1 picks the group by hash, `G == 1` is the flat program), plus
//!   [`program::ReuseportGroup`], the program attached with its maps.
//! * [`kernel`] — the same bytes loaded with raw `bpf(2)`, map indices
//!   relocated to the kernel maps' fds, and attached to real listeners: the
//!   kernel's own verifier admits, and its JIT runs, everything that ships.
//!
//! The program is property-tested for exact equivalence with the native
//! oracle `hermes_core::ConnDispatcher` over all bitmaps and hashes, at one
//! group and at many.

pub mod asm;
pub mod disasm;
pub mod insn;
#[cfg(unix)]
pub mod kernel;
pub mod program;
pub mod vm;

pub use asm::Assembler;
pub use insn::Insn;
pub use program::{DispatchProgram, ReuseportGroup};
pub use vm::{ExecError, ExecResult, ExecTier, Maps, Trap, Vm};
