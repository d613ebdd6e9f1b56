//! Helper functions callable from bytecode.
//!
//! §5.4 names exactly the kernel-provided functions the dispatch program
//! may rely on: `bpf_map_lookup_elem` and `reciprocal_scale` (plus
//! `bpf_sk_select_reuseport` to commit the choice). Everything else —
//! popcount, rank-select — must be open-coded in bytecode, which is the
//! constraint this substrate exists to enforce.

use crate::maps::MapRegistry;

/// Helper id: `bpf_map_lookup_elem(r1=array_map_fd, r2=key) -> value`.
///
/// Simplification vs. the kernel: returns the element value, not a pointer
/// (see crate docs). Out-of-range keys return 0, mirroring a NULL-checked
/// lookup that takes the fallback path.
pub const HELPER_MAP_LOOKUP: u32 = 1;

/// Helper id: `reciprocal_scale(r1=val, r2=range) -> (val*range)>>32`.
///
/// `range == 0` returns 0 (the program guards with `n > 1` first, but the
/// kernel helper must be total).
pub const HELPER_RECIPROCAL_SCALE: u32 = 2;

/// Helper id: `bpf_sk_select_reuseport(r1=sockarray_fd, r2=key) -> 0 | ENOENT`.
///
/// Side effect: records the selected socket on the execution context.
pub const HELPER_SK_SELECT_REUSEPORT: u32 = 3;

/// `-ENOENT` as returned by `bpf_sk_select_reuseport` on an empty slot.
pub const ENOENT_RET: u64 = (-2i64) as u64;

/// Static type of one helper argument, as the kernel's `bpf_func_proto`
/// `arg_type` array declares them. The abstract-interpretation pass
/// ([`crate::analysis`]) checks call sites against these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArgKind {
    /// Argument ignored by the helper; any register state is acceptable.
    Unused,
    /// Plain scalar value.
    Scalar,
    /// File descriptor of a `BPF_MAP_TYPE_ARRAY` map. When `strict_key` is
    /// set the *next* argument is an element index that must be statically
    /// proven in bounds for every map the fd range can name (mirroring the
    /// kernel verifier's treatment of direct array-value pointers).
    ArrayFd {
        /// Whether the companion key argument requires a bounds proof.
        strict_key: bool,
    },
    /// File descriptor of a `BPF_MAP_TYPE_REUSEPORT_SOCKARRAY`. The socket
    /// index is runtime-checked by the helper itself (out-of-range or empty
    /// slots return `-ENOENT`, as in the kernel), so no static key proof is
    /// demanded — but one is recorded as a fact when it holds.
    SockArrayFd,
    /// Element index for the preceding map-fd argument.
    MapKey,
}

/// How the abstract interpreter models a helper's return value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetKind {
    /// Arbitrary 64-bit scalar (e.g. a map element chosen by userspace).
    AnyScalar,
    /// `reciprocal_scale` contract: result is in `[0, range-1]` for the
    /// u32-truncated second argument `range` (and 0 when `range == 0`).
    ScaledBySecondArg,
    /// Either 0 (success) or `-ENOENT` ([`ENOENT_RET`]).
    StatusOrEnoent,
}

/// A helper's static signature — the analysis-facing analogue of the
/// kernel's `bpf_func_proto`.
#[derive(Clone, Copy, Debug)]
pub struct HelperSig {
    /// Helper id ([`HELPER_MAP_LOOKUP`], ...).
    pub helper: u32,
    /// Kernel-style name, for diagnostics.
    pub name: &'static str,
    /// Types of R1..R5 at the call site.
    pub args: [ArgKind; 5],
    /// Return-value model.
    pub ret: RetKind,
}

/// Signatures of every exported helper, indexed by the analysis pass; a
/// helper id without an entry here is unknown and refused at load.
pub const HELPER_SIGNATURES: [HelperSig; 3] = [
    HelperSig {
        helper: HELPER_MAP_LOOKUP,
        name: "bpf_map_lookup_elem",
        args: [
            ArgKind::ArrayFd { strict_key: true },
            ArgKind::MapKey,
            ArgKind::Unused,
            ArgKind::Unused,
            ArgKind::Unused,
        ],
        ret: RetKind::AnyScalar,
    },
    HelperSig {
        helper: HELPER_RECIPROCAL_SCALE,
        name: "reciprocal_scale",
        args: [
            ArgKind::Scalar,
            ArgKind::Scalar,
            ArgKind::Unused,
            ArgKind::Unused,
            ArgKind::Unused,
        ],
        ret: RetKind::ScaledBySecondArg,
    },
    HelperSig {
        helper: HELPER_SK_SELECT_REUSEPORT,
        name: "bpf_sk_select_reuseport",
        args: [
            ArgKind::SockArrayFd,
            ArgKind::MapKey,
            ArgKind::Unused,
            ArgKind::Unused,
            ArgKind::Unused,
        ],
        ret: RetKind::StatusOrEnoent,
    },
];

/// Look up the signature for a helper id.
pub fn signature(helper: u32) -> Option<&'static HelperSig> {
    HELPER_SIGNATURES.iter().find(|s| s.helper == helper)
}

/// Mutable per-execution state helpers may act on.
#[derive(Debug, Default)]
pub struct HelperCtx {
    /// Socket selected by `bpf_sk_select_reuseport`, if any.
    pub selected_sock: Option<usize>,
}

/// Dispatch a helper call. `args` are R1..=R5 at the call site; the return
/// value goes to R0.
pub fn call_helper(
    helper: u32,
    args: [u64; 5],
    maps: &MapRegistry,
    ctx: &mut HelperCtx,
) -> Result<u64, UnknownHelper> {
    match helper {
        HELPER_MAP_LOOKUP => {
            let fd = args[0] as u32;
            let key = args[1] as usize;
            Ok(maps.array(fd).and_then(|m| m.lookup(key)).unwrap_or(0))
        }
        HELPER_RECIPROCAL_SCALE => {
            let val = args[0] as u32;
            let range = args[1] as u32;
            if range == 0 {
                Ok(0)
            } else {
                Ok((val as u64 * range as u64) >> 32)
            }
        }
        HELPER_SK_SELECT_REUSEPORT => {
            let fd = args[0] as u32;
            let key = args[1] as usize;
            match maps.sockarray(fd).and_then(|m| m.lookup(key)) {
                Some(sock) => {
                    ctx.selected_sock = Some(sock);
                    Ok(0)
                }
                None => Ok(ENOENT_RET),
            }
        }
        other => Err(UnknownHelper(other)),
    }
}

/// Error: bytecode called a helper id the kernel does not export.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnknownHelper(pub u32);

impl std::fmt::Display for UnknownHelper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown helper id {}", self.0)
    }
}

impl std::error::Error for UnknownHelper {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::{ArrayMap, MapRef, SockArrayMap};
    use std::sync::Arc;

    fn setup() -> (MapRegistry, u32, u32) {
        let reg = MapRegistry::new();
        let arr = Arc::new(ArrayMap::new(1));
        arr.update(0, 0b1011);
        let socks = Arc::new(SockArrayMap::new(4));
        socks.register(1, 501);
        let a_fd = reg.register(MapRef::Array(arr));
        let s_fd = reg.register(MapRef::SockArray(socks));
        (reg, a_fd, s_fd)
    }

    #[test]
    fn map_lookup_returns_value_or_zero() {
        let (reg, a_fd, _) = setup();
        let mut ctx = HelperCtx::default();
        let v = call_helper(HELPER_MAP_LOOKUP, [a_fd as u64, 0, 0, 0, 0], &reg, &mut ctx).unwrap();
        assert_eq!(v, 0b1011);
        // Out-of-range key and wrong-typed fd both read as 0.
        let v = call_helper(HELPER_MAP_LOOKUP, [a_fd as u64, 5, 0, 0, 0], &reg, &mut ctx).unwrap();
        assert_eq!(v, 0);
        let v = call_helper(HELPER_MAP_LOOKUP, [99, 0, 0, 0, 0], &reg, &mut ctx).unwrap();
        assert_eq!(v, 0);
    }

    #[test]
    fn reciprocal_scale_matches_core() {
        let (reg, _, _) = setup();
        let mut ctx = HelperCtx::default();
        for (val, range) in [(0u32, 7u32), (u32::MAX, 7), (12345, 32)] {
            let v = call_helper(
                HELPER_RECIPROCAL_SCALE,
                [val as u64, range as u64, 0, 0, 0],
                &reg,
                &mut ctx,
            )
            .unwrap();
            assert_eq!(v, hermes_core::hash::reciprocal_scale(val, range) as u64);
        }
        // Total on zero range.
        let v = call_helper(HELPER_RECIPROCAL_SCALE, [9, 0, 0, 0, 0], &reg, &mut ctx).unwrap();
        assert_eq!(v, 0);
    }

    #[test]
    fn sk_select_sets_context_or_enoent() {
        let (reg, _, s_fd) = setup();
        let mut ctx = HelperCtx::default();
        let v = call_helper(
            HELPER_SK_SELECT_REUSEPORT,
            [s_fd as u64, 1, 0, 0, 0],
            &reg,
            &mut ctx,
        )
        .unwrap();
        assert_eq!(v, 0);
        assert_eq!(ctx.selected_sock, Some(501));
        // Empty slot → ENOENT, context untouched from the failed call.
        let mut ctx2 = HelperCtx::default();
        let v = call_helper(
            HELPER_SK_SELECT_REUSEPORT,
            [s_fd as u64, 2, 0, 0, 0],
            &reg,
            &mut ctx2,
        )
        .unwrap();
        assert_eq!(v, ENOENT_RET);
        assert_eq!(ctx2.selected_sock, None);
    }

    #[test]
    fn unknown_helper_rejected() {
        let (reg, _, _) = setup();
        let mut ctx = HelperCtx::default();
        assert_eq!(
            call_helper(42, [0; 5], &reg, &mut ctx),
            Err(UnknownHelper(42))
        );
    }
}
