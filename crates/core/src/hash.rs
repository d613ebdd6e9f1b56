//! Flow keys and the kernel-style connection hash.
//!
//! Reuseport's default socket selection and Hermes' fine-grained filtering
//! both consume a hash of the connection 4-tuple that the kernel precomputes
//! during demux (Algorithm 2 line 5 notes "this hash value is precomputed by
//! the kernel"). We reproduce the two pieces the paper leans on:
//!
//! * a Jenkins-style 4-tuple hash (`inet_ehashfn` is jhash-based), and
//! * `reciprocal_scale`, the multiplicative range-scaling trick Linux uses
//!   to map a 32-bit hash into `[0, n)` without division.

/// A TCP/UDP connection 4-tuple (the LB's VIP side is fixed per port, so
/// source address/port plus destination address/port identify the flow).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Client (source) IPv4 address.
    pub src_ip: u32,
    /// Client (source) port.
    pub src_port: u16,
    /// LB-side destination IPv4 address.
    pub dst_ip: u32,
    /// LB-side destination port (the tenant's rewritten Dport).
    pub dst_port: u16,
}

impl FlowKey {
    /// Construct a flow key.
    pub fn new(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        Self {
            src_ip,
            src_port,
            dst_ip,
            dst_port,
        }
    }

    /// The kernel-precomputed connection hash (jhash over the 4-tuple).
    pub fn hash(&self) -> u32 {
        jhash_3words(
            self.src_ip,
            self.dst_ip,
            ((self.src_port as u32) << 16) | self.dst_port as u32,
            HASH_SEED,
        )
    }
}

/// Fixed seed standing in for the kernel's boot-time `inet_ehash_secret`.
/// Deterministic so experiments are reproducible.
const HASH_SEED: u32 = 0x9747_b28c;

/// `jhash_3words` from the Linux kernel (Bob Jenkins' lookup3 final mix).
pub fn jhash_3words(mut a: u32, mut b: u32, mut c: u32, initval: u32) -> u32 {
    const JHASH_INITVAL: u32 = 0xdeadbeef;
    a = a.wrapping_add(JHASH_INITVAL);
    b = b.wrapping_add(JHASH_INITVAL);
    c = c.wrapping_add(initval);
    // __jhash_final
    c ^= b;
    c = c.wrapping_sub(b.rotate_left(14));
    a ^= c;
    a = a.wrapping_sub(c.rotate_left(11));
    b ^= a;
    b = b.wrapping_sub(a.rotate_left(25));
    c ^= b;
    c = c.wrapping_sub(b.rotate_left(16));
    a ^= c;
    a = a.wrapping_sub(c.rotate_left(4));
    b ^= a;
    b = b.wrapping_sub(a.rotate_left(14));
    c ^= b;
    c = c.wrapping_sub(b.rotate_left(24));
    c
}

/// Linux's `reciprocal_scale`: map a uniformly distributed 32-bit `val`
/// into `[0, ep_ro)` as `(val * ep_ro) >> 32` — one multiply, no division.
///
/// # Panics
/// Panics when `ep_ro == 0`; scaling into an empty range is meaningless and
/// Algorithm 2 guards with `n > 1` before calling.
#[inline]
pub fn reciprocal_scale(val: u32, ep_ro: u32) -> u32 {
    assert!(ep_ro > 0, "reciprocal_scale into empty range");
    ((val as u64 * ep_ro as u64) >> 32) as u32
}

/// The hash level 2 of the §7 grouped decision scales. Level 1 keeps the
/// high word of `hash * groups` ([`reciprocal_scale`]): every flow of group
/// `g` has its hash in the `g`-th `groups`-th of the range, so scaling the
/// same hash again could only reach the `g`-th `groups`-th of the group's
/// candidates. This is the low word — the fraction level 1 discarded,
/// uniform within each group — and `hash` itself when `groups == 1`.
#[inline]
pub fn level2_hash(hash: u32, groups: usize) -> u32 {
    (hash as u64 * groups as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_metrics::rng::for_each_case;

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let k = FlowKey::new(0x0a00_0001, 40000, 0xc0a8_0001, 443);
        assert_eq!(k.hash(), k.hash());
        let k2 = FlowKey::new(0x0a00_0001, 40001, 0xc0a8_0001, 443);
        assert_ne!(k.hash(), k2.hash(), "adjacent ports should not collide");
    }

    #[test]
    fn reciprocal_scale_bounds() {
        assert_eq!(reciprocal_scale(0, 7), 0);
        assert_eq!(reciprocal_scale(u32::MAX, 7), 6);
        for v in [0u32, 1, 1000, u32::MAX / 2, u32::MAX] {
            assert!(reciprocal_scale(v, 32) < 32);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn reciprocal_scale_zero_range_panics() {
        reciprocal_scale(5, 0);
    }

    #[test]
    fn reciprocal_scale_is_roughly_uniform() {
        // Feed sequential hashes through; each of 8 buckets should receive
        // a reasonable share.
        let n = 80_000u32;
        let mut counts = [0u32; 8];
        for i in 0..n {
            let h = jhash_3words(i, i.wrapping_mul(2654435761), 0, 1);
            counts[reciprocal_scale(h, 8) as usize] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            let share = c as f64 / n as f64;
            assert!(
                (share - 0.125).abs() < 0.02,
                "bucket {b} share {share} far from uniform"
            );
        }
    }

    #[test]
    fn reciprocal_scale_always_in_range() {
        for_each_case(256, |g| {
            let (val, n) = (g.next_u64() as u32, 1 + g.index(9_999) as u32);
            assert!(reciprocal_scale(val, n) < n, "val {val} n {n}");
        });
    }

    #[test]
    fn hash_depends_on_every_field() {
        for_each_case(256, |g| {
            let (src_ip, dst_ip) = (g.next_u64() as u32, g.next_u64() as u32);
            let base = FlowKey::new(src_ip, g.u16(), dst_ip, g.u16());
            // Not a strict guarantee for a hash, but over random draws a
            // systematic collision would indicate a wiring bug; jhash makes
            // accidental equality astronomically unlikely per draw.
            for tweaked in [
                FlowKey {
                    src_ip: src_ip ^ 1,
                    ..base
                },
                FlowKey {
                    src_port: base.src_port ^ 1,
                    ..base
                },
                FlowKey {
                    dst_ip: dst_ip ^ 1,
                    ..base
                },
                FlowKey {
                    dst_port: base.dst_port ^ 1,
                    ..base
                },
            ] {
                assert_ne!(base.hash(), tweaked.hash(), "{base:?} vs {tweaked:?}");
            }
        });
    }
}
