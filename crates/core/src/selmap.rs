//! Userspace ↔ kernel synchronization cells.
//!
//! §5.4: scheduling results travel through a `BPF_MAP_TYPE_ARRAY` holding a
//! single int element (the bitmap) — atomic by construction, so concurrent
//! writers (every worker runs a scheduler) and the kernel reader need no
//! locks.
//!
//! [`SelMap`] is that element natively: the simulator's schedulers publish
//! into it and [`crate::GroupedConnDispatcher`] reads it. The load balancers
//! store into the kernel's own map instead (`hermes_ebpf::kernel`, one
//! mmap'd word per group) with the same compare-then-store; the
//! worker-to-socket `BPF_MAP_TYPE_REUSEPORT_SOCKARRAY` exists only there and
//! and in the interpreter's `Maps`.

use crate::bitmap::WorkerBitmap;
use crate::sync::{AtomicU64, Ordering};

/// The single-element "array map" carrying the selected-worker bitmap.
#[derive(Debug)]
pub struct SelMap {
    bits: AtomicU64,
    /// Number of `store`s performed — the paper's "call frequency of
    /// scheduler" observable (Fig. 14) falls out of this counter.
    updates: AtomicU64,
    /// Number of redundant syncs elided by [`SelMap::store_if_changed`].
    /// Kept separate from `updates` so the Fig. 14 observable still counts
    /// only the stores that actually reached the kernel-visible cell.
    skipped: AtomicU64,
}

impl SelMap {
    /// Create a map holding the empty bitmap (kernel will fall back to
    /// reuseport until the first sync).
    pub fn new() -> Self {
        Self {
            bits: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
        }
    }

    /// `BPF_MAP_UPDATE` — publish a scheduling decision.
    #[inline]
    pub fn store(&self, bitmap: WorkerBitmap) {
        self.bits.store(bitmap.0, Ordering::Release);
        self.updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Publish a scheduling decision only when it differs from what the
    /// kernel already sees. A steady-state scheduler recomputes the same
    /// bitmap on every loop iteration; re-storing it costs an atomic
    /// release, a counter bump, and cross-core cache-line traffic for no
    /// information. Returns `true` when the store was performed.
    ///
    /// The elided syncs land in [`SelMap::skipped_count`] rather than
    /// `updates`, keeping the Fig. 14 sync-frequency observable honest.
    #[inline]
    pub fn store_if_changed(&self, bitmap: WorkerBitmap) -> bool {
        if self.bits.load(Ordering::Relaxed) == bitmap.0 {
            self.skipped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.store(bitmap);
        true
    }

    /// `bpf_map_lookup_elem` — read the current decision (kernel side).
    #[inline]
    pub fn load(&self) -> WorkerBitmap {
        WorkerBitmap(self.bits.load(Ordering::Acquire))
    }

    /// Total number of updates so far.
    pub fn update_count(&self) -> u64 {
        self.updates.load(Ordering::Relaxed)
    }

    /// Redundant syncs elided by [`SelMap::store_if_changed`].
    pub fn skipped_count(&self) -> u64 {
        self.skipped.load(Ordering::Relaxed)
    }
}

impl Default for SelMap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(all(test, loom))]
mod loom_tests {
    //! Exhaustive interleaving checks for the kernel-sync cell. These run
    //! only under `RUSTFLAGS="--cfg loom"` (see the loom lane in
    //! scripts/ci.sh). The property under test is §5.4's lock-freedom
    //! claim: concurrent scheduler publishes and the kernel-side reader
    //! need no locks, and `store_if_changed`'s elision is *invisible* to
    //! the reader — it only ever skips a store whose value the cell
    //! already holds.
    use super::*;
    use loom::sync::Arc;
    use loom::thread;

    /// Two writers race distinct bitmaps against a concurrent reader: the
    /// reader only ever observes empty or a published value (never a
    /// blend), and the cell settles on one of the two.
    #[test]
    fn concurrent_publishes_are_untorn_in_every_interleaving() {
        loom::model(|| {
            const A: u64 = 0b0110;
            const B: u64 = 0b1001;
            let m = Arc::new(SelMap::new());
            let w1 = {
                let m = Arc::clone(&m);
                thread::spawn(move || m.store_if_changed(WorkerBitmap(A)))
            };
            let w2 = {
                let m = Arc::clone(&m);
                thread::spawn(move || m.store_if_changed(WorkerBitmap(B)))
            };
            let seen = m.load().0;
            assert!(
                seen == 0 || seen == A || seen == B,
                "kernel reader saw a torn value {seen:#x}"
            );
            let s1 = w1.join().unwrap();
            let s2 = w2.join().unwrap();
            // Distinct values against an empty cell: neither store can be
            // elided, and the Fig. 14 observable counts both.
            assert!(s1 && s2, "distinct publishes must both store");
            assert_eq!(m.update_count(), 2);
            assert_eq!(m.skipped_count(), 0);
            let fin = m.load().0;
            assert!(fin == A || fin == B);
        });
    }

    /// A steady-state scheduler republishing the current bitmap races a
    /// fresh publish. Whether or not the redundant sync is elided, the
    /// reader's view is indistinguishable from always-store semantics, and
    /// the update/skip split accounts for every call exactly once.
    #[test]
    fn redundant_sync_elision_is_invisible_to_the_reader() {
        loom::model(|| {
            const A: u64 = 0b0110;
            const B: u64 = 0b0011;
            let m = Arc::new(SelMap::new());
            m.store(WorkerBitmap(A));
            let steady = {
                let m = Arc::clone(&m);
                thread::spawn(move || m.store_if_changed(WorkerBitmap(A)))
            };
            let fresh = {
                let m = Arc::clone(&m);
                thread::spawn(move || m.store_if_changed(WorkerBitmap(B)))
            };
            let seen = m.load().0;
            assert!(
                seen == A || seen == B,
                "reader saw a value nobody published: {seen:#x}"
            );
            let stored_a = steady.join().unwrap();
            let stored_b = fresh.join().unwrap();
            // The fresh value can never be elided: the cell never holds B
            // before its writer runs.
            assert!(stored_b, "fresh publish must reach the cell");
            // Every call is either a store or a skip — nothing vanishes.
            assert_eq!(m.update_count(), 2 + u64::from(stored_a));
            assert_eq!(m.skipped_count(), u64::from(!stored_a));
            let fin = m.load().0;
            assert!(fin == A || fin == B);
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn selmap_store_load_round_trip() {
        let m = SelMap::new();
        assert!(m.load().is_empty());
        m.store(WorkerBitmap(0b1010));
        assert_eq!(m.load(), WorkerBitmap(0b1010));
        assert_eq!(m.update_count(), 1);
    }

    #[test]
    fn selmap_store_if_changed_elides_redundant_syncs() {
        let m = SelMap::new();
        assert!(m.store_if_changed(WorkerBitmap(0b0110)));
        // Steady state: same bitmap recomputed — no kernel-visible store.
        for _ in 0..10 {
            assert!(!m.store_if_changed(WorkerBitmap(0b0110)));
        }
        assert!(m.store_if_changed(WorkerBitmap(0b0011)));
        assert_eq!(m.load(), WorkerBitmap(0b0011));
        // Fig. 14 observable counts only real syncs; skips land separately.
        assert_eq!(m.update_count(), 2);
        assert_eq!(m.skipped_count(), 10);
    }

    #[test]
    fn selmap_concurrent_writers_last_value_wins() {
        // Multiple workers sync concurrently (§5.3.2); the cell must always
        // contain one of the written values, never a blend.
        let m = Arc::new(SelMap::new());
        let valid: Vec<u64> = (1..=8).map(|i| (1u64 << i) - 1).collect();
        let mut handles = Vec::new();
        for &v in &valid {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    m.store(WorkerBitmap(v));
                }
            }));
        }
        let reader = {
            let m = Arc::clone(&m);
            let valid = valid.clone();
            std::thread::spawn(move || {
                for _ in 0..4_000 {
                    let seen = m.load().0;
                    assert!(seen == 0 || valid.contains(&seen), "torn value {seen:#x}");
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(m.update_count(), 8_000);
    }
}
