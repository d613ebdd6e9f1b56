//! Frozen, epoch-versioned backend tables and per-connection admissions.
//!
//! A [`BackendTable`] is an immutable snapshot published by the pool: the
//! set of backends that accepted new connections at publish time, plus a
//! dense power-of-two slot array for O(1) Concury-style selection keyed on
//! the connection 5-tuple hash. Tables are shared as `Arc`s; a connection
//! captures the table it was *admitted* under and resolves every
//! subsequent request against that same version — zero locks, no
//! coordination with the control plane, and per-connection consistency
//! under churn by construction.
//!
//! Liveness is the one thing that must pierce the freeze: the table holds
//! an `Arc` to the pool's shared [`HealthCells`], so a pinned backend
//! going [`HealthState::Down`] is observable from any version with one
//! relaxed atomic load. Resolution then walks the *admitted* version's
//! member list (deterministically, from the hashed slot) before ever
//! consulting the live table — the fallback of last resort, used only on
//! version retirement (every member of the admitted version down).

use crate::health::{HealthCells, HealthState};
use crate::BackendId;
use std::sync::Arc;

/// SplitMix64 finalizer: decorrelates the 5-tuple hash from the slot
/// index so backend selection does not alias the worker-dispatch hashing
/// (both consume the same flow hash).
#[inline]
fn mix(h: u32) -> u64 {
    let mut x = (h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One frozen epoch of the backend pool.
#[derive(Debug)]
pub struct BackendTable {
    version: u64,
    /// Backends that accepted new connections at publish time.
    admit: Box<[BackendId]>,
    /// Power-of-two slot array indexing into `admit`.
    slots: Box<[u32]>,
    /// Live health, shared across every version of the same pool.
    health: Arc<HealthCells>,
}

impl BackendTable {
    /// Build a frozen table. `admit` must hold distinct backend ids valid
    /// for `health`.
    pub(crate) fn build(version: u64, admit: Vec<BackendId>, health: Arc<HealthCells>) -> Self {
        let slots = if admit.is_empty() {
            Vec::new()
        } else {
            // Enough slots that the round-robin fill is near-uniform
            // (bias <= 1/slot_count) while staying cache-compact.
            let n = (admit.len() * 64).next_power_of_two().max(256);
            (0..n).map(|j| (j % admit.len()) as u32).collect()
        };
        Self {
            version,
            admit: admit.into_boxed_slice(),
            slots: slots.into_boxed_slice(),
            health,
        }
    }

    /// Epoch of this snapshot (monotone across publishes).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Backends admitting new connections at publish time.
    #[inline]
    pub fn admit_len(&self) -> usize {
        self.admit.len()
    }

    /// Live health of backend `b` (shared cells, not frozen state).
    #[inline]
    pub fn live_health(&self, b: BackendId) -> HealthState {
        self.health.get(b)
    }

    /// O(1) stateless selection: the backend this table assigns to `hash`.
    /// `None` iff no backend admitted new connections at publish time.
    #[inline]
    pub fn select(&self, hash: u32) -> Option<BackendId> {
        if self.admit.is_empty() {
            return None;
        }
        let slot = (mix(hash) & (self.slots.len() as u64 - 1)) as usize;
        Some(self.admit[self.slots[slot] as usize])
    }

    /// Admit a connection: pin it to this table version and its selected
    /// backend. `None` iff the table admits nothing.
    pub fn admit(self: &Arc<Self>, hash: u32) -> Option<Admission> {
        let backend = self.select(hash)?;
        Some(Admission {
            table: Arc::clone(self),
            hash,
            backend,
        })
    }

    /// Position of `hash`'s selected backend within `admit` — the start
    /// of the deterministic retry walk.
    #[inline]
    fn admit_index(&self, hash: u32) -> usize {
        let slot = (mix(hash) & (self.slots.len() as u64 - 1)) as usize;
        self.slots[slot] as usize
    }
}

/// How a request resolved against its connection's admitted version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// The admitted backend is still serving: the common case, and the
    /// consistency guarantee (same backend for the connection's lifetime).
    Pinned(BackendId),
    /// The admitted backend went down; a sibling *within the admitted
    /// version* took over (deterministic walk from the hashed slot).
    Retried(BackendId),
    /// Every backend of the admitted version is down — the version is
    /// retired. The caller must fall back to the live table.
    Expired,
}

/// A connection's pinned claim on one table version: the `Arc` capture
/// that makes the request path lock-free and churn-immune.
#[derive(Clone, Debug)]
pub struct Admission {
    table: Arc<BackendTable>,
    hash: u32,
    backend: BackendId,
}

impl Admission {
    /// The table version this connection was admitted under.
    #[inline]
    pub fn version(&self) -> u64 {
        self.table.version()
    }

    /// The backend selected at admission (the pin).
    #[inline]
    pub fn pinned(&self) -> BackendId {
        self.backend
    }

    /// The 5-tuple hash the admission was keyed on.
    #[inline]
    pub fn hash(&self) -> u32 {
        self.hash
    }

    /// Resolve the backend for a request on this connection: the pinned
    /// backend while it serves, else the first serving sibling within the
    /// admitted version, else [`Resolution::Expired`]. One relaxed atomic
    /// load on the fast path; no locks anywhere.
    pub fn resolve(&self) -> Resolution {
        let t = &self.table;
        if t.live_health(self.backend).serves_in_flight() {
            return Resolution::Pinned(self.backend);
        }
        let n = t.admit.len();
        let start = t.admit_index(self.hash);
        for k in 1..n {
            let b = t.admit[(start + k) % n];
            if t.live_health(b).serves_in_flight() {
                return Resolution::Retried(b);
            }
        }
        Resolution::Expired
    }

    /// The `attempt`-th connect candidate within the admitted version:
    /// attempt 0 is the pinned backend, later attempts walk the admit list
    /// from the hashed slot (the connect-failure retry chain). `None` once
    /// the version's candidates are exhausted.
    pub fn candidate(&self, attempt: usize) -> Option<BackendId> {
        let t = &self.table;
        let n = t.admit.len();
        if attempt >= n {
            return None;
        }
        if attempt == 0 {
            return Some(self.backend);
        }
        Some(t.admit[(t.admit_index(self.hash) + attempt) % n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(
        version: u64,
        admit: Vec<BackendId>,
        pool: usize,
    ) -> (Arc<BackendTable>, Arc<HealthCells>) {
        let health = Arc::new(HealthCells::new(pool));
        (
            Arc::new(BackendTable::build(version, admit, Arc::clone(&health))),
            health,
        )
    }

    #[test]
    fn selection_is_deterministic_and_total() {
        let (t, _) = table(1, vec![0, 1, 2, 3], 4);
        for h in 0..10_000u32 {
            let a = t.select(h).unwrap();
            assert_eq!(t.select(h), Some(a), "same hash, same backend");
            assert!(a < 4);
        }
    }

    #[test]
    fn selection_spreads_evenly() {
        let (t, _) = table(1, vec![0, 1, 2, 3, 4], 5);
        let mut counts = [0u32; 5];
        for h in 0..50_000u32 {
            counts[t.select(h.wrapping_mul(2_654_435_761)).unwrap()] += 1;
        }
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(max / min < 1.15, "spread too uneven: {counts:?}");
    }

    #[test]
    fn empty_admit_set_selects_nothing() {
        let (t, _) = table(7, vec![], 3);
        assert_eq!(t.select(42), None);
        assert!(t.admit(42).is_none());
        assert_eq!(t.admit_len(), 0);
    }

    #[test]
    fn admission_pins_until_the_backend_dies() {
        let (t, health) = table(3, vec![0, 1, 2], 3);
        let adm = t.admit(0xfeed_beef).unwrap();
        let pinned = adm.pinned();
        assert_eq!(adm.version(), 3);
        assert_eq!(adm.resolve(), Resolution::Pinned(pinned));
        // Draining keeps serving in-flight connections.
        health.set(pinned, HealthState::Draining);
        assert_eq!(adm.resolve(), Resolution::Pinned(pinned));
        // Down forces a retry within the admitted version.
        health.set(pinned, HealthState::Down);
        match adm.resolve() {
            Resolution::Retried(b) => assert_ne!(b, pinned),
            other => panic!("expected retry, got {other:?}"),
        }
    }

    #[test]
    fn retry_is_deterministic() {
        let (t, health) = table(1, vec![0, 1, 2, 3], 4);
        let adm = t.admit(99).unwrap();
        health.set(adm.pinned(), HealthState::Down);
        let a = adm.resolve();
        let b = adm.resolve();
        assert_eq!(a, b, "retry walk must be deterministic");
    }

    #[test]
    fn version_retires_when_all_members_die() {
        let (t, health) = table(5, vec![1, 2], 4);
        let adm = t.admit(7).unwrap();
        health.set(1, HealthState::Down);
        health.set(2, HealthState::Down);
        assert_eq!(adm.resolve(), Resolution::Expired);
    }

    #[test]
    fn candidate_chain_covers_the_admitted_version_once() {
        let (t, _) = table(1, vec![0, 1, 2], 3);
        let adm = t.admit(1234).unwrap();
        let chain: Vec<_> = (0..4).map(|k| adm.candidate(k)).collect();
        assert_eq!(chain[0], Some(adm.pinned()));
        let mut seen: Vec<_> = chain.iter().take(3).map(|c| c.unwrap()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "chain visits each member once");
        assert_eq!(chain[3], None, "chain exhausts after admit_len attempts");
    }
}
