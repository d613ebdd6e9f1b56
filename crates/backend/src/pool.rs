//! The backend pool control plane: health mutation and table publishing.
//!
//! [`BackendPool`] is the single writer. Every accepted health transition
//! rebuilds the admit set and publishes a fresh frozen [`BackendTable`]
//! under the pool's lock — the same publish-on-change discipline as the
//! map registry. Readers never take that lock: the request path holds an
//! `Arc` to an already-published table (via [`crate::Admission`]), and
//! the accept path uses [`BackendPool::cached`], which pays one relaxed
//! atomic load per accept and locks only when the version actually moved.

use crate::health::{HealthCells, HealthState};
use crate::table::BackendTable;
use crate::BackendId;
use hermes_trace::{trace_event, EventKind, CONTROL_LANE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Inner {
    table: Arc<BackendTable>,
    next_version: u64,
}

/// Control plane for one set of backends: owns the shared health cells,
/// accepts state transitions, and publishes epoch-versioned tables.
pub struct BackendPool {
    health: Arc<HealthCells>,
    /// Mirrors the published table's version for the lock-free fast path.
    version: AtomicU64,
    inner: Mutex<Inner>,
}

impl BackendPool {
    /// A pool of `n` backends, all `Healthy`, publishing table version 1.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "need at least one backend");
        let health = Arc::new(HealthCells::new(n));
        let table = Arc::new(BackendTable::build(
            1,
            (0..n).collect(),
            Arc::clone(&health),
        ));
        Self {
            health,
            version: AtomicU64::new(1),
            inner: Mutex::new(Inner {
                table,
                next_version: 2,
            }),
        }
    }

    /// Number of backends in the pool.
    #[inline]
    pub fn len(&self) -> usize {
        self.health.len()
    }

    /// Whether the pool has no backends (never true: `new` requires one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.health.is_empty()
    }

    /// Version of the currently published table.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Live health of backend `b`.
    #[inline]
    pub fn health(&self, b: BackendId) -> HealthState {
        self.health.get(b)
    }

    /// The currently published table (locks briefly; the accept path
    /// should prefer [`BackendPool::cached`]).
    pub fn table(&self) -> Arc<BackendTable> {
        Arc::clone(&self.inner.lock().expect("pool lock poisoned").table)
    }

    /// The currently published table through a per-caller cache: one
    /// relaxed load when the version has not moved, a lock only when it
    /// has. This is the accept-path entry point.
    pub fn cached(&self, cache: &mut TableCache) -> Arc<BackendTable> {
        let v = self.version.load(Ordering::Relaxed);
        if let Some(t) = &cache.table {
            if cache.version == v {
                return Arc::clone(t);
            }
        }
        let t = self.table();
        cache.version = t.version();
        cache.table = Some(Arc::clone(&t));
        t
    }

    /// Apply a health transition at simulated/wall time `now_ns`. Returns
    /// `false` (and changes nothing) if the transition is illegal per
    /// [`HealthState::can_transition`]; otherwise updates the shared cell,
    /// publishes a new table version, and emits the matching trace event
    /// (`BackendUp` / `BackendDrain` / `BackendDown`).
    pub fn set_health(&self, b: BackendId, to: HealthState, now_ns: u64) -> bool {
        assert!(b < self.health.len(), "backend id out of range");
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        let from = self.health.get(b);
        if !from.can_transition(to) {
            return false;
        }
        self.health.set(b, to);
        let admit: Vec<BackendId> = (0..self.health.len())
            .filter(|&i| self.health.get(i).accepts_new())
            .collect();
        let version = inner.next_version;
        inner.next_version += 1;
        inner.table = Arc::new(BackendTable::build(
            version,
            admit,
            Arc::clone(&self.health),
        ));
        self.version.store(version, Ordering::Relaxed);
        let kind = match to {
            HealthState::Healthy | HealthState::Slow => EventKind::BackendUp,
            HealthState::Draining => EventKind::BackendDrain,
            HealthState::Down => EventKind::BackendDown,
        };
        trace_event!(now_ns, kind, CONTROL_LANE, b, version);
        true
    }
}

impl std::fmt::Debug for BackendPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendPool")
            .field("len", &self.len())
            .field("version", &self.version())
            .finish()
    }
}

/// Per-caller memo of the last table seen, keyed by version: keeps the
/// accept path off the pool lock while the pool is quiet.
#[derive(Debug, Default)]
pub struct TableCache {
    version: u64,
    table: Option<Arc<BackendTable>>,
}

impl TableCache {
    /// An empty cache (first [`BackendPool::cached`] call fills it).
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Resolution;

    #[test]
    fn publishes_a_new_version_per_transition() {
        let pool = BackendPool::new(4);
        assert_eq!(pool.version(), 1);
        assert!(pool.set_health(2, HealthState::Draining, 10));
        assert_eq!(pool.version(), 2);
        assert!(pool.set_health(2, HealthState::Down, 20));
        assert_eq!(pool.version(), 3);
        assert_eq!(pool.table().version(), 3);
    }

    #[test]
    fn illegal_transitions_change_nothing() {
        let pool = BackendPool::new(2);
        assert!(pool.set_health(0, HealthState::Down, 0));
        // Down → Draining is illegal; version and state must hold.
        assert!(!pool.set_health(0, HealthState::Draining, 1));
        assert_eq!(pool.health(0), HealthState::Down);
        assert_eq!(pool.version(), 2);
        // Self-transition is illegal too.
        assert!(!pool.set_health(1, HealthState::Healthy, 2));
        assert_eq!(pool.version(), 2);
    }

    #[test]
    fn draining_leaves_new_tables_but_serves_old_admissions() {
        let pool = BackendPool::new(3);
        let old = pool.table();
        // Find a hash pinned to backend 1 under the old table.
        let hash = (0..u32::MAX)
            .find(|&h| old.select(h) == Some(1))
            .expect("some hash maps to backend 1");
        let adm = old.admit(hash).unwrap();
        assert!(pool.set_health(1, HealthState::Draining, 5));
        // New connections cannot land on 1...
        let new = pool.table();
        assert_eq!(new.admit_len(), 2);
        for h in 0..10_000u32 {
            assert_ne!(new.select(h), Some(1));
        }
        // ...but the old admission still resolves to it.
        assert_eq!(adm.resolve(), Resolution::Pinned(1));
        assert_eq!(adm.version(), 1);
    }

    #[test]
    fn cached_tracks_republishes() {
        let pool = BackendPool::new(2);
        let mut cache = TableCache::new();
        let t1 = pool.cached(&mut cache);
        assert_eq!(t1.version(), 1);
        // Quiet pool: same Arc back.
        assert!(Arc::ptr_eq(&t1, &pool.cached(&mut cache)));
        pool.set_health(0, HealthState::Down, 0);
        let t2 = pool.cached(&mut cache);
        assert_eq!(t2.version(), 2);
        assert!(!Arc::ptr_eq(&t1, &t2));
    }

    #[test]
    fn all_backends_down_publishes_an_empty_admit_set() {
        let pool = BackendPool::new(2);
        pool.set_health(0, HealthState::Down, 0);
        pool.set_health(1, HealthState::Down, 1);
        let t = pool.table();
        assert_eq!(t.admit_len(), 0);
        assert!(t.admit(7).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn zero_backends_rejected() {
        BackendPool::new(0);
    }
}
