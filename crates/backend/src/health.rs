//! Per-backend health: the state machine and the shared atomic cells.
//!
//! The state machine is deliberately small — the states a production LB's
//! control plane actually distinguishes (§7: canary drains, slow VMs,
//! crashed VMs):
//!
//! ```text
//!            ┌───────────── recover ─────────────┐
//!            ▼                                   │
//!        Healthy ◄──── recover ──── Slow         │
//!           │  ▲                     │           │
//!           │  └── cancel ─┐         │           │
//!         drain            │       drain         │
//!           │              │         │           │
//!           ▼              │         ▼           │
//!        Draining ─────────┴──── (same node)     │
//!           │                                    │
//!          down ────────────► Down ──────────────┘
//! ```
//!
//! * `Healthy` / `Slow` accept new connections (`Slow` is degraded but
//!   serving — selection keeps it, operators watch it).
//! * `Draining` takes no *new* connections but keeps serving in-flight
//!   ones (the canary-release drain of Fig. 11).
//! * `Down` serves nothing; in-flight connections must retry elsewhere.
//!
//! Health is stored once per pool in [`HealthCells`] — an atomic byte per
//! backend — and shared by every published table version, so a connection
//! pinned to a retired version still observes its backend dying.

use std::sync::atomic::{AtomicU8, Ordering};

/// One backend's health, as the control plane sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum HealthState {
    /// Serving normally: accepts new connections.
    Healthy = 0,
    /// Degraded (slow responses) but serving: still accepts new
    /// connections; the slow-backend scenario measures its latency cost.
    Slow = 1,
    /// Being drained (canary rollout, maintenance): serves in-flight
    /// connections, accepts no new ones.
    Draining = 2,
    /// Gone: serves nothing.
    Down = 3,
}

impl HealthState {
    /// Whether a backend in this state may be selected for *new*
    /// connections.
    #[inline]
    pub fn accepts_new(self) -> bool {
        matches!(self, HealthState::Healthy | HealthState::Slow)
    }

    /// Whether a backend in this state keeps serving connections admitted
    /// *before* the state change.
    #[inline]
    pub fn serves_in_flight(self) -> bool {
        !matches!(self, HealthState::Down)
    }

    /// Legal control-plane transitions. Self-transitions are rejected
    /// (they would republish a table for no observable change), and a
    /// `Down` backend must come back as `Healthy` before being slowed or
    /// drained again.
    pub fn can_transition(self, to: HealthState) -> bool {
        use HealthState::*;
        match (self, to) {
            (a, b) if a == b => false,
            (Down, Healthy) => true,
            (Down, _) => false,
            // Healthy / Slow / Draining move freely among themselves and
            // may always crash to Down.
            (_, _) => true,
        }
    }

    /// Decode the atomic-cell byte.
    #[inline]
    pub fn from_u8(v: u8) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Slow,
            2 => HealthState::Draining,
            _ => HealthState::Down,
        }
    }

    /// Stable lowercase name for exports.
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Slow => "slow",
            HealthState::Draining => "draining",
            HealthState::Down => "down",
        }
    }
}

/// The live health array shared by the pool and every published table
/// version: one atomic byte per backend. Readers pay a single relaxed
/// load; only the control plane stores.
#[derive(Debug)]
pub struct HealthCells {
    cells: Box<[AtomicU8]>,
}

impl HealthCells {
    /// All-`Healthy` cells for `n` backends.
    pub fn new(n: usize) -> Self {
        Self {
            cells: (0..n)
                .map(|_| AtomicU8::new(HealthState::Healthy as u8))
                .collect(),
        }
    }

    /// Number of backends.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the pool is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Current state of backend `b`.
    #[inline]
    pub fn get(&self, b: usize) -> HealthState {
        HealthState::from_u8(self.cells[b].load(Ordering::Relaxed))
    }

    /// Store a new state for backend `b` (control plane only).
    #[inline]
    pub(crate) fn set(&self, b: usize, s: HealthState) {
        self.cells[b].store(s as u8, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use HealthState::*;

    #[test]
    fn predicates_match_the_drain_semantics() {
        assert!(Healthy.accepts_new() && Healthy.serves_in_flight());
        assert!(Slow.accepts_new() && Slow.serves_in_flight());
        assert!(!Draining.accepts_new() && Draining.serves_in_flight());
        assert!(!Down.accepts_new() && !Down.serves_in_flight());
    }

    #[test]
    fn transition_rules() {
        // The canonical lifecycle: Healthy → Draining → Down → Healthy.
        assert!(Healthy.can_transition(Draining));
        assert!(Draining.can_transition(Down));
        assert!(Down.can_transition(Healthy));
        // Drain cancel and slow/recover.
        assert!(Draining.can_transition(Healthy));
        assert!(Healthy.can_transition(Slow));
        assert!(Slow.can_transition(Healthy));
        assert!(Slow.can_transition(Draining));
        // Illegal: self-transitions, resurrecting into a degraded state.
        for s in [Healthy, Slow, Draining, Down] {
            assert!(!s.can_transition(s), "{s:?} -> {s:?} must be rejected");
        }
        assert!(!Down.can_transition(Slow));
        assert!(!Down.can_transition(Draining));
    }

    #[test]
    fn cells_round_trip_states() {
        let cells = HealthCells::new(3);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells.get(1), Healthy);
        cells.set(1, Draining);
        assert_eq!(cells.get(1), Draining);
        cells.set(1, Down);
        assert_eq!(HealthState::from_u8(cells.get(1) as u8), Down);
        assert_eq!(cells.get(0), Healthy, "other cells untouched");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Healthy.name(), "healthy");
        assert_eq!(Down.name(), "down");
    }
}
