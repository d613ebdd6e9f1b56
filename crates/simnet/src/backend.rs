//! The simulated backend plane: versioned pools, service-time modeling,
//! and scripted health churn.
//!
//! When a [`crate::config::SimConfig`] carries a [`BackendSimConfig`], every
//! request the LB finishes *processing* is forwarded to a backend server
//! and only completes when the backend's response lands. Backend selection
//! runs through the real `hermes_backend` data plane — a
//! [`hermes_backend::BackendPool`] publishing epoch-versioned frozen
//! tables — so the simulator exercises exactly the consistency machinery
//! the relay loop uses:
//!
//! * each connection captures an [`hermes_backend::Admission`] against the
//!   table version current at accept time;
//! * requests resolve through that admission: pinned while the admitted
//!   backend still serves, retried to a deterministic sibling when it goes
//!   `Down`, falling back to the live table only when the whole admitted
//!   version has expired;
//! * scripted [`BackendChurnEvent`]s drive the pool's health state machine
//!   mid-run (flap, rolling drain, slow backend), each publishing a new
//!   table version without touching in-flight admissions.
//!
//! The plane counts every routing decision; the churn-consistency tests
//! assert the invariants (zero misroutes, zero dropped responses) that the
//! versioned-table design guarantees.

use crate::metrics::BackendReport;
use hermes_backend::{Admission, BackendId, BackendPool, Resolution, TableCache};
use hermes_workload::BackendServiceProfile;

pub use hermes_backend::HealthState;

/// One scripted health transition, applied to the pool at `at_ns`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackendChurnEvent {
    /// Simulation time of the transition.
    pub at_ns: u64,
    /// Target backend.
    pub backend: BackendId,
    /// New health state.
    pub to: HealthState,
}

/// Backend-plane configuration: one service-time profile per backend plus
/// the churn script. Attach via [`crate::config::SimConfig::backend`].
#[derive(Clone, Debug)]
pub struct BackendSimConfig {
    /// Per-backend service-time models; the pool size is `profiles.len()`.
    pub profiles: Vec<BackendServiceProfile>,
    /// Scripted health transitions (any order; the event queue sorts).
    pub churn: Vec<BackendChurnEvent>,
}

impl BackendSimConfig {
    /// `n` identical healthy backends, no churn.
    pub fn steady(n: usize, mean_ns: u64) -> Self {
        Self {
            profiles: vec![BackendServiceProfile::new(mean_ns); n],
            churn: Vec::new(),
        }
    }

    /// The backend-flap scenario: `victim` goes `Down` at `down_at_ns` and
    /// recovers at `up_at_ns`. In-flight connections pinned to the victim
    /// retry against their admitted table; new connections never see it.
    pub fn flap(n: usize, mean_ns: u64, victim: BackendId, down_at_ns: u64, up_at_ns: u64) -> Self {
        assert!(victim < n, "flap victim out of range");
        assert!(
            down_at_ns < up_at_ns,
            "flap must go down before it comes up"
        );
        let mut cfg = Self::steady(n, mean_ns);
        cfg.churn.push(BackendChurnEvent {
            at_ns: down_at_ns,
            backend: victim,
            to: HealthState::Down,
        });
        cfg.churn.push(BackendChurnEvent {
            at_ns: up_at_ns,
            backend: victim,
            to: HealthState::Healthy,
        });
        cfg
    }

    /// The rolling-drain scenario: backends `0..drain_count` drain one at
    /// a time, `step_ns` apart starting at `start_ns`, each returning to
    /// `Healthy` when the next drain begins. Draining backends keep
    /// serving their in-flight connections, so nothing retries.
    pub fn rolling_drain(
        n: usize,
        mean_ns: u64,
        start_ns: u64,
        step_ns: u64,
        drain_count: usize,
    ) -> Self {
        assert!(drain_count <= n, "cannot drain more backends than exist");
        assert!(step_ns > 0, "drain step must be positive");
        let mut cfg = Self::steady(n, mean_ns);
        for i in 0..drain_count {
            let at = start_ns + i as u64 * step_ns;
            cfg.churn.push(BackendChurnEvent {
                at_ns: at,
                backend: i,
                to: HealthState::Draining,
            });
            cfg.churn.push(BackendChurnEvent {
                at_ns: at + step_ns,
                backend: i,
                to: HealthState::Healthy,
            });
        }
        cfg
    }

    /// The slow-backend scenario: `victim` serves every request `factor`×
    /// slower than its siblings. No health transitions — the interesting
    /// output is the end-to-end latency tail.
    pub fn slow_backend(n: usize, mean_ns: u64, victim: BackendId, factor: f64) -> Self {
        assert!(victim < n, "slow victim out of range");
        let mut cfg = Self::steady(n, mean_ns);
        cfg.profiles[victim] = BackendServiceProfile::slowed(mean_ns, factor);
        cfg
    }

    /// Validate invariants (called by `SimConfig::validate`).
    pub fn validate(&self) {
        assert!(
            !self.profiles.is_empty(),
            "backend plane needs >= 1 backend"
        );
        for e in &self.churn {
            assert!(
                e.backend < self.profiles.len(),
                "churn event names backend {} but pool has {}",
                e.backend,
                self.profiles.len()
            );
        }
    }
}

/// Runtime state of the backend plane for one device: the versioned pool,
/// per-connection admissions, and routing counters.
pub(crate) struct BackendPlane {
    pool: BackendPool,
    cache: TableCache,
    profiles: Vec<BackendServiceProfile>,
    churn: Vec<BackendChurnEvent>,
    /// Admission captured at accept time, indexed by connection id.
    admissions: Vec<Option<Admission>>,
    admitted: u64,
    pinned: u64,
    retried: u64,
    fell_back: u64,
    misroutes: u64,
    dropped: u64,
    per_backend_completed: Vec<u64>,
}

impl BackendPlane {
    pub(crate) fn new(cfg: &BackendSimConfig, conns: usize) -> Self {
        let n = cfg.profiles.len();
        Self {
            pool: BackendPool::new(n),
            cache: TableCache::new(),
            profiles: cfg.profiles.clone(),
            churn: cfg.churn.clone(),
            admissions: vec![None; conns],
            admitted: 0,
            pinned: 0,
            retried: 0,
            fell_back: 0,
            misroutes: 0,
            dropped: 0,
            per_backend_completed: vec![0; n],
        }
    }

    /// Number of scripted churn events.
    pub(crate) fn churn_len(&self) -> usize {
        self.churn.len()
    }

    /// Fire time of churn event `i`.
    pub(crate) fn churn_at(&self, i: usize) -> u64 {
        self.churn[i].at_ns
    }

    /// Apply scripted churn event `i`: one health transition, publishing a
    /// new table version (and a trace event) via the pool.
    pub(crate) fn apply_churn(&mut self, i: usize, now_ns: u64) {
        let e = self.churn[i];
        self.pool.set_health(e.backend, e.to, now_ns);
    }

    /// Capture an admission for connection `c` against the table version
    /// current at accept time.
    pub(crate) fn admit(&mut self, c: usize, hash: u32) {
        let table = self.pool.cached(&mut self.cache);
        if let Some(adm) = table.admit(hash) {
            self.admissions[c] = Some(adm);
            self.admitted += 1;
        }
    }

    /// Route request `req` of connection `c`: resolve through the admitted
    /// table version, falling back to the live table only when the whole
    /// admitted cohort has expired. Returns the serving backend and its
    /// sampled service time; `None` means no backend can serve (the
    /// response is dropped).
    pub(crate) fn route(&mut self, c: usize, hash: u32, req: usize) -> Option<(BackendId, u64)> {
        let backend = match &self.admissions[c] {
            Some(adm) => match adm.resolve() {
                Resolution::Pinned(b) => {
                    self.pinned += 1;
                    Some(b)
                }
                Resolution::Retried(b) => {
                    // Structural invariant: resolve() only retries when the
                    // pinned backend no longer serves in-flight traffic. A
                    // retry while the pinned backend still serves would be
                    // a misroute — counted, asserted zero in the tests.
                    if self.pool.health(adm.pinned()).serves_in_flight() {
                        self.misroutes += 1;
                    }
                    self.retried += 1;
                    hermes_trace::trace_count!(hermes_trace::CounterId::BackendRetries);
                    Some(b)
                }
                Resolution::Expired => None,
            },
            None => None,
        };
        let backend = match backend {
            Some(b) => b,
            None => {
                // Admitted version fully expired (or the connection was
                // never admitted): route against the live table.
                match self.pool.cached(&mut self.cache).select(hash) {
                    Some(b) => {
                        self.fell_back += 1;
                        b
                    }
                    None => {
                        self.dropped += 1;
                        return None;
                    }
                }
            }
        };
        Some((backend, self.profiles[backend].sample_ns(hash, req)))
    }

    /// A backend's response arrived back at the LB.
    pub(crate) fn complete(&mut self, backend: BackendId) {
        self.per_backend_completed[backend] += 1;
    }

    /// Snapshot the routing counters for the device report.
    pub(crate) fn report(&self) -> BackendReport {
        BackendReport {
            versions_published: self.pool.version(),
            admitted: self.admitted,
            pinned: self.pinned,
            retried: self.retried,
            fell_back: self.fell_back,
            misroutes: self.misroutes,
            dropped_responses: self.dropped,
            per_backend_completed: self.per_backend_completed.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_routes_every_request_pinned() {
        let cfg = BackendSimConfig::steady(4, 100_000);
        cfg.validate();
        let mut plane = BackendPlane::new(&cfg, 100);
        for c in 0..100usize {
            let hash = (c as u32).wrapping_mul(0x9E37_79B9);
            plane.admit(c, hash);
            for req in 0..3 {
                let (b, svc) = plane.route(c, hash, req).expect("healthy pool routes");
                assert!(b < 4);
                assert!(svc >= 1);
                plane.complete(b);
            }
        }
        let r = plane.report();
        assert_eq!(r.admitted, 100);
        assert_eq!(r.pinned, 300);
        assert_eq!(r.retried, 0);
        assert_eq!(r.fell_back, 0);
        assert_eq!(r.misroutes, 0);
        assert_eq!(r.dropped_responses, 0);
        assert_eq!(r.per_backend_completed.iter().sum::<u64>(), 300);
        assert_eq!(r.versions_published, 1);
    }

    #[test]
    fn down_backend_retries_in_flight_against_admitted_version() {
        let cfg = BackendSimConfig::flap(4, 100_000, 2, 1_000, 2_000);
        cfg.validate();
        let mut plane = BackendPlane::new(&cfg, 400);
        // Admit everyone under v1, then take backend 2 down.
        let hashes: Vec<u32> = (0..400u32).map(|c| c.wrapping_mul(0x9E37_79B9)).collect();
        for (c, &h) in hashes.iter().enumerate() {
            plane.admit(c, h);
        }
        plane.apply_churn(0, 1_000); // victim Down
        let mut retried = 0;
        for (c, &h) in hashes.iter().enumerate() {
            let (b, _) = plane.route(c, h, 0).expect("siblings still serve");
            assert_ne!(b, 2, "down backend must not serve");
            if matches!(plane.admissions[c].as_ref().map(|a| a.pinned()), Some(2)) {
                retried += 1;
            }
        }
        let r = plane.report();
        assert!(retried > 0, "some connections must have been pinned to 2");
        assert_eq!(r.retried, retried);
        assert_eq!(r.misroutes, 0);
        assert_eq!(r.versions_published, 2);
    }

    #[test]
    fn draining_backend_keeps_serving_pinned_connections() {
        let mut cfg = BackendSimConfig::steady(4, 100_000);
        cfg.churn.push(BackendChurnEvent {
            at_ns: 500,
            backend: 1,
            to: HealthState::Draining,
        });
        let mut plane = BackendPlane::new(&cfg, 200);
        let hashes: Vec<u32> = (0..200u32).map(|c| c.wrapping_mul(0x85EB_CA6B)).collect();
        for (c, &h) in hashes.iter().enumerate() {
            plane.admit(c, h);
        }
        plane.apply_churn(0, 500);
        for (c, &h) in hashes.iter().enumerate() {
            plane.route(c, h, 0).expect("draining still serves");
        }
        let r = plane.report();
        assert_eq!(r.retried, 0, "drain must not displace in-flight traffic");
        assert_eq!(r.fell_back, 0);
        assert_eq!(r.pinned, 200);
    }

    #[test]
    fn slow_backend_scales_its_service_times() {
        let cfg = BackendSimConfig::slow_backend(2, 100_000, 1, 10.0);
        assert_eq!(cfg.profiles[1].slow_multiplier(), 10.0);
        assert_eq!(cfg.profiles[0].slow_multiplier(), 1.0);
    }

    #[test]
    fn rolling_drain_script_alternates_drain_and_recover() {
        let cfg = BackendSimConfig::rolling_drain(8, 100_000, 1_000, 500, 3);
        cfg.validate();
        assert_eq!(cfg.churn.len(), 6);
        assert_eq!(cfg.churn[0].to, HealthState::Draining);
        assert_eq!(cfg.churn[1].to, HealthState::Healthy);
        assert_eq!(cfg.churn[0].backend, 0);
        assert_eq!(cfg.churn[2].backend, 1);
        assert_eq!(cfg.churn[3].at_ns, cfg.churn[4].at_ns); // recover i as i+1 drains
    }

    #[test]
    #[should_panic(expected = "churn event names backend")]
    fn out_of_range_churn_rejected() {
        let mut cfg = BackendSimConfig::steady(2, 1_000);
        cfg.churn.push(BackendChurnEvent {
            at_ns: 0,
            backend: 7,
            to: HealthState::Down,
        });
        cfg.validate();
    }
}
