//! Multi-tenant traffic composition.
//!
//! §2.1: each tenant gets its own Dport(s); an LB device serves many
//! tenants whose traffic shares are heavily skewed (§7: top tenants carry
//! 40 %/28 %/22 % of a region). A [`TenantSet`] assembles per-tenant
//! [`TenantProfile`]s into one [`Workload`], drawing tenant identity per
//! connection from a Zipf law over tenant rank.

use crate::arrival::ArrivalProcess;
use crate::distr::{Distribution, Exp, Zipf};
use crate::spec::{ConnectionSpec, RequestSpec, Workload};
use hermes_core::FlowKey;
use std::sync::Arc;

/// Per-tenant traffic characteristics.
#[derive(Clone, Debug)]
pub struct TenantProfile {
    /// Display name.
    pub name: String,
    /// Request processing-time distribution (ns).
    pub service_ns: Arc<dyn Distribution>,
    /// Request size distribution (bytes).
    pub size_bytes: Arc<dyn Distribution>,
    /// Requests per connection (1 = short-lived HTTP; large = keep-alive /
    /// WebSocket-ish).
    pub requests_per_conn: Arc<dyn Distribution>,
    /// Gap between consecutive requests on a connection (ns).
    pub think_time_ns: Arc<dyn Distribution>,
    /// Events per request (epoll readiness notifications).
    pub events_per_request: u32,
    /// How long the connection lingers after its last request (ns); `None`
    /// closes immediately.
    pub linger_ns: Option<u64>,
}

impl TenantProfile {
    /// A plain short-lived HTTP profile with exponential service times.
    pub fn simple_http(mean_service_ns: f64) -> Self {
        Self {
            name: "http".into(),
            service_ns: Arc::new(Exp::with_mean(mean_service_ns)),
            size_bytes: Arc::new(Exp::with_mean(800.0)),
            requests_per_conn: Arc::new(crate::distr::Constant(1.0)),
            think_time_ns: Arc::new(crate::distr::Constant(0.0)),
            events_per_request: 2,
            linger_ns: None,
        }
    }
}

/// A set of tenants with Zipf-skewed traffic shares, each owning one port.
#[derive(Clone, Debug)]
pub struct TenantSet {
    tenants: Vec<TenantProfile>,
    skew: Zipf,
    /// First Dport; tenant `i` listens on `base_port + i`.
    base_port: u16,
    /// LB VIP used as the flow destination address.
    vip: u32,
}

impl TenantSet {
    /// Build a tenant set with Zipf exponent `skew_s` over tenant rank.
    pub fn new(tenants: Vec<TenantProfile>, skew_s: f64, base_port: u16) -> Self {
        assert!(!tenants.is_empty(), "need at least one tenant");
        let n = tenants.len();
        Self {
            tenants,
            skew: Zipf::new(n, skew_s),
            base_port,
            vip: 0x0aff_0001, // 10.255.0.1
        }
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when the set is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The port assigned to tenant `i`.
    pub fn port_of(&self, tenant: usize) -> u16 {
        self.base_port + tenant as u16
    }

    /// Expected traffic share of tenant `i` (Zipf pmf of its rank).
    pub fn share_of(&self, tenant: usize) -> f64 {
        self.skew.pmf(tenant + 1)
    }

    /// Generate one connection arriving at `arrival_ns` for a
    /// Zipf-sampled tenant. `conn_seq` individualizes the flow 4-tuple.
    pub fn generate_connection(
        &self,
        arrival_ns: u64,
        conn_seq: u32,
        rng: &mut crate::Rng,
    ) -> ConnectionSpec {
        let tenant = self.skew.sample_index(rng);
        self.generate_connection_for(tenant, arrival_ns, conn_seq, rng)
    }

    /// Generate a connection for a specific tenant.
    pub fn generate_connection_for(
        &self,
        tenant: usize,
        arrival_ns: u64,
        conn_seq: u32,
        rng: &mut crate::Rng,
    ) -> ConnectionSpec {
        let profile = &self.tenants[tenant];
        let n_requests = (profile.requests_per_conn.sample(rng).round() as usize).max(1);
        let mut requests = Vec::with_capacity(n_requests);
        let mut offset = 0u64;
        for i in 0..n_requests {
            if i > 0 {
                offset += profile.think_time_ns.sample(rng).max(0.0) as u64;
            }
            requests.push(RequestSpec {
                start_offset_ns: offset,
                service_ns: profile.service_ns.sample(rng).max(1.0) as u64,
                events: profile.events_per_request,
                size_bytes: profile.size_bytes.sample(rng).max(1.0) as u32,
            });
        }
        // Synthetic client identity: distinct src ip/port per connection so
        // reuseport hashing sees fresh tuples.
        let src_ip = 0x0a00_0000 | (conn_seq >> 8);
        let src_port = 1024u16.wrapping_add((conn_seq as u16).wrapping_mul(13));
        let port = self.port_of(tenant);
        ConnectionSpec {
            arrival_ns,
            flow: FlowKey::new(src_ip, src_port ^ (rng.u16() & 0x3ff), self.vip, port),
            tenant: tenant as u16,
            port,
            requests,
            linger_ns: profile.linger_ns,
        }
    }

    /// Build a full workload: arrivals from `process` over `duration_ns`,
    /// tenant drawn per connection.
    pub fn workload(
        &self,
        name: impl Into<String>,
        process: &ArrivalProcess,
        duration_ns: u64,
        rng: &mut crate::Rng,
    ) -> Workload {
        let mut w = Workload::new(name, duration_ns);
        for (seq, t) in process
            .generate(0, duration_ns, rng)
            .into_iter()
            .enumerate()
        {
            w.push(self.generate_connection(t, seq as u32, rng));
        }
        w.seal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distr::Constant;
    use hermes_metrics::NANOS_PER_SEC;

    fn two_tenants() -> TenantSet {
        TenantSet::new(
            vec![
                TenantProfile::simple_http(1_000_000.0),
                TenantProfile {
                    name: "heavy".into(),
                    service_ns: Arc::new(Constant(50_000_000.0)),
                    size_bytes: Arc::new(Constant(4_000.0)),
                    requests_per_conn: Arc::new(Constant(3.0)),
                    think_time_ns: Arc::new(Constant(1_000_000.0)),
                    events_per_request: 2,
                    linger_ns: Some(5 * NANOS_PER_SEC),
                },
            ],
            1.0,
            10_000,
        )
    }

    #[test]
    fn ports_are_per_tenant() {
        let ts = two_tenants();
        assert_eq!(ts.port_of(0), 10_000);
        assert_eq!(ts.port_of(1), 10_001);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn shares_follow_zipf() {
        let ts = two_tenants();
        // s=1.0 over 2 ranks: shares 2/3 and 1/3.
        assert!((ts.share_of(0) - 2.0 / 3.0).abs() < 1e-12);
        assert!((ts.share_of(1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn generated_connection_matches_profile() {
        let ts = two_tenants();
        let mut rng = crate::rng(21);
        let c = ts.generate_connection_for(1, 500, 7, &mut rng);
        assert_eq!(c.tenant, 1);
        assert_eq!(c.port, 10_001);
        assert_eq!(c.arrival_ns, 500);
        assert_eq!(c.requests.len(), 3);
        assert_eq!(c.requests[0].service_ns, 50_000_000);
        assert_eq!(c.linger_ns, Some(5 * NANOS_PER_SEC));
        // Think time spaces the scripted requests.
        assert_eq!(c.requests[1].start_offset_ns, 1_000_000);
        assert_eq!(c.requests[2].start_offset_ns, 2_000_000);
    }

    #[test]
    fn flows_are_distinct_across_connections() {
        let ts = two_tenants();
        let mut rng = crate::rng(22);
        let a = ts.generate_connection_for(0, 0, 1, &mut rng);
        let b = ts.generate_connection_for(0, 0, 2, &mut rng);
        assert_ne!(a.flow, b.flow);
    }

    #[test]
    fn workload_generation_end_to_end() {
        let ts = two_tenants();
        let mut rng = crate::rng(23);
        let w = ts.workload(
            "smoke",
            &ArrivalProcess::Poisson {
                rate_per_sec: 500.0,
            },
            2 * NANOS_PER_SEC,
            &mut rng,
        );
        assert!(w.connection_count() > 800 && w.connection_count() < 1_200);
        assert!(w
            .conns
            .windows(2)
            .all(|p| p[0].arrival_ns <= p[1].arrival_ns));
        // Tenant 0 (rank 1) should dominate per Zipf.
        let t0 = w.conns.iter().filter(|c| c.tenant == 0).count();
        assert!(t0 as f64 / w.connection_count() as f64 > 0.55);
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_tenant_set_rejected() {
        TenantSet::new(vec![], 1.0, 1);
    }
}
