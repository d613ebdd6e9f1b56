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
    /// Request size distribution (bytes, Table 1's request-size
    /// dimension). Skipped once per request ([`Distribution::skip`]): the
    /// simulator reads no size, so no value is computed, but the stream
    /// advances as a draw would and stays the one every seed's recorded
    /// results came from.
    pub size_bytes: Arc<dyn Distribution>,
    /// Requests per connection (1 = short-lived HTTP; large = keep-alive /
    /// WebSocket-ish).
    pub requests_per_conn: Arc<dyn Distribution>,
    /// Gap between consecutive requests on a connection (ns).
    pub think_time_ns: Arc<dyn Distribution>,
    /// Events per request (epoll readiness notifications); the workload
    /// holds it once per tenant ([`Workload::events_of`]).
    pub events_per_request: u16,
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

    /// Make room in `w`'s request table for `conns` more connections of
    /// this set: the Zipf-weighted mean per connection of the profiles
    /// whose scripts go to the table, exact when every profile draws the
    /// same constant count (rounded, as the shares sum to 1 only up to float
    /// error). A profile of one request per connection reserves nothing:
    /// its request is at offset 0, so its rows hold their scripts. An
    /// unbounded mean reserves nothing; the table then grows as it fills.
    fn reserve_requests(&self, w: &mut Workload, conns: usize) {
        let per_conn: f64 = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let count = p.requests_per_conn.mean().round().max(1.0);
                if count > 1.0 {
                    self.share_of(i) * count
                } else {
                    0.0
                }
            })
            .sum();
        let requests = (conns as f64 * per_conn).round();
        let requests = if requests.is_finite() {
            requests as usize
        } else {
            0
        };
        w.reserve(0, requests);
    }

    /// Append a connection to `w` for every arrival `process` draws over
    /// `duration_ns` and return them; `first_seq` numbers the first one's
    /// flow. Tenant `i` of this set is tenant `first_tenant + i` of `w`,
    /// and lingers and has the events per request its profile says. Each arrival goes straight into the
    /// row it starts, and once the stream ends the rows are filled in
    /// order, each from a Zipf-sampled tenant: every arrival is drawn
    /// before any connection's script, the order every recorded result was
    /// drawn in.
    pub(crate) fn append<'w>(
        &self,
        w: &'w mut Workload,
        first_tenant: u16,
        process: &ArrivalProcess,
        duration_ns: u64,
        first_seq: u32,
        rng: &mut crate::Rng,
    ) -> &'w mut [ConnectionSpec] {
        for (i, profile) in self.tenants.iter().enumerate() {
            let tenant = first_tenant + i as u16;
            w.set_linger(tenant, profile.linger_ns.unwrap_or(0));
            w.set_events_per_request(tenant, profile.events_per_request);
        }
        let first = w.conns.len();
        // One allocation for the rows, not a doubling series: an outgrown
        // buffer the allocator served from its heap stays resident after it
        // is freed (glibc's does so from its second large workload in a
        // process on), and the trim below returns the room left over.
        w.conns.reserve_exact(process.room_for(duration_ns));
        w.conns.extend(
            process
                .arrivals(duration_ns, rng)
                .map(ConnectionSpec::arriving),
        );
        w.conns.shrink_to_fit();
        self.reserve_requests(w, w.conns.len() - first);
        for (index, seq) in (first..w.conns.len()).zip(first_seq..) {
            let tenant = self.skew.sample_index(rng);
            self.fill(w, index, tenant, seq, rng).tenant += first_tenant;
        }
        &mut w.conns[first..]
    }

    /// Make row `index` of `w`, which holds only its arrival, a connection
    /// of `tenant`: a lone request goes straight into the row, a longer
    /// script straight into the workload's table, and the row keeps the
    /// flow's hash. `conn_seq` individualizes the flow 4-tuple.
    fn fill<'w>(
        &self,
        w: &'w mut Workload,
        index: usize,
        tenant: usize,
        conn_seq: u32,
        rng: &mut crate::Rng,
    ) -> &'w mut ConnectionSpec {
        let profile = &self.tenants[tenant];
        let n_requests = (round(profile.requests_per_conn.sample(rng)) as usize).max(1);
        let conn = if n_requests == 1 {
            w.script_one(index, request(profile, 0, rng))
        } else {
            let mut offset = 0u64;
            let requests = (0..n_requests).map(|i| {
                if i > 0 {
                    offset += profile.think_time_ns.sample(rng).max(0.0) as u64;
                }
                request(profile, offset, rng)
            });
            w.script(index, requests)
        };
        // Synthetic client identity: distinct src ip/port per connection so
        // reuseport hashing sees fresh tuples. The source-port jitter is the
        // draw after the requests'.
        let src_ip = 0x0a00_0000 | (conn_seq >> 8);
        let src_port =
            1024u16.wrapping_add((conn_seq as u16).wrapping_mul(13)) ^ (rng.u16() & 0x3ff);
        conn.set_flow(FlowKey::new(
            src_ip,
            src_port,
            self.vip,
            self.port_of(tenant),
        ));
        conn.tenant = tenant as u16;
        conn
    }

    /// Build a full workload: arrivals from `process` over `duration_ns`,
    /// tenant drawn per connection, each tenant lingering and having the
    /// events per request its profile says.
    pub fn workload(
        &self,
        name: impl Into<String>,
        process: &ArrivalProcess,
        duration_ns: u64,
        rng: &mut crate::Rng,
    ) -> Workload {
        let mut w = Workload::new(name, duration_ns);
        self.append(&mut w, 0, process, duration_ns, 0, rng);
        w.seal()
    }
}

/// One of `profile`'s requests, starting `start_offset_ns` into its
/// connection: its service time is drawn, then its size is skipped. Nothing
/// reads a request's size, but every recorded result comes from the stream
/// with that draw in it.
fn request(profile: &TenantProfile, start_offset_ns: u64, rng: &mut crate::Rng) -> RequestSpec {
    let service_ns = profile.service_ns.sample(rng).max(1.0) as u64;
    profile.size_bytes.skip(rng);
    RequestSpec {
        start_offset_ns,
        service_ns,
    }
}

/// `x.round()` (half away from zero), inline: `f64::round` is a libm call
/// on baseline x86-64, which has no `roundsd`, and every connection's
/// request count is rounded. Agrees with it bit for bit, signed zeros,
/// infinities and NaN included.
#[inline]
fn round(x: f64) -> f64 {
    // From 2⁵² on every float is an integer, and NaN fails the test.
    if x.abs() < 4_503_599_627_370_496.0 {
        // Below 2⁵² the conversions truncate exactly, and so does `x - t`.
        let t = x as i64 as f64;
        let r = if (x - t).abs() >= 0.5 {
            t + 1f64.copysign(x)
        } else {
            t
        };
        return r.copysign(x);
    }
    x
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

    /// Row `index` of `w`, written at `arrival_ns`, filled for `tenant`.
    fn filled(
        ts: &TenantSet,
        w: &mut Workload,
        tenant: usize,
        arrival_ns: u64,
        conn_seq: u32,
        rng: &mut crate::Rng,
    ) -> ConnectionSpec {
        w.conns.push(ConnectionSpec::arriving(arrival_ns));
        *ts.fill(w, w.conns.len() - 1, tenant, conn_seq, rng)
    }

    #[test]
    fn generated_connection_matches_profile() {
        let ts = two_tenants();
        let mut rng = crate::rng(21);
        let mut w = Workload::new("t", NANOS_PER_SEC);
        let c = filled(&ts, &mut w, 1, 500, 7, &mut rng);
        assert_eq!(c.tenant, 1);
        assert_eq!(c.port(), 10_001);
        assert_eq!(c.arrival_ns, 500);
        let requests: Vec<RequestSpec> = w.requests_of(&c).iter().collect();
        assert_eq!(requests.len(), 3);
        assert_eq!(requests[0].service_ns, 50_000_000);
        // Think time spaces the scripted requests.
        assert_eq!(requests[1].start_offset_ns, 1_000_000);
        assert_eq!(requests[2].start_offset_ns, 2_000_000);
    }

    /// Every connection lingers as its tenant's profile says.
    #[test]
    fn workload_connections_linger_as_their_profiles() {
        let ts = two_tenants();
        let process = ArrivalProcess::Poisson {
            rate_per_sec: 500.0,
        };
        let w = ts.workload("linger", &process, NANOS_PER_SEC, &mut crate::rng(25));
        assert!(w.conns.iter().any(|c| c.tenant == 0));
        assert!(w.conns.iter().any(|c| c.tenant == 1));
        for c in &w.conns {
            let want = [0, 5 * NANOS_PER_SEC][usize::from(c.tenant)];
            assert_eq!(w.linger_of(c), want);
        }
    }

    /// `append` gives every profile's events per request to the tenant id
    /// it assigns that profile, past `first_tenant`.
    #[test]
    fn append_sets_each_profiles_events_under_its_tenant_id() {
        let mut profiles = vec![TenantProfile::simple_http(1_000.0); 3];
        for (profile, events) in profiles.iter_mut().zip([3, 1, 5]) {
            profile.events_per_request = events;
        }
        let ts = TenantSet::new(profiles, 0.5, 1);
        let process = ArrivalProcess::Poisson {
            rate_per_sec: 2_000.0,
        };
        let mut w = Workload::new("events", NANOS_PER_SEC);
        let mut rng = crate::rng(26);
        ts.append(&mut w, 4, &process, NANOS_PER_SEC, 0, &mut rng);
        let w = w.seal();
        for tenant in 4..7 {
            assert!(
                w.conns.iter().any(|c| c.tenant == tenant),
                "tenant {tenant}"
            );
        }
        for c in &w.conns {
            let want = [3, 1, 5][usize::from(c.tenant - 4)];
            assert_eq!(w.events_of(c), want);
        }
    }

    #[test]
    fn flows_are_distinct_across_connections() {
        let ts = two_tenants();
        let mut rng = crate::rng(22);
        let mut w = Workload::new("t", NANOS_PER_SEC);
        let a = filled(&ts, &mut w, 0, 0, 1, &mut rng).flow;
        let b = filled(&ts, &mut w, 0, 0, 2, &mut rng).flow;
        assert_ne!(a, b);
    }

    /// The connection rows are trimmed to the arrivals once they are all
    /// drawn and the request table is reserved from their count, so neither
    /// holds room that nothing fills: the table reserves exactly the
    /// multi-request scripts, and nothing for one-request profiles, whose
    /// requests go straight to their rows.
    #[test]
    fn workload_generation_fills_its_reservation_exactly() {
        let mut three = TenantProfile::simple_http(1.0);
        three.requests_per_conn = Arc::new(Constant(3.0));
        for (profile, per_conn, in_table) in
            [(TenantProfile::simple_http(1.0), 1, 0), (three, 3, 3)]
        {
            let ts = TenantSet::new(vec![profile; 9], 0.9, 1);
            let process = ArrivalProcess::Poisson {
                rate_per_sec: 5_000.0,
            };
            let mut w = Workload::new("poisson", NANOS_PER_SEC);
            ts.append(&mut w, 0, &process, NANOS_PER_SEC, 0, &mut crate::rng(24));
            let conns = w.connection_count();
            assert!(conns > 4_500, "{conns}");
            assert_eq!(w.conns.capacity(), conns);
            assert_eq!(w.request_count(), per_conn * conns);
            let table = |w: &Workload| (w.request_table().len(), w.request_table().capacity());
            assert_eq!(table(&w), (in_table * conns, in_table * conns));
            assert_eq!(table(&w.seal()), (in_table * conns, in_table * conns));
        }
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

    /// The inline rounding is `f64::round`, bit for bit: at halves and
    /// their neighbours, around 2⁵² and the end of `i64`, at signed zeros,
    /// subnormals, infinities and NaN, and over random bit patterns and
    /// counts.
    #[test]
    fn inline_round_is_f64_round() {
        let same = |x: f64| {
            let (mine, libm) = (round(x), x.round());
            assert!(
                mine.to_bits() == libm.to_bits() || (mine.is_nan() && libm.is_nan()),
                "{x:e}: {mine:e}, not {libm:e}"
            );
        };
        let edges = [
            0.0,
            0.5,
            1.0,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            9_223_372_036_854_775_808.0,
            f64::MIN_POSITIVE,
            5e-324,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for x in edges {
            for x in [x, x.next_up(), x.next_down()] {
                same(x);
                same(-x);
            }
        }
        for k in 0..10_000 {
            let half = f64::from(k) + 0.5;
            for x in [half, half.next_up(), half.next_down()] {
                same(x);
                same(-x);
            }
        }
        hermes_metrics::rng::for_each_case(64, |g| {
            for _ in 0..10_000 {
                same(f64::from_bits(g.next_u64()));
                same(1_000.0 * g.f64());
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn empty_tenant_set_rejected() {
        TenantSet::new(vec![], 1.0, 1);
    }
}
