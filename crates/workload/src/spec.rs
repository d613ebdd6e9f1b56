//! The workload data model consumed by the simulator.
//!
//! A [`Workload`] is a time-ordered list of [`ConnectionSpec`]s and one flat
//! table of [`RequestSpec`]s, and it holds only what the simulator reads.
//! Each connection carries its flow identity (for reuseport hashing; its
//! destination port is the tenant's listening port), its tenant (for
//! multi-tenant accounting), how many I/O events each of its requests
//! triggers, and the extent of its script in the request table — a `u32`
//! start and count, not a `Vec` of its own. How long a connection lingers
//! after its last request is its tenant's, held once per tenant by the
//! workload ([`Workload::linger_of`]). A request is when it arrives relative
//! to connection establishment and how much worker CPU time it costs: 16
//! bytes, so Case 1 heavy's two million connections cost 32 + 16 bytes
//! each. [`Workload::push`] is the one way in and
//! [`Workload::requests_of`] the one way out, so a generator writes every
//! request into the table in place and a million connections cost two
//! allocations, not a million. Keeping requests scripted (rather than
//! generated inside the simulator) makes every experiment replayable and lets
//! the *same* workload be run under every dispatch mode — the comparison
//! structure of Table 3.

use hermes_core::FlowKey;

/// One application-layer request on a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestSpec {
    /// When the request's first event becomes readable, relative to
    /// connection establishment (ns).
    pub start_offset_ns: u64,
    /// Total worker CPU time to process the request (ns) — the paper's
    /// "processing time", covering parsing/SSL/compression. It is split
    /// evenly across the connection's
    /// [`events_per_request`](ConnectionSpec::events_per_request).
    pub service_ns: u64,
}

/// One client connection through the LB.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnectionSpec {
    /// SYN arrival time (ns from experiment start).
    pub arrival_ns: u64,
    /// Flow 4-tuple (gives the kernel its precomputed hash); its
    /// destination port is the LB-side port, [`port`](Self::port).
    pub flow: FlowKey,
    /// Owning tenant (dense id), for multi-tenant accounting and the
    /// connection's linger ([`Workload::linger_of`]).
    pub tenant: u16,
    /// Number of epoll events each of the connection's requests generates
    /// (≥1): header readable, body readable, upstream writable, ...
    pub events_per_request: u16,
    /// First of the connection's requests in its workload's table; set by
    /// [`Workload::push`].
    first_request: u32,
    /// Number of the connection's requests, sorted by `start_offset_ns`.
    requests: u32,
}

// Case 1 heavy holds two million connections for a 30 s device run, each
// with one request: a field added later fails the build here, so its cost is
// a reviewed number.
const _: () = assert!(std::mem::size_of::<ConnectionSpec>() == 32);
const _: () = assert!(std::mem::size_of::<RequestSpec>() == 16);

impl ConnectionSpec {
    /// A connection with no requests yet: [`Workload::push`] gives it its
    /// script.
    pub fn new(arrival_ns: u64, flow: FlowKey, tenant: u16, events_per_request: u16) -> Self {
        Self {
            arrival_ns,
            flow,
            tenant,
            events_per_request,
            first_request: 0,
            requests: 0,
        }
    }

    /// A row that holds only its arrival: a generator writes one per
    /// arrival as it draws them and fills in the rest with
    /// [`Workload::script`].
    pub(crate) fn arriving(arrival_ns: u64) -> Self {
        Self::new(arrival_ns, FlowKey::new(0, 0, 0, 0), 0, 0)
    }

    /// LB-side destination port (the tenant's rewritten Dport).
    pub fn port(&self) -> u16 {
        self.flow.dst_port
    }

    /// Number of scripted requests.
    pub fn request_count(&self) -> usize {
        self.requests as usize
    }

    /// CPU time each event of `request`, one of this connection's, consumes.
    pub fn service_per_event_ns(&self, request: &RequestSpec) -> u64 {
        request.service_ns / u64::from(self.events_per_request.max(1))
    }
}

/// A complete experiment input.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// Human-readable name (appears in harness output).
    pub name: String,
    /// Connections sorted by `arrival_ns`.
    pub conns: Vec<ConnectionSpec>,
    /// Every connection's requests, each connection's in one run.
    requests: Vec<RequestSpec>,
    /// How long a connection lingers after its last request, by tenant
    /// ([`set_linger`](Self::set_linger)).
    lingers: Vec<u64>,
    /// Experiment horizon (ns): the simulator runs to this time even after
    /// the last arrival, letting queues drain.
    pub duration_ns: u64,
}

impl Workload {
    /// Create an empty workload with a horizon.
    pub fn new(name: impl Into<String>, duration_ns: u64) -> Self {
        Self {
            name: name.into(),
            duration_ns,
            ..Self::default()
        }
    }

    /// Make room for `conns` more connections carrying `requests` more
    /// requests, so a generator that knows its counts never regrows.
    pub fn reserve(&mut self, conns: usize, requests: usize) {
        self.conns.reserve_exact(conns);
        self.requests.reserve_exact(requests);
    }

    /// Append a connection with its requests (kept sorted on
    /// [`seal`](Self::seal)) and return it in place. Its requests must
    /// already be sorted by start offset.
    pub fn push(
        &mut self,
        conn: ConnectionSpec,
        requests: impl IntoIterator<Item = RequestSpec>,
    ) -> &mut ConnectionSpec {
        self.conns.push(conn);
        self.script(self.conns.len() - 1, requests)
    }

    /// Append `requests` to the table as connection `index`'s script and
    /// return the connection: how a generator that wrote its rows first
    /// (one arrival each) fills them in, in order.
    pub(crate) fn script(
        &mut self,
        index: usize,
        requests: impl IntoIterator<Item = RequestSpec>,
    ) -> &mut ConnectionSpec {
        let first = self.requests.len();
        self.requests.extend(requests);
        let conn = &mut self.conns[index];
        conn.first_request = u32::try_from(first).expect("u32 request handles");
        conn.requests = u32::try_from(self.requests.len() - first).expect("u32 request handles");
        conn
    }

    /// Connections of `tenant` close `linger_ns` after their last request
    /// completes; 0 closes them right after it (short-lived), as it does
    /// for a tenant never set.
    pub fn set_linger(&mut self, tenant: u16, linger_ns: u64) {
        let tenant = usize::from(tenant);
        if tenant >= self.lingers.len() {
            self.lingers.resize(tenant + 1, 0);
        }
        self.lingers[tenant] = linger_ns;
    }

    /// Append every connection of `other` with its requests, `shift_ns`
    /// later, and take the lingers of its tenants, so a copied row lingers
    /// as it did. Panics if a tenant already lingers differently here.
    pub fn extend_from(&mut self, other: &Workload, shift_ns: u64) {
        for (tenant, &linger_ns) in other.lingers.iter().enumerate() {
            let mine = self.lingers.get(tenant).copied().unwrap_or(0);
            assert!(
                mine == 0 || linger_ns == 0 || mine == linger_ns,
                "tenant {tenant} lingers {mine} ns here and {linger_ns} ns in {}",
                other.name
            );
            if linger_ns != 0 {
                self.set_linger(tenant as u16, linger_ns);
            }
        }
        self.reserve(other.connection_count(), other.request_count());
        for c in &other.conns {
            let requests = other.requests_of(c).iter().copied();
            self.push(*c, requests).arrival_ns += shift_ns;
        }
    }

    /// How long `conn` lingers after its last request: its tenant's
    /// [`set_linger`](Self::set_linger).
    pub fn linger_of(&self, conn: &ConnectionSpec) -> u64 {
        self.lingers
            .get(usize::from(conn.tenant))
            .copied()
            .unwrap_or(0)
    }

    /// `conn`'s requests, sorted by start offset. `conn` must be one of this
    /// workload's connections.
    pub fn requests_of(&self, conn: &ConnectionSpec) -> &[RequestSpec] {
        let first = conn.first_request as usize;
        &self.requests[first..first + conn.request_count()]
    }

    /// [`requests_of`](Self::requests_of), to rewrite in place (offsets must
    /// stay sorted).
    pub fn requests_of_mut(&mut self, conn: &ConnectionSpec) -> &mut [RequestSpec] {
        let first = conn.first_request as usize;
        &mut self.requests[first..first + conn.request_count()]
    }

    /// Sort connections by arrival and validate invariants. Call once after
    /// generation; the simulator requires sealed workloads. The request
    /// table does not move: each connection keeps its extent.
    pub fn seal(mut self) -> Self {
        self.conns.sort_by_key(|c| c.arrival_ns);
        debug_assert!(
            self.conns
                .iter()
                .all(|c| self.requests_of(c).is_sorted_by_key(|r| r.start_offset_ns)),
            "requests must be sorted by start offset"
        );
        self
    }

    /// Number of connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Total requests across connections.
    pub fn request_count(&self) -> usize {
        self.conns.iter().map(ConnectionSpec::request_count).sum()
    }

    /// Aggregate offered CPU load (total service time / horizon) — the
    /// utilization the workload would impose on a single worker.
    pub fn offered_load(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        let total: u64 = self
            .conns
            .iter()
            .flat_map(|c| self.requests_of(c))
            .map(|r| r.service_ns)
            .sum();
        total as f64 / self.duration_ns as f64
    }

    /// Mean connections per second over the horizon.
    pub fn mean_cps(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.conns.len() as f64 * hermes_metrics::NANOS_PER_SEC as f64 / self.duration_ns as f64
    }
}

/// Test-only fingerprint of a generated stream: one wrapping sum per field
/// the simulator reads, each value weighted by its position (connection
/// order, then each connection's requests in order), so a reordered draw
/// shows as well as a changed one. The generator tests pin these figures.
#[cfg(test)]
impl Workload {
    /// Requests the table has room for.
    pub(crate) fn request_capacity(&self) -> usize {
        self.requests.capacity()
    }

    /// `[arrival, flow hash, tenant, linger]` over connections, then
    /// `[offset, service, events]` over requests.
    pub(crate) fn stream_sums(&self) -> [u64; 7] {
        let mut sums = [0u64; 7];
        let mut add = |field: usize, position: usize, value: u64| {
            sums[field] = sums[field].wrapping_add(value.wrapping_mul(position as u64 + 1));
        };
        let mut j = 0;
        for (i, c) in self.conns.iter().enumerate() {
            add(0, i, c.arrival_ns);
            add(1, i, u64::from(c.flow.hash()));
            add(2, i, u64::from(c.tenant));
            add(3, i, self.linger_of(c));
            for r in self.requests_of(c) {
                add(4, j, r.start_offset_ns);
                add(5, j, r.service_ns);
                add(6, j, u64::from(c.events_per_request));
                j += 1;
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(start_offset_ns: u64, service_ns: u64) -> RequestSpec {
        RequestSpec {
            start_offset_ns,
            service_ns,
        }
    }

    fn conn(arrival: u64) -> ConnectionSpec {
        ConnectionSpec::new(arrival, FlowKey::new(1, 2, 3, 4), 0, 2)
    }

    #[test]
    fn service_per_event_splits_evenly() {
        let c = ConnectionSpec {
            events_per_request: 4,
            ..conn(0)
        };
        assert_eq!(c.service_per_event_ns(&request(0, 100)), 25);
        let degenerate = ConnectionSpec {
            events_per_request: 0,
            ..c
        };
        assert_eq!(degenerate.service_per_event_ns(&request(0, 100)), 100);
    }

    #[test]
    fn linger_is_the_tenants_and_zero_when_unset() {
        let mut w = Workload::new("t", 1_000);
        w.set_linger(2, 500);
        w.push(conn(0), []).tenant = 2;
        w.push(conn(1), []).tenant = 1;
        w.push(conn(2), []).tenant = 3;
        let w = w.seal();
        let lingers: Vec<u64> = w.conns.iter().map(|c| w.linger_of(c)).collect();
        assert_eq!(lingers, [500, 0, 0]);
    }

    #[test]
    fn extend_from_copies_rows_with_their_lingers() {
        let mut a = Workload::new("a", 1_000);
        a.set_linger(1, 700);
        a.push(conn(5), [request(0, 10), request(3, 20)]).tenant = 1;
        a.push(conn(9), [request(0, 30)]);
        let a = a.seal();
        let mut w = Workload::new("w", 2_000);
        w.extend_from(&a, 0);
        w.extend_from(&a, 1_000);
        let w = w.seal();
        let arrivals: Vec<u64> = w.conns.iter().map(|c| c.arrival_ns).collect();
        assert_eq!(arrivals, [5, 9, 1_005, 1_009]);
        for (c, src) in w.conns.iter().zip(a.conns.iter().cycle()) {
            assert_eq!(w.linger_of(c), a.linger_of(src));
            assert_eq!(w.requests_of(c), a.requests_of(src));
        }
    }

    #[test]
    #[should_panic(expected = "tenant 1 lingers")]
    fn extend_from_refuses_a_second_linger_for_a_tenant() {
        let mut a = Workload::new("a", 1_000);
        a.set_linger(1, 700);
        let mut w = Workload::new("w", 1_000);
        w.set_linger(1, 300);
        w.extend_from(&a, 0);
    }

    #[test]
    fn seal_sorts_by_arrival() {
        let mut w = Workload::new("t", 1_000);
        w.push(conn(500), [request(0, 10)]);
        w.push(conn(100), [request(0, 10)]);
        let w = w.seal();
        assert_eq!(w.conns[0].arrival_ns, 100);
        assert_eq!(w.connection_count(), 2);
        assert_eq!(w.request_count(), 2);
    }

    #[test]
    fn offered_load_is_service_over_horizon() {
        let mut w = Workload::new("t", 1_000);
        w.push(conn(0), [request(0, 250)]);
        w.push(conn(10), [request(0, 250)]);
        let w = w.seal();
        assert!((w.offered_load() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_cps_over_horizon() {
        let mut w = Workload::new("t", hermes_metrics::NANOS_PER_SEC);
        for i in 0..100 {
            w.push(conn(i), [request(0, 1)]);
        }
        assert!((w.seal().mean_cps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_degenerates_safely() {
        let w = Workload::new("t", 0);
        assert_eq!(w.offered_load(), 0.0);
        assert_eq!(w.mean_cps(), 0.0);
    }

    /// Extents outlive the reordering `seal` does, and a rewrite through
    /// `requests_of_mut` touches one connection's requests only.
    #[test]
    fn extents_survive_seal_and_rewrites_stay_in_them() {
        let mut w = Workload::new("t", 1_000);
        w.push(conn(300), [request(0, 1), request(5, 2), request(9, 3)]);
        w.push(conn(100), []);
        w.push(conn(200), [request(7, 4)]).tenant = 7;
        let mut w = w.seal();
        let arrivals: Vec<u64> = w.conns.iter().map(|c| c.arrival_ns).collect();
        assert_eq!(arrivals, [100, 200, 300]);
        let services = |w: &Workload, i: usize| -> Vec<u64> {
            w.requests_of(&w.conns[i])
                .iter()
                .map(|r| r.service_ns)
                .collect()
        };
        assert_eq!(services(&w, 0), [] as [u64; 0]);
        assert_eq!(services(&w, 1), [4]);
        assert_eq!(services(&w, 2), [1, 2, 3]);
        assert_eq!(w.conns[1].tenant, 7);
        assert_eq!(w.conns[2].request_count(), 3);
        assert_eq!(w.request_count(), 4);

        let c = w.conns[1];
        w.requests_of_mut(&c)[0].service_ns = 40;
        assert_eq!(services(&w, 1), [40]);
        assert_eq!(services(&w, 2), [1, 2, 3]);
        assert!((w.offered_load() - 46.0 / 1_000.0).abs() < 1e-12);
    }
}
