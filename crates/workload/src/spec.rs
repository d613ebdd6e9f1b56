//! The workload data model consumed by the simulator.
//!
//! A [`Workload`] is a time-ordered list of [`ConnectionSpec`]s and one flat
//! table of [`RequestSpec`]s, and it holds only what the simulator reads.
//! Each connection carries its flow identity (for reuseport hashing; its
//! destination port is the tenant's listening port), its tenant (for
//! multi-tenant accounting), how many I/O events each of its requests
//! triggers, and its script in 8 bytes: a script of one request at offset 0
//! (every Case 1 and Case 2 connection's) holds that request's service time
//! in the row itself, and any other script is a `u32` start and count in the
//! request table, which holds only those. How long a connection lingers
//! after its last request is its tenant's, held once per tenant by the
//! workload ([`Workload::linger_of`]). A request is when it arrives relative
//! to connection establishment and how much worker CPU time it costs: 16
//! bytes, so Case 1 heavy's two million connections cost 32 bytes each and
//! its table is empty. [`Workload::push`] is the one way in, picking each
//! script's form from its requests, and [`Workload::requests_of`] the one
//! way out, so a generator writes every request in place and a million
//! connections cost at most two allocations, not a million. Keeping
//! requests scripted (rather than generated inside the simulator) makes
//! every experiment replayable and lets the *same* workload be run under
//! every dispatch mode — the comparison structure of Table 3.

use hermes_core::FlowKey;
use std::ops::Range;

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
    /// The connection's requests, sorted by `start_offset_ns`; set by
    /// [`Workload::push`].
    script: Script,
}

// Case 1 heavy holds two million connections for a 30 s device run, each
// with one request: a field added later fails the build here, so its cost is
// a reviewed number.
const _: () = assert!(std::mem::size_of::<ConnectionSpec>() == 32);
const _: () = assert!(std::mem::size_of::<RequestSpec>() == 16);

/// A connection's script in one word. With [`IN_ROW`](Self::IN_ROW) set it
/// is one request at offset 0 and the other 63 bits are its service time;
/// otherwise it is an extent of the workload's request table, its start in
/// the low 32 bits and its count in the next 31. [`Workload::script`] picks
/// the form, so a script's form follows from its requests alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Script(u64);

impl Script {
    /// Set on a script held in the row.
    const IN_ROW: u64 = 1 << 63;

    /// `request` held in the row, if it can be: it starts at offset 0 and
    /// its service time leaves the top bit clear.
    fn in_row(request: RequestSpec) -> Option<Self> {
        (request.start_offset_ns == 0 && request.service_ns & Self::IN_ROW == 0)
            .then_some(Self(Self::IN_ROW | request.service_ns))
    }

    /// `count` requests of the table from `start` on.
    fn table(start: usize, count: usize) -> Self {
        let start = u32::try_from(start).expect("u32 request table");
        let count = u32::try_from(count)
            .ok()
            .filter(|&n| n < 1 << 31)
            .expect("fewer than 2^31 requests per connection");
        Self(u64::from(count) << 32 | u64::from(start))
    }

    /// The request an in-row script holds, or a table script's extent.
    fn decode(self) -> Result<RequestSpec, Range<usize>> {
        if self.0 & Self::IN_ROW != 0 {
            let service_ns = self.0 & !Self::IN_ROW;
            return Ok(RequestSpec {
                start_offset_ns: 0,
                service_ns,
            });
        }
        let start = self.0 as u32 as usize;
        Err(start..start + (self.0 >> 32) as usize)
    }
}

/// One connection's requests, sorted by start offset, as
/// [`Workload::requests_of`] reads them: the request its row holds, or its
/// run of the request table.
#[derive(Clone, Copy, Debug)]
pub struct Requests<'a> {
    /// The request an in-row script holds.
    in_row: Option<RequestSpec>,
    /// A table script's requests; empty for an in-row one.
    table: &'a [RequestSpec],
}

impl<'a> Requests<'a> {
    /// Number of requests.
    pub fn len(self) -> usize {
        usize::from(self.in_row.is_some()) + self.table.len()
    }

    /// True for a connection with no requests.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Request `index`, if there is one.
    #[inline]
    pub fn get(self, index: usize) -> Option<RequestSpec> {
        match self.in_row {
            Some(request) => (index == 0).then_some(request),
            None => self.table.get(index).copied(),
        }
    }

    /// True when the requests are sorted by start offset, as
    /// [`Workload::seal`] and the simulator require. A script held in its
    /// row is one request, so only a table script can be out of order.
    pub fn is_sorted(self) -> bool {
        self.table.is_sorted_by_key(|r| r.start_offset_ns)
    }

    /// The requests in order.
    pub fn iter(self) -> impl Iterator<Item = RequestSpec> + 'a {
        self.in_row.into_iter().chain(self.table.iter().copied())
    }
}

/// Two scripts are equal when they hold the same requests, whichever form
/// each is in.
impl PartialEq for Requests<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Requests<'_> {}

impl ConnectionSpec {
    /// A connection with no requests yet: [`Workload::push`] gives it its
    /// script.
    pub fn new(arrival_ns: u64, flow: FlowKey, tenant: u16, events_per_request: u16) -> Self {
        Self {
            arrival_ns,
            flow,
            tenant,
            events_per_request,
            script: Script::table(0, 0),
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
        self.script
            .decode()
            .map_or_else(|extent| extent.len(), |_| 1)
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
    /// The requests of every script not held in its row, each connection's
    /// in one run.
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

    /// Make room for `conns` more connections whose scripts put `requests`
    /// more requests in the table, so a generator that knows its counts
    /// never regrows. A one-request script at offset 0 takes no room there,
    /// only the one slot each such request passes through on its way to
    /// its row ([`push`](Self::push)), which is kept free beyond `requests`
    /// and returned by [`seal`](Self::seal).
    pub fn reserve(&mut self, conns: usize, requests: usize) {
        self.conns.reserve_exact(conns);
        self.requests.reserve_exact(requests + 1);
    }

    /// Append a connection with its requests (kept sorted on
    /// [`seal`](Self::seal)) and return it in place. Its requests must
    /// already be sorted by start offset. One request at offset 0 is held
    /// in the row; any other script goes to the request table.
    pub fn push(
        &mut self,
        conn: ConnectionSpec,
        requests: impl IntoIterator<Item = RequestSpec>,
    ) -> &mut ConnectionSpec {
        self.conns.push(conn);
        self.script(self.conns.len() - 1, requests)
    }

    /// Make `requests` connection `index`'s script and return the
    /// connection: how a generator that wrote its rows first (one arrival
    /// each) fills them in, in order. The requests are drawn straight into
    /// the table in one pass, the order every recorded stream was drawn in,
    /// and a lone request the row can hold is then taken back out, so the
    /// table keeps only the scripts the rows cannot hold. (Pulling the
    /// requests one by one to decide first generates Case 1 about a fifth
    /// slower.) [`reserve`](Self::reserve) keeps the slot a lone request
    /// passes through free, and [`seal`](Self::seal) returns it.
    pub(crate) fn script(
        &mut self,
        index: usize,
        requests: impl IntoIterator<Item = RequestSpec>,
    ) -> &mut ConnectionSpec {
        let start = self.requests.len();
        self.requests.extend(requests);
        let in_row = match self.requests[start..] {
            [one] => Script::in_row(one),
            _ => None,
        };
        let script = match in_row {
            Some(script) => {
                self.requests.truncate(start);
                script
            }
            None => Script::table(start, self.requests.len() - start),
        };
        let conn = &mut self.conns[index];
        conn.script = script;
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
        self.reserve(other.connection_count(), other.requests.len());
        for c in &other.conns {
            self.push(*c, other.requests_of(c).iter()).arrival_ns += shift_ns;
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
    #[inline]
    pub fn requests_of(&self, conn: &ConnectionSpec) -> Requests<'_> {
        match conn.script.decode() {
            Ok(one) => Requests {
                in_row: Some(one),
                table: &[],
            },
            Err(extent) => Requests {
                in_row: None,
                table: &self.requests[extent],
            },
        }
    }

    /// Sort connections by arrival, return the room the request table does
    /// not use, and validate invariants. Call once after generation; the
    /// simulator requires sealed workloads. The requests do not move: each
    /// script moves with its row.
    pub fn seal(mut self) -> Self {
        self.conns.sort_by_key(|c| c.arrival_ns);
        self.requests.shrink_to_fit();
        debug_assert!(
            self.conns.iter().all(|c| self.requests_of(c).is_sorted()),
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
            .flat_map(|c| self.requests_of(c).iter())
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
    /// The request table: the scripts not held in their rows.
    pub(crate) fn request_table(&self) -> &Vec<RequestSpec> {
        &self.requests
    }

    /// A copy with every script in the table, in row order: the reference
    /// the in-row form is checked against.
    pub(crate) fn table_only(&self) -> Workload {
        let mut copy = Workload {
            requests: Vec::new(),
            ..self.clone()
        };
        for c in &mut copy.conns {
            let start = copy.requests.len();
            copy.requests.extend(self.requests_of(c).iter());
            c.script = Script::table(start, copy.requests.len() - start);
        }
        copy
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
            for r in self.requests_of(c).iter() {
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

    /// The table, as `(length, capacity)`.
    fn table(w: &Workload) -> (usize, usize) {
        (w.request_table().len(), w.request_table().capacity())
    }

    #[test]
    fn one_request_at_offset_zero_lives_in_the_row() {
        let mut w = Workload::new("t", 1_000);
        for service_ns in [0, 7, (1 << 63) - 1] {
            let c = *w.push(conn(0), [request(0, service_ns)]);
            assert_eq!(c.script.decode(), Ok(request(0, service_ns)));
            let requests = w.requests_of(&c);
            assert_eq!((requests.len(), c.request_count()), (1, 1));
            assert_eq!(requests.get(0), Some(request(0, service_ns)));
            assert_eq!(requests.get(1), None);
            assert_eq!(
                requests.iter().collect::<Vec<_>>(),
                [request(0, service_ns)]
            );
        }
        assert_eq!(w.request_table().len(), 0);
        // `seal` returns the slot each request passed through on its way to
        // its row.
        assert_eq!(table(&w.seal()), (0, 0));
    }

    #[test]
    fn every_other_script_stays_in_the_table() {
        let scripts: [&[RequestSpec]; 5] = [
            &[request(5, 7)],
            &[request(0, 1), request(0, 2)],
            &[],
            &[request(0, 1 << 63)],
            &[request(0, u64::MAX)],
        ];
        let mut w = Workload::new("t", 1_000);
        for (i, &script) in scripts.iter().enumerate() {
            let c = *w.push(conn(i as u64), script.iter().copied());
            assert!(c.script.decode().is_err(), "script {i}");
            let requests = w.requests_of(&c);
            assert_eq!(requests.iter().collect::<Vec<_>>(), script, "script {i}");
            assert_eq!(
                (requests.len(), c.request_count()),
                (script.len(), script.len())
            );
            assert_eq!(requests.get(script.len()), None);
            assert_eq!(requests.is_empty(), script.is_empty());
        }
        assert_eq!(w.request_table().len(), 5);
        assert_eq!(w.request_count(), 5);
    }

    /// Scripts move with their rows when `seal` reorders them, and
    /// `extend_from` copies each in the form it had: the copy's table holds
    /// the table scripts only.
    #[test]
    fn seal_and_extend_from_keep_each_form() {
        let mut w = Workload::new("t", 1_000);
        w.push(conn(300), [request(0, 1), request(5, 2), request(9, 3)]);
        w.push(conn(100), []);
        w.push(conn(200), [request(0, 4)]).tenant = 7;
        w.push(conn(50), [request(6, 5)]);
        let w = w.seal();
        let arrivals: Vec<u64> = w.conns.iter().map(|c| c.arrival_ns).collect();
        assert_eq!(arrivals, [50, 100, 200, 300]);
        let services = |w: &Workload, i: usize| -> Vec<u64> {
            w.requests_of(&w.conns[i])
                .iter()
                .map(|r| r.service_ns)
                .collect()
        };
        let in_row = |w: &Workload| -> Vec<bool> {
            w.conns.iter().map(|c| c.script.decode().is_ok()).collect()
        };
        assert_eq!(services(&w, 0), [5]);
        assert_eq!(services(&w, 1), [] as [u64; 0]);
        assert_eq!(services(&w, 2), [4]);
        assert_eq!(services(&w, 3), [1, 2, 3]);
        assert_eq!(in_row(&w), [false, false, true, false]);
        assert_eq!(w.conns[2].tenant, 7);
        assert_eq!(w.conns[3].request_count(), 3);
        assert_eq!(w.request_count(), 5);
        assert_eq!(w.request_table().len(), 4);
        assert!((w.offered_load() - 15.0 / 1_000.0).abs() < 1e-12);

        let mut copy = Workload::new("copy", 2_000);
        copy.extend_from(&w, 1_000);
        assert_eq!(in_row(&copy), in_row(&w));
        // The reservation and the slot a lone request passes through.
        assert_eq!(table(&copy), (4, 5));
        let copy = copy.seal();
        assert_eq!(table(&copy), (4, 4));
        for i in 0..w.conns.len() {
            assert_eq!(services(&copy, i), services(&w, i));
        }
    }

    /// Every generator, at a few seeds: each script reads back the requests
    /// of a copy that holds every script in the table, the table holds only
    /// the scripts that are not in their rows, and a row holds exactly the
    /// scripts of one request at offset 0.
    #[test]
    fn every_generator_reads_back_its_table_only_copy() {
        use crate::cases::{Case, CaseLoad};
        use crate::regions::Region;
        use crate::scenario::{region_mix, surge, SurgeConfig};
        use crate::tenant::{TenantProfile, TenantSet};
        use crate::ArrivalProcess;
        use hermes_metrics::NANOS_PER_SEC;

        hermes_metrics::rng::for_each_case(3, |g| {
            let seed = g.next_u64();
            let mut workloads: Vec<Workload> = Case::all()
                .into_iter()
                .map(|case| case.workload(CaseLoad::Light, 2, NANOS_PER_SEC, seed))
                .collect();
            workloads.extend(
                Region::all()
                    .iter()
                    .map(|region| region_mix(region, 2, CaseLoad::Light, NANOS_PER_SEC, seed)),
            );
            let config = SurgeConfig {
                connections: 200,
                ..SurgeConfig::default()
            };
            workloads.push(surge(config, seed));
            workloads.push(surge(
                SurgeConfig {
                    burst_requests: 0,
                    ..config
                },
                seed,
            ));
            let mut keepalive = TenantProfile::simple_http(50_000.0);
            keepalive.requests_per_conn = std::sync::Arc::new(crate::distr::Exp::with_mean(2.0));
            let mixed = TenantSet::new(vec![TenantProfile::simple_http(1.0e6), keepalive], 1.0, 1);
            let process = ArrivalProcess::Poisson {
                rate_per_sec: 2_000.0,
            };
            workloads.push(mixed.workload("mixed", &process, NANOS_PER_SEC, &mut crate::rng(seed)));

            for w in &workloads {
                let reference = w.table_only();
                assert_eq!(
                    reference.request_table().len(),
                    w.request_count(),
                    "{}",
                    w.name
                );
                let mut in_table = 0;
                for (c, r) in w.conns.iter().zip(&reference.conns) {
                    let requests = w.requests_of(c);
                    assert_eq!(requests, reference.requests_of(r), "{}", w.name);
                    let one = requests.len() == 1 && requests.get(0).unwrap().start_offset_ns == 0;
                    assert_eq!(c.script.decode().is_ok(), one, "{}", w.name);
                    if !one {
                        in_table += requests.len();
                    }
                }
                assert_eq!(w.request_table().len(), in_table, "{}", w.name);
                assert_eq!(w.stream_sums(), reference.stream_sums(), "{}", w.name);
            }
            // Both forms are exercised: Case 1 is all rows, Case 3 all table.
            assert!(workloads[0].request_table().is_empty());
            assert!(workloads[2]
                .conns
                .iter()
                .all(|c| c.script.decode().is_err()));
        });
    }
}
