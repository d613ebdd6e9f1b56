//! The workload data model consumed by the simulator.
//!
//! A [`Workload`] is a time-ordered list of [`ConnectionSpec`]s and one flat
//! table of [`RequestSpec`]s, and it holds only what the simulator reads.
//! Each connection carries its flow's kernel hash (for reuseport hashing,
//! computed once from the 4-tuple when the row is made), its destination
//! port (the tenant's listening port), its tenant (for multi-tenant
//! accounting), and its script in 8 bytes: a script of one request at
//! offset 0 (every Case 1 and Case 2 connection's) holds that request's
//! service time in the row itself, and any other script is a `u32` start and
//! count in the request table, which holds only those. How long a
//! connection lingers after its last request and how many I/O events each
//! of its requests triggers are its tenant's, held once per tenant by the
//! workload ([`Workload::linger_of`], [`Workload::events_of`]). A request is
//! when it arrives relative to connection establishment and how much worker
//! CPU time it costs: 16 bytes, so Case 1 heavy's two million connections
//! cost 24 bytes each and its table is empty. [`Workload::push`] is the one
//! way in, picking each script's form from its requests, and
//! [`Workload::requests_of`] the one way out; a generator writes every
//! request in place, a lone one straight into its row, and a million
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
    /// evenly across the connection's events
    /// ([`Workload::service_per_event_ns`]).
    pub service_ns: u64,
}

/// A connection's flow as the kernel's reuseport program reads it: the hash
/// the kernel precomputes over the 4-tuple, taken once from a
/// [`FlowKey`] when the row is made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowHash(u32);

impl FlowHash {
    /// The kernel-precomputed connection hash (jhash over the 4-tuple).
    #[inline]
    pub fn hash(self) -> u32 {
        self.0
    }
}

/// One client connection through the LB.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnectionSpec {
    /// SYN arrival time (ns from experiment start).
    pub arrival_ns: u64,
    /// The connection's requests, sorted by `start_offset_ns`; set by
    /// [`Workload::push`].
    script: Script,
    /// The flow's kernel hash. The 4-tuple it came from is not kept: the
    /// simulator reads only the hash and the destination port.
    pub flow: FlowHash,
    /// LB-side destination port (the tenant's rewritten Dport),
    /// [`port`](Self::port). A field of its own: beside the hash in one
    /// struct it would pad to 8 bytes.
    dst_port: u16,
    /// Owning tenant (dense id), for multi-tenant accounting and the
    /// connection's linger and events per request
    /// ([`Workload::linger_of`], [`Workload::events_of`]).
    pub tenant: u16,
}

// Case 1 heavy holds two million connections for a 30 s device run, each
// with one request: a field added later fails the build here, so its cost is
// a reviewed number.
const _: () = assert!(std::mem::size_of::<ConnectionSpec>() == 24);
const _: () = assert!(std::mem::size_of::<RequestSpec>() == 16);

/// A connection's script in one word. With [`IN_ROW`](Self::IN_ROW) set it
/// is one request at offset 0 and the other 63 bits are its service time;
/// otherwise it is an extent of the workload's request table, its start in
/// the low 32 bits and its count in the next 31. [`Workload::script`] and
/// [`Workload::script_one`] pick the form, so a script's form follows from
/// its requests alone.
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
    /// A connection of `flow` with no requests yet: [`Workload::push`]
    /// gives it its script. The row keeps the flow's hash and destination
    /// port.
    pub fn new(arrival_ns: u64, flow: FlowKey, tenant: u16) -> Self {
        let mut conn = Self::arriving(arrival_ns);
        conn.set_flow(flow);
        conn.tenant = tenant;
        conn
    }

    /// A row that holds only its arrival: a generator writes one per
    /// arrival as it draws them and fills in the rest with
    /// [`Workload::script_one`] or [`Workload::script`] and
    /// [`set_flow`](Self::set_flow).
    pub(crate) fn arriving(arrival_ns: u64) -> Self {
        Self {
            arrival_ns,
            script: Script::table(0, 0),
            flow: FlowHash(0),
            dst_port: 0,
            tenant: 0,
        }
    }

    /// Make `flow` the connection's: its hash, computed here once, and its
    /// destination port.
    pub(crate) fn set_flow(&mut self, flow: FlowKey) {
        self.flow = FlowHash(flow.hash());
        self.dst_port = flow.dst_port;
    }

    /// LB-side destination port (the tenant's rewritten Dport).
    pub fn port(&self) -> u16 {
        self.dst_port
    }

    /// Number of scripted requests.
    pub fn request_count(&self) -> usize {
        self.script
            .decode()
            .map_or_else(|extent| extent.len(), |_| 1)
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
    /// ([`set_linger`](Self::set_linger)); `None` where never set, which
    /// reads as 0.
    lingers: Vec<Option<u64>>,
    /// How many I/O events each request of a connection triggers, by
    /// tenant ([`set_events_per_request`](Self::set_events_per_request)),
    /// at least one; `None` where never set, which reads as one.
    events: Vec<Option<u16>>,
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
    /// never regrows. A one-request script at offset 0 takes no room there:
    /// it goes straight to its row.
    pub fn reserve(&mut self, conns: usize, requests: usize) {
        self.conns.reserve_exact(conns);
        self.requests.reserve_exact(requests);
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
    /// each) fills them in, in order. The first two requests are drawn to
    /// tell a lone request from a longer script; a longer one is then drawn
    /// straight into the table, in the order every recorded stream was
    /// drawn in, and a lone one goes to [`script_one`](Self::script_one).
    pub(crate) fn script(
        &mut self,
        index: usize,
        requests: impl IntoIterator<Item = RequestSpec>,
    ) -> &mut ConnectionSpec {
        let mut requests = requests.into_iter();
        let first = requests.next();
        let script = match (first, requests.next()) {
            (Some(one), None) => return self.script_one(index, one),
            (first, second) => self.in_table(first.into_iter().chain(second).chain(requests)),
        };
        let conn = &mut self.conns[index];
        conn.script = script;
        conn
    }

    /// Make `request` connection `index`'s whole script and return the
    /// connection: held in the row when it can be, so a generator of
    /// one-request connections (every Case 1 and Case 2 connection) writes
    /// each straight into its row and never touches the table.
    pub(crate) fn script_one(&mut self, index: usize, request: RequestSpec) -> &mut ConnectionSpec {
        let script = Script::in_row(request).unwrap_or_else(|| self.in_table([request]));
        let conn = &mut self.conns[index];
        conn.script = script;
        conn
    }

    /// Append `requests` to the table as one script.
    fn in_table(&mut self, requests: impl IntoIterator<Item = RequestSpec>) -> Script {
        let start = self.requests.len();
        self.requests.extend(requests);
        Script::table(start, self.requests.len() - start)
    }

    /// Connections of `tenant` close `linger_ns` after their last request
    /// completes; 0 closes them right after it (short-lived), as it does
    /// for a tenant never set.
    pub fn set_linger(&mut self, tenant: u16, linger_ns: u64) {
        *slot(&mut self.lingers, tenant.into()) = Some(linger_ns);
    }

    /// Each request of a connection of `tenant` triggers `events` I/O
    /// events (header readable, body readable, upstream writable, ...),
    /// over which its service time is split; 0 reads as one, as does a
    /// tenant never set.
    pub fn set_events_per_request(&mut self, tenant: u16, events: u16) {
        *slot(&mut self.events, tenant.into()) = Some(events.max(1));
    }

    /// Append every connection of `other` with its requests, `shift_ns`
    /// later, so each copied row runs as it did there: every tenant with a
    /// row or a value set in `other` lingers and has the events per request
    /// it reads there, unset ones included, and a tenant unset here takes
    /// them. Panics if such a tenant reads differently here.
    pub fn extend_from(&mut self, other: &Workload, shift_ns: u64) {
        let mut in_use = vec![false; other.lingers.len().max(other.events.len())];
        for (tenant, linger) in other.lingers.iter().enumerate() {
            in_use[tenant] |= linger.is_some();
        }
        for (tenant, events) in other.events.iter().enumerate() {
            in_use[tenant] |= events.is_some();
        }
        for c in &other.conns {
            *slot(&mut in_use, c.tenant.into()) = true;
        }
        for tenant in (0..in_use.len()).filter(|&t| in_use[t]) {
            let linger_ns = other.linger_of_tenant(tenant);
            if let Err(mine) = adopt(&mut self.lingers, tenant, linger_ns) {
                panic!(
                    "tenant {tenant} lingers {mine} ns here and {linger_ns} ns in {}",
                    other.name
                );
            }
            let events = other.events_of_tenant(tenant);
            if let Err(mine) = adopt(&mut self.events, tenant, events) {
                panic!(
                    "tenant {tenant} has {mine} events per request here and {events} in {}",
                    other.name
                );
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
        self.linger_of_tenant(conn.tenant.into())
    }

    /// How many I/O events each of `conn`'s requests triggers: its
    /// tenant's [`set_events_per_request`](Self::set_events_per_request),
    /// at least one.
    #[inline]
    pub fn events_of(&self, conn: &ConnectionSpec) -> u16 {
        self.events_of_tenant(conn.tenant.into())
    }

    fn linger_of_tenant(&self, tenant: usize) -> u64 {
        self.lingers.get(tenant).copied().flatten().unwrap_or(0)
    }

    #[inline]
    fn events_of_tenant(&self, tenant: usize) -> u16 {
        self.events.get(tenant).copied().flatten().unwrap_or(1)
    }

    /// CPU time each event of `request`, one of `conn`'s, consumes: its
    /// service time split evenly over [`events_of`](Self::events_of).
    pub fn service_per_event_ns(&self, conn: &ConnectionSpec, request: &RequestSpec) -> u64 {
        request.service_ns / u64::from(self.events_of(conn))
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
    /// not use (a reservation from mean request counts can overshoot), and
    /// validate invariants. Call once after generation; the
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

/// `tenant`'s entry in a per-tenant table, grown with unset entries
/// (`T::default()`) to reach it.
fn slot<T: Copy + Default>(table: &mut Vec<T>, tenant: usize) -> &mut T {
    if tenant >= table.len() {
        table.resize(tenant + 1, T::default());
    }
    &mut table[tenant]
}

/// Give `tenant` `value` in a per-tenant table where it is unset; a value
/// set there that differs is refused with that value.
fn adopt<T: Copy + PartialEq>(
    table: &mut Vec<Option<T>>,
    tenant: usize,
    value: T,
) -> Result<(), T> {
    match slot(table, tenant) {
        Some(mine) if *mine != value => Err(*mine),
        Some(_) => Ok(()),
        unset => {
            *unset = Some(value);
            Ok(())
        }
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
                add(6, j, u64::from(self.events_of(c)));
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
        ConnectionSpec::new(arrival, FlowKey::new(1, 2, 3, 4), 0)
    }

    #[test]
    fn service_per_event_splits_evenly() {
        let mut w = Workload::new("t", 1_000);
        w.set_events_per_request(0, 4);
        let c = conn(0);
        assert_eq!(w.service_per_event_ns(&c, &request(0, 100)), 25);
        w.set_events_per_request(0, 0);
        assert_eq!(w.service_per_event_ns(&c, &request(0, 100)), 100);
    }

    #[test]
    fn a_row_keeps_its_tuples_hash_and_port() {
        let key = FlowKey::new(0x0a00_0102, 40_000, 0x0aff_0001, 8443);
        let c = ConnectionSpec::new(7, key, 3);
        assert_eq!(c.flow.hash(), key.hash());
        assert_eq!(c.port(), key.dst_port);
        assert_eq!((c.arrival_ns, c.tenant, c.request_count()), (7, 3, 0));
        // Two tuples that differ only in their source port differ in hash.
        let other = ConnectionSpec::new(7, FlowKey::new(0x0a00_0102, 40_001, 0x0aff_0001, 8443), 3);
        assert_ne!(c.flow, other.flow);
        assert_eq!(c.port(), other.port());
    }

    /// A tenant never set, or set to zero, reads as one event per request:
    /// what the simulator made of a zero when the count was in the row.
    #[test]
    fn events_per_request_are_the_tenants_and_one_when_unset() {
        let mut w = Workload::new("t", 1_000);
        w.set_events_per_request(2, 3);
        w.set_events_per_request(4, 0);
        for tenant in 0..6 {
            w.push(conn(tenant), []).tenant = tenant as u16;
        }
        let w = w.seal();
        let events: Vec<u16> = w.conns.iter().map(|c| w.events_of(c)).collect();
        assert_eq!(events, [1, 1, 3, 1, 1, 1]);
        assert_eq!(w.service_per_event_ns(&w.conns[2], &request(0, 9)), 3);
        assert_eq!(w.service_per_event_ns(&w.conns[5], &request(0, 9)), 9);
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

    /// A copied row keeps its tenant's events per request and linger,
    /// those a tenant leaves unset included, and a tenant unset here takes
    /// them.
    #[test]
    fn extend_from_carries_events_per_request() {
        let mut a = Workload::new("a", 1_000);
        a.set_events_per_request(1, 3);
        a.push(conn(5), [request(0, 30)]).tenant = 1;
        a.push(conn(6), [request(0, 30)]).tenant = 2;
        let a = a.seal();
        let mut w = Workload::new("w", 1_000);
        w.set_events_per_request(3, 4);
        w.extend_from(&a, 0);
        w.extend_from(&a, 100);
        let w = w.seal();
        let events: Vec<u16> = w.conns.iter().map(|c| w.events_of(c)).collect();
        assert_eq!(events, [3, 1, 3, 1]);
        assert_eq!(a.events_of(&a.conns[1]), 1);
        // Tenant 2 now reads as set here, to what its copied rows read.
        assert_eq!((w.events[2], w.lingers[2]), (Some(1), Some(0)));
        assert_eq!((w.events[3], w.lingers.get(3)), (Some(4), None));
    }

    /// A tenant `a` leaves unset reads one event per request there, so its
    /// copied rows cannot run at another count here.
    #[test]
    #[should_panic(expected = "tenant 2 has 4 events per request here and 1 in a")]
    fn extend_from_refuses_events_a_copied_row_did_not_have() {
        let mut a = Workload::new("a", 1_000);
        a.set_events_per_request(1, 3);
        a.push(conn(5), [request(0, 30)]).tenant = 1;
        a.push(conn(6), [request(0, 30)]).tenant = 2;
        let a = a.seal();
        let mut w = Workload::new("w", 1_000);
        w.set_events_per_request(2, 4);
        w.extend_from(&a, 0);
    }

    /// Rows copied from a tenant that closes at once fix its linger at 0
    /// here: a later copy that lingers is refused, not adopted under them.
    #[test]
    #[should_panic(expected = "tenant 0 lingers 0 ns here and 700 ns in lingering")]
    fn extend_from_refuses_a_linger_after_rows_that_closed_at_once() {
        let mut closes = Workload::new("closes", 1_000);
        closes.push(conn(5), [request(0, 30)]);
        let mut lingering = Workload::new("lingering", 1_000);
        lingering.set_linger(0, 700);
        lingering.push(conn(6), [request(0, 30)]);
        let mut w = Workload::new("w", 1_000);
        w.extend_from(&closes, 0);
        w.extend_from(&lingering, 0);
    }

    #[test]
    #[should_panic(expected = "tenant 1 has 2 events per request here and 3 in a")]
    fn extend_from_refuses_second_events_per_request_for_a_tenant() {
        let mut a = Workload::new("a", 1_000);
        a.set_events_per_request(1, 3);
        let mut w = Workload::new("w", 1_000);
        w.set_events_per_request(1, 2);
        w.extend_from(&a, 0);
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
        // No request passed through the table on its way to its row.
        assert_eq!(table(&w), (0, 0));
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
        // The reservation, exactly: the lone request went to its row.
        assert_eq!(table(&copy), (4, 4));
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
