//! The workload data model consumed by the simulator.
//!
//! A [`Workload`] is a time-ordered list of [`ConnectionSpec`]s and one flat
//! table of [`RequestSpec`]s, and it holds only what the simulator reads.
//! A connection row is 16 bytes: its arrival and its tenant in one word
//! (48 bits of nanoseconds, 78 hours, and a 16-bit dense tenant id), its
//! script in four bytes, and its flow's kernel hash (for reuseport hashing,
//! computed once from the 4-tuple when the row is made). A script of one
//! request at offset 0 whose service time is below 2³¹ ns (2.1 s) — every
//! Case 1 connection's, and nearly every Case 2 one's — holds that service
//! time in the row itself; any other script is an index into the
//! workload's table of runs, each a `u32` start and count in the request
//! table, which holds only those scripts. A connection's destination port
//! (its tenant's Dport, §2.1), how long it lingers after its last request
//! and how many I/O events each of its requests triggers are its tenant's,
//! held once per tenant by the workload ([`Workload::port_of`],
//! [`Workload::linger_of`], [`Workload::events_of`]). A request is when it
//! arrives relative to connection establishment and how much worker CPU
//! time it costs: 16 bytes, so Case 1 heavy's two million connections cost
//! 16 bytes each and its tables are empty. [`Workload::push`] is the one way
//! in, picking each script's form from its requests, and
//! [`Workload::requests_of`] the one way out; a generator writes every
//! request in place, a lone one straight into its row, and a million
//! connections cost at most three allocations, not a million. A variant
//! of a workload is that workload transformed in place
//! ([`Workload::compress`], [`Workload::thin`], or one more
//! [`crate::scenario::surge_into`] wave), never a copy of its rows. Keeping
//! requests scripted (rather than generated inside the simulator) makes
//! every experiment replayable and lets the *same* workload be run under
//! every dispatch mode — the comparison structure of Table 3.

use hermes_core::FlowKey;

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

/// The latest arrival a row holds: 2⁴⁸ − 1 ns, 78 hours.
pub const MAX_ARRIVAL_NS: u64 = (1 << 48) - 1;

/// One client connection through the LB, made by [`Workload::push`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnectionSpec {
    /// SYN arrival time (ns from experiment start) in the low 48 bits
    /// ([`arrival_ns`](Self::arrival_ns)), owning tenant in the high 16
    /// ([`tenant`](Self::tenant)).
    stamp: u64,
    /// The connection's requests, sorted by `start_offset_ns`; set by
    /// [`Workload::push`].
    script: Script,
    /// The flow's kernel hash. The 4-tuple it came from is not kept: the
    /// simulator reads only the hash, and the destination port is the
    /// tenant's ([`Workload::port_of`]).
    pub flow: FlowHash,
}

// Case 1 heavy holds two million connections for a 30 s device run, each
// with one request: 8 B of stamp, 4 of script and 4 of hash, with no padding.
// A field added later fails the build here, so its cost is a reviewed number.
const _: () = assert!(std::mem::size_of::<ConnectionSpec>() == 16);
const _: () = assert!(std::mem::size_of::<RequestSpec>() == 16);

/// A connection's script in four bytes. With [`IN_ROW`](Self::IN_ROW) set
/// it is one request at offset 0 and the other 31 bits are its service
/// time; otherwise it is an index into the workload's runs, each an extent
/// of its request table. [`Workload::script`] and [`Workload::script_one`]
/// pick the form, so a script's form follows from its requests alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Script(u32);

impl Script {
    /// Set on a script held in the row.
    const IN_ROW: u32 = 1 << 31;

    /// `request` held in the row, if it can be: it starts at offset 0 and
    /// its service time is below 2³¹ ns.
    fn in_row(request: RequestSpec) -> Option<Self> {
        (request.start_offset_ns == 0 && request.service_ns < u64::from(Self::IN_ROW))
            .then_some(Self(Self::IN_ROW | request.service_ns as u32))
    }

    /// Run `index` of the workload's runs.
    fn run(index: usize) -> Self {
        let index = u32::try_from(index)
            .ok()
            .filter(|&i| i < Self::IN_ROW)
            .expect("fewer than 2^31 scripts in the request table");
        Self(index)
    }

    /// The request an in-row script holds, or a table script's run.
    #[inline]
    fn decode(self) -> Result<RequestSpec, usize> {
        if self.0 & Self::IN_ROW != 0 {
            return Ok(RequestSpec {
                start_offset_ns: 0,
                service_ns: u64::from(self.0 & !Self::IN_ROW),
            });
        }
        Err(self.0 as usize)
    }
}

/// One table script: `count` requests of the request table from `start` on.
#[derive(Clone, Copy, Debug)]
struct Run {
    start: u32,
    count: u32,
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
    /// A row of `workload` that holds only its arrival, tenant 0's until
    /// [`set_tenant`](Self::set_tenant), and no script until one is
    /// written: a generator writes one per arrival as it draws them and
    /// fills in the rest with [`Workload::script_one`] or
    /// [`Workload::script`], [`set_flow`](Self::set_flow) and `set_tenant`.
    /// Panics, naming `workload`, on an arrival past [`MAX_ARRIVAL_NS`].
    #[inline]
    pub(crate) fn arriving(workload: &str, arrival_ns: u64) -> Self {
        assert!(
            arrival_ns <= MAX_ARRIVAL_NS,
            "{workload}: arrival at {arrival_ns} ns is past the 2^48 ns (78 h) a row holds"
        );
        Self {
            stamp: arrival_ns,
            script: Script::run(0),
            flow: FlowHash(0),
        }
    }

    /// SYN arrival time (ns from experiment start).
    #[inline]
    pub fn arrival_ns(&self) -> u64 {
        self.stamp & MAX_ARRIVAL_NS
    }

    /// Owning tenant (dense id), for multi-tenant accounting and the
    /// connection's port, linger and events per request
    /// ([`Workload::port_of`], [`Workload::linger_of`],
    /// [`Workload::events_of`]).
    #[inline]
    pub fn tenant(&self) -> u16 {
        (self.stamp >> 48) as u16
    }

    /// Make the connection `tenant`'s.
    pub(crate) fn set_tenant(&mut self, tenant: u16) {
        self.stamp = self.arrival_ns() | u64::from(tenant) << 48;
    }

    /// Make `flow`'s hash, computed here once, the connection's. Its
    /// destination port is its tenant's, filed by the workload.
    pub(crate) fn set_flow(&mut self, flow: FlowKey) {
        self.flow = FlowHash(flow.hash());
    }
}

/// A complete experiment input: the connection rows, the requests and runs
/// of the scripts the rows do not hold, and each tenant's port, linger and
/// events per request. A row's script indexes its own workload's runs, so
/// rows are made by [`push`](Self::push), and a workload changes in place
/// ([`compress`](Self::compress), [`thin`](Self::thin)): a row put into
/// another workload's `conns` by hand reads its script there only if the
/// row holds it.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// Human-readable name (appears in harness output).
    pub name: String,
    /// Connections sorted by arrival.
    pub conns: Vec<ConnectionSpec>,
    /// The requests of every script not held in its row, each connection's
    /// in one run.
    requests: Vec<RequestSpec>,
    /// The scripts not held in their rows, each an extent of `requests`; a
    /// row's script indexes it.
    runs: Vec<Run>,
    /// Each tenant's LB-side destination port (its rewritten Dport), filed
    /// by [`push`](Self::push), and by a tenant set for each of its
    /// tenants; `None` where neither filed one.
    ports: Vec<Option<u16>>,
    /// How long a connection lingers after its last request, by tenant
    /// ([`set_linger`](Self::set_linger)); 0 where never set.
    lingers: Vec<u64>,
    /// How many I/O events each request of a connection triggers, by
    /// tenant ([`set_events_per_request`](Self::set_events_per_request)),
    /// at least one; one where never set.
    events: Vec<u16>,
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

    /// Make room for `conns` more connections, `scripts` more of which hold
    /// their scripts in the table, with `requests` more requests in all
    /// there, so a generator that knows its counts never regrows. A
    /// one-request script at offset 0 below 2³¹ ns takes no room in either
    /// table: it goes straight to its row.
    pub fn reserve(&mut self, conns: usize, scripts: usize, requests: usize) {
        self.conns.reserve_exact(conns);
        self.runs.reserve_exact(scripts);
        self.requests.reserve_exact(requests);
    }

    /// Append a connection of `flow` (its hash, computed here once) that
    /// arrives at `arrival_ns` for `tenant` with `requests` (kept sorted on
    /// [`seal`](Self::seal)), and return its row. Its requests must already
    /// be sorted by start offset. One request at offset 0 below 2³¹ ns is
    /// held in the row; any other script goes to the request table. The
    /// flow's destination port is filed as the tenant's. Panics on an
    /// arrival past [`MAX_ARRIVAL_NS`] and when `tenant` already listens
    /// on another port.
    pub fn push(
        &mut self,
        arrival_ns: u64,
        flow: FlowKey,
        tenant: u16,
        requests: impl IntoIterator<Item = RequestSpec>,
    ) -> ConnectionSpec {
        self.file_port(tenant, flow.dst_port);
        let mut conn = ConnectionSpec::arriving(&self.name, arrival_ns);
        conn.set_flow(flow);
        conn.set_tenant(tenant);
        self.conns.push(conn);
        *self.script(self.conns.len() - 1, requests)
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
    /// each straight into its row and never touches the tables.
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
        let run = Run {
            start: u32::try_from(start).expect("u32 request table"),
            count: u32::try_from(self.requests.len() - start).expect("u32 requests a script"),
        };
        self.runs.push(run);
        Script::run(self.runs.len() - 1)
    }

    /// File `port` as `tenant`'s. Panics if the tenant listens on another.
    pub(crate) fn file_port(&mut self, tenant: u16, port: u16) {
        match slot(&mut self.ports, tenant.into(), None) {
            Some(mine) if *mine != port => panic!(
                "tenant {tenant} listens on port {mine} here and {port} on a new row of {}",
                self.name
            ),
            filed => *filed = Some(port),
        }
    }

    /// Connections of `tenant` close `linger_ns` after their last request
    /// completes; 0 closes them right after it (short-lived), as it does
    /// for a tenant never set.
    pub fn set_linger(&mut self, tenant: u16, linger_ns: u64) {
        *slot(&mut self.lingers, tenant.into(), 0) = linger_ns;
    }

    /// Each request of a connection of `tenant` triggers `events` I/O
    /// events (header readable, body readable, upstream writable, ...),
    /// over which its service time is split; 0 reads as one, as does a
    /// tenant never set.
    pub fn set_events_per_request(&mut self, tenant: u16, events: u16) {
        *slot(&mut self.events, tenant.into(), 1) = events.max(1);
    }

    /// `conn`'s LB-side destination port: its tenant's rewritten Dport,
    /// filed by [`push`](Self::push). `None` for a tenant no port was filed
    /// for (a row copied into `conns` by hand), which the simulator
    /// refuses.
    #[inline]
    pub fn port_of(&self, conn: &ConnectionSpec) -> Option<u16> {
        self.ports
            .get(usize::from(conn.tenant()))
            .copied()
            .flatten()
    }

    /// How long `conn` lingers after its last request: its tenant's
    /// [`set_linger`](Self::set_linger).
    pub fn linger_of(&self, conn: &ConnectionSpec) -> u64 {
        self.lingers
            .get(usize::from(conn.tenant()))
            .copied()
            .unwrap_or(0)
    }

    /// How many I/O events each of `conn`'s requests triggers: its
    /// tenant's [`set_events_per_request`](Self::set_events_per_request),
    /// at least one.
    #[inline]
    pub fn events_of(&self, conn: &ConnectionSpec) -> u16 {
        self.events
            .get(usize::from(conn.tenant()))
            .copied()
            .unwrap_or(1)
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
            Err(run) => {
                let Run { start, count } = self.runs[run];
                let start = start as usize;
                Requests {
                    in_row: None,
                    table: &self.requests[start..start + count as usize],
                }
            }
        }
    }

    /// Sort connections by arrival, return the room the tables do not use
    /// (a reservation from mean request counts can overshoot), and
    /// validate invariants. Call once after generation; the simulator
    /// requires sealed workloads. The requests do not move: each script
    /// moves with its row.
    pub fn seal(mut self) -> Self {
        self.conns.sort_by_key(ConnectionSpec::arrival_ns);
        self.runs.shrink_to_fit();
        self.requests.shrink_to_fit();
        debug_assert!(
            self.conns.iter().all(|c| self.requests_of(c).is_sorted()),
            "requests must be sorted by start offset"
        );
        self
    }

    /// Replay the workload `speedup` times faster: every arrival, every
    /// table request's offset and the horizon are divided by `speedup`, and
    /// service times stay. Division is monotone, so sorted rows and scripts
    /// stay sorted; a script held in its row starts at offset 0 and does
    /// not change.
    pub fn compress(&mut self, speedup: u64) {
        for c in &mut self.conns {
            c.stamp = (c.stamp & !MAX_ARRIVAL_NS) | (c.arrival_ns() / speedup);
        }
        for r in &mut self.requests {
            r.start_offset_ns /= speedup;
        }
        self.duration_ns /= speedup;
    }

    /// Keep every `stride`-th connection (the `stride`-th, the
    /// `2·stride`-th, ...) and drop the rest: the same arrival process's
    /// shape over the same horizon at `1/stride` of its rate. The dropped
    /// rows' table scripts stay in the tables, unread.
    pub fn thin(&mut self, stride: usize) {
        let mut i = 0usize;
        self.conns.retain(|_| {
            i += 1;
            i.is_multiple_of(stride)
        });
    }

    /// Number of connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Total requests across connections.
    pub fn request_count(&self) -> usize {
        self.conns.iter().map(|c| self.requests_of(c).len()).sum()
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

/// `tenant`'s entry in a per-tenant table, grown with `unset` entries to
/// reach it.
fn slot<T: Copy>(table: &mut Vec<T>, tenant: usize, unset: T) -> &mut T {
    if tenant >= table.len() {
        table.resize(tenant + 1, unset);
    }
    &mut table[tenant]
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
            runs: Vec::new(),
            ..self.clone()
        };
        for i in 0..copy.conns.len() {
            let script = copy.in_table(self.requests_of(&self.conns[i]).iter());
            copy.conns[i].script = script;
        }
        copy
    }

    /// The runs of the request table, one per script held there.
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
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
            add(0, i, c.arrival_ns());
            add(1, i, u64::from(c.flow.hash()));
            add(2, i, u64::from(c.tenant()));
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

    /// A connection of `tenant` arriving at `arrival` with `requests`, on
    /// port 4.
    fn push(
        w: &mut Workload,
        arrival: u64,
        tenant: u16,
        requests: impl IntoIterator<Item = RequestSpec>,
    ) -> ConnectionSpec {
        w.push(arrival, FlowKey::new(1, 2, 3, 4), tenant, requests)
    }

    #[test]
    fn service_per_event_splits_evenly() {
        let mut w = Workload::new("t", 1_000);
        w.set_events_per_request(0, 4);
        let c = push(&mut w, 0, 0, []);
        assert_eq!(w.service_per_event_ns(&c, &request(0, 100)), 25);
        w.set_events_per_request(0, 0);
        assert_eq!(w.service_per_event_ns(&c, &request(0, 100)), 100);
    }

    #[test]
    fn a_row_keeps_its_tuples_hash_and_its_tenant_the_port() {
        let mut w = Workload::new("t", 1_000);
        let key = FlowKey::new(0x0a00_0102, 40_000, 0x0aff_0001, 8443);
        let c = w.push(7, key, 3, []);
        assert_eq!(c.flow.hash(), key.hash());
        assert_eq!(w.port_of(&c), Some(key.dst_port));
        assert_eq!(
            (c.arrival_ns(), c.tenant(), w.requests_of(&c).len()),
            (7, 3, 0)
        );
        // Two tuples that differ only in their source port differ in hash.
        let other = w.push(
            7,
            FlowKey::new(0x0a00_0102, 40_001, 0x0aff_0001, 8443),
            3,
            [],
        );
        assert_ne!(c.flow, other.flow);
        assert_eq!(w.port_of(&other), Some(8443));
        // A tenant listens on one port, which its every row reads.
        let mut w = w.seal();
        w.conns.push(w.conns[0]);
        assert!(w.conns.iter().all(|c| w.port_of(c) == Some(8443)));
    }

    /// A row whose tenant no push filed a port for reads none.
    #[test]
    fn a_tenant_never_pushed_has_no_port() {
        let mut a = Workload::new("a", 1_000);
        let c = push(&mut a, 0, 5, []);
        let mut w = Workload::new("w", 1_000);
        push(&mut w, 0, 0, []);
        w.conns.push(c);
        assert_eq!(w.port_of(&w.conns[0]), Some(4));
        assert_eq!(w.port_of(&w.conns[1]), None);
    }

    #[test]
    #[should_panic(expected = "tenant 1 listens on port 80 here and 81 on a new row of w")]
    fn push_refuses_a_second_port_for_a_tenant() {
        let mut w = Workload::new("w", 1_000);
        w.push(0, FlowKey::new(1, 2, 3, 80), 1, []);
        w.push(0, FlowKey::new(1, 2, 3, 443), 2, []);
        w.push(5, FlowKey::new(1, 2, 3, 81), 1, []);
    }

    /// The arrival and the tenant share one word: each reads back exactly
    /// at the other's extremes, `seal` sorts by arrival alone, stably, and
    /// `compress` divides the arrival and leaves the tenant beside it.
    #[test]
    fn arrival_and_tenant_share_a_word_without_bleeding() {
        let mut w = Workload::new("t", 1_000);
        let cases = [
            (MAX_ARRIVAL_NS, u16::MAX),
            (MAX_ARRIVAL_NS, 0),
            (0, u16::MAX),
            (0, 0),
            (1 << 47, 1),
            (MAX_ARRIVAL_NS - 1, 1 << 15),
        ];
        for (arrival, tenant) in cases {
            let c = push(&mut w, arrival, tenant, [request(0, 9)]);
            assert_eq!((c.arrival_ns(), c.tenant()), (arrival, tenant));
            assert_eq!(w.requests_of(&c).get(0), Some(request(0, 9)));
        }
        let mut w = w.seal();
        let rows = |w: &Workload| -> Vec<(u64, u16)> {
            w.conns
                .iter()
                .map(|c| (c.arrival_ns(), c.tenant()))
                .collect()
        };
        assert_eq!(
            rows(&w),
            [
                (0, u16::MAX),
                (0, 0),
                (1 << 47, 1),
                (MAX_ARRIVAL_NS - 1, 1 << 15),
                (MAX_ARRIVAL_NS, u16::MAX),
                (MAX_ARRIVAL_NS, 0),
            ]
        );
        // Every tenant at the extremes reads its own linger and events.
        w.set_linger(u16::MAX, 11);
        w.set_events_per_request(u16::MAX, 3);
        assert_eq!(
            (w.linger_of(&w.conns[0]), w.events_of(&w.conns[0])),
            (11, 3)
        );
        assert_eq!((w.linger_of(&w.conns[1]), w.events_of(&w.conns[1])), (0, 1));
        assert_eq!(w.port_of(&w.conns[0]), Some(4));
        w.compress(3);
        assert_eq!(
            rows(&w),
            [
                (0, u16::MAX),
                (0, 0),
                ((1 << 47) / 3, 1),
                ((MAX_ARRIVAL_NS - 1) / 3, 1 << 15),
                (MAX_ARRIVAL_NS / 3, u16::MAX),
                (MAX_ARRIVAL_NS / 3, 0),
            ]
        );
        assert_eq!(w.linger_of(&w.conns[4]), 11);
        assert_eq!(w.requests_of(&w.conns[4]).get(0), Some(request(0, 9)));
    }

    #[test]
    #[should_panic(expected = "big: arrival at 281474976710656 ns is past the 2^48 ns")]
    fn push_refuses_an_arrival_past_48_bits() {
        let mut w = Workload::new("big", 1_000);
        push(&mut w, MAX_ARRIVAL_NS + 1, u16::MAX, []);
    }

    /// A tenant never set, or set to zero, reads as one event per request:
    /// what the simulator made of a zero when the count was in the row.
    #[test]
    fn events_per_request_are_the_tenants_and_one_when_unset() {
        let mut w = Workload::new("t", 1_000);
        w.set_events_per_request(2, 3);
        w.set_events_per_request(4, 0);
        for tenant in 0..6 {
            push(&mut w, tenant.into(), tenant, []);
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
        push(&mut w, 0, 2, []);
        push(&mut w, 1, 1, []);
        push(&mut w, 2, 3, []);
        let w = w.seal();
        let lingers: Vec<u64> = w.conns.iter().map(|c| w.linger_of(c)).collect();
        assert_eq!(lingers, [500, 0, 0]);
    }

    #[test]
    fn seal_sorts_by_arrival() {
        let mut w = Workload::new("t", 1_000);
        push(&mut w, 500, 0, [request(0, 10)]);
        push(&mut w, 100, 0, [request(0, 10)]);
        let w = w.seal();
        assert_eq!(w.conns[0].arrival_ns(), 100);
        assert_eq!(w.connection_count(), 2);
        assert_eq!(w.request_count(), 2);
    }

    #[test]
    fn offered_load_is_service_over_horizon() {
        let mut w = Workload::new("t", 1_000);
        push(&mut w, 0, 0, [request(0, 250)]);
        push(&mut w, 10, 0, [request(0, 250)]);
        let w = w.seal();
        assert!((w.offered_load() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_cps_over_horizon() {
        let mut w = Workload::new("t", hermes_metrics::NANOS_PER_SEC);
        for i in 0..100 {
            push(&mut w, i, 0, [request(0, 1)]);
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

    /// The runs, as `(length, capacity)`.
    fn runs(w: &Workload) -> (usize, usize) {
        (w.runs.len(), w.runs.capacity())
    }

    #[test]
    fn one_request_at_offset_zero_lives_in_the_row() {
        let mut w = Workload::new("t", 1_000);
        for service_ns in [0, 7, (1 << 31) - 1] {
            let c = push(&mut w, 0, 0, [request(0, service_ns)]);
            assert_eq!(c.script.decode(), Ok(request(0, service_ns)));
            let requests = w.requests_of(&c);
            assert_eq!(requests.len(), 1);
            assert_eq!(requests.get(0), Some(request(0, service_ns)));
            assert_eq!(requests.get(1), None);
            assert_eq!(
                requests.iter().collect::<Vec<_>>(),
                [request(0, service_ns)]
            );
        }
        // No request passed through the table on its way to its row.
        assert_eq!((table(&w), runs(&w)), ((0, 0), (0, 0)));
    }

    #[test]
    fn every_other_script_stays_in_the_table() {
        let scripts: [&[RequestSpec]; 7] = [
            &[request(5, 7)],
            &[request(1, 0)],
            &[request(0, 1), request(0, 2)],
            &[],
            &[request(0, 1 << 31)],
            &[request(0, 1 << 32 | 5)],
            &[request(0, u64::MAX)],
        ];
        let mut w = Workload::new("t", 1_000);
        for (i, &script) in scripts.iter().enumerate() {
            let c = push(&mut w, i as u64, 0, script.iter().copied());
            assert_eq!(c.script.decode(), Err(i), "script {i}");
            let requests = w.requests_of(&c);
            assert_eq!(requests.iter().collect::<Vec<_>>(), script, "script {i}");
            assert_eq!(requests.len(), script.len());
            assert_eq!(requests.get(script.len()), None);
            assert_eq!(requests.is_empty(), script.is_empty());
        }
        assert_eq!(w.request_table().len(), 7);
        assert_eq!(w.run_count(), 7);
        assert_eq!(w.request_count(), 7);
    }

    /// Scripts move with their rows when `seal` reorders them, and
    /// `compress` divides every arrival, table offset and the horizon in
    /// place: each script keeps its form, its tables and its service times.
    #[test]
    fn seal_and_compress_keep_each_form() {
        let mut w = Workload::new("t", 1_000);
        push(
            &mut w,
            300,
            0,
            [request(0, 1), request(5, 2), request(9, 3)],
        );
        push(&mut w, 100, 0, []);
        push(&mut w, 200, 7, [request(0, 4)]);
        push(&mut w, 50, 0, [request(6, 5)]);
        let w = w.seal();
        let arrivals: Vec<u64> = w.conns.iter().map(|c| c.arrival_ns()).collect();
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
        assert_eq!(w.conns[2].tenant(), 7);
        assert_eq!(w.requests_of(&w.conns[3]).len(), 3);
        assert_eq!(w.request_count(), 5);
        assert_eq!(w.request_table().len(), 4);
        assert!((w.offered_load() - 15.0 / 1_000.0).abs() < 1e-12);

        let mut fast = w.clone();
        fast.compress(2);
        assert_eq!(in_row(&fast), in_row(&w));
        assert_eq!((table(&fast), runs(&fast)), ((4, 4), (3, 3)));
        let arrivals: Vec<u64> = fast.conns.iter().map(|c| c.arrival_ns()).collect();
        assert_eq!((arrivals, fast.duration_ns), (vec![25, 50, 100, 150], 500));
        let offsets: Vec<Vec<u64>> = fast
            .conns
            .iter()
            .map(|c| {
                fast.requests_of(c)
                    .iter()
                    .map(|r| r.start_offset_ns)
                    .collect()
            })
            .collect();
        assert_eq!(offsets, [vec![3], vec![], vec![0], vec![0, 2, 4]]);
        for i in 0..w.conns.len() {
            assert_eq!(services(&fast, i), services(&w, i));
            assert_eq!(fast.conns[i].tenant(), w.conns[i].tenant());
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
        use crate::scenario::{region_mix, surge, surge_into, SurgeConfig};
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
            // And each in-place transform: two surge waves, the second
            // shifted; a compressed replay; a thinned load.
            let mut waves = Workload::new("waves", 20 * NANOS_PER_SEC);
            surge_into(&mut waves, config, seed, 0);
            surge_into(&mut waves, config, seed.wrapping_add(1), 6 * NANOS_PER_SEC);
            workloads.push(waves.seal());
            let mut replay = Case::Case2.workload(CaseLoad::Light, 2, NANOS_PER_SEC, seed);
            replay.compress(3);
            workloads.push(replay);
            let mut thinned = Case::Case1.workload(CaseLoad::Light, 2, NANOS_PER_SEC, seed);
            thinned.thin(2);
            workloads.push(thinned);

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
