//! The workload data model consumed by the simulator.
//!
//! A [`Workload`] is a time-ordered list of [`ConnectionSpec`]s. Each
//! connection carries its flow identity (for reuseport hashing), its tenant
//! and port (for multi-tenant accounting), and a script of [`RequestSpec`]s:
//! when each request arrives relative to connection establishment, how many
//! I/O events it triggers, and how much worker CPU time each request costs.
//! Keeping requests scripted (rather than generated inside the simulator)
//! makes every experiment replayable and lets the *same* workload be run
//! under every dispatch mode — the comparison structure of Table 3.

use hermes_core::FlowKey;

/// One application-layer request on a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestSpec {
    /// When the request's first event becomes readable, relative to
    /// connection establishment (ns).
    pub start_offset_ns: u64,
    /// Total worker CPU time to process the request (ns) — the paper's
    /// "processing time", covering parsing/SSL/compression.
    pub service_ns: u64,
    /// Number of epoll events the request generates (≥1): header readable,
    /// body readable, upstream writable, ... Service time is split evenly
    /// across events.
    pub events: u32,
    /// Request size in bytes (Table 1's request-size dimension; drives
    /// buffer accounting, not CPU cost).
    pub size_bytes: u32,
}

impl RequestSpec {
    /// CPU time consumed by each of the request's events.
    pub fn service_per_event_ns(&self) -> u64 {
        self.service_ns / u64::from(self.events.max(1))
    }
}

/// One client connection through the LB.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnectionSpec {
    /// SYN arrival time (ns from experiment start).
    pub arrival_ns: u64,
    /// Flow 4-tuple (gives the kernel its precomputed hash).
    pub flow: FlowKey,
    /// Owning tenant (dense id).
    pub tenant: u16,
    /// LB-side destination port (the tenant's rewritten Dport).
    pub port: u16,
    /// Scripted requests, sorted by `start_offset_ns`.
    pub requests: Vec<RequestSpec>,
    /// Connection closes this long after its last request completes; `None`
    /// means it closes immediately after the last request (short-lived).
    pub linger_ns: Option<u64>,
}

impl ConnectionSpec {
    /// Total scripted CPU demand of the connection (ns).
    pub fn total_service_ns(&self) -> u64 {
        self.requests.iter().map(|r| r.service_ns).sum()
    }

    /// Total scripted events.
    pub fn total_events(&self) -> u64 {
        self.requests.iter().map(|r| u64::from(r.events)).sum()
    }
}

/// A complete experiment input.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// Human-readable name (appears in harness output).
    pub name: String,
    /// Connections sorted by `arrival_ns`.
    pub conns: Vec<ConnectionSpec>,
    /// Experiment horizon (ns): the simulator runs to this time even after
    /// the last arrival, letting queues drain.
    pub duration_ns: u64,
}

impl Workload {
    /// Create an empty workload with a horizon.
    pub fn new(name: impl Into<String>, duration_ns: u64) -> Self {
        Self {
            name: name.into(),
            conns: Vec::new(),
            duration_ns,
        }
    }

    /// Append a connection (kept sorted on [`seal`](Self::seal)).
    pub fn push(&mut self, conn: ConnectionSpec) {
        self.conns.push(conn);
    }

    /// Sort connections by arrival and validate invariants. Call once after
    /// generation; the simulator requires sealed workloads.
    pub fn seal(mut self) -> Self {
        self.conns.sort_by_key(|c| c.arrival_ns);
        for c in &self.conns {
            debug_assert!(
                c.requests
                    .windows(2)
                    .all(|w| w[0].start_offset_ns <= w[1].start_offset_ns),
                "requests must be sorted by start offset"
            );
        }
        self
    }

    /// Number of connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Total requests across connections.
    pub fn request_count(&self) -> usize {
        self.conns.iter().map(|c| c.requests.len()).sum()
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
            .map(ConnectionSpec::total_service_ns)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn conn(arrival: u64, service: u64) -> ConnectionSpec {
        ConnectionSpec {
            arrival_ns: arrival,
            flow: FlowKey::new(1, 2, 3, 4),
            tenant: 0,
            port: 1000,
            requests: vec![RequestSpec {
                start_offset_ns: 0,
                service_ns: service,
                events: 2,
                size_bytes: 100,
            }],
            linger_ns: None,
        }
    }

    #[test]
    fn service_per_event_splits_evenly() {
        let r = RequestSpec {
            start_offset_ns: 0,
            service_ns: 100,
            events: 4,
            size_bytes: 0,
        };
        assert_eq!(r.service_per_event_ns(), 25);
        let degenerate = RequestSpec { events: 0, ..r };
        assert_eq!(degenerate.service_per_event_ns(), 100);
    }

    #[test]
    fn seal_sorts_by_arrival() {
        let mut w = Workload::new("t", 1_000);
        w.push(conn(500, 10));
        w.push(conn(100, 10));
        let w = w.seal();
        assert_eq!(w.conns[0].arrival_ns, 100);
        assert_eq!(w.connection_count(), 2);
        assert_eq!(w.request_count(), 2);
    }

    #[test]
    fn offered_load_is_service_over_horizon() {
        let mut w = Workload::new("t", 1_000);
        w.push(conn(0, 250));
        w.push(conn(10, 250));
        let w = w.seal();
        assert!((w.offered_load() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_cps_over_horizon() {
        let mut w = Workload::new("t", hermes_metrics::NANOS_PER_SEC);
        for i in 0..100 {
            w.push(conn(i, 1));
        }
        assert!((w.seal().mean_cps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_degenerates_safely() {
        let w = Workload::new("t", 0);
        assert_eq!(w.offered_load(), 0.0);
        assert_eq!(w.mean_cps(), 0.0);
    }

    #[test]
    fn connection_totals() {
        let mut c = conn(0, 100);
        c.requests.push(RequestSpec {
            start_offset_ns: 50,
            service_ns: 40,
            events: 3,
            size_bytes: 10,
        });
        assert_eq!(c.total_service_ns(), 140);
        assert_eq!(c.total_events(), 5);
    }
}
