//! Runtime state of simulated entities.
//!
//! Connection state ([`ConnTable`]) holds only the connections in flight:
//! a power-of-two ring of slots over the ids from the oldest open
//! connection to the newest SYN, sized by peak concurrency, not total
//! traffic — the Concury-style compact index-addressed layout that lets one
//! machine hold the fleet. A slot is 12 B (worker, flags, requests left,
//! requests parked before accept) and is initialised at its connection's
//! SYN; a closed id below the oldest open one needs no slot at all. Case 1
//! heavy pushes two million connections through a device, and under Hermes
//! or reuseport fewer than two thousand ids are ever open at once.
//!
//! Nothing is counted per request: a request's events queue together on
//! one worker, so it completes on the event tagged last
//! ([`IoEvent::Request`]), and the requests parked before accept are always
//! a prefix of the connection's script, so a count names them.

use std::collections::VecDeque;

/// Index of a connection in the workload.
pub type ConnId = usize;

/// One queued I/O event awaiting a worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoEvent {
    /// A new connection is waiting in an accept queue (listening socket
    /// readable).
    Accept(ConnId),
    /// Data readable on an established connection: one of request `req`'s
    /// events, costing `service_ns` of worker CPU.
    Request {
        /// Connection.
        conn: ConnId,
        /// Request index within the connection.
        req: usize,
        /// CPU cost of this event.
        service_ns: u64,
        /// The request's last event: it completes when this one runs. The
        /// events of a request queue together on one worker and run in
        /// order, so this one runs after the rest.
        last: bool,
    },
    /// A fault-injected poison task that pins the worker (Appendix C hang).
    Poison {
        /// How long the worker is trapped.
        duration_ns: u64,
    },
    /// A health probe addressed to this specific worker (§6.2: "we
    /// periodically send probes to all workers and measure their
    /// end-to-end delays"). Bypasses connection dispatch by design.
    Probe {
        /// Injection time for latency accounting.
        submitted_ns: u64,
    },
}

/// Worker execution phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Blocked in `epoll_wait` since `since` (generation-tagged so stale
    /// wake events are ignored).
    Idle {
        /// Block start time.
        since: u64,
    },
    /// Processing a batch; `BatchDone` is scheduled.
    Running,
}

/// Per-worker loop state. What the worker status table holds (loop entry,
/// pending events, connections) is the simulator's `rows`, and what the
/// worker counts over the run is its `WorkerReport`.
#[derive(Debug)]
pub struct WorkerState {
    /// Events delivered to this worker's epoll instance, awaiting the next
    /// `epoll_wait` return.
    pub pending: VecDeque<IoEvent>,
    /// Execution phase.
    pub phase: Phase,
    /// Wake-generation counter: a `WorkerWake` event only fires if its
    /// generation matches (stale timeouts/wakeups are dropped).
    pub generation: u64,
    /// Whether a wake event is already in flight for the current
    /// generation (avoid flooding the queue with redundant wakes).
    pub wake_scheduled: bool,
    /// Crashed workers stop processing forever.
    pub crashed: bool,
}

impl WorkerState {
    /// A fresh worker, idle from time 0.
    pub fn new() -> Self {
        Self {
            pending: VecDeque::new(),
            phase: Phase::Idle { since: 0 },
            generation: 0,
            wake_scheduled: false,
            crashed: false,
        }
    }

    /// True when the worker is blocked in `epoll_wait`.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle { .. })
    }
}

impl Default for WorkerState {
    fn default() -> Self {
        Self::new()
    }
}

/// Sentinel worker byte: no worker assigned (`SimConfig::validate` caps
/// a device at 64 workers).
const NO_WORKER: u8 = u8::MAX;

const ACCEPTED: u8 = 1;
const CLOSED: u8 = 2;

/// One open connection's state.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Requests not yet completed.
    remaining_requests: u32,
    /// Requests that became ready before accept. `RequestReady`s release in
    /// request-index order, so these are always the first `parked` of the
    /// connection's script.
    parked: u32,
    /// Owning worker, or [`NO_WORKER`]. For reuseport-style modes assigned
    /// at SYN (socket choice); for shared-queue modes at accept.
    worker: u8,
    /// Packed flags: bit 0 accepted, bit 1 closed.
    flags: u8,
}

/// The connections in flight: a power-of-two ring of slots over the ids
/// from the oldest open connection (`base`) to the newest SYN (`end`).
///
/// A slot is initialised at its connection's `Syn` ([`ConnTable::open`]),
/// so ids open in order. A connection closes only after it is accepted and
/// its last request finishes, and the base advances past closed ids, so
/// every id below the base is closed and accepted: [`ConnTable::closed`]
/// and [`ConnTable::accepted`] answer that without a slot, and nothing
/// else is asked of such an id. The ring doubles, re-placing its live
/// slots, only when the open span outgrows it; it never shrinks, so its
/// capacity is the run's peak.
#[derive(Debug)]
pub struct ConnTable {
    /// Every id below it is closed.
    base: ConnId,
    /// One past the newest opened id: slots hold `base..end`.
    end: ConnId,
    /// Connection `c` lives at `slots[c % slots.len()]`.
    slots: Vec<Slot>,
}

impl Default for ConnTable {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnTable {
    /// An empty window of 64 slots.
    pub fn new() -> Self {
        ConnTable {
            base: 0,
            end: 0,
            slots: vec![Slot::default(); 64],
        }
    }

    /// The ids with a slot, oldest first: every closed id below them,
    /// every unopened one above.
    pub fn open_ids(&self) -> std::ops::Range<ConnId> {
        self.base..self.end
    }

    #[inline]
    fn slot(&self, c: ConnId) -> &Slot {
        debug_assert!((self.base..self.end).contains(&c), "id {c} has no slot");
        &self.slots[c & (self.slots.len() - 1)]
    }

    #[inline]
    fn slot_mut(&mut self, c: ConnId) -> &mut Slot {
        debug_assert!((self.base..self.end).contains(&c), "id {c} has no slot");
        let mask = self.slots.len() - 1;
        &mut self.slots[c & mask]
    }

    /// Give connection `c`, the next id in order, its slot at its `Syn`:
    /// unassigned, unaccepted, `requests` to run.
    pub fn open(&mut self, c: ConnId, requests: usize) {
        assert_eq!(c, self.end, "connections open in id order");
        if self.end - self.base == self.slots.len() {
            let cap = 2 * self.slots.len();
            let old = std::mem::replace(&mut self.slots, vec![Slot::default(); cap]);
            for id in self.base..self.end {
                self.slots[id & (cap - 1)] = old[id & (old.len() - 1)];
            }
        }
        self.end += 1;
        *self.slot_mut(c) = Slot {
            remaining_requests: u32::try_from(requests).expect("u32 requests a connection"),
            parked: 0,
            worker: NO_WORKER,
            flags: 0,
        };
    }

    /// Flags of `c`; an id below the base is accepted and closed.
    #[inline]
    fn flags(&self, c: ConnId) -> u8 {
        if c < self.base {
            ACCEPTED | CLOSED
        } else {
            self.slot(c).flags
        }
    }

    /// Owning worker of open connection `c`, if assigned.
    #[inline]
    pub fn worker(&self, c: ConnId) -> Option<usize> {
        let w = self.slot(c).worker;
        (w != NO_WORKER).then_some(usize::from(w))
    }

    /// Assign (or re-home) open connection `c` to worker `w`.
    #[inline]
    pub fn set_worker(&mut self, c: ConnId, w: usize) {
        self.slot_mut(c).worker = u8::try_from(w).expect("worker id fits u8");
    }

    /// Whether a worker has accepted the connection.
    #[inline]
    pub fn accepted(&self, c: ConnId) -> bool {
        self.flags(c) & ACCEPTED != 0
    }

    /// Mark the connection accepted.
    #[inline]
    pub fn set_accepted(&mut self, c: ConnId) {
        self.slot_mut(c).flags |= ACCEPTED;
    }

    /// Whether the connection has closed.
    #[inline]
    pub fn closed(&self, c: ConnId) -> bool {
        self.flags(c) & CLOSED != 0
    }

    /// Mark the connection closed, and move the base past every closed id.
    pub fn close(&mut self, c: ConnId) {
        self.slot_mut(c).flags |= CLOSED;
        while self.base < self.end && self.slot(self.base).flags & CLOSED != 0 {
            self.base += 1;
        }
    }

    /// Requests of open connection `c` not yet completed.
    #[inline]
    pub fn remaining_requests(&self, c: ConnId) -> u32 {
        self.slot(c).remaining_requests
    }

    /// Count one request of `c` complete; returns the new remaining count.
    #[inline]
    pub fn complete_request(&mut self, c: ConnId) -> u32 {
        let slot = self.slot_mut(c);
        slot.remaining_requests -= 1;
        slot.remaining_requests
    }

    /// Park `c`'s next ready request until the connection is accepted.
    #[inline]
    pub fn park(&mut self, c: ConnId) {
        self.slot_mut(c).parked += 1;
    }

    /// Requests of `c` parked before accept: its first `parked(c)`.
    #[inline]
    pub fn parked(&self, c: ConnId) -> usize {
        self.slot(c).parked as usize
    }

    /// Resident bytes of the window: the per-device memory budget reported
    /// in `DeviceReport`. The ring never shrinks, so this is its peak, a
    /// deterministic function of the run, stable across repeat runs and
    /// thread counts.
    pub fn memory_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<Slot>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_worker_is_idle_generation_zero() {
        let w = WorkerState::new();
        assert!(w.is_idle());
        assert_eq!(w.generation, 0);
        assert!(!w.crashed);
        assert!(w.pending.is_empty());
    }

    #[test]
    fn an_opened_slot_tracks_its_connection() {
        let mut t = ConnTable::new();
        t.open(0, 3);
        t.open(1, 1);
        assert_eq!(t.open_ids(), 0..2);
        assert_eq!(t.remaining_requests(0), 3);
        assert!(!t.accepted(0) && !t.closed(0));
        assert_eq!(t.worker(0), None);
        t.set_worker(0, 63);
        assert_eq!(t.worker(0), Some(63));
        assert_eq!(t.worker(1), None, "slots are independent");
        t.park(0);
        t.park(0);
        assert_eq!((t.parked(0), t.parked(1)), (2, 0));
        assert_eq!(t.complete_request(0), 2);
    }

    #[test]
    fn flags_pack_accept_and_close_independently() {
        let mut t = ConnTable::new();
        t.open(0, 1);
        t.open(1, 1);
        t.set_accepted(1);
        assert!(t.accepted(1) && !t.closed(1));
        t.close(1);
        assert!(t.accepted(1) && t.closed(1));
        assert!(!t.accepted(0) && !t.closed(0));
    }

    /// The base moves only over a closed prefix; ids below it answer
    /// "accepted, closed" without a slot; the ring doubles
    /// only when the open span fills it, keeping every live slot.
    #[test]
    fn the_window_advances_over_closed_ids_and_grows_with_the_open_span() {
        let mut t = ConnTable::new();
        let cap = t.memory_bytes();
        // A long-lived connection 0 pins the base while 1..200 come and go.
        t.open(0, 1);
        t.set_worker(0, 7);
        t.set_accepted(0);
        for c in 1..200 {
            t.open(c, 0);
            t.set_accepted(c);
            t.close(c);
            assert_eq!(t.open_ids(), 0..c + 1);
        }
        assert_eq!(t.memory_bytes(), 4 * cap, "199 open ids: 64 → 256 slots");
        // Growth re-placed connection 0's slot.
        assert_eq!(t.worker(0), Some(7));
        assert_eq!(t.remaining_requests(0), 1);
        // Closing 0 releases the whole closed prefix at once.
        t.close(0);
        assert_eq!(t.open_ids(), 200..200);
        for c in [0, 1, 150, 199] {
            assert!(t.accepted(c) && t.closed(c), "id {c} below the base");
        }
        // A full lap of the ring later, old ids still answer closed while
        // their slots hold new connections.
        for c in 200..456 {
            t.open(c, 2);
        }
        assert_eq!(t.memory_bytes(), 4 * cap, "256 open ids fit 256 slots");
        assert!(t.closed(0) && !t.closed(456 - 256));
        assert_eq!(t.remaining_requests(200), 2);
        t.open(456, 2);
        assert_eq!(t.memory_bytes(), 8 * cap);
        // Closing out of order: the base waits for the oldest.
        t.set_accepted(201);
        t.close(201);
        assert_eq!(t.open_ids(), 200..457);
        t.set_accepted(200);
        t.close(200);
        assert_eq!(t.open_ids(), 202..457);
    }

    #[test]
    #[should_panic(expected = "id order")]
    fn ids_open_in_order() {
        let mut t = ConnTable::new();
        t.open(1, 1);
    }
}
