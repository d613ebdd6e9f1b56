//! Dense port table and shared accept queues with an O(1) ready list.
//!
//! Shared-queue dispatch modes park SYNs in per-port accept queues and
//! drain them in ready-list order, mirroring the kernel's epoll ready
//! list. [`PortTable`] packs the whole structure behind a dense index:
//! port number → index is a flat 65536-entry array (the former
//! `HashMap<u16, usize>` lookup was a per-SYN hash on the hot path), and
//! the simulator reads it ([`PortTable::index_of`]) when it parks a SYN
//! in its port's accept queue rather than keeping a port index per
//! connection. It is built from one connection's port at
//! a time through a 65 536-bit presence set (8 KiB), read back in port
//! order — a device's two million connections are never collected and
//! sorted to find its few thousand ports. The ready list maintains three
//! invariants that the audit pinned down:
//!
//! 1. a port index appears in the ready list **at most once**
//!    (`ready_flag` guards enqueue);
//! 2. `ready_flag[p]` ⇔ `p` is in the ready list;
//! 3. a port with a non-empty accept queue is always flagged ready.
//!
//! The converse of (3) is deliberately *not* an invariant: a flagged port
//! may have an empty queue ("stale ready"), because draining races — a
//! worker accepts the last queued connection while the port is still
//! listed. [`PortTable::pop_ready`] retires stale entries lazily at the
//! front of the list, so a stale port costs at most one extra scan step —
//! never a duplicate wake or a lost connection.

use crate::state::ConnId;
use std::collections::VecDeque;

/// No port registered at this port number.
const NO_PORT: u32 = u32::MAX;

/// The simulator's port-indexed accept machinery.
#[derive(Debug)]
pub struct PortTable {
    /// Registered listening ports, sorted, dense-indexed.
    ports: Vec<u16>,
    /// Port number → dense index (65536 entries; `NO_PORT` = absent).
    lookup: Box<[u32]>,
    /// Per-port accept queues.
    queues: Vec<VecDeque<ConnId>>,
    /// Ports with (supposedly) non-empty accept queues, FIFO.
    ready: VecDeque<u32>,
    /// Membership flags for `ready` (invariant 2).
    ready_flag: Vec<bool>,
}

impl PortTable {
    /// Build the table over an iterator of listening ports (duplicates
    /// collapse; indices follow sorted port order).
    pub fn new(ports: impl IntoIterator<Item = u16>) -> Self {
        let mut present = [0u64; (1 << 16) / 64];
        for p in ports {
            present[usize::from(p) / 64] |= 1 << (p % 64);
        }
        let ports: Vec<u16> = (0..=u16::MAX)
            .filter(|&p| present[usize::from(p) / 64] & (1 << (p % 64)) != 0)
            .collect();
        let mut lookup = vec![NO_PORT; 1 << 16].into_boxed_slice();
        for (i, &p) in ports.iter().enumerate() {
            lookup[p as usize] = i as u32;
        }
        let n = ports.len();
        Self {
            ports,
            lookup,
            queues: vec![VecDeque::new(); n],
            ready: VecDeque::new(),
            ready_flag: vec![false; n],
        }
    }

    /// Number of registered ports.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether no ports are registered.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Port number at dense index `idx`.
    pub fn port(&self, idx: usize) -> u16 {
        self.ports[idx]
    }

    /// Dense index of `port`, O(1).
    #[inline]
    pub fn index_of(&self, port: u16) -> Option<usize> {
        match self.lookup[port as usize] {
            NO_PORT => None,
            i => Some(i as usize),
        }
    }

    /// Park connection `c` in port `idx`'s accept queue and mark the port
    /// ready (once — invariant 1).
    pub fn enqueue(&mut self, idx: usize, c: ConnId) {
        self.queues[idx].push_back(c);
        if !self.ready_flag[idx] {
            self.ready_flag[idx] = true;
            self.ready.push_back(idx as u32);
        }
    }

    /// Pop the next accept-able connection in ready-list order, retiring
    /// stale (emptied) ports from the front as encountered. `None` means
    /// every listed port was stale — the list is empty afterwards.
    pub fn pop_ready(&mut self) -> Option<ConnId> {
        while let Some(&p) = self.ready.front() {
            let p = p as usize;
            match self.queues[p].pop_front() {
                Some(c) => return Some(c),
                None => {
                    self.ready.pop_front();
                    self.ready_flag[p] = false;
                }
            }
        }
        None
    }

    /// Whether the ready list is non-empty (possibly only stale entries —
    /// the caller's next drain cleans those, matching `epoll_wait`'s
    /// possibly-spurious readiness).
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Check the three ready-list invariants; panics with a diagnostic on
    /// violation. Test-and-audit hook, not called on the hot path.
    pub fn check_invariants(&self) {
        let mut seen = vec![false; self.ports.len()];
        for &p in &self.ready {
            let p = p as usize;
            assert!(!seen[p], "port index {p} listed twice in ready list");
            seen[p] = true;
            assert!(self.ready_flag[p], "listed port {p} not flagged ready");
        }
        for (p, &flag) in self.ready_flag.iter().enumerate() {
            assert_eq!(flag, seen[p], "flag/membership mismatch at port {p}");
            if !self.queues[p].is_empty() {
                assert!(flag, "port {p} has queued conns but is not ready");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_lookup_round_trips() {
        let t = PortTable::new([443u16, 80, 8080, 443]);
        assert_eq!(t.len(), 3); // dup collapsed
        assert_eq!(t.port(0), 80);
        assert_eq!(t.index_of(80), Some(0));
        assert_eq!(t.index_of(443), Some(1));
        assert_eq!(t.index_of(8080), Some(2));
        assert_eq!(t.index_of(9999), None);
        assert_eq!(t.index_of(0), None);
    }

    #[test]
    fn enqueue_is_duplicate_free_and_drain_is_fifo() {
        let mut t = PortTable::new([80u16, 443]);
        t.enqueue(0, 10);
        t.enqueue(1, 20);
        t.enqueue(0, 11); // port 0 already ready: must not re-list
        t.check_invariants();
        assert_eq!(t.ready.len(), 2);
        // Ready-list order: port 0's whole queue drains before port 1.
        assert_eq!(t.pop_ready(), Some(10));
        assert_eq!(t.pop_ready(), Some(11));
        assert_eq!(t.pop_ready(), Some(20));
        assert_eq!(t.pop_ready(), None);
        t.check_invariants();
        assert!(!t.has_ready());
    }

    #[test]
    fn stale_ready_entries_retire_lazily() {
        let mut t = PortTable::new([80u16, 443]);
        t.enqueue(0, 1);
        t.enqueue(1, 2);
        assert_eq!(t.pop_ready(), Some(1));
        // Port 0 is now stale (flagged, empty queue) — allowed by design.
        assert!(t.has_ready());
        t.check_invariants();
        // The stale front is skipped and retired; port 1 still drains.
        assert_eq!(t.pop_ready(), Some(2));
        assert_eq!(t.pop_ready(), None);
        assert!(!t.has_ready());
        t.check_invariants();
    }

    #[test]
    fn reenqueue_after_stale_retire_relists_once() {
        let mut t = PortTable::new([80u16]);
        t.enqueue(0, 1);
        assert_eq!(t.pop_ready(), Some(1));
        // Stale entry still present; re-enqueue must NOT duplicate it.
        t.enqueue(0, 2);
        t.check_invariants();
        assert_eq!(t.ready.len(), 1);
        assert_eq!(t.pop_ready(), Some(2));
        assert_eq!(t.pop_ready(), None);
        // After full retire, a fresh enqueue re-lists exactly once.
        t.enqueue(0, 3);
        t.check_invariants();
        assert_eq!(t.ready.len(), 1);
        assert_eq!(t.pop_ready(), Some(3));
    }

    #[test]
    fn invariants_hold_under_interleaved_enqueue_drain() {
        // Deterministic pseudo-random interleaving over 16 ports.
        let mut t = PortTable::new(1000u16..1016);
        let mut rng = 0xdead_beefu64;
        let mut next_conn = 0;
        let mut queued = 0i64;
        let mut drained = 0i64;
        for _ in 0..50_000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = rng >> 33;
            if r % 5 < 3 {
                t.enqueue((r % 16) as usize, next_conn);
                next_conn += 1;
                queued += 1;
            } else if t.pop_ready().is_some() {
                drained += 1;
            }
            t.check_invariants();
        }
        // Conservation: every queued connection is drained exactly once.
        while t.pop_ready().is_some() {
            drained += 1;
        }
        assert_eq!(queued, drained);
        t.check_invariants();
        assert!(!t.has_ready());
    }
}
