//! Monotonic pipeline counters.
//!
//! A small fixed registry of `AtomicU64`s indexed by [`CounterId`]. Each
//! counter lives on its own cache line so two pipeline stages bumping
//! different counters never false-share. Counters are monotonic: `add`
//! accumulates, `max` ratchets (used for "worst overshoot"-style gauges).

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares [`CounterId`] with its registry order, `COUNT`, `ALL` and
/// `name()` from one list, so a counter is added or retired on one line.
macro_rules! counters {
    ($($(#[$doc:meta])* $id:ident => $name:literal,)+) => {
        /// Identity of one monotonic counter. The discriminant is the
        /// in-process registry index (exports key on [`CounterId::name`]).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum CounterId {
            $($(#[$doc])* $id,)+
        }

        impl CounterId {
            /// Number of counters in the registry.
            pub const COUNT: usize = [$($name,)+].len();

            /// Every counter, in registry order.
            pub const ALL: [CounterId; CounterId::COUNT] = [$(CounterId::$id,)+];

            /// Stable dotted name used in exports.
            pub fn name(self) -> &'static str {
                match self {
                    $(CounterId::$id => $name,)+
                }
            }
        }
    };
}

counters! {
    /// Scheduler passes (Algorithm 1 full runs).
    SchedPasses => "sched.passes",
    /// Workers rejected by some cascading-filter stage.
    SchedStageRejects => "sched.stage_rejects",
    /// Admit-bitmap publishes from worker sessions to the kernel map.
    BitmapPublishes => "bitmap.publishes",
    /// Kernel-side bitmap syncs observed by the sel map.
    KernelBitmapSyncs => "bitmap.kernel_syncs",
    /// Flows dispatched to a bitmap-admitted worker.
    DirectedDispatches => "dispatch.directed",
    /// Flows that fell back to hashing over all alive workers.
    FallbackDispatches => "dispatch.fallback",
    /// VM executions (the checked interpreter).
    VmRunsChecked => "vm.runs_checked",
    /// Accept bursts drained by the lb server.
    AcceptBursts => "lb.accept_bursts",
    /// Connections accepted by the lb server.
    AcceptedConns => "lb.accepted_conns",
    /// Proxied connections completed by lb workers.
    ProxiedConns => "lb.proxied_conns",
    /// Pacer deadlines that were already overdue on entry.
    PacerDeadlineMisses => "pacer.deadline_misses",
    /// Worst single pacer overshoot in nanoseconds (max-ratchet).
    PacerMaxOvershootNs => "pacer.max_overshoot_ns",
    /// Simulated SYN arrivals.
    SimSyns => "sim.syns",
    /// Simulated worker wakes.
    SimWakes => "sim.wakes",
    /// Simulated dispatch decisions.
    SimDispatches => "sim.dispatches",
    /// Redundant bitmap syncs elided by `store_if_changed`.
    BitmapSyncSkips => "bitmap.sync_skips",
    /// Grouped (two-level) dispatch decisions.
    GroupDispatches => "dispatch.grouped",
    /// Grouped workers that could not be assigned a trace lane (lane
    /// space is 64 wide; a 256-worker deployment overflows it).
    TraceLaneOverflows => "trace.lane_overflows",
    /// Payload bytes moved by the relay loop (both directions).
    RelayBytes => "relay.bytes",
    /// Relay pump bursts (one per worker-loop iteration with active
    /// connections).
    RelayBursts => "relay.bursts",
    /// Backend connect/resolve retries beyond the pinned backend.
    BackendRetries => "backend.retries",
    /// Payload bytes moved kernel-to-kernel by the relay's splice(2)
    /// fast path (counted as they leave the pipe toward the peer).
    SpliceBytes => "relay.splice_bytes",
    /// Relay directions demoted from splice to the scratch-copy path
    /// (`EINVAL`/`ENOSYS` from the kernel, or inspection required).
    SpliceFallbacks => "relay.splice_fallbacks",
    /// Relay reactor `epoll_wait` returns that carried ≥ 1 ready event.
    ReactorWakeups => "relay.reactor_wakeups",
}

/// One counter on its own cache line.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

/// Fixed registry of cache-line-padded monotonic counters.
pub struct CounterRegistry {
    cells: [PaddedCounter; CounterId::COUNT],
}

impl CounterRegistry {
    /// All-zero registry.
    pub fn new() -> Self {
        Self {
            cells: std::array::from_fn(|_| PaddedCounter(AtomicU64::new(0))),
        }
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.cells[id as usize].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Ratchet a counter up to at least `v` (for max-style gauges).
    #[inline]
    pub fn max(&self, id: CounterId, v: u64) {
        self.cells[id as usize].0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self, id: CounterId) -> u64 {
        self.cells[id as usize].0.load(Ordering::Relaxed)
    }

    /// Snapshot of every counter, in [`CounterId::ALL`] order.
    pub fn snapshot(&self) -> [(CounterId, u64); CounterId::COUNT] {
        std::array::from_fn(|i| (CounterId::ALL[i], self.get(CounterId::ALL[i])))
    }

    /// Zero every counter (test/reset aid).
    pub fn reset(&self) {
        for c in &self.cells {
            c.0.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for CounterRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CounterRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("CounterRegistry");
        for (id, v) in self.snapshot() {
            if v != 0 {
                s.field(id.name(), &v);
            }
        }
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_match_all_table() {
        assert_eq!(CounterId::ALL.len(), CounterId::COUNT);
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i, "discriminant order broke for {id:?}");
        }
        let mut names = std::collections::HashSet::new();
        for id in CounterId::ALL {
            assert!(names.insert(id.name()));
        }
    }

    #[test]
    fn cells_are_cache_line_padded() {
        assert_eq!(std::mem::align_of::<PaddedCounter>(), 64);
        assert_eq!(std::mem::size_of::<PaddedCounter>(), 64);
    }

    #[test]
    fn add_and_max_behave_monotonically() {
        let reg = CounterRegistry::new();
        reg.add(CounterId::SimSyns, 3);
        reg.add(CounterId::SimSyns, 4);
        assert_eq!(reg.get(CounterId::SimSyns), 7);
        reg.max(CounterId::PacerMaxOvershootNs, 50);
        reg.max(CounterId::PacerMaxOvershootNs, 20);
        reg.max(CounterId::PacerMaxOvershootNs, 80);
        assert_eq!(reg.get(CounterId::PacerMaxOvershootNs), 80);
        reg.reset();
        assert_eq!(reg.get(CounterId::SimSyns), 0);
        assert_eq!(reg.get(CounterId::PacerMaxOvershootNs), 0);
    }
}
