//! Fixed-size binary trace records and the event-kind vocabulary.
//!
//! A record is 32 bytes: a 64-bit timestamp (runtime clock nanoseconds, or
//! simulated nanoseconds inside `hermes-simnet` so traces are deterministic),
//! a 16-bit event kind, a 32-bit worker/lane id, and two 64-bit payload
//! words whose meaning depends on the kind. Records are stored in the ring
//! as four `u64` words — timestamp, packed kind+worker, payload `a`, payload
//! `b` — so a push is four relaxed atomic stores and a cursor bump.

/// What happened. The discriminant is the on-wire `u16` stored in the ring.
///
/// Payload conventions (`a`, `b`) are documented per variant; timestamps are
/// nanoseconds on the emitting clock (monotonic runtime clock, or sim time).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum EventKind {
    /// Decoder fallback for a kind value this build does not know.
    Unknown = 0,
    /// One cascading-filter stage ran. `a` = `stage_index << 32 | stage_code`
    /// (0 = Time, 1 = Connections, 2 = PendingEvents), `b` = surviving bitmap.
    SchedStage = 1,
    /// A full scheduler pass finished. `a` = admitted bitmap, `b` = alive bitmap.
    SchedDecision = 2,
    /// A worker published its admit bitmap to the kernel map.
    /// `a` = bitmap, `b` = passes the publishing session had synced before
    /// this one (monotone per lane).
    BitmapPublish = 3,
    /// A dispatch program was loaded/verified. `a` = exec tier code
    /// (0 = Checked, 1 = Fast, 2 = Compiled, 3 = Jit), `b` = instruction
    /// count.
    VmLoad = 4,
    /// A batch of flows went through `dispatch_batch`.
    /// `a` = batch length, `b` = directed (non-fallback) count.
    DispatchBatch = 5,
    /// A single flow was dispatched. `a` = flow hash, `b` = chosen worker.
    Dispatch = 6,
    /// The lb acceptor drained one accept burst.
    /// `a` = burst length, `b` = directed count.
    AcceptBurst = 7,
    /// A proxied connection was handed to a worker. `a` = connection token.
    ConnOpen = 8,
    /// A proxied connection finished. `a` = connection token, `b` = requests served.
    ConnClose = 9,
    /// A `Pacer` deadline was already in the past on entry.
    /// `a` = overshoot in nanoseconds, `b` = total misses so far.
    PacerMiss = 10,
    /// Simulated SYN arrival. `a` = connection id, `b` = flow hash.
    SimSyn = 11,
    /// Same-timestamp SYN burst drained as one batch.
    /// `a` = burst length, `b` = first connection id.
    SimSynBurst = 12,
    /// Simulated worker wake (epoll return). `a` = events fetched, `b` = blocked ns.
    SimWake = 13,
    /// Simulated dispatch decision. `a` = flow hash, `b` = chosen worker.
    SimDispatch = 14,
    /// Grouped (two-level) dispatch decision.
    /// `a` = flow hash, `b` = `group << 32 | global_worker`.
    GroupDispatch = 15,
    /// A certified program was lowered to native code by the JIT.
    /// `a` = emitted code size in bytes, `b` = basic blocks lowered.
    JitLoad = 16,
    /// A backend entered service (`Healthy`/`Slow`).
    /// `a` = backend id, `b` = published table version.
    BackendUp = 17,
    /// A backend started draining: serves in-flight, admits nothing new.
    /// `a` = backend id, `b` = published table version.
    BackendDrain = 18,
    /// A backend went down: in-flight connections must retry elsewhere.
    /// `a` = backend id, `b` = published table version.
    BackendDown = 19,
    /// A relay reactor worker woke from `epoll_wait` with work to do.
    /// `a` = ready fd events returned, `b` = relays pumped on this wake.
    RelayWakeup = 20,
}

impl EventKind {
    /// Every kind the decoder knows, in discriminant order (excluding
    /// [`EventKind::Unknown`]). Drives the per-kind summary table.
    pub const ALL: [EventKind; 20] = [
        EventKind::SchedStage,
        EventKind::SchedDecision,
        EventKind::BitmapPublish,
        EventKind::VmLoad,
        EventKind::DispatchBatch,
        EventKind::Dispatch,
        EventKind::AcceptBurst,
        EventKind::ConnOpen,
        EventKind::ConnClose,
        EventKind::PacerMiss,
        EventKind::SimSyn,
        EventKind::SimSynBurst,
        EventKind::SimWake,
        EventKind::SimDispatch,
        EventKind::GroupDispatch,
        EventKind::JitLoad,
        EventKind::BackendUp,
        EventKind::BackendDrain,
        EventKind::BackendDown,
        EventKind::RelayWakeup,
    ];

    /// Decode a wire discriminant, mapping unknown values to
    /// [`EventKind::Unknown`] rather than failing the drain.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => EventKind::SchedStage,
            2 => EventKind::SchedDecision,
            3 => EventKind::BitmapPublish,
            4 => EventKind::VmLoad,
            5 => EventKind::DispatchBatch,
            6 => EventKind::Dispatch,
            7 => EventKind::AcceptBurst,
            8 => EventKind::ConnOpen,
            9 => EventKind::ConnClose,
            10 => EventKind::PacerMiss,
            11 => EventKind::SimSyn,
            12 => EventKind::SimSynBurst,
            13 => EventKind::SimWake,
            14 => EventKind::SimDispatch,
            15 => EventKind::GroupDispatch,
            16 => EventKind::JitLoad,
            17 => EventKind::BackendUp,
            18 => EventKind::BackendDrain,
            19 => EventKind::BackendDown,
            20 => EventKind::RelayWakeup,
            _ => EventKind::Unknown,
        }
    }

    /// Stable dotted name used in exports (`sched.stage`, `sim.syn`, ...).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Unknown => "unknown",
            EventKind::SchedStage => "sched.stage",
            EventKind::SchedDecision => "sched.decision",
            EventKind::BitmapPublish => "bitmap.publish",
            EventKind::VmLoad => "vm.load",
            EventKind::DispatchBatch => "dispatch.batch",
            EventKind::Dispatch => "dispatch.one",
            EventKind::AcceptBurst => "lb.accept_burst",
            EventKind::ConnOpen => "lb.conn_open",
            EventKind::ConnClose => "lb.conn_close",
            EventKind::PacerMiss => "pacer.miss",
            EventKind::SimSyn => "sim.syn",
            EventKind::SimSynBurst => "sim.syn_burst",
            EventKind::SimWake => "sim.wake",
            EventKind::SimDispatch => "sim.dispatch",
            EventKind::GroupDispatch => "dispatch.group",
            EventKind::JitLoad => "vm.jit_load",
            EventKind::BackendUp => "backend.up",
            EventKind::BackendDrain => "backend.drain",
            EventKind::BackendDown => "backend.down",
            EventKind::RelayWakeup => "relay.wakeup",
        }
    }
}

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds on the emitting clock (runtime monotonic or sim time).
    pub ts: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Worker id / lane the event belongs to.
    pub worker: u32,
    /// First payload word; meaning depends on `kind`.
    pub a: u64,
    /// Second payload word; meaning depends on `kind`.
    pub b: u64,
}

impl TraceRecord {
    /// Pack kind + worker into the ring's second word.
    #[inline]
    pub(crate) fn meta(&self) -> u64 {
        ((self.kind as u16 as u64) << 32) | self.worker as u64
    }

    /// Rebuild a record from the ring's four words.
    #[inline]
    pub(crate) fn from_words(ts: u64, meta: u64, a: u64, b: u64) -> Self {
        Self {
            ts,
            kind: EventKind::from_u16(((meta >> 32) & 0xffff) as u16),
            worker: meta as u32,
            a,
            b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips_kind_and_worker() {
        let r = TraceRecord {
            ts: 42,
            kind: EventKind::SimWake,
            worker: 0xdead_beef,
            a: 1,
            b: 2,
        };
        let back = TraceRecord::from_words(r.ts, r.meta(), r.a, r.b);
        assert_eq!(back, r);
    }

    #[test]
    fn unknown_kinds_decode_to_unknown() {
        assert_eq!(EventKind::from_u16(999), EventKind::Unknown);
        let r = TraceRecord::from_words(0, (999u64) << 32, 0, 0);
        assert_eq!(r.kind, EventKind::Unknown);
    }

    #[test]
    fn all_kinds_round_trip_and_have_unique_names() {
        let mut names = std::collections::HashSet::new();
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_u16(k as u16), k);
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
        }
    }
}
