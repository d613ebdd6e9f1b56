//! Fixed-size binary trace records and the event-kind vocabulary.
//!
//! A record is 32 bytes: a 64-bit timestamp (runtime clock nanoseconds, or
//! simulated nanoseconds inside `hermes-simnet` so traces are deterministic),
//! a 16-bit event kind, a 32-bit worker/lane id, and two 64-bit payload
//! words whose meaning depends on the kind. Records are stored in the ring
//! as four `u64` words — timestamp, packed kind+worker, payload `a`, payload
//! `b` — so a push is four relaxed atomic stores and a cursor bump.

/// Declares [`EventKind`] with its wire discriminants, `ALL`, `from_u16`
/// and `name()` from one list, so a kind is added on one line. The
/// discriminants are written out because they are the wire format: a kind
/// keeps its number for good, and a deleted kind's number is never reused
/// (5 was `dispatch.batch`, 6 `dispatch.one`, 12 `sim.syn_burst`, 15 the
/// grouped simulator's `dispatch.group` and 16 `vm.jit_load`; they now
/// decode as `Unknown`).
macro_rules! event_kinds {
    ($($(#[$doc:meta])* $kind:ident = $wire:literal => $name:literal,)+) => {
        /// What happened. The discriminant is the on-wire `u16` stored in the ring.
        ///
        /// Payload conventions (`a`, `b`) are documented per variant; timestamps are
        /// nanoseconds on the emitting clock (monotonic runtime clock, or sim time).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u16)]
        pub enum EventKind {
            /// Decoder fallback for a kind value this build does not know.
            Unknown = 0,
            $($(#[$doc])* $kind = $wire,)+
        }

        impl EventKind {
            /// Every kind the decoder knows, in discriminant order (excluding
            /// [`EventKind::Unknown`]). Drives the per-kind summary table.
            pub const ALL: [EventKind; [$($wire,)+].len()] = [$(EventKind::$kind,)+];

            /// Decode a wire discriminant, mapping unknown values to
            /// [`EventKind::Unknown`] rather than failing the drain.
            pub fn from_u16(v: u16) -> Self {
                match v {
                    $($wire => EventKind::$kind,)+
                    _ => EventKind::Unknown,
                }
            }

            /// Stable dotted name used in exports (`sched.stage`, `sim.syn`, ...).
            pub fn name(self) -> &'static str {
                match self {
                    EventKind::Unknown => "unknown",
                    $(EventKind::$kind => $name,)+
                }
            }
        }
    };
}

event_kinds! {
    /// One cascading-filter stage ran. `a` = `stage_index << 32 | stage_code`
    /// (0 = Time, 1 = Connections, 2 = PendingEvents), `b` = surviving bitmap.
    SchedStage = 1 => "sched.stage",
    /// A full scheduler pass finished. `a` = admitted bitmap, `b` = alive bitmap.
    SchedDecision = 2 => "sched.decision",
    /// A worker published its admit bitmap to the kernel map.
    /// `a` = bitmap, `b` = passes the publishing session had synced before
    /// this one (monotone per lane).
    BitmapPublish = 3 => "bitmap.publish",
    /// A dispatch program was loaded/verified. `a` = exec tier code
    /// (0 = Checked), `b` = instruction count.
    VmLoad = 4 => "vm.load",
    /// A relay worker picked up a connection from its listener: the
    /// worker-pickup stamp of a connection's path. `a` = connections taken
    /// (always 1: a worker accepts one per report of its listener),
    /// `b` = connections that listener has accepted so far.
    AcceptBurst = 7 => "lb.accept_burst",
    /// A proxied connection was handed to a worker. `a` = connection token.
    ConnOpen = 8 => "lb.conn_open",
    /// A proxied connection finished. `a` = connection token, `b` = requests served.
    ConnClose = 9 => "lb.conn_close",
    /// A `Pacer` deadline was already in the past on entry.
    /// `a` = overshoot in nanoseconds, `b` = total misses so far.
    PacerMiss = 10 => "pacer.miss",
    /// Simulated SYN arrival. `a` = connection id, `b` = flow hash.
    SimSyn = 11 => "sim.syn",
    /// Simulated worker wake (epoll return). `a` = events fetched, `b` = blocked ns.
    SimWake = 13 => "sim.wake",
    /// Simulated dispatch decision. `a` = flow hash, `b` = chosen worker.
    SimDispatch = 14 => "sim.dispatch",
    /// A backend entered service (`Healthy`/`Slow`).
    /// `a` = backend id, `b` = published table version.
    BackendUp = 17 => "backend.up",
    /// A backend started draining: serves in-flight, admits nothing new.
    /// `a` = backend id, `b` = published table version.
    BackendDrain = 18 => "backend.drain",
    /// A backend went down: in-flight connections must retry elsewhere.
    /// `a` = backend id, `b` = published table version.
    BackendDown = 19 => "backend.down",
    /// A relay reactor worker woke from `epoll_wait` with work to do.
    /// `a` = ready fd events returned, `b` = relays pumped on this wake.
    RelayWakeup = 20 => "relay.wakeup",
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
        // One macro row per kind: the wire numbers are 1..=20 in order with
        // the retired gaps, and everything else decodes to `Unknown`.
        const RETIRED: [u16; 5] = [5, 6, 12, 15, 16];
        assert_eq!(EventKind::ALL.len(), 15);
        let mut names = std::collections::HashSet::from(["unknown"]);
        let wires = (1..=20u16).filter(|w| !RETIRED.contains(w));
        for (wire, k) in wires.zip(EventKind::ALL) {
            assert_eq!(k as u16, wire);
            assert_eq!(EventKind::from_u16(k as u16), k);
            assert!(names.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(EventKind::Unknown.name(), "unknown");
        for wire in RETIRED.into_iter().chain([0, 21, 22, u16::MAX]) {
            assert_eq!(EventKind::from_u16(wire), EventKind::Unknown);
        }
    }
}
