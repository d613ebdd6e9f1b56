//! Per-connection consistency under backend churn, on the crate that owns
//! `resolve`.
//!
//! A scripted clock drives a rolling drain *and* a backend flap through
//! [`BackendPool::set_health`] while 12 000 admissions are live, and every
//! one of their `resolve()` calls stays inside the table version it was
//! admitted under: zero misroutes (a `Retried` while the pinned backend
//! still serves) and zero `Expired` (no admitted version fully expires when
//! churn takes down at most one backend at a time).

use hermes_backend::{Admission, BackendId, BackendPool, HealthState, Resolution, TableCache};

const BACKENDS: usize = 8;
const RESOLVES_PER_ADMISSION: u64 = 6;
const MS: u64 = 1_000_000;

/// One scripted health transition: `(at_ns, backend, to)`.
type Transition = (u64, BackendId, HealthState);

/// Backends `0..count` drain one at a time, 250 ms apart from 1 s, each
/// returning to `Healthy` as the next drain begins. Draining backends keep
/// serving what they admitted, so nothing retries.
fn rolling_drain(count: usize) -> Vec<Transition> {
    (0..count)
        .flat_map(|b| {
            let at = (1_000 + 250 * b as u64) * MS;
            [
                (at, b, HealthState::Draining),
                (at + 250 * MS, b, HealthState::Healthy),
            ]
        })
        .collect()
}

#[derive(Debug, Default, PartialEq)]
struct Tally {
    version: u64,
    pinned: u64,
    retried: u64,
    expired: u64,
    misroutes: u64,
}

enum Step {
    Health(BackendId, HealthState),
    Admit(usize),
    Resolve(usize),
}

/// `admissions` connections admitted 40 µs apart (12 000 span the first
/// 480 ms), each resolving six times, 750 ms apart and staggered per
/// connection, so the last resolve lands near 4.25 s — played against
/// `script` in time order.
fn play(admissions: usize, script: &[Transition]) -> Tally {
    let mut steps: Vec<(u64, Step)> = script
        .iter()
        .map(|&(at, b, to)| (at, Step::Health(b, to)))
        .collect();
    for i in 0..admissions {
        let arrival = i as u64 * 40_000;
        steps.push((arrival, Step::Admit(i)));
        for r in 0..RESOLVES_PER_ADMISSION {
            let at = arrival + r * 750 * MS + (i as u64 % 997) * 1_000;
            steps.push((at, Step::Resolve(i)));
        }
    }
    // Stable: an admission precedes its own first resolve, and a transition
    // precedes traffic at the same instant.
    steps.sort_by_key(|&(at, _)| at);

    let pool = BackendPool::new(BACKENDS);
    let mut cache = TableCache::new();
    let mut admitted: Vec<Option<Admission>> = vec![None; admissions];
    let mut tally = Tally::default();
    for (now, step) in steps {
        match step {
            Step::Health(b, to) => assert!(pool.set_health(b, to, now), "{b} -> {to:?}"),
            Step::Admit(i) => {
                let hash = (i as u32).wrapping_mul(0x9E37_79B9);
                admitted[i] = pool.cached(&mut cache).admit(hash);
            }
            Step::Resolve(i) => {
                let adm = admitted[i].as_ref().expect("a serving pool admits");
                match adm.resolve() {
                    Resolution::Pinned(b) => {
                        assert_eq!(b, adm.pinned());
                        tally.pinned += 1;
                    }
                    Resolution::Retried(b) => {
                        assert!(pool.health(b).serves_in_flight());
                        tally.misroutes += u64::from(pool.health(adm.pinned()).serves_in_flight());
                        tally.retried += 1;
                    }
                    Resolution::Expired => tally.expired += 1,
                }
            }
        }
    }
    tally.version = pool.version();
    tally
}

#[test]
fn every_resolve_stays_inside_its_admitted_version_under_drain_and_flap() {
    // Rolling drain over backends 0..=5 (1 s – 2.5 s) plus a flap on
    // backend 6: hard `Down` at 1.5 s, back at 2.5 s. Only the flap victim
    // ever stops serving in-flight traffic.
    let mut script = rolling_drain(6);
    script.push((1_500 * MS, 6, HealthState::Down));
    script.push((2_500 * MS, 6, HealthState::Healthy));
    let t = play(12_000, &script);

    // 12 drain transitions + 2 flap transitions on top of version 1.
    assert_eq!(t.version, 15);
    assert_eq!(
        t.misroutes, 0,
        "a resolve left a pinned backend that serves"
    );
    assert_eq!(
        t.expired, 0,
        "an admitted version expired under single-backend churn"
    );
    assert!(
        t.retried > 0,
        "the flap victim's admissions must have retried"
    );
    assert_eq!(t.pinned + t.retried, 12_000 * RESOLVES_PER_ADMISSION);
}

#[test]
fn only_a_backend_that_stops_serving_displaces_a_resolve() {
    // No churn, a rolling drain over every backend, and one backend `Slow`:
    // each keeps every backend serving what it admitted.
    let scripts = [
        ("steady", Vec::new()),
        ("drain", rolling_drain(BACKENDS)),
        ("slow", vec![(1_000 * MS, 3, HealthState::Slow)]),
    ];
    for (name, script) in scripts {
        let t = play(4_000, &script);
        let want = Tally {
            version: 1 + script.len() as u64,
            pinned: 4_000 * RESOLVES_PER_ADMISSION,
            ..Tally::default()
        };
        assert_eq!(t, want, "{name}");
    }
}
