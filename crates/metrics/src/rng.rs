//! The workspace's one pseudo-random generator.
//!
//! splitmix64 (Steele, Lea & Flood's `SplittableRandom` finaliser over a
//! Weyl sequence): eight lines, full 2⁶⁴ period, passes BigCrush, and —
//! what matters here — a stream that is a property of this repository, not
//! of whichever third-party crate a build happened to link. Every workload,
//! every checked-in result and every seeded test case draws from it, so the
//! algorithm, the seeding and the three draws below are pinned by constants
//! in this module's tests and must not change.

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 with the draws the workspace uses.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Generator for a user-facing seed (the state starts at
    /// `seed ^ GOLDEN_GAMMA`, so seed 0 is not the all-zero state).
    pub fn new(seed: u64) -> Self {
        Self::from_state(seed ^ GOLDEN_GAMMA)
    }

    /// Generator whose raw state is `state`: the first output is the mix of
    /// `state + GOLDEN_GAMMA`.
    pub fn from_state(state: u64) -> Self {
        Self { state }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`: the top 53 bits over 2⁵³.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The top 16 bits.
    #[inline]
    pub fn u16(&mut self) -> u16 {
        (self.next_u64() >> 48) as u16
    }

    /// An index in `0..span` by modulo; the bias towards low indices is at
    /// most `span / 2⁶⁴`. Panics on an empty span.
    #[inline]
    pub fn index(&mut self, span: usize) -> usize {
        assert!(span > 0, "index draw from an empty span");
        (self.next_u64() % span as u64) as usize
    }
}

/// Run a property over `cases` seeded cases (case `i` draws from
/// `SplitMix64::new(i)`); a failing case's number follows its panic message
/// on stderr, so it can be replayed alone.
pub fn for_each_case(cases: u64, mut property: impl FnMut(&mut SplitMix64)) {
    struct Case(u64);
    impl Drop for Case {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing case: {}", self.0);
            }
        }
    }
    for case in 0..cases {
        let case = Case(case);
        property(&mut SplitMix64::new(case.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws<T>(mut draw: impl FnMut(&mut SplitMix64) -> T) -> [T; 4] {
        let mut r = SplitMix64::new(42);
        [draw(&mut r), draw(&mut r), draw(&mut r), draw(&mut r)]
    }

    // Recorded from the generator that produced every checked-in result
    // (the former offline `rand` stand-in), before it moved here.
    #[test]
    fn seed_42_stream_is_pinned_for_every_draw_kind() {
        assert_eq!(
            draws(SplitMix64::next_u64),
            [
                0x28EF_E333_B266_F103,
                0x4752_6757_130F_9F52,
                0x581C_E1FF_0E4A_E394,
                0x09BC_585A_2448_23F2
            ]
        );
        assert_eq!(
            draws(|r| r.f64().to_bits()),
            [
                0x3FC4_77F1_99D9_3378,
                0x3FD1_D499_D5C4_C3E6,
                0x3FD6_0738_7FC3_92B8,
                0x3FA3_78B0_B448_9040
            ]
        );
        assert_eq!(draws(SplitMix64::u16), [10_479, 18_258, 22_556, 2_492]);
        assert_eq!(draws(|r| r.index(1_000)), [291, 858, 764, 250]);
        assert_eq!(draws(|r| r.index(7)), [5, 0, 2, 6]);
    }

    #[test]
    fn from_state_skips_the_seed_whitening() {
        let mut seeded = SplitMix64::new(42);
        let mut raw = SplitMix64::from_state(42 ^ GOLDEN_GAMMA);
        assert_eq!(seeded.next_u64(), raw.next_u64());
        // Reference vector for raw state 0 (Vigna's splitmix64.c).
        assert_eq!(SplitMix64::from_state(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn f64_stays_in_the_unit_interval() {
        let mut r = SplitMix64::new(7);
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&r.f64())));
    }

    #[test]
    fn each_case_draws_from_its_own_seed_and_a_failure_stops_the_loop() {
        let mut firsts = Vec::new();
        for_each_case(4, |g| firsts.push(g.next_u64()));
        let want: Vec<u64> = (0..4).map(|i| SplitMix64::new(i).next_u64()).collect();
        assert_eq!(firsts, want);

        let mut ran = 0;
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_case(8, |_| {
                ran += 1;
                assert!(ran != 4, "boom");
            })
        }));
        assert!(failed.is_err());
        assert_eq!(ran, 4);
    }
}
