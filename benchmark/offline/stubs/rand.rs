//! Minimal rand stub for local typecheck/test runs: StdRng is a
//! deterministic splitmix64 with the rand 0.9-style RngExt surface the
//! workspace uses (random::<T>(), random_range(Range<usize>)).
pub mod rngs {
    #[derive(Clone, Debug)]
    pub struct StdRng {
        pub(crate) state: u64,
    }
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}
impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }
}

fn next_u64(r: &mut rngs::StdRng) -> u64 {
    r.state = r.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = r.state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub trait Draw {
    fn draw(r: &mut rngs::StdRng) -> Self;
}
impl Draw for f64 {
    fn draw(r: &mut rngs::StdRng) -> Self {
        (next_u64(r) >> 11) as f64 / (1u64 << 53) as f64
    }
}
impl Draw for f32 {
    fn draw(r: &mut rngs::StdRng) -> Self {
        (next_u64(r) >> 40) as f32 / (1u64 << 24) as f32
    }
}
impl Draw for u64 {
    fn draw(r: &mut rngs::StdRng) -> Self {
        next_u64(r)
    }
}
impl Draw for u32 {
    fn draw(r: &mut rngs::StdRng) -> Self {
        (next_u64(r) >> 32) as u32
    }
}
impl Draw for u16 {
    fn draw(r: &mut rngs::StdRng) -> Self {
        (next_u64(r) >> 48) as u16
    }
}
impl Draw for bool {
    fn draw(r: &mut rngs::StdRng) -> Self {
        next_u64(r) & 1 == 1
    }
}

pub trait RangeDraw {
    type Out;
    fn draw_in(self, r: &mut rngs::StdRng) -> Self::Out;
}
macro_rules! int_range {
    ($t:ty) => {
        impl RangeDraw for std::ops::Range<$t> {
            type Out = $t;
            fn draw_in(self, r: &mut rngs::StdRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (next_u64(r) % span) as $t
            }
        }
    };
}
int_range!(usize);
int_range!(u64);
int_range!(u32);
int_range!(u16);
impl RangeDraw for std::ops::Range<f64> {
    type Out = f64;
    fn draw_in(self, r: &mut rngs::StdRng) -> f64 {
        self.start + (self.end - self.start) * f64::draw(r)
    }
}

pub trait RngExt {
    fn random<T: Draw>(&mut self) -> T;
    fn random_range<R: RangeDraw>(&mut self, range: R) -> R::Out;
    fn random_bool(&mut self, p: f64) -> bool;
}
impl RngExt for rngs::StdRng {
    fn random<T: Draw>(&mut self) -> T {
        T::draw(self)
    }
    fn random_range<R: RangeDraw>(&mut self, range: R) -> R::Out {
        range.draw_in(self)
    }
    fn random_bool(&mut self, p: f64) -> bool {
        f64::draw(self) < p
    }
}
