//! Arrival processes: when connections reach the LB.
//!
//! Table 3's cases are parameterized by connections-per-second (CPS), and
//! every generator draws Poisson arrivals at its rate. Arrivals are
//! absolute timestamps in nanoseconds, drawn deterministically from the
//! workspace RNG.

use crate::distr::{Distribution, Exp};
use hermes_metrics::NANOS_PER_SEC;

/// A connection arrival process.
#[derive(Clone, Debug)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate_per_sec`.
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
}

impl ArrivalProcess {
    /// Arrival timestamps in `[0, duration_ns)`, in order, each drawn from
    /// `rng` as it is asked for: a generator writes each one into the
    /// connection it starts and keeps no list of them. The draw that passes
    /// the horizon ends the stream.
    pub fn arrivals<'r>(
        &self,
        duration_ns: u64,
        rng: &'r mut crate::Rng,
    ) -> impl Iterator<Item = u64> + 'r {
        let ArrivalProcess::Poisson { rate_per_sec } = *self;
        assert!(rate_per_sec > 0.0, "rate must be positive");
        let inter = Exp::new(rate_per_sec / NANOS_PER_SEC as f64);
        let mut t = 0.0;
        std::iter::repeat_with(move || {
            t += inter.sample(rng);
            t
        })
        .take_while(move |&t| t < duration_ns as f64)
        .map(|t| t as u64)
    }

    /// Room for the arrivals over `duration_ns`: the mean count and four
    /// standard deviations of it, which a Poisson count passes about once
    /// in 30 000 draws.
    pub(crate) fn room_for(&self, duration_ns: u64) -> usize {
        let ArrivalProcess::Poisson { rate_per_sec } = *self;
        let mean = rate_per_sec * duration_ns as f64 / NANOS_PER_SEC as f64;
        (mean + 4.0 * mean.sqrt()).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_converges() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 1_000.0,
        };
        let mut rng = crate::rng(11);
        let arrivals: Vec<u64> = p.arrivals(20 * NANOS_PER_SEC, &mut rng).collect();
        let rate = arrivals.len() as f64 / 20.0;
        assert!((rate - 1_000.0).abs() < 30.0, "rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(*arrivals.last().unwrap() < 20 * NANOS_PER_SEC);
    }

    /// The stream's last draw is the one past the horizon, however often
    /// it is asked again: what a generator draws next does not depend on
    /// how it read the arrivals.
    #[test]
    fn an_ended_stream_draws_nothing_more() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 1_000.0,
        };
        let (mut a, mut b) = (crate::rng(12), crate::rng(12));
        let n = p.arrivals(NANOS_PER_SEC, &mut a).count();
        let mut stream = p.arrivals(NANOS_PER_SEC, &mut b);
        assert_eq!(stream.by_ref().count(), n);
        assert_eq!((stream.next(), stream.next()), (None, None));
        drop(stream);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn room_for_holds_the_arrivals_it_is_sized_for() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 1_000.0,
        };
        assert_eq!(p.room_for(0), 0);
        // 1 000 arrivals expected: 1 000 + 4 × √1 000.
        assert_eq!(p.room_for(NANOS_PER_SEC), 1_127);
        hermes_metrics::rng::for_each_case(200, |g| {
            assert!(p.arrivals(NANOS_PER_SEC, g).count() <= p.room_for(NANOS_PER_SEC));
        });
    }

    #[test]
    fn empty_window_yields_no_arrivals() {
        let p = ArrivalProcess::Poisson {
            rate_per_sec: 100.0,
        };
        let mut rng = crate::rng(16);
        assert_eq!(p.arrivals(0, &mut rng).count(), 0);
    }
}
