//! Proactive service degradation (Appendix C, exception case 1).
//!
//! When a worker hangs with established connections pinned to it, Hermes
//! cannot migrate those connections (worker↔core affinity), so it *resets
//! a subset* of them — the clients reconnect and land on healthy workers
//! via the ordinary Hermes dispatch. The simulator runs this policy when
//! [`SimConfig::degrade`](crate::SimConfig::degrade) is set.

use hermes_core::WorkerId;

/// Decision produced by the degradation policy for one worker.
#[derive(Clone, Debug, PartialEq)]
pub enum DegradeAction {
    /// Healthy: no action.
    None,
    /// Reset `count` of the worker's connections (TCP RST) so clients
    /// re-establish and get rescheduled to healthy workers.
    ResetConnections {
        /// Target worker.
        worker: WorkerId,
        /// How many connections to shed.
        count: usize,
    },
}

/// Tuning for the single-worker-hang degradation policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradeConfig {
    /// CPU utilization above which a worker is considered persistently
    /// overloaded (the paper acts "when a CPU core remains highly
    /// utilized").
    pub cpu_high_watermark: f64,
    /// Consecutive observation intervals the watermark must hold before
    /// acting (debounce: one busy loop is not a hang).
    pub sustain_intervals: u32,
    /// Fraction of the worker's connections to shed per action.
    pub shed_fraction: f64,
    /// Never shed below this many retained connections per action call.
    pub min_shed: usize,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        Self {
            cpu_high_watermark: 0.95,
            sustain_intervals: 3,
            shed_fraction: 0.25,
            min_shed: 1,
        }
    }
}

/// Per-worker degradation state machine.
#[derive(Clone, Debug)]
pub struct DegradeMonitor {
    config: DegradeConfig,
    /// Consecutive high-CPU observations per worker.
    hot_streak: Vec<u32>,
}

impl DegradeMonitor {
    /// Monitor for `workers` workers.
    pub fn new(workers: usize, config: DegradeConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.cpu_high_watermark),
            "watermark must be a utilization fraction"
        );
        assert!(
            (0.0..=1.0).contains(&config.shed_fraction),
            "shed fraction must be in [0,1]"
        );
        Self {
            config,
            hot_streak: vec![0; workers],
        }
    }

    /// Feed one observation interval: worker `w` ran at `cpu` utilization
    /// and currently holds `connections`. Returns the action to take now.
    pub fn observe(&mut self, w: WorkerId, cpu: f64, connections: usize) -> DegradeAction {
        if cpu >= self.config.cpu_high_watermark {
            self.hot_streak[w] += 1;
        } else {
            self.hot_streak[w] = 0;
        }
        if self.hot_streak[w] >= self.config.sustain_intervals && connections > 0 {
            // Act, then restart the debounce so shedding is paced.
            self.hot_streak[w] = 0;
            let count = ((connections as f64 * self.config.shed_fraction).ceil() as usize)
                .max(self.config.min_shed)
                .min(connections);
            DegradeAction::ResetConnections { worker: w, count }
        } else {
            DegradeAction::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_worker_never_degraded() {
        let mut m = DegradeMonitor::new(2, DegradeConfig::default());
        for _ in 0..100 {
            assert_eq!(m.observe(0, 0.5, 1_000), DegradeAction::None);
        }
    }

    #[test]
    fn sustained_overload_sheds_connections() {
        let mut m = DegradeMonitor::new(1, DegradeConfig::default());
        assert_eq!(m.observe(0, 0.99, 100), DegradeAction::None);
        assert_eq!(m.observe(0, 0.99, 100), DegradeAction::None);
        let act = m.observe(0, 0.99, 100);
        assert_eq!(
            act,
            DegradeAction::ResetConnections {
                worker: 0,
                count: 25
            }
        );
        // Debounce restarts after acting.
        assert_eq!(m.observe(0, 0.99, 75), DegradeAction::None);
    }

    #[test]
    fn streak_resets_on_recovery() {
        let mut m = DegradeMonitor::new(1, DegradeConfig::default());
        m.observe(0, 0.99, 10);
        m.observe(0, 0.99, 10);
        // Recovered: the debounce starts over, so two hot intervals pass
        // and the third acts.
        m.observe(0, 0.10, 10);
        assert_eq!(m.observe(0, 0.99, 10), DegradeAction::None);
        assert_eq!(m.observe(0, 0.99, 10), DegradeAction::None);
        assert_ne!(m.observe(0, 0.99, 10), DegradeAction::None);
    }

    #[test]
    fn shed_count_bounds() {
        let cfg = DegradeConfig {
            sustain_intervals: 1,
            shed_fraction: 0.5,
            min_shed: 3,
            ..DegradeConfig::default()
        };
        let mut m = DegradeMonitor::new(1, cfg);
        // min_shed floor applies to small pools but never exceeds the pool.
        assert_eq!(
            m.observe(0, 1.0, 2),
            DegradeAction::ResetConnections {
                worker: 0,
                count: 2
            }
        );
        assert_eq!(
            m.observe(0, 1.0, 100),
            DegradeAction::ResetConnections {
                worker: 0,
                count: 50
            }
        );
    }

    #[test]
    fn no_connections_means_no_action() {
        let cfg = DegradeConfig {
            sustain_intervals: 1,
            ..DegradeConfig::default()
        };
        let mut m = DegradeMonitor::new(1, cfg);
        assert_eq!(m.observe(0, 1.0, 0), DegradeAction::None);
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn rejects_bad_watermark() {
        DegradeMonitor::new(
            1,
            DegradeConfig {
                cpu_high_watermark: 1.5,
                ..DegradeConfig::default()
            },
        );
    }
}
