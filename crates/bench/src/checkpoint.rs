//! Analytical checkpoint/rollback comparator (paper §5).
//!
//! The paper argues qualitatively that checkpoint-based fault tolerance
//! (ReVive, SafetyNet) pays overhead in the fault-free case while FtDirCMP
//! does not. This module makes that comparison quantitative with the
//! classic Young/Daly model of checkpoint-restart systems:
//!
//! * a checkpoint costs `checkpoint_cost` cycles (flushing dirty state) and
//!   is taken every `interval` cycles;
//! * a fault detected `detection_latency` cycles after it happens rolls the
//!   machine back to the last checkpoint, losing on average half an
//!   interval of work plus the detection latency and a restore cost.
//!
//! Expected relative execution time:
//!
//! ```text
//! T/T0 = 1 + cost/interval + rate * (interval/2 + detection + restore)
//! ```
//!
//! minimized at the Young interval `sqrt(2 * cost / rate)`. The
//! `ext_checkpoint_comparison` experiment evaluates this at the optimum for
//! the fault rates of Figure 3 and puts it next to FtDirCMP's *measured*
//! overhead.

/// Parameters of the checkpoint/rollback machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointModel {
    /// Cycles to take one checkpoint (flush dirty lines, quiesce).
    pub checkpoint_cost: f64,
    /// Cycles from fault occurrence to detection (rollback distance adds
    /// this on top of the lost interval fraction).
    pub detection_latency: f64,
    /// Cycles to restore the last checkpoint after detection.
    pub restore_cost: f64,
}

impl Default for CheckpointModel {
    fn default() -> Self {
        // Flushing a few hundred dirty lines through 4 memory controllers
        // at 160 cycles each, pipelined: order 10k cycles. Detection via
        // timeouts comparable to FtDirCMP's. Restore ≈ checkpoint.
        CheckpointModel {
            checkpoint_cost: 10_000.0,
            detection_latency: 3_000.0,
            restore_cost: 10_000.0,
        }
    }
}

impl CheckpointModel {
    /// Expected relative execution time for a given checkpoint `interval`
    /// (cycles) and `fault_rate` (faults per cycle).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive.
    pub(crate) fn relative_time(&self, interval: f64, fault_rate: f64) -> f64 {
        assert!(interval > 0.0, "interval must be positive");
        1.0 + self.checkpoint_cost / interval
            + fault_rate * (interval / 2.0 + self.detection_latency + self.restore_cost)
    }

    /// The Young-optimal checkpoint interval for `fault_rate` (faults per
    /// cycle); unbounded (no checkpoints pay off) when the rate is zero.
    pub(crate) fn optimal_interval(&self, fault_rate: f64) -> f64 {
        if fault_rate <= 0.0 {
            f64::INFINITY
        } else {
            (2.0 * self.checkpoint_cost / fault_rate).sqrt()
        }
    }

    /// Expected relative execution time at the optimal interval.
    pub fn optimal_relative_time(&self, fault_rate: f64) -> f64 {
        if fault_rate <= 0.0 {
            // No faults: the rational choice is to never checkpoint…
            // except a real deployment cannot know that, so report the
            // cost at a "safe" long interval of 10x the checkpoint cost.
            return self.relative_time(10.0 * self.checkpoint_cost.max(1.0), 0.0);
        }
        self.relative_time(self.optimal_interval(fault_rate), fault_rate)
    }
}

/// Converts a Figure 3 fault rate (lost messages per million) into faults
/// per cycle, given a run's observed message throughput.
pub fn rate_per_cycle(lost_per_million: f64, messages: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        return 0.0;
    }
    let msgs_per_cycle = messages as f64 / cycles as f64;
    (lost_per_million / 1_000_000.0) * msgs_per_cycle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_overhead_is_pure_checkpoint_cost() {
        let m = CheckpointModel::default();
        let t = m.relative_time(100_000.0, 0.0);
        assert!((t - 1.1).abs() < 1e-9, "10k/100k = 10% overhead, got {t}");
    }

    #[test]
    fn optimal_interval_follows_young_formula() {
        let m = CheckpointModel {
            checkpoint_cost: 8.0,
            detection_latency: 0.0,
            restore_cost: 0.0,
        };
        let rate = 1e-6;
        let opt = m.optimal_interval(rate);
        assert!((opt - (16.0f64 / 1e-6).sqrt()).abs() < 1e-6);
        // The optimum beats nearby intervals.
        let best = m.relative_time(opt, rate);
        assert!(best <= m.relative_time(opt * 0.5, rate));
        assert!(best <= m.relative_time(opt * 2.0, rate));
    }

    #[test]
    fn overhead_grows_with_fault_rate() {
        let m = CheckpointModel::default();
        let lo = m.optimal_relative_time(1e-8);
        let hi = m.optimal_relative_time(1e-5);
        assert!(hi > lo && lo > 1.0);
    }

    #[test]
    fn zero_rate_has_finite_safe_interval_cost() {
        let m = CheckpointModel::default();
        let t = m.optimal_relative_time(0.0);
        // Safe interval = 10x the cost => exactly 10% residual overhead.
        assert!(
            (t - 1.1).abs() < 1e-9,
            "long-interval residual cost, got {t}"
        );
    }

    #[test]
    fn rate_conversion() {
        // 1000 lost/M at 0.5 messages per cycle = 5e-4 lost per 1e3 cycles.
        let r = rate_per_cycle(1000.0, 50_000, 100_000);
        assert!((r - 0.0005).abs() < 1e-12);
        assert_eq!(rate_per_cycle(1000.0, 1, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        CheckpointModel::default().relative_time(0.0, 1e-6);
    }
}
