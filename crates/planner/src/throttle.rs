//! Foreground-latency backpressure for the autopilot.

use std::time::Duration;

use remus_common::metrics::{HistogramWindow, LatencyStat};

/// Gates migration execution on the foreground commit p99.
///
/// Each [`over_budget`](LatencyThrottle::over_budget) call closes one
/// observation window over the latency histogram (via
/// [`HistogramWindow`]), so the verdict reflects only samples recorded
/// since the previous check — a latency spike ages out of the signal as
/// soon as one clean window passes, which is what lets a paused plan
/// resume promptly after recovery.
#[derive(Debug)]
pub struct LatencyThrottle {
    budget: Duration,
    window: HistogramWindow,
}

impl LatencyThrottle {
    /// A throttle with the given p99 budget. `Duration::ZERO` disables it.
    pub fn new(budget: Duration) -> Self {
        LatencyThrottle {
            budget,
            window: HistogramWindow::new(),
        }
    }

    /// Whether the throttle is active at all.
    pub fn enabled(&self) -> bool {
        !self.budget.is_zero()
    }

    /// Closes the current window and reports whether its p99 exceeded the
    /// budget. An empty window (no foreground commits since the last
    /// check) counts as recovered.
    pub fn over_budget(&mut self, stat: &LatencyStat) -> bool {
        if !self.enabled() {
            return false;
        }
        match self.window.percentile_since(&stat.bucket_counts(), 0.99) {
            Some(p99) => p99 > self.budget,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_disables_the_throttle() {
        let stat = LatencyStat::new();
        stat.record(Duration::from_secs(10));
        let mut t = LatencyThrottle::new(Duration::ZERO);
        assert!(!t.enabled());
        assert!(!t.over_budget(&stat));
    }

    #[test]
    fn spike_trips_and_recovery_clears() {
        let stat = LatencyStat::new();
        let mut t = LatencyThrottle::new(Duration::from_millis(1));
        for _ in 0..32 {
            stat.record(Duration::from_millis(50));
        }
        assert!(t.over_budget(&stat), "fat window trips the throttle");
        // No new samples: the next window is empty, i.e. recovered. The
        // lifetime histogram still holds the spike — only the window
        // matters.
        assert!(!t.over_budget(&stat));
        // A healthy window stays under budget.
        for _ in 0..32 {
            stat.record(Duration::from_micros(100));
        }
        assert!(!t.over_budget(&stat));
    }
}
