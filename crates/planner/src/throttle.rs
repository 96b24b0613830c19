//! Foreground-latency backpressure for the autopilot.

use std::time::Duration;

use remus_common::metrics::{HistogramWindow, LatencyStat};

/// How many empty windows in a row count as recovered. An empty window
/// says nothing about the foreground: a starved or stalled foreground
/// records nothing either, and letting one empty window release the pause
/// let a migration start in the middle of a spike.
const EMPTY_WINDOWS_TO_RECOVER: u32 = 25;

/// Gates migration execution on the foreground commit p99.
///
/// Each [`over_budget`](LatencyThrottle::over_budget) call closes one
/// observation window over the latency histogram (via
/// [`HistogramWindow`]), so the verdict reflects only samples recorded
/// since the previous check — a latency spike ages out of the signal as
/// soon as one healthy window passes, which is what lets a paused plan
/// resume promptly after recovery. An empty window keeps the last verdict
/// until 25 windows in a row have been empty.
#[derive(Debug)]
pub struct LatencyThrottle {
    budget: Duration,
    window: HistogramWindow,
    /// The last verdict, and the empty windows closed since it.
    over: bool,
    empty: u32,
}

impl LatencyThrottle {
    /// A throttle with the given p99 budget. `Duration::ZERO` disables it.
    pub fn new(budget: Duration) -> Self {
        LatencyThrottle {
            budget,
            window: HistogramWindow::new(),
            over: false,
            empty: 0,
        }
    }

    /// Closes the current window and reports whether its p99 exceeded the
    /// budget. An empty window (no foreground commits since the last
    /// check) keeps the last verdict, unless it is the 25th empty one in a
    /// row.
    pub fn over_budget(&mut self, stat: &LatencyStat) -> bool {
        if self.budget.is_zero() {
            return false;
        }
        match self.window.percentile_since(&stat.bucket_counts(), 0.99) {
            Some(p99) => (self.over, self.empty) = (p99 > self.budget, 0),
            None => {
                self.empty += 1;
                self.over &= self.empty < EMPTY_WINDOWS_TO_RECOVER;
            }
        }
        self.over
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
        // No new samples: empty windows keep the verdict until enough of
        // them in a row count as recovered. The lifetime histogram still
        // holds the spike — only the windows matter.
        for _ in 1..EMPTY_WINDOWS_TO_RECOVER {
            assert!(t.over_budget(&stat));
        }
        assert!(!t.over_budget(&stat));
        // A healthy window stays under budget.
        for _ in 0..32 {
            stat.record(Duration::from_micros(100));
        }
        assert!(!t.over_budget(&stat));
    }

    #[test]
    fn an_empty_window_after_a_spike_does_not_release_the_pause() {
        let stat = LatencyStat::new();
        let mut t = LatencyThrottle::new(Duration::from_millis(1));
        for _ in 0..32 {
            stat.record(Duration::from_millis(50));
        }
        assert!(t.over_budget(&stat));
        assert!(t.over_budget(&stat), "one empty window released the pause");
        // A healthy window releases it at once, and an empty one after it
        // keeps it released.
        stat.record(Duration::from_micros(100));
        assert!(!t.over_budget(&stat));
        assert!(!t.over_budget(&stat));
    }
}
