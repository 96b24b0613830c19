//! Table 3: average latency increase caused by Remus vs lock-and-abort
//! across the four scenarios, plus the baseline transaction latency.
//!
//! Expected shape (paper §4.7): Remus adds a few milliseconds (the wait
//! for a synchronized transaction's own updates to be replayed);
//! lock-and-abort adds tens of milliseconds (blocked behind the whole
//! ownership-transfer phase, then retried).
//!
//! Usage: `cargo run --release -p remus-bench --bin table3 [--scale <preset>] [--json <path>]`.

use remus_bench::{run_figure, Args, Bench, EngineKind, Figure, Leg, LegOutcome};

fn main() {
    // One leg per workload: its row compares two runs, Remus and
    // lock-and-abort.
    let leg = |fig: Figure| Leg::new(fig.scenario(), fig.scenario(), fig);
    let bench = Bench {
        table: "average latency increase",
        headers: &[
            "workload",
            "remus_ms",
            "lock_and_abort_ms",
            "txn_latency_ms",
        ],
        legs: Figure::ALL.map(leg).into(),
        ..Bench::new("table3", "Table 3 — average latency increase (ms)")
    };
    Args::from_process(&[]).run(bench, |leg, scale| {
        let (remus, _) = run_figure(leg.params, EngineKind::Remus, scale);
        let (lock, _) = run_figure(leg.params, EngineKind::LockAbort, scale);
        let ms = |us: u64| format!("{:.2}", us as f64 / 1e3);
        LegOutcome {
            rows: vec![vec![
                ms(remus.latency_increase_us),
                ms(lock.latency_increase_us),
                ms(remus.base_latency_us),
            ]],
            scenarios: vec![remus, lock],
            measure: None,
        }
    });
}
