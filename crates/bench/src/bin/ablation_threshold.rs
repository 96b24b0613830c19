//! Ablation: the catch-up threshold (§3.4).
//!
//! The mode change starts "when the number of changes that have not been
//! applied on the destination drops below a threshold". A tiny threshold
//! postpones the barrier chasing a moving target; a huge one enters sync
//! mode with a backlog, stretching the mode-change phase while source
//! commits wait behind it. This ablation migrates a shard under write load
//! with different thresholds and reports where the time goes.
//!
//! Usage: `cargo run --release -p remus-bench --bin ablation_threshold [--scale <preset>] [--json <path>]`.

use std::time::Duration;

use remus_bench::{sim_config, Args, Bench, Leg, LegOutcome, Maintenance, Oracle, Rig, Scale};
use remus_common::{NodeId, ShardId, SimConfig};
use remus_core::MigrationTask;

/// Keys in the two-shard table.
const KEYS: u64 = 2_000;

fn run_with_threshold(leg: &Leg<usize>, scale: &Scale) -> LegOutcome {
    let config = SimConfig {
        catchup_threshold: leg.params,
        snapshot_copy_per_tuple: Duration::from_micros(300),
        ..sim_config(scale)
    };
    let rig = Rig::build(2, leg.engine, Oracle::Dts, config, Maintenance::Vacuum);
    let layout = rig.seed_table(2, |i| NodeId(i % 2), |_| 0..KEYS);
    // One closed-loop client with a 300 µs think time: steady update
    // pressure on the shard while it moves.
    let writer = rig.hot_writer(layout, (0..KEYS).collect(), Duration::from_micros(300));
    std::thread::sleep(Duration::from_millis(100));
    let report = rig.migrate(&[MigrationTask::single(ShardId(0), NodeId(0), NodeId(1))]);
    writer.stop();
    let ms = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
    LegOutcome {
        rows: vec![vec![
            ms(report.catchup_phase),
            ms(report.transfer_phase),
            ms(report.total),
        ]],
        ..LegOutcome::default()
    }
}

fn main() {
    let leg = |(row, threshold)| Leg::new("", row, threshold);
    let thresholds = [
        ("1", 1usize),
        ("16", 16),
        ("64", 64),
        ("1024", 1024),
        ("16384", 16384),
    ];
    let bench = Bench {
        table: "catch-up threshold vs phase durations",
        headers: &["threshold", "catchup_ms", "transfer_ms", "total_ms"],
        legs: thresholds.map(leg).into(),
        ..Bench::new(
            "ablation_threshold",
            "Ablation — catch-up threshold before the mode change (§3.4)",
        )
    };
    Args::from_process(&[]).run(bench, run_with_threshold);
}
