//! Figure 10: throughput and node work ("CPU") under a high-contention
//! YCSB workload while Remus migrates the hot shard.
//!
//! Expected shape (paper §4.8): a throughput dip during snapshot copying
//! (the copy's snapshot pins vacuum, version chains grow on the hot
//! tuples), elevated source work during copy and propagation, destination
//! work during replay, and only a handful of WW conflicts between shadow
//! and destination transactions during dual execution.
//!
//! Usage: `cargo run --release -p remus-bench --bin fig10 [--scale <preset>] [--json <path>]`.

use remus_bench::{print_events, print_series, run_high_contention, Args, Bench, Leg, LegOutcome};

fn main() {
    let bench = Bench {
        // Per-second node work (the CPU stand-in) and the hot shard's
        // longest version chain: a time series, one row per sample.
        table: "node work and version chains",
        headers: &["t_s", "src_work", "dst_work", "max_chain"],
        legs: vec![Leg::new("high contention", "", ())],
        ..Bench::new(
            "fig10",
            "Figure 10 — high-contention YCSB, Remus migrating the hot shard",
        )
    };
    Args::from_process(&[]).run(bench, |leg, scale| {
        let (record, samples) = run_high_contention(leg.scenario, scale);
        print_series("tps", &record.tps);
        print_events(&record.events);
        println!(
            "summary\tww_aborts={}\tshadow_vs_dest_ww_conflicts={}\tcopy_s={:.2}\ttotal_s={:.2}",
            record.ww_aborts,
            record.migration.validation_conflicts,
            record.migration.snapshot_us as f64 / 1e6,
            record.migration.total_us as f64 / 1e6,
        );
        LegOutcome {
            scenarios: vec![record],
            rows: samples,
            measure: None,
        }
    });
}
