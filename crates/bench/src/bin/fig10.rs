//! Figure 10: throughput and node work ("CPU") under a high-contention
//! YCSB workload while Remus migrates the hot shard.
//!
//! Expected shape (paper §4.8): a throughput dip during snapshot copying
//! (the copy's snapshot pins vacuum, version chains grow on the hot
//! tuples), elevated source work during copy and propagation, destination
//! work during replay, and only a handful of WW conflicts between shadow
//! and destination transactions during dual execution.
//!
//! Usage: `cargo run --release -p remus-bench --bin fig10 [--json <path>]`.

use remus_bench::report::MigrationSummary;
use remus_bench::{
    json_path_arg, print_events, print_series, run_high_contention, BenchReport, Scale,
    ScenarioReport, TableSection,
};

fn main() {
    let scale = Scale::from_args_or_env();
    println!("# Figure 10 — high-contention YCSB, Remus migrating the hot shard");
    println!("# scale: {scale:?}");
    let result = run_high_contention(&scale);
    print_series("tps", &result.tps);
    print_events(&result.events);
    println!("# per-second node work (CPU stand-in) and max version chain");
    println!("t_s\tsrc_work\tdst_work\tmax_chain");
    for s in &result.samples {
        println!(
            "{:.0}\t{}\t{}\t{}",
            s.t, s.src_work, s.dst_work, s.max_chain
        );
    }
    println!(
        "summary\tww_aborts={}\tshadow_vs_dest_ww_conflicts={}\tcopy_s={:.2}\ttotal_s={:.2}",
        result.ww_aborts,
        result.shadow_conflicts,
        result.migration.snapshot_phase.as_secs_f64(),
        result.migration.total.as_secs_f64(),
    );
    if let Some(path) = json_path_arg() {
        let mut report = BenchReport::new("fig10", &format!("{scale:?}"));
        report.scenarios.push(ScenarioReport {
            name: "high contention".to_string(),
            engine: result.migration.engine.to_string(),
            ww_aborts: result.ww_aborts,
            tps: result.tps.clone(),
            events: result.events.clone(),
            migration: MigrationSummary::from_report(&result.migration),
            ..Default::default()
        });
        report.tables.push(TableSection::new(
            "node work and version chains",
            &["t_s", "src_work", "dst_work", "max_chain"],
            result
                .samples
                .iter()
                .map(|s| {
                    vec![
                        format!("{:.0}", s.t),
                        s.src_work.to_string(),
                        s.dst_work.to_string(),
                        s.max_chain.to_string(),
                    ]
                })
                .collect(),
        ));
        report.write(&path).expect("writing JSON report failed");
    }
}
