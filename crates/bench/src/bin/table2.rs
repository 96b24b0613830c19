//! Table 2: batch-insert throughput and abort ratio under hybrid workload
//! A during consolidation, per approach.
//!
//! Expected shape (paper §4.4.1): lock-and-abort aborts nearly all batch
//! attempts (97% in the paper); Squall aborts some (13%) when batches hit
//! migrated ranges on the source; Remus and wait-and-remaster abort none
//! and keep ingestion throughput steady.
//!
//! Usage: `cargo run --release -p remus-bench --bin table2 [--json <path>]`.

use remus_bench::{
    json_path_arg, print_table, run_hybrid_a, BenchReport, EngineKind, Scale, ScenarioReport,
    TableSection,
};

fn main() {
    let scale = Scale::from_args_or_env();
    println!("# Table 2 — batch insert throughput (tuples/s) under hybrid workload A");
    println!("# scale: {scale:?}");
    let mut report = BenchReport::new("table2", &format!("{scale:?}"));
    let mut rows = Vec::new();
    for kind in EngineKind::all() {
        let result = run_hybrid_a(kind, &scale);
        let batch = result.batch.as_ref().expect("hybrid A has a batch report");
        rows.push(vec![
            result.engine.to_string(),
            format!("{:.0}%", batch.abort_ratio * 100.0),
            format!(
                "{:.0}/{:.0}",
                result.batch_tps_during, result.batch_tps_before
            ),
            format!("{:.1}", batch.elapsed.as_secs_f64()),
        ]);
        report
            .scenarios
            .push(ScenarioReport::from_result("hybrid A", &result));
    }
    let table = TableSection::new(
        "batch ingestion during consolidation",
        &[
            "engine",
            "abort_ratio",
            "tuples_per_s during/before",
            "ingestion_s",
        ],
        rows,
    );
    print_table(&table);
    report.tables.push(table);
    if let Some(path) = json_path_arg() {
        report.write(&path).expect("writing JSON report failed");
    }
}
