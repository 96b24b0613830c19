//! Table 2: batch-insert throughput and abort ratio under hybrid workload
//! A during consolidation, per approach.
//!
//! Expected shape (paper §4.4.1): lock-and-abort aborts nearly all batch
//! attempts (97% in the paper); Squall aborts some (13%) when batches hit
//! migrated ranges on the source; Remus and wait-and-remaster abort none
//! and keep ingestion throughput steady.
//!
//! Usage: `cargo run --release -p remus-bench --bin table2 [engine] [--scale <preset>] [--json <path>]`.

use remus_bench::{run_figure, Args, Bench, EngineKind, Figure, Leg, LegOutcome, Side};

fn main() {
    let scenario = Figure::HybridA.scenario();
    let leg = |engine: EngineKind| Leg::new(scenario, engine.name(), ()).engine(engine);
    let bench = Bench {
        table: "batch ingestion during consolidation",
        headers: &[
            "engine",
            "abort_ratio",
            "tuples_per_s during/before",
            "ingestion_s",
        ],
        legs: EngineKind::all().map(leg).into(),
        ..Bench::new(
            "table2",
            "Table 2 — batch insert throughput (tuples/s) under hybrid workload A",
        )
    };
    Args::from_process(&[]).run(bench, |leg, scale| {
        let (record, side) = run_figure(Figure::HybridA, leg.engine, scale);
        let Side::Batch { report, tps } = side else {
            panic!("hybrid A has a batch report, got {side:?}");
        };
        LegOutcome {
            scenarios: vec![record],
            rows: vec![vec![
                format!("{:.0}%", report.abort_ratio * 100.0),
                format!("{:.0}/{:.0}", tps.1, tps.0),
                format!("{:.1}", report.elapsed.as_secs_f64()),
            ]],
            measure: None,
        }
    });
}
