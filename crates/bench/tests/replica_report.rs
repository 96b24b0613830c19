//! Golden-file coverage for the `bench_replica` artifact, mirroring
//! `planner_report.rs` for `bench_planner`.
//!
//! The fixture is a real `bench_replica` run committed verbatim. If a
//! schema or table change breaks these tests, either fix the accidental
//! change or regenerate the fixture with `cargo run --release -p
//! remus-bench --bin bench_replica -- --json
//! crates/bench/tests/fixtures/bench_replica_golden.json` and update
//! the `replica read scaling` rows of the gate table (`src/gate.rs`) if
//! the columns moved. That the fixture passes the table is
//! `gate_table.rs`'s job.

use remus_bench::report::{BenchReport, SCHEMA_NAME, SCHEMA_VERSION};
use remus_common::Json;

const GOLDEN: &str = include_str!("fixtures/bench_replica_golden.json");

#[test]
fn golden_fixture_parses_with_all_three_legs() {
    let report = BenchReport::parse(GOLDEN).expect("golden fixture must stay parseable");
    assert_eq!(report.title, "bench_replica");
    let names: Vec<&str> = report.scenarios.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["replica-0", "replica-1", "replica-2"]);
    // Every leg rode through a real migration: the committed span trees
    // are what bench_check's phase-sequence gate diffs.
    for scenario in &report.scenarios {
        assert!(
            !scenario.migration.traces.is_empty(),
            "{} carries no migration trace",
            scenario.name
        );
    }
}

#[test]
fn golden_fixture_round_trips_losslessly() {
    let doc = Json::parse(GOLDEN).unwrap();
    let report = BenchReport::from_json(&doc).unwrap();
    assert_eq!(report.to_json().normalized(), doc.normalized());
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA_NAME));
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
}

/// The scaling table is what the gate table reads: every row must keep
/// its leg label, a parseable read-throughput column, and a trailing
/// `N.NNx` scaling cell.
#[test]
fn golden_scaling_table_stays_machine_readable() {
    let report = BenchReport::parse(GOLDEN).unwrap();
    let table = report
        .tables
        .iter()
        .find(|t| t.title == "replica read scaling")
        .expect("replica read scaling table");
    assert_eq!(
        table.headers,
        [
            "leg",
            "replicas",
            "read_tps",
            "writer_tps",
            "mean_read_txn_us",
            "scaling"
        ]
    );
    let labels: Vec<&str> = table
        .rows
        .iter()
        .map(|r| r.first().unwrap().as_str())
        .collect();
    assert_eq!(labels, ["no-replica", "1-replica", "2-replica"]);
    for row in &table.rows {
        row[2].parse::<f64>().expect("read_tps parses");
        row.last()
            .unwrap()
            .strip_suffix('x')
            .expect("scaling cell ends in x")
            .parse::<f64>()
            .expect("scaling ratio parses");
    }
}
