//! Golden-file coverage for the `bench_scale` artifact, mirroring
//! `replica_report.rs` for `bench_replica`.
//!
//! The fixture is a real `bench_scale --scale paper` run committed
//! verbatim (traces compacted to their root phases — the chunk spans of a
//! 10 M-tuple consolidation are megabytes of JSON). If a schema or table
//! change breaks these tests, either fix the accidental change or
//! regenerate the fixture with `cargo run --release -p remus-bench --bin
//! bench_scale -- --scale paper --json
//! crates/bench/tests/fixtures/bench_scale_golden.json` and update
//! the `open-loop scale` row of the gate table (`src/gate.rs`) if the
//! columns moved. That the fixture passes the table is `gate_table.rs`'s
//! job.

use remus_bench::report::{BenchReport, SCHEMA_NAME, SCHEMA_VERSION};
use remus_common::Json;

const GOLDEN: &str = include_str!("fixtures/bench_scale_golden.json");

#[test]
fn golden_fixture_parses_with_the_consolidation_scenario() {
    let report = BenchReport::parse(GOLDEN).expect("golden fixture must stay parseable");
    assert_eq!(report.title, "bench_scale");
    let names: Vec<&str> = report.scenarios.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["scale-consolidation"]);
    let scenario = &report.scenarios[0];
    assert!(
        !scenario.migration.traces.is_empty(),
        "the scale run carries no migration trace"
    );
    // The consolidation really ran at scale: node 0's full key share.
    assert!(
        scenario.migration.tuples_copied >= 1_000_000,
        "golden consolidation copied only {} tuples",
        scenario.migration.tuples_copied
    );
    assert!(scenario.commits > 0);
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

/// The scale table is what the gate table reads: the `open-loop` row
/// must keep its label, the paper-class dimensions, parseable load
/// columns, and a trailing `N.NNx` delivered/offered cell.
#[test]
fn golden_scale_table_stays_machine_readable() {
    let report = BenchReport::parse(GOLDEN).unwrap();
    let table = report
        .tables
        .iter()
        .find(|t| t.title == "open-loop scale")
        .expect("open-loop scale table");
    assert_eq!(
        table.headers,
        [
            "run",
            "keys",
            "clients",
            "workers",
            "offered_tps",
            "delivered_tps",
            "dropped",
            "co_p50_us",
            "co_p99_us",
            "delivered"
        ]
    );
    let row = table
        .rows
        .iter()
        .find(|r| r.first().map(String::as_str) == Some("open-loop"))
        .expect("open-loop row");
    let keys: u64 = row[1].parse().expect("keys parses");
    let clients: u64 = row[2].parse().expect("clients parses");
    let workers: u64 = row[3].parse().expect("workers parses");
    assert!(keys >= 10_000_000, "the scale gate promises ≥10M keys");
    assert!(clients >= 200, "≥200 logical clients");
    assert!(
        workers < clients,
        "clients must be multiplexed over a bounded pool"
    );
    row[4].parse::<f64>().expect("offered_tps parses");
    row[5].parse::<f64>().expect("delivered_tps parses");
    row.last()
        .unwrap()
        .strip_suffix('x')
        .expect("delivered cell ends in x")
        .parse::<f64>()
        .expect("delivered ratio parses");
}
