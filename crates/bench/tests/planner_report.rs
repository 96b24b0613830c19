//! Golden-file coverage for the `bench_planner` artifact (PR 5
//! satellite), mirroring `report_schema.rs` for `bench_smoke`.
//!
//! The fixture is a real `bench_planner` run committed verbatim. If a
//! schema or table change breaks these tests, either fix the accidental
//! change or regenerate the fixture with `cargo run --release -p
//! remus-bench --bin bench_planner -- --json
//! crates/bench/tests/fixtures/bench_planner_golden.json` and update
//! the `planner recovery` rows of the gate table (`src/gate.rs`) if the
//! columns moved. That the fixture passes the table is `gate_table.rs`'s
//! job.

use remus_bench::report::{BenchReport, SCHEMA_NAME, SCHEMA_VERSION};
use remus_common::Json;

const GOLDEN: &str = include_str!("fixtures/bench_planner_golden.json");

#[test]
fn golden_fixture_parses_with_all_three_policies() {
    let report = BenchReport::parse(GOLDEN).expect("golden fixture must stay parseable");
    assert_eq!(report.title, "bench_planner");
    let names: Vec<&str> = report.scenarios.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        ["planner-autopilot", "planner-static", "planner-none"]
    );
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

/// The recovery table is what the gate table reads: every row must keep
/// its policy label, a parseable trailing `N.NNx` recovery cell, and a
/// parseable steady-throughput column.
#[test]
fn golden_recovery_table_stays_machine_readable() {
    let report = BenchReport::parse(GOLDEN).unwrap();
    let table = report
        .tables
        .iter()
        .find(|t| t.title == "planner recovery")
        .expect("planner recovery table");
    assert_eq!(
        table.headers,
        [
            "policy",
            "pre_tps",
            "react_tps",
            "steady_tps",
            "moves",
            "aborts",
            "recovery"
        ]
    );
    let labels: Vec<&str> = table
        .rows
        .iter()
        .map(|r| r.first().unwrap().as_str())
        .collect();
    assert_eq!(labels, ["autopilot", "static-plan", "no-migration"]);
    for row in &table.rows {
        row[3].parse::<f64>().expect("steady_tps parses");
        row.last()
            .unwrap()
            .strip_suffix('x')
            .expect("recovery cell ends in x")
            .parse::<f64>()
            .expect("recovery ratio parses");
    }
}

/// No gate covers this one: the committed autopilot leg migrated at least
/// once.
#[test]
fn golden_autopilot_run_recorded_a_move() {
    let report = BenchReport::parse(GOLDEN).unwrap();
    let auto = &report.scenarios[0];
    let moves: u64 = auto
        .counters
        .iter()
        .filter(|c| c.name == "planner.moves")
        .map(|c| c.value)
        .sum();
    assert!(moves >= 1, "golden autopilot run recorded no move");
}
