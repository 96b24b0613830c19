//! Golden-file and round-trip coverage for the bench JSON schema
//! (PR 2 satellite).
//!
//! The fixture is a real `bench_smoke` artifact committed verbatim. If a
//! schema change breaks these tests, either the change is accidental
//! (fix the code) or intentional (bump `SCHEMA_VERSION`, regenerate the
//! fixture with `cargo run -p remus-bench --bin bench_smoke`, and update
//! the gate table in `src/gate.rs` if the gated cells moved).

use remus_bench::report::{BenchReport, SCHEMA_NAME, SCHEMA_VERSION};
use remus_bench::EngineKind;
use remus_common::Json;
use remus_core::trace::expected_phases;

const GOLDEN: &str = include_str!("fixtures/bench_smoke_golden.json");

#[test]
fn golden_fixture_parses() {
    let report = BenchReport::parse(GOLDEN).expect("golden fixture must stay parseable");
    assert_eq!(report.title, "bench_smoke");
    // One `smoke` scenario per engine plus a `smoke-seq`/`smoke-par`
    // data-plane comparison pair per engine.
    assert_eq!(report.scenarios.len(), 12);
}

#[test]
fn golden_fixture_round_trips_losslessly() {
    let doc = Json::parse(GOLDEN).unwrap();
    let report = BenchReport::from_json(&doc).unwrap();
    // Re-serializing the parsed report reproduces the document exactly
    // (up to key order): no field is dropped, renamed, or reformatted.
    assert_eq!(report.to_json().normalized(), doc.normalized());
}

#[test]
fn golden_fixture_carries_the_schema_marker() {
    let doc = Json::parse(GOLDEN).unwrap();
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA_NAME));
    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(SCHEMA_VERSION)
    );
}

#[test]
fn golden_fixture_has_all_engines_with_canonical_phases() {
    let report = BenchReport::parse(GOLDEN).unwrap();
    let expected: Vec<&str> = EngineKind::all().iter().map(|k| k.name()).collect();
    for name in ["smoke", "smoke-seq", "smoke-par"] {
        let engines: Vec<&str> = report
            .scenarios
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.engine.as_str())
            .collect();
        assert_eq!(engines, expected, "{name}: engine coverage");
    }
    for scenario in &report.scenarios {
        assert_eq!(scenario.migration.traces.len(), 1, "{}", scenario.engine);
        let trace = &scenario.migration.traces[0];
        assert_eq!(
            trace.root_phases(),
            expected_phases(&scenario.engine).unwrap(),
            "{}: golden phase sequence",
            scenario.engine
        );
        // Spans nest: children reference an earlier span.
        for span in &trace.spans {
            if let Some(parent) = span.parent {
                assert!(
                    parent < span.id,
                    "{}: parent precedes child",
                    scenario.engine
                );
            }
        }
    }
}

#[test]
fn golden_fixture_parallel_runs_record_copy_chunks() {
    let report = BenchReport::parse(GOLDEN).unwrap();
    for scenario in report
        .scenarios
        .iter()
        .filter(|s| s.name == "smoke-par" && s.engine != "squall")
    {
        let chunks: u64 = scenario
            .counters
            .iter()
            .filter(|c| c.name == "migration.copy_chunks")
            .map(|c| c.value)
            .sum();
        assert!(
            chunks > 1,
            "{}: parallel run must copy multiple chunks, got {chunks}",
            scenario.engine
        );
    }
}

#[test]
fn golden_fixture_records_two_pc_hops() {
    let report = BenchReport::parse(GOLDEN).unwrap();
    for scenario in &report.scenarios {
        let hops: u64 = scenario
            .counters
            .iter()
            .filter(|c| c.name == "txn.2pc_hops")
            .map(|c| c.value)
            .sum();
        assert!(hops > 0, "{}: T_m must record 2PC hops", scenario.engine);
    }
}
