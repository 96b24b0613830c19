//! One golden contract, seven inputs: every committed fixture is a real
//! run of its bin committed verbatim, and is held here to the description
//! that bin runs from — the files under `src/bin/` are compiled into this
//! test, so a bin cannot drift from its golden without this going red.
//!
//! If a change breaks it, either the change is accidental (fix the code)
//! or intentional: regenerate the fixture with the command in the bin's
//! header (`bench_scale` at `--scale paper`), bump `SCHEMA_VERSION` if the
//! layout moved, and update the rows of the gate table (`src/gate.rs`)
//! that read the table. That the fixtures pass the gate table is
//! `gate_table.rs`'s job.

use remus_bench::report::{BenchReport, SCHEMA_NAME, SCHEMA_VERSION};
use remus_bench::Bench;
use remus_common::Json;
use remus_core::trace::expected_phases;

#[allow(dead_code)]
#[path = "../src/bin/bench_foreground.rs"]
mod bench_foreground;
#[allow(dead_code)]
#[path = "../src/bin/bench_planner.rs"]
mod bench_planner;
#[allow(dead_code)]
#[path = "../src/bin/bench_replica.rs"]
mod bench_replica;
#[allow(dead_code)]
#[path = "../src/bin/bench_scale.rs"]
mod bench_scale;
#[allow(dead_code)]
#[path = "../src/bin/bench_smoke.rs"]
mod bench_smoke;
#[allow(dead_code)]
#[path = "../src/bin/bench_ssi.rs"]
mod bench_ssi;

/// What the contract reads of a description, with the leg parameters
/// erased.
struct Described {
    title: &'static str,
    scale_label: &'static str,
    table: &'static str,
    headers: &'static [&'static str],
    /// `(scenario, engine, row label)` per leg.
    legs: Vec<(&'static str, &'static str, &'static str)>,
}

fn described<P>(bench: Bench<P>) -> Described {
    let legs = bench.legs.iter();
    Described {
        title: bench.title,
        scale_label: bench
            .scale_label
            .expect("a golden-ed bench has a fixed label"),
        table: bench.table,
        headers: bench.headers,
        legs: legs.map(|l| (l.scenario, l.engine.name(), l.row)).collect(),
    }
}

fn fixtures() -> [(&'static str, Described); 7] {
    [
        (
            include_str!("fixtures/bench_foreground_golden.json"),
            described(bench_foreground::bench()),
        ),
        (
            include_str!("fixtures/bench_planner_golden.json"),
            described(bench_planner::hotspot()),
        ),
        (
            include_str!("fixtures/bench_planner_readskew_golden.json"),
            described(bench_planner::read_skew()),
        ),
        (
            include_str!("fixtures/bench_replica_golden.json"),
            described(bench_replica::bench()),
        ),
        (
            include_str!("fixtures/bench_scale_golden.json"),
            described(bench_scale::bench()),
        ),
        (
            include_str!("fixtures/bench_smoke_golden.json"),
            described(bench_smoke::bench()),
        ),
        (
            include_str!("fixtures/bench_ssi_golden.json"),
            described(bench_ssi::bench()),
        ),
    ]
}

fn golden(title: &str, scale_label: &str) -> BenchReport {
    let mut found = fixtures().into_iter().filter_map(|(text, bench)| {
        let wanted = bench.title == title && bench.scale_label == scale_label;
        wanted.then(|| BenchReport::parse(text).expect("golden fixture must stay parseable"))
    });
    found.next().expect("no such fixture")
}

#[test]
fn every_golden_is_what_its_bench_describes() {
    for (text, bench) in fixtures() {
        let name = format!("{} ({})", bench.title, bench.scale_label);
        // Parse, schema marker, and a lossless round trip: re-serializing
        // the parsed report reproduces the document exactly (up to key
        // order) — no field is dropped, renamed, or reformatted.
        let doc = Json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = BenchReport::from_json(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA_NAME));
        let version = doc.get("schema_version").and_then(Json::as_u64);
        assert_eq!(version, Some(SCHEMA_VERSION), "{name}");
        assert_eq!(report.to_json().normalized(), doc.normalized(), "{name}");

        // The description: title, scale label, one scenario per leg.
        assert_eq!(report.title, bench.title, "{name}");
        assert_eq!(report.scale, bench.scale_label, "{name}");
        let scenarios = report.scenarios.iter();
        let scenarios: Vec<_> = scenarios
            .map(|s| (s.name.as_str(), s.engine.as_str()))
            .collect();
        let legs: Vec<_> = bench.legs.iter().map(|&(s, e, _)| (s, e)).collect();
        assert_eq!(scenarios, legs, "{name}: scenarios");

        // The table: title, headers, one labelled row per leg, and — what
        // the gate table reads — a trailing ratio cell that parses.
        if bench.headers.is_empty() {
            assert!(report.tables.is_empty(), "{name}: unexpected table");
            continue;
        }
        let [table] = &report.tables[..] else {
            panic!("{name}: expected one table, got {}", report.tables.len());
        };
        assert_eq!(table.title, bench.table, "{name}");
        assert_eq!(table.headers, bench.headers, "{name}");
        let labels: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        let rows: Vec<&str> = bench.legs.iter().map(|&(_, _, row)| row).collect();
        assert_eq!(labels, rows, "{name}: row labels");
        for row in &table.rows {
            assert_eq!(row.len(), table.headers.len(), "{name}: {row:?}");
            let ratio = row.last().and_then(|c| c.strip_suffix('x'));
            let ratio = ratio.and_then(|r| r.parse::<f64>().ok());
            assert!(ratio.is_some(), "{name}: {row:?} ends in no ratio");
        }
    }
}

/// No gate covers this one: the committed autopilot leg migrated at least
/// once, and every row's steady throughput — the quotient gate's column —
/// parses.
#[test]
fn planner_golden_recorded_a_move() {
    let report = golden("bench_planner", "hotspot-shift");
    let moves = report.scenarios[0].counter_sum("planner.moves");
    assert!(moves >= 1, "golden autopilot run recorded no move");
    for row in &report.tables[0].rows {
        row[3].parse::<f64>().expect("steady_tps parses");
    }
}

/// Every replica leg rode through a real migration: the committed span
/// trees are what bench_check's phase-sequence check compares.
#[test]
fn replica_golden_carries_a_trace_per_leg() {
    let report = golden("bench_replica", "read-scaling");
    for scenario in &report.scenarios {
        let traced = !scenario.migration.traces.is_empty();
        assert!(traced, "{} carries no migration trace", scenario.name);
    }
    for row in &report.tables[0].rows {
        row[2].parse::<f64>().expect("read_tps parses");
    }
}

/// The scale golden is a `--scale paper` run (traces compacted to their
/// root phases — the chunk spans of a 10 M-tuple consolidation are
/// megabytes of JSON): the consolidation really ran at scale, and the
/// `open-loop` row keeps the paper-class dimensions and parseable load
/// columns.
#[test]
fn scale_golden_is_paper_class() {
    let report = golden("bench_scale", "open-loop-scale");
    let scenario = &report.scenarios[0];
    assert!(
        !scenario.migration.traces.is_empty(),
        "the scale run carries no migration trace"
    );
    // Node 0's full key share.
    assert!(
        scenario.migration.tuples_copied >= 1_000_000,
        "golden consolidation copied only {} tuples",
        scenario.migration.tuples_copied
    );
    assert!(scenario.commits > 0);
    let row = &report.tables[0].rows[0];
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
}

/// The smoke golden: every scenario carries one trace in its engine's
/// canonical phase order with parents before children, the parallel push
/// legs copied several chunks, and every `T_m` recorded its 2PC hops.
#[test]
fn smoke_golden_has_canonical_traces() {
    let report = golden("bench_smoke", "smoke");
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
        let hops = scenario.counter_sum("txn.2pc_hops");
        assert!(hops > 0, "{}: T_m must record 2PC hops", scenario.engine);
        if scenario.name == "smoke-par" && scenario.engine != "squall" {
            let chunks = scenario.counter_sum("migration.copy_chunks");
            assert!(
                chunks > 1,
                "{}: parallel run must copy multiple chunks, got {chunks}",
                scenario.engine
            );
        }
    }
}
