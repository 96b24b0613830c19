//! The gate table and the pairwise comparison against the committed
//! goldens: every fixture passes [`GATES`], in-memory mutations of a parsed
//! golden trip the tier they should, every row of the table resolves in
//! some fixture, and [`compare`] sees what `bench_check` must see.

use remus_bench::gate::{compare, evaluate, GateTier, GateValue, GATES};
use remus_bench::{BenchReport, TableSection};

const GOLDENS: [(&str, &str); 7] = [
    (
        "foreground",
        include_str!("fixtures/bench_foreground_golden.json"),
    ),
    (
        "planner",
        include_str!("fixtures/bench_planner_golden.json"),
    ),
    (
        "planner_readskew",
        include_str!("fixtures/bench_planner_readskew_golden.json"),
    ),
    (
        "replica",
        include_str!("fixtures/bench_replica_golden.json"),
    ),
    ("scale", include_str!("fixtures/bench_scale_golden.json")),
    ("smoke", include_str!("fixtures/bench_smoke_golden.json")),
    ("ssi", include_str!("fixtures/bench_ssi_golden.json")),
];

fn golden(name: &str) -> BenchReport {
    let text = GOLDENS.iter().find(|(n, _)| *n == name).expect("golden").1;
    BenchReport::parse(text).expect("golden fixture must stay parseable")
}

#[test]
fn every_golden_passes_the_gate_table() {
    for (name, _) in GOLDENS {
        for finding in evaluate(&golden(name)) {
            assert_ne!(finding.tier, GateTier::Fail, "{name}: {}", finding.message);
        }
    }
    assert!(
        evaluate(&golden("smoke")).is_empty(),
        "a report with no gated table has nothing to find"
    );
}

/// How a case edits a parsed golden.
enum Edit {
    /// Overwrite the first table's cell of `row` in the column headed
    /// `column`.
    Cell {
        row: &'static str,
        column: &'static str,
        to: &'static str,
    },
    /// Delete `row` from the first table.
    DropRow(&'static str),
    /// Set every sample of `scenario`'s counter `name` (one per node, two
    /// nodes) to `to`.
    Counter {
        scenario: &'static str,
        name: &'static str,
        to: u64,
    },
}

#[test]
fn mutated_goldens_trip_the_right_tier() {
    use Edit::*;
    // (golden, edit, the tier the edited row must land in, what its
    // message must name)
    let cases: [(&str, Edit, GateTier, &[&str]); 8] = [
        // A mangled cell must never pass silently.
        (
            "replica",
            Cell {
                row: "2-replica",
                column: "scaling",
                to: "fastx",
            },
            GateTier::Fail,
            &["replica read scaling", "2-replica", "parse"],
        ),
        (
            "replica",
            DropRow("2-replica"),
            GateTier::Fail,
            &["replica read scaling", "2-replica", "no such row"],
        ),
        // The file-backed leg is gated on appends per fsync, not on its
        // wall-clock cell: the golden's 132250 appends over 2 x 40000 fsyncs
        // is under the floor, over 2 x 20000 between floor and expected, and
        // a durable leg that never synced is a violation of its own.
        (
            "foreground",
            Counter {
                scenario: "foreground-walfile-optimized",
                name: "wal.fsyncs",
                to: 40_000,
            },
            GateTier::Fail,
            &[
                "foreground-walfile-optimized",
                "wal.appends/wal.fsyncs",
                "1.65x",
                "floor 2x",
            ],
        ),
        (
            "foreground",
            Counter {
                scenario: "foreground-walfile-optimized",
                name: "wal.fsyncs",
                to: 20_000,
            },
            GateTier::Warn,
            &[
                "foreground-walfile-optimized",
                "wal.appends/wal.fsyncs",
                "3.31x",
                "5x",
            ],
        ),
        (
            "foreground",
            Counter {
                scenario: "foreground-walfile-optimized",
                name: "wal.fsyncs",
                to: 0,
            },
            GateTier::Fail,
            &[
                "foreground-walfile-optimized",
                "wal.fsyncs is 0",
                "wal.appends 132250",
            ],
        ),
        (
            "replica",
            Cell {
                row: "2-replica",
                column: "scaling",
                to: "0.39x",
            },
            GateTier::Fail,
            &["replica read scaling", "2-replica", "0.39x", "floor 0.4x"],
        ),
        // A quotient gate reads two rows of one column.
        (
            "planner",
            Cell {
                row: "no-migration",
                column: "steady_tps",
                to: "179123",
            },
            GateTier::Fail,
            &[
                "planner recovery",
                "autopilot/no-migration steady_tps",
                "1.00x",
                "floor 1.1x",
            ],
        ),
        (
            "planner_readskew",
            Cell {
                row: "forced-migrate",
                column: "recovery",
                to: "1.40x",
            },
            GateTier::Warn,
            &[
                "replicate recovery",
                "replicate/forced-migrate recovery",
                "1.10x",
            ],
        ),
    ];
    for (name, edit, tier, needles) in cases {
        let mut report = golden(name);
        let before = evaluate(&report);
        let table = &mut report.tables[0];
        match edit {
            Cell { row, column, to } => {
                let col = table.headers.iter().position(|h| h == column).unwrap();
                let row = table.rows.iter_mut().find(|r| r[0] == row).unwrap();
                row[col] = to.to_string();
            }
            DropRow(row) => table.rows.retain(|r| r[0] != row),
            Counter { scenario, name, to } => {
                let mut scenarios = report.scenarios.iter_mut();
                let scenario = scenarios.find(|s| s.name == scenario).unwrap();
                let samples = scenario.counters.iter_mut().filter(|c| c.name == name);
                samples.for_each(|c| c.value = to);
            }
        }
        let new: Vec<_> = evaluate(&report)
            .into_iter()
            .filter(|f| !before.contains(f))
            .collect();
        if tier == GateTier::Pass {
            assert!(new.is_empty(), "{name}: unexpected {new:?}");
            continue;
        }
        let [finding] = &new[..] else {
            panic!("{name}: expected one new finding, got {new:?}");
        };
        assert_eq!(finding.tier, tier, "{name}: {}", finding.message);
        for needle in needles {
            assert!(
                finding.message.contains(needle),
                "{name}: {:?} does not name {needle:?}",
                finding.message
            );
        }
    }
}

#[test]
fn gate_rows_are_ordered_and_resolve_in_a_golden() {
    let reports: Vec<BenchReport> = GOLDENS.iter().map(|(n, _)| golden(n)).collect();
    for gate in GATES {
        assert!(
            gate.floor <= gate.expected,
            "{} / {}: floor above expected",
            gate.table,
            gate.value
        );
        let table = reports
            .iter()
            .flat_map(|r| &r.tables)
            .find(|t| t.title == gate.table)
            .unwrap_or_else(|| panic!("no golden carries table {:?}", gate.table));
        for row in gate.value.rows() {
            assert!(
                table.rows.iter().any(|r| r[0] == row),
                "{}: golden has no row {row:?}",
                gate.table
            );
        }
        if let GateValue::Counters { scenario, num, den } = gate.value {
            let mut scenarios = reports.iter().flat_map(|r| &r.scenarios);
            let found = scenarios.find(|s| s.name == scenario);
            let found = found.unwrap_or_else(|| panic!("no golden carries scenario {scenario:?}"));
            assert!(found.counter_sum(num) > 0 && found.counter_sum(den) > 0);
        }
    }
}

/// `bench_check` as a library function: one row per pair of reports and
/// what the comparison must say about it (nothing, for `&[]`).
#[test]
fn compared_reports_differ_where_they_should() {
    type Mutation = fn(&mut BenchReport);
    let table_only = |title: &str, table: &str, headers: &[&str], labels: &[&str]| BenchReport {
        title: title.to_string(),
        tables: vec![TableSection::new(
            table,
            headers,
            labels.iter().map(|l| vec![l.to_string()]).collect(),
        )],
        ..BenchReport::default()
    };
    // Two table-only reports of different bins: what `bench_check
    // ablation_group.json ablation_oracle.json` is given.
    let group = table_only("ablation_group", "group size", &["group"], &["1", "2"]);
    let oracle = table_only("ablation_oracle", "timestamp scheme", &["oracle"], &["dts"]);
    // Fig. 10's shape: a time series, whose row count follows the run.
    let series = |rows: &[&str]| table_only("fig10", "node work", &["t_s", "src_work"], rows);
    let edited = |name: &str, edit: Mutation| {
        let mut report = golden(name);
        edit(&mut report);
        report
    };
    let cases: Vec<(&str, BenchReport, BenchReport, &[&str])> = vec![
        (
            "two bins",
            golden("planner"),
            golden("replica"),
            &["report titles", "bench_planner", "bench_replica"],
        ),
        (
            "two table-only bins",
            group.clone(),
            oracle,
            &["report titles", "ablation_group", "ablation_oracle"],
        ),
        (
            "table titles in order",
            group.clone(),
            edited("foreground", |r| r.title = "ablation_group".to_string()),
            &["table titles", "group size", "foreground throughput"],
        ),
        (
            "a row dropped",
            golden("replica"),
            edited("replica", |r| {
                r.tables[0].rows.retain(|row| row[0] != "1-replica")
            }),
            &["replica read scaling", "row labels", "1-replica"],
        ),
        (
            "a header renamed",
            golden("ssi"),
            edited("ssi", |r| r.tables[0].headers[3] = "tps".to_string()),
            &["ssi tax", "headers", "delivered_tps", "\"tps\""],
        ),
        (
            "rows reordered",
            golden("planner"),
            edited("planner", |r| r.tables[0].rows.swap(0, 1)),
            &["planner recovery", "row labels"],
        ),
        (
            "a scenario dropped",
            golden("smoke"),
            edited("smoke", |r| drop(r.scenarios.remove(3))),
            &["scenario sets", "smoke / squall"],
        ),
        (
            "a phase dropped",
            golden("smoke"),
            edited("smoke", |r| {
                let spans = &mut r.scenarios[0].migration.traces[0].spans;
                spans.retain(|s| s.name != "sync_barrier");
            }),
            &["smoke / remus", "phase sequences", "sync_barrier"],
        ),
        (
            "an order of magnitude slower",
            golden("smoke"),
            edited("smoke", |r| r.scenarios[0].migration.total_us *= 11),
            &["smoke / remus", "regressed 11.0x", "limit 10x"],
        ),
        (
            "a longer time series",
            series(&["0", "1"]),
            series(&["0", "1", "2"]),
            &[],
        ),
        (
            "a time series' header renamed",
            series(&["0"]),
            table_only("fig10", "node work", &["t_s", "cpu"], &["0"]),
            &["node work", "headers", "src_work", "cpu"],
        ),
    ];
    let violations = |a: &BenchReport, b: &BenchReport| -> Vec<String> {
        let failed = compare(a, b)
            .into_iter()
            .filter(|f| f.tier == GateTier::Fail);
        failed.map(|f| f.message).collect()
    };
    for (name, _) in GOLDENS {
        let same = violations(&golden(name), &golden(name));
        assert!(same.is_empty(), "{name} against itself: {same:?}");
    }
    for (case, baseline, candidate, needles) in cases {
        let found = violations(&baseline, &candidate);
        if needles.is_empty() {
            assert!(found.is_empty(), "{case}: unexpected {found:?}");
            continue;
        }
        let named = |v: &&String| needles.iter().all(|n| v.contains(n));
        assert!(
            found.iter().any(|v| named(&v)),
            "{case}: no violation names all of {needles:?} in {found:?}"
        );
    }
}
