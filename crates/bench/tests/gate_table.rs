//! The gate table against the committed goldens: every fixture passes
//! [`GATES`], in-memory mutations of a parsed golden trip the tier they
//! should, and every row of the table resolves in some fixture.

use remus_bench::gate::{evaluate, GateTier, GATES};
use remus_bench::BenchReport;

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

/// How a case edits the first table of a parsed golden.
enum Edit {
    /// Overwrite the cell of `row` in the column headed `column`.
    Cell {
        row: &'static str,
        column: &'static str,
        to: &'static str,
    },
    /// Delete `row`.
    DropRow(&'static str),
}

#[test]
fn mutated_goldens_trip_the_right_tier() {
    use Edit::*;
    // (golden, edit, the tier the edited row must land in, what its
    // message must name)
    let cases: [(&str, Edit, GateTier, &[&str]); 8] = [
        (
            "foreground",
            Cell {
                row: "optimized",
                column: "speedup",
                to: "1.09x",
            },
            GateTier::Fail,
            &["foreground throughput", "optimized", "1.09x", "floor 1.1x"],
        ),
        (
            "foreground",
            Cell {
                row: "optimized",
                column: "speedup",
                to: "1.30x",
            },
            GateTier::Warn,
            &["foreground throughput", "optimized", "1.30x", "1.5x"],
        ),
        // A mangled cell must never pass silently — not even on the
        // optional row.
        (
            "foreground",
            Cell {
                row: "walfile-optimized",
                column: "speedup",
                to: "fastx",
            },
            GateTier::Fail,
            &["foreground throughput", "walfile-optimized", "parse"],
        ),
        (
            "foreground",
            DropRow("optimized"),
            GateTier::Fail,
            &["foreground throughput", "optimized", "no such row"],
        ),
        (
            "foreground",
            DropRow("walfile-optimized"),
            GateTier::Pass,
            &[],
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
    }
}
