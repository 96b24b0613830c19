//! The bench gate table: every expectation `remus-bench` holds a report
//! to, written once.
//!
//! [`GATES`] lists, as data, which ratio of which table fails at what
//! value; [`evaluate`] applies the rows to a [`BenchReport`] and words the
//! findings; [`enforce`] is what every producing bin calls on the report
//! it just wrote, and `bench_check` calls [`evaluate`] on both of its
//! files. Nothing else in the crate knows a threshold.
//!
//! Every row is gated the same two-tier way ([`two_tier`]): below
//! **expected** warns — shared CI runners compress real ratios without any
//! code regression — and below the hard **floor** fails, because the
//! compared legs run in the same process on the same runner, so noise
//! alone cannot erase the ratio. A gate reads the report's *formatted*
//! cells, so producer and checker see the same rounded value. A report
//! without a row's table passes that row (it came from another bin).

use crate::report::{BenchReport, TableSection};

/// Outcome of a two-tier ratio gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateTier {
    /// At or above the expected threshold.
    Pass,
    /// Below expected but at or above the hard floor: tolerated as runner
    /// noise, surfaced as a warning.
    Warn,
    /// Below the hard floor: a genuine regression, never noise.
    Fail,
}

/// Classifies `value` against the two thresholds. Both boundaries are
/// inclusive on the passing side: a value exactly at `expected` passes,
/// and a value exactly at `floor` warns rather than fails — the floor is
/// the last tolerated value, not the first failing one.
///
/// `expected < floor` would make the warning tier empty; the function
/// debug-asserts against it but degrades gracefully (everything below
/// `expected` then fails).
pub fn two_tier(value: f64, expected: f64, floor: f64) -> GateTier {
    debug_assert!(
        floor <= expected,
        "two-tier gate misconfigured: floor {floor} > expected {expected}"
    );
    if value >= expected {
        GateTier::Pass
    } else if value >= floor {
        GateTier::Warn
    } else {
        GateTier::Fail
    }
}

/// Parses a trailing ratio cell of a report table (`"1.59x"` → `1.59`).
/// Returns `None` for a missing suffix or an unparseable number, which
/// callers report as a violation (a mangled cell must never pass silently).
pub fn parse_ratio_cell(cell: &str) -> Option<f64> {
    cell.strip_suffix('x')?.parse::<f64>().ok()
}

/// Where a gated value sits in its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateValue {
    /// The trailing ratio cell (`"1.59x"`) of the row labelled `.0`.
    RowRatio(&'static str),
    /// The `num` row's cell over the `den` row's cell in `column` (plain
    /// numbers or ratio cells).
    Quotient {
        /// Label of the numerator row.
        num: &'static str,
        /// Label of the denominator row.
        den: &'static str,
        /// Header of the column both cells are read from.
        column: &'static str,
    },
}

/// One bench expectation.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Title of the table the value lives in.
    pub table: &'static str,
    /// The gated value.
    pub value: GateValue,
    /// Below this the gate warns.
    pub expected: f64,
    /// Below this the gate fails.
    pub floor: f64,
    /// Whether a table lacking the row(s) is a violation (`false`: older
    /// reports without the row pass).
    pub required: bool,
    /// What a value under the floor means — it ends the failure message.
    pub consequence: &'static str,
}

/// The gate table. Each row's comment says why its floor cannot be runner
/// noise.
pub const GATES: &[Gate] = &[
    // bench_foreground. Tuned-vs-sequential hot path; both legs run
    // back-to-back in one process, so only a code regression can erase a
    // measured ~2.5x down to 1.1x.
    Gate {
        table: "foreground throughput",
        value: GateValue::RowRatio("optimized"),
        expected: 1.5,
        floor: 1.1,
        required: true,
        consequence: "the optimized leg is no faster than the baseline",
    },
    // The same ratio within the file-backed WAL pair: durability adds the
    // same constant to both legs, so the pair still isolates the hot path.
    // Reports from before the durable legs existed have no such row.
    Gate {
        table: "foreground throughput",
        value: GateValue::RowRatio("walfile-optimized"),
        expected: 1.5,
        floor: 1.1,
        required: false,
        consequence: "the optimized leg is no faster than the baseline",
    },
    // bench_planner, hotspot shift. Steady/pre throughput of the autopilot
    // leg: under the floor the reunited pair is still paying remote
    // commits — the autopilot moved the wrong thing or nothing.
    Gate {
        table: "planner recovery",
        value: GateValue::RowRatio("autopilot"),
        expected: 0.70,
        floor: 0.40,
        required: true,
        consequence: "the hotspot shift was never repaired",
    },
    // The autopilot must strictly beat leaving the cluster alone, or the
    // closed loop is pointless.
    Gate {
        table: "planner recovery",
        value: GateValue::Quotient {
            num: "autopilot",
            den: "no-migration",
            column: "steady_tps",
        },
        expected: 1.5,
        floor: 1.1,
        required: true,
        consequence: "the autopilot does not beat doing nothing",
    },
    // bench_replica. Offloaded reads shed the oracle round-trip and the
    // primary-side contention, so each replica leg should match the
    // no-replica leg; a fraction of it means the ship/apply/watermark path
    // is broken, not noisy.
    Gate {
        table: "replica read scaling",
        value: GateValue::RowRatio("1-replica"),
        expected: 1.0,
        floor: 0.4,
        required: true,
        consequence: "replica reads collapsed against the no-replica baseline",
    },
    Gate {
        table: "replica read scaling",
        value: GateValue::RowRatio("2-replica"),
        expected: 1.0,
        floor: 0.4,
        required: true,
        consequence: "replica reads collapsed against the no-replica baseline",
    },
    // bench_planner --scenario read-skew. Steady/pre read throughput of
    // the replicate leg: the offloaded window skips the oracle and the
    // writer-contended primary storage, so it should be no slower than
    // the degraded pre window.
    Gate {
        table: "replicate recovery",
        value: GateValue::RowRatio("replicate"),
        expected: 1.0,
        floor: 0.6,
        required: true,
        consequence: "offloaded reads are slower than the degraded pre-hotspot window",
    },
    // Lion's replicate-or-migrate edge: a replica that cannot out-recover
    // a forced migration at all makes Replicate dead weight in the
    // decision core.
    Gate {
        table: "replicate recovery",
        value: GateValue::Quotient {
            num: "replicate",
            den: "forced-migrate",
            column: "recovery",
        },
        expected: 1.2,
        floor: 1.02,
        required: true,
        consequence: "replication no longer beats a forced migration on the \
                      read-skewed hotspot",
    },
    // bench_scale. Delivered/offered load through a live consolidation:
    // shedding half the offered arrivals means the migration interrupted
    // service — the property the paper claims to preserve.
    Gate {
        table: "open-loop scale",
        value: GateValue::RowRatio("open-loop"),
        expected: 0.90,
        floor: 0.50,
        required: true,
        consequence: "the live migration interrupted service at scale",
    },
    // bench_ssi. Serializable-over-SI delivered throughput (Ports &
    // Grittner's tax, measured 0.80x/0.86x): a quarter of SI means the
    // SIREAD/commit-check hot path regressed, not the runner.
    Gate {
        table: "ssi tax",
        value: GateValue::RowRatio("ssi-steady"),
        expected: 0.60,
        floor: 0.25,
        required: true,
        consequence: "serializable mode collapsed against the SI baseline",
    },
    Gate {
        table: "ssi tax",
        value: GateValue::RowRatio("ssi-live"),
        expected: 0.60,
        floor: 0.25,
        required: true,
        consequence: "serializable mode collapsed against the SI baseline",
    },
];

/// A gate that did not pass: [`GateTier::Warn`] or [`GateTier::Fail`]
/// (a missing required row or a mangled cell is a `Fail`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// `Warn` or `Fail`, never `Pass`.
    pub tier: GateTier,
    /// Names the table, the row, the value and the threshold it missed.
    pub message: String,
}

fn row<'a>(table: &'a TableSection, label: &str) -> Option<&'a Vec<String>> {
    table
        .rows
        .iter()
        .find(|r| r.first().map(String::as_str) == Some(label))
}

impl GateValue {
    /// The rows the value is read from.
    pub fn rows(&self) -> Vec<&'static str> {
        match *self {
            GateValue::RowRatio(label) => vec![label],
            GateValue::Quotient { num, den, .. } => vec![num, den],
        }
    }

    /// Reads the value out of `table`; `None` for a mangled cell or an
    /// unknown column (rows are checked by the caller).
    fn read(&self, table: &TableSection) -> Option<f64> {
        match *self {
            GateValue::RowRatio(label) => parse_ratio_cell(row(table, label)?.last()?),
            GateValue::Quotient { num, den, column } => {
                let col = table.headers.iter().position(|h| h == column)?;
                let cell = |label| {
                    let cell: &String = row(table, label)?.get(col)?;
                    cell.strip_suffix('x').unwrap_or(cell).parse::<f64>().ok()
                };
                Some(cell(num)? / cell(den)?.max(1e-9))
            }
        }
    }
}

impl std::fmt::Display for GateValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateValue::RowRatio(label) => write!(f, "{label}"),
            GateValue::Quotient { num, den, column } => write!(f, "{num}/{den} {column}"),
        }
    }
}

impl Gate {
    /// Judges the row against a table that carries it: the tier and what
    /// to say about it, or `None` when it passes (or is optional and
    /// absent).
    fn judge(&self, table: &TableSection) -> Option<(GateTier, String)> {
        if self.value.rows().iter().any(|r| row(table, r).is_none()) {
            let missing = (GateTier::Fail, "the table has no such row".to_string());
            return self.required.then_some(missing);
        }
        let Some(value) = self.value.read(table) else {
            return Some((GateTier::Fail, "cannot parse the gated cell".to_string()));
        };
        let (expected, floor) = (self.expected, self.floor);
        let tier = two_tier(value, expected, floor);
        let said = match tier {
            GateTier::Pass => return None,
            GateTier::Warn => format!(
                "{value:.2}x below the expected {expected}x \
                 (tolerated as runner noise; hard floor {floor}x)"
            ),
            GateTier::Fail => format!(
                "{value:.2}x below the hard floor {floor}x — {}",
                self.consequence
            ),
        };
        Some((tier, said))
    }
}

/// Applies every [`GATES`] row whose table `report` carries; returns the
/// rows that warned or failed, in table order.
pub fn evaluate(report: &BenchReport) -> Vec<Finding> {
    let judged = GATES.iter().filter_map(|gate| {
        let table = report.tables.iter().find(|t| t.title == gate.table)?;
        let (tier, said) = gate.judge(table)?;
        let message = format!("{} / {}: {said}", gate.table, gate.value);
        Some(Finding { tier, message })
    });
    judged.collect()
}

/// What every producing bin calls on the report it just wrote: warnings go
/// to stderr, and any failure exits the process non-zero after printing
/// all of them.
pub fn enforce(report: &BenchReport) {
    let findings = evaluate(report);
    for f in &findings {
        let tag = if f.tier == GateTier::Fail {
            "FAIL"
        } else {
            "WARN"
        };
        eprintln!("{tag}: {}", f.message);
    }
    if findings.iter().any(|f| f.tier == GateTier::Fail) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn above_expected_passes() {
        assert_eq!(two_tier(2.5, 1.5, 1.1), GateTier::Pass);
    }

    #[test]
    fn exactly_at_expected_passes() {
        // The boundary the warning tier starts *below*, not at.
        assert_eq!(two_tier(1.5, 1.5, 1.1), GateTier::Pass);
        assert_eq!(two_tier(0.70, 0.70, 0.40), GateTier::Pass);
    }

    #[test]
    fn between_floors_warns() {
        assert_eq!(two_tier(1.3, 1.5, 1.1), GateTier::Warn);
        assert_eq!(two_tier(0.55, 0.70, 0.40), GateTier::Warn);
    }

    #[test]
    fn exactly_at_floor_warns() {
        // The floor itself is still tolerated; only strictly below fails.
        assert_eq!(two_tier(1.1, 1.5, 1.1), GateTier::Warn);
        assert_eq!(two_tier(0.40, 0.70, 0.40), GateTier::Warn);
    }

    #[test]
    fn below_floor_fails() {
        assert_eq!(two_tier(1.0999, 1.5, 1.1), GateTier::Fail);
        assert_eq!(two_tier(0.1, 0.70, 0.40), GateTier::Fail);
    }

    #[test]
    fn degenerate_equal_thresholds_have_no_warn_tier() {
        assert_eq!(two_tier(1.1, 1.1, 1.1), GateTier::Pass);
        assert_eq!(two_tier(1.0, 1.1, 1.1), GateTier::Fail);
    }

    #[test]
    fn ratio_cells_parse_and_reject() {
        assert_eq!(parse_ratio_cell("1.59x"), Some(1.59));
        assert_eq!(parse_ratio_cell("0.88x"), Some(0.88));
        assert_eq!(parse_ratio_cell("1.59"), None);
        assert_eq!(parse_ratio_cell("fastx"), None);
        assert_eq!(parse_ratio_cell(""), None);
    }
}
