//! The bench gate table: every expectation `remus-bench` holds a report
//! to, written once.
//!
//! [`GATES`] lists, as data, which ratio of which table fails at what
//! value; [`evaluate`] applies the rows to a [`BenchReport`] and words the
//! findings; [`enforce`] is what the bench driver calls on every report it
//! writes, and `bench_check` is [`compare`]: the pairwise checks of two
//! reports plus [`evaluate`] on each. Nothing else in the crate knows a
//! threshold.
//!
//! Every row is gated the same two-tier way ([`two_tier`]): below
//! **expected** warns — shared CI runners compress real ratios without any
//! code regression — and below the hard **floor** fails, because the
//! compared legs run in the same process on the same runner, so noise
//! alone cannot erase the ratio. A gate reads the report's *formatted*
//! cells (or a scenario's counters), so producer and checker see the same
//! value. A report without a row's table passes that row (it came from
//! another bin).

use crate::report::{BenchReport, ScenarioReport, TableSection};

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
    /// The sum of `scenario`'s `num` counter samples over the sum of its
    /// `den` samples — a count, where the table's cells are wall clock. A
    /// report without the scenario passes (it predates the leg); a table
    /// without a gated row never does.
    Counters {
        /// Name of the scenario whose counters are read.
        scenario: &'static str,
        /// Name of the numerator series.
        num: &'static str,
        /// Name of the denominator series; a zero sum is a violation.
        den: &'static str,
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
    /// What a value under the floor means — it ends the failure message.
    pub consequence: &'static str,
}

/// The gate table. Each row's comment says why its floor cannot be runner
/// noise.
pub const GATES: &[Gate] = &[
    // bench_foreground. The file-backed WAL leg is gated on a count, not
    // on its wall-clock cell: it waits on this host's fsync, so its
    // throughput swings run to run at any commit, while appends per fsync
    // only moves when group commit stops coalescing the four sessions'
    // commits. Floor: a flusher that syncs every other append is not
    // grouping. Expected: two thirds of the lowest of five fresh runs on
    // the 2-vCPU host this row was written on (7.47–9.05 and 7.97–8.77;
    // the goldens, from a faster disk, read 9.0 and 10.3) — a third of the
    // coalescing gone is worth a warning on any host.
    // Reports from before the durable legs existed lack the scenario.
    Gate {
        table: "foreground throughput",
        value: GateValue::Counters {
            scenario: "foreground-walfile-optimized",
            num: "wal.appends",
            den: "wal.fsyncs",
        },
        expected: 5.0,
        floor: 2.0,
        consequence: "group commit is not coalescing",
    },
    // bench_planner, hotspot shift. Steady/pre throughput of the autopilot
    // leg: under the floor the reunited pair is still paying remote
    // commits — the autopilot moved the wrong thing or nothing.
    Gate {
        table: "planner recovery",
        value: GateValue::RowRatio("autopilot"),
        expected: 0.70,
        floor: 0.40,
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
        consequence: "replica reads collapsed against the no-replica baseline",
    },
    Gate {
        table: "replica read scaling",
        value: GateValue::RowRatio("2-replica"),
        expected: 1.0,
        floor: 0.4,
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
        consequence: "the live migration interrupted service at scale",
    },
    // bench_ssi. Serializable-over-SI delivered throughput (Ports &
    // Grittner's tax, measured 0.99x/0.99x): a quarter of SI means the
    // SIREAD/commit-check hot path regressed, not the runner.
    Gate {
        table: "ssi tax",
        value: GateValue::RowRatio("ssi-steady"),
        expected: 0.60,
        floor: 0.25,
        consequence: "serializable mode collapsed against the SI baseline",
    },
    Gate {
        table: "ssi tax",
        value: GateValue::RowRatio("ssi-live"),
        expected: 0.60,
        floor: 0.25,
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

fn row<'a>(table: &'a TableSection, label: &str) -> Result<&'a Vec<String>, String> {
    let labelled = |r: &&Vec<String>| r.first().map(String::as_str) == Some(label);
    let found = table.rows.iter().find(labelled);
    found.ok_or("the table has no such row".to_string())
}

impl GateValue {
    /// The table rows the value is read from (none for a counter gate).
    pub fn rows(&self) -> Vec<&'static str> {
        match *self {
            GateValue::RowRatio(label) => vec![label],
            GateValue::Quotient { num, den, .. } => vec![num, den],
            GateValue::Counters { .. } => vec![],
        }
    }

    /// Reads the value out of `report`, whose table the gate names is
    /// `table`: `Ok(None)` when the gate does not apply, `Err` with the
    /// reason when it cannot be read — a mangled cell must never pass
    /// silently.
    fn read(&self, report: &BenchReport, table: &TableSection) -> Result<Option<f64>, String> {
        let mangled = || "cannot parse the gated cell".to_string();
        match *self {
            GateValue::RowRatio(label) => {
                let cell = row(table, label)?.last().ok_or_else(mangled)?;
                parse_ratio_cell(cell).map(Some).ok_or_else(mangled)
            }
            GateValue::Quotient { num, den, column } => {
                let col = table.headers.iter().position(|h| h == column);
                let cell = |label| {
                    let cell: Option<&String> = row(table, label)?.get(col.ok_or_else(mangled)?);
                    let number = cell.map(|c| c.strip_suffix('x').unwrap_or(c).parse::<f64>());
                    number.and_then(Result::ok).ok_or_else(mangled)
                };
                Ok(Some(cell(num)? / cell(den)?.max(1e-9)))
            }
            GateValue::Counters { scenario, num, den } => {
                let Some(found) = report.scenarios.iter().find(|s| s.name == scenario) else {
                    return Ok(None);
                };
                match (found.counter_sum(num), found.counter_sum(den)) {
                    (n, 0) => Err(format!("{den} is 0 ({num} {n})")),
                    (n, d) => Ok(Some(n as f64 / d as f64)),
                }
            }
        }
    }
}

impl std::fmt::Display for GateValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateValue::RowRatio(label) => write!(f, "{label}"),
            GateValue::Quotient { num, den, column } => write!(f, "{num}/{den} {column}"),
            GateValue::Counters { scenario, num, den } => write!(f, "{scenario} {num}/{den}"),
        }
    }
}

impl Gate {
    /// Judges the row against a report whose `table` it names: the tier
    /// and what to say about it, or `None` when it passes.
    fn judge(&self, report: &BenchReport, table: &TableSection) -> Option<(GateTier, String)> {
        let value = match self.value.read(report, table) {
            Ok(value) => value?,
            Err(why) => return Some((GateTier::Fail, why)),
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
        let (tier, said) = gate.judge(report, table)?;
        let message = format!("{} / {}: {said}", gate.table, gate.value);
        Some(Finding { tier, message })
    });
    judged.collect()
}

/// Prints `findings` to stderr, one `<prefix>WARN|FAIL: …` line each;
/// returns whether any of them is a failure.
pub fn print_findings(prefix: &str, findings: &[Finding]) -> bool {
    for f in findings {
        let tag = if f.tier == GateTier::Fail {
            "FAIL"
        } else {
            "WARN"
        };
        eprintln!("{prefix}{tag}: {}", f.message);
    }
    findings.iter().any(|f| f.tier == GateTier::Fail)
}

/// What the bench driver calls on the report it just wrote: warnings go to
/// stderr, and any failure exits the process non-zero after printing all
/// of them.
pub fn enforce(report: &BenchReport) {
    if print_findings("", &evaluate(report)) {
        std::process::exit(1);
    }
}

/// Maximum candidate/baseline ratio of a scenario's migration wall clock
/// that [`compare`] tolerates.
pub const MAX_SLOWDOWN: f64 = 10.0;

fn scenario_key(s: &ScenarioReport) -> String {
    format!("{} / {}", s.name, s.engine)
}

/// What of `report` must be equal in a report it is compared with, as
/// `(what, its value)` in a fixed order.
fn shape(report: &BenchReport) -> Vec<(String, String)> {
    let said = |what: String, value: &dyn std::fmt::Debug| (what, format!("{value:?}"));
    let keys: Vec<String> = report.scenarios.iter().map(scenario_key).collect();
    let titles: Vec<&String> = report.tables.iter().map(|t| &t.title).collect();
    let mut shape = vec![
        said("report titles".to_string(), &report.title),
        said("scenario sets".to_string(), &keys),
        said("table titles".to_string(), &titles),
    ];
    for table in &report.tables {
        shape.push(said(
            format!("table {:?}: headers", table.title),
            &table.headers,
        ));
        // A time series: the row count follows the run's length.
        if table.headers.first().is_some_and(|h| h == "t_s") {
            continue;
        }
        let labels: Vec<_> = table.rows.iter().map(|r| r.first()).collect();
        shape.push(said(
            format!("table {:?}: row labels", table.title),
            &labels,
        ));
    }
    for (scenario, key) in report.scenarios.iter().zip(keys) {
        let traces = scenario.migration.traces.iter();
        let phases: Vec<_> = traces.map(|t| t.root_phases()).collect();
        shape.push(said(format!("{key}: phase sequences"), &phases));
    }
    shape
}

/// `bench_check`: everything a `candidate` report is held to against a
/// `baseline` of the same bin, deliberately loose enough for noisy shared
/// runners.
///
/// 1. **Shape**: the report titles, the scenarios (name and engine, in
///    order), the table titles (in order) and each table's headers and
///    first-column row labels must be equal — a bin that dropped, renamed
///    or reordered one changed its contract. A table whose first header is
///    `t_s` is a time series (Fig. 10's per-second samples): its row count
///    follows the run's length, so only its title and headers are compared.
/// 2. **Determinism**: every migration's root phase sequence must match —
///    a reordered, missing, or extra phase is a correctness signal, not
///    noise.
/// 3. **Wall clock**: a scenario's end-to-end migration time may not
///    regress by more than [`MAX_SLOWDOWN`]; ordinary jitter passes.
/// 4. Each report on its own is held to the gate table ([`evaluate`]).
///
/// Returns the violations ([`GateTier::Fail`]) and the gate warnings.
pub fn compare(baseline: &BenchReport, candidate: &BenchReport) -> Vec<Finding> {
    let mut findings: Vec<Finding> = Vec::new();
    let mut violation = |message: String| {
        let tier = GateTier::Fail;
        findings.push(Finding { tier, message })
    };
    let candidate_shape = shape(candidate);
    for (what, base) in shape(baseline) {
        // What only one side has already shows as a differing set.
        match candidate_shape.iter().find(|(w, _)| *w == what) {
            Some((_, cand)) if *cand != base => {
                violation(format!("{what} differ: baseline {base}, candidate {cand}"))
            }
            _ => {}
        }
    }
    for (b, c) in baseline.scenarios.iter().zip(&candidate.scenarios) {
        let base_us = b.migration.total_us.max(1) as f64;
        let cand_us = c.migration.total_us.max(1) as f64;
        let ratio = cand_us / base_us;
        if ratio > MAX_SLOWDOWN {
            violation(format!(
                "{}: migration wall clock regressed {ratio:.1}x \
                 ({base_us:.0}us -> {cand_us:.0}us, limit {MAX_SLOWDOWN}x)",
                scenario_key(b)
            ));
        }
    }
    for (which, report) in [("baseline", baseline), ("candidate", candidate)] {
        findings.extend(evaluate(report).into_iter().map(|f| Finding {
            message: format!("{which}: {}", f.message),
            ..f
        }));
    }
    findings
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
