//! The metric catalogue, the result printer, and `compare`.
//!
//! `BENCHMARK.json` at the repository root repeats the catalogue for the
//! driver; a unit test keeps the two identical.

use std::collections::BTreeMap;

use remus::common::Json;

use crate::stats::median;

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, unit, direction, regression bound)` of every end-to-end metric.
/// The bound is the share of the baseline median by which the metric may
/// worsen before `compare` (and the driver) call it a regression.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("space_amp", "ratio", Lower, 0.05),
    ("tps", "1/s", Higher, 0.25),
    ("p50_us", "us", Lower, 0.25),
    ("p95_us", "us", Lower, 0.25),
    ("attempts_per_commit", "ratio", Lower, 0.03),
];

/// `(name, unit, direction)` of every per-layer metric and diagnostic.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // Driver spans around each call (traced slices).
    ("cluster.begin_ns", "ns", Lower),
    ("cluster.read_ns", "ns", Lower),
    ("cluster.update_ns", "ns", Lower),
    ("cluster.insert_ns", "ns", Lower),
    ("cluster.commit_ns", "ns", Lower),
    ("cluster.abort_ns", "ns", Lower),
    ("cluster.stmts_per_txn", "count", Lower),
    ("cluster.retries_per_kcommit", "count", Lower),
    ("workload.gen_ns_per_txn", "ns", Lower),
    ("bench.span_coverage_pct", "%", Higher),
    ("bench.trace_overhead_pct", "%", Lower),
    // MigrationReport and its traces (zero where nothing migrates).
    ("core.mig_tuples_per_s", "1/s", Higher),
    ("core.mig_p50_ms", "ms", Lower),
    ("core.snapshot_copy_ms", "ms", Lower),
    ("core.catchup_ms", "ms", Lower),
    ("core.sync_barrier_ms", "ms", Lower),
    ("core.tm_2pc_ms", "ms", Lower),
    ("core.dual_execution_ms", "ms", Lower),
    ("core.cleanup_ms", "ms", Lower),
    ("core.tuples_copied_per_mig", "count", Lower),
    ("core.records_replayed_per_mig", "count", Lower),
    ("core.copy_chunks_per_mig", "count", Lower),
    ("core.replay_jobs_per_mig", "count", Lower),
    ("core.phase_sum_over_mig_pct", "%", Higher),
    ("core.mig_aborts", "count", Lower),
    ("core.migrations", "count", Higher),
    // Registry counter deltas over the measured window.
    ("txn.2pc_hops_per_commit", "count", Lower),
    ("txn.abort_pct", "%", Lower),
    ("txn.ww_aborts_per_kcommit", "count", Lower),
    ("txn.ssi_aborts_per_kcommit", "count", Lower),
    ("txn.rw_edges_per_commit", "count", Lower),
    ("txn.siread_entries", "count", Lower),
    ("wal.appends_per_commit", "count", Lower),
    ("wal.queue_spills", "count", Lower),
    ("clock.gts_rpcs_per_commit", "count", Lower),
    ("storage.prepare_wait_blocks_per_kcommit", "count", Lower),
    ("storage.gc_pruned_per_commit", "count", Lower),
    ("storage.chain_len", "count", Lower),
    // Layer probes.
    ("clock.gts_start_ts_ns", "ns", Lower),
    ("clock.gts_commit_ts_ns", "ns", Lower),
    ("clock.dts_start_ts_ns", "ns", Lower),
    ("clock.dts_commit_ts_ns", "ns", Lower),
    ("clock.dts_observe_ns", "ns", Lower),
    ("shard.shard_for_ns", "ns", Lower),
    ("shard.cache_lookup_ns", "ns", Lower),
    ("shard.owner_at_ns", "ns", Lower),
    ("storage.point_read_ns", "ns", Lower),
    ("storage.point_read_hot_ns", "ns", Lower),
    ("storage.update_commit_ns", "ns", Lower),
    ("storage.clog_status_ns", "ns", Lower),
    ("storage.insert_ns", "ns", Lower),
    ("storage.scan_ns_per_tuple", "ns", Lower),
    ("storage.gc_step_ns_per_chain", "ns", Lower),
    ("cluster.txn_1key_local_ns", "ns", Lower),
    ("cluster.txn_2key_2pc_ns", "ns", Lower),
    ("cluster.vacuum_tick_ms", "ms", Lower),
    ("wal.append_ns", "ns", Lower),
    ("wal.reader_ns_per_record", "ns", Lower),
    ("wal.append_durable_us", "us", Lower),
    ("wal.fsyncs_per_append", "count", Lower),
    ("txn.ssi_on_read_ns", "ns", Lower),
    ("txn.ssi_on_write_ns", "ns", Lower),
    // Diagnostics: reported, never gated.
    ("bench.p99_us", "us", Lower),
    ("bench.p999_us", "us", Lower),
    ("bench.max_us", "us", Lower),
    ("bench.co_p99_us", "us", Lower),
    ("bench.gen_late_p99_us", "us", Lower),
    ("bench.timer_noise_p99_us", "us", Lower),
    ("bench.rss_end_mb", "MB", Lower),
    ("bench.slice_tps_spread_pct", "%", Lower),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The unit of a catalogued metric.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: &'static str,
    /// Seed the inputs were made from.
    pub seed: u64,
    /// True for a traced run (per-layer metrics), false for end-to-end.
    pub trace: bool,
    /// Operations completed in the measured window.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Correctness checks as `(name, passed, detail)`.
    pub checks: Vec<(&'static str, bool, String)>,
    /// True when the timer calibration saw more than 1 ms of p99 noise.
    pub noisy: bool,
    /// Committed-operation latency samples behind `p50_us` / `p95_us`.
    pub samples: u64,
    /// The contract metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Values,
    /// Further values printed for the reader but not part of the result.
    pub diagnostics: Values,
}

impl RunReport {
    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    fn metrics_json(values: &Values) -> Json {
        Json::Obj(
            values
                .iter()
                .map(|(name, value)| {
                    let unit = unit_of(name).expect("metric is catalogued");
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("value", Json::float(*value)),
                            ("unit", Json::str(unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result object: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        one_line(&Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("metrics", Self::metrics_json(&self.metrics)),
        ]))
    }

    /// The `--json` record: the result plus what identifies the run, one
    /// line, so several runs concatenate into a file `compare` reads.
    pub fn record_line(&self) -> String {
        one_line(&Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::num(self.seed)),
            ("trace", Json::Bool(self.trace)),
            ("noisy", Json::Bool(self.noisy)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("samples", Json::num(self.samples)),
            ("metrics", Self::metrics_json(&self.metrics)),
            ("diagnostics", Self::metrics_json(&self.diagnostics)),
        ]))
    }

    /// Prints every metric by name with its unit, the operation counts and
    /// the checks, then the result line last.
    pub fn print(&self) {
        println!(
            "workload {} seed {} trace {} cores {}{}",
            self.workload,
            self.seed,
            self.trace as u8,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            if self.noisy {
                " NOISY (timer calibration p99 > 1 ms)"
            } else {
                ""
            }
        );
        for (name, value) in self.metrics.iter().chain(self.diagnostics.iter()) {
            println!(
                "metric {name} {value:.4} {}",
                unit_of(name).expect("catalogued")
            );
        }
        println!(
            "ops_attempted {} ops_failed {} latency_samples {}",
            self.attempted, self.failed, self.samples
        );
        for (name, ok, detail) in &self.checks {
            println!(
                "check {name} {} {detail}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        println!("{}", self.result_line());
    }
}

/// `to_pretty` without its line breaks: string values hold no raw newline.
fn one_line(json: &Json) -> String {
    json.to_pretty().lines().map(str::trim_start).collect()
}

/// Every value of each `(workload, metric)` in a file of `--json` records,
/// in file order. With `diagnostics`, those are read too.
fn values_of(
    text: &str,
    diagnostics: bool,
) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut all: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("bad record: {e:?}"))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without workload")?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err("record without metrics".into());
        };
        let extra = match run.get("diagnostics") {
            Some(Json::Obj(d)) if diagnostics => d.as_slice(),
            _ => &[],
        };
        for (name, m) in metrics.iter().chain(extra) {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            all.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(all)
}

/// `(bound, higher is better)` of the end-to-end metric `name` in `spec`.
fn bound_of(spec: &Json, name: &str) -> Result<Option<(f64, bool)>, String> {
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json without end_to_end")?;
    let Some(m) = metrics
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
    else {
        return Ok(None);
    };
    let bound = m
        .get("bound")
        .and_then(Json::as_f64)
        .ok_or("metric without bound")?;
    Ok(Some((
        bound,
        m.get("better").and_then(Json::as_str) == Some("higher"),
    )))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method). `None` below two values.
fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Python extrapolates past the ends for tiny samples; so do we.
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Run-to-run spread of every metric in `runs` (a file of `--json`
/// records): the distance between the quartiles as a share of the median,
/// set against the metric's bound in `spec`. The benchmark is steady when
/// every spread stays below a third of its bound. Returns the report lines
/// and whether any end-to-end spread (other than `setup_s`) exceeds its
/// bound.
pub fn spread(spec: &str, runs: &str) -> Result<(Vec<String>, bool), String> {
    let spec = Json::parse(spec).map_err(|e| format!("bad BENCHMARK.json: {e:?}"))?;
    let mut lines = Vec::new();
    let mut unsteady = false;
    for ((workload, name), values) in values_of(runs, true)? {
        let Some((q1, q3)) = quartiles(&values) else {
            return Err(format!("{workload} {name}: spread needs at least two runs"));
        };
        let mid = median(&values);
        let share = if mid == 0.0 {
            0.0
        } else {
            (q3 - q1) / mid.abs()
        };
        let verdict = match bound_of(&spec, &name)? {
            None => String::new(),
            Some((bound, _)) if share <= bound / 3.0 => {
                format!("bound {:4.1}% steady", 100.0 * bound)
            }
            Some((bound, _)) if share <= bound || name == "setup_s" => {
                format!(
                    "bound {:4.1}% within bound, above a third of it",
                    100.0 * bound
                )
            }
            Some((bound, _)) => {
                unsteady = true;
                format!("bound {:4.1}% UNSTEADY", 100.0 * bound)
            }
        };
        lines.push(format!(
            "{workload:13} {name:32} n {:2} median {mid:14.4} q1 {q1:14.4} q3 {q3:14.4} spread {:6.2}% {verdict}",
            values.len(),
            100.0 * share
        ));
    }
    Ok((lines, unsteady))
}

/// Applies the bounds in `spec` (the text of `BENCHMARK.json`) to the
/// medians of `candidate` against those of `baseline`. Returns the report
/// lines and whether any end-to-end metric worsened by more than its bound.
pub fn compare(spec: &str, baseline: &str, candidate: &str) -> Result<(Vec<String>, bool), String> {
    let spec = Json::parse(spec).map_err(|e| format!("bad BENCHMARK.json: {e:?}"))?;
    let medians = |text: &str| -> Result<BTreeMap<(String, String), f64>, String> {
        Ok(values_of(text, false)?
            .into_iter()
            .map(|(k, v)| (k, median(&v)))
            .collect())
    };
    let (a, b) = (medians(baseline)?, medians(candidate)?);
    let mut lines = Vec::new();
    let mut breach = false;
    for ((workload, name), base) in &a {
        let Some(cand) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some((bound, higher)) = bound_of(&spec, name)? else {
            continue;
        };
        let worse = if higher { base - cand } else { cand - base } / base;
        let verdict = if worse > bound {
            breach = true;
            "BREACH"
        } else {
            "ok"
        };
        lines.push(format!(
            "{workload:13} {name:20} base {base:14.4} cand {cand:14.4} worse {:+7.2}% bound {:5.1}% {verdict}",
            100.0 * worse,
            100.0 * bound
        ));
    }
    if lines.is_empty() {
        return Err("the two files share no end-to-end metric".into());
    }
    Ok((lines, breach))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Workload;

    fn spec_text() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let spec = Json::parse(&spec_text()).unwrap();
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        let e2e: Vec<_> = spec
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.0.to_string(),
                    m.1.to_string(),
                    m.2.word().to_string(),
                    m.3,
                )
            })
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<_> = spec
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.word().to_string()))
            .collect();
        assert_eq!(layers, want);
        let workloads: Vec<_> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let want: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, want);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
    }

    fn record(workload: &str, tps: f64, p50: f64) -> String {
        format!(
            r#"{{"workload": "{workload}", "metrics": {{"tps": {{"value": {tps}, "unit": "1/s"}}, "p50_us": {{"value": {p50}, "unit": "us"}}}}}}"#
        )
    }

    #[test]
    fn compare_takes_medians_and_applies_direction() {
        let spec = spec_text();
        let base = [
            record("w", 100.0, 10.0),
            record("w", 102.0, 10.2),
            record("w", 98.0, 9.8),
        ]
        .join("\n");
        // Median tps 20 % lower, median p50 20 % higher; both bounds are 25 %.
        let ok = [
            record("w", 80.0, 12.0),
            record("w", 50.0, 12.0),
            record("w", 93.0, 12.0),
        ]
        .join("\n");
        let (lines, breach) = compare(&spec, &base, &ok).unwrap();
        assert!(!breach, "{lines:?}");
        assert_eq!(lines.len(), 2);
        // tps 30 % lower: breach, even though p50 improved.
        let bad = record("w", 70.0, 5.0);
        let (lines, breach) = compare(&spec, &base, &bad).unwrap();
        assert!(breach);
        assert!(lines
            .iter()
            .any(|l| l.contains("tps") && l.contains("BREACH")));
        assert!(lines
            .iter()
            .any(|l| l.contains("p50_us") && l.ends_with("ok")));
        // A higher tps is never a breach.
        assert!(!compare(&spec, &base, &record("w", 500.0, 10.0)).unwrap().1);
        assert!(compare(&spec, &base, &record("other", 1.0, 1.0)).is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_flags_a_metric_wider_than_its_bound() {
        let spec = spec_text();
        let steady: Vec<String> = (0..10)
            .map(|i| record("w", 1000.0 + i as f64, 10.0))
            .collect();
        let (lines, unsteady) = spread(&spec, &steady.join("\n")).unwrap();
        assert!(!unsteady, "{lines:?}");
        assert!(lines
            .iter()
            .any(|l| l.contains("tps") && l.contains("steady")));
        let wild: Vec<String> = (0..10)
            .map(|i| record("w", 1000.0 + 100.0 * i as f64, 10.0))
            .collect();
        let (lines, unsteady) = spread(&spec, &wild.join("\n")).unwrap();
        assert!(unsteady);
        assert!(lines
            .iter()
            .any(|l| l.contains("tps") && l.contains("UNSTEADY")));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = Values::new();
        metrics.insert("tps", 1234.5678);
        let report = RunReport {
            workload: "ycsb_steady",
            seed: 1,
            trace: false,
            attempted: 10,
            failed: 0,
            checks: vec![("x", true, String::new())],
            noisy: false,
            samples: 10,
            metrics,
            diagnostics: Values::new(),
        };
        let line = report.result_line();
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).unwrap();
        assert_eq!(
            json.keys().unwrap(),
            vec!["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        let tps = json.get("metrics").unwrap().get("tps").unwrap();
        assert_eq!(tps.get("value").and_then(Json::as_f64), Some(1234.5678));
        assert_eq!(tps.get("unit").and_then(Json::as_str), Some("1/s"));
    }
}
