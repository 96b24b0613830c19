//! Machine-readable bench reports.
//!
//! Every figure/table/ablation binary can emit the same JSON document via
//! `--json <path>`: a [`BenchReport`] holding scenario runs (throughput
//! series, abort counters, the migration summary with its phase span
//! trees, and the cluster metric samples) plus any printed tables. The
//! schema is versioned and round-trips through
//! [`remus_common::Json`], so CI can archive the artifact, diff two runs,
//! and gate on regressions without scraping stdout.

use std::time::Duration;

use remus_common::metrics::MetricSample;
use remus_common::Json;
use remus_core::trace::MigrationTrace;
use remus_core::MigrationReport;

/// Version of the JSON layout. Bump on breaking changes.
pub const SCHEMA_VERSION: u64 = 1;

/// The `schema` marker string embedded in every document.
pub const SCHEMA_NAME: &str = "remus-bench/v1";

/// One phase (or sub-step) span, microsecond offsets from the migration
/// start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanReport {
    /// Span id (index within the trace).
    pub id: u64,
    /// Parent span id; `None` for root phases.
    pub parent: Option<u64>,
    /// Phase name.
    pub name: String,
    /// Start offset in microseconds.
    pub start_us: u64,
    /// End offset in microseconds.
    pub end_us: u64,
    /// Numeric attributes (work counts, LSNs, lag samples).
    pub attrs: Vec<(String, u64)>,
}

/// The span tree of one migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Engine that recorded it.
    pub engine: String,
    /// Spans in start order.
    pub spans: Vec<SpanReport>,
}

impl TraceReport {
    /// Converts a recorded trace.
    pub fn from_trace(trace: &MigrationTrace) -> TraceReport {
        TraceReport {
            engine: trace.engine.to_string(),
            spans: trace
                .spans
                .iter()
                .map(|s| SpanReport {
                    id: u64::from(s.id),
                    parent: s.parent.map(u64::from),
                    name: s.name.to_string(),
                    start_us: s.start.as_micros() as u64,
                    end_us: s.end.unwrap_or(s.start).as_micros() as u64,
                    attrs: s.attrs.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
                })
                .collect(),
        }
    }

    /// Root phase names in start order — the sequence CI diffs.
    pub fn root_phases(&self) -> Vec<&str> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name.as_str())
            .collect()
    }
}

/// Aggregate migration outcome: the report counters plus all span trees.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MigrationSummary {
    /// Engine name.
    pub engine: String,
    /// End-to-end microseconds.
    pub total_us: u64,
    /// Snapshot-copy phase microseconds.
    pub snapshot_us: u64,
    /// Catch-up phase microseconds.
    pub catchup_us: u64,
    /// Ownership-transfer phase microseconds.
    pub transfer_us: u64,
    /// Dual-execution phase microseconds.
    pub dual_us: u64,
    /// Cluster-wide blocked time microseconds.
    pub downtime_us: u64,
    /// Tuples installed by the copy (plus Squall pulls).
    pub tuples_copied: u64,
    /// Change records replayed on the destination.
    pub records_replayed: u64,
    /// MOCC validation conflicts.
    pub validation_conflicts: u64,
    /// Server-side terminations / chunk-rule aborts.
    pub forced_aborts: u64,
    /// Squall chunk pulls.
    pub pulls: u64,
    /// Span trees, one per absorbed migration.
    pub traces: Vec<TraceReport>,
}

impl MigrationSummary {
    /// Converts an engine report.
    pub fn from_report(report: &MigrationReport) -> MigrationSummary {
        let us = |d: Duration| d.as_micros() as u64;
        MigrationSummary {
            engine: report.engine.to_string(),
            total_us: us(report.total),
            snapshot_us: us(report.snapshot_phase),
            catchup_us: us(report.catchup_phase),
            transfer_us: us(report.transfer_phase),
            dual_us: us(report.dual_phase),
            downtime_us: us(report.downtime),
            tuples_copied: report.tuples_copied,
            records_replayed: report.records_replayed,
            validation_conflicts: report.validation_conflicts,
            forced_aborts: report.forced_aborts,
            pulls: report.pulls,
            traces: report.traces.iter().map(TraceReport::from_trace).collect(),
        }
    }
}

/// One metric series sampled from a cluster registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterReport {
    /// Metric name, e.g. `"txn.2pc_hops"`.
    pub name: String,
    /// Label set, e.g. `[("node", "0")]`.
    pub labels: Vec<(String, String)>,
    /// `"counter"`, `"gauge"`, or `"latency"`.
    pub kind: String,
    /// Counter/gauge value; sample count for latency series.
    pub value: u64,
}

impl CounterReport {
    /// Converts a registry sample.
    pub fn from_sample(sample: &MetricSample) -> CounterReport {
        CounterReport {
            name: sample.name.clone(),
            labels: sample.labels.clone(),
            kind: sample.kind.to_string(),
            value: sample.value,
        }
    }
}

/// One scenario run (one engine through one workload) — what
/// [`crate::harness::Rig::finish`] collects and the document serialises.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioReport {
    /// Scenario label, e.g. `"hybrid A"` or `"smoke"`.
    pub name: String,
    /// Engine name.
    pub engine: String,
    /// Committed client transactions.
    pub commits: u64,
    /// Migration-induced aborts.
    pub migration_aborts: u64,
    /// Write-write conflict aborts.
    pub ww_aborts: u64,
    /// Other aborts.
    pub other_aborts: u64,
    /// Mean commit latency outside migrations, microseconds.
    pub base_latency_us: u64,
    /// Mean latency increase while migrating, microseconds.
    pub latency_increase_us: u64,
    /// Committed transactions per second, one entry per second.
    pub tps: Vec<f64>,
    /// Overlay events (name, seconds from series start).
    pub events: Vec<(String, f64)>,
    /// The migration summary with its span trees.
    pub migration: MigrationSummary,
    /// Cluster metric samples taken after the run.
    pub counters: Vec<CounterReport>,
}

impl ScenarioReport {
    /// The sum of the samples named `name` over all their label sets
    /// (zero when the run recorded none).
    pub fn counter_sum(&self, name: &str) -> u64 {
        let named = self.counters.iter().filter(|c| c.name == name);
        named.map(|c| c.value).sum()
    }
}

/// A printed table captured verbatim (the table/ablation binaries).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableSection {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl TableSection {
    /// A table of already-formatted `rows` under `title` and `headers`.
    pub fn new(title: &str, headers: &[&str], rows: Vec<Vec<String>>) -> TableSection {
        TableSection {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
        }
    }
}

/// The top-level bench artifact.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// What produced the document, e.g. `"fig6"`.
    pub title: String,
    /// Scale preset description.
    pub scale: String,
    /// Scenario runs.
    pub scenarios: Vec<ScenarioReport>,
    /// Captured tables.
    pub tables: Vec<TableSection>,
}

impl BenchReport {
    /// An empty report for `title` at `scale`.
    pub fn new(title: &str, scale: &str) -> BenchReport {
        BenchReport {
            title: title.to_string(),
            scale: scale.to_string(),
            ..Default::default()
        }
    }

    /// Serializes to the versioned JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA_NAME)),
            ("schema_version", Json::num(SCHEMA_VERSION)),
            ("title", Json::str(&self.title)),
            ("scale", Json::str(&self.scale)),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(scenario_to_json).collect()),
            ),
            (
                "tables",
                Json::Arr(self.tables.iter().map(table_to_json).collect()),
            ),
        ])
    }

    /// Parses a document produced by [`BenchReport::to_json`].
    pub fn from_json(doc: &Json) -> Result<BenchReport, String> {
        let version = req_u64(doc, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version}, expected {SCHEMA_VERSION}"
            ));
        }
        Ok(BenchReport {
            title: req_str(doc, "title")?,
            scale: req_str(doc, "scale")?,
            scenarios: req_arr(doc, "scenarios")?
                .iter()
                .map(scenario_from_json)
                .collect::<Result<_, _>>()?,
            tables: req_arr(doc, "tables")?
                .iter()
                .map(table_from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parses the JSON text of a document.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        BenchReport::from_json(&doc)
    }

    /// Writes the pretty-printed document to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }
}

fn labels_to_json(labels: &[(String, String)]) -> Json {
    Json::Obj(
        labels
            .iter()
            .map(|(k, v)| (k.clone(), Json::str(v)))
            .collect(),
    )
}

fn span_to_json(span: &SpanReport) -> Json {
    Json::obj(vec![
        ("id", Json::num(span.id)),
        ("parent", span.parent.map(Json::num).unwrap_or(Json::Null)),
        ("name", Json::str(&span.name)),
        ("start_us", Json::num(span.start_us)),
        ("end_us", Json::num(span.end_us)),
        (
            "attrs",
            Json::Obj(
                span.attrs
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v)))
                    .collect(),
            ),
        ),
    ])
}

fn trace_to_json(trace: &TraceReport) -> Json {
    Json::obj(vec![
        ("engine", Json::str(&trace.engine)),
        (
            "spans",
            Json::Arr(trace.spans.iter().map(span_to_json).collect()),
        ),
    ])
}

fn migration_to_json(m: &MigrationSummary) -> Json {
    Json::obj(vec![
        ("engine", Json::str(&m.engine)),
        ("total_us", Json::num(m.total_us)),
        ("snapshot_us", Json::num(m.snapshot_us)),
        ("catchup_us", Json::num(m.catchup_us)),
        ("transfer_us", Json::num(m.transfer_us)),
        ("dual_us", Json::num(m.dual_us)),
        ("downtime_us", Json::num(m.downtime_us)),
        ("tuples_copied", Json::num(m.tuples_copied)),
        ("records_replayed", Json::num(m.records_replayed)),
        ("validation_conflicts", Json::num(m.validation_conflicts)),
        ("forced_aborts", Json::num(m.forced_aborts)),
        ("pulls", Json::num(m.pulls)),
        (
            "traces",
            Json::Arr(m.traces.iter().map(trace_to_json).collect()),
        ),
    ])
}

fn scenario_to_json(s: &ScenarioReport) -> Json {
    Json::obj(vec![
        ("name", Json::str(&s.name)),
        ("engine", Json::str(&s.engine)),
        ("commits", Json::num(s.commits)),
        ("migration_aborts", Json::num(s.migration_aborts)),
        ("ww_aborts", Json::num(s.ww_aborts)),
        ("other_aborts", Json::num(s.other_aborts)),
        ("base_latency_us", Json::num(s.base_latency_us)),
        ("latency_increase_us", Json::num(s.latency_increase_us)),
        (
            "tps",
            Json::Arr(s.tps.iter().map(|&v| Json::float(v)).collect()),
        ),
        (
            "events",
            Json::Arr(
                s.events
                    .iter()
                    .map(|(name, t)| {
                        Json::obj(vec![("name", Json::str(name)), ("t_s", Json::float(*t))])
                    })
                    .collect(),
            ),
        ),
        ("migration", migration_to_json(&s.migration)),
        (
            "counters",
            Json::Arr(
                s.counters
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::str(&c.name)),
                            ("labels", labels_to_json(&c.labels)),
                            ("kind", Json::str(&c.kind)),
                            ("value", Json::num(c.value)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn table_to_json(t: &TableSection) -> Json {
    Json::obj(vec![
        ("title", Json::str(&t.title)),
        (
            "headers",
            Json::Arr(t.headers.iter().map(Json::str).collect()),
        ),
        (
            "rows",
            Json::Arr(
                t.rows
                    .iter()
                    .map(|row| Json::Arr(row.iter().map(Json::str).collect()))
                    .collect(),
            ),
        ),
    ])
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    req(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    req(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an integer"))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn req_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    req(v, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} is not an array"))
}

fn labels_from_json(v: &Json) -> Result<Vec<(String, String)>, String> {
    match v {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("label {k:?} is not a string"))
            })
            .collect(),
        _ => Err("labels is not an object".to_string()),
    }
}

fn span_from_json(v: &Json) -> Result<SpanReport, String> {
    let parent = match req(v, "parent")? {
        Json::Null => None,
        other => Some(
            other
                .as_u64()
                .ok_or_else(|| "span parent is not an integer".to_string())?,
        ),
    };
    let attrs = match req(v, "attrs")? {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("attr {k:?} is not an integer"))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err("span attrs is not an object".to_string()),
    };
    Ok(SpanReport {
        id: req_u64(v, "id")?,
        parent,
        name: req_str(v, "name")?,
        start_us: req_u64(v, "start_us")?,
        end_us: req_u64(v, "end_us")?,
        attrs,
    })
}

fn trace_from_json(v: &Json) -> Result<TraceReport, String> {
    Ok(TraceReport {
        engine: req_str(v, "engine")?,
        spans: req_arr(v, "spans")?
            .iter()
            .map(span_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn migration_from_json(v: &Json) -> Result<MigrationSummary, String> {
    Ok(MigrationSummary {
        engine: req_str(v, "engine")?,
        total_us: req_u64(v, "total_us")?,
        snapshot_us: req_u64(v, "snapshot_us")?,
        catchup_us: req_u64(v, "catchup_us")?,
        transfer_us: req_u64(v, "transfer_us")?,
        dual_us: req_u64(v, "dual_us")?,
        downtime_us: req_u64(v, "downtime_us")?,
        tuples_copied: req_u64(v, "tuples_copied")?,
        records_replayed: req_u64(v, "records_replayed")?,
        validation_conflicts: req_u64(v, "validation_conflicts")?,
        forced_aborts: req_u64(v, "forced_aborts")?,
        pulls: req_u64(v, "pulls")?,
        traces: req_arr(v, "traces")?
            .iter()
            .map(trace_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn scenario_from_json(v: &Json) -> Result<ScenarioReport, String> {
    Ok(ScenarioReport {
        name: req_str(v, "name")?,
        engine: req_str(v, "engine")?,
        commits: req_u64(v, "commits")?,
        migration_aborts: req_u64(v, "migration_aborts")?,
        ww_aborts: req_u64(v, "ww_aborts")?,
        other_aborts: req_u64(v, "other_aborts")?,
        base_latency_us: req_u64(v, "base_latency_us")?,
        latency_increase_us: req_u64(v, "latency_increase_us")?,
        tps: req_arr(v, "tps")?
            .iter()
            .map(|n| {
                n.as_f64()
                    .ok_or_else(|| "tps entry is not a number".to_string())
            })
            .collect::<Result<_, _>>()?,
        events: req_arr(v, "events")?
            .iter()
            .map(|e| Ok((req_str(e, "name")?, req_f64(e, "t_s")?)))
            .collect::<Result<_, String>>()?,
        migration: migration_from_json(req(v, "migration")?)?,
        counters: req_arr(v, "counters")?
            .iter()
            .map(|c| {
                Ok(CounterReport {
                    name: req_str(c, "name")?,
                    labels: labels_from_json(req(c, "labels")?)?,
                    kind: req_str(c, "kind")?,
                    value: req_u64(c, "value")?,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

fn table_from_json(v: &Json) -> Result<TableSection, String> {
    let cell = |c: &Json| {
        c.as_str()
            .map(str::to_string)
            .ok_or_else(|| "table cell is not a string".to_string())
    };
    Ok(TableSection {
        title: req_str(v, "title")?,
        headers: req_arr(v, "headers")?
            .iter()
            .map(cell)
            .collect::<Result<_, _>>()?,
        rows: req_arr(v, "rows")?
            .iter()
            .map(|row| {
                row.as_array()
                    .ok_or_else(|| "table row is not an array".to_string())?
                    .iter()
                    .map(cell)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            title: "fig6".to_string(),
            scale: "quick".to_string(),
            scenarios: vec![ScenarioReport {
                name: "hybrid A".to_string(),
                engine: "remus".to_string(),
                commits: 1200,
                migration_aborts: 0,
                ww_aborts: 3,
                other_aborts: 1,
                base_latency_us: 850,
                latency_increase_us: 120,
                tps: vec![100.0, 101.5],
                events: vec![("consolidation start".to_string(), 2.5)],
                migration: MigrationSummary {
                    engine: "remus".to_string(),
                    total_us: 2_000_000,
                    snapshot_us: 900_000,
                    catchup_us: 100_000,
                    transfer_us: 50_000,
                    dual_us: 950_000,
                    downtime_us: 0,
                    tuples_copied: 4096,
                    records_replayed: 512,
                    validation_conflicts: 0,
                    forced_aborts: 0,
                    pulls: 0,
                    traces: vec![TraceReport {
                        engine: "remus".to_string(),
                        spans: vec![
                            SpanReport {
                                id: 0,
                                parent: None,
                                name: "snapshot_copy".to_string(),
                                start_us: 0,
                                end_us: 900_000,
                                attrs: vec![("tuples_copied".to_string(), 4096)],
                            },
                            SpanReport {
                                id: 1,
                                parent: Some(0),
                                name: "scan".to_string(),
                                start_us: 10,
                                end_us: 899_000,
                                attrs: vec![],
                            },
                        ],
                    }],
                },
                counters: vec![CounterReport {
                    name: "txn.2pc_hops".to_string(),
                    labels: vec![("node".to_string(), "0".to_string())],
                    kind: "counter".to_string(),
                    value: 42,
                }],
            }],
            tables: vec![TableSection::new(
                "latency",
                &["workload", "remus_ms"],
                vec![vec!["hybrid A".to_string(), "0.12".to_string()]],
            )],
        }
    }

    #[test]
    fn report_round_trips_through_json_text() {
        let report = sample_report();
        let text = report.to_json().to_pretty();
        let back = BenchReport::parse(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn schema_version_is_enforced() {
        let mut doc = sample_report().to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "schema_version" {
                    *v = Json::num(99);
                }
            }
        }
        let err = BenchReport::from_json(&doc).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = BenchReport::parse(r#"{"schema_version": 1}"#).unwrap_err();
        assert!(err.contains("title"), "{err}");
    }

    #[test]
    fn root_phase_extraction_skips_children() {
        let report = sample_report();
        let trace = &report.scenarios[0].migration.traces[0];
        assert_eq!(trace.root_phases(), vec!["snapshot_copy"]);
    }
}
