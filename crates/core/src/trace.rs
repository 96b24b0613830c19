//! Structured phase spans for migrations.
//!
//! Every engine records a span tree while it runs: one root span per
//! protocol phase (snapshot copy, catch-up, the sync barrier, `T_m`,
//! dual execution, cleanup, ...) with optional child spans for
//! sub-steps and numeric attributes for work counts (tuples copied,
//! replay lag samples, `LSN_unsync`, ...). The finished
//! [`MigrationTrace`] travels on the [`MigrationReport`] so benches can
//! serialize it and tests (including the chaos harness) can assert the
//! tree is well formed and the phases ran in protocol order.
//!
//! [`MigrationReport`]: crate::report::MigrationReport

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identifier of a span inside one trace (its index in `spans`).
pub type SpanId = u32;

/// One timed phase or sub-step of a migration.
///
/// `start`/`end` are offsets from the trace epoch (the instant the
/// engine's `migrate` began), so spans within a trace are directly
/// comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id (== its index in [`MigrationTrace::spans`]).
    pub id: SpanId,
    /// Enclosing span, `None` for protocol phases.
    pub parent: Option<SpanId>,
    /// Phase name, e.g. `"snapshot_copy"` or `"ts_unsync_drain"`.
    pub name: &'static str,
    /// Offset from the trace epoch at which the span opened.
    pub start: Duration,
    /// Offset at which the span closed; `None` while still open.
    pub end: Option<Duration>,
    /// Numeric attributes (work counts, LSNs, lag samples).
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Attribute value by key, if recorded.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// The span's duration. Zero while the span is still open.
    pub fn duration(&self) -> Duration {
        self.end
            .map(|e| e.saturating_sub(self.start))
            .unwrap_or(Duration::ZERO)
    }
}

/// The finished span tree of one migration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MigrationTrace {
    /// Engine that produced the trace.
    pub engine: &'static str,
    /// All spans, in creation (start) order.
    pub spans: Vec<Span>,
}

impl MigrationTrace {
    /// Names of the root (phase) spans in start order.
    pub fn root_phases(&self) -> Vec<&'static str> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name)
            .collect()
    }

    /// First span with `name`, searching the whole tree.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Direct children of `parent`, in start order.
    pub fn children(&self, parent: SpanId) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .collect()
    }

    /// Validates the tree: ids match positions, every span is closed
    /// with `end >= start`, parents exist, precede their children, and
    /// enclose them in time, and root spans do not regress (each phase
    /// starts no earlier than the previous one).
    pub fn check_well_formed(&self) -> Result<(), String> {
        let mut prev_root_start = Duration::ZERO;
        for (idx, span) in self.spans.iter().enumerate() {
            let ctx =
                |msg: &str| format!("{} span {} ({}): {msg}", self.engine, span.id, span.name);
            if span.id as usize != idx {
                return Err(ctx(&format!("id does not match position {idx}")));
            }
            let Some(end) = span.end else {
                return Err(ctx("left open"));
            };
            if end < span.start {
                return Err(ctx(&format!(
                    "ends {end:?} before it starts {:?}",
                    span.start
                )));
            }
            if let Some(pid) = span.parent {
                if pid >= span.id {
                    return Err(ctx(&format!("parent {pid} does not precede it")));
                }
                let parent = &self.spans[pid as usize];
                if span.start < parent.start {
                    return Err(ctx(&format!("starts before parent {}", parent.name)));
                }
                match parent.end {
                    Some(pend) if end <= pend => {}
                    _ => return Err(ctx(&format!("outlives parent {}", parent.name))),
                }
            } else {
                if span.start < prev_root_start {
                    return Err(ctx("phase starts before the previous phase"));
                }
                prev_root_start = span.start;
            }
        }
        Ok(())
    }
}

/// Records a span tree while a migration runs.
///
/// Cheap and thread-safe: opening/closing a span is one short mutex
/// acquisition, so background phases (propagation, replay, pull
/// workers) may record through a shared reference.
#[derive(Debug)]
pub struct TraceRecorder {
    engine: &'static str,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl TraceRecorder {
    /// A recorder whose epoch is "now" (call at the top of `migrate`).
    pub fn new(engine: &'static str) -> Self {
        TraceRecorder {
            engine,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn open(&self, parent: Option<SpanId>, name: &'static str) -> SpanId {
        let mut spans = self.spans.lock().unwrap();
        let id = spans.len() as SpanId;
        spans.push(Span {
            id,
            parent,
            name,
            start: self.epoch.elapsed(),
            end: None,
            attrs: Vec::new(),
        });
        id
    }

    /// Opens a root (phase) span.
    pub fn start(&self, name: &'static str) -> SpanId {
        self.open(None, name)
    }

    /// Opens a child span under `parent`.
    pub fn child(&self, parent: SpanId, name: &'static str) -> SpanId {
        self.open(Some(parent), name)
    }

    /// Closes `id`. Closing twice keeps the first end time.
    pub fn end(&self, id: SpanId) {
        let elapsed = self.epoch.elapsed();
        let mut spans = self.spans.lock().unwrap();
        let span = &mut spans[id as usize];
        if span.end.is_none() {
            span.end = Some(elapsed);
        }
    }

    /// Attaches (or overwrites) a numeric attribute on `id`.
    pub fn attr(&self, id: SpanId, key: &'static str, value: u64) {
        let mut spans = self.spans.lock().unwrap();
        let span = &mut spans[id as usize];
        match span.attrs.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => span.attrs.push((key, value)),
        }
    }

    /// Takes the finished trace out of the recorder.
    pub fn finish(&self) -> MigrationTrace {
        MigrationTrace {
            engine: self.engine,
            spans: std::mem::take(&mut *self.spans.lock().unwrap()),
        }
    }
}

/// The canonical root-phase sequence each engine emits on a successful
/// migration, in protocol order. Tests and the chaos checker compare
/// recorded traces against this.
pub fn expected_phases(engine: &str) -> Option<&'static [&'static str]> {
    match engine {
        "remus" => Some(&[
            "snapshot_copy",
            "catchup",
            "sync_barrier",
            "tm_2pc",
            "dual_execution",
            "cleanup",
        ]),
        "lock-and-abort" => Some(&[
            "snapshot_copy",
            "catchup",
            "lock_shards",
            "final_replay",
            "tm_2pc",
            "cleanup",
        ]),
        "wait-and-remaster" => Some(&[
            "snapshot_copy",
            "catchup",
            "drain",
            "final_replay",
            "tm_2pc",
            "cleanup",
        ]),
        "squall" => Some(&["chunk_map", "tm_2pc", "pulls", "cleanup"]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_builds_a_well_formed_tree() {
        let rec = TraceRecorder::new("remus");
        let a = rec.start("snapshot_copy");
        rec.attr(a, "tuples_copied", 42);
        rec.end(a);
        let b = rec.start("sync_barrier");
        let c = rec.child(b, "ts_unsync_drain");
        rec.end(c);
        rec.end(b);
        let trace = rec.finish();
        trace.check_well_formed().unwrap();
        assert_eq!(trace.root_phases(), vec!["snapshot_copy", "sync_barrier"]);
        assert_eq!(
            trace.span("snapshot_copy").unwrap().attr("tuples_copied"),
            Some(42)
        );
        assert_eq!(trace.children(b).len(), 1);
        assert_eq!(trace.children(b)[0].name, "ts_unsync_drain");
    }

    #[test]
    fn unclosed_span_fails_the_check() {
        let rec = TraceRecorder::new("remus");
        rec.start("snapshot_copy");
        let trace = rec.finish();
        let err = trace.check_well_formed().unwrap_err();
        assert!(err.contains("left open"), "{err}");
    }

    #[test]
    fn child_outliving_parent_fails_the_check() {
        let rec = TraceRecorder::new("remus");
        let p = rec.start("sync_barrier");
        let c = rec.child(p, "ts_unsync_drain");
        rec.end(p);
        std::thread::sleep(Duration::from_millis(1));
        rec.end(c);
        let trace = rec.finish();
        let err = trace.check_well_formed().unwrap_err();
        assert!(err.contains("outlives parent"), "{err}");
    }

    #[test]
    fn double_end_keeps_first_timestamp() {
        let rec = TraceRecorder::new("x");
        let a = rec.start("phase");
        rec.end(a);
        std::thread::sleep(Duration::from_millis(20));
        rec.end(a);
        let trace = rec.finish();
        // The second close (20ms later) must not move the end time.
        assert!(trace.spans[0].end.unwrap() < Duration::from_millis(20));
        trace.check_well_formed().unwrap();
    }

    #[test]
    fn attr_overwrites_in_place() {
        let rec = TraceRecorder::new("x");
        let a = rec.start("phase");
        rec.attr(a, "lag", 10);
        rec.attr(a, "lag", 3);
        rec.end(a);
        let trace = rec.finish();
        assert_eq!(trace.span("phase").unwrap().attrs, vec![("lag", 3)]);
    }

    #[test]
    fn expected_phases_cover_all_engines() {
        for engine in ["remus", "lock-and-abort", "wait-and-remaster", "squall"] {
            let phases = expected_phases(engine).unwrap();
            assert!(phases.contains(&"tm_2pc"), "{engine} misses tm_2pc");
        }
        assert!(expected_phases("unknown").is_none());
    }
}
