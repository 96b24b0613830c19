//! Driver-side spans around every call into the cluster.
//!
//! The program under test has no foreground tracing, so the benchmark
//! records a span at the only boundary it can see: each `Session` /
//! `SessionTxn` call. Spans live in memory and are reduced (or written out
//! with `--spans`) after the window closes. An operation's root span is
//! [`SpanKind::Op`]; its self time is what the driver spent between calls.

use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// A whole operation: first `begin` to commit acknowledged, retries
    /// included. Parent of every other span with the same `op`.
    Op = 0,
    /// `Session::begin` (timestamp fetch, snapshot pin).
    Begin = 1,
    /// `SessionTxn::read` / `read_at`.
    Read = 2,
    /// `SessionTxn::update` / `update_at`.
    Update = 3,
    /// `SessionTxn::insert` / `insert_at`.
    Insert = 4,
    /// `SessionTxn::commit`.
    Commit = 5,
    /// `SessionTxn::abort` after a failed statement.
    Abort = 6,
}

impl SpanKind {
    /// Lower-case name, as used in metric names and the span dump.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::Begin => "begin",
            SpanKind::Read => "read",
            SpanKind::Update => "update",
            SpanKind::Insert => "insert",
            SpanKind::Commit => "commit",
            SpanKind::Abort => "abort",
        }
    }
}

/// One recorded span. `op` identifies the operation (the connection's
/// sequence number), so the spans of one request share an identifier and
/// every non-`Op` span's parent is the `Op` span with the same `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Nanoseconds from the log's epoch to the span's start.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u32,
    /// Operation sequence number on this connection.
    pub op: u32,
    /// What the span covers.
    pub kind: SpanKind,
}

/// Wraps calls into the cluster; the untraced implementation compiles away.
pub trait Tracer {
    /// Runs `f` inside a span of `kind`.
    fn span<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R;
}

/// Tracing off: calls `f` and nothing else.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn span<R>(&mut self, _kind: SpanKind, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Tracing on: an in-memory span log for one connection.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// The operation spans are currently attributed to.
    op: u32,
    /// Index of the current operation's first span.
    op_first: usize,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log with room for `capacity` spans; offsets count from
    /// `epoch`.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        SpanLog {
            epoch,
            op: 0,
            op_first: 0,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Attributes the spans that follow to operation `op`.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
        self.op_first = self.spans.len();
    }

    /// Closes the current operation with its root span: from the start of
    /// its first call to the return of its last, so the root's self time is
    /// the driver's work between calls and not the clock reads around them.
    pub fn end_op(&mut self) {
        let (Some(first), Some(last)) = (self.spans.get(self.op_first), self.spans.last()) else {
            return;
        };
        let start_ns = first.start_ns;
        let end_ns = last.start_ns + last.dur_ns as u64;
        self.spans.push(Span {
            start_ns,
            dur_ns: (end_ns - start_ns) as u32,
            op: self.op,
            kind: SpanKind::Op,
        });
    }

    /// Records a finished span.
    #[inline]
    fn push(&mut self, kind: SpanKind, start: Instant, end: Instant) {
        self.spans.push(Span {
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u32,
            op: self.op,
            kind,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Tracer for SpanLog {
    #[inline]
    fn span<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.push(kind, start, Instant::now());
        r
    }
}

/// Number of [`SpanKind`]s; arrays below are indexed by discriminant.
const KINDS: usize = 7;

/// Per-kind reduction of one or more span logs.
#[derive(Debug, Default, Clone)]
pub struct SpanSummary {
    /// Spans seen, by kind discriminant.
    pub count: [u64; KINDS],
    /// Summed duration in nanoseconds, by kind discriminant.
    pub total_ns: [u64; KINDS],
    /// Median duration in nanoseconds, by kind discriminant.
    pub median_ns: [f64; KINDS],
}

impl SpanSummary {
    /// Reduces `spans`.
    pub fn of<'a>(spans: impl Iterator<Item = &'a Span>) -> SpanSummary {
        let mut by_kind: [Vec<u64>; KINDS] = Default::default();
        for s in spans {
            by_kind[s.kind as usize].push(s.dur_ns as u64);
        }
        let mut out = SpanSummary::default();
        for (k, durs) in by_kind.iter_mut().enumerate() {
            out.count[k] = durs.len() as u64;
            out.total_ns[k] = durs.iter().sum();
            out.median_ns[k] = crate::stats::median_u64(durs);
        }
        out
    }

    /// Share of operation time covered by child spans, in percent. The
    /// remainder is the `Op` spans' self time: driver work between calls.
    pub fn coverage_pct(&self) -> f64 {
        let op = self.total_ns[SpanKind::Op as usize];
        if op == 0 {
            return 0.0;
        }
        let children: u64 = self.total_ns[1..].iter().sum();
        100.0 * children as f64 / op as f64
    }

    /// Statement spans (read, update, insert) per operation.
    pub fn stmts_per_op(&self) -> f64 {
        let ops = self.count[SpanKind::Op as usize];
        if ops == 0 {
            return 0.0;
        }
        let stmts = self.count[SpanKind::Read as usize]
            + self.count[SpanKind::Update as usize]
            + self.count[SpanKind::Insert as usize];
        stmts as f64 / ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn no_trace_is_transparent() {
        assert_eq!(NoTrace.span(SpanKind::Read, || 41 + 1), 42);
    }

    #[test]
    fn span_log_records_kind_op_and_duration() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 8);
        log.begin_op(7);
        let v = log.span(SpanKind::Update, || {
            std::thread::sleep(Duration::from_millis(2));
            5
        });
        assert_eq!(v, 5);
        let s = log.spans()[0];
        assert_eq!((s.kind, s.op), (SpanKind::Update, 7));
        assert!(s.dur_ns >= 2_000_000);
    }

    #[test]
    fn summary_computes_coverage_and_statements() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 8);
        let at = |ns: u64| epoch + Duration::from_nanos(ns);
        log.begin_op(3);
        log.push(SpanKind::Begin, at(0), at(100));
        log.push(SpanKind::Read, at(150), at(550));
        log.push(SpanKind::Commit, at(600), at(1000));
        log.end_op();
        let root = *log.spans().last().unwrap();
        assert_eq!((root.kind, root.op), (SpanKind::Op, 3));
        assert_eq!((root.start_ns, root.dur_ns), (0, 1000));
        let sum = SpanSummary::of(log.spans().iter());
        assert_eq!(sum.count[SpanKind::Op as usize], 1);
        assert!((sum.coverage_pct() - 90.0).abs() < 1e-9);
        assert_eq!(sum.stmts_per_op(), 1.0);
        assert_eq!(sum.median_ns[SpanKind::Read as usize], 400.0);
    }
}
