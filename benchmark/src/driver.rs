//! The load generator: one thread per connection, closed loop or paced,
//! plus the thread that keeps shards migrating.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus::cluster::{Cluster, Session};
use remus::common::{DbError, NodeId, ShardId, Timestamp};
use remus::migration::{MigrationEngine, MigrationReport, MigrationTask, RemusEngine};

use crate::db::{execute, Db, Schema, NODES};
use crate::ops::{Op, OpGen, Workload, HOT_SET, TPCC_DISTRICTS, TPCC_WAREHOUSES, YCSB_TRACK_EVERY};
use crate::stats::SliceRecorder;
use crate::trace::{NoTrace, SpanKind, SpanLog, Tracer};

/// Attempts per operation before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 16;
/// An operation slower than this counts as failed even if it committed.
pub const SLOW_OP: Duration = Duration::from_secs(1);
/// Slices the measured window is cut into; every end-to-end number is the
/// median of the per-slice values, so one stolen slice does not move it.
pub const SLICES: usize = 50;

/// The measured window: `SLICES` equal slices starting at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// First instant of slice 0 (end of warm-up).
    pub start: Instant,
    /// Length of one slice.
    pub slice: Duration,
    /// When set, odd slices run with tracing on and even slices with it
    /// off, so the two are compared under the same drift.
    pub trace: bool,
}

impl Window {
    /// First instant after the last slice.
    pub fn end(&self) -> Instant {
        self.start + self.slice * SLICES as u32
    }

    /// The slice containing `t`, or `None` before the start / after the end.
    pub fn slice_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.start)?;
        let i = (since.as_nanos() / self.slice.as_nanos()) as usize;
        (i < SLICES).then_some(i)
    }

    /// True when an operation starting at `t` is traced.
    pub fn traced_at(&self, t: Instant) -> bool {
        self.trace && self.slice_of(t).is_some_and(|s| s % 2 == 1)
    }
}

/// What one connection must find in the database afterwards.
#[derive(Debug)]
pub enum Tracker {
    /// Tracked key -> `(commit timestamp, tag)` of this connection's last
    /// committed update.
    Ycsb(HashMap<u64, (Timestamp, u64)>),
    /// Committed new-orders per district and order lines in total.
    Tpcc {
        /// Indexed by `w * TPCC_DISTRICTS + d`.
        orders: Vec<u64>,
        /// Order-line rows inserted.
        lines: u64,
    },
    /// Committed increments per hot key.
    Hot(Vec<u64>),
}

impl Tracker {
    fn new(workload: Workload) -> Tracker {
        match workload {
            Workload::YcsbSteady | Workload::YcsbMigrate => Tracker::Ycsb(HashMap::new()),
            Workload::TpccSteady => Tracker::Tpcc {
                orders: vec![0; (TPCC_WAREHOUSES * TPCC_DISTRICTS) as usize],
                lines: 0,
            },
            Workload::HotSsi => Tracker::Hot(vec![0; HOT_SET as usize]),
        }
    }

    fn on_commit(&mut self, op: &Op, cts: Timestamp) {
        match (self, op) {
            (Tracker::Ycsb(map), Op::Update { key, tag }) if key % YCSB_TRACK_EVERY == 0 => {
                map.insert(*key, (cts, *tag));
            }
            (Tracker::Tpcc { orders, lines }, Op::NewOrder { w, d, lines: l, .. }) => {
                orders[(*w * TPCC_DISTRICTS + *d) as usize] += 1;
                *lines += l.len() as u64;
            }
            (Tracker::Hot(incs), Op::HotRmw { reads }) => incs[reads[0] as usize] += 1,
            _ => {}
        }
    }
}

/// Per-slice operation tallies of one connection.
#[derive(Debug, Default, Clone, Copy)]
pub struct SliceCounts {
    /// Operations that committed within the latency limit.
    pub commits: u64,
    /// Transaction attempts those and the failed operations took.
    pub attempts: u64,
    /// Operations that exhausted retries, hit a non-retryable error, or
    /// took longer than [`SLOW_OP`].
    pub failed: u64,
}

/// Everything one connection measured.
#[derive(Debug)]
pub struct ConnResult {
    /// Service latency (begin to commit acknowledged, retries included) of
    /// committed operations, nanoseconds, by slice of completion.
    pub latency: SliceRecorder,
    /// Per-slice tallies.
    pub counts: [SliceCounts; SLICES],
    /// Migration-induced aborts (`MigrationAbort`, `NotOwner`) at any
    /// time, warm-up included. The paper claims 0.
    pub migration_aborts: u64,
    /// Paced workloads: latency from the intended tick time, nanoseconds
    /// (the coordinated-omission-safe view; a diagnostic here).
    pub co_latency: Vec<u64>,
    /// Paced workloads: how late each tick woke, nanoseconds.
    pub gen_late: Vec<u64>,
    /// Spans of the traced slices.
    pub spans: SpanLog,
    /// Nanoseconds and calls spent generating operations in traced slices.
    pub gen_ns: (u64, u64),
    /// Expected database state.
    pub tracker: Tracker,
    /// Highest commit timestamp produced: the causal token for read-back.
    pub last_cts: Timestamp,
    /// The first failure seen, for the report.
    pub first_failure: Option<String>,
}

enum Outcome {
    Committed(Timestamp),
    Failed(DbError),
}

/// Exponential backoff with full jitter: waits a random time below
/// `2^attempt` microseconds (spinning when short, sleeping when long), so
/// sixteen attempts span up to ~65 ms. Without jitter two connections
/// retrying conflicting serializable transactions abort each other in
/// lockstep, and a transaction that keeps meeting the retained SIREAD
/// entries of a committed pivot only gets through after the next GC tick
/// retires them. The wait is part of the operation's latency.
fn back_off(attempt: u32, rng: &mut SmallRng) {
    let wait = Duration::from_nanos(rng.gen_range(0..1_000u64 << attempt));
    if wait > Duration::from_micros(100) {
        std::thread::sleep(wait);
        return;
    }
    let start = Instant::now();
    while start.elapsed() < wait {
        std::hint::spin_loop();
    }
}

/// Runs `op` to commit: each attempt is one transaction; a retryable abort
/// backs off and retries the same operation.
fn run_op<T: Tracer>(
    session: &Session,
    schema: &Schema,
    op: &Op,
    tr: &mut T,
    migration_aborts: &mut u64,
    backoff: &mut SmallRng,
) -> (Outcome, u32) {
    let mut last = DbError::Internal("no attempt made".into());
    for attempt in 1..=MAX_ATTEMPTS {
        let mut txn = tr.span(SpanKind::Begin, || session.begin());
        let err = match execute(schema, op, &mut txn, tr) {
            Ok(()) => match tr.span(SpanKind::Commit, || txn.commit()) {
                Ok(cts) => return (Outcome::Committed(cts), attempt),
                Err(e) => e,
            },
            Err(e) => {
                tr.span(SpanKind::Abort, || txn.abort());
                e
            }
        };
        *migration_aborts += err.is_migration_induced() as u64;
        if !err.is_retryable() {
            return (Outcome::Failed(err), attempt);
        }
        last = err;
        if attempt < MAX_ATTEMPTS {
            back_off(attempt, backoff);
        }
    }
    (Outcome::Failed(last), MAX_ATTEMPTS)
}

/// One connection's whole life: warm-up, the measured window, then stop.
pub fn run_connection(
    db: &Db,
    workload: Workload,
    seed: u64,
    conn: usize,
    window: Window,
) -> ConnResult {
    let session = Session::connect(&db.cluster, NodeId(workload.coordinator(conn, NODES)));
    let mut gen = OpGen::new(workload, seed, conn);
    // Its own stream: drawing jitter from `gen` would make the operations
    // depend on which attempts aborted.
    let mut backoff = SmallRng::seed_from_u64(seed ^ ((conn as u64 + 1) << 32));
    let slice_secs = window.slice.as_secs_f64();
    let span_capacity = if window.trace {
        (slice_secs * SLICES as f64 * 300_000.0) as usize
    } else {
        0
    };
    let mut r = ConnResult {
        latency: SliceRecorder::new(SLICES, (slice_secs * 150_000.0) as usize),
        counts: [SliceCounts::default(); SLICES],
        migration_aborts: 0,
        co_latency: Vec::new(),
        gen_late: Vec::new(),
        spans: SpanLog::new(window.start, span_capacity),
        gen_ns: (0, 0),
        tracker: Tracker::new(workload),
        last_cts: Timestamp::INVALID,
        first_failure: None,
    };
    let end = window.end();
    let pacing = workload.pacing();
    let base = Instant::now();
    let mut tick = 0u32;
    let mut seq = 0u32;
    let mut last_end = base;
    'run: loop {
        // Paced: sleep to the next tick, then issue one burst. Ticks are
        // absolute, so a late wake-up is followed by a shorter sleep and
        // the offered rate stays fixed.
        let (burst, due) = match pacing {
            None => (1, None),
            Some((period, burst)) => {
                let due = base + period * tick;
                tick += 1;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let woke = Instant::now();
                if window.slice_of(woke).is_some() {
                    r.gen_late
                        .push(woke.saturating_duration_since(due).as_nanos() as u64);
                }
                (burst, Some(due))
            }
        };
        for _ in 0..burst {
            let traced = window.traced_at(last_end);
            let gen_start = traced.then(Instant::now);
            let op = gen.next_op();
            let t0 = Instant::now();
            if t0 >= end {
                break 'run;
            }
            if let Some(g) = gen_start {
                r.gen_ns.0 += t0.duration_since(g).as_nanos() as u64;
                r.gen_ns.1 += 1;
            }
            let aborted = &mut r.migration_aborts;
            let (outcome, attempts) = if traced {
                r.spans.begin_op(seq);
                run_op(
                    &session,
                    &db.schema,
                    &op,
                    &mut r.spans,
                    aborted,
                    &mut backoff,
                )
            } else {
                run_op(
                    &session,
                    &db.schema,
                    &op,
                    &mut NoTrace,
                    aborted,
                    &mut backoff,
                )
            };
            let t1 = Instant::now();
            if traced {
                r.spans.end_op();
            }
            seq = seq.wrapping_add(1);
            last_end = t1;
            let latency = t1.duration_since(t0);
            // The database changed whether or not the window is open.
            if let Outcome::Committed(cts) = &outcome {
                r.tracker.on_commit(&op, *cts);
                r.last_cts = r.last_cts.max(*cts);
            }
            let Some(slice) = window.slice_of(t1) else {
                continue; // warm-up, or the operation the end cut short
            };
            let counts = &mut r.counts[slice];
            counts.attempts += attempts as u64;
            match outcome {
                Outcome::Committed(_) if latency <= SLOW_OP => {
                    counts.commits += 1;
                    r.latency.record(slice, latency.as_nanos() as u64);
                    if let Some(due) = due {
                        r.co_latency
                            .push(t1.saturating_duration_since(due).as_nanos() as u64);
                    }
                }
                Outcome::Committed(_) => {
                    counts.failed += 1;
                    r.first_failure
                        .get_or_insert_with(|| format!("{op:?} took {latency:?}"));
                }
                Outcome::Failed(e) => {
                    counts.failed += 1;
                    r.first_failure.get_or_insert_with(|| {
                        format!("{op:?} failed after {attempts} attempts: {e}")
                    });
                }
            }
        }
    }
    r
}

/// One finished single-shard migration.
#[derive(Debug)]
pub struct MigrationSample {
    /// When it completed.
    pub end: Instant,
    /// What the engine reported, span tree included.
    pub report: MigrationReport,
}

/// Moves `shards` back and forth between `home` and `away` with the Remus
/// engine, one shard at a time, until `stop` is raised.
pub fn migrate_until_stopped(
    cluster: &Arc<Cluster>,
    shards: &[ShardId],
    (home, away): (NodeId, NodeId),
    stop: &AtomicBool,
) -> Result<Vec<MigrationSample>, DbError> {
    let engine = RemusEngine::new();
    let mut out = Vec::new();
    let (mut source, mut dest) = (home, away);
    loop {
        for &shard in shards {
            if stop.load(Ordering::Relaxed) {
                return Ok(out);
            }
            let report = engine.migrate(cluster, &MigrationTask::single(shard, source, dest))?;
            out.push(MigrationSample {
                end: Instant::now(),
                report,
            });
        }
        std::mem::swap(&mut source, &mut dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(trace: bool) -> Window {
        Window {
            start: Instant::now(),
            slice: Duration::from_millis(100),
            trace,
        }
    }

    #[test]
    fn window_maps_instants_to_slices() {
        let w = window(false);
        assert_eq!(w.slice_of(w.start), Some(0));
        assert_eq!(w.slice_of(w.start + Duration::from_millis(250)), Some(2));
        assert_eq!(w.slice_of(w.end()), None);
        assert_eq!(
            w.end() - w.start,
            Duration::from_millis(100) * SLICES as u32
        );
        if let Some(before) = w.start.checked_sub(Duration::from_millis(1)) {
            assert_eq!(w.slice_of(before), None);
        }
    }

    #[test]
    fn only_odd_slices_of_a_trace_window_are_traced() {
        let w = window(true);
        assert!(!w.traced_at(w.start + Duration::from_millis(50)));
        assert!(w.traced_at(w.start + Duration::from_millis(150)));
        assert!(!w.traced_at(w.end()));
        assert!(!window(false).traced_at(w.start + Duration::from_millis(150)));
    }
}
