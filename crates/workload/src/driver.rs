//! What a client fleet runs and what it records: the [`Workload`] trait
//! (one transaction per arrival) and the [`RunMetrics`] every
//! [`crate::engine::OpenLoopEngine`] worker records into — per-second
//! throughput timeline, abort classification, and before/during-migration
//! latency buckets (Table 3).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use remus_cluster::SessionTxn;
use remus_common::metrics::{AbortCounters, EventMarks, LatencyStat, Timeline};
use remus_common::{ClientId, DbError, DbResult};

/// A benchmark workload: one transaction per arrival.
pub trait Workload: Send + Sync + 'static {
    /// Executes one transaction on the session. Returning `Err` counts as
    /// an abort of the class carried by the error; the engine immediately
    /// proceeds to the next arrival (the standard retry loop).
    fn run_once(
        &self,
        client: ClientId,
        txn: &mut SessionTxn<'_>,
        rng: &mut SmallRng,
    ) -> DbResult<()>;
}

impl<F> Workload for F
where
    F: Fn(ClientId, &mut SessionTxn<'_>, &mut SmallRng) -> DbResult<()> + Send + Sync + 'static,
{
    fn run_once(
        &self,
        client: ClientId,
        txn: &mut SessionTxn<'_>,
        rng: &mut SmallRng,
    ) -> DbResult<()> {
        self(client, txn, rng)
    }
}

/// Metrics shared between the engine's workers and the harness.
#[derive(Debug)]
pub struct RunMetrics {
    /// Committed transactions per second.
    pub timeline: Timeline,
    /// Named event overlays (migration start/end etc.).
    pub marks: EventMarks,
    /// Commit/abort classification.
    pub counters: AbortCounters,
    /// Commit latency outside migrations.
    pub latency_normal: LatencyStat,
    /// Commit latency while a migration is marked active.
    pub latency_migration: LatencyStat,
    migration_active: AtomicBool,
}

impl RunMetrics {
    /// Fresh metrics anchored now.
    pub fn new() -> Self {
        RunMetrics {
            timeline: Timeline::per_second(),
            marks: EventMarks::new(),
            counters: AbortCounters::new(),
            latency_normal: LatencyStat::new(),
            latency_migration: LatencyStat::new(),
            migration_active: AtomicBool::new(false),
        }
    }

    /// Flags the migration window for latency bucketing and records a mark.
    pub fn set_migration_active(&self, active: bool) {
        self.migration_active.store(active, Ordering::SeqCst);
        self.marks.mark(
            if active {
                "migration start"
            } else {
                "migration end"
            },
            &self.timeline,
        );
    }

    /// True while a migration is marked active.
    pub fn migration_active(&self) -> bool {
        self.migration_active.load(Ordering::SeqCst)
    }

    /// Average latency increase of the migration bucket over the normal
    /// bucket (Table 3); zero when either bucket is empty.
    pub fn latency_increase(&self) -> Duration {
        if self.latency_normal.count() == 0 || self.latency_migration.count() == 0 {
            return Duration::ZERO;
        }
        self.latency_migration
            .mean()
            .saturating_sub(self.latency_normal.mean())
    }

    /// Records one transaction outcome with an already-measured latency —
    /// for open-loop callers this is intended-arrival → completion (the
    /// coordinated-omission-safe definition), for closed-loop callers it
    /// is service time.
    pub fn record_outcome_with_latency(&self, latency: Duration, result: &DbResult<()>) {
        match result {
            Ok(()) => {
                self.timeline.record();
                self.counters.commit();
                if self.migration_active() {
                    self.latency_migration.record(latency);
                } else {
                    self.latency_normal.record(latency);
                }
            }
            Err(e) if e.is_migration_induced() => self.counters.migration_abort(),
            Err(DbError::WwConflict { .. }) => self.counters.ww_abort(),
            Err(_) => self.counters.other_abort(),
        }
    }

    /// Service-time convenience: records the outcome with latency measured
    /// from `started` to now.
    pub fn record_outcome(&self, started: Instant, result: &DbResult<()>) {
        self.record_outcome_with_latency(started.elapsed(), result);
    }
}

impl Default for RunMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::NodeId;

    #[test]
    fn latency_buckets_switch_with_migration_flag() {
        let metrics = RunMetrics::new();
        metrics.record_outcome(Instant::now(), &Ok(()));
        assert_eq!(metrics.latency_normal.count(), 1);
        metrics.set_migration_active(true);
        metrics.record_outcome(Instant::now(), &Ok(()));
        assert_eq!(metrics.latency_migration.count(), 1);
        metrics.set_migration_active(false);
        assert_eq!(metrics.marks.all().len(), 2);
    }

    #[test]
    fn abort_classification() {
        use remus_common::{ShardId, TxnId};
        let metrics = RunMetrics::new();
        metrics.record_outcome(
            Instant::now(),
            &Err(DbError::WwConflict {
                txn: TxnId(1),
                other: TxnId(2),
            }),
        );
        metrics.record_outcome(
            Instant::now(),
            &Err(DbError::NotOwner {
                shard: ShardId(1),
                node: NodeId(0),
            }),
        );
        metrics.record_outcome(Instant::now(), &Err(DbError::KeyNotFound));
        assert_eq!(metrics.counters.ww_aborts(), 1);
        assert_eq!(metrics.counters.migration_aborts(), 1);
        assert_eq!(metrics.counters.other_aborts(), 1);
    }

    #[test]
    fn latency_increase_requires_both_buckets() {
        let metrics = RunMetrics::new();
        assert_eq!(metrics.latency_increase(), Duration::ZERO);
        metrics.latency_normal.record(Duration::from_millis(1));
        metrics.latency_migration.record(Duration::from_millis(4));
        assert!(metrics.latency_increase() >= Duration::from_millis(2));
    }
}
