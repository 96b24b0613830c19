//! The benchmark driver facade over the open-loop engine.
//!
//! [`Driver`] keeps the old thread-per-client API (`start`,
//! `start_with_think`, `run_for`, `stop`) but is now a thin wrapper over
//! [`crate::engine::OpenLoopEngine`]. One behavioral fix rides along:
//!
//! * **Coordinated omission**: with a think time, clients used to sleep
//!   `think` *after* each completion and measure service time from the
//!   post-sleep `Instant::now()` — a stalled server paused the load and
//!   the queueing delay never reached p99. `think > 0` now means a
//!   fixed-rate *open-loop* schedule of period `think`, with latency
//!   recorded from the intended arrival, so a stall inflates every sample
//!   that was due while it lasted.
//!
//! `think == 0` keeps true closed-loop semantics (latency = service time):
//! with no schedule there is no intended arrival to measure against.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use remus_cluster::{Cluster, SessionTxn};
use remus_common::metrics::{AbortCounters, EventMarks, LatencyStat, Timeline};
use remus_common::{ClientId, DbError, DbResult};

use crate::engine::{EngineConfig, EngineReport, OpenLoopEngine, Pacing};

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

/// Run seed of the facade driver: the old driver's client-rng constant, so
/// workload key streams stay in the same family across the rewrite.
const DRIVER_SEED: u64 = 0x5EED;

/// A running client fleet behind the legacy driver API.
pub struct Driver {
    /// Shared metrics.
    pub metrics: Arc<RunMetrics>,
    engine: Option<OpenLoopEngine>,
}

impl Driver {
    /// Starts `clients` closed-loop clients running `workload` with no
    /// think time (the paper's OLTP-Bench setting).
    pub fn start(cluster: &Arc<Cluster>, clients: usize, workload: Arc<dyn Workload>) -> Driver {
        Self::start_with_think(cluster, clients, Duration::ZERO, workload)
    }

    /// Starts clients paced by `think`.
    ///
    /// `think > 0` is an *open-loop fixed-rate* schedule with period
    /// `think` — latency is recorded against each intended arrival, so
    /// server stalls inflate p99 instead of pausing the load (the
    /// coordinated-omission fix). A bounded per-client backlog (64
    /// arrivals) sheds load past that, keeping catch-up bursts finite on a
    /// small host. `think == 0` is a true closed loop measuring service
    /// time.
    pub fn start_with_think(
        cluster: &Arc<Cluster>,
        clients: usize,
        think: Duration,
        workload: Arc<dyn Workload>,
    ) -> Driver {
        let pacing = if think.is_zero() {
            Pacing::ClosedLoop {
                think: Duration::ZERO,
            }
        } else {
            Pacing::FixedRate { period: think }
        };
        let config = EngineConfig {
            clients,
            workers: clients,
            pacing,
            seed: DRIVER_SEED,
            queue_bound: 64,
            horizon: None,
            max_txns_per_client: None,
        };
        Self::from_engine(OpenLoopEngine::start(cluster, config, workload))
    }

    /// Wraps an already-started engine in the legacy driver API.
    pub fn from_engine(engine: OpenLoopEngine) -> Driver {
        Driver {
            metrics: Arc::clone(&engine.metrics),
            engine: Some(engine),
        }
    }

    /// Signals the clients to stop and waits for them.
    pub fn stop(mut self) -> Arc<RunMetrics> {
        self.stop_with_report().metrics
    }

    /// Stops the fleet and returns the full engine report (offered /
    /// dropped / park accounting on top of the shared metrics).
    pub fn stop_with_report(&mut self) -> EngineReport {
        self.engine.take().expect("driver already stopped").stop()
    }

    /// Lets the clients run for `d`.
    pub fn run_for(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::{NodeId, TableId};
    use remus_storage::Value;

    #[test]
    fn driver_runs_and_counts_commits() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 4, |i| NodeId(i % 2));
        // Preload.
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..50 {
            session
                .run(|t| t.insert(&layout, k, Value::copy_from_slice(b"v")))
                .unwrap();
        }
        let workload = move |_c: ClientId, txn: &mut SessionTxn<'_>, rng: &mut SmallRng| {
            use rand::Rng;
            let key = rng.gen_range(0..50u64);
            txn.read(&layout, key)?;
            Ok(())
        };
        let driver = Driver::start(&cluster, 4, Arc::new(workload));
        driver.run_for(Duration::from_millis(200));
        let metrics = driver.stop();
        assert!(metrics.counters.commits() > 0);
        assert_eq!(metrics.counters.migration_aborts(), 0);
        assert!(!metrics.timeline.buckets().is_empty());
        assert!(metrics.latency_normal.count() > 0);
    }

    #[test]
    fn driver_with_think_offers_open_loop_load() {
        let cluster = ClusterBuilder::new(1).build();
        let layout = cluster.create_table(TableId(1), 0, 2, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        session
            .run(|t| t.insert(&layout, 1, Value::copy_from_slice(b"v")))
            .unwrap();
        let workload = move |_c: ClientId, txn: &mut SessionTxn<'_>, _r: &mut SmallRng| {
            txn.read(&layout, 1)?;
            Ok(())
        };
        let mut driver =
            Driver::start_with_think(&cluster, 2, Duration::from_millis(2), Arc::new(workload));
        driver.run_for(Duration::from_millis(300));
        let report = driver.stop_with_report();
        assert!(report.offered > 0);
        assert_eq!(
            report.offered,
            report.executed + report.dropped,
            "every arrival is executed or shed"
        );
        assert!(report.metrics.counters.commits() > 0);
    }

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

    /// The coordinated-omission regression: a single long stall must
    /// inflate the tail of the *recorded* distribution, because every
    /// arrival that was due during the stall is measured from its intended
    /// time. The old service-time driver recorded exactly one slow sample
    /// here and the tail stayed flat.
    #[test]
    fn stalled_server_inflates_co_safe_p99() {
        use std::sync::atomic::AtomicU64;

        let cluster = ClusterBuilder::new(1).build();
        let layout = cluster.create_table(TableId(1), 0, 2, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        session
            .run(|t| t.insert(&layout, 1, Value::copy_from_slice(b"v")))
            .unwrap();
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let workload = move |_c: ClientId, txn: &mut SessionTxn<'_>, _r: &mut SmallRng| {
            // One 200 ms stall early in the run, then fast.
            if calls2.fetch_add(1, Ordering::Relaxed) == 5 {
                std::thread::sleep(Duration::from_millis(200));
            }
            txn.read(&layout, 1)?;
            Ok(())
        };
        // Open-loop 2 ms schedule: ~100 arrivals fall due during the stall.
        let mut driver =
            Driver::start_with_think(&cluster, 1, Duration::from_millis(2), Arc::new(workload));
        driver.run_for(Duration::from_millis(700));
        let report = driver.stop_with_report();
        let lat = &report.metrics.latency_normal;
        assert!(
            lat.percentile(0.99) >= Duration::from_millis(50),
            "stall must surface in p99, got {:?}",
            lat.percentile(0.99)
        );
        // The distinguishing signal vs service-time recording: *many*
        // samples carry the stall, not just the one stalled transaction.
        let slow: u64 = lat
            .bucket_counts()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i >= 14) // buckets >= ~16.4 ms
            .map(|(_, &n)| n)
            .sum();
        assert!(slow >= 8, "expected many inflated samples, got {slow}");
    }
}
