//! The background loop: observe → plan → act, under backpressure.
//!
//! Each tick collects an observation, asks the planner for decisions and
//! hands them, one at a time and each behind the latency throttle, to the
//! [`Executor`] — which migrates, provisions a replica (after which every
//! [`remus_cluster::ReadRouter`] may send read-only transactions to it) or
//! decommissions one. The loop keeps the ticks, the throttle and the
//! counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use remus_cluster::Cluster;
use remus_common::metrics::LatencyStat;
use remus_common::time::Signal;
use remus_common::PlannerConfig;
use remus_core::RemusEngine;

use crate::executor::{Executed, Executor};
use crate::observe::ObservationCollector;
use crate::planner::Planner;
use crate::throttle::LatencyThrottle;

/// How often a throttled loop looks at the latency budget again (a stop
/// wakes it at once).
const POLL: Duration = Duration::from_millis(2);

/// Runtime knobs that belong to the loop, not the policy.
#[derive(Debug, Clone)]
pub struct AutopilotOptions {
    /// Wall-clock interval between planner ticks.
    pub tick_interval: Duration,
    /// The foreground latency series the throttle watches (typically the
    /// workload driver's commit-latency stat). `None` disables the
    /// throttle regardless of the configured budget.
    pub latency: Option<Arc<LatencyStat>>,
}

/// What the autopilot did over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct AutopilotReport {
    /// Planner ticks executed.
    pub ticks: u64,
    /// Migrations completed.
    pub moves: u64,
    /// Migrations abandoned after exhausting retries.
    pub failed: u64,
    /// Individual retry attempts.
    pub retries: u64,
    /// Times execution stalled on the latency budget.
    pub throttle_stalls: u64,
    /// Replicas provisioned (bootstrapped *and* certified).
    pub replicas_provisioned: u64,
    /// Replicas decommissioned.
    pub replicas_decommissioned: u64,
    /// Every decision planned, in execution order, in the planner's
    /// stable string form.
    pub decisions: Vec<String>,
}

/// Handle to a running autopilot thread.
///
/// Spawned by [`Autopilot::start`]; [`Autopilot::stop`] joins the thread
/// and returns its [`AutopilotReport`]. Progress is also visible live in
/// the cluster metrics registry under `planner.*`.
pub struct Autopilot {
    /// The stop request and the signal the loop parks on: between ticks,
    /// while throttled and between retries.
    stop: Arc<(AtomicBool, Signal)>,
    paused: Arc<AtomicBool>,
    handle: JoinHandle<AutopilotReport>,
}

impl Autopilot {
    /// Starts the loop, migrating with Remus.
    pub fn start(
        cluster: Arc<Cluster>,
        config: PlannerConfig,
        options: AutopilotOptions,
    ) -> Autopilot {
        let executor = Executor::new(Arc::clone(&cluster), Arc::new(RemusEngine::new()));
        let stop = Arc::clone(&executor.stop);
        let paused = Arc::new(AtomicBool::new(false));
        let handle = {
            let paused = Arc::clone(&paused);
            std::thread::spawn(move || run_loop(cluster, executor, config, options, paused))
        };
        Autopilot {
            stop,
            paused,
            handle,
        }
    }

    /// Whether execution is currently stalled on the latency budget.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    /// Signals the loop to finish its current migration and exit, then
    /// joins it and returns the report.
    pub fn stop(self) -> AutopilotReport {
        let (stop, signal) = &*self.stop;
        stop.store(true, Ordering::SeqCst);
        signal.notify();
        self.handle.join().expect("autopilot thread panicked")
    }
}

fn run_loop(
    cluster: Arc<Cluster>,
    mut executor: Executor,
    config: PlannerConfig,
    options: AutopilotOptions,
    paused: Arc<AtomicBool>,
) -> AutopilotReport {
    let mut collector = ObservationCollector::new();
    let mut planner = Planner::new(config.clone());
    let mut throttle = LatencyThrottle::new(config.latency_budget);
    let mut report = AutopilotReport::default();
    let ticks = cluster.metrics.counter("planner.ticks");
    let moves = cluster.metrics.counter("planner.moves");
    let failed = cluster.metrics.counter("planner.failed_moves");
    let stalls = cluster.metrics.counter("planner.throttle_stalls");
    let provisions = cluster.metrics.counter("planner.replicas_provisioned");
    let decommissions = cluster.metrics.counter("planner.replicas_decommissioned");
    let stop = Arc::clone(&executor.stop);
    let (stop, signal) = &*stop;
    let stopping = || stop.load(Ordering::SeqCst);
    // Waits `d` out, or until a stop is asked for (`true`).
    let stopped_within = |d| signal.park_until(stopping, d);

    'ticks: while !stopped_within(options.tick_interval) {
        report.ticks += 1;
        ticks.inc();
        let obs = collector.collect(&cluster, config.ewma_alpha);
        let tick = planner.decide(&obs);
        for decision in tick.decisions {
            // Backpressure gate, re-checked before *each* task so a spike
            // that lands mid-plan pauses the remainder of the plan and a
            // recovered budget resumes it.
            if let Some(stat) = options.latency.as_ref().filter(|s| throttle.over_budget(s)) {
                report.throttle_stalls += 1;
                stalls.inc();
                paused.store(true, Ordering::SeqCst);
                while !stopped_within(POLL) && throttle.over_budget(stat) {}
                paused.store(false, Ordering::SeqCst);
            }
            if stopping() {
                break 'ticks;
            }
            report.decisions.push(decision.to_string());
            let (count, done) = match executor.execute(&mut planner, &decision) {
                Executed::Migrated(moved) => {
                    report.retries += u64::from(moved.retries);
                    match moved.committed() {
                        true => (&mut report.moves, &moves),
                        false => (&mut report.failed, &failed),
                    }
                }
                Executed::Replicated(Ok(())) => (&mut report.replicas_provisioned, &provisions),
                Executed::Replicated(Err(_)) => (&mut report.failed, &failed),
                Executed::Decommissioned => (&mut report.replicas_decommissioned, &decommissions),
            };
            *count += 1;
            done.inc();
        }
    }
    // Dropping the executor stops the replicas it provisioned and returns
    // their nodes to the primary pool.
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::{NodeId, TableId};
    use remus_storage::Value;

    /// End-to-end smoke: a hotspot on node 0 gets rebalanced by the
    /// running autopilot with no operator involvement.
    #[test]
    fn autopilot_rebalances_a_hotspot() {
        let cluster = remus_cluster::ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 4, |_| NodeId(0));
        let session = remus_cluster::Session::connect(&cluster, NodeId(0));
        for k in 0..64u64 {
            session
                .run(|t| t.insert(&layout, k, Value::from(vec![k as u8])))
                .unwrap();
        }
        let mut config = PlannerConfig::balanced();
        config.cost_weight_versions = 0.0;
        config.cost_weight_wal = 0.0;
        let pilot = Autopilot::start(
            Arc::clone(&cluster),
            config,
            AutopilotOptions {
                tick_interval: Duration::from_millis(5),
                latency: None,
            },
        );
        // Keep the load window hot while the pilot ticks.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while cluster.node(NodeId(1)).data_shards().is_empty() {
            for k in 0..64u64 {
                session.run(|t| t.read(&layout, k)).unwrap();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "autopilot never moved a shard off the hot node"
            );
        }
        let report = pilot.stop();
        assert!(report.moves >= 1);
        assert_eq!(report.moves as usize, report.decisions.len());
        assert!(report.ticks >= 1);
        // The moves are visible in the metrics registry too.
        let snap = cluster.metrics_snapshot();
        let planned = snap
            .iter()
            .find(|s| s.name == "planner.moves")
            .expect("planner.moves counter");
        assert_eq!(planned.value, report.moves);
        // And both nodes now host shards.
        assert!(!cluster.node(NodeId(0)).data_shards().is_empty());
        assert!(!cluster.node(NodeId(1)).data_shards().is_empty());
    }

    /// End-to-end replica lifecycle: a read-mostly hotspot makes the
    /// autopilot provision a replica through the replication pipeline;
    /// when read demand dies the replica is decommissioned and its node
    /// returns to the primary pool.
    #[test]
    fn autopilot_provisions_and_retires_a_replica() {
        let cluster = remus_cluster::ClusterBuilder::new(3).build();
        let layout = cluster.create_table(TableId(1), 0, 4, |_| NodeId(0));
        let session = remus_cluster::Session::connect(&cluster, NodeId(0));
        for k in 0..64u64 {
            session
                .run(|t| t.insert(&layout, k, Value::from(vec![k as u8])))
                .unwrap();
        }
        let config = PlannerConfig {
            replication: true,
            cost_weight_versions: 0.0,
            cost_weight_wal: 0.0,
            cost_weight_ship: 0.0,
            colocation: false,
            ..PlannerConfig::balanced()
        };
        let pilot = Autopilot::start(
            Arc::clone(&cluster),
            config,
            AutopilotOptions {
                tick_interval: Duration::from_millis(5),
                latency: None,
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        // Pure read pressure until the pilot publishes a certified replica:
        // `replica_ids()` turns non-empty at registration, before
        // certification, so certification is the state to poll.
        while cluster.certified_replica_ids().is_empty() {
            for k in 0..64u64 {
                session.run(|t| t.read(&layout, k)).unwrap();
            }
            assert!(
                std::time::Instant::now() < deadline,
                "autopilot never provisioned a replica for a read-only hotspot"
            );
        }
        assert!(!cluster.replica_ids().is_empty());
        // Demand stops; the load window decays below the read floor and
        // the pilot retires the replica.
        while !cluster.replica_ids().is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "autopilot never decommissioned the idle replica"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = pilot.stop();
        assert!(report.replicas_provisioned >= 1);
        assert!(report.replicas_decommissioned >= 1);
        assert!(cluster.certified_replica_ids().is_empty());
        assert_eq!(cluster.primary_ids().len(), 3);
        assert!(report
            .decisions
            .iter()
            .any(|d| d.starts_with("replicate ShardId(")));
        assert!(report
            .decisions
            .iter()
            .any(|d| d.starts_with("decommission NodeId(")));
    }
}
