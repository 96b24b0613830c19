//! The one decision executor: carries out a planner [`Decision`] on the
//! cluster. The autopilot's loop and the chaos lab's planner drive both
//! hand it every decision they planned; it owns the replica processes it
//! provisioned and reports what happened, the same way for every caller.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use remus_cluster::Cluster;
use remus_common::time::Signal;
use remus_common::{DbResult, NodeId, Timestamp};
use remus_core::{MigrationEngine, MigrationReport, MigrationTask, ReplicaProcess};

use crate::planner::{Action, Decision, Planner};

/// First retry backoff; doubles per attempt up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(5);

/// Retry backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(80);

/// How long a `Replicate` decision waits for virtual-cut backfill and
/// certification before the provision counts as failed.
const PROVISION_TIMEOUT: Duration = Duration::from_secs(30);

/// What carrying out one decision did.
#[derive(Debug)]
pub enum Executed {
    /// A `Migrate` decision ran.
    Migrated(Moved),
    /// A `Replicate` decision ran: `Ok` once the replica certified; on an
    /// error the half-built replica was torn down and its node returned to
    /// the primary pool.
    Replicated(DbResult<()>),
    /// A `Decommission` decision stopped the replica and returned its node
    /// to the primary pool.
    Decommissioned,
}

/// What one migration did, over all its attempts.
#[derive(Debug)]
pub struct Moved {
    /// The last attempt's result.
    pub result: DbResult<MigrationReport>,
    /// The owner rows' commit timestamp (`T_m`'s) when routing sends every
    /// task shard to the destination: the landed rule, under which a move
    /// took effect even if a post-transfer phase failed.
    pub landed: Option<Timestamp>,
    /// Attempts after the first.
    pub retries: u32,
}

impl Moved {
    /// Whether the ownership transfer took effect.
    pub fn committed(&self) -> bool {
        self.result.is_ok() || self.landed.is_some()
    }
}

/// The landed rule. An engine can fail *after* the ownership transfer
/// committed (`T_m` is phase 4 of 6 in Remus; cleanup and the dual-execution
/// drain come after), so the owner rows are the ground truth: when every
/// shard of `task` is routed to its destination, the move took effect and
/// a retry from the stale source could only fail. Returns the rows' commit
/// timestamp then.
fn landed(cluster: &Cluster, task: &MigrationTask) -> Option<Timestamp> {
    let owner = |&shard| cluster.current_owner(cluster.node(task.dest), shard).ok();
    let rows: Option<Vec<_>> = task.shards.iter().map(owner).collect();
    let rows = rows.filter(|rows| rows.iter().all(|row| row.node == task.dest))?;
    rows.first().map(|row| row.cts)
}

/// Carries out planner decisions with one migration engine, and owns the
/// replica processes the `Replicate` decisions started. Dropping it stops
/// them and returns their nodes to the primary pool.
pub struct Executor {
    cluster: Arc<Cluster>,
    engine: Arc<dyn MigrationEngine>,
    /// The stop request a retry backoff parks on: a stop cuts the backoff
    /// short, and no retry starts after it. Only the autopilot sets it.
    pub(crate) stop: Arc<(AtomicBool, Signal)>,
    replicas: HashMap<NodeId, ReplicaProcess>,
}

impl Executor {
    /// An executor that migrates with `engine`.
    pub fn new(cluster: Arc<Cluster>, engine: Arc<dyn MigrationEngine>) -> Executor {
        Executor {
            cluster,
            engine,
            stop: Arc::default(),
            replicas: HashMap::new(),
        }
    }

    /// The live replica process on `node`, if this executor provisioned one.
    pub fn replica(&self, node: NodeId) -> Option<&ReplicaProcess> {
        self.replicas.get(&node)
    }

    /// Carries out `decision`, with up to the planner's `max_retries` retries
    /// of a migration. A move that did not take effect, or a replica that
    /// did not certify, is handed back to `planner` so a later tick may plan
    /// it again.
    pub fn execute(&mut self, planner: &mut Planner, decision: &Decision) -> Executed {
        match &decision.action {
            Action::Migrate(task) => {
                let moved = self.migrate(task, planner.config().max_retries);
                if !moved.committed() {
                    planner.note_failed(&task.shards);
                }
                Executed::Migrated(moved)
            }
            Action::Replicate { dst, .. } => {
                let started = remus_core::start_replica(&self.cluster, *dst);
                let provisioned = started.and_then(|proc| {
                    let certified = proc.wait_certified(PROVISION_TIMEOUT);
                    self.replicas.insert(*dst, proc);
                    certified
                });
                if provisioned.is_err() {
                    self.retire(*dst);
                    planner.note_replica_failed();
                }
                Executed::Replicated(provisioned)
            }
            Action::Decommission { replica } => {
                self.retire(*replica);
                Executed::Decommissioned
            }
        }
    }

    /// Runs `task` until it takes effect, retrying a failure up to
    /// `max_retries` times with a capped exponential backoff.
    pub fn migrate(&self, task: &MigrationTask, max_retries: u32) -> Moved {
        let (stop, signal) = &*self.stop;
        let stopping = || stop.load(Ordering::SeqCst);
        let mut retries = 0;
        loop {
            let result = self.engine.migrate(&self.cluster, task);
            let landed = landed(&self.cluster, task);
            if result.is_ok() || landed.is_some() || retries == max_retries || stopping() {
                return Moved {
                    result,
                    landed,
                    retries,
                };
            }
            retries += 1;
            let backoff = BACKOFF_CAP.min(BACKOFF_BASE * 2u32.pow(retries - 1));
            // A stop cuts the backoff short; the retry still runs and
            // settles the move.
            signal.park_until(stopping, backoff);
        }
    }

    /// Stops the replica process on `node`, if this executor owns one, and
    /// returns the node to the primary pool.
    fn retire(&mut self, node: NodeId) {
        if let Some(proc) = self.replicas.remove(&node) {
            proc.stop();
        }
        self.cluster.unregister_replica(node);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        let nodes: Vec<NodeId> = self.replicas.keys().copied().collect();
        for node in nodes {
            self.retire(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::ObservationCollector;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::{DbError, PlannerConfig, TableId};
    use remus_core::RemusEngine;
    use remus_storage::Value;
    use std::sync::atomic::AtomicU32;

    /// Counts its calls; migrates with Remus first when `lands`, and fails
    /// either way.
    struct Failing {
        lands: bool,
        calls: AtomicU32,
    }

    impl MigrationEngine for Failing {
        fn name(&self) -> &'static str {
            "failing"
        }

        fn migrate(
            &self,
            cluster: &Arc<Cluster>,
            task: &MigrationTask,
        ) -> DbResult<MigrationReport> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if self.lands {
                RemusEngine.migrate(cluster, task)?;
            }
            Err(DbError::Internal("failed after the transfer".into()))
        }
    }

    /// Runs the first decision a hot node 0 makes the planner plan, on an
    /// engine that always fails, with three retries allowed. Returns the
    /// engine's calls, what the executor reported, and whether the planner
    /// was told about a failure (its cooldown stamps changed).
    fn execute_on_failing_engine(lands: bool) -> (u32, Moved, bool) {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 4, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..32u64 {
            session
                .run(|t| t.insert(&layout, k, Value::from(vec![k as u8])))
                .unwrap();
        }
        let config = PlannerConfig {
            cost_weight_versions: 0.0,
            cost_weight_wal: 0.0,
            max_retries: 3,
            ..PlannerConfig::balanced()
        };
        let mut planner = Planner::new(config);
        let obs = ObservationCollector::new().collect(&cluster, 1.0);
        let decision = planner.decide(&obs).decisions.remove(0);
        let engine = Arc::new(Failing {
            lands,
            calls: AtomicU32::new(0),
        });
        let mut exec = Executor::new(Arc::clone(&cluster), engine.clone());
        let before = format!("{planner:?}");
        let Executed::Migrated(moved) = exec.execute(&mut planner, &decision) else {
            panic!("a hot node plans a migration: {decision}");
        };
        let noted = format!("{planner:?}") != before;
        (engine.calls.load(Ordering::SeqCst), moved, noted)
    }

    #[test]
    fn a_move_that_landed_counts_though_its_engine_failed() {
        let (calls, moved, noted) = execute_on_failing_engine(true);
        assert!(moved.result.is_err());
        assert!(moved.landed.is_some_and(|cts| cts.is_valid()));
        assert!(moved.committed());
        assert_eq!((calls, moved.retries), (1, 0), "a landed move was retried");
        assert!(!noted, "a landed move was handed back to the planner");
    }

    #[test]
    fn a_move_that_did_not_land_is_retried_then_handed_back() {
        let (calls, moved, noted) = execute_on_failing_engine(false);
        assert!(moved.landed.is_none());
        assert!(!moved.committed());
        assert_eq!((calls, moved.retries), (4, 3));
        assert!(noted, "a failed move kept its cooldown");
    }
}
