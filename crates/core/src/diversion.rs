//! Ordered diversion: the shard-map handover transaction `T_m` (§3.5.1).
//!
//! `T_m` is an ordinary distributed transaction that updates the migrating
//! shards' rows in the shard map table *on every node* and commits through
//! the database's own 2PC — [`remus_txn::commit_txn`], the same function a
//! session commits through. Its commit timestamp becomes the ordering
//! barrier of Theorem 3.1: transactions with `start_ts < T_m.commit_ts` keep
//! routing to the source, later ones to the destination. The
//! cache-read-through window is opened on every node before `T_m` executes
//! and closed (with an epoch bump) after it resolves, so no coordinator can
//! route a post-`T_m` transaction from a stale cache entry.
//!
//! [`run_tm`] is the only `T_m` there is: every engine's handover, the chaos
//! lab's `CrashTm` drill and the recovery tests run it, and it hands the
//! cluster's fault injector to the commit protocol, so what is failed,
//! delayed or crashed at the four `Tm*` seams is the 2PC a migration runs
//! (the action table is on [`remus_txn::commit`]).

use std::sync::Arc;

use remus_cluster::Cluster;
use remus_common::fault::FaultAction;
use remus_common::{DbError, DbResult, ShardId, Timestamp};
use remus_shard::{encode_owner, SHARD_MAP_SHARD};
use remus_txn::{abort_txn, commit_txn, Txn};

use crate::report::MigrationTask;

/// The read-through windows of the migrating shards, open on every node.
/// Dropping the guard closes them (and bumps the map epoch) whether `T_m`
/// committed or not — coordinators refresh their caches either way. The
/// one outcome that leaves them open is an in-doubt `T_m`: nothing of a
/// crashed coordinator ran to close them, and routing must keep reading
/// through (and blocking on the prepared rows) until
/// [`crate::recovery::recover_migration`] has decided and closes them.
struct ReadThroughWindows<'a> {
    cluster: &'a Cluster,
    shards: &'a [ShardId],
    in_doubt: bool,
}

impl<'a> ReadThroughWindows<'a> {
    fn open(cluster: &'a Cluster, shards: &'a [ShardId]) -> Self {
        for node in cluster.nodes() {
            node.read_through.mark(shards);
        }
        ReadThroughWindows {
            cluster,
            shards,
            in_doubt: false,
        }
    }
}

impl Drop for ReadThroughWindows<'_> {
    fn drop(&mut self) {
        if !self.in_doubt {
            for node in self.cluster.nodes() {
                node.read_through.clear(self.shards);
            }
        }
    }
}

/// Executes the ordered-diversion handover for `task`, returning
/// `T_m.commit_ts`.
///
/// The cluster's fault injector decides at the four `Tm*` seams of the
/// commit, asked as `task.source`. `Delay` and `Fail` are always honoured
/// (a failed `T_m` is aborted everywhere and the windows are closed). A
/// scripted `Crash` is honoured only with `crash_drill` set — the chaos
/// drill and the recovery tests, which follow up with `recover_migration`:
/// the call then returns [`DbError::InDoubt`] carrying `T_m`'s xid, with
/// the transaction unresolved and the windows open. A live engine passes
/// `false` and proceeds past a `Crash`, as `PushPipeline::fault_seam` does:
/// it owns threads and copies that only its own unwind can release.
pub fn run_tm(
    cluster: &Arc<Cluster>,
    task: &MigrationTask,
    crash_drill: bool,
) -> DbResult<Timestamp> {
    let mut windows = ReadThroughWindows::open(cluster, &task.shards);
    let coord = &cluster.node(task.source).storage;
    let mut tm = Txn::begin(coord, cluster.oracle.start_ts(task.source));
    let (faults, source) = (Arc::clone(cluster), task.source);
    tm.seams = Some(Box::new(move |point| {
        match faults.fault_at(point, source) {
            FaultAction::Crash if !crash_drill => FaultAction::Continue,
            decided => decided,
        }
    }));
    let mut rows = cluster
        .nodes()
        .iter()
        .flat_map(|node| task.shards.iter().map(move |shard| (node, shard)));
    let result = rows
        .try_for_each(|(node, shard)| {
            let owner = encode_owner(task.dest);
            tm.update(&node.storage, SHARD_MAP_SHARD, shard.0, owner)
        })
        .and_then(|()| commit_txn(&mut tm, &*cluster.oracle, &*cluster.net));
    match result {
        Ok(_) => {}
        Err(DbError::InDoubt(_)) => windows.in_doubt = true,
        // A failed row update leaves `T_m` open; a failed commit already
        // aborted it.
        Err(_) => abort_txn(&mut tm),
    }
    result
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::fault::{FaultInjector, InjectionPoint};
    use remus_common::{NodeId, TableId, TxnId};
    use remus_storage::Value;

    struct At(InjectionPoint, FaultAction);

    impl FaultInjector for At {
        fn decide(&self, point: InjectionPoint, _node: NodeId) -> FaultAction {
            if point == self.0 {
                self.1
            } else {
                FaultAction::Continue
            }
        }
    }

    /// Runs `T_m` with a scripted coordinator crash at `point`, returning
    /// the xid left in doubt.
    pub(crate) fn crash_tm_at(
        cluster: &Arc<Cluster>,
        task: &MigrationTask,
        point: InjectionPoint,
    ) -> TxnId {
        cluster.install_fault_injector(Arc::new(At(point, FaultAction::Crash)));
        let outcome = run_tm(cluster, task, true);
        cluster.uninstall_fault_injector();
        match outcome {
            Err(DbError::InDoubt(xid)) => xid,
            other => panic!("expected an in-doubt T_m, got {other:?}"),
        }
    }

    #[test]
    fn tm_moves_ownership_at_its_commit_timestamp() {
        let cluster = ClusterBuilder::new(3).build();
        let layout = cluster.create_table(TableId(1), 0, 6, |i| NodeId(i % 3));
        let shard = ShardId(0); // owned by node 0
        let before_ts = cluster.oracle.start_ts(NodeId(1));
        let task = MigrationTask::single(shard, NodeId(0), NodeId(2));
        let tm_ts = run_tm(&cluster, &task, false).unwrap();
        assert!(tm_ts > before_ts);
        // Every node's replica answers consistently: old snapshots see the
        // source, new ones the destination.
        for node in cluster.nodes() {
            let old = cluster.owner_at(node, shard, before_ts).unwrap();
            assert_eq!(old.node, NodeId(0));
            let new = cluster.current_owner(node, shard).unwrap();
            assert_eq!(new.node, NodeId(2));
            assert_eq!(new.cts, tm_ts);
        }
        let _ = layout;
    }

    #[test]
    fn read_through_window_closed_and_epoch_bumped() {
        let cluster = ClusterBuilder::new(2).build();
        cluster.create_table(TableId(1), 0, 2, |_| NodeId(0));
        let task = MigrationTask::single(ShardId(1), NodeId(0), NodeId(1));
        let epochs_before: Vec<u64> = cluster
            .nodes()
            .iter()
            .map(|n| n.read_through.epoch())
            .collect();
        run_tm(&cluster, &task, false).unwrap();
        for (node, before) in cluster.nodes().iter().zip(epochs_before) {
            assert!(!node.read_through.is_marked(ShardId(1)));
            assert_eq!(node.read_through.epoch(), before + 1);
        }
    }

    #[test]
    fn failed_tm_is_aborted_everywhere_with_the_windows_closed() {
        for point in [
            InjectionPoint::TmBeforePrepare,
            InjectionPoint::TmAfterPrepare,
        ] {
            let cluster = ClusterBuilder::new(3).build();
            cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
            let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
            cluster.install_fault_injector(Arc::new(At(point, FaultAction::Fail)));
            let err = run_tm(&cluster, &task, false).unwrap_err();
            assert!(matches!(err, DbError::MigrationAbort { .. }), "{err:?}");
            for node in cluster.nodes() {
                assert!(!node.read_through.is_marked(ShardId(0)), "{point}");
                assert_eq!(node.storage.active_count(), 0, "{point}");
                assert!(node.storage.clog.prepared_txns().is_empty(), "{point}");
                let owner = cluster.current_owner(node, ShardId(0)).unwrap();
                assert_eq!(owner.node, NodeId(0), "{point}");
            }
        }
    }

    #[test]
    fn a_crash_is_a_drill_an_engine_proceeds_past_it() {
        let cluster = ClusterBuilder::new(2).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let crash = At(InjectionPoint::TmAfterPrepare, FaultAction::Crash);
        cluster.install_fault_injector(Arc::new(crash));
        run_tm(&cluster, &task, false).unwrap();
        let back = MigrationTask::single(ShardId(0), NodeId(1), NodeId(0));
        let err = run_tm(&cluster, &back, true).unwrap_err();
        assert!(matches!(err, DbError::InDoubt(_)), "{err:?}");
        // Nothing ran to close the windows of an in-doubt `T_m`.
        for node in cluster.nodes() {
            assert!(node.read_through.is_marked(ShardId(0)));
        }
    }

    #[test]
    fn sessions_route_old_and_new_transactions_correctly_across_tm() {
        // End-to-end Figure 5: a transaction that started before T_m still
        // reaches the source replica data; one started after reaches the
        // destination.
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let shard = ShardId(0);
        let session = Session::connect(&cluster, NodeId(1));
        session
            .run(|t| t.insert(&layout, 42, Value::copy_from_slice(b"v")))
            .unwrap();

        // An old transaction holds its snapshot across T_m.
        let mut old_txn = session.begin();
        // Destination shard exists and holds a copy (as a migration's
        // snapshot phase would ensure).
        cluster.node(NodeId(1)).storage.create_shard(shard);
        cluster
            .node(NodeId(1))
            .storage
            .table(shard)
            .unwrap()
            .install_frozen(42, Value::copy_from_slice(b"v"));

        let task = MigrationTask::single(shard, NodeId(0), NodeId(1));
        run_tm(&cluster, &task, false).unwrap();

        // The old transaction still routes to (and reads from) the source.
        assert_eq!(
            old_txn.read(&layout, 42).unwrap(),
            Some(Value::copy_from_slice(b"v"))
        );
        old_txn.commit().unwrap();

        // Drop the source copy: a post-T_m transaction must not touch it.
        cluster.node(NodeId(0)).storage.drop_shard(shard);
        let (v, _) = session.run(|t| t.read(&layout, 42)).unwrap();
        assert_eq!(v, Some(Value::copy_from_slice(b"v")));
    }

    #[test]
    fn concurrent_routing_blocks_on_prepared_tm_not_stale_cache() {
        // A transaction acquiring its snapshot while T_m is prepared (not
        // yet committed) must wait (prepare-wait on the shard map read) and
        // then route per the outcome.
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let shard = ShardId(0);
        cluster.node(NodeId(1)).storage.create_shard(shard);

        let task = MigrationTask::single(shard, NodeId(0), NodeId(1));
        let tm_xid = crash_tm_at(&cluster, &task, InjectionPoint::TmAfterPrepare);

        let c2 = Arc::clone(&cluster);
        let router = std::thread::spawn(move || {
            let session = Session::connect(&c2, NodeId(0));
            // This read routes the shard; the snapshot was taken after T_m
            // prepared, so the routing read blocks until T_m resolves.
            let (v, _) = session.run(|t| t.read(&layout, 7)).unwrap();
            v
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !router.is_finished(),
            "routing should block on prepared T_m"
        );
        // Resolve T_m as committed on all nodes.
        let ts = cluster.oracle.commit_ts(NodeId(0));
        for node in cluster.nodes() {
            remus_txn::commit_prepared(&node.storage, tm_xid, ts).unwrap();
            node.read_through.clear(&task.shards);
        }
        assert_eq!(router.join().unwrap(), None);
    }
}
