//! Crash recovery (§3.7).
//!
//! Two pillars:
//!
//! * **`T_m` decides the migration.** If a failure interrupts a migration,
//!   the controller first recovers `T_m` with standard 2PC rules — it is
//!   committed iff any participant already entered phase two. A rolled-back
//!   `T_m` means no transaction was ever routed to the destination, so the
//!   migration is cancelled and the partially-migrated destination data is
//!   cleaned up. A committed `T_m` means the destination already serves new
//!   transactions, so the migration rolls forward and the *source* copy is
//!   cleaned up once residual transactions resolve.
//! * **MOCC's key property resolves shadows.** A source transaction commits
//!   only after its shadow prepared, so every in-doubt prepared shadow on
//!   the destination can be decided by querying the source CLOG: committed
//!   there (with timestamp `ts`) → commit the shadow with `ts`; anything
//!   else → roll the shadow back.

use std::sync::Arc;

use remus_cluster::{Cluster, Node};
use remus_common::{DbResult, Timestamp, TxnId};
use remus_storage::TxnStatus;
use remus_txn::{commit_prepared, rollback_prepared};

use crate::report::MigrationTask;

/// Outcome of recovering an interrupted migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryDecision {
    /// `T_m` did not commit: the migration was cancelled; destination data
    /// cleaned up; the source still owns the shards.
    RolledBack,
    /// `T_m` committed: the migration rolled forward; source data cleaned
    /// up; the destination owns the shards.
    RolledForward(Timestamp),
}

/// Recovers `T_m`'s 2PC across the cluster: commits it everywhere if any
/// node recorded a commit, otherwise rolls it back everywhere. Returns the
/// commit timestamp if committed.
pub fn recover_tm(cluster: &Arc<Cluster>, tm: TxnId) -> Option<Timestamp> {
    let decision = cluster
        .nodes()
        .iter()
        .find_map(|n| n.storage.clog.commit_ts(tm));
    for node in cluster.nodes() {
        if let Some(ts) = decision {
            // As in phase two of the commit it completes: a participant's
            // clock observes the commit timestamp, or under DTS its next
            // snapshot could trail the ownership change it just applied.
            cluster.oracle.observe(node.id(), ts);
        }
        match (node.storage.clog.status(tm), decision) {
            (TxnStatus::Prepared, Some(ts)) => {
                commit_prepared(&node.storage, tm, ts).expect("T_m commit during recovery");
            }
            (TxnStatus::Prepared, None) | (TxnStatus::InProgress, None) => {
                rollback_prepared(&node.storage, tm);
            }
            (TxnStatus::InProgress, Some(ts)) => {
                // A participant that never prepared cannot hold a commit
                // decision elsewhere under 2PC; tolerate it anyway.
                node.storage
                    .clog
                    .set_committed(tm, ts)
                    .expect("T_m commit during recovery");
            }
            _ => {}
        }
    }
    decision
}

/// Resolves every in-doubt prepared shadow transaction on `dest` that
/// originated on `source`, by querying the source CLOG (§3.7). Returns
/// `(committed, rolled_back)` counts.
pub fn resolve_prepared_shadows(source: &Node, dest: &Node) -> (usize, usize) {
    let mut committed = 0;
    let mut rolled_back = 0;
    for xid in dest.storage.clog.prepared_txns() {
        // Shadows carry the shadow flag and their source transaction's
        // originating node.
        if !xid.is_shadow() || xid.origin() != source.id() {
            continue;
        }
        match source.storage.clog.status(xid.unshadow()) {
            TxnStatus::Committed(ts) => {
                commit_prepared(&dest.storage, xid, ts).expect("shadow commit during recovery");
                committed += 1;
            }
            _ => {
                rollback_prepared(&dest.storage, xid);
                rolled_back += 1;
            }
        }
    }
    (committed, rolled_back)
}

/// Recovers an interrupted migration: recover `T_m`, resolve residual
/// shadows, and clean up the losing side's data.
pub fn recover_migration(
    cluster: &Arc<Cluster>,
    task: &MigrationTask,
    tm: TxnId,
) -> DbResult<RecoveryDecision> {
    // Source transactions still waiting for a validation verdict must be
    // terminated first (§3.7); in this simulation the registry dies with
    // the migration thread, so only CLOG state remains.
    let decision = recover_tm(cluster, tm);
    // Close any read-through window the crashed migration left open.
    for node in cluster.nodes() {
        node.read_through.clear(&task.shards);
    }
    let source = cluster.node(task.source);
    let dest = cluster.node(task.dest);
    resolve_prepared_shadows(source, dest);
    match decision {
        None => {
            // Migration cancelled: remove partially migrated data.
            for shard in &task.shards {
                dest.storage.drop_shard(*shard);
            }
            Ok(RecoveryDecision::RolledBack)
        }
        Some(ts) => {
            // Migration rolls forward: the destination owns the shards and
            // has every committed update (MOCC guaranteed shadows prepared
            // before source commits); drop the source copy.
            for shard in &task.shards {
                source.storage.drop_shard(*shard);
            }
            Ok(RecoveryDecision::RolledForward(ts))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diversion::tests::crash_tm_at;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::fault::InjectionPoint;
    use remus_common::{NodeId, ShardId, TableId};
    use remus_storage::Value;
    use remus_txn::{prepare_participant, Txn};

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn tm_in_doubt_without_commit_rolls_back() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        session.run(|t| t.insert(&layout, 1, val("v"))).unwrap();
        // Destination got a partial copy before the crash.
        cluster.node(NodeId(1)).storage.create_shard(ShardId(0));
        cluster
            .node(NodeId(1))
            .storage
            .table(ShardId(0))
            .unwrap()
            .install_frozen(1, val("v"));

        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let tm = crash_tm_at(&cluster, &task, InjectionPoint::TmAfterPrepare);
        let decision = recover_migration(&cluster, &task, tm).unwrap();
        assert_eq!(decision, RecoveryDecision::RolledBack);
        // Source serves; destination cleaned.
        assert!(cluster.node(NodeId(0)).storage.hosts(ShardId(0)));
        assert!(!cluster.node(NodeId(1)).storage.hosts(ShardId(0)));
        let (v, _) = session.run(|t| t.read(&layout, 1)).unwrap();
        assert_eq!(v, Some(val("v")));
    }

    #[test]
    fn tm_committed_on_one_node_rolls_forward_everywhere() {
        let cluster = ClusterBuilder::new(3).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        session.run(|t| t.insert(&layout, 1, val("v"))).unwrap();
        cluster.node(NodeId(1)).storage.create_shard(ShardId(0));
        cluster
            .node(NodeId(1))
            .storage
            .table(ShardId(0))
            .unwrap()
            .install_frozen(1, val("v"));

        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        // Crash mid phase two: exactly one participant committed.
        let tm = crash_tm_at(&cluster, &task, InjectionPoint::TmAfterFirstCommit);
        let nodes = cluster.nodes().iter();
        let committed: Vec<_> = nodes.filter_map(|n| n.storage.clog.commit_ts(tm)).collect();
        let [ts] = committed[..] else {
            panic!("expected one committed participant, got {committed:?}");
        };

        let decision = recover_migration(&cluster, &task, tm).unwrap();
        assert_eq!(decision, RecoveryDecision::RolledForward(ts));
        for node in cluster.nodes() {
            assert_eq!(
                node.storage.clog.status(tm),
                remus_storage::TxnStatus::Committed(ts)
            );
        }
        assert!(!cluster.node(NodeId(0)).storage.hosts(ShardId(0)));
        assert!(cluster.node(NodeId(1)).storage.hosts(ShardId(0)));
        // New transactions read from the destination.
        let (v, _) = session.run(|t| t.read(&layout, 1)).unwrap();
        assert_eq!(v, Some(val("v")));
    }

    #[test]
    fn prepared_shadow_follows_source_decision() {
        let cluster = ClusterBuilder::new(2).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let source = cluster.node(NodeId(0));
        let dest = cluster.node(NodeId(1));
        dest.storage.create_shard(ShardId(0));

        // Source txn A committed at ts 40, its shadow is still prepared.
        let a = source.storage.alloc_xid();
        let mut shadow_a = Txn::begin_with(a.shadow(), Timestamp(10), dest.id());
        shadow_a
            .insert(&dest.storage, ShardId(0), 1, val("a"))
            .unwrap();
        prepare_participant(&dest.storage, a.shadow()).unwrap();
        source.storage.clog.begin(a);
        source.storage.clog.set_committed(a, Timestamp(40)).unwrap();

        // Source txn B aborted, its shadow is still prepared.
        let b = source.storage.alloc_xid();
        let mut shadow_b = Txn::begin_with(b.shadow(), Timestamp(11), dest.id());
        shadow_b
            .insert(&dest.storage, ShardId(0), 2, val("b"))
            .unwrap();
        prepare_participant(&dest.storage, b.shadow()).unwrap();
        source.storage.clog.begin(b);
        source.storage.clog.set_aborted(b);

        let (committed, rolled_back) = resolve_prepared_shadows(source, dest);
        assert_eq!((committed, rolled_back), (1, 1));
        let table = dest.storage.table(ShardId(0)).unwrap();
        let t = std::time::Duration::from_secs(1);
        assert_eq!(
            table
                .read(1, Timestamp(40), TxnId::INVALID, &dest.storage.clog, t)
                .unwrap(),
            Some(val("a"))
        );
        assert_eq!(
            table
                .read(1, Timestamp(39), TxnId::INVALID, &dest.storage.clog, t)
                .unwrap(),
            None
        );
        assert_eq!(
            table
                .read(2, Timestamp::MAX, TxnId::INVALID, &dest.storage.clog, t)
                .unwrap(),
            None
        );
    }

    #[test]
    fn shadow_of_unknown_source_txn_rolls_back() {
        // A destination crash wiped the registry; the source never
        // committed (unknown xid reads as aborted).
        let cluster = ClusterBuilder::new(2).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let dest = cluster.node(NodeId(1));
        dest.storage.create_shard(ShardId(0));
        let ghost = TxnId::new(NodeId(0), 999).shadow();
        let mut shadow = Txn::begin_with(ghost, Timestamp(10), dest.id());
        shadow
            .insert(&dest.storage, ShardId(0), 7, val("ghost"))
            .unwrap();
        prepare_participant(&dest.storage, ghost).unwrap();
        let (c, r) = resolve_prepared_shadows(cluster.node(NodeId(0)), dest);
        assert_eq!((c, r), (0, 1));
        assert_eq!(
            dest.storage.clog.status(ghost),
            remus_storage::TxnStatus::Aborted
        );
    }
}
