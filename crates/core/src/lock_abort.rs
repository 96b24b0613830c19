//! The *lock-and-abort* push baseline (Citus / FusionInsight LibrA style,
//! §2.3.3).
//!
//! Same snapshot copy and asynchronous catch-up as Remus, but the
//! ownership transfer phase:
//!
//! 1. closes the write gates of the migrating shards (new writers block);
//! 2. terminates, server-side, every transaction currently holding writes
//!    on them ("transactions that hold the locks in a conflict mode are
//!    terminated in advance") — prepared victims are past the point of no
//!    return and are waited out instead;
//! 3. replays the remaining final updates on the destination;
//! 4. flips the shard map with the 2PC transaction and drops the source
//!    copy;
//! 5. reopens the gates — blocked writers wake up, find the shard gone,
//!    and abort.
//!
//! Transactions with pre-transfer snapshots that later touch the migrated
//! shard abort with `NotOwner` (counted as migration-induced), which is
//! exactly the cost the paper attributes to this approach under
//! long-running transactions.

use std::sync::Arc;
use std::time::Instant;

use remus_cluster::{Cluster, Node};
use remus_common::{DbResult, ShardId};
use remus_storage::TxnStatus;

use crate::pipeline::{PushPipeline, DRAIN_TIMEOUT};
use crate::report::{MigrationEngine, MigrationReport, MigrationTask};
use crate::ssi_handover::doom_ssi_straddlers;

/// Why this engine's victims were terminated, as they see it.
const REASON: &str = "lock-and-abort ownership transfer";

/// The lock-and-abort engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct LockAndAbort;

impl LockAndAbort {
    /// Creates the engine.
    pub fn new() -> Self {
        LockAndAbort
    }
}

/// The migrating shards' write gates, closed; reopened on drop so no exit
/// path strands the writers blocked behind them.
struct ClosedGates<'a> {
    source: &'a Node,
    shards: &'a [ShardId],
}

impl<'a> ClosedGates<'a> {
    fn close(source: &'a Node, shards: &'a [ShardId]) -> Self {
        for shard in shards {
            source.storage.gate.close(*shard);
        }
        ClosedGates { source, shards }
    }
}

impl Drop for ClosedGates<'_> {
    fn drop(&mut self) {
        for shard in self.shards {
            self.source.storage.gate.open(*shard);
        }
    }
}

impl MigrationEngine for LockAndAbort {
    fn name(&self) -> &'static str {
        "lock-and-abort"
    }

    fn migrate(&self, cluster: &Arc<Cluster>, task: &MigrationTask) -> DbResult<MigrationReport> {
        let mut p = PushPipeline::start(self.name(), cluster, task, false)?;
        p.catch_up()?;

        // Ownership transfer: lock, abort, replay final updates, remap.
        let transfer0 = Instant::now();
        let source = cluster.node(task.source);
        let lock_span = p.rec.start("lock_shards");
        let gates = ClosedGates::close(source, &task.shards);
        for shard in &task.shards {
            for victim in source.storage.writers_of(*shard) {
                if remus_txn::force_abort(&source.storage, victim, REASON) {
                    p.report.forced_aborts += 1;
                } else {
                    // The victim is mid-2PC: wait for it to resolve.
                    let status = source.storage.clog.wait_resolved(victim, DRAIN_TIMEOUT)?;
                    debug_assert!(matches!(
                        status,
                        TxnStatus::Committed(_) | TxnStatus::Aborted
                    ));
                }
            }
        }
        // Serializable mode: force-abort only found *writers*; straddling
        // readers hold SIREAD entries that would go stale with the move.
        // Doom them too, and carry the retained entries of committed
        // transactions to the destination.
        let (ssi_entries, ssi_doomed) = doom_ssi_straddlers(cluster, task, REASON);
        p.report.forced_aborts += ssi_doomed;
        p.rec
            .attr(lock_span, "ssi_entries_transferred", ssi_entries);
        p.rec.attr(lock_span, "ssi_straddlers_doomed", ssi_doomed);
        p.rec
            .attr(lock_span, "forced_aborts", p.report.forced_aborts);
        p.rec.end(lock_span);
        // Replay all remaining final updates.
        let replay_span = p.rec.start("final_replay");
        let final_lsn = source.storage.wal.flush_lsn();
        p.rec.attr(replay_span, "final_lsn", final_lsn.0);
        let sent_final = p.drain_to(final_lsn, "final update replay")?;
        p.rec.attr(replay_span, "sent_final", sent_final);
        p.rec.end(replay_span);
        // Remap and drop the source copy; waking blocked writers then find
        // the shard gone and abort.
        p.divert(false)?;
        p.retire_source();
        drop(gates);
        p.report.transfer_phase = transfer0.elapsed();
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::{NodeId, ShardId, TableId};
    use remus_storage::Value;

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn active_writer_is_terminated_during_transfer() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..20 {
            session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
        }
        // A long-running transaction holds uncommitted writes on the shard.
        let victim_session = Session::connect(&cluster, NodeId(0));
        let mut victim = victim_session.begin();
        victim.update(&layout, 3, val("uncommitted")).unwrap();

        let cluster2 = Arc::clone(&cluster);
        let migration = std::thread::spawn(move || {
            let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
            LockAndAbort::new().migrate(&cluster2, &task)
        });
        // The migration force-aborts the victim rather than waiting for it;
        // it completes while the victim is still "running".
        let report = migration.join().unwrap().unwrap();
        assert_eq!(report.forced_aborts, 1);
        // The victim's next action observes the migration abort.
        let err = victim.read(&layout, 3).unwrap_err();
        assert!(err.is_migration_induced());
        drop(victim);
        // The uncommitted write is gone; the old value survived the move.
        let (v, _) = session.run(|t| t.read(&layout, 3)).unwrap();
        assert_eq!(v, Some(val("v0")));
    }

    #[test]
    fn old_snapshot_access_after_transfer_aborts() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(1));
        session.run(|t| t.insert(&layout, 1, val("v"))).unwrap();
        let mut old_txn = session.begin();
        // Touch nothing yet; migrate.
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        LockAndAbort::new().migrate(&cluster, &task).unwrap();
        // The old transaction routes to the source by its snapshot and
        // finds the shard gone: a migration-induced abort.
        let err = old_txn.read(&layout, 1).unwrap_err();
        assert!(err.is_migration_induced());
        drop(old_txn);
        // Fresh transactions work on the destination.
        let (v, _) = session.run(|t| t.read(&layout, 1)).unwrap();
        assert_eq!(v, Some(val("v")));
    }
}
