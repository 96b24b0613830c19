//! Commit and abort protocols: the one two-phase commit of the system.
//!
//! [`commit_txn`] is the only place the coordinator sequence is written —
//! sessions, the handover transaction `T_m` of every migration engine, the
//! chaos lab's crash drill and the recovery tests all commit through it:
//!
//! * Single write-node transactions take the fast path of §2.2: mark
//!   `Prepared` in the CLOG, assign the commit timestamp, replace the
//!   status with it.
//! * Multi-node transactions use two-phase commit; the prepare-wait rule
//!   falls out of the `Prepared` CLOG status blocking readers.
//! * On nodes whose installed [`crate::hooks::SyncCommitHook`] reports sync mode, the
//!   transaction writes its validation (prepare) record and blocks until
//!   the destination validates its replayed changes — MOCC's validation
//!   stage. A validation failure aborts the whole transaction.
//! * Under DTS, the coordinator observes a clock tick from every
//!   participant after prepare, so the commit timestamp exceeds every
//!   participant's prepare time (the causality the prepare-wait correctness
//!   argument needs); participants observe the commit timestamp back.
//!
//! A transaction that carries a fault decision ([`Txn::seams`]; only `T_m`
//! does) has it consulted at four seams of the two-phase path. The action
//! table, stated once:
//!
//! | seam | `Fail` | `Crash` leaves |
//! |---|---|---|
//! | `TmBeforePrepare` | aborts cleanly | writes in progress, nothing prepared: recovery rolls back |
//! | `TmAfterPrepare` | rolls back every prepared participant | prepared everywhere, no decision persisted: rolls back |
//! | `TmBeforeCommit` | — (timestamp chosen: past the point of no return) | still no commit record anywhere: rolls back |
//! | `TmAfterFirstCommit` | — | one participant in phase two: recovery rolls the rest *forward* |
//!
//! `Crash` returns [`DbError::InDoubt`] with the xid and resolves nothing:
//! no record, no CLOG change, no purge, the handle left `Active` — what a
//! dead coordinator leaves to [`commit_prepared`] / [`rollback_prepared`]
//! under recovery's rule. `Delay` is slept by whoever decides (the
//! cluster's seam helper) and then proceeds; `—` proceeds.
//!
//! The participant steps ([`prepare_participant`], [`commit_prepared`],
//! [`rollback_prepared`]) are shared with the destination-side replay
//! process, which drives shadow transactions through exactly the same
//! state machine, and with crash recovery.

use std::sync::Arc;

use remus_clock::TimestampOracle;
use remus_common::{DbError, DbResult, FaultAction, InjectionPoint, Timestamp, TxnId};
use remus_wal::{LogOp, LogRecord};

use crate::hooks::{CommitMode, SyncCommitHook};
use crate::net::Network;
use crate::node::NodeStorage;
use crate::ssi::SealOutcome;
use crate::txn::{Txn, TxnState};

/// SSI commit-entry check: seal the handle (so post-seal edges abort their
/// live side instead), fail a handover-doomed transaction with a migration
/// abort, and fail a dangerous-structure pivot with a serialization
/// failure. No-op under plain snapshot isolation.
fn ssi_precommit(txn: &Txn) -> DbResult<()> {
    let Some(handle) = &txn.ssi else {
        return Ok(());
    };
    if let SealOutcome::Doomed(reason) = handle.seal() {
        return Err(DbError::MigrationAbort {
            txn: txn.xid,
            reason,
        });
    }
    if handle.is_pivot() {
        if let Some(ssi) = txn.participants.first().and_then(|p| p.node.ssi.as_ref()) {
            ssi.ssi_aborts.inc();
        }
        return Err(DbError::SsiAbort { txn: txn.xid });
    }
    Ok(())
}

/// Writes the prepare (validation) record and marks the CLOG prepared.
///
/// The prepare record is appended durably: once a participant votes yes it
/// must be able to honor the decision after a crash, which requires the
/// vote (and, transitively, the write records before it) on disk.
pub fn prepare_participant(node: &NodeStorage, xid: TxnId) -> DbResult<()> {
    node.wal
        .append_durable(LogRecord::new(xid, LogOp::Prepare))?;
    node.clog.set_prepared(xid)
}

/// Resolves `xid` as committed at `ts` on one node. `prepared` says whether
/// a prepare record precedes the decision (it picks the record kind).
///
/// The decision record is appended *before* the CLOG flips: a conflicting
/// writer waiting on this transaction wakes only after the CLOG commit, so
/// its subsequent records land after this commit record — the propagation
/// stream then replays per-key conflicting transactions in their true
/// commit-dependency order. It is durable before the commit is
/// acknowledged. Only then does the transaction leave the active registry.
fn resolve_committed(
    node: &NodeStorage,
    xid: TxnId,
    ts: Timestamp,
    prepared: bool,
) -> DbResult<()> {
    let decision = if prepared {
        LogOp::CommitPrepared(ts)
    } else {
        LogOp::Commit(ts)
    };
    node.wal.append_durable(LogRecord::new(xid, decision))?;
    node.clog.set_committed(xid, ts)?;
    node.deregister(xid);
    Ok(())
}

/// Resolves `xid` as aborted on one node: decision record, CLOG, then the
/// purge of everything the active registry says it wrote here. An abort
/// nobody acknowledges need not wait for the fsync.
fn resolve_aborted(node: &NodeStorage, xid: TxnId, prepared: bool) {
    let decision = if prepared {
        LogOp::RollbackPrepared
    } else {
        LogOp::Abort
    };
    node.wal.append(LogRecord::new(xid, decision));
    node.clog.set_aborted(xid);
    if let Some(info) = node.deregister(xid) {
        for (shard, key) in info.writes {
            if let Some(table) = node.table(shard) {
                table.purge_txn([key], xid);
            }
        }
    }
}

/// Commits a prepared transaction on one node with the decided timestamp.
pub fn commit_prepared(node: &NodeStorage, xid: TxnId, ts: Timestamp) -> DbResult<()> {
    resolve_committed(node, xid, ts, true)
}

/// Rolls back a prepared transaction on one node, purging its writes.
pub fn rollback_prepared(node: &NodeStorage, xid: TxnId) {
    resolve_aborted(node, xid, true)
}

/// A transaction in commit progress: the hooks that were asked
/// `begin_commit`, with their answers. Its drop tells each of them
/// `end_commit` — with the commit timestamp if one was recorded, `None`
/// otherwise — so no exit of [`commit_txn`] leaves the sync barrier's
/// `TS_unsync` bookkeeping waiting for a transaction that is gone.
struct CommitProgress {
    xid: TxnId,
    asked: Vec<(Arc<dyn SyncCommitHook>, CommitMode)>,
    committed: Option<Timestamp>,
}

impl Drop for CommitProgress {
    fn drop(&mut self) {
        for (hook, _) in &self.asked {
            hook.end_commit(self.xid, self.committed);
        }
    }
}

/// Commits the transaction, returning its commit timestamp.
///
/// Read-only transactions commit trivially at their snapshot. On any
/// failure — doom, SSI, a refused prepare, a failed validation, an injected
/// `Fail` — the transaction is fully aborted before the error returns; the
/// one exception is [`DbError::InDoubt`] (an injected `Crash`, see the
/// module docs), which cleans nothing up.
pub fn commit_txn(
    txn: &mut Txn,
    oracle: &dyn TimestampOracle,
    net: &dyn Network,
) -> DbResult<Timestamp> {
    if !txn.is_active() {
        return Err(DbError::Internal(format!(
            "commit on finished {:?}",
            txn.state
        )));
    }
    // Declared first, dropped last: the hooks hear `end_commit` after the
    // resolution records below hit the WAL.
    let mut progress = CommitProgress {
        xid: txn.xid,
        asked: Vec::new(),
        committed: None,
    };
    let result = run_protocol(txn, oracle, net, &mut progress);
    match result {
        Ok(ts) => {
            // A read-only serializable transaction records its commit too,
            // so its retained SIREAD entries carry a timestamp for the
            // watermark GC.
            if let Some(h) = &txn.ssi {
                h.mark_committed(ts);
            }
            txn.state = TxnState::Committed(ts);
            progress.committed = Some(ts);
        }
        Err(DbError::InDoubt(_)) => {}
        Err(_) => abort_txn(txn),
    }
    result
}

/// Visits one seam of the two-phase path. `fail_reason` is `None` where
/// 2PC is past its point of no return and `Fail` cannot be expressed.
fn seam(txn: &Txn, point: InjectionPoint, fail_reason: Option<&'static str>) -> DbResult<()> {
    let Some(decide) = &txn.seams else {
        return Ok(());
    };
    match (decide(point), fail_reason) {
        (FaultAction::Crash, _) => Err(DbError::InDoubt(txn.xid)),
        (FaultAction::Fail, Some(reason)) => Err(DbError::MigrationAbort {
            txn: txn.xid,
            reason,
        }),
        _ => Ok(()),
    }
}

/// The coordinator sequence. Any `Err` but `InDoubt` is turned into a full
/// abort by [`commit_txn`].
fn run_protocol(
    txn: &mut Txn,
    oracle: &dyn TimestampOracle,
    net: &dyn Network,
    progress: &mut CommitProgress,
) -> DbResult<Timestamp> {
    let (xid, coordinator) = (txn.xid, txn.coordinator);
    // Doom check on entry to commit progress.
    for p in &txn.participants {
        p.node.check_doom(xid)?;
    }
    // SSI: seal and run the dangerous-structure pivot check before any
    // node enters commit progress. A read-only transaction must pass it
    // too: a migration handover may have doomed it (its SIREAD entries
    // were abandoned).
    ssi_precommit(txn)?;
    if txn.participants.is_empty() {
        return Ok(txn.start_ts);
    }

    // Enter commit progress: ask each node's hook, where a migration
    // installed one, for the commit mode.
    for p in &txn.participants {
        if let Some(hook) = p.node.hook() {
            let mode = hook.begin_commit(xid, &p.node.written_shards(xid));
            progress.asked.push((hook, mode));
        }
    }
    let any_sync = progress.asked.iter().any(|(_, m)| *m == CommitMode::Sync);

    if txn.participants.len() == 1 && !any_sync {
        // Single-node fast path (§2.2): prepared status guards the window
        // between timestamp assignment and CLOG update.
        let node = &txn.participants[0].node;
        node.clog.set_prepared(xid)?;
        let ts = oracle.commit_ts(node.id);
        resolve_committed(node, xid, ts, false)?;
        // The commit timestamp travels back to the coordinator with the
        // result; under DTS the coordinator's clock must observe it so the
        // session's next snapshot is not stale with respect to its own
        // previous commit (per-session monotonicity, §2.2).
        if node.id != coordinator {
            net.hop(node.id, coordinator);
            oracle.observe(coordinator, ts);
        }
        return Ok(ts);
    }

    // One 2PC message between the coordinator and a participant.
    let message = |from, to, node: &NodeStorage| {
        net.hop(from, to);
        node.counters.twopc_hops.inc();
    };
    seam(
        txn,
        InjectionPoint::TmBeforePrepare,
        Some("injected failure before prepare"),
    )?;
    // Phase one: prepare everywhere (validation record + CLOG).
    for p in &mut txn.participants {
        message(coordinator, p.node.id, &p.node);
        prepare_participant(&p.node, xid)?;
        p.prepared = true;
    }
    seam(
        txn,
        InjectionPoint::TmAfterPrepare,
        Some("injected failure after prepare"),
    )?;
    // MOCC validation: wait for the destination's verdict on every
    // sync-mode node. A failed one is a rollback decision sent to every
    // participant.
    for (hook, mode) in &progress.asked {
        if *mode == CommitMode::Sync {
            if let Err(e) = hook.await_validation(xid) {
                for p in &txn.participants {
                    message(coordinator, p.node.id, &p.node);
                }
                return Err(e);
            }
        }
    }
    // Decide the commit timestamp after every prepare completed,
    // observing participant clocks for DTS causality.
    for p in &txn.participants {
        if p.node.id != coordinator {
            let participant_now = oracle.commit_ts(p.node.id);
            message(p.node.id, coordinator, &p.node);
            oracle.observe(coordinator, participant_now);
        }
    }
    let ts = oracle.commit_ts(coordinator);
    seam(txn, InjectionPoint::TmBeforeCommit, None)?;
    // Phase two: commit everywhere. The first commit record is the point
    // recovery decides by.
    for (i, p) in txn.participants.iter().enumerate() {
        message(coordinator, p.node.id, &p.node);
        oracle.observe(p.node.id, ts);
        commit_prepared(&p.node, xid, ts).expect("participant cannot refuse a 2PC commit decision");
        if i == 0 {
            seam(txn, InjectionPoint::TmAfterFirstCommit, None)?;
        }
    }
    Ok(ts)
}

/// Aborts the transaction on every node it wrote: abort record, CLOG,
/// purge. Safe to call on read-only and on finished transactions.
pub fn abort_txn(txn: &mut Txn) {
    if !txn.is_active() {
        return;
    }
    if let Some(h) = &txn.ssi {
        h.mark_aborted();
    }
    for p in &txn.participants {
        resolve_aborted(&p.node, txn.xid, p.prepared);
        // The victim's own abort is what observes a doom.
        p.node.clear_doom(txn.xid);
    }
    txn.state = TxnState::Aborted;
}

/// Server-side termination of a victim transaction on one node (the
/// lock-and-abort engine "terminates in advance" transactions holding
/// conflicting locks, §2.3.3). Dooms the xid so the client sees a
/// migration abort, then aborts and purges its writes on this node; the
/// victim's own [`abort_txn`] clears the doom. Returns `false` if the
/// transaction had already prepared, committed or aborted.
pub fn force_abort(node: &NodeStorage, xid: TxnId, reason: &'static str) -> bool {
    node.doom(xid, reason);
    // The CLOG goes first here, and atomically: the victim may be entering
    // its own commit, and whichever of the two flips the status wins.
    if !node.clog.try_abort(xid) {
        // Already prepared or committed: past the point of no return. Or
        // already aborted: the victim's own abort cleared the list before
        // this doom, and nobody will observe it.
        node.clear_doom(xid);
        return false;
    }
    resolve_aborted(node, xid, false);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::SyncCommitHook;
    use crate::net::NoNetwork;
    use parking_lot::Mutex;
    use remus_clock::Gts;
    use remus_common::{NodeId, ShardId, SimConfig};
    use remus_storage::{TxnStatus, Value};

    fn node(id: u32) -> Arc<NodeStorage> {
        let n = Arc::new(NodeStorage::new(NodeId(id), SimConfig::instant()));
        n.create_shard(ShardId(id as u64));
        n
    }

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn single_node_commit_assigns_timestamp_and_logs() {
        let n = node(1);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        txn.insert(&n, ShardId(1), 1, val("a")).unwrap();
        let ts = commit_txn(&mut txn, &gts, &NoNetwork).unwrap();
        assert!(ts > txn.start_ts);
        assert_eq!(n.clog.status(txn.xid), TxnStatus::Committed(ts));
        assert_eq!(n.active_count(), 0);
        // WAL: begin + write record + commit record.
        assert_eq!(n.wal.flush_lsn().0, 3);
        assert_eq!(n.wal.get(remus_wal::Lsn(3)).unwrap().op, LogOp::Commit(ts));
    }

    #[test]
    fn read_only_commit_is_trivial() {
        let n = node(1);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        let ts = commit_txn(&mut txn, &gts, &NoNetwork).unwrap();
        assert_eq!(ts, txn.start_ts);
        assert_eq!(n.wal.flush_lsn().0, 0);
    }

    #[test]
    fn distributed_commit_uses_2pc_on_all_participants() {
        let (a, b) = (node(1), node(2));
        let gts = Gts::new();
        let mut txn = Txn::begin(&a, gts.start_ts(a.id));
        txn.insert(&a, ShardId(1), 1, val("x")).unwrap();
        txn.insert(&b, ShardId(2), 2, val("y")).unwrap();
        let ts = commit_txn(&mut txn, &gts, &NoNetwork).unwrap();
        for n in [&a, &b] {
            assert_eq!(n.clog.status(txn.xid), TxnStatus::Committed(ts));
            // Begin + Write + Prepare + CommitPrepared.
            assert_eq!(n.wal.flush_lsn().0, 4);
            assert_eq!(
                n.wal.get(remus_wal::Lsn(4)).unwrap().op,
                LogOp::CommitPrepared(ts)
            );
        }
        // Coordinator node: prepare + commit hops. Participant: prepare +
        // clock observation + commit hops.
        assert_eq!(a.counters.twopc_hops.get(), 2);
        assert_eq!(b.counters.twopc_hops.get(), 3);
    }

    #[test]
    fn single_node_fast_path_counts_no_2pc_hops() {
        let n = node(1);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        txn.insert(&n, ShardId(1), 1, val("a")).unwrap();
        commit_txn(&mut txn, &gts, &NoNetwork).unwrap();
        assert_eq!(n.counters.twopc_hops.get(), 0);
    }

    #[test]
    fn ww_conflict_is_counted_on_the_node() {
        let n = node(1);
        let gts = Gts::new();
        let mut t0 = Txn::begin(&n, gts.start_ts(n.id));
        t0.insert(&n, ShardId(1), 1, val("base")).unwrap();
        commit_txn(&mut t0, &gts, &NoNetwork).unwrap();
        // t2's snapshot predates t1's commit: first committer wins.
        let mut t2 = Txn::begin(&n, gts.start_ts(n.id));
        let mut t1 = Txn::begin(&n, gts.start_ts(n.id));
        t1.update(&n, ShardId(1), 1, val("x")).unwrap();
        commit_txn(&mut t1, &gts, &NoNetwork).unwrap();
        let err = t2.update(&n, ShardId(1), 1, val("y")).unwrap_err();
        assert!(matches!(err, DbError::WwConflict { .. }));
        assert_eq!(n.counters.ww_aborts.get(), 1);
    }

    #[test]
    fn distributed_commit_ts_exceeds_under_dts() {
        use remus_clock::Dts;
        let dts = Dts::new(3, std::time::Duration::from_millis(2));
        let (a, b) = (node(1), node(2));
        let mut txn = Txn::begin(&a, dts.start_ts(a.id));
        txn.insert(&a, ShardId(1), 1, val("x")).unwrap();
        txn.insert(&b, ShardId(2), 2, val("y")).unwrap();
        let ts = commit_txn(&mut txn, &dts, &NoNetwork).unwrap();
        assert!(ts > txn.start_ts);
        // A later transaction on the participant sees a larger snapshot.
        assert!(dts.start_ts(b.id) > ts);
    }

    #[test]
    fn abort_purges_writes_everywhere() {
        let (a, b) = (node(1), node(2));
        let gts = Gts::new();
        let mut txn = Txn::begin(&a, gts.start_ts(a.id));
        txn.insert(&a, ShardId(1), 1, val("x")).unwrap();
        txn.insert(&b, ShardId(2), 2, val("y")).unwrap();
        abort_txn(&mut txn);
        assert_eq!(a.clog.status(txn.xid), TxnStatus::Aborted);
        assert_eq!(b.clog.status(txn.xid), TxnStatus::Aborted);
        assert_eq!(a.table(ShardId(1)).unwrap().stats().versions, 0);
        assert_eq!(b.table(ShardId(2)).unwrap().stats().versions, 0);
        // Idempotent.
        abort_txn(&mut txn);
    }

    #[test]
    fn doomed_txn_aborts_at_commit() {
        let n = node(1);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        txn.insert(&n, ShardId(1), 1, val("a")).unwrap();
        n.doom(txn.xid, "ownership transfer");
        let err = commit_txn(&mut txn, &gts, &NoNetwork).unwrap_err();
        assert!(err.is_migration_induced());
        assert_eq!(n.clog.status(txn.xid), TxnStatus::Aborted);
        assert_eq!(txn.state, TxnState::Aborted);
    }

    #[test]
    fn force_abort_terminates_victim_server_side() {
        let n = node(1);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        txn.insert(&n, ShardId(1), 1, val("a")).unwrap();
        assert!(force_abort(&n, txn.xid, "lock-and-abort"));
        assert_eq!(n.clog.status(txn.xid), TxnStatus::Aborted);
        assert_eq!(n.table(ShardId(1)).unwrap().stats().versions, 0);
        // The client discovers the abort at its next action.
        assert!(txn.read(&n, ShardId(1), 1).is_err());
    }

    /// Red on the parent, where a successful force-abort's doom stayed in
    /// the node's list for ever.
    #[test]
    fn a_force_abort_victims_own_abort_clears_its_doom() {
        let n = node(1);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        txn.insert(&n, ShardId(1), 1, val("a")).unwrap();
        assert!(force_abort(&n, txn.xid, "lock-and-abort"));
        assert_eq!(n.doomed_count(), 1, "the victim has not observed it yet");
        let err = txn.read(&n, ShardId(1), 1).unwrap_err();
        assert!(err.is_migration_induced());
        abort_txn(&mut txn);
        assert_eq!(n.doomed_count(), 0);
    }

    /// Red on the parent, where a force-abort landing after its victim's
    /// own abort answered `true` and left the doom in the list for ever.
    #[test]
    fn a_force_abort_after_the_victims_own_abort_leaves_no_doom() {
        let n = node(1);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        txn.insert(&n, ShardId(1), 1, val("a")).unwrap();
        abort_txn(&mut txn);
        assert!(!force_abort(&n, txn.xid, "lock-and-abort"));
        assert_eq!(n.doomed_count(), 0);
        assert_eq!(n.clog.status(txn.xid), TxnStatus::Aborted);
    }

    #[test]
    fn force_abort_loses_to_commit() {
        let n = node(1);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        txn.insert(&n, ShardId(1), 1, val("a")).unwrap();
        let ts = commit_txn(&mut txn, &gts, &NoNetwork).unwrap();
        assert!(!force_abort(&n, txn.xid, "too late"));
        assert_eq!(n.clog.status(txn.xid), TxnStatus::Committed(ts));
    }

    /// A two-node transaction whose 2PC visits the seams with `decide`.
    fn seamed_txn(
        decide: impl Fn(InjectionPoint) -> FaultAction + Send + Sync + 'static,
    ) -> (Arc<NodeStorage>, Arc<NodeStorage>, Txn) {
        let (a, b) = (node(1), node(2));
        let mut txn = Txn::begin(&a, Timestamp(10));
        txn.insert(&a, ShardId(1), 1, val("x")).unwrap();
        txn.insert(&b, ShardId(2), 2, val("y")).unwrap();
        txn.seams = Some(Box::new(decide));
        (a, b, txn)
    }

    fn last_op(n: &NodeStorage) -> LogOp {
        n.wal.get(n.wal.flush_lsn()).unwrap().op.clone()
    }

    #[test]
    fn seams_are_visited_once_each_in_protocol_order_and_not_on_the_fast_path() {
        let visits = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&visits);
        let (_a, _b, mut txn) = seamed_txn(move |p| {
            log.lock().push(p);
            FaultAction::Continue
        });
        commit_txn(&mut txn, &Gts::new(), &NoNetwork).unwrap();
        assert_eq!(
            *visits.lock(),
            [
                InjectionPoint::TmBeforePrepare,
                InjectionPoint::TmAfterPrepare,
                InjectionPoint::TmBeforeCommit,
                InjectionPoint::TmAfterFirstCommit,
            ]
        );
        let n = node(1);
        let gts = Gts::new();
        let mut local = Txn::begin(&n, gts.start_ts(n.id));
        local.insert(&n, ShardId(1), 1, val("a")).unwrap();
        local.seams = Some(Box::new(|p| panic!("fast path visited {p}")));
        commit_txn(&mut local, &gts, &NoNetwork).unwrap();
    }

    #[test]
    fn injected_fail_aborts_every_participant_until_the_point_of_no_return() {
        use InjectionPoint::*;
        for (point, record) in [
            (TmBeforePrepare, Some(LogOp::Abort)),
            (TmAfterPrepare, Some(LogOp::RollbackPrepared)),
            (TmBeforeCommit, None),
            (TmAfterFirstCommit, None),
        ] {
            let (a, b, mut txn) = seamed_txn(move |p| match p == point {
                true => FaultAction::Fail,
                false => FaultAction::Continue,
            });
            let outcome = commit_txn(&mut txn, &Gts::new(), &NoNetwork);
            for n in [&a, &b] {
                assert_eq!(n.active_count(), 0, "{point}");
                match (&record, &outcome) {
                    (Some(record), Err(DbError::MigrationAbort { .. })) => {
                        assert_eq!(n.clog.status(txn.xid), TxnStatus::Aborted, "{point}");
                        assert_eq!(last_op(n), *record, "{point}");
                        assert_eq!(
                            n.table(ShardId(n.id.raw() as u64))
                                .unwrap()
                                .stats()
                                .versions,
                            0
                        );
                    }
                    (None, Ok(ts)) => {
                        assert_eq!(n.clog.status(txn.xid), TxnStatus::Committed(*ts), "{point}")
                    }
                    _ => panic!("{point}: {outcome:?}"),
                }
            }
        }
    }

    #[test]
    fn injected_crash_returns_in_doubt_and_resolves_nothing() {
        use InjectionPoint::*;
        use TxnStatus::{InProgress, Prepared};
        for (point, coordinator, participant) in [
            (TmBeforePrepare, Some(InProgress), InProgress),
            (TmAfterPrepare, Some(Prepared), Prepared),
            (TmBeforeCommit, Some(Prepared), Prepared),
            // The first participant (here the coordinator) entered phase two.
            (TmAfterFirstCommit, None, Prepared),
        ] {
            let (a, b, mut txn) = seamed_txn(move |p| match p == point {
                true => FaultAction::Crash,
                false => FaultAction::Continue,
            });
            let err = commit_txn(&mut txn, &Gts::new(), &NoNetwork).unwrap_err();
            assert_eq!(err, DbError::InDoubt(txn.xid), "{point}");
            assert!(txn.is_active(), "{point}");
            match coordinator {
                Some(status) => assert_eq!(a.clog.status(txn.xid), status, "{point}"),
                None => assert!(a.clog.commit_ts(txn.xid).is_some(), "{point}"),
            }
            assert_eq!(b.clog.status(txn.xid), participant, "{point}");
            assert!(!last_op(&b).is_resolution(), "{point}");
            assert_eq!(b.active_count(), 1, "{point}");
        }
    }

    /// A hook that forces sync mode and records the protocol interaction.
    struct RecordingHook {
        verdict: DbResult<()>,
        log: Mutex<Vec<String>>,
    }

    impl SyncCommitHook for RecordingHook {
        fn begin_commit(&self, _xid: TxnId, shards: &[ShardId]) -> CommitMode {
            self.log.lock().push(format!("begin {shards:?}"));
            CommitMode::Sync
        }
        fn await_validation(&self, _xid: TxnId) -> DbResult<()> {
            self.log.lock().push("validate".into());
            self.verdict.clone()
        }
        fn end_commit(&self, _xid: TxnId, ts: Option<Timestamp>) {
            self.log.lock().push(format!("end {:?}", ts.is_some()));
        }
    }

    #[test]
    fn sync_mode_commit_waits_for_validation() {
        let n = node(1);
        let hook = Arc::new(RecordingHook {
            verdict: Ok(()),
            log: Mutex::new(vec![]),
        });
        n.install_hook(Arc::clone(&hook) as Arc<dyn SyncCommitHook>);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        txn.insert(&n, ShardId(1), 1, val("a")).unwrap();
        let ts = commit_txn(&mut txn, &gts, &NoNetwork).unwrap();
        assert_eq!(n.clog.status(txn.xid), TxnStatus::Committed(ts));
        // Prepare record precedes the commit-prepared record in the WAL.
        assert_eq!(n.wal.get(remus_wal::Lsn(3)).unwrap().op, LogOp::Prepare);
        assert_eq!(
            n.wal.get(remus_wal::Lsn(4)).unwrap().op,
            LogOp::CommitPrepared(ts)
        );
        let log = hook.log.lock();
        assert_eq!(*log, vec!["begin [ShardId(1)]", "validate", "end true"]);
    }

    #[test]
    fn failed_validation_aborts_source_transaction() {
        let n = node(1);
        let fail = DbError::WwConflict {
            txn: TxnId::INVALID,
            other: TxnId::INVALID,
        };
        let hook = Arc::new(RecordingHook {
            verdict: Err(fail.clone()),
            log: Mutex::new(vec![]),
        });
        n.install_hook(Arc::clone(&hook) as Arc<dyn SyncCommitHook>);
        let gts = Gts::new();
        let mut txn = Txn::begin(&n, gts.start_ts(n.id));
        txn.insert(&n, ShardId(1), 1, val("a")).unwrap();
        let err = commit_txn(&mut txn, &gts, &NoNetwork).unwrap_err();
        assert_eq!(err, fail);
        assert_eq!(n.clog.status(txn.xid), TxnStatus::Aborted);
        assert_eq!(n.table(ShardId(1)).unwrap().stats().versions, 0);
        assert_eq!(
            n.wal.get(remus_wal::Lsn(4)).unwrap().op,
            LogOp::RollbackPrepared
        );
        assert_eq!(hook.log.lock().last().unwrap(), "end false");
    }

    #[test]
    fn every_exit_tells_an_asked_hook_end_commit_exactly_once() {
        use InjectionPoint::*;
        for (point, action, ended) in [
            (TmBeforePrepare, FaultAction::Fail, "end false"),
            (TmAfterPrepare, FaultAction::Fail, "end false"),
            (TmAfterPrepare, FaultAction::Crash, "end false"),
            (TmAfterFirstCommit, FaultAction::Continue, "end true"),
        ] {
            let (a, _b, mut txn) = seamed_txn(move |p| match p == point {
                true => action,
                false => FaultAction::Continue,
            });
            let hook = Arc::new(RecordingHook {
                verdict: Ok(()),
                log: Mutex::new(vec![]),
            });
            a.install_hook(Arc::clone(&hook) as Arc<dyn SyncCommitHook>);
            let _ = commit_txn(&mut txn, &Gts::new(), &NoNetwork);
            let log = hook.log.lock();
            let ends: Vec<_> = log.iter().filter(|l| l.starts_with("end")).collect();
            assert_eq!(ends, [ended], "{point} {action:?}: {log:?}");
        }
    }
}
