//! Crash-restart WAL replay.
//!
//! After [`crate::node::NodeStorage::crash_reset`] reopened the WAL from its
//! durability backend, the node holds a recovered record sequence and empty
//! MVCC tables. [`replay_node_wal`] rebuilds storage state in **one pass**
//! over that sequence, from the retained head, through the [`WalTail`]
//! `crash_reset` returned — its slot holds WAL truncation off the log
//! until replay has read it — read in runs as the streams
//! read it and through the same [`TxnAssembler`] the propagation process
//! and the replica applier read a log with (its shard predicate here:
//! every shard), using the classic redo contract:
//!
//! * **Committed** transactions (a `Commit`/`CommitPrepared` record
//!   survived) are redone as their resolution record arrives, by
//!   [`redo_committed`] — the one redo rule, shared with the replica
//!   applier and migration catch-up: the transaction is re-registered in
//!   the CLOG with its original commit timestamp first, then each write is
//!   installed **at that timestamp's place** in its chain. Placement is by
//!   commit timestamp, not by log position, so the result does not depend
//!   on the order resolution records are met in (one node's log happens to
//!   be in commit order per key; a log merged from several nodes is not).
//! * **Prepared in-doubt** transactions (a `Prepare` record but no
//!   decision) are what the assembler still holds at the end of the log with
//!   `prepared` set: they are re-applied as *uncommitted* versions and
//!   re-registered as `Prepared`, so the coordinator's eventual
//!   `commit_prepared` / `rollback_prepared` resolves them exactly as it
//!   would have pre-crash.
//! * Everything else — aborted, rolled back, or in-progress with no
//!   prepare — is skipped. The reset CLOG reports unknown xids as
//!   `Aborted`, which is precisely the crash semantics: an unprepared
//!   transaction whose commit record did not reach disk never happened.
//!
//! Replay only sees what WAL truncation left behind. The cluster couples
//! truncation to consumed propagation slots, not to checkpoints, so a node
//! that truncated its log cannot rebuild the truncated prefix, and a
//! transaction's `Begin` can be cut while its later records are kept:
//! replay redoes such a transaction (`begin_lsn == None` is not a reason to
//! skip here — the start is a truncation point, not a slot). A committed
//! install reports the base image it found and replay does not ask
//! ([`redo_committed`]), so it needs no leniency. The one path that
//! still does is the in-doubt one (`redo_write`, private): an
//! uncommitted version has no commit timestamp to be placed by, so it goes
//! through the ordinary write path, which checks the base image — and a base
//! image a frozen install or a truncated record provided is gone
//! (insert-over-live falls back to update, update-of-missing to insert).

use std::time::Duration;

use remus_common::{DbError, DbResult, Timestamp, TxnId};
use remus_storage::Placement;
use remus_wal::log::SEGMENT_RECORDS;
use remus_wal::{
    LogOp, LogRecord, TailRead, TxnAssembler, TxnEvent, TxnOutcome, WriteKind, WriteOp,
};

use crate::node::{NodeStorage, WalTail};

/// Per-operation timeout during replay. Replay is single-threaded over a
/// freshly reset node, so nothing should ever block; the timeout only
/// bounds the damage if that invariant breaks.
const REPLAY_TIMEOUT: Duration = Duration::from_secs(5);

/// What a WAL replay did, for logging and assertions in restart tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ReplaySummary {
    /// WAL records scanned.
    pub records: usize,
    /// Transactions re-applied as committed.
    pub committed: usize,
    /// Transactions re-instated as prepared in-doubt.
    pub prepared_in_doubt: usize,
    /// Transactions with a surviving abort/rollback record.
    pub aborted: usize,
    /// Unresolved, never-prepared transactions dropped by the crash.
    pub dropped_in_progress: usize,
    /// Row writes re-applied to MVCC tables.
    pub writes_applied: usize,
}

/// Rebuilds a node's storage state from its (already reopened) WAL, read
/// through `reader`.
///
/// Call after [`NodeStorage::crash_reset`], with the tail it returned; the
/// tables must be empty apart from frozen bootstrap rows the caller
/// re-seeded (frozen installs are not WAL-logged; row-level redo installs
/// above them).
pub fn replay_node_wal(node: &NodeStorage, mut reader: WalTail) -> DbResult<ReplaySummary> {
    let mut summary = ReplaySummary::default();
    let mut assembler = TxnAssembler::new(reader.consumed(), |_| true);
    let mut max_local_seq: Option<u64> = None;
    while let TailRead::Batch(run) = reader.next_batch(SEGMENT_RECORDS, Duration::ZERO) {
        for (lsn, record) in run.iter() {
            summary.records += 1;
            let xid = record.xid();
            max_local_seq = max_local_seq.max((xid.origin() == node.id).then_some(xid.seq()));
            // `txn.begin_lsn` is not asked: the head of a truncated log can
            // cut a transaction's `Begin` and keep its resolution, and it is
            // redone.
            if let TxnEvent::Resolved { txn, outcome, .. } = assembler.feed(lsn, record) {
                match outcome {
                    TxnOutcome::Committed(cts) => {
                        summary.writes_applied +=
                            redo_committed(node, txn.xid, cts, &txn.writes, |_, _| {})?;
                        summary.committed += 1;
                    }
                    TxnOutcome::Aborted => summary.aborted += 1,
                }
            }
        }
    }
    if let Some(seq) = max_local_seq {
        node.reserve_seq(seq);
    }
    // What the log ends without a decision for: re-instate the prepared
    // (uncommitted versions + `Prepared` CLOG status) so the coordinator's
    // decision can land on the restarted node; the rest never happened.
    for txn in assembler.into_open() {
        if !txn.prepared {
            summary.dropped_in_progress += 1;
            continue;
        }
        node.clog.begin(txn.xid);
        for w in &txn.writes {
            summary.writes_applied += usize::from(redo_write(node, txn.xid, w)?);
        }
        node.clog.set_prepared(txn.xid)?;
        summary.prepared_in_doubt += 1;
    }
    Ok(summary)
}

/// The one redo rule for a transaction a log says committed at `cts`: resolve
/// it in `node`'s CLOG, then install each write at `cts`'s place in its chain
/// ([`install_committed`](remus_storage::VersionedTable::install_committed)),
/// creating shard tables as needed, and tell `placed` where each landed.
/// Crash replay and the replica applier call this and do not ask — a
/// truncated log or a cut snapshot can lack the base image; migration
/// catch-up logs first ([`log_and_redo_committed`]) and checks the order.
/// Order-free and idempotent: a second delivery of the transaction (a
/// retransmit, its migration shadow, a 2PC participant's stream, a copied
/// row) edits its versions in place and finds the CLOG entry equal;
/// resolving before installing means no reader ever meets an unresolved
/// version of `xid`. `Lock` records carry no image and install nothing.
/// Returns the row versions installed.
pub fn redo_committed(
    node: &NodeStorage,
    xid: TxnId,
    cts: Timestamp,
    writes: &[WriteOp],
    mut placed: impl FnMut(&WriteOp, Placement),
) -> DbResult<usize> {
    // Err means the xid is already resolved here; `set_committed` then only
    // checks that the timestamps agree.
    let _ = node.clog.try_begin(xid);
    node.clog.set_committed(xid, cts)?;
    let mut installed = 0;
    for w in writes {
        let table = node.create_shard(w.shard);
        placed(
            w,
            table.install_committed(w.key, w.kind, w.value.clone(), xid, cts, &node.clog),
        );
        installed += usize::from(w.kind != WriteKind::Lock);
    }
    Ok(installed)
}

/// [`redo_committed`] of a transaction `node` did not log itself, logged
/// first as the records a transaction of its own would leave: `xid` is
/// registered active, then `Begin(start_ts)`, one `Write` per write and
/// `Commit(cts)` are appended, so the node's replicas, its restart and a slot
/// created meanwhile see it; then it is redone, telling `placed` where each
/// write landed ([`Placement`]), and deregistered. Migration catch-up places a
/// committed source transaction on the destination this way and checks the
/// placements against commit order. The commit record is not waited for:
/// catch-up ends before `T_m`, and a destination crash before `T_m` cancels
/// the migration and drops the copy (§3.7), so nothing is acknowledged on the
/// strength of this record. Returns the row versions installed.
pub fn log_and_redo_committed(
    node: &NodeStorage,
    xid: TxnId,
    start_ts: Timestamp,
    cts: Timestamp,
    writes: &[WriteOp],
    placed: impl FnMut(&WriteOp, Placement),
) -> DbResult<usize> {
    node.register_active(xid);
    node.wal.append(LogRecord::new(xid, LogOp::Begin(start_ts)));
    for w in writes {
        node.wal
            .append(LogRecord::new(xid, LogOp::Write(w.clone())));
    }
    node.wal.append(LogRecord::new(xid, LogOp::Commit(cts)));
    let redo = redo_committed(node, xid, cts, writes, placed);
    node.deregister(xid);
    redo
}

/// Re-instates one write of a prepared in-doubt transaction as an
/// *uncommitted* version of `xid` (registered in progress by the caller).
/// There is no commit timestamp to place it by, so it takes the ordinary
/// write path — on top of the chain, which is right because a prepared
/// writer held the key's lock when the log ended — with `start_ts = MAX`, so
/// first-committer-wins never fires (validation happened before the crash).
/// Lenient where that path checks a base image replay cannot rebuild (a
/// frozen install is not logged, a truncated record is gone):
/// insert-over-live falls back to update, update-of-missing to insert,
/// delete-of-missing is a no-op.
///
/// Returns whether a row version was installed.
fn redo_write(node: &NodeStorage, xid: TxnId, w: &WriteOp) -> DbResult<bool> {
    if w.kind == WriteKind::Lock {
        return Ok(false);
    }
    let table = node.create_shard(w.shard);
    let redo = |kind| {
        let value = w.value.clone();
        let (clog, timeout) = (&node.clog, REPLAY_TIMEOUT);
        table.write(w.key, kind, value, xid, Timestamp::MAX, clog, timeout)
    };
    let outcome = match (w.kind, redo(w.kind)) {
        (WriteKind::Insert, Err(DbError::DuplicateKey)) => redo(WriteKind::Update),
        (WriteKind::Update, Err(DbError::KeyNotFound)) => redo(WriteKind::Insert),
        (WriteKind::Delete, Err(DbError::KeyNotFound)) => return Ok(false),
        (_, other) => other,
    };
    outcome?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::{NodeId, ShardId, SimConfig, WalConfig};
    use remus_storage::TxnStatus;
    use remus_wal::Lsn;

    fn bytes(s: &str) -> remus_storage::Value {
        remus_storage::Value::from(s.as_bytes().to_vec())
    }

    /// SI read as a detached observer transaction.
    fn read_at(
        node: &NodeStorage,
        shard: ShardId,
        key: u64,
        ts: Timestamp,
    ) -> Option<remus_storage::Value> {
        let observer = TxnId::new(NodeId(63), 1);
        node.table(shard)
            .unwrap()
            .read(key, ts, observer, &node.clog, REPLAY_TIMEOUT)
            .unwrap()
    }

    fn write(shard: u64, key: u64, kind: WriteKind, val: &str) -> LogOp {
        LogOp::Write(WriteOp {
            shard: ShardId(shard),
            key,
            kind,
            value: bytes(val),
        })
    }

    /// Drives a scripted history through a node's WAL and replays it into
    /// the (still empty) tables. Replay only consumes the WAL, so on the
    /// in-memory backend — where a real crash would erase the log — the
    /// tests call it directly; the file-backed test at the bottom runs the
    /// full `crash_reset` → replay pipeline.
    #[test]
    fn replay_rebuilds_committed_skips_unresolved_reinstates_prepared() {
        let node = NodeStorage::new(NodeId(1), SimConfig::instant());
        node.create_shard(ShardId(1));
        let committed = node.alloc_xid();
        let in_progress = node.alloc_xid();
        let prepared = node.alloc_xid();
        let aborted = node.alloc_xid();
        let wal = &node.wal;
        wal.append(LogRecord::new(committed, LogOp::Begin(Timestamp(10))));
        wal.append(LogRecord::new(
            committed,
            write(1, 100, WriteKind::Insert, "a"),
        ));
        wal.append(LogRecord::new(in_progress, LogOp::Begin(Timestamp(11))));
        wal.append(LogRecord::new(
            in_progress,
            write(1, 200, WriteKind::Insert, "lost"),
        ));
        wal.append(LogRecord::new(committed, LogOp::Commit(Timestamp(20))));
        wal.append(LogRecord::new(prepared, LogOp::Begin(Timestamp(12))));
        wal.append(LogRecord::new(
            prepared,
            write(1, 300, WriteKind::Insert, "maybe"),
        ));
        wal.append(LogRecord::new(prepared, LogOp::Prepare));
        wal.append(LogRecord::new(aborted, LogOp::Begin(Timestamp(13))));
        wal.append(LogRecord::new(aborted, LogOp::Abort));

        let summary = replay_node_wal(&node, node.create_slot(Lsn::ZERO)).unwrap();
        assert_eq!(summary.committed, 1);
        assert_eq!(summary.prepared_in_doubt, 1);
        assert_eq!(summary.aborted, 1);
        assert_eq!(summary.dropped_in_progress, 1);
        assert_eq!(summary.writes_applied, 2);

        // Committed row readable at its commit timestamp.
        assert_eq!(
            read_at(&node, ShardId(1), 100, Timestamp(20)),
            Some(bytes("a"))
        );
        // In-progress write vanished with the crash.
        assert_eq!(read_at(&node, ShardId(1), 200, Timestamp::MAX), None);
        // Prepared row exists but is not visible (uncommitted); CLOG says
        // Prepared so the coordinator decision can still land.
        assert_eq!(node.clog.status(prepared), TxnStatus::Prepared);
        assert_eq!(
            node.clog.status(committed),
            TxnStatus::Committed(Timestamp(20))
        );
        assert_eq!(node.clog.status(in_progress), TxnStatus::Aborted);

        // Recovered xids are never re-issued.
        let fresh = node.alloc_xid();
        assert!(fresh.seq() > aborted.seq());
    }

    #[test]
    fn replay_respects_resolution_order_not_begin_order() {
        let node = NodeStorage::new(NodeId(1), SimConfig::instant());
        node.create_shard(ShardId(2));
        let first = node.alloc_xid();
        let second = node.alloc_xid();
        let wal = &node.wal;
        // `second` begins first but commits last; its image must win.
        wal.append(LogRecord::new(second, LogOp::Begin(Timestamp(5))));
        wal.append(LogRecord::new(first, LogOp::Begin(Timestamp(6))));
        wal.append(LogRecord::new(first, write(2, 7, WriteKind::Insert, "old")));
        wal.append(LogRecord::new(first, LogOp::Commit(Timestamp(10))));
        wal.append(LogRecord::new(
            second,
            write(2, 7, WriteKind::Update, "new"),
        ));
        wal.append(LogRecord::new(second, LogOp::Commit(Timestamp(11))));

        replay_node_wal(&node, node.create_slot(Lsn::ZERO)).unwrap();
        assert_eq!(
            read_at(&node, ShardId(2), 7, Timestamp(10)),
            Some(bytes("old"))
        );
        assert_eq!(
            read_at(&node, ShardId(2), 7, Timestamp(11)),
            Some(bytes("new"))
        );
    }

    /// The redo rule places a version by its commit timestamp, not by where
    /// its resolution record sits in the log. One primary cannot produce this
    /// log today — writers of a key are serialised by its chain, so a node
    /// logs a key's commits in timestamp order — but a log merged from
    /// several nodes can, and the rule must not depend on the accident.
    #[test]
    fn replay_places_versions_by_commit_timestamp_not_by_log_position() {
        let node = NodeStorage::new(NodeId(1), SimConfig::instant());
        node.create_shard(ShardId(5));
        let newer = node.alloc_xid();
        let older = node.alloc_xid();
        let wal = &node.wal;
        wal.append(LogRecord::new(newer, LogOp::Begin(Timestamp(15))));
        wal.append(LogRecord::new(older, LogOp::Begin(Timestamp(5))));
        wal.append(LogRecord::new(newer, write(5, 7, WriteKind::Insert, "new")));
        wal.append(LogRecord::new(newer, LogOp::Commit(Timestamp(20))));
        wal.append(LogRecord::new(older, write(5, 7, WriteKind::Update, "old")));
        wal.append(LogRecord::new(older, LogOp::Commit(Timestamp(10))));

        let summary = replay_node_wal(&node, node.create_slot(Lsn::ZERO)).unwrap();
        assert_eq!((summary.committed, summary.writes_applied), (2, 2));
        assert_eq!(read_at(&node, ShardId(5), 7, Timestamp(9)), None);
        assert_eq!(
            read_at(&node, ShardId(5), 7, Timestamp(10)),
            Some(bytes("old"))
        );
        assert_eq!(
            read_at(&node, ShardId(5), 7, Timestamp(20)),
            Some(bytes("new")),
            "the image committed at 20 is the newest, whatever the log order"
        );
    }

    /// A logged redo leaves the records a committed transaction of the node
    /// would, nothing registered, and tells where each write landed.
    #[test]
    fn log_and_redo_logs_a_committed_transaction_and_reports_its_order() {
        let node = NodeStorage::new(NodeId(1), SimConfig::instant());
        let op = |kind, val| WriteOp {
            shard: ShardId(6),
            key: 1,
            kind,
            value: bytes(val),
        };
        let xid = TxnId::new(NodeId(0), 7).shadow();
        let writes = [op(WriteKind::Insert, "a"), op(WriteKind::Lock, "")];
        let mut order = Vec::new();
        let redo = log_and_redo_committed(
            &node,
            xid,
            Timestamp(8),
            Timestamp(9),
            &writes,
            |w: &WriteOp, p: Placement| order.push(p.in_order(w.kind)),
        );
        assert_eq!(redo.unwrap(), 1);
        assert_eq!(order, [true, true]);
        assert_eq!(node.active_count(), 0);
        let ops: Vec<LogOp> = (1..=4)
            .map(|l| node.wal.get(remus_wal::Lsn(l)).unwrap().op.clone())
            .collect();
        assert!(
            matches!(
                ops[..],
                [
                    LogOp::Begin(Timestamp(8)),
                    LogOp::Write(_),
                    LogOp::Write(_),
                    LogOp::Commit(Timestamp(9))
                ]
            ),
            "{ops:?}"
        );
        assert_eq!(
            read_at(&node, ShardId(6), 1, Timestamp(9)),
            Some(bytes("a"))
        );

        let writes = [op(WriteKind::Update, "b"), op(WriteKind::Insert, "c")];
        let late = TxnId::new(NodeId(0), 8);
        let mut order = Vec::new();
        log_and_redo_committed(
            &node,
            late,
            Timestamp(11),
            Timestamp(12),
            &writes,
            |w: &WriteOp, p: Placement| order.push(p.in_order(w.kind)),
        )
        .unwrap();
        assert_eq!(order, [true, false], "an insert over a live version");
    }

    #[test]
    fn replay_survives_truncated_base_images() {
        let node = NodeStorage::new(NodeId(1), SimConfig::instant());
        node.create_shard(ShardId(3));
        let early = node.alloc_xid();
        let late = node.alloc_xid();
        let wal = &node.wal;
        wal.append(LogRecord::new(early, write(3, 1, WriteKind::Insert, "v0")));
        wal.append(LogRecord::new(early, LogOp::Commit(Timestamp(5))));
        // Truncate the insert away; only the update survives.
        wal.truncate_until(Lsn(2));
        wal.append(LogRecord::new(late, write(3, 1, WriteKind::Update, "v1")));
        wal.append(LogRecord::new(late, LogOp::Commit(Timestamp(9))));

        let summary = replay_node_wal(&node, node.create_slot(Lsn(2))).unwrap();
        assert_eq!(summary.committed, 1);
        assert_eq!(
            read_at(&node, ShardId(3), 1, Timestamp::MAX),
            Some(bytes("v1"))
        );
    }

    /// A node over a file-backed WAL in a fresh temporary directory.
    fn file_backed_node(tag: &str) -> (NodeStorage, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "remus-recovery-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut config = SimConfig::instant();
        config.wal = WalConfig::file(&dir);
        let node = NodeStorage::with_metrics(
            NodeId(4),
            config,
            &remus_common::metrics::MetricsRegistry::new(),
        );
        (node, dir)
    }

    #[test]
    fn crash_reset_keeps_kept_tables_by_identity_and_file_wal_replays() {
        let (node, dir) = file_backed_node("replay");
        let kept = ShardId(u64::MAX);
        let kept_table = node.create_shard(kept);
        node.create_shard(ShardId(9));
        let xid = node.alloc_xid();
        node.wal
            .append(LogRecord::new(xid, write(9, 42, WriteKind::Insert, "d")));
        node.wal
            .append_durable(LogRecord::new(xid, LogOp::Commit(Timestamp(3))))
            .unwrap();

        let recovery = node.crash_reset(&[kept]).unwrap();
        // Kept table survives as the same allocation; the other is gone.
        assert!(Arc::ptr_eq(&kept_table, &node.table(kept).unwrap()));
        assert!(node.table(ShardId(9)).is_none());

        let summary = replay_node_wal(&node, recovery).unwrap();
        assert_eq!(summary.committed, 1);
        assert_eq!(
            read_at(&node, ShardId(9), 42, Timestamp(3)),
            Some(bytes("d"))
        );
        drop(node);
        std::fs::remove_dir_all(&dir).expect("tmpdir hygiene");
    }

    /// Write-driven GC across a crash: `crash_reset` leaves nothing pending
    /// in a table it keeps, and replay — which writes through the same
    /// table API as transactions — enqueues exactly the chains it leaves
    /// with something to prune.
    #[test]
    fn crash_reset_and_replay_rebuild_the_gc_pending_sets() {
        let (node, dir) = file_backed_node("gc");
        let kept = ShardId(u64::MAX);
        let kept_table = node.create_shard(kept);
        node.create_shard(ShardId(9));
        // key 1: three versions; key 2: inserted then deleted; key 3: one.
        let history = [
            (1, WriteKind::Insert, "a0", 3),
            (2, WriteKind::Insert, "b0", 3),
            (3, WriteKind::Insert, "c0", 3),
            (1, WriteKind::Update, "a1", 5),
            (2, WriteKind::Delete, "", 6),
            (1, WriteKind::Update, "a2", 7),
        ];
        for (key, kind, val, cts) in history {
            let xid = node.alloc_xid();
            node.wal
                .append(LogRecord::new(xid, write(9, key, kind, val)));
            node.wal
                .append_durable(LogRecord::new(xid, LogOp::Commit(Timestamp(cts))))
                .unwrap();
            // The same history, unlogged, in the table that is kept.
            let twin = WriteOp {
                shard: kept,
                key,
                kind,
                value: bytes(val),
            };
            redo_committed(&node, xid, Timestamp(cts), &[twin], |_, _| {}).unwrap();
        }

        let recovery = node.crash_reset(&[kept]).unwrap();
        let idle = kept_table.gc_step(Timestamp::MAX, &node.clog, usize::MAX);
        assert_eq!(idle.scanned, 0, "a cleared table has nothing pending");

        replay_node_wal(&node, recovery).unwrap();
        let table = node.table(ShardId(9)).unwrap();
        let step = table.gc_step(Timestamp(100), &node.clog, usize::MAX);
        assert_eq!((step.scanned, step.pruned), (2, 4), "keys 1 and 2");
        let stats = table.stats();
        assert_eq!((stats.keys, stats.versions), (2, 2));
        assert_eq!(
            read_at(&node, ShardId(9), 1, Timestamp(100)),
            Some(bytes("a2"))
        );
        let again = table.gc_step(Timestamp(100), &node.clog, usize::MAX);
        assert_eq!(again.scanned, 0);
        drop(node);
        std::fs::remove_dir_all(&dir).expect("tmpdir hygiene");
    }

    use std::sync::Arc;
}
