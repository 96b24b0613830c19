//! Crash-restart WAL replay.
//!
//! After [`crate::node::NodeStorage::crash_reset`] reopened the WAL from its
//! durability backend, the node holds a recovered record sequence and empty
//! MVCC tables. [`replay_node_wal`] rebuilds storage state from that
//! sequence using the classic redo contract:
//!
//! * **Committed** transactions (a `Commit`/`CommitPrepared` record
//!   survived) are re-applied in resolution-LSN order — the order their
//!   effects became visible pre-crash — and re-registered in the CLOG with
//!   their original commit timestamps.
//! * **Prepared in-doubt** transactions (a `Prepare` record but no
//!   decision) are re-applied as *uncommitted* versions and re-registered
//!   as `Prepared`: the coordinator's eventual `commit_prepared` /
//!   `rollback_prepared` resolves them exactly as it would have pre-crash.
//! * Everything else — aborted, rolled back, or in-progress with no
//!   prepare — is skipped. The reset CLOG reports unknown xids as
//!   `Aborted`, which is precisely the crash semantics: an unprepared
//!   transaction whose commit record did not reach disk never happened.
//!
//! Writes are re-applied with `start_ts = Timestamp::MAX` so the
//! first-committer-wins check never fires against versions the replay
//! itself created: conflict resolution already happened before the crash;
//! replay is a faithful re-execution of its outcome, not a re-validation.
//!
//! Replay only sees what WAL truncation left behind. The cluster couples
//! truncation to consumed propagation slots, not to checkpoints, so a node
//! that truncated its log cannot rebuild the truncated prefix — replay
//! therefore treats "redo hits a key whose base image is gone" leniently
//! (insert-over-live falls back to update, update-of-missing falls back to
//! insert) and reports what it did in the [`ReplaySummary`].

use std::time::Duration;

use remus_common::{DbError, DbResult, Timestamp, TxnId};
use remus_wal::{LogOp, Lsn, WriteKind, WriteOp};

use crate::node::NodeStorage;

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

/// Everything replay learned about one transaction in the scan pass.
#[derive(Debug, Default)]
struct TxnRecovery {
    writes: Vec<WriteOp>,
    saw_prepare: bool,
    /// `(lsn, commit_ts)` — `None` commit_ts means abort/rollback.
    resolution: Option<(Lsn, Option<Timestamp>)>,
}

/// Rebuilds a node's storage state from its (already reopened) WAL.
///
/// Call after [`NodeStorage::crash_reset`]; the tables must be empty apart
/// from frozen bootstrap rows the caller re-seeded (frozen installs are
/// not WAL-logged, so replay never collides with them — frozen chains are
/// replaced wholesale by row-level redo anyway).
pub fn replay_node_wal(node: &NodeStorage) -> DbResult<ReplaySummary> {
    let mut summary = ReplaySummary::default();
    let flush = node.wal.flush_lsn();
    let start = Lsn(flush.0 - node.wal.retained() as u64 + 1);

    // Pass 1: group records by transaction, find each one's fate.
    let mut txns: Vec<(TxnId, TxnRecovery)> = Vec::new();
    let mut index: std::collections::HashMap<TxnId, usize> = std::collections::HashMap::new();
    let mut max_local_seq: Option<u64> = None;
    for lsn in start.0..=flush.0 {
        let record = match node.wal.get(Lsn(lsn)) {
            Some(r) => r,
            None => continue, // concurrently truncated; nothing to redo there
        };
        summary.records += 1;
        if record.xid.origin() == node.id {
            let seq = record.xid.seq();
            max_local_seq = Some(max_local_seq.map_or(seq, |m: u64| m.max(seq)));
        }
        let slot = *index.entry(record.xid).or_insert_with(|| {
            txns.push((record.xid, TxnRecovery::default()));
            txns.len() - 1
        });
        let entry = &mut txns[slot].1;
        match &record.op {
            LogOp::Begin(_) => {}
            LogOp::Write(w) => entry.writes.push(w.clone()),
            LogOp::Prepare => entry.saw_prepare = true,
            LogOp::Commit(ts) | LogOp::CommitPrepared(ts) => {
                entry.resolution = Some((Lsn(lsn), Some(*ts)));
            }
            LogOp::Abort | LogOp::RollbackPrepared => {
                entry.resolution = Some((Lsn(lsn), None));
            }
        }
    }
    if let Some(seq) = max_local_seq {
        node.reserve_seq(seq);
    }

    // Pass 2a: redo committed transactions in resolution order.
    let mut committed: Vec<(Lsn, usize)> = txns
        .iter()
        .enumerate()
        .filter_map(|(i, (_, t))| match t.resolution {
            Some((lsn, Some(_))) => Some((lsn, i)),
            _ => None,
        })
        .collect();
    committed.sort_unstable_by_key(|(lsn, _)| *lsn);
    for (_, i) in committed {
        let (xid, recovery) = &txns[i];
        let cts = recovery.resolution.expect("filtered on Some").1.unwrap();
        node.clog.begin(*xid);
        for w in &recovery.writes {
            apply_write(node, *xid, w, &mut summary)?;
        }
        node.clog.set_committed(*xid, cts)?;
        summary.committed += 1;
    }

    // Pass 2b: re-instate prepared in-doubt transactions (uncommitted
    // versions + Prepared CLOG status) so the coordinator's decision can
    // land on the restarted node.
    for (xid, recovery) in &txns {
        match recovery.resolution {
            Some((_, Some(_))) => {}
            Some((_, None)) => summary.aborted += 1,
            None if recovery.saw_prepare => {
                node.clog.begin(*xid);
                for w in &recovery.writes {
                    apply_write(node, *xid, w, &mut summary)?;
                }
                node.clog.set_prepared(*xid)?;
                summary.prepared_in_doubt += 1;
            }
            None => summary.dropped_in_progress += 1,
        }
    }
    Ok(summary)
}

/// Redoes one logged row write leniently, creating the shard table if
/// needed. `start_ts = MAX` defeats first-committer-wins (validation
/// already happened wherever the record was produced); `Lock` records
/// carry no image and redo nothing. Insert-over-live falls back to update,
/// update-of-missing to insert, and delete-of-missing is a no-op — the
/// tolerance crash replay needs for truncated base images, and exactly the
/// value-converging semantics a replica applier needs when a migration
/// replays the same transaction over two shipped streams.
///
/// Returns whether a row version was installed.
pub fn redo_write(
    node: &NodeStorage,
    xid: TxnId,
    w: &WriteOp,
    timeout: Duration,
) -> DbResult<bool> {
    if w.kind == WriteKind::Lock {
        return Ok(false);
    }
    let table = node.create_shard(w.shard);
    let redo = |kind| {
        let value = w.value.clone();
        table.write(w.key, kind, value, xid, Timestamp::MAX, &node.clog, timeout)
    };
    let outcome = match (w.kind, redo(w.kind)) {
        // Base image predates the retained WAL (insert was truncated away
        // but the row re-appeared): redo as update.
        (WriteKind::Insert, Err(DbError::DuplicateKey)) => redo(WriteKind::Update),
        // Base image lost to WAL truncation: redo as insert.
        (WriteKind::Update, Err(DbError::KeyNotFound)) => redo(WriteKind::Insert),
        // Deleting a row that never made it to disk: already gone.
        (WriteKind::Delete, Err(DbError::KeyNotFound)) => return Ok(false),
        (_, other) => other,
    };
    outcome?;
    Ok(true)
}

/// [`redo_write`] plus replay summary accounting.
fn apply_write(
    node: &NodeStorage,
    xid: TxnId,
    w: &WriteOp,
    summary: &mut ReplaySummary,
) -> DbResult<()> {
    if redo_write(node, xid, w, REPLAY_TIMEOUT)? {
        summary.writes_applied += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::{NodeId, ShardId, SimConfig, WalConfig};
    use remus_storage::TxnStatus;
    use remus_wal::LogRecord;

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

        let summary = replay_node_wal(&node).unwrap();
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

        replay_node_wal(&node).unwrap();
        assert_eq!(
            read_at(&node, ShardId(2), 7, Timestamp(10)),
            Some(bytes("old"))
        );
        assert_eq!(
            read_at(&node, ShardId(2), 7, Timestamp(11)),
            Some(bytes("new"))
        );
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
        wal.truncate_until(remus_wal::Lsn(2));
        wal.append(LogRecord::new(late, write(3, 1, WriteKind::Update, "v1")));
        wal.append(LogRecord::new(late, LogOp::Commit(Timestamp(9))));

        let summary = replay_node_wal(&node).unwrap();
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

        node.crash_reset(&[kept]).unwrap();
        // Kept table survives as the same allocation; the other is gone.
        assert!(Arc::ptr_eq(&kept_table, &node.table(kept).unwrap()));
        assert!(node.table(ShardId(9)).is_none());

        let summary = replay_node_wal(&node).unwrap();
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
            node.clog.begin(xid);
            redo_write(
                &node,
                xid,
                &WriteOp {
                    shard: kept,
                    key,
                    kind,
                    value: bytes(val),
                },
                REPLAY_TIMEOUT,
            )
            .unwrap();
            node.clog.set_committed(xid, Timestamp(cts)).unwrap();
        }

        node.crash_reset(&[kept]).unwrap();
        let idle = kept_table.gc_step(Timestamp::MAX, &node.clog, usize::MAX);
        assert_eq!(idle.scanned, 0, "a cleared table has nothing pending");

        replay_node_wal(&node).unwrap();
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
