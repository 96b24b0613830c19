//! The source-side propagation (send) process (§3.3).
//!
//! Tails the source WAL through a slot-owning [`remus_txn::WalTail`] until it
//! is asked to stop at an LSN (the one stop: [`remus_wal::TailHandle::stop`],
//! which wakes a parked reader), extracting only the
//! changes of the migrating shards into per-transaction buffers — the
//! paper's update cache queues, assembled by [`remus_wal::TxnAssembler`]
//! with "shard is migrating" as its write predicate. This file is what
//! propagation does with the assembler's events: a transaction's buffer is
//! shipped when the process encounters:
//!
//! * its commit record with `commit_ts > snapshot_ts` (async mode) — as an
//!   [`ApplyMsg::Committed`];
//! * its validation/prepare record, if the commit hook marked it a
//!   synchronized source transaction — as an [`ApplyMsg::Validate`],
//!   followed later by `CommitShadow`/`RollbackShadow` when its decision
//!   record appears.
//!
//! Aborted transactions and transactions committed at or before the
//! snapshot timestamp have their buffers dropped. Buffers that grew past
//! `SPILL_THRESHOLD` records charge the configured reload latency per
//! batch when shipped.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Sender;
use remus_cluster::{Cluster, Node};
use remus_common::time::{self, Signal};
use remus_common::{DbError, DbResult, NodeId, ShardId, Timestamp, TxnId};
use remus_txn::WalTail;
use remus_wal::{Lsn, TailHandle, TailRead, TxnAssembler, TxnEvent, TxnOutcome, WriteOp};

use crate::mocc::RemusHook;
use crate::replay::ApplyMsg;

/// A transaction's buffered changes spill to disk above this many records
/// (paper §3.3 "allows their change records being spilled to disk"); the
/// spill is modelled by `SimConfig::spill_reload_latency` per reloaded batch
/// of [`SPILL_RELOAD_BATCH`] records when the buffer is shipped.
const SPILL_THRESHOLD: usize = 4096;
const SPILL_RELOAD_BATCH: usize = 256;

/// Counters exposed by the propagation process.
#[derive(Debug, Default)]
pub struct PropagationStats {
    /// Messages sent to the replay process.
    pub sent: AtomicU64,
    /// Change records extracted for the migrating shards.
    pub extracted: AtomicU64,
}

/// Handle to the running propagation thread.
pub struct PropagationProcess {
    /// Counters.
    pub stats: Arc<PropagationStats>,
    tail: TailHandle,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PropagationProcess {
    /// Starts propagation on `source` for `shards`, reading the WAL through
    /// `tail` and shipping to `tx`. `hook` identifies synchronized source
    /// transactions; `dest` is only used to charge network hops. `tail` is
    /// the source's [`remus_txn::NodeStorage::create_slot_at_oldest_active`]:
    /// the process owns it from here, and its slot goes when the thread ends.
    /// `progress` is notified after every processed batch.
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        cluster: &Arc<Cluster>,
        source: &Arc<Node>,
        dest: NodeId,
        shards: &[ShardId],
        snapshot_ts: Timestamp,
        tail: WalTail,
        hook: Arc<RemusHook>,
        tx: Sender<ApplyMsg>,
        progress: Arc<Signal>,
    ) -> PropagationProcess {
        let stats = Arc::new(PropagationStats::default());
        let tail_handle = tail.handle();
        let shard_set: HashSet<ShardId> = shards.iter().copied().collect();
        let handle = {
            let cluster = Arc::clone(cluster);
            let source = Arc::clone(source);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                propagate_loop(
                    cluster,
                    source,
                    dest,
                    shard_set,
                    snapshot_ts,
                    tail,
                    hook,
                    tx,
                    progress,
                    stats,
                )
            })
        };
        PropagationProcess {
            stats,
            tail: tail_handle,
            handle: Some(handle),
        }
    }

    /// Asks the process to stop once it has processed every record up to
    /// and including `upto` ([`Lsn::ZERO`]: now), then sends `Shutdown`
    /// downstream. Wakes it if it is parked on a quiet log.
    pub fn request_stop(&self, upto: Lsn) {
        self.tail.stop(upto);
    }

    /// LSN of the last WAL record processed: everything it had to ship is
    /// sent. The reader starts after its slot's position, so everything at
    /// or before that counts as processed from the start (otherwise the lag
    /// never converges).
    pub fn processed_lsn(&self) -> Lsn {
        self.tail.acked()
    }

    /// Waits for the thread to finish; a panic on it surfaces as an error
    /// so teardown paths can join without unwinding twice.
    pub fn join(mut self) -> DbResult<()> {
        match self.handle.take().map(|h| h.join()) {
            Some(Err(_)) => Err(DbError::Internal("propagation thread panicked".into())),
            _ => Ok(()),
        }
    }

    /// Records not yet processed relative to `flush` plus messages not yet
    /// applied by the replay (`done`): the catch-up lag (§3.4).
    pub fn lag(&self, flush: Lsn, replay_done: u64) -> u64 {
        let unread = flush.0.saturating_sub(self.processed_lsn().0);
        let unapplied = self
            .stats
            .sent
            .load(Ordering::SeqCst)
            .saturating_sub(replay_done);
        unread + unapplied
    }
}

#[allow(clippy::too_many_arguments)]
fn propagate_loop(
    cluster: Arc<Cluster>,
    source: Arc<Node>,
    dest: NodeId,
    shards: HashSet<ShardId>,
    snapshot_ts: Timestamp,
    mut tail: WalTail,
    hook: Arc<RemusHook>,
    tx: Sender<ApplyMsg>,
    progress: Arc<Signal>,
    stats: Arc<PropagationStats>,
) {
    let mut assembler = TxnAssembler::new(tail.consumed(), |w: &WriteOp| shards.contains(&w.shard));
    // Synchronized source transactions whose `Validate` was shipped: their
    // decision record ships the shadow's, not a second copy of the writes.
    let mut validated: HashSet<TxnId> = HashSet::new();
    let spill_latency = cluster.config.spill_reload_latency;
    let drain_batch = cluster.config.parallelism.drain_batch.max(1);
    let batch_len = cluster.metrics.counter("replay.batch_len");

    let ship = |msg: ApplyMsg| {
        // What of the transaction buffer `msg` carries lay past the spill
        // threshold is reloaded in batches first.
        let buffered = match &msg {
            ApplyMsg::Validate { ops, .. } | ApplyMsg::Committed { ops, .. } => ops.len(),
            _ => 0,
        };
        let reloads = buffered
            .saturating_sub(SPILL_THRESHOLD)
            .div_ceil(SPILL_RELOAD_BATCH);
        if reloads > 0 {
            source.storage.counters.queue_spills.add(reloads as u64);
            // Reloading spilled change records in batches (§3.3).
            time::charge(spill_latency * reloads as u32);
        }
        // Propagation-lag seam: only Delay is expressible here, and the
        // seam helper has slept it by the time it returns.
        cluster.fault_at(remus_common::InjectionPoint::PropagationShip, source.id());
        cluster.net.hop(source.id(), dest);
        if tx.send(msg).is_err() {
            // Replay ended; nothing left to ship to.
        }
        stats.sent.fetch_add(1, Ordering::SeqCst);
    };

    // A batch counts as processed (and moves the slot) once everything it
    // had to ship is sent: it is acknowledged and a drain waiting on it told
    // *before* the next batch is asked for, since that may park. There is
    // nothing to do on a quiet log, so no idle period.
    loop {
        let batch = match tail.next_batch(drain_batch, Duration::MAX) {
            TailRead::Batch(batch) => batch,
            TailRead::Idle => continue,
            TailRead::Stopped => break,
        };
        batch_len.add(batch.len() as u64);
        for (lsn, record) in &batch {
            // A transaction without a `Begin` on this stream resolved
            // before the slot existed — it is wholly inside the copied
            // snapshot — so every arm asks for `begin_lsn: Some`.
            match assembler.feed(*lsn, record) {
                TxnEvent::Kept(txn) if txn.begin_lsn.is_some() => {
                    source.work.add(1);
                    stats.extracted.fetch_add(1, Ordering::Relaxed);
                }
                TxnEvent::Prepared(txn)
                    if txn.begin_lsn.is_some()
                        && !txn.writes.is_empty()
                        && hook.is_sync_txn(txn.xid) =>
                {
                    let (xid, start_ts) = (txn.xid, txn.start_ts);
                    let ops = std::mem::take(&mut txn.writes);
                    validated.insert(xid);
                    ship(ApplyMsg::Validate { xid, start_ts, ops });
                }
                TxnEvent::Resolved { txn, outcome, .. } if txn.begin_lsn.is_some() => {
                    let (xid, start_ts, ops) = (txn.xid, txn.start_ts, txn.writes);
                    let shadowed = validated.remove(&xid);
                    match outcome {
                        TxnOutcome::Committed(commit_ts) if shadowed => {
                            ship(ApplyMsg::CommitShadow { xid, commit_ts })
                        }
                        TxnOutcome::Aborted if shadowed => ship(ApplyMsg::RollbackShadow { xid }),
                        // Not at or before the snapshot timestamp: that
                        // is already contained in the copied snapshot.
                        TxnOutcome::Committed(commit_ts)
                            if !ops.is_empty() && commit_ts > snapshot_ts =>
                        {
                            ship(ApplyMsg::Committed {
                                xid,
                                start_ts,
                                commit_ts,
                                ops,
                            })
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        tail.ack();
        progress.notify();
    }
    let _ = tx.send(ApplyMsg::Shutdown);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mocc::ValidationRegistry;
    use crossbeam::channel::unbounded;
    use remus_cluster::ClusterBuilder;
    use remus_common::{SimConfig, TableId};
    use remus_storage::Value;
    use remus_txn::SyncCommitHook;
    use remus_wal::{LogOp, LogRecord, WriteKind, WriteOp};

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    fn wop(shard: u64, key: u64) -> LogOp {
        LogOp::Write(WriteOp {
            shard: ShardId(shard),
            key,
            kind: WriteKind::Insert,
            value: val("x"),
        })
    }

    fn start_prop(
        cluster: &Arc<Cluster>,
        hook: Arc<RemusHook>,
        snapshot_ts: u64,
    ) -> (PropagationProcess, crossbeam::channel::Receiver<ApplyMsg>) {
        let (tx, rx) = unbounded();
        let tail = cluster.node(NodeId(0)).storage.create_slot(Lsn::ZERO);
        let prop = PropagationProcess::start(
            cluster,
            cluster.node(NodeId(0)),
            NodeId(1),
            &[ShardId(0)],
            Timestamp(snapshot_ts),
            tail,
            hook,
            tx,
            Arc::default(),
        );
        (prop, rx)
    }

    fn test_hook() -> Arc<RemusHook> {
        Arc::new(RemusHook::new(
            &[ShardId(0)],
            Arc::new(ValidationRegistry::new()),
            Duration::from_secs(2),
        ))
    }

    fn cluster2() -> Arc<Cluster> {
        let c = ClusterBuilder::new(2).config(SimConfig::instant()).build();
        c.create_table(TableId(1), 0, 2, |_| NodeId(0));
        c
    }

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), 100 + n)
    }

    #[test]
    fn ships_committed_txns_after_snapshot_only() {
        let cluster = cluster2();
        let wal = &cluster.node(NodeId(0)).storage.wal;
        // Txn A commits at ts 5 (before snapshot 10): dropped.
        wal.append(LogRecord::new(xid(1), LogOp::Begin(Timestamp(2))));
        wal.append(LogRecord::new(xid(1), wop(0, 1)));
        wal.append(LogRecord::new(xid(1), LogOp::Commit(Timestamp(5))));
        // Txn B commits at ts 15: shipped.
        wal.append(LogRecord::new(xid(2), LogOp::Begin(Timestamp(12))));
        wal.append(LogRecord::new(xid(2), wop(0, 2)));
        wal.append(LogRecord::new(xid(2), LogOp::Commit(Timestamp(15))));
        // Txn C only touches shard 1 (not migrating): dropped.
        wal.append(LogRecord::new(xid(3), LogOp::Begin(Timestamp(13))));
        wal.append(LogRecord::new(xid(3), wop(1, 3)));
        wal.append(LogRecord::new(xid(3), LogOp::Commit(Timestamp(16))));

        let (prop, rx) = start_prop(&cluster, test_hook(), 10);
        let msg = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        match msg {
            ApplyMsg::Committed {
                xid: x,
                commit_ts,
                ops,
                start_ts,
            } => {
                assert_eq!(x, xid(2));
                assert_eq!(commit_ts, Timestamp(15));
                assert_eq!(start_ts, Timestamp(12));
                assert_eq!(ops.len(), 1);
            }
            other => panic!("unexpected message {other:?}"),
        }
        prop.request_stop(cluster.node(NodeId(0)).storage.wal.flush_lsn());
        // Shutdown follows with nothing else in between.
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            ApplyMsg::Shutdown => {}
            other => panic!("unexpected message {other:?}"),
        }
        prop.join().unwrap();
    }

    #[test]
    fn aborted_txn_queue_is_dropped() {
        let cluster = cluster2();
        let wal = &cluster.node(NodeId(0)).storage.wal;
        wal.append(LogRecord::new(xid(1), LogOp::Begin(Timestamp(2))));
        wal.append(LogRecord::new(xid(1), wop(0, 1)));
        wal.append(LogRecord::new(xid(1), LogOp::Abort));
        let (prop, rx) = start_prop(&cluster, test_hook(), 0);
        prop.request_stop(wal.flush_lsn());
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            ApplyMsg::Shutdown => {}
            other => panic!("unexpected message {other:?}"),
        }
        prop.join().unwrap();
    }

    #[test]
    fn sync_txn_validates_then_commits_shadow() {
        let cluster = cluster2();
        let hook = test_hook();
        hook.enable_sync();
        // Mark the txn as sync-mode the way commit_txn would.
        assert_eq!(
            hook.begin_commit(xid(1), &[ShardId(0)]),
            remus_txn::CommitMode::Sync
        );
        let wal = &cluster.node(NodeId(0)).storage.wal;
        wal.append(LogRecord::new(xid(1), LogOp::Begin(Timestamp(2))));
        wal.append(LogRecord::new(xid(1), wop(0, 1)));
        wal.append(LogRecord::new(xid(1), LogOp::Prepare));
        wal.append(LogRecord::new(xid(1), LogOp::CommitPrepared(Timestamp(9))));

        let (prop, rx) = start_prop(&cluster, hook, 0);
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            ApplyMsg::Validate { xid: x, ops, .. } => {
                assert_eq!(x, xid(1));
                assert_eq!(ops.len(), 1);
            }
            other => panic!("unexpected message {other:?}"),
        }
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            ApplyMsg::CommitShadow { xid: x, commit_ts } => {
                assert_eq!(x, xid(1));
                assert_eq!(commit_ts, Timestamp(9));
            }
            other => panic!("unexpected message {other:?}"),
        }
        prop.request_stop(wal.flush_lsn());
        prop.join().unwrap();
    }

    #[test]
    fn non_sync_prepared_txn_ships_at_commit_prepared() {
        // An ordinary distributed transaction during the async phase: its
        // prepare record is not a validation trigger; the queue ships with
        // the commit-prepared record.
        let cluster = cluster2();
        let wal = &cluster.node(NodeId(0)).storage.wal;
        wal.append(LogRecord::new(xid(1), LogOp::Begin(Timestamp(2))));
        wal.append(LogRecord::new(xid(1), wop(0, 1)));
        wal.append(LogRecord::new(xid(1), LogOp::Prepare));
        wal.append(LogRecord::new(xid(1), LogOp::CommitPrepared(Timestamp(9))));
        let (prop, rx) = start_prop(&cluster, test_hook(), 0);
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            ApplyMsg::Committed {
                xid: x, commit_ts, ..
            } => {
                assert_eq!(x, xid(1));
                assert_eq!(commit_ts, Timestamp(9));
            }
            other => panic!("unexpected message {other:?}"),
        }
        prop.request_stop(wal.flush_lsn());
        prop.join().unwrap();
    }

    #[test]
    fn rollback_prepared_of_sync_txn_ships_rollback_shadow() {
        let cluster = cluster2();
        let hook = test_hook();
        hook.enable_sync();
        hook.begin_commit(xid(1), &[ShardId(0)]);
        let wal = &cluster.node(NodeId(0)).storage.wal;
        wal.append(LogRecord::new(xid(1), LogOp::Begin(Timestamp(2))));
        wal.append(LogRecord::new(xid(1), wop(0, 1)));
        wal.append(LogRecord::new(xid(1), LogOp::Prepare));
        wal.append(LogRecord::new(xid(1), LogOp::RollbackPrepared));
        let (prop, rx) = start_prop(&cluster, hook, 0);
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            ApplyMsg::Validate { .. } => {}
            other => panic!("unexpected message {other:?}"),
        }
        match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
            ApplyMsg::RollbackShadow { xid: x } => assert_eq!(x, xid(1)),
            other => panic!("unexpected message {other:?}"),
        }
        prop.request_stop(wal.flush_lsn());
        prop.join().unwrap();
    }

    #[test]
    fn lag_counts_unread_and_unapplied() {
        let cluster = cluster2();
        let (prop, _rx) = start_prop(&cluster, test_hook(), 0);
        // Nothing processed yet against a flush of 10 → lag 10.
        assert_eq!(prop.lag(Lsn(10), 0), 10);
        prop.request_stop(Lsn::ZERO);
        prop.join().unwrap();
    }

    #[test]
    fn slot_protects_wal_until_dropped() {
        let cluster = cluster2();
        let storage = &cluster.node(NodeId(0)).storage;
        let wal = &storage.wal;
        for i in 0..5 {
            wal.append(LogRecord::new(xid(i), LogOp::Abort));
        }
        let (prop, rx) = start_prop(&cluster, test_hook(), 0);
        // Wait for the reader to pass everything, then stop.
        prop.request_stop(wal.flush_lsn());
        loop {
            if let ApplyMsg::Shutdown = rx.recv_timeout(Duration::from_secs(2)).unwrap() {
                break;
            }
        }
        prop.join().unwrap();
        // After the process dropped its slot, truncation can clean fully.
        assert_eq!(storage.truncate_wal_safely(), wal.flush_lsn());
    }

    /// Everything propagation ships for the source's log as it stands, read
    /// `drain_batch` records at a time.
    fn shipped(cluster: &Arc<Cluster>, hook: Arc<RemusHook>, snapshot_ts: u64) -> Vec<String> {
        let (prop, rx) = start_prop(cluster, hook, snapshot_ts);
        prop.request_stop(cluster.node(NodeId(0)).storage.wal.flush_lsn());
        let mut msgs = Vec::new();
        loop {
            match rx.recv_timeout(Duration::from_secs(2)).unwrap() {
                ApplyMsg::Shutdown => break,
                msg => msgs.push(format!("{msg:?}")),
            }
        }
        prop.join().unwrap();
        msgs
    }

    #[test]
    fn shipping_order_does_not_depend_on_the_drain_batch() {
        let sequences: Vec<Vec<String>> = [1, 2, 32]
            .into_iter()
            .map(|drain_batch| {
                let mut config = SimConfig::instant();
                config.parallelism.drain_batch = drain_batch;
                let cluster = ClusterBuilder::new(2).config(config).build();
                cluster.create_table(TableId(1), 0, 2, |_| NodeId(0));
                let hook = test_hook();
                hook.enable_sync();
                hook.begin_commit(xid(1), &[ShardId(0)]);
                // Four interleaved transactions: 1 synchronized, 2 committed
                // at the snapshot timestamp, 3 aborted, 4 touching only the
                // shard that is not migrating; 5 is the ordinary shipped one
                // the others must stay in order around.
                let script = [
                    (1, LogOp::Begin(Timestamp(2))),
                    (2, LogOp::Begin(Timestamp(3))),
                    (1, wop(0, 1)),
                    (3, LogOp::Begin(Timestamp(4))),
                    (5, LogOp::Begin(Timestamp(5))),
                    (2, wop(0, 2)),
                    (4, LogOp::Begin(Timestamp(6))),
                    (3, wop(0, 3)),
                    (1, wop(0, 11)),
                    (5, wop(0, 5)),
                    (1, LogOp::Prepare),
                    (4, wop(1, 4)),
                    (2, LogOp::Commit(Timestamp(10))),
                    (5, wop(0, 55)),
                    (3, LogOp::Abort),
                    (4, LogOp::Commit(Timestamp(20))),
                    (5, LogOp::Commit(Timestamp(21))),
                    (1, LogOp::CommitPrepared(Timestamp(22))),
                ];
                let wal = &cluster.node(NodeId(0)).storage.wal;
                for (n, op) in script {
                    wal.append(LogRecord::new(xid(n), op));
                }
                shipped(&cluster, hook, 10)
            })
            .collect();
        let kinds: Vec<&str> = sequences[0]
            .iter()
            .map(|m| m.split([' ', '{']).next().unwrap())
            .collect();
        assert_eq!(kinds, ["Validate", "Committed", "CommitShadow"]);
        assert!(sequences[0][0].contains("key: 1,") && sequences[0][0].contains("key: 11,"));
        assert_eq!(sequences[1], sequences[0], "drain_batch 2 against 1");
        assert_eq!(sequences[2], sequences[0], "drain_batch 32 against 1");
    }

    #[test]
    fn a_buffer_past_the_spill_threshold_is_charged_per_reload_batch() {
        let cluster = cluster2();
        let storage = &cluster.node(NodeId(0)).storage;
        let writes = SPILL_THRESHOLD as u64 + 300;
        storage
            .wal
            .append(LogRecord::new(xid(1), LogOp::Begin(Timestamp(2))));
        for key in 0..writes {
            storage.wal.append(LogRecord::new(xid(1), wop(0, key)));
        }
        storage
            .wal
            .append(LogRecord::new(xid(1), LogOp::Commit(Timestamp(9))));
        let spills = storage.counters.queue_spills.get();

        let (prop, rx) = start_prop(&cluster, test_hook(), 0);
        match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            ApplyMsg::Committed { ops, .. } => {
                let keys: Vec<u64> = ops.iter().map(|op| op.key).collect();
                assert_eq!(keys, (0..writes).collect::<Vec<_>>(), "log order");
            }
            other => panic!("unexpected message {other:?}"),
        }
        // 300 records past the threshold, reloaded 256 at a time.
        assert_eq!(storage.counters.queue_spills.get() - spills, 2);
        assert_eq!(prop.stats.extracted.load(Ordering::Relaxed), writes);
        prop.request_stop(storage.wal.flush_lsn());
        prop.join().unwrap();
    }
}
