//! One stream: how a source node's log reaches a receiver (§3.3, §11).
//!
//! A stream is one thread per (source node, receiver). It tails the source
//! through its slot-owning [`WalTail`] until the tail is stopped
//! ([`TailHandle::stop`], which wakes a parked reader), pays the transport —
//! a `net.hop` per delivered batch, plus the stream's ship fault seam once
//! per batch read — and feeds each batch to a [`StreamApplier`] in the same
//! thread. A batch is the [`ShipBatch`] the read handed out: the source
//! log's encoded records, delivered as they are. [`run`] is the one loop;
//! two kinds of stream run it:
//!
//! * a **replica** stream ([`crate::replication`]) waits at most
//!   [`HEARTBEAT_PERIOD`] on a quiet log and then sends a heartbeat. Its
//!   seam is `ShipBatch`: `Fail` holds a batch back until after its
//!   successor, `Crash` delivers it twice, and the apply-LSN gate
//!   re-sequences both. `ReplicaApply` is visited before each apply.
//! * a **migration** stream ([`crate::pipeline`]) parks with no idle period
//!   and visits `PropagationShip` once per batch.
//!
//! A stop is never answered with a heartbeat: `Stopped` delivers a held
//! batch and ends. A migration stream's applier owns its replay's
//! [`ReplayFeed`], so the end of the thread drops the feed, and the replay
//! workers drain what was shipped and exit.
//!
//! ## The one receiver
//!
//! [`StreamApplier`] owns, for both kinds, the dense apply-LSN gate, the
//! [`TxnAssembler`] (which decodes only the writes to the shards the stream
//! keeps) and the rule that skips a transaction with no `Begin` on
//! the stream: it resolved before the slot existed, so it is wholly inside
//! the copied snapshot or the replica's cut. Its one branch is what a
//! resolved or prepared transaction does:
//!
//! * **replica** — keep every data write; a committed transaction is redone
//!   by [`remus_txn::redo_committed`] at once, beside the backfill copy, and
//!   the watermark is taken from the frontier (see [`crate::replication`]).
//! * **migration** — keep the migrating shards' writes (the assembler's
//!   per-transaction buffers are the paper's update cache queues) and ship
//!   them through the destination's [`ReplayFeed`] on the stream's own
//!   thread, which assigns each message its replay ticket: a prepared
//!   transaction the commit hook marked synchronized as an
//!   [`ApplyMsg::Validate`], its decision as `CommitShadow` /
//!   `RollbackShadow`; a commit above the snapshot timestamp as an
//!   [`ApplyMsg::Committed`], its writes taken out of the assembler's
//!   buffer (the replica rule redoes them in place). Aborted transactions
//!   and commits at or before the snapshot timestamp are dropped. A buffer
//!   that grew past `SPILL_THRESHOLD` records charges the configured reload
//!   latency per batch when it ships.
//!
//! ## Progress: the lowest unfinished LSN
//!
//! A replica applies synchronously, so its progress is the gate's applied
//! LSN. A migration's replay applies in parallel, out of order: the feed
//! records each ticket with the LSN of the record that produced it, the
//! stream stores the gate's applied LSN with the replay after every batch,
//! and the replay answers the measure itself
//! ([`crate::replay::ReplayProcess::finished_through`]).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use remus_cluster::{Cluster, Node};
use remus_common::time;
use remus_common::{
    Counter, DbError, DbResult, FaultAction, InjectionPoint, NodeId, ShardId, Timestamp, TxnId,
};
use remus_shard::SHARD_MAP_SHARD;
use remus_txn::{redo_committed, WalTail};
use remus_wal::{
    ApplyLsnGate, Lsn, ShipBatch, TailHandle, TailRead, TxnAssembler, TxnEvent, TxnOutcome, WriteOp,
};

use crate::mocc::RemusHook;
use crate::replay::{ApplyMsg, ReplayFeed};

/// How long a caught-up replica stream lets its primary stay quiet before it
/// sends a heartbeat (and a batch the reorder fault held back). Not a stop
/// latency: a stop wakes the stream.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(20);

/// A transaction's buffered changes spill to disk above this many records
/// (paper §3.3 "allows their change records being spilled to disk"); the
/// spill is modelled by `SimConfig::spill_reload_latency` per reloaded batch
/// of [`SPILL_RELOAD_BATCH`] records when the buffer is shipped.
const SPILL_THRESHOLD: usize = 4096;
const SPILL_RELOAD_BATCH: usize = 256;

/// A running stream: its thread and the handle that stops its tail.
pub(crate) struct Stream {
    tail: TailHandle,
    thread: JoinHandle<()>,
}

impl Stream {
    /// Runs `body` with `tail` on a thread of its own; the tail's slot goes
    /// when the thread ends.
    pub(crate) fn spawn(tail: WalTail, body: impl FnOnce(WalTail) + Send + 'static) -> Stream {
        Stream {
            tail: tail.handle(),
            thread: std::thread::spawn(move || body(tail)),
        }
    }

    /// A migration stream from `source` to `dest`'s replay, which `applier`
    /// feeds.
    pub(crate) fn migration(
        cluster: &Arc<Cluster>,
        source: &Arc<Node>,
        dest: NodeId,
        tail: WalTail,
        mut applier: StreamApplier,
    ) -> Stream {
        let (cluster, source) = (Arc::clone(cluster), Arc::clone(source));
        Stream::spawn(tail, move |tail| {
            // A migration stream's apply only ships, so it cannot fail.
            let _ = run(&cluster, &source, dest, tail, &mut applier, |_, _| {});
        })
    }

    /// Stops the stream once it has handed out every record up to and
    /// including `upto` ([`Lsn::ZERO`]: now); wakes it if it is parked.
    pub(crate) fn stop(&self, upto: Lsn) {
        self.tail.stop(upto);
    }

    /// Waits for the thread; a panic on it surfaces as an error so teardown
    /// paths can join without unwinding twice.
    pub(crate) fn join(self) -> DbResult<()> {
        self.thread
            .join()
            .map_err(|_| DbError::Internal("stream thread panicked".into()))
    }
}

/// The one stream loop (module docs): tails `source` until the tail is
/// stopped, delivering every batch to `applier` and calling `publish` with
/// the applier and what the delivery applied after each delivery and each
/// accepted heartbeat. Returns a replica's first apply error.
pub(crate) fn run<P: FnMut(&StreamApplier, u64)>(
    cluster: &Cluster,
    source: &Node,
    dest: NodeId,
    mut tail: WalTail,
    applier: &mut StreamApplier,
    mut publish: P,
) -> DbResult<()> {
    let replica = matches!(applier.rule, Rule::Replica(_));
    let (idle, seam) = if replica {
        (HEARTBEAT_PERIOD, InjectionPoint::ShipBatch)
    } else {
        (Duration::MAX, InjectionPoint::PropagationShip)
    };
    let drain_batch = cluster.config.parallelism.drain_batch.max(1);
    let deliver = |applier: &mut StreamApplier, publish: &mut P, batch| -> DbResult<()> {
        cluster.net.hop(source.id(), dest);
        if replica {
            // Stalled-replica seam: only Delay is expressible here.
            cluster.fault_at(InjectionPoint::ReplicaApply, dest);
        }
        let applied = applier.apply(batch)?;
        publish(applier, applied);
        Ok(())
    };
    // A batch held back by the reorder fault: it is delivered *after* its
    // successor (or at the next idle tick), so the apply gate sees a
    // genuine out-of-order arrival followed by a late retransmit.
    let mut held: Option<ShipBatch> = None;
    loop {
        let batch = match tail.next_batch(drain_batch, idle) {
            TailRead::Batch(batch) => batch,
            TailRead::Stopped => break,
            TailRead::Idle => {
                // Only a replica stream has an idle period.
                if let Some(prev) = held.take() {
                    deliver(applier, &mut publish, prev)?;
                }
                // Caught-up heartbeat. Order matters: tick the clock *before*
                // reading the position, so any commit past `position` drew
                // its timestamp after `ts`.
                let ts = cluster.oracle.start_ts(source.id());
                let position = tail.consumed();
                if source.storage.wal.flush_lsn() == position {
                    cluster.net.hop(source.id(), dest);
                    if applier.heartbeat(position, ts) {
                        publish(applier, 0);
                    }
                }
                continue;
            }
        };
        let sends = match cluster.fault_at(seam, source.id()) {
            // Reorder: hold this batch back until after its successor.
            FaultAction::Fail if replica => [held.replace(batch), None, None],
            // Duplicate transmission (a retransmit racing the original).
            FaultAction::Crash if replica => [Some(batch.clone()), Some(batch), held.take()],
            // No fault, or lag the seam helper already slept.
            _ => [Some(batch), held.take(), None],
        };
        for batch in sends.into_iter().flatten() {
            deliver(applier, &mut publish, batch)?;
        }
    }
    if let Some(prev) = held.take() {
        deliver(applier, &mut publish, prev)?;
    }
    Ok(())
}

/// The replica's shard predicate. Shard-map rows are excluded: the replica
/// is itself a participant of every map transaction (`T_m` updates all
/// nodes' map replicas), so its map table is maintained by its own 2PC path,
/// not by redo.
fn is_data_write(shard: ShardId) -> bool {
    shard != SHARD_MAP_SHARD
}

/// Whether the transaction an event is about has a `Begin` on this stream.
fn headed(event: &TxnEvent<'_>) -> bool {
    match event {
        TxnEvent::Nothing => false,
        TxnEvent::Kept(txn) => txn.begin_lsn.is_some(),
        TxnEvent::Prepared(txn) => txn.begin_lsn.is_some(),
        TxnEvent::Resolved { txn, .. } => txn.begin_lsn.is_some(),
    }
}

/// The shards whose writes a stream's assembler buffers.
type Keep = Box<dyn Fn(ShardId) -> bool + Send>;

/// What a resolved or prepared transaction does on a stream.
enum Rule {
    /// Redo it on a replica.
    Replica(Arc<Node>),
    /// Ship it to a migration's replay.
    Migration(Migration),
}

/// A migration stream's shipping state.
struct Migration {
    source: Arc<Node>,
    snapshot_ts: Timestamp,
    /// Identifies synchronized source transactions.
    hook: Arc<RemusHook>,
    spill_latency: Duration,
    batch_len: Arc<Counter>,
    feed: ReplayFeed,
}

impl Migration {
    /// What a headed transaction's event ships (§3.3).
    fn on_event(&mut self, lsn: Lsn, event: TxnEvent<'_>) {
        let msg = match event {
            TxnEvent::Kept(_) => return self.source.work.add(1),
            TxnEvent::Prepared(txn) if !txn.writes.is_empty() && self.hook.is_sync_txn(txn.xid) => {
                let ops = std::mem::take(&mut txn.writes);
                ApplyMsg::Validate {
                    xid: txn.xid,
                    start_ts: txn.start_ts,
                    ops,
                }
            }
            TxnEvent::Resolved { txn, outcome, .. } => {
                let xid = txn.xid;
                match outcome {
                    TxnOutcome::Committed(commit_ts) if self.feed.validated(xid) => {
                        ApplyMsg::CommitShadow { xid, commit_ts }
                    }
                    TxnOutcome::Aborted if self.feed.validated(xid) => {
                        ApplyMsg::RollbackShadow { xid }
                    }
                    // Not at or before the snapshot timestamp: that is
                    // already contained in the copied snapshot.
                    TxnOutcome::Committed(commit_ts)
                        if !txn.writes.is_empty() && commit_ts > self.snapshot_ts =>
                    {
                        ApplyMsg::Committed {
                            xid,
                            start_ts: txn.start_ts,
                            commit_ts,
                            ops: std::mem::take(&mut txn.writes),
                        }
                    }
                    _ => return,
                }
            }
            _ => return,
        };
        self.ship(lsn, msg);
    }

    /// Ships `msg`, produced by the record at `lsn`, through the feed.
    fn ship(&mut self, lsn: Lsn, msg: ApplyMsg) {
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
            self.source
                .storage
                .counters
                .queue_spills
                .add(reloads as u64);
            // Reloading spilled change records in batches (§3.3).
            time::charge(self.spill_latency * reloads as u32);
        }
        self.feed.ship(lsn, msg);
    }
}

/// The one receiver of a stream (module docs): re-sequences received batches
/// through the apply-LSN gate, assembles them per transaction
/// ([`TxnAssembler`]), acts on each transaction at its prepare or
/// resolution record, and maintains the stream watermark from the
/// assembler's frontier.
///
/// Every stream thread drives one of these; it is public so tests can feed
/// a replica's arbitrary (duplicated, reordered, overlapping) batch
/// sequences directly and check convergence.
pub struct StreamApplier {
    lsn_gate: ApplyLsnGate,
    assembler: TxnAssembler<Keep>,
    rule: Rule,
    /// Commit resolutions not yet at or below the frontier: lsn -> cts.
    resolved: BTreeMap<Lsn, Timestamp>,
    wmax: Timestamp,
}

impl StreamApplier {
    /// An applier for `replica`, expecting the first record after `from`,
    /// with its watermark seeded at `cut_ts`. A backfill copy may run
    /// beside it: each applies by commit timestamp, so neither waits for
    /// the other.
    pub fn new(replica: &Arc<Node>, cut_ts: Timestamp, from: Lsn) -> StreamApplier {
        let rule = Rule::Replica(Arc::clone(replica));
        Self::with_rule(from, Box::new(is_data_write), cut_ts, rule)
    }

    /// The receiver of a migration of `shards` off `source`, expecting the
    /// first record after `from` and shipping through `feed`; `hook`
    /// identifies synchronized source transactions.
    pub(crate) fn migration(
        cluster: &Cluster,
        source: &Arc<Node>,
        shards: &[ShardId],
        snapshot_ts: Timestamp,
        from: Lsn,
        hook: Arc<RemusHook>,
        feed: ReplayFeed,
    ) -> StreamApplier {
        let shards: HashSet<ShardId> = shards.iter().copied().collect();
        feed.read_through(from);
        let rule = Rule::Migration(Migration {
            source: Arc::clone(source),
            snapshot_ts,
            hook,
            spill_latency: cluster.config.spill_reload_latency,
            batch_len: cluster.metrics.counter("replay.batch_len"),
            feed,
        });
        let keep = Box::new(move |shard| shards.contains(&shard));
        Self::with_rule(from, keep, snapshot_ts, rule)
    }

    fn with_rule(from: Lsn, keep: Keep, wmax: Timestamp, rule: Rule) -> StreamApplier {
        StreamApplier {
            lsn_gate: ApplyLsnGate::starting_after(from),
            assembler: TxnAssembler::new(from, keep),
            rule,
            resolved: BTreeMap::new(),
            wmax,
        }
    }

    /// Highest densely-applied LSN.
    pub fn applied(&self) -> Lsn {
        self.lsn_gate.applied()
    }

    /// The frontier: every record at or below it belongs to a resolved,
    /// fully-applied transaction (or to one older than the slot).
    pub fn frontier(&self) -> Lsn {
        self.assembler.frontier()
    }

    /// The stream watermark `W_s` (monotone).
    pub fn watermark(&self) -> Timestamp {
        self.wmax
    }

    /// Number of transactions with a Begin on the stream but no resolution
    /// yet.
    pub fn open_txns(&self) -> usize {
        self.assembler.open_headed()
    }

    /// Admits one received batch and acts on whatever the gate releases.
    /// Returns the number of transactions committed to the replica (0 for a
    /// migration, which ships).
    pub fn apply(&mut self, batch: ShipBatch) -> DbResult<u64> {
        let mut done = 0;
        for run in self.lsn_gate.admit(batch) {
            if let Rule::Migration(m) = &self.rule {
                m.batch_len.add(run.len() as u64);
            }
            for (lsn, record) in run.iter() {
                let event = self.assembler.feed(lsn, record);
                if !headed(&event) {
                    continue;
                }
                match (&mut self.rule, event) {
                    // Nothing to do at `Prepare` on a replica: the frontier
                    // stalls at the open `Begin` until the decision record
                    // arrives — the replica analogue of prepare-wait.
                    (
                        Rule::Replica(replica),
                        TxnEvent::Resolved {
                            txn,
                            resolution_lsn,
                            outcome: TxnOutcome::Committed(cts),
                        },
                    ) => {
                        apply_commit(replica, txn.xid, cts, &txn.writes)?;
                        done += 1;
                        self.resolved.insert(resolution_lsn, cts);
                    }
                    (Rule::Migration(m), event) => m.on_event(lsn, event),
                    _ => {}
                }
            }
        }
        if let Rule::Migration(m) = &self.rule {
            m.feed.read_through(self.applied());
        }
        // Drain resolutions the frontier now covers into the watermark.
        let frontier = self.frontier();
        while let Some(entry) = self.resolved.first_entry() {
            if *entry.key() > frontier {
                break;
            }
            self.wmax = self.wmax.max(entry.remove());
        }
        Ok(done)
    }

    /// Accepts a caught-up heartbeat if this stream has densely applied
    /// exactly `position` with no transaction open — then every commit not
    /// yet applied ticked the primary's clock after `ts` was drawn, so
    /// `ts` is a sound watermark. Returns whether it was accepted.
    pub fn heartbeat(&mut self, position: Lsn, ts: Timestamp) -> bool {
        if self.lsn_gate.applied() != position || self.open_txns() > 0 {
            return false;
        }
        self.wmax = self.wmax.max(ts);
        true
    }
}

/// Applies one committed transaction's buffered data writes to the replica,
/// in commit order whatever the arrival order (see [`crate::replication`]):
/// by the one redo rule for a committed transaction
/// ([`remus_txn::redo_committed`] — resolve first, then install each version
/// at its commit timestamp's place in its chain).
///
/// Convergent by construction: a write the cut snapshot predates goes above
/// the backfill's copy of the key whichever lands first, and one committed at
/// a timestamp the chain already holds — delivered by another stream (a 2PC
/// participant's, a migration shadow's), by a retransmit or by the backfill —
/// edits that version in place, and [`remus_storage::Clog::set_committed`]
/// is idempotent for an equal timestamp.
fn apply_commit(replica: &Node, xid: TxnId, cts: Timestamp, writes: &[WriteOp]) -> DbResult<()> {
    if writes.is_empty() {
        return Ok(());
    }
    redo_committed(&replica.storage, xid, cts, writes, |_, _| {})?;
    replica.work.add(writes.len() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mocc::ValidationRegistry;
    use crate::replay::ReplayProcess;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::{SimConfig, TableId};
    use remus_storage::{TxnStatus, Value};
    use remus_txn::SyncCommitHook;
    use remus_wal::{LogOp, LogRecord, WriteKind, WriteOp};

    /// Far above every timestamp these tests write.
    const LATEST: u64 = 1 << 40;

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

    /// Migrates shard 0 off node 0's log as it stands, from its start, into
    /// a replay on node 1; answers the drained replay's verdict.
    fn migrate_log(cluster: &Arc<Cluster>, hook: Arc<RemusHook>, snapshot_ts: u64) -> DbResult<()> {
        let (source, dest) = (cluster.node(NodeId(0)), cluster.node(NodeId(1)));
        let registry = Arc::new(ValidationRegistry::new());
        let (replay, feed) = ReplayProcess::start(cluster, dest, registry);
        let tail = source.storage.create_slot(Lsn::ZERO);
        let applier = StreamApplier::migration(
            cluster,
            source,
            &[ShardId(0)],
            Timestamp(snapshot_ts),
            tail.consumed(),
            hook,
            feed,
        );
        let stream = Stream::migration(cluster, source, NodeId(1), tail, applier);
        stream.stop(source.storage.wal.flush_lsn());
        stream.join().and(replay.join())
    }

    fn test_hook() -> Arc<RemusHook> {
        Arc::new(RemusHook::new(
            &[ShardId(0)],
            Arc::new(ValidationRegistry::new()),
            Duration::from_secs(2),
        ))
    }

    /// Two nodes, shards 0 and 1 on node 0 and empty on node 1.
    fn cluster2_with(config: SimConfig) -> Arc<Cluster> {
        let c = ClusterBuilder::new(2).config(config).build();
        c.create_table(TableId(1), 0, 2, |_| NodeId(0));
        for shard in [ShardId(0), ShardId(1)] {
            c.node(NodeId(1)).storage.create_shard(shard);
        }
        c
    }

    fn cluster2() -> Arc<Cluster> {
        cluster2_with(SimConfig::instant())
    }

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), 100 + n)
    }

    /// Node 1's committed value of `key` in `shard` at `ts`.
    fn dest_read(cluster: &Cluster, shard: u64, key: u64, ts: u64) -> Option<Value> {
        let storage = &cluster.node(NodeId(1)).storage;
        let table = storage.table(ShardId(shard)).unwrap();
        let clog = &storage.clog;
        let read = table.read(
            key,
            Timestamp(ts),
            TxnId::INVALID,
            clog,
            Duration::from_secs(2),
        );
        read.unwrap()
    }

    /// What node 1's log holds, in order.
    fn dest_log(cluster: &Cluster) -> Vec<LogOp> {
        let mut reader = cluster.node(NodeId(1)).storage.wal.reader_from(Lsn::ZERO);
        let mut ops = Vec::new();
        while let TailRead::Batch(run) = reader.next_batch(64, Duration::ZERO) {
            ops.extend(run.iter().map(|(_, record)| record.decode().unwrap().op));
        }
        ops
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

        migrate_log(&cluster, test_hook(), 10).unwrap();
        // B alone is redone on the destination, with its own timestamps.
        let log = dest_log(&cluster);
        assert!(
            matches!(
                log[..],
                [
                    LogOp::Begin(Timestamp(12)),
                    LogOp::Write(_),
                    LogOp::Commit(Timestamp(15))
                ]
            ),
            "{log:?}"
        );
        assert_eq!(dest_read(&cluster, 0, 2, 15), Some(val("x")));
        assert_eq!(dest_read(&cluster, 0, 2, 14), None);
        assert_eq!(dest_read(&cluster, 0, 1, LATEST), None);
        assert_eq!(dest_read(&cluster, 1, 3, LATEST), None);
    }

    #[test]
    fn aborted_txn_queue_is_dropped() {
        let cluster = cluster2();
        let wal = &cluster.node(NodeId(0)).storage.wal;
        wal.append(LogRecord::new(xid(1), LogOp::Begin(Timestamp(2))));
        wal.append(LogRecord::new(xid(1), wop(0, 1)));
        wal.append(LogRecord::new(xid(1), LogOp::Abort));
        migrate_log(&cluster, test_hook(), 0).unwrap();
        assert_eq!(dest_log(&cluster), []);
        assert_eq!(dest_read(&cluster, 0, 1, LATEST), None);
    }

    /// Whether node 1's log prepared a shadow and later resolved it with
    /// `decision` (another transaction's redo may log in between).
    fn shadow_prepared_then(cluster: &Cluster, decision: LogOp) -> bool {
        let log = dest_log(cluster);
        let prepare = log.iter().position(|op| *op == LogOp::Prepare);
        prepare.is_some_and(|i| log[i + 1..].contains(&decision))
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

        migrate_log(&cluster, hook, 0).unwrap();
        // Validated into a prepared shadow, which committed at the source's
        // timestamp.
        let decision = LogOp::CommitPrepared(Timestamp(9));
        assert!(
            shadow_prepared_then(&cluster, decision),
            "{:?}",
            dest_log(&cluster)
        );
        let status = cluster.node(NodeId(1)).storage.clog.status(xid(1).shadow());
        assert_eq!(status, TxnStatus::Committed(Timestamp(9)));
        assert_eq!(dest_read(&cluster, 0, 1, 9), Some(val("x")));
        assert_eq!(dest_read(&cluster, 0, 1, 8), None);
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
        migrate_log(&cluster, test_hook(), 0).unwrap();
        // Redone as committed, with no shadow prepared.
        let log = dest_log(&cluster);
        assert!(!log.contains(&LogOp::Prepare), "{log:?}");
        assert_eq!(log.last(), Some(&LogOp::Commit(Timestamp(9))));
        assert_eq!(dest_read(&cluster, 0, 1, 9), Some(val("x")));
        assert_eq!(dest_read(&cluster, 0, 1, 8), None);
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
        migrate_log(&cluster, hook, 0).unwrap();
        let decision = LogOp::RollbackPrepared;
        assert!(
            shadow_prepared_then(&cluster, decision),
            "{:?}",
            dest_log(&cluster)
        );
        let status = cluster.node(NodeId(1)).storage.clog.status(xid(1).shadow());
        assert_eq!(status, TxnStatus::Aborted);
        assert_eq!(dest_read(&cluster, 0, 1, LATEST), None);
    }

    /// Holds the first `ReplayApply` visit on node 1 until released.
    #[derive(Default)]
    struct HoldApply {
        released: std::sync::Mutex<bool>,
        cv: std::sync::Condvar,
    }

    impl remus_common::fault::FaultInjector for HoldApply {
        fn decide(&self, point: InjectionPoint, node: NodeId) -> FaultAction {
            if point == InjectionPoint::ReplayApply && node == NodeId(1) {
                let released = self.released.lock().unwrap();
                drop(self.cv.wait_while(released, |r| !*r).unwrap());
            }
            FaultAction::Continue
        }
    }

    /// The stream issues each ticket with the LSN of the record that
    /// produced it: replay's progress stops before the record of a held
    /// install, a later message's completion does not move it, and it
    /// reaches the log's end once the held one completes.
    #[test]
    fn a_migration_stream_issues_each_ticket_with_the_lsn_of_its_record() {
        let cluster = cluster2();
        let (source, dest) = (cluster.node(NodeId(0)), cluster.node(NodeId(1)));
        let shards = [ShardId(0), ShardId(1)];
        let registry = Arc::new(ValidationRegistry::new());
        let hook = Arc::new(RemusHook::new(&shards, registry, Duration::from_secs(2)));
        hook.enable_sync();
        hook.begin_commit(xid(2), &[ShardId(1)]);
        let wal = &source.storage.wal;
        // Ticket 1: a transaction committed on shard 0, produced by its
        // commit record at LSN 3; the held install. Tickets 2 and 3: a
        // synchronized one on shard 1, validated at its prepare (LSN 6) and
        // committed at LSN 7 — neither visits the install seam.
        wal.append(LogRecord::new(xid(1), LogOp::Begin(Timestamp(11))));
        wal.append(LogRecord::new(xid(1), wop(0, 1)));
        wal.append(LogRecord::new(xid(1), LogOp::Commit(Timestamp(21))));
        wal.append(LogRecord::new(xid(2), LogOp::Begin(Timestamp(12))));
        wal.append(LogRecord::new(xid(2), wop(1, 2)));
        wal.append(LogRecord::new(xid(2), LogOp::Prepare));
        wal.append(LogRecord::new(xid(2), LogOp::CommitPrepared(Timestamp(22))));
        let hold = Arc::new(HoldApply::default());
        cluster.install_fault_injector(Arc::clone(&hold) as _);
        let registry = Arc::new(ValidationRegistry::new());
        let (replay, feed) = ReplayProcess::start(&cluster, dest, registry);
        let tail = source.storage.create_slot(Lsn::ZERO);
        let from = tail.consumed();
        let ts = Timestamp(5);
        let applier = StreamApplier::migration(&cluster, source, &shards, ts, from, hook, feed);
        let stream = Stream::migration(&cluster, source, NodeId(1), tail, applier);
        let wait = |cond: &dyn Fn() -> bool| {
            assert!(replay
                .stats
                .progress
                .park_until(cond, Duration::from_secs(5)));
        };
        // The synchronized transaction completes first.
        let committed = TxnStatus::Committed(Timestamp(22));
        wait(&|| dest.storage.clog.status(xid(2).shadow()) == committed);
        let measure = replay.finished_through();
        assert_eq!(measure, Lsn(2), "a later completion moved the measure");
        // The held install completes: everything up to the log's end is
        // applied.
        *hold.released.lock().unwrap() = true;
        hold.cv.notify_all();
        wait(&|| replay.finished_through() == wal.flush_lsn());
        stream.stop(wal.flush_lsn());
        stream.join().and(replay.join()).unwrap();
        cluster.uninstall_fault_injector();
    }

    #[test]
    fn slot_protects_wal_until_dropped() {
        let cluster = cluster2();
        let storage = &cluster.node(NodeId(0)).storage;
        let wal = &storage.wal;
        for i in 0..5 {
            wal.append(LogRecord::new(xid(i), LogOp::Abort));
        }
        // The stream reads everything, then stops and drops its slot.
        migrate_log(&cluster, test_hook(), 0).unwrap();
        // After the stream dropped its slot, truncation can clean fully.
        assert_eq!(storage.truncate_wal_safely(), wal.flush_lsn());
    }

    #[test]
    fn shipping_does_not_depend_on_the_drain_batch() {
        let digests: Vec<u64> = [1, 2, 32]
            .into_iter()
            .map(|drain_batch| {
                let mut config = SimConfig::instant();
                config.parallelism.drain_batch = drain_batch;
                let cluster = cluster2_with(config);
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
                migrate_log(&cluster, hook, 10).unwrap();
                // 1 through its shadow at 22, 5 at 21; 2, 3 and 4 nowhere.
                let decision = LogOp::CommitPrepared(Timestamp(22));
                assert!(
                    shadow_prepared_then(&cluster, decision),
                    "drain_batch {drain_batch}"
                );
                for (key, cts) in [(1, 22), (11, 22), (5, 21), (55, 21)] {
                    assert_eq!(
                        dest_read(&cluster, 0, key, cts),
                        Some(val("x")),
                        "key {key}"
                    );
                    assert_eq!(dest_read(&cluster, 0, key, cts - 1), None, "key {key}");
                }
                for key in [2, 3] {
                    assert_eq!(dest_read(&cluster, 0, key, LATEST), None, "key {key}");
                }
                let storage = &cluster.node(NodeId(1)).storage;
                assert_eq!(storage.table(ShardId(1)).unwrap().stats().keys, 0);
                let table = storage.table(ShardId(0)).unwrap();
                table.committed_state_digest(&storage.clog)
            })
            .collect();
        assert_eq!(digests[1], digests[0], "drain_batch 2 against 1");
        assert_eq!(digests[2], digests[0], "drain_batch 32 against 1");
    }

    #[test]
    fn a_buffer_past_the_spill_threshold_is_charged_per_reload_batch() {
        let cluster = cluster2();
        let source = cluster.node(NodeId(0));
        let storage = &source.storage;
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
        let (spills, extracted) = (storage.counters.queue_spills.get(), source.work.get());

        migrate_log(&cluster, test_hook(), 0).unwrap();
        // 300 records past the threshold, reloaded 256 at a time.
        assert_eq!(storage.counters.queue_spills.get() - spills, 2);
        // Every kept record is counted as extraction work on the source.
        assert_eq!(source.work.get() - extracted, writes);
        // And all of them were redone, in one transaction at its timestamp.
        let dest = &cluster.node(NodeId(1)).storage;
        assert_eq!(
            dest.table(ShardId(0)).unwrap().stats().keys,
            writes as usize
        );
        assert_eq!(dest_read(&cluster, 0, writes - 1, 9), Some(val("x")));
        assert_eq!(dest_read(&cluster, 0, 0, 8), None);
    }

    /// A replica stream is one thread: it applies every batch itself, up to
    /// the stop it was given, and a stop is never answered with a heartbeat
    /// — though the primary is caught up and idle by then.
    #[test]
    fn a_stopped_stream_applies_up_to_the_stop_on_its_own_thread_and_never_heartbeats() {
        let c = ClusterBuilder::new(3).config(SimConfig::instant()).build();
        let layout = c.create_table(TableId(1), 0, 4, |_| NodeId(0));
        let (primary, replica) = (Arc::clone(c.node(NodeId(0))), Arc::clone(c.node(NodeId(2))));
        let tail = primary.storage.create_slot_at_oldest_active();
        let from = tail.consumed();
        let s = Session::connect(&c, NodeId(0));
        for k in 0..40u64 {
            let mut t = s.begin();
            t.insert(&layout, k * 2, val("x")).unwrap();
            t.commit().unwrap();
        }
        let flush = primary.storage.wal.flush_lsn();
        tail.handle().stop(flush);
        let mut applier = StreamApplier::new(&replica, Timestamp(1), from);
        let (mut delivered, mut committed) = (Vec::new(), 0);
        let here = std::thread::current().id();
        let publish = |applier: &StreamApplier, applied: u64| {
            assert_eq!(
                std::thread::current().id(),
                here,
                "applied off the stream's thread"
            );
            delivered.push(applier.applied());
            committed += applied;
        };
        run(&c, &primary, NodeId(2), tail, &mut applier, publish).unwrap();
        assert!(
            applier.applied() >= flush,
            "applied {}, stop at {flush}",
            applier.applied()
        );
        assert_eq!(committed, 40);
        // Every publish followed a delivery that moved the gate: none was a
        // heartbeat's.
        assert!(delivered.windows(2).all(|w| w[0] < w[1]), "{delivered:?}");
        assert_eq!(delivered.last(), Some(&applier.applied()));
        assert_eq!(primary.storage.slot_count(), 0);
    }
}
