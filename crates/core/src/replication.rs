//! WAL-shipped read replicas with virtual-cut backfill.
//!
//! A replica is an ordinary cluster node that owns no shards. Per primary
//! node, [`start_replica`] runs one *shipper* thread (tails the primary's
//! WAL through a slot-owning [`remus_txn::WalTail`] — the same
//! [`remus_wal::WalReader::next_batch`] wait the migration propagation
//! process uses, here with `HEARTBEAT_PERIOD` as its idle period — and
//! sends LSN-prefixed [`ShipBatch`]es) and
//! one *applier* thread (feeds received batches through an
//! [`ApplyLsnGate`], so the apply stream is dense and exactly-once no
//! matter how the transport duplicated, reordered, or overlapped them).
//!
//! ## Virtual-cut backfill (DBLog-style)
//!
//! Bootstrap never pauses the primaries. Per stream, in this order:
//!
//! 1. create a replication slot at the oldest active transaction's begin
//!    LSN — nothing a later scan could see escapes the stream;
//! 2. take the *cut timestamp* from the primary's **own** clock. The
//!    commit protocol folds every commit timestamp a node logs into that
//!    node's clock before the commit record is appended (the fast path
//!    ticks the committing node; 2PC participants observe the
//!    coordinator's timestamp before `CommitPrepared`; migration replay
//!    observes shadow commit timestamps on the destination), so the cut
//!    bounds from above every commit already in that WAL;
//! 3. chunk-copy the primary's data shards at the cut through a
//!    [`CopyGate`] while the live stream applies concurrently — appliers
//!    wait per key for its chunk, exactly like migration dual execution;
//! 4. certify the stream once its *frontier* (see below) passes the
//!    primary's flush LSN recorded after the copy finished: at that point
//!    every transaction the chunk scans could have missed has been
//!    applied from the stream, so the replica's state at the cut equals a
//!    point-in-time snapshot of the primary at the cut.
//!
//! Transactions whose `Begin` predates the slot are *not* replayed: they
//! resolved before the slot existed, so their effects (if committed) are
//! wholly inside the cut snapshot — [`remus_wal::TxnAssembler`] hands them
//! over with `begin_lsn == None` and the applier skips them. Everything else
//! is applied at its commit record, see below.
//!
//! ## Cross-stream apply order
//!
//! One stream is in commit order; two are not. A migrated shard's history
//! reaches the replica over the source's stream up to `T_m` and over the
//! destination's after it (which also re-delivers the source's transactions
//! as their shadows), and either stream may lag the other — so a commit can
//! arrive after a newer one on the same key. The applier therefore never
//! pushes "on top": it applies a committed transaction by
//! [`remus_txn::redo_committed`], the one redo rule it shares with crash
//! replay — resolve the transaction in the CLOG first, then install each
//! write with
//! [`install_committed`](remus_storage::VersionedTable::install_committed),
//! which places the version by commit timestamp and edits the transaction's
//! own version in place when a second delivery finds one — this is the
//! replay-order condition a certified cut needs for a snapshot-equivalent
//! replay. Resolving before installing is invisible to readers: they read at
//! the watermark, and by the watermark's definition (next section) every
//! transaction still being applied commits above it.
//!
//! ## The applied watermark
//!
//! Per stream the frontier `F` is the assembler's
//! ([`remus_wal::TxnAssembler::frontier`]): the LSN before the earliest
//! still-open `Begin`, or the densely-applied LSN if none. On top of it the
//! applier keeps a stream watermark `W_s` = max commit timestamp among
//! resolutions at or below `F`, seeded at the cut. Every transaction that
//! commits on that primary with `cts <= W_s` is applied: its records are all
//! at or below the resolution that produced `W_s`'s bound — later
//! transactions ticked the primary's clock past `W_s` first, and a prepared
//! transaction, whose timestamp its coordinator decided while other commits
//! were logged, holds the frontier from its `Begin` until its decision
//! (`tests/replica_watermark.rs` is this paragraph as a property). The
//! replica-wide watermark published to [`ReplicaHandle`] is the minimum over
//! streams, so replica reads at the watermark are ordinary
//! snapshot-isolation reads.
//!
//! An idle primary would stall the minimum, so a caught-up shipper sends
//! heartbeats: it ticks the primary's clock *first*, then reads its
//! position, and the replica accepts the heartbeat timestamp only if it
//! has densely applied exactly that position with no transaction open —
//! any commit not covered by the heartbeat's position must have ticked the
//! primary's clock after the heartbeat timestamp was drawn.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use remus_cluster::{Cluster, Node, ReplicaHandle};
use remus_common::time::Signal;
use remus_common::{DbError, DbResult, FaultAction, InjectionPoint, NodeId, Timestamp, TxnId};
use remus_shard::SHARD_MAP_SHARD;
use remus_txn::{redo_committed, WalTail};
use remus_wal::{
    ApplyLsnGate, Lsn, ShipBatch, TailHandle, TailRead, TxnAssembler, TxnEvent, TxnOutcome, WriteOp,
};

use crate::snapshot::{copy_task_snapshots_gated, CopyGate};

/// How long an applier waits for a backfill chunk covering a key it must
/// redo. Generous: the copy pool is making progress the whole time, and a
/// poisoned gate wakes waiters immediately.
const COPY_WAIT: Duration = Duration::from_secs(60);

/// How long a caught-up shipper lets its primary stay quiet before it sends
/// a heartbeat (and a batch the reorder fault held back). Not a stop
/// latency: a stop wakes the shipper.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(20);

/// What a shipper sends its applier.
enum ShipMsg {
    /// A contiguous WAL frame run (possibly duplicated/reordered/overlapping
    /// by fault injection; the apply gate re-sequences).
    Batch(ShipBatch),
    /// Caught-up marker: the shipper ticked the primary's clock (drawing
    /// `ts`), then observed that everything up to `position` was both
    /// flushed and already shipped.
    Heartbeat {
        /// Last LSN shipped; equals the primary's flush LSN at send time.
        position: Lsn,
        /// A timestamp the primary's clock issued *before* `position` was
        /// read — commits not covered by `position` are above it.
        ts: Timestamp,
    },
    /// Stream end; the applier thread exits.
    Shutdown,
}

/// Per-stream shared state between shipper, applier, and bootstrap.
struct StreamState {
    /// The primary this stream tails.
    primary: NodeId,
    /// The stream's cut timestamp (from the primary's own clock).
    cut_ts: Timestamp,
    /// LSN the stream must densely apply for certification. Starts at the
    /// flush LSN recorded at the cut; raised to the post-copy flush LSN
    /// when the chunk copy finishes.
    cut_lsn: AtomicU64,
    /// Highest densely-applied LSN (the apply gate's position).
    applied: AtomicU64,
    /// The frontier: every record at or below it belongs to a resolved,
    /// fully-applied transaction (or to one older than the slot).
    frontier: AtomicU64,
    /// The stream watermark `W_s` (monotone; written by the applier only).
    watermark: AtomicU64,
}

/// State shared by every thread of one replica's replication process.
struct ReplState {
    streams: Vec<Arc<StreamState>>,
    /// Set by the bootstrap once every stream certified; appliers publish
    /// the min-watermark to the handle only after this.
    certified: AtomicBool,
    /// A copy or apply step failed terminally. A failure a stop causes is
    /// recorded too, where nobody can read it: `is_failed` needs the process
    /// a stop consumes.
    failed: AtomicBool,
    /// Notified when an applier stored its stream's frontier, and by a stop:
    /// what the bootstrap's certification parks on.
    frontier_moved: Signal,
}

impl ReplState {
    /// Publishes the replica-wide watermark (min over streams) if certified.
    fn publish(&self, cluster: &Cluster, handle: &ReplicaHandle) {
        if !self.certified.load(Ordering::SeqCst) {
            return;
        }
        let min = self
            .streams
            .iter()
            .map(|s| s.watermark.load(Ordering::SeqCst))
            .min();
        if let Some(w) = min {
            let ts = Timestamp(w);
            if ts.is_valid() {
                handle.advance_watermark(cluster, ts);
            }
        }
    }
}

/// Handle to a running replication process (shippers + appliers +
/// bootstrap) feeding one replica node.
pub struct ReplicaProcess {
    handle: Arc<ReplicaHandle>,
    shared: Arc<ReplState>,
    /// Poisoned by a stop: that is what the appliers and the bootstrap, which
    /// wait on channels and gates, are stopped by; the shippers wait on the
    /// log and are stopped through `tails`.
    gates: Vec<Arc<CopyGate>>,
    tails: Vec<TailHandle>,
    shippers: Vec<JoinHandle<()>>,
    appliers: Vec<JoinHandle<()>>,
    bootstrap: Option<JoinHandle<()>>,
}

impl ReplicaProcess {
    /// The replica's watermark/certification handle.
    pub fn handle(&self) -> &Arc<ReplicaHandle> {
        &self.handle
    }

    /// Current replica-wide watermark.
    pub fn watermark(&self) -> Timestamp {
        self.handle.watermark()
    }

    /// Waits for the virtual-cut backfill to certify.
    pub fn wait_certified(&self, timeout: Duration) -> DbResult<()> {
        self.handle.wait_certified(timeout)
    }

    /// Per-stream cut timestamps, in `primary_ids` order.
    pub fn cuts(&self) -> Vec<(NodeId, Timestamp)> {
        self.shared
            .streams
            .iter()
            .map(|s| (s.primary, s.cut_ts))
            .collect()
    }

    /// The cut timestamp of `primary`'s stream.
    pub fn cut_of(&self, primary: NodeId) -> Option<Timestamp> {
        self.shared
            .streams
            .iter()
            .find(|s| s.primary == primary)
            .map(|s| s.cut_ts)
    }

    /// Highest densely-applied LSN of `primary`'s stream.
    pub fn applied_of(&self, primary: NodeId) -> Option<Lsn> {
        self.shared
            .streams
            .iter()
            .find(|s| s.primary == primary)
            .map(|s| Lsn(s.applied.load(Ordering::SeqCst)))
    }

    /// True if a copy or apply step failed terminally.
    pub fn is_failed(&self) -> bool {
        self.shared.failed.load(Ordering::SeqCst)
    }

    /// Stops shipping and applying, joins every thread, drops the
    /// replication slots, and resets the replica's handle (its watermark
    /// pin included) — the replica is detached until a fresh
    /// [`start_replica`] re-bootstraps it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // Unblock appliers stuck behind an unfinished backfill chunk, and
        // the bootstrap wherever it is.
        for gate in &self.gates {
            gate.poison();
        }
        self.shared.frontier_moved.notify();
        // Shippers are woken, send `Shutdown` and drop their tails (and with
        // them their slots); appliers drain up to the `Shutdown`.
        for tail in &self.tails {
            tail.stop(Lsn::ZERO);
        }
        for h in self.shippers.drain(..) {
            let _ = h.join();
        }
        for h in self.appliers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.bootstrap.take() {
            let _ = h.join();
        }
        self.handle.reset();
    }
}

impl Drop for ReplicaProcess {
    fn drop(&mut self) {
        if !self.shippers.is_empty() || self.bootstrap.is_some() {
            self.shutdown();
        }
    }
}

/// Registers `replica` and starts its replication process: per primary a
/// shipper and an applier, plus one bootstrap thread doing the virtual-cut
/// chunk copy and certification. Returns immediately; use
/// [`ReplicaProcess::wait_certified`] (or a [`remus_cluster::ReplicaSession`],
/// which waits internally) before reading.
pub fn start_replica(cluster: &Arc<Cluster>, replica: NodeId) -> DbResult<ReplicaProcess> {
    let handle = cluster.register_replica(replica);
    let replica_node = Arc::clone(cluster.node(replica));
    let primaries: Vec<Arc<Node>> = cluster
        .primary_ids()
        .into_iter()
        .map(|id| Arc::clone(cluster.node(id)))
        .collect();
    if primaries.is_empty() {
        return Err(DbError::Internal(
            "replica bootstrap: cluster has no primary nodes".into(),
        ));
    }
    // Slots first: from here on, no record a cut-snapshot scan could miss
    // can be truncated out from under the stream.
    let tails: Vec<WalTail> = primaries
        .iter()
        .map(|p| p.storage.create_slot_at_oldest_active())
        .collect();

    // Per-stream cuts, drawn from each primary's own clock *after* its
    // slot exists (see the module docs for why this bounds its WAL).
    let mut streams = Vec::with_capacity(primaries.len());
    for (p, tail) in primaries.iter().zip(&tails) {
        let from = tail.consumed();
        let cut_ts = cluster.oracle.start_ts(p.id());
        let flush_at_cut = p.storage.wal.flush_lsn();
        streams.push(Arc::new(StreamState {
            primary: p.id(),
            cut_ts,
            cut_lsn: AtomicU64::new(flush_at_cut.0),
            applied: AtomicU64::new(from.0),
            frontier: AtomicU64::new(from.0),
            watermark: AtomicU64::new(cut_ts.0),
        }));
    }

    // Pin the earliest cut so GC/vacuum cannot prune the versions the
    // chunk scans still have to read.
    let min_cut = streams.iter().map(|s| s.cut_ts).min().expect("non-empty");
    let cut_pin = cluster.pin_snapshot(min_cut);

    // Chunk plans are laid out now, before any applier runs, so appliers
    // can gate on them from the first shipped record.
    let chunk_size = cluster.config.parallelism.chunk_size;
    let mut gates = Vec::with_capacity(primaries.len());
    for p in &primaries {
        let shards = p.data_shards();
        let gate = if shards.is_empty() {
            CopyGate::open()
        } else {
            CopyGate::plan(&shards, p, chunk_size)?
        };
        gates.push(Arc::new(gate));
    }

    let shared = Arc::new(ReplState {
        streams: streams.clone(),
        certified: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        frontier_moved: Signal::default(),
    });

    let mut shippers = Vec::with_capacity(primaries.len());
    let mut appliers = Vec::with_capacity(primaries.len());
    let tail_handles = tails.iter().map(WalTail::handle).collect();
    for (i, (p, tail)) in primaries.iter().zip(tails).enumerate() {
        let (tx, rx) = unbounded();
        let from = tail.consumed();
        shippers.push({
            let cluster = Arc::clone(cluster);
            let primary = Arc::clone(p);
            std::thread::spawn(move || ship_loop(cluster, primary, replica, tail, tx))
        });
        appliers.push({
            let cluster = Arc::clone(cluster);
            let node = Arc::clone(&replica_node);
            let handle = Arc::clone(&handle);
            let shared = Arc::clone(&shared);
            let stream = Arc::clone(&streams[i]);
            let gate = Arc::clone(&gates[i]);
            std::thread::spawn(move || {
                apply_loop(cluster, node, handle, shared, stream, gate, from, rx)
            })
        });
    }

    let bootstrap = {
        let cluster = Arc::clone(cluster);
        let replica_node = Arc::clone(&replica_node);
        let primaries = primaries.clone();
        let handle = Arc::clone(&handle);
        let shared = Arc::clone(&shared);
        let gates = gates.clone();
        std::thread::spawn(move || {
            bootstrap_loop(
                cluster,
                primaries,
                replica_node,
                handle,
                shared,
                gates,
                cut_pin,
            )
        })
    };

    Ok(ReplicaProcess {
        handle,
        shared,
        gates,
        tails: tail_handles,
        shippers,
        appliers,
        bootstrap: Some(bootstrap),
    })
}

/// The shipper: tails `primary`'s WAL and sends LSN-prefixed batches (and
/// caught-up heartbeats) to the replica's applier until the tail is stopped.
/// A stop is never answered with a heartbeat: `Stopped` goes straight to
/// `Shutdown`.
fn ship_loop(
    cluster: Arc<Cluster>,
    primary: Arc<Node>,
    replica: NodeId,
    mut tail: WalTail,
    tx: Sender<ShipMsg>,
) {
    let drain_batch = cluster.config.parallelism.drain_batch.max(1);
    let send = |msg: ShipMsg| {
        cluster.net.hop(primary.id(), replica);
        let _ = tx.send(msg);
    };
    // A batch held back by the reorder fault: it is sent *after* its
    // successor (or at the next idle tick), so the apply gate sees a
    // genuine out-of-order arrival followed by a late retransmit.
    let mut held: Option<ShipBatch> = None;
    // Records are `Arc`-shared (a held batch keeps its frames alive), so
    // asking for the next batch lets the slot advance past everything drained.
    loop {
        let batch = match tail.next_batch(drain_batch, HEARTBEAT_PERIOD) {
            TailRead::Batch(batch) => batch,
            TailRead::Stopped => break,
            TailRead::Idle => {
                if let Some(prev) = held.take() {
                    send(ShipMsg::Batch(prev));
                }
                // Caught-up heartbeat. Order matters: tick the clock *before*
                // reading the position, so any commit past `position` drew its
                // timestamp after `ts`.
                let ts = cluster.oracle.start_ts(primary.id());
                let position = tail.consumed();
                if primary.storage.wal.flush_lsn() == position {
                    send(ShipMsg::Heartbeat { position, ts });
                }
                continue;
            }
        };
        let first = batch[0].0;
        let records = batch.into_iter().map(|(_, r)| r).collect();
        let sb = ShipBatch::new(first, records);
        let mut held_now = false;
        match cluster.fault_at(InjectionPoint::ShipBatch, primary.id()) {
            FaultAction::Fail => {
                // Reorder: hold this batch back until after its successor.
                held_now = true;
                if let Some(prev) = held.replace(sb) {
                    send(ShipMsg::Batch(prev));
                }
            }
            FaultAction::Crash => {
                // Duplicate transmission (a retransmit racing the original).
                send(ShipMsg::Batch(sb.clone()));
                send(ShipMsg::Batch(sb));
            }
            // No fault, or ship lag the seam helper already slept.
            FaultAction::Continue | FaultAction::Delay(_) => send(ShipMsg::Batch(sb)),
        }
        if !held_now {
            if let Some(prev) = held.take() {
                send(ShipMsg::Batch(prev));
            }
        }
    }
    if let Some(prev) = held.take() {
        send(ShipMsg::Batch(prev));
    }
    let _ = tx.send(ShipMsg::Shutdown);
}

/// The replica's write predicate. Shard-map rows are excluded: the replica
/// is itself a participant of every map transaction (`T_m` updates all
/// nodes' map replicas), so its map table is maintained by its own 2PC path,
/// not by redo.
fn is_data_write(w: &WriteOp) -> bool {
    w.shard != SHARD_MAP_SHARD
}

/// One replication stream's apply state machine: re-sequences received
/// batches through the apply-LSN gate, assembles them per transaction
/// ([`TxnAssembler`]), applies each transaction at its resolution record,
/// and maintains the stream watermark from the assembler's frontier.
///
/// [`start_replica`]'s applier threads drive one of these per primary; it
/// is public so tests can feed it arbitrary (duplicated, reordered,
/// overlapping) batch sequences directly and check convergence.
pub struct StreamApplier {
    replica: Arc<Node>,
    gate: Arc<CopyGate>,
    lsn_gate: ApplyLsnGate,
    assembler: TxnAssembler<fn(&WriteOp) -> bool>,
    /// Commit resolutions not yet at or below the frontier: lsn -> cts.
    resolved: BTreeMap<Lsn, Timestamp>,
    wmax: Timestamp,
}

impl StreamApplier {
    /// An applier for `replica`, expecting the first record after `from`,
    /// with its watermark seeded at `cut_ts` and no backfill gate (every
    /// key applies immediately).
    pub fn new(replica: &Arc<Node>, cut_ts: Timestamp, from: Lsn) -> StreamApplier {
        Self::gated(replica, cut_ts, from, Arc::new(CopyGate::open()))
    }

    /// Like [`StreamApplier::new`], but applies behind a backfill copy
    /// gate: a write to a key whose chunk is still being copied waits for
    /// the chunk (or fails when the gate is poisoned).
    pub fn gated(
        replica: &Arc<Node>,
        cut_ts: Timestamp,
        from: Lsn,
        gate: Arc<CopyGate>,
    ) -> StreamApplier {
        StreamApplier {
            replica: Arc::clone(replica),
            gate,
            lsn_gate: ApplyLsnGate::starting_after(from),
            assembler: TxnAssembler::new(from, is_data_write),
            resolved: BTreeMap::new(),
            wmax: cut_ts,
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

    /// Admits one received batch and applies whatever the gate releases.
    /// Returns the number of transactions committed to the replica.
    pub fn apply(&mut self, batch: ShipBatch) -> DbResult<u64> {
        let mut committed = 0;
        for (lsn, record) in self.lsn_gate.admit(batch) {
            // Nothing to do at `Prepare`: the frontier stalls at the open
            // `Begin` until the decision record arrives — the replica
            // analogue of prepare-wait. A transaction without a `Begin` on
            // this stream resolved before the slot existed, so its effects
            // (if committed) are wholly inside the cut snapshot: skipped.
            if let TxnEvent::Resolved {
                txn,
                resolution_lsn,
                outcome: TxnOutcome::Committed(cts),
            } = self.assembler.feed(lsn, &record)
            {
                if txn.begin_lsn.is_some() {
                    apply_commit(&self.replica, &self.gate, txn.xid, cts, &txn.writes)?;
                    committed += 1;
                    self.resolved.insert(resolution_lsn, cts);
                }
            }
        }
        // Drain resolutions the frontier now covers into the watermark.
        let frontier = self.frontier();
        while let Some(entry) = self.resolved.first_entry() {
            if *entry.key() > frontier {
                break;
            }
            self.wmax = self.wmax.max(entry.remove());
        }
        Ok(committed)
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

/// The applier thread: drives a [`StreamApplier`] from the shipper's
/// channel and mirrors its progress into the shared stream state.
#[allow(clippy::too_many_arguments)]
fn apply_loop(
    cluster: Arc<Cluster>,
    replica: Arc<Node>,
    handle: Arc<ReplicaHandle>,
    shared: Arc<ReplState>,
    stream: Arc<StreamState>,
    gate: Arc<CopyGate>,
    from: Lsn,
    rx: Receiver<ShipMsg>,
) {
    let mut applier = StreamApplier::gated(&replica, stream.cut_ts, from, gate);
    let applied = cluster.metrics.counter("replica.applied_txns");

    while let Ok(msg) = rx.recv() {
        match msg {
            ShipMsg::Shutdown => break,
            ShipMsg::Heartbeat { position, ts } => {
                if applier.heartbeat(position, ts) {
                    stream.frontier.fetch_max(position.0, Ordering::SeqCst);
                    stream
                        .watermark
                        .fetch_max(applier.watermark().0, Ordering::SeqCst);
                    shared.publish(&cluster, &handle);
                }
            }
            ShipMsg::Batch(batch) => {
                // Stalled-replica seam: only Delay is expressible here.
                cluster.fault_at(InjectionPoint::ReplicaApply, replica.id());
                match applier.apply(batch) {
                    Ok(n) => applied.add(n),
                    Err(_) => {
                        shared.failed.store(true, Ordering::SeqCst);
                        return;
                    }
                }
                stream.applied.store(applier.applied().0, Ordering::SeqCst);
                stream
                    .frontier
                    .store(applier.frontier().0, Ordering::SeqCst);
                stream
                    .watermark
                    .store(applier.watermark().0, Ordering::SeqCst);
                shared.publish(&cluster, &handle);
            }
        }
        shared.frontier_moved.notify();
    }
}

/// Applies one committed transaction's buffered data writes to the replica,
/// in commit order whatever the arrival order (see the module docs): behind
/// the backfill gate, by the one redo rule for a committed transaction
/// ([`remus_txn::redo_committed`] — resolve first, then install each version
/// at its commit timestamp's place in its chain).
///
/// Convergent by construction: a write the cut snapshot predates is installed
/// above the frozen copy, one another stream (a 2PC participant's, a migration
/// shadow's) or a retransmit already delivered edits that version in place,
/// and [`remus_storage::Clog::set_committed`] is idempotent for an equal
/// timestamp.
fn apply_commit(
    replica: &Node,
    gate: &CopyGate,
    xid: TxnId,
    cts: Timestamp,
    writes: &[WriteOp],
) -> DbResult<()> {
    if writes.is_empty() {
        return Ok(());
    }
    // During backfill, wait key-by-key for the covering chunk — the same
    // ordering the migration's dual execution uses against its copy gate.
    for w in writes {
        gate.wait_copied(w.shard, w.key, COPY_WAIT)?;
    }
    redo_committed(&replica.storage, xid, cts, writes)?;
    replica.work.add(writes.len() as u64);
    Ok(())
}

/// The bootstrap: chunk-copies every primary's data shards at its stream's
/// cut, fixes the per-stream certification LSNs, waits for the frontiers
/// to pass them, and publishes the first watermark.
#[allow(clippy::too_many_arguments)]
fn bootstrap_loop(
    cluster: Arc<Cluster>,
    primaries: Vec<Arc<Node>>,
    replica: Arc<Node>,
    handle: Arc<ReplicaHandle>,
    shared: Arc<ReplState>,
    gates: Vec<Arc<CopyGate>>,
    cut_pin: remus_cluster::SnapshotGuard,
) {
    // A stop poisons every gate.
    let stopped = || gates.iter().any(|g| g.is_poisoned());
    for (i, primary) in primaries.iter().enumerate() {
        if stopped() {
            return;
        }
        let stream = &shared.streams[i];
        if gates[i].chunk_count() > 0
            && copy_task_snapshots_gated(
                &cluster,
                primary,
                &replica,
                stream.cut_ts,
                &gates[i],
                None,
            )
            .is_err()
        {
            shared.failed.store(true, Ordering::SeqCst);
            for gate in &gates {
                gate.poison();
            }
            return;
        }
        // Every transaction a chunk scan could have skipped (in progress or
        // prepared while scanning) has all of its records at or below this
        // flush point; once the frontier passes it, they are all applied.
        let fin = primary.storage.wal.flush_lsn().0;
        stream.cut_lsn.fetch_max(fin, Ordering::SeqCst);
    }
    // Certification: each stream's frontier past its cut LSN means the
    // replica now covers a point-in-time snapshot of each primary at its
    // cut timestamp.
    let certified = || {
        let caught_up = |s: &Arc<StreamState>| {
            s.frontier.load(Ordering::SeqCst) >= s.cut_lsn.load(Ordering::SeqCst)
        };
        shared.streams.iter().all(caught_up)
    };
    shared
        .frontier_moved
        .park_until(|| stopped() || certified(), Duration::MAX);
    if stopped() {
        return;
    }
    shared.certified.store(true, Ordering::SeqCst);
    let min = shared
        .streams
        .iter()
        .map(|s| s.watermark.load(Ordering::SeqCst))
        .min()
        .expect("non-empty streams");
    handle.advance_watermark(&cluster, Timestamp(min));
    handle.mark_certified();
    // The cut snapshot stays pinned for the whole backfill; the handle's
    // own watermark pin takes over from here.
    drop(cut_pin);
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::{ClusterBuilder, ReplicaSession, Session};
    use remus_common::{SimConfig, TableId};
    use remus_shard::TableLayout;
    use remus_storage::Value;

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    /// 2 primaries + 1 replica node, one table of 4 shards split across
    /// the primaries.
    fn cluster3() -> (Arc<Cluster>, TableLayout) {
        let c = ClusterBuilder::new(3).config(SimConfig::instant()).build();
        let layout = c.create_table(TableId(1), 0, 4, |i| NodeId(i % 2));
        (c, layout)
    }

    #[test]
    fn replica_serves_backfilled_and_live_writes() {
        let (c, layout) = cluster3();
        let s = Session::connect(&c, NodeId(0));
        for k in 0..40u64 {
            let mut t = s.begin();
            t.insert(&layout, k, val(&format!("seed-{k}"))).unwrap();
            t.commit().unwrap();
        }
        let proc = start_replica(&c, NodeId(2)).unwrap();
        proc.wait_certified(Duration::from_secs(10)).unwrap();
        // Live writes after the cut flow through the stream.
        for k in 40..60u64 {
            let mut t = s.begin();
            t.insert(&layout, k, val(&format!("live-{k}"))).unwrap();
            t.commit().unwrap();
        }
        let reader = ReplicaSession::connect_ryw(&c, NodeId(2), &s).unwrap();
        let t = reader.begin().unwrap();
        for k in 0..60u64 {
            let want = if k < 40 {
                format!("seed-{k}")
            } else {
                format!("live-{k}")
            };
            assert_eq!(t.read(&layout, k).unwrap(), Some(val(&want)), "key {k}");
        }
        drop(t);
        drop(reader);
        assert!(!proc.is_failed());
        proc.stop();
    }

    #[test]
    fn heartbeats_advance_the_watermark_of_idle_primaries() {
        let (c, layout) = cluster3();
        // Only node 0 ever commits; node 1's stream must advance by
        // heartbeat or the min-watermark would pin reads at its cut.
        let s = Session::connect(&c, NodeId(0));
        let proc = start_replica(&c, NodeId(2)).unwrap();
        proc.wait_certified(Duration::from_secs(10)).unwrap();
        let mut t = s.begin();
        t.insert(&layout, 0, val("x")).unwrap();
        let cts = t.commit().unwrap();
        // RYW wait must clear even though node 1 stays idle.
        let w = proc
            .handle()
            .wait_watermark(cts, Duration::from_secs(10))
            .unwrap();
        assert!(w >= cts);
        proc.stop();
    }

    /// A stop is never answered with a heartbeat: whatever the shipper was
    /// asked to ship first goes out, then `Shutdown` — no `Heartbeat` behind
    /// the last batch, though the primary is caught up and idle by then.
    #[test]
    fn a_stopped_shipper_ships_up_to_the_stop_and_never_heartbeats_after_it() {
        let (c, layout) = cluster3();
        let primary = Arc::clone(c.node(NodeId(0)));
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
        let (tx, rx) = unbounded();
        ship_loop(Arc::clone(&c), Arc::clone(&primary), NodeId(2), tail, tx);
        let mut shipped = from;
        let mut msgs = std::iter::from_fn(|| rx.try_recv().ok()).peekable();
        while let Some(ShipMsg::Batch(batch)) = msgs.next_if(|m| matches!(m, ShipMsg::Batch(_))) {
            assert_eq!(batch.first, Lsn(shipped.0 + 1), "dense, in order");
            shipped = Lsn(shipped.0 + batch.records.len() as u64);
        }
        assert!(shipped >= flush, "shipped {shipped}, stop at {flush}");
        assert!(matches!(msgs.next(), Some(ShipMsg::Shutdown)));
        assert!(msgs.next().is_none());
        assert_eq!(primary.storage.slot_count(), 0);
    }

    #[test]
    fn stop_detaches_and_a_restart_rebootstraps() {
        let (c, layout) = cluster3();
        let s = Session::connect(&c, NodeId(0));
        let mut t = s.begin();
        t.insert(&layout, 7, val("one")).unwrap();
        t.commit().unwrap();
        let proc = start_replica(&c, NodeId(2)).unwrap();
        proc.wait_certified(Duration::from_secs(10)).unwrap();
        proc.stop();
        assert!(!c.replica(NodeId(2)).unwrap().is_certified());
        // Writes while detached are picked up by the fresh bootstrap.
        let mut t = s.begin();
        t.update(&layout, 7, val("two")).unwrap();
        t.commit().unwrap();
        let proc = start_replica(&c, NodeId(2)).unwrap();
        proc.wait_certified(Duration::from_secs(10)).unwrap();
        let reader = ReplicaSession::connect(&c, NodeId(2)).unwrap();
        let t = reader.begin().unwrap();
        assert_eq!(t.read(&layout, 7).unwrap(), Some(val("two")));
        drop(t);
        proc.stop();
    }
}
