//! WAL-shipped read replicas with virtual-cut backfill.
//!
//! A replica is an ordinary cluster node that owns no shards. Per primary
//! node, [`start_replica`] runs one *stream* (`stream.rs`): one thread
//! that tails the primary's WAL through a slot-owning
//! [`remus_txn::WalTail`] — the same loop a migration's catch-up runs, here
//! with a heartbeat period as its idle period — and applies each LSN-prefixed
//! [`remus_wal::ShipBatch`] in the same thread through a
//! [`StreamApplier`], whose apply-LSN gate makes the apply stream dense and
//! exactly-once no matter how the transport duplicated, reordered, or
//! overlapped the batches.
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
//!    [`CopyGate`] while the live stream applies concurrently — neither
//!    waits for the other: the copy installs each row at its source commit
//!    timestamp, under whatever the stream placed first, exactly like a
//!    migration's copy and catch-up (`crate::snapshot`);
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
//! An idle primary would stall the minimum, so a caught-up stream sends
//! heartbeats: it ticks the primary's clock *first*, then reads its
//! position, and the replica accepts the heartbeat timestamp only if it
//! has densely applied exactly that position with no transaction open —
//! any commit not covered by the heartbeat's position must have ticked the
//! primary's clock after the heartbeat timestamp was drawn.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use remus_cluster::{Cluster, Node, ReplicaHandle};
use remus_common::time::Signal;
use remus_common::{DbError, DbResult, NodeId, Timestamp};
use remus_txn::WalTail;
use remus_wal::Lsn;

use crate::snapshot::{copy_task_snapshots_gated, CopyGate};
use crate::stream::{Stream, StreamApplier};

/// Per-stream shared state between a stream and the bootstrap.
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
    /// The stream watermark `W_s` (monotone; written by the stream only).
    watermark: AtomicU64,
}

/// State shared by every thread of one replica's replication process.
struct ReplState {
    streams: Vec<Arc<StreamState>>,
    /// Set by the bootstrap once every stream certified; streams publish
    /// the min-watermark to the handle only after this.
    certified: AtomicBool,
    /// A copy or apply step failed terminally. A failure a stop causes is
    /// recorded too, where nobody can read it: `is_failed` needs the process
    /// a stop consumes.
    failed: AtomicBool,
    /// Notified when a stream stored its frontier, and by a stop:
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

/// Handle to a running replication process (one stream per primary +
/// bootstrap) feeding one replica node.
pub struct ReplicaProcess {
    handle: Arc<ReplicaHandle>,
    shared: Arc<ReplState>,
    /// Poisoned by a stop: that is what stops the bootstrap and its copy
    /// pool; a stream is stopped through its tail.
    gates: Vec<Arc<CopyGate>>,
    streams: Vec<Stream>,
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
        // Stop the bootstrap wherever it is.
        for gate in &self.gates {
            gate.poison();
        }
        self.shared.frontier_moved.notify();
        // Streams are woken and drop their tails, and with them their slots.
        for stream in &self.streams {
            stream.stop(Lsn::ZERO);
        }
        for stream in self.streams.drain(..) {
            let _ = stream.join();
        }
        if let Some(h) = self.bootstrap.take() {
            let _ = h.join();
        }
        self.handle.reset();
    }
}

impl Drop for ReplicaProcess {
    fn drop(&mut self) {
        if !self.streams.is_empty() || self.bootstrap.is_some() {
            self.shutdown();
        }
    }
}

/// Registers `replica` and starts its replication process: per primary a
/// stream, plus one bootstrap thread doing the virtual-cut
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

    // Chunk plans are laid out from the tables as they stand at the cut.
    let chunk_size = cluster.config.parallelism.chunk_size;
    let mut gates = Vec::with_capacity(primaries.len());
    for p in &primaries {
        gates.push(Arc::new(CopyGate::plan(&p.data_shards(), p, chunk_size)?));
    }

    let shared = Arc::new(ReplState {
        streams: streams.clone(),
        certified: AtomicBool::new(false),
        failed: AtomicBool::new(false),
        frontier_moved: Signal::default(),
    });

    let mut replica_streams = Vec::with_capacity(primaries.len());
    for (i, (p, tail)) in primaries.iter().zip(tails).enumerate() {
        let from = tail.consumed();
        let stream = Arc::clone(&streams[i]);
        let mut applier = StreamApplier::new(&replica_node, stream.cut_ts, from);
        let cluster = Arc::clone(cluster);
        let primary = Arc::clone(p);
        let handle = Arc::clone(&handle);
        let shared = Arc::clone(&shared);
        replica_streams.push(Stream::spawn(tail, move |tail| {
            let applied_txns = cluster.metrics.counter("replica.applied_txns");
            // Mirrors the applier's progress into the shared stream state.
            let publish = |applier: &StreamApplier, applied: u64| {
                applied_txns.add(applied);
                stream.applied.store(applier.applied().0, Ordering::SeqCst);
                stream
                    .frontier
                    .store(applier.frontier().0, Ordering::SeqCst);
                stream
                    .watermark
                    .store(applier.watermark().0, Ordering::SeqCst);
                shared.publish(&cluster, &handle);
                shared.frontier_moved.notify();
            };
            if crate::stream::run(&cluster, &primary, replica, tail, &mut applier, publish).is_err()
            {
                shared.failed.store(true, Ordering::SeqCst);
            }
        }));
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
        streams: replica_streams,
        bootstrap: Some(bootstrap),
    })
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
