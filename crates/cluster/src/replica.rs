//! Read replicas: the applied-watermark handle and read-only sessions.
//!
//! A replica is an ordinary cluster node that owns no shards; a
//! replication process (in `remus-core`) backfills it with a virtual-cut
//! snapshot and then applies WAL batches shipped from every primary. This
//! module holds the cluster-side state that *clients* interact with:
//!
//! * [`ReplicaHandle`] — the replica's applied watermark (the snapshot
//!   timestamp its tables are consistent at), its certification flag (set
//!   once the virtual-cut backfill provably covers a point-in-time cut),
//!   and the GC feedback pin that keeps vacuum from pruning versions the
//!   replica still serves (hot-standby feedback).
//! * [`ReplicaSession`] / [`ReplicaTxn`] — read-only sessions that read at
//!   the replica's watermark, bypassing the shard map entirely (every
//!   shard's table is local), with an optional read-your-writes mode that
//!   blocks until the watermark covers a writer session's last commit.
//!
//! ## Why reading at the watermark is snapshot-consistent
//!
//! The applier only publishes a watermark `W` after every transaction that
//! committed with `cts <= W` on *any* primary has been fully applied and
//! marked committed in the replica's CLOG. That bound holds per stream
//! because each node's clock observes every commit timestamp it logs
//! before appending the commit record (the fast path ticks the committing
//! node's own clock; 2PC observes the coordinator's timestamp on each
//! participant before `CommitPrepared`; migration replay observes shadow
//! commit timestamps on the destination). A replica read at `W` is
//! therefore a snapshot read that misses no commit at or below `W` — the
//! same forcing rule primary snapshot reads obey.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use remus_common::{time, DbError, DbResult, NodeId, Timestamp, TxnId};
use remus_shard::TableLayout;
use remus_storage::{Key, Value};

use crate::cluster::{Cluster, SnapshotGuard};
use crate::node::Node;
use crate::session::Session;

/// Watermark / certification state shared between a replica's apply
/// process and its read sessions.
pub struct ReplicaHandle {
    node: NodeId,
    state: Mutex<HandleState>,
    advanced: Condvar,
}

struct HandleState {
    /// Highest snapshot timestamp the replica's tables are consistent at.
    /// [`Timestamp::INVALID`] until the backfill certifies.
    watermark: Timestamp,
    /// True once the virtual-cut backfill completed and every stream
    /// caught up to its cut LSN.
    certified: bool,
    /// Hot-standby feedback: pins the watermark in the cluster's snapshot
    /// registry so GC/vacuum never prune a version a replica read at the
    /// watermark could still need.
    pin: Option<SnapshotGuard>,
}

impl std::fmt::Debug for ReplicaHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("ReplicaHandle")
            .field("node", &self.node)
            .field("watermark", &state.watermark)
            .field("certified", &state.certified)
            .finish()
    }
}

impl ReplicaHandle {
    fn new(node: NodeId) -> ReplicaHandle {
        ReplicaHandle {
            node,
            state: Mutex::new(HandleState {
                watermark: Timestamp::INVALID,
                certified: false,
                pin: None,
            }),
            advanced: Condvar::new(),
        }
    }

    /// The replica node this handle describes.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The current applied watermark ([`Timestamp::INVALID`] before
    /// certification).
    pub fn watermark(&self) -> Timestamp {
        self.state.lock().watermark
    }

    /// True once the virtual-cut backfill certified.
    pub fn is_certified(&self) -> bool {
        self.state.lock().certified
    }

    /// Publishes a new watermark (monotone; regressions are ignored) and
    /// re-pins the GC feedback snapshot at it.
    pub fn advance_watermark(&self, cluster: &Cluster, ts: Timestamp) {
        // Pin the new horizon before releasing the old one so the GC
        // feedback never momentarily lifts.
        let fresh = cluster.pin_snapshot(ts);
        let mut state = self.state.lock();
        if ts <= state.watermark {
            return; // `fresh` unpins on drop
        }
        state.watermark = ts;
        let stale = state.pin.replace(fresh);
        drop(state);
        drop(stale);
        self.advanced.notify_all();
    }

    /// Marks the backfill certified (watermark must already be published).
    pub fn mark_certified(&self) {
        let mut state = self.state.lock();
        debug_assert!(state.watermark.is_valid(), "certified without watermark");
        state.certified = true;
        drop(state);
        self.advanced.notify_all();
    }

    /// Drops certification and the published watermark (replica
    /// crash-restart: apply state is volatile, a fresh bootstrap follows).
    pub fn reset(&self) {
        let mut state = self.state.lock();
        state.watermark = Timestamp::INVALID;
        state.certified = false;
        let stale = state.pin.take();
        drop(state);
        drop(stale);
        self.advanced.notify_all();
    }

    /// Blocks until the backfill certifies.
    pub fn wait_certified(&self, timeout: Duration) -> DbResult<()> {
        let mut state = self.state.lock();
        time::wait(&self.advanced, &mut state, timeout, |s| {
            s.certified.then_some(())
        })
        .ok_or(DbError::Timeout("replica certification"))
    }

    /// Blocks until the watermark reaches `ts`, returning the watermark
    /// observed (the read-your-writes wait).
    pub fn wait_watermark(&self, ts: Timestamp, timeout: Duration) -> DbResult<Timestamp> {
        let mut state = self.state.lock();
        time::wait(&self.advanced, &mut state, timeout, |s| {
            (s.certified && s.watermark >= ts).then_some(s.watermark)
        })
        .ok_or(DbError::Timeout("replica watermark"))
    }
}

/// Registry of replica nodes, owned by [`Cluster`].
#[derive(Default)]
pub(crate) struct ReplicaRegistry {
    handles: parking_lot::RwLock<std::collections::HashMap<NodeId, Arc<ReplicaHandle>>>,
}

impl ReplicaRegistry {
    pub(crate) fn register(&self, node: NodeId) -> Arc<ReplicaHandle> {
        let handle = Arc::new(ReplicaHandle::new(node));
        self.handles.write().insert(node, Arc::clone(&handle));
        handle
    }

    pub(crate) fn get(&self, node: NodeId) -> Option<Arc<ReplicaHandle>> {
        self.handles.read().get(&node).cloned()
    }

    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.handles.read().contains_key(&node)
    }

    pub(crate) fn ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.handles.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Drops the registration. The handle itself stays alive for sessions
    /// still holding it, but the node re-joins `primary_ids()` and new
    /// sessions can no longer connect to it as a replica.
    pub(crate) fn remove(&self, node: NodeId) -> Option<Arc<ReplicaHandle>> {
        self.handles.write().remove(&node)
    }
}

/// A read-only client connection to a replica node.
///
/// Reads are served from the replica's local tables at its applied
/// watermark — no shard-map routing, no cross-node hops. In
/// read-your-writes mode ([`ReplicaSession::connect_ryw`]) every begin
/// first waits for the watermark to cover the paired writer session's
/// last commit, so a client that writes on a primary and reads on the
/// replica never observes the pre-write value.
pub struct ReplicaSession {
    cluster: Arc<Cluster>,
    node: Arc<Node>,
    handle: Arc<ReplicaHandle>,
    /// Writer session's last commit timestamp cell (read-your-writes).
    follow: Option<Arc<AtomicU64>>,
    /// Highest snapshot this session has read at, to assert the per-session
    /// monotone-staleness guarantee.
    last_snap: AtomicU64,
}

impl std::fmt::Debug for ReplicaSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSession")
            .field("node", &self.node.id())
            .field("ryw", &self.follow.is_some())
            .finish()
    }
}

impl ReplicaSession {
    /// Connects to `node`, which must be registered as a replica.
    pub fn connect(cluster: &Arc<Cluster>, node: NodeId) -> DbResult<ReplicaSession> {
        let handle = cluster
            .replica(node)
            .ok_or_else(|| DbError::Internal(format!("{node:?} is not a replica")))?;
        Ok(ReplicaSession {
            cluster: Arc::clone(cluster),
            node: Arc::clone(cluster.node(node)),
            handle,
            follow: None,
            last_snap: AtomicU64::new(0),
        })
    }

    /// Connects in read-your-writes mode, paired with `writer`: every
    /// begin waits until the replica has applied `writer`'s last commit.
    pub fn connect_ryw(
        cluster: &Arc<Cluster>,
        node: NodeId,
        writer: &Session,
    ) -> DbResult<ReplicaSession> {
        let mut session = Self::connect(cluster, node)?;
        session.follow = Some(Arc::clone(writer.last_commit_cell()));
        Ok(session)
    }

    /// The replica's watermark handle.
    pub fn handle(&self) -> &Arc<ReplicaHandle> {
        &self.handle
    }

    /// Begins a read-only transaction at the replica's current watermark
    /// (waiting for certification, and — in read-your-writes mode — for
    /// the paired writer's last commit to be applied).
    pub fn begin(&self) -> DbResult<ReplicaTxn<'_>> {
        let timeout = self.cluster.config.lock_wait_timeout;
        let snap = match &self.follow {
            Some(cell) => {
                let ts = Timestamp(cell.load(Ordering::SeqCst));
                self.handle.wait_watermark(ts, timeout)?
            }
            None => {
                self.handle.wait_certified(timeout)?;
                self.handle.watermark()
            }
        };
        // Per-session monotone staleness: the watermark never regresses, so
        // neither does the snapshot a session reads at.
        let prev = self.last_snap.fetch_max(snap.0, Ordering::SeqCst);
        debug_assert!(prev <= snap.0, "replica session snapshot regressed");
        let pin = self.cluster.pin_snapshot(snap);
        Ok(ReplicaTxn {
            session: self,
            snap,
            _pin: pin,
        })
    }

    /// Begins at a watermark of at least `ts` (an explicit causal token).
    pub fn begin_after(&self, ts: Timestamp) -> DbResult<ReplicaTxn<'_>> {
        let timeout = self.cluster.config.lock_wait_timeout;
        let snap = self.handle.wait_watermark(ts, timeout)?;
        self.last_snap.fetch_max(snap.0, Ordering::SeqCst);
        let pin = self.cluster.pin_snapshot(snap);
        Ok(ReplicaTxn {
            session: self,
            snap,
            _pin: pin,
        })
    }
}

/// An open read-only transaction on a replica.
pub struct ReplicaTxn<'s> {
    session: &'s ReplicaSession,
    snap: Timestamp,
    _pin: SnapshotGuard,
}

impl std::fmt::Debug for ReplicaTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaTxn")
            .field("snap", &self.snap)
            .finish()
    }
}

impl ReplicaTxn<'_> {
    /// The snapshot (watermark) this transaction reads at.
    pub fn snap_ts(&self) -> Timestamp {
        self.snap
    }

    /// Reads `key` of `layout`'s table (sharded by the key itself).
    pub fn read(&self, layout: &TableLayout, key: Key) -> DbResult<Option<Value>> {
        self.read_at(layout, key, key)
    }

    /// Reads `key`, sharded by an explicit sharding key.
    pub fn read_at(
        &self,
        layout: &TableLayout,
        sharding_key: Key,
        key: Key,
    ) -> DbResult<Option<Value>> {
        let shard = layout.shard_for(sharding_key);
        let storage = &self.session.node.storage;
        // Backfill creates every primary shard's table on the replica; a
        // missing table here means the key's shard held no data at the cut
        // and nothing has been shipped for it since.
        let Some(table) = storage.table(shard) else {
            return Ok(None);
        };
        self.session.node.work.add(1);
        table.read(
            key,
            self.snap,
            TxnId::INVALID,
            &storage.clog,
            storage.config.lock_wait_timeout,
        )
    }

    /// Scans every shard of `layout` visible at the watermark.
    pub fn scan_table(&self, layout: &TableLayout) -> DbResult<Vec<(Key, Value)>> {
        let storage = &self.session.node.storage;
        let mut out = Vec::new();
        for shard in layout.shard_ids() {
            let Some(table) = storage.table(shard) else {
                continue;
            };
            let rows = table.scan_visible_range(
                ..,
                self.snap,
                &storage.clog,
                storage.config.lock_wait_timeout,
            )?;
            self.session.node.work.add(rows.len() as u64);
            out.extend(rows);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;

    #[test]
    fn handle_watermark_is_monotone_and_wakes_waiters() {
        let c = ClusterBuilder::new(1).build();
        let h = c.register_replica(NodeId(0));
        h.advance_watermark(&c, Timestamp(10));
        h.mark_certified();
        h.advance_watermark(&c, Timestamp(5)); // regression ignored
        assert_eq!(h.watermark(), Timestamp(10));
        let h2 = Arc::clone(&h);
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || {
            h2.wait_watermark(Timestamp(20), Duration::from_secs(5))
                .unwrap();
            let _ = c2; // keep the cluster alive for the pins
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished());
        h.advance_watermark(&c, Timestamp(25));
        waiter.join().unwrap();
    }

    #[test]
    fn watermark_pin_feeds_back_into_gc_horizon() {
        let c = ClusterBuilder::new(1).build();
        let h = c.register_replica(NodeId(0));
        h.advance_watermark(&c, Timestamp(3));
        assert_eq!(c.snapshots.oldest(), Some(Timestamp(3)));
        // Re-pinning replaces, never stacks.
        h.advance_watermark(&c, Timestamp(8));
        assert_eq!(c.snapshots.oldest(), Some(Timestamp(8)));
        h.reset();
        assert!(c.snapshots.oldest().is_none());
    }

    #[test]
    fn wait_certified_times_out_until_marked() {
        let c = ClusterBuilder::new(1).build();
        let h = c.register_replica(NodeId(0));
        assert_eq!(
            h.wait_certified(Duration::from_millis(10)),
            Err(DbError::Timeout("replica certification"))
        );
        h.advance_watermark(&c, Timestamp(1));
        h.mark_certified();
        assert!(h.wait_certified(Duration::from_millis(10)).is_ok());
        h.reset();
        assert!(!h.is_certified());
    }

    #[test]
    fn session_requires_a_registered_replica() {
        let c = ClusterBuilder::new(2).build();
        assert!(ReplicaSession::connect(&c, NodeId(1)).is_err());
        c.register_replica(NodeId(1));
        assert!(ReplicaSession::connect(&c, NodeId(1)).is_ok());
        assert!(c.is_replica(NodeId(1)));
        assert!(!c.is_replica(NodeId(0)));
        assert_eq!(c.replica_ids(), vec![NodeId(1)]);
        assert_eq!(c.primary_ids(), vec![NodeId(0)]);
    }
}
