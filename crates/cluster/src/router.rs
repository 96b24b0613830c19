//! Read routing across primaries and replicas.
//!
//! A [`ReadRouter`] is the client-side half of the replicate-or-migrate
//! autopilot and the one way a read reaches a replica on a primary
//! client's behalf: it sends whole read-only transactions to a certified
//! replica, and falls back to an ordinary primary [`Session`] otherwise.
//! Replica-side transactions snapshot at the apply watermark —
//! watermark-safe by construction — and skip the shared timestamp oracle
//! and primary-side storage entirely, which is where the read-scaling win
//! comes from. Writes never route here: a writing client keeps its own
//! primary [`Session`].
//!
//! Two rules go with the offload:
//!
//! * **Safety.** Under [`IsolationLevel::Serializable`] or
//!   [`CcMode::ShardLock`] every transaction stays on the primary: a
//!   replica read takes no SIREAD lock and no shard lock, so a concurrent
//!   writer would miss the rw-antidependency or the partition lock.
//! * **Load accounting.** A transaction a replica served charges its reads
//!   and scanned rows to each owning shard's offloaded demand
//!   ([`ShardLoadCell::charge_offloaded`]) and to the
//!   `replica.offloaded_reads` counter, once per shard when it ends — so
//!   the planner still sees the demand that keeps a busy replica alive.
//!
//! [`ShardLoadCell::charge_offloaded`]: crate::ShardLoadCell::charge_offloaded

use std::sync::Arc;

use remus_common::{DbResult, IsolationLevel, NodeId, ShardId, Timestamp};
use remus_shard::TableLayout;
use remus_storage::{Key, Value};

use crate::cluster::{CcMode, Cluster};
use crate::replica::{ReplicaSession, ReplicaTxn};
use crate::session::{Session, SessionTxn};

/// Routes read-only transactions to a certified replica when the rules
/// allow it; to the primary session otherwise.
pub struct ReadRouter {
    cluster: Arc<Cluster>,
    primary: Session,
    /// Spreads routers across a replica pool (stable per router).
    salt: usize,
    replica: Option<(NodeId, ReplicaSession)>,
}

impl std::fmt::Debug for ReadRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadRouter")
            .field("replica", &self.replica.as_ref().map(|(id, _)| *id))
            .finish()
    }
}

/// One read-only transaction, on whichever endpoint the router chose.
///
/// The variants differ in size (a primary transaction carries write
/// buffers a replica one never needs), but the enum lives on the stack
/// for the duration of one closed-loop transaction — boxing the primary
/// side would trade that for an allocation per read transaction on the
/// fallback path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ReadTxn<'r> {
    /// Snapshot read on the primary (pays the oracle and owner routing).
    Primary(SessionTxn<'r>),
    /// Snapshot read at a replica's apply watermark, with the reads it
    /// served.
    Replica(ReplicaTxn<'r>, Offloaded<'r>),
}

/// The reads a replica served for one [`ReadTxn`], per owning shard:
/// charged to the shards' offloaded demand and to
/// `replica.offloaded_reads` when the transaction ends.
#[derive(Debug)]
pub struct Offloaded<'r> {
    cluster: &'r Cluster,
    reads: Vec<(ShardId, u64)>,
}

impl Offloaded<'_> {
    fn add(&mut self, shard: ShardId, reads: u64) {
        match self.reads.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, n)) => *n += reads,
            None => self.reads.push((shard, reads)),
        }
    }
}

impl Drop for Offloaded<'_> {
    fn drop(&mut self) {
        let mut total = 0;
        for &(shard, reads) in &self.reads {
            self.cluster.load.cell(shard).charge_offloaded(reads);
            total += reads;
        }
        if total > 0 {
            let counter = self.cluster.metrics.counter("replica.offloaded_reads");
            counter.add(total);
        }
    }
}

impl ReadTxn<'_> {
    /// Reads `key` of `layout`'s table (sharded by the key itself).
    pub fn read(&mut self, layout: &TableLayout, key: Key) -> DbResult<Option<Value>> {
        self.read_at(layout, key, key)
    }

    /// Reads `key`, routed by an explicit sharding key.
    pub fn read_at(
        &mut self,
        layout: &TableLayout,
        sharding_key: Key,
        key: Key,
    ) -> DbResult<Option<Value>> {
        match self {
            ReadTxn::Primary(txn) => txn.read_at(layout, sharding_key, key),
            ReadTxn::Replica(txn, served) => {
                served.add(layout.shard_for(sharding_key), 1);
                txn.read_at(layout, sharding_key, key)
            }
        }
    }

    /// Scans the whole table at this transaction's snapshot.
    pub fn scan_table(&mut self, layout: &TableLayout) -> DbResult<Vec<(Key, Value)>> {
        match self {
            ReadTxn::Primary(txn) => txn.scan_table(layout),
            ReadTxn::Replica(txn, served) => txn.scan_table(layout, |s, n| served.add(s, n)),
        }
    }

    /// The snapshot this transaction reads at.
    pub fn snap_ts(&self) -> Timestamp {
        match self {
            ReadTxn::Primary(txn) => txn.start_ts(),
            ReadTxn::Replica(txn, _) => txn.snap_ts(),
        }
    }

    /// True when a replica serves this transaction.
    pub fn is_replica(&self) -> bool {
        matches!(self, ReadTxn::Replica(..))
    }

    /// Ends the transaction (read-only commit on the primary; replica
    /// transactions release their snapshot pin and charge their reads).
    pub fn finish(self) -> DbResult<()> {
        match self {
            ReadTxn::Primary(txn) => txn.commit().map(|_| ()),
            ReadTxn::Replica(..) => Ok(()),
        }
    }
}

impl ReadRouter {
    /// A router whose primary fallback is a session on `coordinator`.
    /// `salt` picks this router's replica from a pool (readers pass their
    /// thread index so a pool of routers spreads across a pool of
    /// replicas).
    pub fn new(cluster: &Arc<Cluster>, coordinator: NodeId, salt: usize) -> ReadRouter {
        ReadRouter {
            cluster: Arc::clone(cluster),
            primary: Session::connect(cluster, coordinator),
            salt,
            replica: None,
        }
    }

    /// The replica currently serving this router, if any.
    pub fn replica_node(&self) -> Option<NodeId> {
        self.replica.as_ref().map(|(id, _)| *id)
    }

    /// Re-validates the cached replica endpoint against the registry:
    /// drops it if the replica was decommissioned or lost its
    /// certification, and connects to a certified replica when one became
    /// available — unless the safety rule keeps every read on the primary.
    fn refresh(&mut self) {
        let cluster = &self.cluster;
        if cluster.cc_mode == CcMode::ShardLock
            || cluster.config.isolation == IsolationLevel::Serializable
        {
            return;
        }
        if let Some((id, _)) = &self.replica {
            if !cluster.replica(*id).is_some_and(|h| h.is_certified()) {
                self.replica = None;
            }
        }
        if self.replica.is_none() {
            let certified = cluster.certified_replica_ids();
            if !certified.is_empty() {
                let id = certified[self.salt % certified.len()];
                if let Ok(session) = ReplicaSession::connect(cluster, id) {
                    self.replica = Some((id, session));
                }
            }
        }
    }

    /// Begins a read-only transaction on the best endpoint available right
    /// now. Replica snapshots sit at the apply watermark; a caller needing
    /// recency beyond that reads through a primary session instead.
    pub fn begin(&mut self) -> DbResult<ReadTxn<'_>> {
        self.refresh();
        if let Some((_, session)) = &self.replica {
            let served = Offloaded {
                cluster: &self.cluster,
                reads: Vec::new(),
            };
            return Ok(ReadTxn::Replica(session.begin()?, served));
        }
        Ok(ReadTxn::Primary(self.primary.begin()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;
    use remus_common::TableId;
    use remus_txn::redo_committed;
    use remus_wal::{WriteKind, WriteOp};

    #[test]
    fn router_uses_primary_until_a_replica_is_certified() {
        let cluster = ClusterBuilder::new(3).build();
        let layout = cluster.create_table(TableId(1), 0, 4, |i| NodeId(i % 2));
        let session = Session::connect(&cluster, NodeId(0));
        session
            .run(|t| t.insert(&layout, 1, Value::copy_from_slice(b"v")))
            .unwrap();

        let mut router = ReadRouter::new(&cluster, NodeId(0), 0);
        let txn = router.begin().unwrap();
        assert!(!txn.is_replica());
        txn.finish().unwrap();

        // Registered but uncertified: still the primary.
        let handle = cluster.register_replica(NodeId(2));
        let txn = router.begin().unwrap();
        assert!(!txn.is_replica());
        txn.finish().unwrap();

        // Certified: the router switches over.
        handle.advance_watermark(&cluster, session.last_commit_ts());
        handle.mark_certified();
        let txn = router.begin().unwrap();
        assert!(txn.is_replica());
        txn.finish().unwrap();
        assert_eq!(router.replica_node(), Some(NodeId(2)));

        // Decommissioned: the cached endpoint is dropped on the next begin.
        cluster.unregister_replica(NodeId(2));
        let txn = router.begin().unwrap();
        assert!(!txn.is_replica());
        txn.finish().unwrap();
    }

    /// A cluster built by `build` with keys 0..8 in one table on nodes 0
    /// and 1, and node 2 a certified replica that holds the same rows.
    fn with_certified_replica(build: ClusterBuilder) -> (Arc<Cluster>, TableLayout) {
        let cluster = build.build();
        let layout = cluster.create_table(TableId(1), 0, 4, |i| NodeId(i % 2));
        let session = Session::connect(&cluster, NodeId(0));
        let value = Value::copy_from_slice(b"v");
        let keys = 0..8;
        let insert = |t: &mut SessionTxn<'_>| {
            keys.clone()
                .try_for_each(|k| t.insert(&layout, k, value.clone()))
        };
        let ((), cts) = session.run(insert).unwrap();
        let writes: Vec<WriteOp> = keys
            .map(|key| WriteOp {
                shard: layout.shard_for(key),
                key,
                kind: WriteKind::Insert,
                value: value.clone(),
            })
            .collect();
        let replica = &cluster.node(NodeId(2)).storage;
        redo_committed(replica, replica.alloc_xid(), cts, &writes, |_, _| {}).unwrap();
        let handle = cluster.register_replica(NodeId(2));
        handle.advance_watermark(&cluster, cts);
        handle.mark_certified();
        (cluster, layout)
    }

    #[test]
    fn serializable_and_shard_lock_reads_stay_on_the_primary() {
        let builds = [
            ClusterBuilder::new(3).isolation(IsolationLevel::Serializable),
            ClusterBuilder::new(3).cc_mode(CcMode::ShardLock),
        ];
        for build in builds {
            let (cluster, layout) = with_certified_replica(build);
            let mut router = ReadRouter::new(&cluster, NodeId(0), 0);
            let mut txn = router.begin().unwrap();
            let modes = (cluster.config.isolation, cluster.cc_mode);
            assert!(!txn.is_replica(), "{modes:?}");
            assert!(txn.read(&layout, 1).unwrap().is_some());
            txn.finish().unwrap();
            assert_eq!(router.replica_node(), None);
        }
    }

    #[test]
    fn replica_served_reads_charge_the_owning_shards_offloaded_demand() {
        let (cluster, layout) = with_certified_replica(ClusterBuilder::new(3));
        cluster.roll_load_window(1.0);
        let mut router = ReadRouter::new(&cluster, NodeId(0), 0);
        let mut txn = router.begin().unwrap();
        assert!(txn.is_replica());
        let (k1, k2) = (0, 1);
        assert_ne!(layout.shard_for(k1), layout.shard_for(k2));
        for key in [k1, k1, k1, k2] {
            assert!(txn.read(&layout, key).unwrap().is_some());
        }
        txn.finish().unwrap();
        let snap = cluster.roll_load_window(1.0);
        assert_eq!(snap.load_of(layout.shard_for(k1)).offloaded, 3.0);
        assert_eq!(snap.load_of(layout.shard_for(k2)).offloaded, 1.0);
        // Owner load is untouched: the replica served these reads.
        assert_eq!(snap.load_of(layout.shard_for(k1)).reads, 0.0);
        let counter = cluster.metrics.counter("replica.offloaded_reads");
        assert_eq!(counter.get(), 4);
        // A scan charges each shard the rows it gave, also when the
        // transaction is dropped instead of finished.
        let mut txn = router.begin().unwrap();
        let rows = txn.scan_table(&layout).unwrap().len() as f64;
        assert_eq!(rows, 8.0);
        drop(txn);
        let snap = cluster.roll_load_window(1.0);
        let offloaded: f64 = layout.shard_ids().map(|s| snap.load_of(s).offloaded).sum();
        assert_eq!(offloaded, rows);
        assert_eq!(counter.get(), 4 + rows as u64);
    }
}
