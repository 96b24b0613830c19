//! Client sessions and routed transactions.
//!
//! A [`Session`] plays the role of a client connection to a coordinator
//! node: it begins transactions (acquiring a snapshot from the oracle),
//! routes each statement to the owner of the addressed shard using the
//! coordinator's shard map — private ordered cache first, shard map table
//! under cache-read-through or for transactions older than a cached entry
//! — and drives commit/abort.
//!
//! A statement writes shared memory only for its row: the CLOG, the WAL,
//! the oracle and the row's index stripe. Its route comes from the
//! session's filled cache after two atomic loads, its node is borrowed from
//! the cluster, its table is the one the transaction resolved for the shard
//! (checked against the node's placement generation), and its doom check is
//! a load. Load and work are tallied in the transaction's own books and
//! charged once, in `SessionTxn::finish`, through the session's handles on
//! the shards' load cells.
//!
//! Under [`CcMode::ShardLock`] every statement additionally takes an
//! H-store-style shard lock held until transaction end (the Squall
//! regime).
//!
//! Every statement runs on a primary. A read-only transaction that a
//! replica may serve begins through [`crate::ReadRouter`] instead.

use std::sync::Arc;

use parking_lot::Mutex;
use remus_common::{DbResult, NodeId, ShardId, Timestamp, TxnId};
use remus_shard::{CacheLookup, ShardMapCache, TableLayout};
use remus_storage::{Key, Value};
use remus_txn::{abort_txn, commit_txn, LockMode, ShardTable, Txn};
use remus_wal::WriteKind;

use crate::cluster::{CcMode, Cluster};
use crate::load::LoadCells;
use crate::node::Node;

/// A client connection bound to a coordinator node.
pub struct Session {
    cluster: Arc<Cluster>,
    coordinator: NodeId,
    cache: Mutex<SessionCache>,
    /// Highest commit timestamp this session has produced — the causal
    /// token a paired read-your-writes replica session waits on.
    last_commit: Arc<std::sync::atomic::AtomicU64>,
}

/// What a session keeps across its transactions.
#[derive(Default)]
struct SessionCache {
    /// The coordinator's private ordered shard map cache (§3.5.1).
    routes: ShardMapCache,
    /// The load cell of every shard the session has touched.
    cells: LoadCells,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("coordinator", &self.coordinator)
            .finish()
    }
}

impl Session {
    /// Connects a session to the given coordinator node.
    pub fn connect(cluster: &Arc<Cluster>, coordinator: NodeId) -> Session {
        Session {
            cluster: Arc::clone(cluster),
            coordinator: cluster.node(coordinator).id(),
            cache: Mutex::default(),
            last_commit: Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// The highest commit timestamp this session has produced
    /// ([`Timestamp::INVALID`] before the first commit).
    pub fn last_commit_ts(&self) -> Timestamp {
        Timestamp(self.last_commit.load(std::sync::atomic::Ordering::SeqCst))
    }

    /// The shared cell behind [`Session::last_commit_ts`] (read-your-writes
    /// replica sessions hold a clone).
    pub(crate) fn last_commit_cell(&self) -> &Arc<std::sync::atomic::AtomicU64> {
        &self.last_commit
    }

    /// The cluster this session talks to.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The coordinator node.
    pub fn coordinator(&self) -> &Arc<Node> {
        self.cluster.node(self.coordinator)
    }

    /// Begins a transaction (blocks while routing is suspended).
    pub fn begin(&self) -> SessionTxn<'_> {
        let start_ts = self.cluster.begin_txn(self.coordinator);
        let txn = Txn::begin(&self.coordinator().storage, start_ts);
        SessionTxn {
            session: self,
            txn,
            begin_ts: start_ts,
            touched: Vec::new(),
            finished: false,
        }
    }

    /// Begins a transaction whose snapshot is guaranteed to include every
    /// write committed at or before `ts` — a causal token. Under DTS, a
    /// session on another node may otherwise receive a snapshot that is
    /// stale "within clock skew" (paper §2.2: stale snapshot reads across
    /// sessions are allowed); threading the writer's commit timestamp
    /// through restores cross-session read-your-writes, exactly like
    /// causal tokens in production systems.
    pub fn begin_after(&self, ts: Timestamp) -> SessionTxn<'_> {
        self.cluster.oracle.observe(self.coordinator, ts);
        self.begin()
    }

    /// Begins, runs `f`, commits; aborts on error. Returns `f`'s value and
    /// the commit timestamp.
    pub fn run<T>(
        &self,
        f: impl FnOnce(&mut SessionTxn<'_>) -> DbResult<T>,
    ) -> DbResult<(T, Timestamp)> {
        let mut txn = self.begin();
        match f(&mut txn) {
            Ok(v) => {
                let ts = txn.commit()?;
                Ok((v, ts))
            }
            Err(e) => {
                txn.abort();
                Err(e)
            }
        }
    }

    /// Routes `shard` for a transaction with snapshot `start_ts`,
    /// implementing the cache / read-through / epoch protocol of §3.5.1.
    fn route(&self, shard: ShardId, start_ts: Timestamp) -> DbResult<&Arc<Node>> {
        let coord = self.coordinator();
        if coord.read_through.is_marked(shard) {
            // Vulnerable window around T_m: read the shard map table with
            // the transaction's snapshot and refresh the cache entry.
            return self.read_through(coord, shard, start_ts);
        }
        let epoch = coord.read_through.epoch();
        let mut cache = self.cache.lock();
        if cache.routes.stale_for(epoch) {
            let rows = self.cluster.map_rows(coord)?;
            cache.routes.refresh(rows, epoch);
        }
        match cache.routes.lookup(shard, start_ts) {
            CacheLookup::Hit(node) => Ok(self.cluster.node(node)),
            CacheLookup::ReadTable => {
                // The transaction predates the cached version — its snapshot
                // decides (e.g. T2 in Figure 5 still routes to the source) —
                // or the shard's table was created after the refresh.
                drop(cache);
                self.read_through(coord, shard, start_ts)
            }
        }
    }

    /// Routes `shard` by the shard map table at `start_ts`, and upserts the
    /// row it read: a no-op under a newer cached entry, the entry of a shard
    /// the cache did not have.
    fn read_through(
        &self,
        coord: &Node,
        shard: ShardId,
        start_ts: Timestamp,
    ) -> DbResult<&Arc<Node>> {
        let row = self.cluster.owner_at(coord, shard, start_ts)?;
        if row.cts.is_valid() {
            self.cache.lock().routes.upsert(shard, row.node, row.cts);
        }
        Ok(self.cluster.node(row.node))
    }
}

/// One shard's entry in [`SessionTxn`]'s books.
struct ShardUse {
    shard: ShardId,
    /// The sticky routing decision: once a shard is routed for this
    /// transaction, every later statement goes to the same node.
    node: NodeId,
    /// The shard's table on `node`, resolved by the first statement and
    /// dropped with the transaction.
    table: ShardTable,
    /// Local tallies, charged to the shard's load cell and to the node's
    /// work counter once, at transaction end.
    reads: u64,
    writes: u64,
}

/// An open transaction on a session.
pub struct SessionTxn<'s> {
    session: &'s Session,
    /// The underlying transaction handle.
    pub txn: Txn,
    /// The snapshot the transaction began with, registered on the
    /// coordinator's stripe until [`SessionTxn::finish`]. Routing always
    /// uses this one (not the per-statement refresh of shard-lock mode): a
    /// transaction executes against one ownership epoch, as an H-store
    /// transaction stays pinned to its partition executor.
    begin_ts: Timestamp,
    /// What the transaction did on each shard so far, sorted by shard id
    /// (so the written set — and with it the affinity pairs — is recorded
    /// deterministically): one allocation, made by the first statement.
    touched: Vec<ShardUse>,
    finished: bool,
}

impl std::fmt::Debug for SessionTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.txn.fmt(f)
    }
}

impl<'s> SessionTxn<'s> {
    /// The transaction id.
    pub fn xid(&self) -> TxnId {
        self.txn.xid
    }

    /// The snapshot timestamp.
    pub fn start_ts(&self) -> Timestamp {
        self.txn.start_ts
    }

    /// The snapshot the transaction began with. Routing uses this one even
    /// when shard-lock mode refreshes `start_ts` per statement.
    pub fn begin_ts(&self) -> Timestamp {
        self.begin_ts
    }

    /// The sticky routing decisions made so far, as `(shard, node)` pairs in
    /// shard-id order. The chaos harness records these to check that
    /// routing across a migration is monotone in snapshot order.
    pub fn routes(&self) -> Vec<(ShardId, NodeId)> {
        self.touched.iter().map(|u| (u.shard, u.node)).collect()
    }

    /// Routes `shard` for this transaction (sticky: the first decision,
    /// made with the begin-time snapshot, is reused for later statements)
    /// and returns the node and where `shard`'s entry is in `touched`.
    fn route_for(&mut self, shard: ShardId) -> DbResult<(&'s Arc<Node>, usize)> {
        let session = self.session;
        match self.touched.binary_search_by_key(&shard, |u| u.shard) {
            Ok(at) => Ok((session.cluster.node(self.touched[at].node), at)),
            Err(at) => {
                let node = session.route(shard, self.begin_ts)?;
                let fresh = ShardUse {
                    shard,
                    node: node.id(),
                    table: ShardTable::default(),
                    reads: 0,
                    writes: 0,
                };
                self.touched.insert(at, fresh);
                Ok((node, at))
            }
        }
    }

    fn lock_shard(&mut self, shard: ShardId) -> DbResult<()> {
        if self.session.cluster.cc_mode == CcMode::ShardLock {
            // H-store partitions execute single-threaded: every statement
            // takes the partition (shard) lock exclusively, reads included.
            // This is the coarse concurrency Squall inherits (§4.2).
            self.session.cluster.shard_locks.acquire(
                self.txn.xid,
                shard,
                LockMode::Exclusive,
                self.session.cluster.config.lock_wait_timeout,
            )?;
            // Under shard locking the locks serialize conflicts; each
            // statement runs on a fresh snapshot (taken *after* the lock is
            // granted) so a writer that waited behind a holder does not
            // spuriously fail the first-committer-wins check against the
            // commit it waited for — H-store has no MVCC snapshots at all.
            self.txn.start_ts = self
                .session
                .cluster
                .oracle
                .start_ts(self.session.coordinator);
        }
        Ok(())
    }

    /// Reads `key` of `layout`'s table (sharded by the key itself).
    pub fn read(&mut self, layout: &TableLayout, key: Key) -> DbResult<Option<Value>> {
        self.read_at(layout, key, key)
    }

    /// Reads `key`, routed by an explicit sharding key (TPC-C shards every
    /// table by warehouse id while rows carry composite keys).
    pub fn read_at(
        &mut self,
        layout: &TableLayout,
        sharding_key: Key,
        key: Key,
    ) -> DbResult<Option<Value>> {
        let shard = layout.shard_for(sharding_key);
        self.lock_shard(shard)?;
        let (node, at) = self.route_for(shard)?;
        if let Some(hook) = self.session.cluster.access_hook() {
            hook.before_access(node.id(), shard, key, false, self.txn.xid)?;
        }
        let used = &mut self.touched[at];
        used.reads += 1;
        self.txn.read_in(&node.storage, shard, &mut used.table, key)
    }

    /// Inserts `key -> value`.
    pub fn insert(&mut self, layout: &TableLayout, key: Key, value: Value) -> DbResult<()> {
        self.insert_at(layout, key, key, value)
    }

    /// Inserts with an explicit sharding key.
    pub fn insert_at(
        &mut self,
        layout: &TableLayout,
        sharding_key: Key,
        key: Key,
        value: Value,
    ) -> DbResult<()> {
        self.write_op(layout, sharding_key, key, WriteKind::Insert, value)
    }

    /// Updates `key -> value`.
    pub fn update(&mut self, layout: &TableLayout, key: Key, value: Value) -> DbResult<()> {
        self.update_at(layout, key, key, value)
    }

    /// Updates with an explicit sharding key.
    pub fn update_at(
        &mut self,
        layout: &TableLayout,
        sharding_key: Key,
        key: Key,
        value: Value,
    ) -> DbResult<()> {
        self.write_op(layout, sharding_key, key, WriteKind::Update, value)
    }

    /// Deletes `key`.
    pub fn delete(&mut self, layout: &TableLayout, key: Key) -> DbResult<()> {
        self.write_op(layout, key, key, WriteKind::Delete, Value::new())
    }

    /// Explicitly locks `key` (`SELECT ... FOR UPDATE`).
    pub fn lock_row(&mut self, layout: &TableLayout, key: Key) -> DbResult<()> {
        self.write_op(layout, key, key, WriteKind::Lock, Value::new())
    }

    fn write_op(
        &mut self,
        layout: &TableLayout,
        sharding_key: Key,
        key: Key,
        kind: WriteKind,
        value: Value,
    ) -> DbResult<()> {
        let shard = layout.shard_for(sharding_key);
        self.lock_shard(shard)?;
        let (node, at) = self.route_for(shard)?;
        if let Some(hook) = self.session.cluster.access_hook() {
            hook.before_access(node.id(), shard, key, true, self.txn.xid)?;
        }
        let used = &mut self.touched[at];
        used.writes += 1;
        let table = &mut used.table;
        self.txn
            .write_in(&node.storage, shard, table, key, kind, value)
    }

    /// Scans the whole table at this transaction's snapshot, returning every
    /// visible `(key, value)` pair (the analytical query of hybrid
    /// workload B reads every shard across nodes).
    pub fn scan_table(&mut self, layout: &TableLayout) -> DbResult<Vec<(Key, Value)>> {
        let mut out = Vec::new();
        for shard in layout.shard_ids() {
            self.lock_shard(shard)?;
            let (node, at) = self.route_for(shard)?;
            if let Some(hook) = self.session.cluster.access_hook() {
                hook.before_scan(node.id(), shard, self.txn.xid)?;
            }
            let used = &mut self.touched[at];
            let table = used.table.get(&node.storage, shard)?;
            // SSI: a scan predicates over the whole shard, so it takes a
            // shard-granularity SIREAD lock — any later write anywhere in
            // the shard raises an rw-edge against this transaction.
            if let (Some(ssi), Some(handle)) = (&node.storage.ssi, self.txn.ssi_handle()) {
                ssi.on_scan(handle, shard)?;
            }
            // With the transaction's own xid: a scan sees its own writes.
            let before = out.len();
            table.scan(
                ..,
                self.txn.start_ts,
                self.txn.xid,
                &node.storage.clog,
                node.storage.config.lock_wait_timeout,
                |key, value| out.push((key, value)),
            )?;
            used.reads += (out.len() - before) as u64;
        }
        Ok(out)
    }

    fn release_locks(&mut self) {
        if self.session.cluster.cc_mode == CcMode::ShardLock {
            self.session.cluster.shard_locks.release_all(self.txn.xid);
        }
    }

    /// Commits, returning the commit timestamp.
    pub fn commit(mut self) -> DbResult<Timestamp> {
        let result = commit_txn(
            &mut self.txn,
            &*self.session.cluster.oracle,
            &*self.session.cluster.net,
        );
        if let Ok(cts) = &result {
            self.session
                .last_commit
                .fetch_max(cts.0, std::sync::atomic::Ordering::SeqCst);
        }
        self.finish(result.is_ok());
        result
    }

    /// Aborts.
    pub fn abort(mut self) {
        abort_txn(&mut self.txn);
        self.finish(false);
    }

    /// The one exit of commit, abort and drop: charges each touched shard's
    /// load cell and node once — statements, and a commit (`cross` when the
    /// transaction wrote several shards) — records a multi-shard write set's
    /// affinity, drops the tables and releases the snapshot.
    fn finish(&mut self, committed: bool) {
        if self.finished {
            return;
        }
        self.release_locks();
        let cluster = &self.session.cluster;
        let written = self.touched.iter().filter(|u| u.writes > 0).count();
        let cross = written > 1;
        {
            let mut cache = self.session.cache.lock();
            for used in &self.touched {
                cluster.node(used.node).work.add(used.reads + used.writes);
                let cell = cache.cells.cell(&cluster.load, used.shard);
                cell.charge(used.reads, used.writes);
                if committed && used.writes > 0 {
                    cell.charge_commit(cross);
                }
            }
        }
        if committed && cross {
            let written = self.touched.iter().filter(|u| u.writes > 0);
            let written: Vec<ShardId> = written.map(|u| u.shard).collect();
            cluster.load.record_affinity(&written);
        }
        // The table handles go before the snapshot: a cleanup that waits
        // for this transaction to drain then holds the last one.
        self.touched.clear();
        cluster.end_txn(self.session.coordinator, self.begin_ts);
        self.finished = true;
    }
}

impl Drop for SessionTxn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            abort_txn(&mut self.txn);
            self.finish(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;
    use remus_common::TableId;

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    fn small_cluster() -> (Arc<Cluster>, TableLayout) {
        let c = ClusterBuilder::new(3).build();
        let layout = c.create_table(TableId(1), 0, 6, |i| NodeId(i % 3));
        (c, layout)
    }

    #[test]
    fn insert_read_roundtrip_across_nodes() {
        let (c, layout) = small_cluster();
        let session = Session::connect(&c, NodeId(0));
        let ((), _) = session
            .run(|t| {
                for key in 0..50 {
                    t.insert(&layout, key, val("v"))?;
                }
                Ok(())
            })
            .unwrap();
        let (found, _) = session
            .run(|t| {
                let mut found = 0;
                for key in 0..50 {
                    if t.read(&layout, key)?.is_some() {
                        found += 1;
                    }
                }
                Ok(found)
            })
            .unwrap();
        assert_eq!(found, 50);
    }

    #[test]
    fn sessions_on_other_nodes_see_committed_data() {
        let (c, layout) = small_cluster();
        let s0 = Session::connect(&c, NodeId(0));
        s0.run(|t| t.insert(&layout, 7, val("x"))).unwrap();
        let s2 = Session::connect(&c, NodeId(2));
        let (v, _) = s2.run(|t| t.read(&layout, 7)).unwrap();
        assert_eq!(v, Some(val("x")));
    }

    #[test]
    fn run_aborts_on_error_and_cleans_up() {
        let (c, layout) = small_cluster();
        let session = Session::connect(&c, NodeId(0));
        session.run(|t| t.insert(&layout, 1, val("a"))).unwrap();
        // Duplicate insert fails and must abort the transaction.
        let err = session.run(|t| t.insert(&layout, 1, val("b"))).unwrap_err();
        assert_eq!(err, remus_common::DbError::DuplicateKey);
        assert_eq!(c.active_txn_count(), 0);
        assert!(c.snapshots.oldest().is_none());
        // The original value is intact.
        let (v, _) = session.run(|t| t.read(&layout, 1)).unwrap();
        assert_eq!(v, Some(val("a")));
    }

    #[test]
    fn dropping_open_txn_aborts_it() {
        let (c, layout) = small_cluster();
        let session = Session::connect(&c, NodeId(0));
        {
            let mut t = session.begin();
            t.insert(&layout, 9, val("temp")).unwrap();
            // dropped without commit
        }
        assert_eq!(c.active_txn_count(), 0);
        let (v, _) = session.run(|t| t.read(&layout, 9)).unwrap();
        assert_eq!(v, None);
    }

    #[test]
    fn scan_table_sees_all_shards() {
        let (c, layout) = small_cluster();
        let session = Session::connect(&c, NodeId(1));
        session
            .run(|t| {
                for key in 0..40 {
                    t.insert(&layout, key, val("s"))?;
                }
                Ok(())
            })
            .unwrap();
        let (rows, _) = session.run(|t| t.scan_table(&layout)).unwrap();
        assert_eq!(rows.len(), 40);
    }

    #[test]
    fn distributed_write_transaction_is_atomic() {
        let (c, layout) = small_cluster();
        let session = Session::connect(&c, NodeId(0));
        // Pick keys that land on different nodes.
        let keys: Vec<Key> = (0..100)
            .filter(|k| layout.shard_for(*k).0 % 3 != layout.shard_for(0).0 % 3)
            .take(2)
            .chain([0])
            .collect();
        session
            .run(|t| {
                for &k in &keys {
                    t.insert(&layout, k, val("atomic"))?;
                }
                Ok(())
            })
            .unwrap();
        let (n, _) = session
            .run(|t| {
                let mut n = 0;
                for &k in &keys {
                    if t.read(&layout, k)?.is_some() {
                        n += 1;
                    }
                }
                Ok(n)
            })
            .unwrap();
        assert_eq!(n, keys.len());
    }

    #[test]
    fn shard_lock_mode_serializes_writers() {
        let c = ClusterBuilder::new(1).cc_mode(CcMode::ShardLock).build();
        let layout = c.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&c, NodeId(0));
        session.run(|t| t.insert(&layout, 1, val("a"))).unwrap();
        let mut holder = session.begin();
        holder.update(&layout, 1, val("b")).unwrap();
        // A second writer cannot take the shard lock while the first holds it.
        let c2 = Arc::clone(&c);
        let blocked = std::thread::spawn(move || {
            let s2 = Session::connect(&c2, NodeId(0));
            let started = std::time::Instant::now();
            s2.run(|t| t.update(&layout, 1, val("c"))).unwrap();
            started.elapsed()
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        holder.commit().unwrap();
        let waited = blocked.join().unwrap();
        assert!(
            waited >= std::time::Duration::from_millis(40),
            "writer did not block: {waited:?}"
        );
    }

    #[test]
    fn load_tracker_sees_statements_commits_and_affinity() {
        let (c, layout) = small_cluster();
        let session = Session::connect(&c, NodeId(0));
        // Two keys on different shards: a cross-shard write transaction.
        let k1 = 0u64;
        let k2 = (1..100)
            .find(|&k| layout.shard_for(k) != layout.shard_for(k1))
            .unwrap();
        session
            .run(|t| {
                t.insert(&layout, k1, val("a"))?;
                t.insert(&layout, k2, val("b"))?;
                Ok(())
            })
            .unwrap();
        session.run(|t| t.read(&layout, k1)).unwrap();
        let snap = c.roll_load_window(1.0);
        let (s1, s2) = (layout.shard_for(k1), layout.shard_for(k2));
        assert_eq!(snap.load_of(s1).writes, 1.0);
        assert_eq!(snap.load_of(s1).reads, 1.0);
        // Commits count committed *writing* transactions per shard; the
        // read-only transaction contributes reads but no commit.
        assert_eq!(snap.load_of(s1).commits, 1.0);
        assert_eq!(snap.load_of(s1).cross, 1.0);
        assert_eq!(snap.load_of(s2).cross, 1.0);
        let pair = if s1 < s2 { (s1, s2, 1) } else { (s2, s1, 1) };
        assert_eq!(snap.affinity, vec![pair]);
        // Aborted statements still count as load (they consumed resources),
        // but no commit is recorded.
        let _ = session.run(|t| {
            t.read(&layout, k1)?;
            Err::<(), _>(remus_common::DbError::Internal("client abort".into()))
        });
        let snap = c.roll_load_window(1.0);
        assert_eq!(snap.load_of(s1).reads, 1.0);
        assert_eq!(snap.load_of(s1).commits, 0.0);
    }

    fn cached_shards(session: &Session) -> usize {
        session.cache.lock().routes.len()
    }

    #[test]
    fn a_session_fills_its_route_cache_before_any_migration() {
        let (c, layout) = small_cluster();
        let other = c.create_table(TableId(2), 100, 4, |i| NodeId(i % 3));
        let session = Session::connect(&c, NodeId(0));
        assert_eq!(c.node(NodeId(0)).read_through.epoch(), 0, "never migrated");
        session.run(|t| t.read(&layout, 1)).unwrap();
        // Every registered shard, not only the one the transaction touched.
        assert_eq!(cached_shards(&session), 6 + 4);
        let lookup = session
            .cache
            .lock()
            .routes
            .lookup(ShardId(101), Timestamp::MAX);
        assert_eq!(lookup, CacheLookup::Hit(NodeId(1)));
        // Routing from the filled cache reads no row of the map table.
        let (v, _) = session.run(|t| t.read(&other, 7)).unwrap();
        assert_eq!(v, None);
        assert_eq!(cached_shards(&session), 10);
    }

    #[test]
    fn a_table_created_after_the_refresh_is_read_through_and_cached() {
        let (c, layout) = small_cluster();
        let session = Session::connect(&c, NodeId(0));
        session.run(|t| t.insert(&layout, 1, val("a"))).unwrap();
        assert_eq!(cached_shards(&session), 6);
        // Shards 50..52, placed off the coordinator, after the refresh.
        let late = c.create_table(TableId(2), 50, 2, |_| NodeId(2));
        session.run(|t| t.insert(&late, 9, val("late"))).unwrap();
        assert_eq!(cached_shards(&session), 7, "the routed shard is upserted");
        let shard = late.shard_for(9);
        let table = c.node(NodeId(2)).storage.table(shard).unwrap();
        let on_owner = table.read(
            9,
            Timestamp::MAX,
            TxnId::INVALID,
            &c.node(NodeId(2)).storage.clog,
            c.config.lock_wait_timeout,
        );
        assert_eq!(on_owner.unwrap(), Some(val("late")));
        let other = Session::connect(&c, NodeId(1));
        let (v, _) = other.run(|t| t.read(&late, 9)).unwrap();
        assert_eq!(v, Some(val("late")));
        assert_eq!(cached_shards(&other), 8, "a later refresh has both tables");
    }

    #[test]
    fn ww_conflict_surfaces_and_both_sessions_recover() {
        let (c, layout) = small_cluster();
        let s1 = Session::connect(&c, NodeId(0));
        s1.run(|t| t.insert(&layout, 5, val("base"))).unwrap();
        let mut t1 = s1.begin();
        t1.update(&layout, 5, val("one")).unwrap();
        let c2 = Arc::clone(&c);
        let loser = std::thread::spawn(move || {
            let s2 = Session::connect(&c2, NodeId(1));
            let mut t2 = s2.begin();
            let r = t2.update(&layout, 5, val("two"));
            (r, t2.xid())
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        t1.commit().unwrap();
        let (result, _) = loser.join().unwrap();
        assert!(matches!(
            result,
            Err(remus_common::DbError::WwConflict { .. })
        ));
        let (v, _) = s1.run(|t| t.read(&layout, 5)).unwrap();
        assert_eq!(v, Some(val("one")));
    }
}
