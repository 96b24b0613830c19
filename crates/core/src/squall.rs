//! The Squall *pull* baseline (§2.3.2, evaluated as PolarDB-Squall §4.2).
//!
//! Squall flips ownership first and moves data afterwards: after `T_m`,
//! newly arrived transactions run on the destination and *pull* missing
//! data on demand, chunk by chunk, while background workers pull the rest.
//! Each pull locks the shard (H-store partition locks — the cluster must
//! run in [`CcMode::ShardLock`]) and takes the configured pull latency
//! (modeling ~8 MB over the network plus the destination write), which is
//! what blocks concurrent transactions and produces the throughput
//! collapse of Figures 6c/7c. Source transactions that touch an
//! already-migrated chunk abort and retry on the destination.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use remus_cluster::{AccessHook, CcMode, Cluster, Node};
use remus_common::{time, DbError, DbResult, NodeId, ShardId, Timestamp, TxnId};
use remus_storage::Key;

use crate::diversion::run_tm;
use crate::report::{MigrationEngine, MigrationReport, MigrationTask};
use crate::snapshot::ChunkSplits;
use crate::trace::TraceRecorder;

/// Per-shard chunk map: the chunks plus their pulled flags.
#[derive(Debug)]
struct ChunkSet {
    splits: ChunkSplits,
    pulled: Mutex<Vec<bool>>,
    remaining: AtomicUsize,
}

impl ChunkSet {
    fn new(splits: ChunkSplits) -> ChunkSet {
        let n = splits.chunk_count();
        ChunkSet {
            splits,
            pulled: Mutex::new(vec![false; n]),
            remaining: AtomicUsize::new(n),
        }
    }

    fn is_pulled(&self, idx: usize) -> bool {
        self.pulled.lock()[idx]
    }

    fn len(&self) -> usize {
        self.splits.chunk_count()
    }
}

struct SquallState {
    cluster: Arc<Cluster>,
    source: Arc<Node>,
    dest: Arc<Node>,
    chunks: HashMap<ShardId, ChunkSet>,
    pulls: AtomicU64,
    pulled_tuples: AtomicU64,
    aborts: AtomicU64,
}

impl SquallState {
    /// Pulls chunk `idx` of `shard` if still missing. The caller must hold
    /// (or be entitled to take) the shard lock: sessions already hold it
    /// exclusively; background pullers pass their own pseudo-xid and
    /// release afterwards.
    fn pull_chunk(
        &self,
        shard: ShardId,
        idx: usize,
        lock_xid: TxnId,
        release: bool,
    ) -> DbResult<()> {
        let set = &self.chunks[&shard];
        if set.is_pulled(idx) {
            return Ok(());
        }
        self.cluster.shard_locks.acquire(
            lock_xid,
            shard,
            remus_txn::LockMode::Exclusive,
            self.cluster.config.lock_wait_timeout,
        )?;
        let result = self.pull_locked(shard, idx);
        if release {
            self.cluster.shard_locks.release_all(lock_xid);
        }
        result
    }

    fn pull_locked(&self, shard: ShardId, idx: usize) -> DbResult<()> {
        let set = &self.chunks[&shard];
        if set.is_pulled(idx) {
            return Ok(());
        }
        // The pull itself: network + destination write time for the chunk.
        time::charge(self.cluster.config.squall_pull_latency);
        self.cluster.net.hop(self.dest.id(), self.source.id());
        let src_table = self.source.storage.table_or_err(shard)?;
        let rows = src_table.scan_visible_range(
            set.splits.range_of(idx),
            Timestamp::MAX,
            &self.source.storage.clog,
            self.cluster.config.lock_wait_timeout,
        )?;
        let dst_table = self.dest.storage.table_or_err(shard)?;
        let n = rows.len() as u64;
        for (k, v) in rows {
            dst_table.install_frozen(k, v);
        }
        self.source.work.add(n);
        self.dest.work.add(n);
        self.pulled_tuples.fetch_add(n, Ordering::Relaxed);
        self.pulls.fetch_add(1, Ordering::Relaxed);
        let mut pulled = set.pulled.lock();
        if !pulled[idx] {
            pulled[idx] = true;
            set.remaining.fetch_sub(1, Ordering::SeqCst);
        }
        Ok(())
    }

    fn all_pulled(&self) -> bool {
        self.chunks
            .values()
            .all(|s| s.remaining.load(Ordering::SeqCst) == 0)
    }
}

/// What a Squall migration holds outside its own state: the cluster's
/// access hook and the destination copies of the task's shards, created
/// empty. Dropped before `T_m` committed it takes both back — the source
/// still owns the shards and nothing was ever routed to the destination.
/// After `T_m` the destination owns them and must keep pulling on demand,
/// so the hook stays installed until every chunk is pulled: a migration
/// that fails in its background pulls leaves a cluster that still serves.
struct PullWindow<'a> {
    cluster: &'a Cluster,
    state: &'a SquallState,
    tm_committed: bool,
}

impl<'a> PullWindow<'a> {
    fn open(cluster: &'a Cluster, state: &'a Arc<SquallState>) -> Self {
        for shard in state.chunks.keys() {
            state.dest.storage.create_shard(*shard);
        }
        cluster.install_access_hook(Arc::new(SquallHook {
            state: Arc::clone(state),
        }));
        PullWindow {
            cluster,
            state,
            tm_committed: false,
        }
    }
}

impl Drop for PullWindow<'_> {
    fn drop(&mut self) {
        if self.tm_committed && !self.state.all_pulled() {
            return;
        }
        if !self.tm_committed {
            for shard in self.state.chunks.keys() {
                self.state.dest.storage.drop_shard(*shard);
            }
        }
        self.cluster.uninstall_access_hook();
    }
}

struct SquallHook {
    state: Arc<SquallState>,
}

impl AccessHook for SquallHook {
    fn before_access(
        &self,
        node: NodeId,
        shard: ShardId,
        key: Key,
        _write: bool,
        xid: TxnId,
    ) -> DbResult<()> {
        let Some(set) = self.state.chunks.get(&shard) else {
            return Ok(());
        };
        let idx = set.splits.chunk_of(key);
        if node == self.state.dest.id() {
            // On-demand (reactive) pull under the session's shard lock.
            self.state.pull_chunk(shard, idx, xid, false)
        } else if node == self.state.source.id() && set.is_pulled(idx) {
            // The chunk has moved: abort and retry on the destination.
            self.state.aborts.fetch_add(1, Ordering::Relaxed);
            Err(DbError::MigrationAbort {
                txn: xid,
                reason: "squall: chunk already migrated",
            })
        } else {
            Ok(())
        }
    }

    fn before_scan(&self, node: NodeId, shard: ShardId, xid: TxnId) -> DbResult<()> {
        let Some(set) = self.state.chunks.get(&shard) else {
            return Ok(());
        };
        if node == self.state.dest.id() {
            for idx in 0..set.len() {
                self.state.pull_chunk(shard, idx, xid, false)?;
            }
            Ok(())
        } else if node == self.state.source.id() && (0..set.len()).any(|i| set.is_pulled(i)) {
            self.state.aborts.fetch_add(1, Ordering::Relaxed);
            Err(DbError::MigrationAbort {
                txn: xid,
                reason: "squall: shard partially migrated",
            })
        } else {
            Ok(())
        }
    }
}

/// The Squall engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct SquallEngine;

impl SquallEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        SquallEngine
    }
}

impl MigrationEngine for SquallEngine {
    fn name(&self) -> &'static str {
        "squall"
    }

    fn migrate(&self, cluster: &Arc<Cluster>, task: &MigrationTask) -> DbResult<MigrationReport> {
        if cluster.cc_mode != CcMode::ShardLock {
            return Err(DbError::Migration(
                "Squall requires CcMode::ShardLock (H-store partition locks)".into(),
            ));
        }
        let t0 = Instant::now();
        let rec = TraceRecorder::new(self.name());
        let mut report = MigrationReport::new(self.name());
        let source = Arc::clone(cluster.node(task.source));
        let dest = Arc::clone(cluster.node(task.dest));

        // Build the chunk map from the source's current keys. A key with
        // no visible version only shifts a boundary: pulls scan by range.
        // Planned before anything is acquired: a task naming a shard the
        // source does not host fails here with nothing to release.
        let chunk_span = rec.start("chunk_map");
        let mut chunks = HashMap::new();
        for &shard in &task.shards {
            let table = source.storage.table_or_err(shard)?;
            let splits = ChunkSplits(table.chunk_splits(cluster.config.squall_chunk_keys));
            chunks.insert(shard, ChunkSet::new(splits));
        }
        let state = Arc::new(SquallState {
            cluster: Arc::clone(cluster),
            source: Arc::clone(&source),
            dest: Arc::clone(&dest),
            chunks,
            pulls: AtomicU64::new(0),
            pulled_tuples: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        });
        // Empty destination shards and the access hook, held by one guard.
        let mut window = PullWindow::open(cluster, &state);
        rec.attr(
            chunk_span,
            "chunks",
            state.chunks.values().map(|s| s.len() as u64).sum(),
        );
        rec.end(chunk_span);

        // Ownership flips immediately: new transactions go to the
        // destination and pull on demand.
        let transfer0 = Instant::now();
        let tm_span = rec.start("tm_2pc");
        run_tm(cluster, task, false)?;
        window.tm_committed = true;
        rec.end(tm_span);
        report.transfer_phase = transfer0.elapsed();

        // Background pulls: a pool of asynchronous workers (§4.2) draining
        // a flat (shard, chunk) work list, sized by `copy_workers`.
        let pulls_span = rec.start("pulls");
        let work: Vec<(ShardId, usize)> = {
            let mut shards: Vec<_> = state.chunks.keys().copied().collect();
            shards.sort();
            shards
                .into_iter()
                .flat_map(|shard| (0..state.chunks[&shard].len()).map(move |idx| (shard, idx)))
                .collect()
        };
        let pool = cluster
            .config
            .parallelism
            .copy_workers
            .max(1)
            .min(work.len().max(1));
        let next = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..pool)
            .map(|_| {
                let state = Arc::clone(&state);
                let work = work.clone();
                let next = Arc::clone(&next);
                std::thread::spawn(move || -> DbResult<()> {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(shard, idx)) = work.get(i) else {
                            return Ok(());
                        };
                        if state.chunks[&shard].is_pulled(idx) {
                            continue;
                        }
                        let pseudo = state.dest.storage.alloc_xid();
                        match state.pull_chunk(shard, idx, pseudo, true) {
                            Ok(()) => {}
                            Err(DbError::Timeout(_)) => {
                                // Lock contention: leave for the retry loop.
                                continue;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("background puller panicked")?;
        }
        // Retry loop for chunks skipped under contention.
        let deadline = Instant::now() + Duration::from_secs(600);
        while !state.all_pulled() {
            if Instant::now() >= deadline {
                return Err(DbError::Timeout("squall background pulls"));
            }
            for (&shard, set) in &state.chunks {
                for idx in 0..set.len() {
                    if !set.is_pulled(idx) {
                        let pseudo = dest.storage.alloc_xid();
                        let _ = state.pull_chunk(shard, idx, pseudo, true);
                    }
                }
            }
        }

        rec.attr(pulls_span, "pulls", state.pulls.load(Ordering::Relaxed));
        rec.attr(
            pulls_span,
            "pulled_tuples",
            state.pulled_tuples.load(Ordering::Relaxed),
        );
        rec.end(pulls_span);
        let cleanup_span = rec.start("cleanup");
        drop(window);
        for shard in &task.shards {
            source.storage.drop_shard(*shard);
        }
        rec.end(cleanup_span);
        report.pulls = state.pulls.load(Ordering::Relaxed);
        report.tuples_copied = state.pulled_tuples.load(Ordering::Relaxed);
        report.forced_aborts = state.aborts.load(Ordering::Relaxed);
        report.total = t0.elapsed();
        report.traces.push(rec.finish());
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::{SimConfig, TableId};
    use remus_storage::Value;
    use std::ops::Bound;

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    fn shard_lock_cluster(chunk_keys: u64) -> Arc<Cluster> {
        ClusterBuilder::new(2)
            .cc_mode(CcMode::ShardLock)
            .config(SimConfig {
                squall_chunk_keys: chunk_keys,
                ..SimConfig::instant()
            })
            .build()
    }

    #[test]
    fn requires_shard_lock_mode() {
        let cluster = ClusterBuilder::new(2).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let err = SquallEngine::new().migrate(&cluster, &task).unwrap_err();
        assert!(matches!(err, DbError::Migration(_)));
    }

    #[test]
    fn background_pulls_move_everything() {
        let cluster = shard_lock_cluster(16);
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..100 {
            session.run(|t| t.insert(&layout, k, val("v"))).unwrap();
        }
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let report = SquallEngine::new().migrate(&cluster, &task).unwrap();
        assert_eq!(report.tuples_copied, 100);
        assert!(report.pulls >= 100 / 16);
        assert!(!cluster.node(NodeId(0)).storage.hosts(ShardId(0)));
        let (rows, _) = session.run(|t| t.scan_table(&layout)).unwrap();
        assert_eq!(rows.len(), 100);
    }

    #[test]
    fn chunk_map_boundaries() {
        // Keys 10, 20, 30, 40, 50 in chunks of two split at 30 and 50.
        let set = ChunkSet::new(ChunkSplits(vec![30, 50]));
        // Chunks: [0,30), [30,50), [50,∞).
        assert_eq!(set.len(), 3);
        assert_eq!(set.splits.chunk_of(0), 0);
        assert_eq!(set.splits.chunk_of(29), 0);
        assert_eq!(set.splits.chunk_of(30), 1);
        assert_eq!(set.splits.chunk_of(49), 1);
        assert_eq!(set.splits.chunk_of(50), 2);
        assert_eq!(set.splits.chunk_of(u64::MAX), 2);
        assert_eq!(
            set.splits.range_of(0),
            (Bound::Unbounded, Bound::Excluded(30))
        );
        assert_eq!(
            set.splits.range_of(2),
            (Bound::Included(50), Bound::Unbounded)
        );
    }

    #[test]
    fn empty_shard_is_one_chunk() {
        let set = ChunkSet::new(ChunkSplits(Vec::new()));
        assert_eq!(set.len(), 1);
        assert_eq!(set.splits.chunk_of(123), 0);
        assert_eq!(set.splits.range_of(0), (Bound::Unbounded, Bound::Unbounded));
    }

    #[test]
    fn source_access_to_migrated_chunk_aborts_and_dest_retry_succeeds() {
        let cluster = shard_lock_cluster(1000);
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..50 {
            session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
        }
        // An old transaction keeps its pre-migration snapshot.
        let mut old_txn = session.begin();

        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let cluster2 = Arc::clone(&cluster);
        let migration =
            std::thread::spawn(move || SquallEngine::new().migrate(&cluster2, &task).unwrap());
        let report = migration.join().unwrap();
        assert_eq!(report.tuples_copied, 50);
        // The old transaction now routes to the source, whose shard is
        // gone: a migration-induced abort it must retry on the destination.
        let err = old_txn.read(&layout, 1).unwrap_err();
        assert!(err.is_migration_induced());
        drop(old_txn);
        let (v, _) = session.run(|t| t.read(&layout, 1)).unwrap();
        assert_eq!(v, Some(val("v0")));
    }

    #[test]
    fn on_demand_pull_serves_new_transactions_immediately() {
        // Freeze background pulls with a long pull latency... instead use a
        // tiny latency and verify a destination write lands correctly even
        // while pulls are in flight.
        let cluster = ClusterBuilder::new(2)
            .cc_mode(CcMode::ShardLock)
            .config(SimConfig {
                squall_chunk_keys: 4,
                squall_pull_latency: Duration::from_millis(2),
                ..SimConfig::instant()
            })
            .build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..64 {
            session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
        }
        let cluster2 = Arc::clone(&cluster);
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let migration =
            std::thread::spawn(move || SquallEngine::new().migrate(&cluster2, &task).unwrap());
        // Concurrent client keeps updating through the migration; every
        // update must observe the pulled value.
        let mut updates = 0;
        for round in 0..20u64 {
            let key = round % 64;
            let r = session.run(|t| {
                let v = t.read(&layout, key)?;
                assert!(v.is_some(), "key {key} lost during pull migration");
                t.update(&layout, key, val("v1"))
            });
            if r.is_ok() {
                updates += 1;
            }
        }
        let report = migration.join().unwrap();
        assert!(updates > 0);
        assert!(report.pulls >= 16, "expected at least one pull per chunk");
        let (rows, _) = session.run(|t| t.scan_table(&layout)).unwrap();
        assert_eq!(rows.len(), 64);
    }
}
