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
//!
//! The chunk map is a [`CopyGate`] planned with `squall_chunk_keys`: a pull
//! moves its chunk with the snapshot copy's range move and marks it in the
//! gate before it releases the shard lock, and the background pulls are
//! the gate's pool. A pull reads at `Timestamp::MAX`, so each pulled row is
//! the source's newest committed version, placed at its source commit
//! timestamp: a destination transaction whose snapshot lies below it (under
//! DTS a node's clock can lag the source's) reads nothing there — no older
//! version moves — and conflicts if it writes the row.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use remus_cluster::{AccessHook, CcMode, Cluster, Node};
use remus_common::{time, DbError, DbResult, NodeId, ShardId, Timestamp, TxnId};
use remus_storage::Key;

use crate::diversion::run_tm;
use crate::pipeline::DRAIN_TIMEOUT;
use crate::report::{MigrationEngine, MigrationReport, MigrationTask};
use crate::snapshot::{move_range, ChunkJob, CopyGate};
use crate::trace::TraceRecorder;

/// One Squall migration's state, and the access hook it installs.
struct SquallState {
    cluster: Arc<Cluster>,
    source: Arc<Node>,
    dest: Arc<Node>,
    gate: CopyGate,
    pulls: AtomicU64,
    pulled_tuples: AtomicU64,
    aborts: AtomicU64,
}

impl SquallState {
    /// Pulls `chunk` if still missing; returns the tuples pulled. The caller
    /// must hold (or be entitled to take) the shard lock: sessions already
    /// hold it exclusively; background pullers pass their own pseudo-xid and
    /// release afterwards.
    fn pull(&self, chunk: &ChunkJob, lock_xid: TxnId, release: bool) -> DbResult<u64> {
        if self.gate.is_copied(chunk) {
            return Ok(0);
        }
        self.cluster.shard_locks.acquire(
            lock_xid,
            chunk.shard,
            remus_txn::LockMode::Exclusive,
            self.cluster.config.lock_wait_timeout,
        )?;
        let result = self.pull_locked(chunk);
        if release {
            self.cluster.shard_locks.release_all(lock_xid);
        }
        result
    }

    fn pull_locked(&self, chunk: &ChunkJob) -> DbResult<u64> {
        if self.gate.is_copied(chunk) {
            return Ok(0);
        }
        // The pull itself: network + destination write time for the chunk.
        time::charge(self.cluster.config.squall_pull_latency);
        self.cluster.net.hop(self.dest.id(), self.source.id());
        let n = move_range(
            &self.source,
            &self.dest,
            chunk,
            Timestamp::MAX,
            Duration::ZERO,
            u64::MAX,
            None,
        )?;
        self.pulled_tuples.fetch_add(n, Ordering::Relaxed);
        self.pulls.fetch_add(1, Ordering::Relaxed);
        self.gate.mark_copied(chunk.flat);
        Ok(n)
    }

    /// A background pull under its own pseudo-xid. A lock wait that times
    /// out is tried again — the chunk may have been pulled on demand
    /// meanwhile — until those waits add up to `DRAIN_TIMEOUT`.
    fn pull_background(&self, chunk: &ChunkJob) -> DbResult<u64> {
        let pseudo = self.dest.storage.alloc_xid();
        let mut waited = Duration::ZERO;
        loop {
            match self.pull(chunk, pseudo, true) {
                Err(DbError::Timeout(_)) if waited < DRAIN_TIMEOUT => {
                    waited += self.cluster.config.lock_wait_timeout;
                }
                result => return result,
            }
        }
    }

    /// Counts a source transaction that touched moved data, and its error.
    fn abort(&self, txn: TxnId, reason: &'static str) -> DbError {
        self.aborts.fetch_add(1, Ordering::Relaxed);
        DbError::MigrationAbort { txn, reason }
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
    shards: &'a [ShardId],
    tm_committed: bool,
}

impl<'a> PullWindow<'a> {
    fn open(cluster: &'a Cluster, state: &'a Arc<SquallState>, shards: &'a [ShardId]) -> Self {
        for shard in shards {
            state.dest.storage.create_shard(*shard);
        }
        cluster.install_access_hook(Arc::clone(state) as Arc<dyn AccessHook>);
        PullWindow {
            cluster,
            state,
            shards,
            tm_committed: false,
        }
    }
}

impl Drop for PullWindow<'_> {
    fn drop(&mut self) {
        if self.tm_committed && !self.state.gate.all_copied() {
            return;
        }
        if !self.tm_committed {
            for shard in self.shards {
                self.state.dest.storage.drop_shard(*shard);
            }
        }
        self.cluster.uninstall_access_hook();
    }
}

impl AccessHook for SquallState {
    fn before_access(
        &self,
        node: NodeId,
        shard: ShardId,
        key: Key,
        _write: bool,
        xid: TxnId,
    ) -> DbResult<()> {
        let Some(chunk) = self.gate.chunk_of(shard, key) else {
            return Ok(());
        };
        if node == self.dest.id() {
            // On-demand (reactive) pull under the session's shard lock.
            self.pull(&chunk, xid, false).map(drop)
        } else if node == self.source.id() && self.gate.is_copied(&chunk) {
            // The chunk has moved: abort and retry on the destination.
            Err(self.abort(xid, "squall: chunk already migrated"))
        } else {
            Ok(())
        }
    }

    fn before_scan(&self, node: NodeId, shard: ShardId, xid: TxnId) -> DbResult<()> {
        if node == self.dest.id() {
            let mut chunks = self.gate.chunks_of(shard);
            chunks.try_for_each(|chunk| self.pull(&chunk, xid, false).map(drop))
        } else if node == self.source.id() && self.gate.any_copied(shard) {
            Err(self.abort(xid, "squall: shard partially migrated"))
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
        let (source, dest) = (cluster.node(task.source), cluster.node(task.dest));

        // Build the chunk map from the source's current keys. A key with
        // no visible version only shifts a boundary: pulls scan by range.
        // Planned before anything is acquired: a task naming a shard the
        // source does not host fails here with nothing to release.
        let chunk_span = rec.start("chunk_map");
        let gate = CopyGate::plan(&task.shards, source, cluster.config.squall_chunk_keys)?;
        let state = Arc::new(SquallState {
            cluster: Arc::clone(cluster),
            source: Arc::clone(source),
            dest: Arc::clone(dest),
            gate,
            pulls: AtomicU64::new(0),
            pulled_tuples: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        });
        // Empty destination shards and the access hook, held by one guard.
        let mut window = PullWindow::open(cluster, &state, &task.shards);
        rec.attr(chunk_span, "chunks", state.gate.chunk_count() as u64);
        rec.end(chunk_span);

        // Ownership flips immediately: new transactions go to the
        // destination and pull on demand.
        let transfer0 = Instant::now();
        let tm_span = rec.start("tm_2pc");
        run_tm(cluster, task, false)?;
        window.tm_committed = true;
        rec.end(tm_span);
        report.transfer_phase = transfer0.elapsed();

        // Background pulls: the gate's pool of asynchronous workers (§4.2),
        // sized by `copy_workers`.
        let pulls_span = rec.start("pulls");
        let workers = cluster.config.parallelism.copy_workers;
        state
            .gate
            .drain(workers, |chunk, _| state.pull_background(chunk))?;
        report.pulls = state.pulls.load(Ordering::Relaxed);
        report.tuples_copied = state.pulled_tuples.load(Ordering::Relaxed);
        rec.attr(pulls_span, "pulls", report.pulls);
        rec.attr(pulls_span, "pulled_tuples", report.tuples_copied);
        rec.end(pulls_span);
        let cleanup_span = rec.start("cleanup");
        drop(window);
        for shard in &task.shards {
            source.storage.drop_shard(*shard);
        }
        rec.end(cleanup_span);
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

    /// A session holds the shard lock while the background pulls start:
    /// every pull's lock wait times out (20 ms) and is tried again, and the
    /// migration finishes once the session lets go.
    #[test]
    fn background_pulls_retry_past_a_held_shard_lock() {
        let cluster = ClusterBuilder::new(2)
            .cc_mode(CcMode::ShardLock)
            .config(SimConfig {
                squall_chunk_keys: 8,
                lock_wait_timeout: Duration::from_millis(20),
                ..SimConfig::instant()
            })
            .build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..40 {
            session.run(|t| t.insert(&layout, k, val("v"))).unwrap();
        }
        // The holder's read takes the shard lock until the holder ends.
        let holder_session = Session::connect(&cluster, NodeId(0));
        let mut holder = holder_session.begin();
        holder.read(&layout, 0).unwrap();
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let cluster2 = Arc::clone(&cluster);
        let migration = std::thread::spawn(move || SquallEngine::new().migrate(&cluster2, &task));
        std::thread::sleep(Duration::from_millis(150));
        assert!(!migration.is_finished(), "a pull went past the held lock");
        drop(holder);
        let report = migration.join().unwrap().unwrap();
        // 40 keys in chunks of 8: five pulls, every tuple moved once.
        assert_eq!(report.pulls, 5);
        assert_eq!(report.tuples_copied, 40);
        assert!(!cluster.node(NodeId(0)).storage.hosts(ShardId(0)));
        let (rows, _) = session.run(|t| t.scan_table(&layout)).unwrap();
        assert_eq!(rows.len(), 40);
    }
    /// A pull carries each row's source commit timestamp: the newest version
    /// committed on the source, read at `Timestamp::MAX` under the shard
    /// lock. A destination transaction whose snapshot lies below it (under
    /// DTS a node's clock can lag the source's) reads nothing older there —
    /// the pull moved no older version — and conflicts on a write, as
    /// first-committer-wins has it.
    #[test]
    fn a_pulled_version_carries_its_source_commit_timestamp() {
        let cluster = shard_lock_cluster(16);
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        session.run(|t| t.insert(&layout, 1, val("v0"))).unwrap();
        let below = cluster.oracle.start_ts(NodeId(0));
        session.run(|t| t.update(&layout, 1, val("v1"))).unwrap();
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        SquallEngine::new().migrate(&cluster, &task).unwrap();

        let dest = &cluster.node(NodeId(1)).storage;
        let table = dest.table(ShardId(0)).unwrap();
        let t = Duration::from_secs(1);
        let read = |ts| {
            table
                .read_versioned(1, ts, TxnId::INVALID, &dest.clog, t)
                .unwrap()
        };
        let (value, cts) = read(Timestamp::MAX).unwrap();
        assert_eq!(value, val("v1"));
        assert!(cts > below, "the pulled version is not the source's newest");
        assert_eq!(
            read(below),
            None,
            "read a version committed after the snapshot"
        );
        let writer = dest.alloc_xid();
        dest.clog.begin(writer);
        let write = table.update(1, val("lost"), writer, below, &dest.clog, t);
        assert!(
            matches!(write, Err(DbError::WwConflict { .. })),
            "{write:?}"
        );
    }
}
