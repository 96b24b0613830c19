//! The destination-side replay process (§3.3, §3.5.2, §3.6).
//!
//! A dispatcher thread receives [`ApplyMsg`]s from the propagation process
//! in source-WAL order and shards shadow-transaction work over a pool of
//! apply workers (`ParallelismConfig::replay_workers`, the paper's
//! "transaction-level parallel apply based on SI by tracking timestamp
//! order"), routing each job to a worker by the hash of its smallest
//! written key. Independence is decided by key: a message whose keys
//! intersect an earlier in-flight message waits for that message to finish
//! first (the key fence), so conflicting transactions apply in source
//! commit order while disjoint ones fan out concurrently. The scheduler is
//! deadlock-free: tickets are assigned in stream order, dependencies only
//! point at lower tickets, and each worker consumes its queue in ticket
//! order — so the globally smallest unfinished ticket is always at the
//! head of some queue with every dependency already complete.
//!
//! When a [`CopyGate`] is supplied, replay runs concurrently with the
//! chunked snapshot copy: before applying a key the worker waits for that
//! key's copy chunk to complete (a frozen install replaces the whole
//! version chain, so applying first would be clobbered). Completed chunks
//! replay while others are still copying.
//!
//! * `Committed` — async-phase replay: run a shadow transaction with the
//!   source transaction's xid and start timestamp, apply its ops, commit
//!   with the source commit timestamp.
//! * `Validate` — MOCC: apply ops as a shadow transaction (each op checks
//!   for dead/updated tuples — a WW conflict aborts the shadow and fails
//!   the verdict), 2PC-prepare the shadow, ack *validation-ok* through the
//!   [`crate::mocc::ValidationRegistry`].
//! * `CommitShadow` / `RollbackShadow` — resolve a prepared shadow with the
//!   source's decision and timestamp.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use remus_cluster::{Cluster, Node};
use remus_common::fault::{FaultAction, InjectionPoint};
use remus_common::time::Signal;
use remus_common::{DbError, DbResult, ShardId, Timestamp, TxnId};
use remus_storage::Key;
use remus_txn::{abort_txn, commit_prepared, prepare_participant, rollback_prepared, Txn};
use remus_wal::{LogOp, LogRecord, WriteKind, WriteOp};

use crate::mocc::ValidationRegistry;
use crate::snapshot::CopyGate;

/// How long a replay worker waits for a key's copy chunk before declaring
/// the interleaved snapshot copy stuck. Matches the engines' drain timeout.
const GATE_TIMEOUT: Duration = Duration::from_secs(600);

/// A message from the propagation process to the replay process.
#[derive(Debug)]
pub enum ApplyMsg {
    /// Replay a source transaction that committed asynchronously.
    Committed {
        /// Source transaction id.
        xid: TxnId,
        /// Its start timestamp (the shadow uses the same snapshot).
        start_ts: Timestamp,
        /// Its commit timestamp (the shadow commits with the same one).
        commit_ts: Timestamp,
        /// Its changes to the migrating shards, in execution order.
        ops: Vec<WriteOp>,
    },
    /// MOCC validation request for a synchronized source transaction.
    Validate {
        /// Source transaction id.
        xid: TxnId,
        /// Its start timestamp.
        start_ts: Timestamp,
        /// Its changes to the migrating shards.
        ops: Vec<WriteOp>,
    },
    /// Commit the prepared shadow of `xid` with the source's timestamp.
    CommitShadow {
        /// Source transaction id.
        xid: TxnId,
        /// Decided commit timestamp.
        commit_ts: Timestamp,
    },
    /// Roll back the prepared shadow of `xid`.
    RollbackShadow {
        /// Source transaction id.
        xid: TxnId,
    },
    /// Graceful end of stream.
    Shutdown,
}

/// Counters exposed by the replay process.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Messages fully processed.
    pub done: AtomicU64,
    /// Individual change records applied.
    pub records: AtomicU64,
    /// Validation failures (WW conflicts with destination transactions).
    pub conflicts: AtomicU64,
    /// Notified after every completed message, and by the propagation
    /// process feeding this replay after every batch it processed: what a
    /// catch-up or a drain parks on.
    pub progress: Arc<Signal>,
}

/// Tracks ticket completion with a contiguous watermark so the done-set
/// stays small.
#[derive(Debug, Default)]
struct Completion {
    state: Mutex<(u64, HashSet<u64>)>, // (watermark, done above watermark)
    advanced: Condvar,
}

impl Completion {
    /// Marks ticket `t` complete.
    fn mark(&self, t: u64) {
        let mut state = self.state.lock();
        state.1.insert(t);
        loop {
            let next = state.0 + 1;
            if !state.1.remove(&next) {
                break;
            }
            state.0 = next;
        }
        self.advanced.notify_all();
    }

    /// Blocks until ticket `t` completed.
    fn wait(&self, t: u64) {
        let mut state = self.state.lock();
        while !(state.0 >= t || state.1.contains(&t)) {
            self.advanced.wait(&mut state);
        }
    }
}

struct Job {
    ticket: u64,
    deps: Vec<u64>,
    msg: ApplyMsg,
}

struct ReplayShared {
    cluster: Arc<Cluster>,
    dest: Arc<Node>,
    registry: Arc<ValidationRegistry>,
    stats: Arc<ReplayStats>,
    completion: Arc<Completion>,
    /// Chunked-copy completion tracker; replay of a key waits for its
    /// chunk. `None` when the copy finished before replay started.
    gate: Option<Arc<CopyGate>>,
    /// Shadows currently prepared on the destination.
    prepared_shadows: Mutex<HashSet<TxnId>>,
    /// First unexpected failure (async replay must never conflict; if it
    /// does, the migration is broken and must surface it).
    fatal: Mutex<Option<DbError>>,
}

impl ReplayShared {
    /// Records a fatal error unless one is already recorded.
    fn set_fatal(&self, e: DbError) {
        let mut fatal = self.fatal.lock();
        if fatal.is_none() {
            *fatal = Some(e);
        }
    }

    /// A worker panicked mid-job: record it and mark the ticket complete so
    /// dependent jobs (and the engine's join) do not hang forever.
    fn note_panic(&self, ticket: u64) {
        self.set_fatal(DbError::Internal(
            "replay worker panicked mid-job".to_string(),
        ));
        self.complete(ticket);
    }

    /// Marks `ticket` complete and counts its message done.
    fn complete(&self, ticket: u64) {
        self.completion.mark(ticket);
        self.stats.done.fetch_add(1, Ordering::SeqCst);
        self.stats.progress.notify();
    }

    /// Blocks until every key the ops touch has had its snapshot chunk
    /// copied. Errs if the copy was poisoned (migration unwinding).
    fn wait_chunks(&self, ops: &[WriteOp]) -> DbResult<()> {
        if let Some(gate) = &self.gate {
            for op in ops {
                gate.wait_copied(op.shard, op.key, GATE_TIMEOUT)?;
            }
        }
        Ok(())
    }
    fn apply_ops(&self, shadow: &mut Txn, ops: &[WriteOp]) -> Result<(), DbError> {
        let storage = &self.dest.storage;
        for op in ops {
            let r = match op.kind {
                WriteKind::Insert => shadow.insert(storage, op.shard, op.key, op.value.clone()),
                WriteKind::Update => shadow.update(storage, op.shard, op.key, op.value.clone()),
                WriteKind::Delete => shadow.delete(storage, op.shard, op.key),
                WriteKind::Lock => shadow.lock_row(storage, op.shard, op.key),
            };
            r?;
            self.dest.work.add(1);
            self.stats.records.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn run_job(&self, job: Job) {
        for dep in &job.deps {
            self.completion.wait(*dep);
        }
        // Mutation seam: a worker dying mid-job must not hang the pipeline
        // (the panic is caught in the worker loop, which notes it and marks
        // the ticket).
        #[cfg(feature = "mutation-hooks")]
        if remus_storage::mutation::take_kill_replay_worker() {
            panic!("mutation: replay worker killed mid-job");
        }
        match job.msg {
            ApplyMsg::Committed {
                xid,
                start_ts,
                commit_ts,
                ops,
            } => {
                // Replay-worker stall seam: only Delay is expressible here.
                self.cluster
                    .fault_at(InjectionPoint::ReplayApply, self.dest.id());
                if let Err(e) = self.wait_chunks(&ops) {
                    // The interleaved copy failed or stalled: the migration
                    // is unwinding; surface and skip the apply.
                    self.set_fatal(e);
                    self.complete(job.ticket);
                    return;
                }
                // The shadow runs under its own id: the source transaction
                // may itself be a 2PC participant on this node.
                let sxid = xid.shadow();
                let mut shadow = Txn::begin_with(sxid, start_ts, self.dest.id());
                match self.apply_ops(&mut shadow, &ops) {
                    Ok(()) => {
                        // Single-phase shadow commit with the source's
                        // timestamp; replayed in commit order per key, so
                        // the destination data stays consistent with the
                        // source (§3.3). Record before CLOG as everywhere,
                        // but without `commit_txn`'s wait for the fsync:
                        // asynchronous replay ends before `T_m`, and a
                        // destination crash before `T_m` cancels the
                        // migration and drops this copy (§3.7) — nothing
                        // is acknowledged on the strength of this record.
                        let storage = &self.dest.storage;
                        storage
                            .wal
                            .append(LogRecord::new(sxid, LogOp::Commit(commit_ts)));
                        storage
                            .clog
                            .set_committed(sxid, commit_ts)
                            .expect("shadow commit cannot fail");
                        storage.deregister(sxid);
                        self.cluster.oracle.observe(self.dest.id(), commit_ts);
                    }
                    Err(e) => {
                        // Async replay of a committed source transaction
                        // must apply cleanly; anything else is a broken
                        // migration invariant.
                        abort_txn(&mut shadow);
                        *self.fatal.lock() = Some(DbError::Internal(format!(
                            "async replay of {xid} failed: {e}"
                        )));
                    }
                }
            }
            ApplyMsg::Validate { xid, start_ts, ops } => {
                if self.wait_chunks(&ops).is_err() {
                    // Copy failed: fail the validation so the source is not
                    // left waiting on a verdict that will never come.
                    self.registry
                        .complete(xid, Err(DbError::NodeUnavailable(self.dest.id())));
                    self.complete(job.ticket);
                    return;
                }
                let fault = self
                    .cluster
                    .fault_at(InjectionPoint::MoccValidation, self.dest.id());
                // The destination "crashes" after the shadow's prepare
                // record hit its WAL but before the ack reaches the
                // source: the shadow stays prepared (in-doubt, for
                // resolve_prepared_shadows) and the source observes the
                // node as unavailable.
                let crash = fault == FaultAction::Crash;
                let verdict = if fault == FaultAction::Fail {
                    // Forced validation failure: no shadow work at all,
                    // the verdict aborts the source transaction.
                    Err(DbError::MigrationAbort {
                        txn: xid,
                        reason: "injected MOCC validation failure",
                    })
                } else {
                    let sxid = xid.shadow();
                    let mut shadow = Txn::begin_with(sxid, start_ts, self.dest.id());
                    let applied = self.apply_ops(&mut shadow, &ops);
                    match applied {
                        Ok(()) => {
                            prepare_participant(&self.dest.storage, sxid)
                                .expect("shadow prepare cannot fail");
                            self.prepared_shadows.lock().insert(xid);
                        }
                        // WW conflict with a destination transaction:
                        // abort the shadow; the verdict aborts the source
                        // too.
                        Err(_) => abort_txn(&mut shadow),
                    }
                    applied
                };
                if crash {
                    self.registry
                        .complete(xid, Err(DbError::NodeUnavailable(self.dest.id())));
                } else {
                    if verdict.is_err() {
                        self.stats.conflicts.fetch_add(1, Ordering::Relaxed);
                    }
                    // Ack the verdict back to the source node.
                    self.cluster.net.hop(self.dest.id(), xid.origin());
                    self.registry.complete(xid, verdict);
                }
            }
            ApplyMsg::CommitShadow { xid, commit_ts } => {
                if self.prepared_shadows.lock().remove(&xid) {
                    commit_prepared(&self.dest.storage, xid.shadow(), commit_ts)
                        .expect("prepared shadow commit cannot fail");
                    self.cluster.oracle.observe(self.dest.id(), commit_ts);
                }
            }
            ApplyMsg::RollbackShadow { xid } => {
                if self.prepared_shadows.lock().remove(&xid) {
                    rollback_prepared(&self.dest.storage, xid.shadow());
                }
            }
            ApplyMsg::Shutdown => unreachable!("dispatcher consumes Shutdown"),
        }
        self.complete(job.ticket);
        self.dest.storage.counters.replay_jobs.inc();
    }
}

/// The replay process: dispatcher + sharded worker pool.
pub struct ReplayProcess {
    /// Counters.
    pub stats: Arc<ReplayStats>,
    shared: Arc<ReplayShared>,
    worker_jobs: Arc<Vec<AtomicU64>>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ReplayProcess {
    /// Starts the replay process on `dest`, consuming messages from `rx`.
    /// With a [`CopyGate`], replay interleaves with the chunked snapshot
    /// copy: a key is applied only after its chunk finished copying.
    pub fn start(
        cluster: &Arc<Cluster>,
        dest: &Arc<Node>,
        registry: Arc<ValidationRegistry>,
        rx: Receiver<ApplyMsg>,
        gate: Option<Arc<CopyGate>>,
    ) -> ReplayProcess {
        let stats = Arc::new(ReplayStats::default());
        let shared = Arc::new(ReplayShared {
            cluster: Arc::clone(cluster),
            dest: Arc::clone(dest),
            registry,
            stats: Arc::clone(&stats),
            completion: Arc::new(Completion::default()),
            gate,
            prepared_shadows: Mutex::new(HashSet::new()),
            fatal: Mutex::new(None),
        });

        let n = cluster.config.parallelism.replay_workers.max(1);
        let worker_jobs = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let mut job_txs = Vec::with_capacity(n);
        let workers = (0..n)
            .map(|w| {
                let (job_tx, job_rx) = unbounded::<Job>();
                job_txs.push(job_tx);
                let shared = Arc::clone(&shared);
                let worker_jobs = Arc::clone(&worker_jobs);
                std::thread::spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        let ticket = job.ticket;
                        if catch_unwind(AssertUnwindSafe(|| shared.run_job(job))).is_err() {
                            shared.note_panic(ticket);
                        }
                        worker_jobs[w].fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || dispatch_loop(shared, rx, job_txs))
        };

        ReplayProcess {
            stats,
            shared,
            worker_jobs,
            dispatcher: Some(dispatcher),
            workers,
        }
    }

    /// Jobs executed by each worker, by worker index (per-worker span
    /// attrs; the dispatcher's inline shadow resolutions are not counted).
    pub fn worker_jobs(&self) -> Vec<u64> {
        self.worker_jobs
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The first unexpected (fatal) replay failure, if any.
    pub fn fatal(&self) -> Option<DbError> {
        self.shared.fatal.lock().clone()
    }

    /// Shadows still prepared (should be empty after a clean drain).
    pub fn prepared_shadow_count(&self) -> usize {
        self.shared.prepared_shadows.lock().len()
    }

    /// Waits for the dispatcher (after the propagation sent `Shutdown`) and
    /// all workers to finish. Fails if a fatal replay error occurred (a
    /// worker panic is caught, noted, and surfaced here instead of hanging
    /// the pipeline) or if any shadow transaction is still prepared after a
    /// clean drain (the stream must have resolved every validated shadow).
    pub fn join(mut self) -> Result<(), DbError> {
        let mut thread_died = false;
        if let Some(d) = self.dispatcher.take() {
            thread_died |= d.join().is_err();
        }
        for w in self.workers.drain(..) {
            thread_died |= w.join().is_err();
        }
        if let Some(e) = self.shared.fatal.lock().take() {
            return Err(e);
        }
        if thread_died {
            return Err(DbError::Internal(
                "replay thread died outside job execution".to_string(),
            ));
        }
        let prepared_left = self.shared.prepared_shadows.lock().len();
        if prepared_left != 0 {
            return Err(DbError::Internal(format!(
                "{prepared_left} shadow transactions left prepared after drain"
            )));
        }
        Ok(())
    }
}

/// The worker a message's ops route to: hash of the smallest written key.
/// Routing is only a locality/balance choice — correctness comes from the
/// key fence — but it is deterministic so reruns shard identically.
fn route_of(ops: &[WriteOp], workers: usize) -> usize {
    use std::hash::{Hash, Hasher};
    match ops.iter().map(|op| (op.shard, op.key)).min() {
        Some(min) => {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            min.hash(&mut h);
            (h.finish() % workers as u64) as usize
        }
        None => 0,
    }
}

fn dispatch_loop(shared: Arc<ReplayShared>, rx: Receiver<ApplyMsg>, job_txs: Vec<Sender<Job>>) {
    let mut next_ticket: u64 = 0;
    // Last ticket that touched each key; per-xid ticket of the Validate.
    let mut last_key_ticket: HashMap<(ShardId, Key), u64> = HashMap::new();
    let mut validate_ticket: HashMap<TxnId, u64> = HashMap::new();

    let deps_for = |ops: &[WriteOp], ticket: u64, map: &mut HashMap<(ShardId, Key), u64>| {
        let mut deps: Vec<u64> = ops
            .iter()
            .filter_map(|op| map.insert((op.shard, op.key), ticket))
            // A message touching the same key twice must not depend on
            // itself.
            .filter(|&d| d != ticket)
            .collect();
        deps.sort_unstable();
        deps.dedup();
        deps
    };

    while let Ok(msg) = rx.recv() {
        match msg {
            ApplyMsg::Shutdown => break,
            ApplyMsg::Committed { ref ops, .. } => {
                next_ticket += 1;
                let worker = route_of(ops, job_txs.len());
                let deps = deps_for(ops, next_ticket, &mut last_key_ticket);
                job_txs[worker]
                    .send(Job {
                        ticket: next_ticket,
                        deps,
                        msg,
                    })
                    .expect("workers alive");
            }
            ApplyMsg::Validate { xid, ref ops, .. } => {
                next_ticket += 1;
                validate_ticket.insert(xid, next_ticket);
                let worker = route_of(ops, job_txs.len());
                let deps = deps_for(ops, next_ticket, &mut last_key_ticket);
                job_txs[worker]
                    .send(Job {
                        ticket: next_ticket,
                        deps,
                        msg,
                    })
                    .expect("workers alive");
            }
            ApplyMsg::CommitShadow { xid, .. } | ApplyMsg::RollbackShadow { xid } => {
                // Resolution of a prepared shadow: depends only on its own
                // Validate having completed; run inline (cheap) to preserve
                // stream order for the same xid.
                next_ticket += 1;
                let ticket = next_ticket;
                let deps = validate_ticket.remove(&xid).into_iter().collect();
                let shared = Arc::clone(&shared);
                if catch_unwind(AssertUnwindSafe(|| {
                    shared.run_job(Job { ticket, deps, msg })
                }))
                .is_err()
                {
                    shared.note_panic(ticket);
                }
            }
        }
    }
    // Closing the job channels lets workers drain and exit.
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::ClusterBuilder;
    use remus_common::{NodeId, SimConfig, TableId};
    use remus_storage::Value;
    use std::time::Duration;

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    fn op(shard: u64, key: Key, kind: WriteKind, v: &str) -> WriteOp {
        WriteOp {
            shard: ShardId(shard),
            key,
            kind,
            value: val(v),
        }
    }

    fn setup() -> (Arc<Cluster>, Sender<ApplyMsg>, ReplayProcess) {
        let mut config = SimConfig::instant();
        config.parallelism.replay_workers = 4;
        let cluster = ClusterBuilder::new(2).config(config).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let dest = Arc::clone(cluster.node(NodeId(1)));
        dest.storage.create_shard(ShardId(0));
        let (tx, rx) = unbounded();
        let replay = ReplayProcess::start(
            &cluster,
            &dest,
            Arc::new(ValidationRegistry::new()),
            rx,
            None,
        );
        (cluster, tx, replay)
    }

    fn read_at(cluster: &Arc<Cluster>, node: NodeId, key: Key, ts: u64) -> Option<Value> {
        cluster
            .node(node)
            .storage
            .table(ShardId(0))
            .unwrap()
            .read(
                key,
                Timestamp(ts),
                TxnId::INVALID,
                &cluster.node(node).storage.clog,
                Duration::from_secs(2),
            )
            .unwrap()
    }

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), 1000 + n)
    }

    #[test]
    fn committed_replay_preserves_timestamps() {
        let (cluster, tx, replay) = setup();
        tx.send(ApplyMsg::Committed {
            xid: xid(1),
            start_ts: Timestamp(10),
            commit_ts: Timestamp(20),
            ops: vec![op(0, 1, WriteKind::Insert, "a")],
        })
        .unwrap();
        tx.send(ApplyMsg::Shutdown).unwrap();
        replay.join().unwrap();
        // Visible at ts 20 and later, invisible before.
        assert_eq!(read_at(&cluster, NodeId(1), 1, 20), Some(val("a")));
        assert_eq!(read_at(&cluster, NodeId(1), 1, 19), None);
    }

    #[test]
    fn conflicting_replays_apply_in_commit_order() {
        let (cluster, tx, replay) = setup();
        // Many updates to the same key: the fence must serialize them in
        // stream order despite 4 parallel workers.
        tx.send(ApplyMsg::Committed {
            xid: xid(0),
            start_ts: Timestamp(5),
            commit_ts: Timestamp(10),
            ops: vec![op(0, 7, WriteKind::Insert, "v0")],
        })
        .unwrap();
        for i in 1..50u64 {
            tx.send(ApplyMsg::Committed {
                xid: xid(i),
                start_ts: Timestamp(10 * i + 5),
                commit_ts: Timestamp(10 * (i + 1)),
                ops: vec![op(0, 7, WriteKind::Update, &format!("v{i}"))],
            })
            .unwrap();
        }
        tx.send(ApplyMsg::Shutdown).unwrap();
        let stats = Arc::clone(&replay.stats);
        replay.join().unwrap();
        assert_eq!(read_at(&cluster, NodeId(1), 7, 505), Some(val("v49")));
        // Intermediate snapshots see intermediate values.
        assert_eq!(read_at(&cluster, NodeId(1), 7, 105), Some(val("v9")));
        assert_eq!(stats.done.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn disjoint_replays_run_concurrently_and_all_apply() {
        let (cluster, tx, replay) = setup();
        for i in 0..200u64 {
            tx.send(ApplyMsg::Committed {
                xid: xid(i),
                start_ts: Timestamp(5),
                commit_ts: Timestamp(10 + i),
                ops: vec![op(0, i, WriteKind::Insert, "x")],
            })
            .unwrap();
        }
        tx.send(ApplyMsg::Shutdown).unwrap();
        replay.join().unwrap();
        let stats = cluster
            .node(NodeId(1))
            .storage
            .table(ShardId(0))
            .unwrap()
            .stats();
        assert_eq!(stats.keys, 200);
    }

    #[test]
    fn validate_prepare_commit_cycle() {
        let cluster = ClusterBuilder::new(2).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let dest = Arc::clone(cluster.node(NodeId(1)));
        dest.storage.create_shard(ShardId(0));
        let registry = Arc::new(ValidationRegistry::new());
        let (tx, rx) = unbounded();
        let replay = ReplayProcess::start(&cluster, &dest, Arc::clone(&registry), rx, None);

        tx.send(ApplyMsg::Validate {
            xid: xid(1),
            start_ts: Timestamp(10),
            ops: vec![op(0, 3, WriteKind::Insert, "s")],
        })
        .unwrap();
        // Source side gets validation-ok.
        registry
            .await_verdict(xid(1), Duration::from_secs(2))
            .unwrap();
        // While prepared, a reader with a later snapshot blocks — verify
        // the prepared status exists.
        assert_eq!(
            dest.storage.clog.status(xid(1).shadow()),
            remus_storage::TxnStatus::Prepared
        );
        tx.send(ApplyMsg::CommitShadow {
            xid: xid(1),
            commit_ts: Timestamp(30),
        })
        .unwrap();
        tx.send(ApplyMsg::Shutdown).unwrap();
        replay.join().unwrap();
        assert_eq!(read_at(&cluster, NodeId(1), 3, 30), Some(val("s")));
        assert_eq!(read_at(&cluster, NodeId(1), 3, 29), None);
    }

    #[test]
    fn validation_detects_ww_conflict_with_destination_txn() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(1));
        let registry = Arc::new(ValidationRegistry::new());
        let dest = Arc::clone(cluster.node(NodeId(1)));
        let (tx, rx) = unbounded();
        let replay = ReplayProcess::start(&cluster, &dest, Arc::clone(&registry), rx, None);

        // A destination transaction wrote key 3 and committed "after" the
        // source transaction's snapshot.
        let session = remus_cluster::Session::connect(&cluster, NodeId(1));
        session.run(|t| t.insert(&layout, 3, val("base"))).unwrap();
        let (_, dest_cts) = session.run(|t| t.update(&layout, 3, val("newer"))).unwrap();

        // Source transaction with an older snapshot tries to update key 3.
        tx.send(ApplyMsg::Validate {
            xid: xid(1),
            start_ts: Timestamp(dest_cts.0 - 1),
            ops: vec![op(0, 3, WriteKind::Update, "stale")],
        })
        .unwrap();
        let err = registry
            .await_verdict(xid(1), Duration::from_secs(2))
            .unwrap_err();
        assert!(matches!(err, DbError::WwConflict { .. }));
        tx.send(ApplyMsg::RollbackShadow { xid: xid(1) }).unwrap();
        tx.send(ApplyMsg::Shutdown).unwrap();
        assert_eq!(replay.stats.conflicts.load(Ordering::Relaxed), 1);
        replay.join().unwrap();
        // The destination value is untouched.
        let (v, _) = session.run(|t| t.read(&layout, 3)).unwrap();
        assert_eq!(v, Some(val("newer")));
    }

    #[test]
    fn rollback_shadow_purges_prepared_writes() {
        let cluster = ClusterBuilder::new(2).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let dest = Arc::clone(cluster.node(NodeId(1)));
        dest.storage.create_shard(ShardId(0));
        let registry = Arc::new(ValidationRegistry::new());
        let (tx, rx) = unbounded();
        let replay = ReplayProcess::start(&cluster, &dest, Arc::clone(&registry), rx, None);
        tx.send(ApplyMsg::Validate {
            xid: xid(1),
            start_ts: Timestamp(10),
            ops: vec![op(0, 3, WriteKind::Insert, "doomed")],
        })
        .unwrap();
        registry
            .await_verdict(xid(1), Duration::from_secs(2))
            .unwrap();
        tx.send(ApplyMsg::RollbackShadow { xid: xid(1) }).unwrap();
        tx.send(ApplyMsg::Shutdown).unwrap();
        replay.join().unwrap();
        assert_eq!(read_at(&cluster, NodeId(1), 3, 1_000_000), None);
        assert_eq!(replay_stats_prepared(&cluster), 0);
    }

    fn replay_stats_prepared(cluster: &Arc<Cluster>) -> usize {
        cluster.node(NodeId(1)).storage.clog.prepared_txns().len()
    }

    #[test]
    fn fatal_surfaces_broken_async_replay() {
        let (cluster, tx, replay) = setup();
        // Updating a key that does not exist on the destination is a
        // protocol violation for async replay.
        tx.send(ApplyMsg::Committed {
            xid: xid(1),
            start_ts: Timestamp(10),
            commit_ts: Timestamp(20),
            ops: vec![op(0, 404, WriteKind::Update, "x")],
        })
        .unwrap();
        tx.send(ApplyMsg::Shutdown).unwrap();
        let err = replay.join().unwrap_err();
        assert!(matches!(err, DbError::Internal(_)));
        let _ = cluster;
    }
}
