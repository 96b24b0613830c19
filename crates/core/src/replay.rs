//! The destination-side replay process (§3.3, §3.5.2, §3.6).
//!
//! A migration stream (`stream.rs`) feeds its replay itself: it owns the
//! [`ReplayFeed`], and [`ReplayFeed::ship`] runs on the stream's thread. Each
//! [`ApplyMsg`] gets the next ticket, recorded with the LSN of the source
//! record that produced it, and goes to one of a pool of apply workers
//! (`ParallelismConfig::replay_workers`, the paper's "transaction-level
//! parallel apply based on SI by tracking timestamp order"), routed by the
//! hash of its smallest written `(shard, key)`. Independence is decided by
//! key: a message whose keys intersect an earlier in-flight message waits
//! for that message to finish first (the key fence), so conflicting
//! transactions apply in source commit order while disjoint ones fan out
//! concurrently. The scheduler is deadlock-free: tickets are assigned in
//! stream order, dependencies only point at lower tickets, and each worker
//! consumes its queue in ticket order — so the globally smallest unfinished
//! ticket is always at the head of some queue with every dependency already
//! complete. Dropping the feed (the stream thread ends) closes the queues:
//! the workers drain them and exit.
//!
//! **Progress is the lowest unfinished LSN.** One record of what is done
//! answers both a worker's wait for a ticket and the migration's progress
//! ([`ReplayProcess::finished_through`]): the LSN just before the record
//! that produced the oldest unfinished ticket, or the stream's applied LSN
//! when none is outstanding. Every source record at or below it is applied
//! on the destination — the condition §3.4 puts on `LSN_unsync` before
//! `T_m`.
//!
//! **Replay never waits for the copy.** The snapshot copy places each row
//! at its source commit timestamp, below what catch-up placed first
//! (`crate::snapshot`), so the two land in either order. One thing only the
//! finished copy can tell: whether a key catch-up found empty gets a base.
//! While the copy runs ([`ReplayProcess::copy_running`] until
//! [`ReplayProcess::copy_done`]), a write that finds no version below it is
//! *provisional* and recorded — an update of a key the copy has not reached
//! yet, or an insert the copy will put a live base under. The copy records
//! the keys whose row it placed into a chain already mapped, into a set
//! this process hands it, and [`ReplayProcess::check`] reconciles the two
//! sets before `T_m`: a provisional insert whose key got a base is out of order, and so is a
//! provisional update, delete or lock whose key got none. The check
//! compares key sets and re-walks no chain, so GC after the copy's pin is
//! released cannot disturb it.
//!
//! * `Committed` — async-phase replay by the one redo rule that replicas
//!   and crash replay use ([`remus_txn::log_and_redo_committed`]): under the
//!   source transaction's shadow id, log `Begin` with its start timestamp,
//!   its writes and `Commit` with its commit timestamp, then resolve it in
//!   the CLOG and install each write at that timestamp's place in its chain.
//!   No transaction runs, so nothing is read or checked on the way; instead
//!   the install reports what it found, and a write out of commit order — an
//!   update, delete or lock of a key with no live version, an insert over a
//!   live one, a version already committed above — fails the migration
//!   (provisionally while the copy runs, see above).
//! * `Validate` — MOCC: apply ops as a shadow transaction (each op checks
//!   for dead/updated tuples — a WW conflict aborts the shadow and fails
//!   the verdict), 2PC-prepare the shadow, ack *validation-ok* through the
//!   [`crate::mocc::ValidationRegistry`].
//! * `CommitShadow` / `RollbackShadow` — resolve a prepared shadow with the
//!   source's decision and timestamp.
//!
//! Why a `Committed` install never waits: no destination transaction
//! writes a migrating shard before `T_m`, and a `Validate` shadow on a key
//! is resolved before any later `Committed` on that key is shipped — the
//! source held the key's lock until its decision, which the stream carries
//! as a `CommitShadow` / `RollbackShadow` the feed runs inline, and the key
//! fence orders the rest. So every version a catch-up install meets is
//! resolved. The fence stays for `Committed` among themselves too, although
//! placement by commit timestamp commutes: it makes the order check above
//! run in commit order, and keeps a `Validate`'s dependency on a key a
//! single ticket.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use remus_cluster::{Cluster, Node};
use remus_common::fault::{FaultAction, InjectionPoint};
use remus_common::time::Signal;
use remus_common::{DbError, DbResult, ShardId, Timestamp, TxnId};
use remus_storage::{Key, Placement};
use remus_txn::{
    abort_txn, commit_prepared, log_and_redo_committed, prepare_participant, rollback_prepared, Txn,
};
use remus_wal::{Lsn, WriteKind, WriteOp};

use crate::mocc::ValidationRegistry;
use crate::snapshot::MappedKeys;

/// A message from a migration stream to the replay process.
#[derive(Debug)]
pub enum ApplyMsg {
    /// Replay a source transaction that committed asynchronously.
    Committed {
        /// Source transaction id.
        xid: TxnId,
        /// Its start timestamp (the redo logs it in its `Begin`).
        start_ts: Timestamp,
        /// Its commit timestamp (the redo places its versions at it).
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
}

/// Counters exposed by the replay process.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Individual change records applied.
    pub records: AtomicU64,
    /// Validation failures (WW conflicts with destination transactions).
    pub conflicts: AtomicU64,
    /// Notified after every completed message, and by the stream feeding
    /// this replay after every batch it processed: what a catch-up or a
    /// drain parks on.
    pub progress: Arc<Signal>,
}

/// The one record of what is done (module docs), in ticket order.
#[derive(Debug, Default)]
struct Completion {
    state: Mutex<Done>,
    advanced: Condvar,
}

#[derive(Debug, Default)]
struct Done {
    /// Every ticket up to it is complete.
    through: u64,
    /// The tickets above `through`, in order: the LSN of the record that
    /// produced each, and whether it is complete.
    outstanding: VecDeque<(Lsn, bool)>,
    /// The stream's applied LSN: every record up to it was read, and what
    /// it produced was issued.
    read: Lsn,
}

impl Completion {
    /// Issues the next ticket, for a message produced by the record at `lsn`.
    fn issue(&self, lsn: Lsn) -> u64 {
        let mut done = self.state.lock();
        done.outstanding.push_back((lsn, false));
        done.through + done.outstanding.len() as u64
    }

    /// Marks ticket `t` complete.
    fn mark(&self, t: u64) {
        let mut done = self.state.lock();
        if t > done.through {
            let i = (t - done.through - 1) as usize;
            done.outstanding[i].1 = true;
        }
        while let Some((_, true)) = done.outstanding.front() {
            done.outstanding.pop_front();
            done.through += 1;
        }
        self.advanced.notify_all();
    }

    /// Blocks until ticket `t` completed.
    fn wait(&self, t: u64) {
        let mut done = self.state.lock();
        while t > done.through && !done.outstanding[(t - done.through - 1) as usize].1 {
            self.advanced.wait(&mut done);
        }
    }

    /// The lowest-unfinished-LSN measure: the LSN before the record that
    /// produced the oldest unfinished ticket, else the stream's applied LSN.
    fn finished_through(&self) -> Lsn {
        let done = self.state.lock();
        let oldest = done.outstanding.front();
        oldest.map_or(done.read, |&(lsn, _)| done.read.min(Lsn(lsn.0 - 1)))
    }
}

struct Job {
    ticket: u64,
    deps: Vec<u64>,
    msg: ApplyMsg,
}

/// The copy window (module docs).
#[derive(Debug, Default)]
struct CopyWindow {
    /// Open while the snapshot copy runs.
    open: AtomicBool,
    /// Catch-up writes that found no version below them while it was open.
    provisional: Mutex<Vec<(TxnId, WriteOp)>>,
    /// The keys the copy placed a row into a mapped chain of: the copy's
    /// gate records them here ([`crate::snapshot::CopyGate::recording`]).
    mapped: MappedKeys,
}

struct ReplayShared {
    cluster: Arc<Cluster>,
    dest: Arc<Node>,
    registry: Arc<ValidationRegistry>,
    stats: Arc<ReplayStats>,
    completion: Completion,
    window: CopyWindow,
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

    /// Marks `ticket` complete and tells whoever waits on progress.
    fn complete(&self, ticket: u64) {
        self.completion.mark(ticket);
        self.stats.progress.notify();
    }

    /// Counts `n` change records applied (`Lock` included).
    fn applied(&self, n: usize) {
        self.dest.work.add(n as u64);
        self.stats.records.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Runs a `Validate`'s ops in its shadow transaction.
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
            self.applied(1);
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
                // The one redo rule, logged, under the shadow id: the source
                // transaction may itself be a 2PC participant on this node.
                // Every version it meets is resolved (module doc), so it
                // never waits. The window is read before the install: a
                // write that found it closed found every row the copy has.
                let copying = self.window.open.load(Ordering::SeqCst);
                let mut out_of_order = None;
                let placed = |op: &WriteOp, placed: Placement| {
                    if copying && placed.on_top && placed.base.is_none() {
                        self.window.provisional.lock().push((xid, op.clone()));
                    } else if !placed.in_order(op.kind) {
                        out_of_order.get_or_insert_with(|| out_of_commit_order(xid, op));
                    }
                };
                let (storage, sxid) = (&self.dest.storage, xid.shadow());
                let redo = log_and_redo_committed(storage, sxid, start_ts, commit_ts, &ops, placed);
                match redo.map(|_| out_of_order) {
                    Ok(None) => {
                        self.applied(ops.len());
                        self.cluster.oracle.observe(self.dest.id(), commit_ts);
                    }
                    // Async replay of a committed source transaction must
                    // land in commit order; anything else is a broken
                    // migration invariant.
                    Ok(Some(e)) => self.set_fatal(e),
                    Err(e) => self.set_fatal(DbError::Internal(format!(
                        "async replay of {xid} failed: {e}"
                    ))),
                }
            }
            ApplyMsg::Validate { xid, start_ts, ops } => {
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
        }
        self.complete(job.ticket);
        self.dest.storage.counters.replay_jobs.inc();
    }
}

/// The replay process: a sharded worker pool and what it has done.
pub struct ReplayProcess {
    /// Counters.
    pub stats: Arc<ReplayStats>,
    shared: Arc<ReplayShared>,
    worker_jobs: Arc<Vec<AtomicU64>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ReplayProcess {
    /// Starts the replay process on `dest` and returns it with the feed its
    /// stream ships through.
    pub fn start(
        cluster: &Arc<Cluster>,
        dest: &Arc<Node>,
        registry: Arc<ValidationRegistry>,
    ) -> (ReplayProcess, ReplayFeed) {
        let stats = Arc::new(ReplayStats::default());
        let shared = Arc::new(ReplayShared {
            cluster: Arc::clone(cluster),
            dest: Arc::clone(dest),
            registry,
            stats: Arc::clone(&stats),
            completion: Completion::default(),
            window: CopyWindow::default(),
            prepared_shadows: Mutex::new(HashSet::new()),
            fatal: Mutex::new(None),
        });

        let n = cluster.config.parallelism.replay_workers.max(1);
        let worker_jobs = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let mut queues = Vec::with_capacity(n);
        let workers = (0..n)
            .map(|w| {
                let (job_tx, job_rx) = unbounded::<Job>();
                queues.push(job_tx);
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
        let feed = ReplayFeed {
            shared: Arc::clone(&shared),
            queues,
            last_key_ticket: HashMap::new(),
            validated: HashMap::new(),
        };
        let replay = ReplayProcess {
            stats,
            shared,
            worker_jobs,
            workers,
        };
        (replay, feed)
    }

    /// Jobs executed by each worker, by worker index (per-worker span
    /// attrs; the feed's inline shadow resolutions are not counted).
    pub fn worker_jobs(&self) -> Vec<u64> {
        self.worker_jobs
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The progress measure (module docs): every source record at or below
    /// it is applied on the destination.
    pub fn finished_through(&self) -> Lsn {
        self.shared.completion.finished_through()
    }

    /// Opens the copy window (module docs): from now until
    /// [`Self::copy_done`], a catch-up write that finds no version below it
    /// is provisional. Called before the stream ships anything. Returns the
    /// set the copy's gate records into
    /// ([`crate::snapshot::CopyGate::recording`]).
    pub fn copy_running(&self) -> MappedKeys {
        self.shared.window.open.store(true, Ordering::SeqCst);
        Arc::clone(&self.shared.window.mapped)
    }

    /// Closes the copy window: the copy is done.
    pub fn copy_done(&self) {
        self.shared.window.open.store(false, Ordering::SeqCst);
    }

    /// Replay's verdict so far, for the migration to take before `T_m`: the
    /// first fatal error (a write out of commit order, a worker panic, a
    /// failed redo), else the first provisional write the copy proved out of
    /// commit order. Ask it once replay finished every message shipped while
    /// the copy window was open.
    pub fn check(&self) -> DbResult<()> {
        if let Some(e) = self.shared.fatal.lock().clone() {
            return Err(e);
        }
        let window = &self.shared.window;
        let mapped = window.mapped.lock();
        let provisional = window.provisional.lock();
        let based = |op: &WriteOp| mapped.contains(&(op.shard, op.key));
        let first = provisional
            .iter()
            .find(|(_, op)| based(op) == (op.kind == WriteKind::Insert));
        first.map_or(Ok(()), |(xid, op)| Err(out_of_commit_order(*xid, op)))
    }

    /// Waits for the workers to finish, which they do once the feed is
    /// dropped. Fails with [`Self::check`]'s verdict (a worker panic is
    /// caught, noted, and surfaced here instead of hanging the pipeline) or
    /// if any shadow transaction is still prepared after a clean drain (the
    /// stream must have resolved every validated shadow).
    pub fn join(mut self) -> Result<(), DbError> {
        let mut thread_died = false;
        for w in self.workers.drain(..) {
            thread_died |= w.join().is_err();
        }
        self.check()?;
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

/// The stream's end of a replay (module docs): assigns tickets in stream
/// order on the thread that ships. Dropping it lets the workers drain and
/// exit.
pub struct ReplayFeed {
    shared: Arc<ReplayShared>,
    queues: Vec<Sender<Job>>,
    /// The last ticket that touched each key: the key fence.
    last_key_ticket: HashMap<(ShardId, Key), u64>,
    /// Synchronized transactions whose `Validate` was shipped and whose
    /// decision was not: the `Validate`'s ticket.
    validated: HashMap<TxnId, u64>,
}

impl ReplayFeed {
    /// Whether `xid`'s `Validate` was shipped: its decision record ships the
    /// shadow's, not a second copy of the writes.
    pub(crate) fn validated(&self, xid: TxnId) -> bool {
        self.validated.contains_key(&xid)
    }

    /// Every source record up to `lsn` was read and what it produced was
    /// shipped: the measure may move (the stream calls this per batch).
    pub(crate) fn read_through(&self, lsn: Lsn) {
        self.shared.completion.state.lock().read = lsn;
        self.shared.stats.progress.notify();
    }

    /// Ships `msg`, produced by the source record at `lsn`: the next ticket,
    /// its key-fence dependencies and the worker its smallest key routes to.
    /// A shadow's resolution depends only on its `Validate` and runs inline,
    /// which keeps stream order for the same xid.
    pub fn ship(&mut self, lsn: Lsn, msg: ApplyMsg) {
        let ticket = self.shared.completion.issue(lsn);
        let ops = match &msg {
            ApplyMsg::Committed { ops, .. } => ops,
            ApplyMsg::Validate { xid, ops, .. } => {
                self.validated.insert(*xid, ticket);
                ops
            }
            ApplyMsg::CommitShadow { xid, .. } | ApplyMsg::RollbackShadow { xid } => {
                let deps = self.validated.remove(xid).into_iter().collect();
                let job = Job { ticket, deps, msg };
                if catch_unwind(AssertUnwindSafe(|| self.shared.run_job(job))).is_err() {
                    self.shared.note_panic(ticket);
                }
                return;
            }
        };
        let worker = route_of(ops, self.queues.len());
        let mut deps: Vec<u64> = ops
            .iter()
            .filter_map(|op| self.last_key_ticket.insert((op.shard, op.key), ticket))
            // A message touching the same key twice must not depend on
            // itself.
            .filter(|&d| d != ticket)
            .collect();
        deps.sort_unstable();
        deps.dedup();
        let job = Job { ticket, deps, msg };
        self.queues[worker].send(job).expect("workers alive");
    }
}

/// What a catch-up write out of commit order fails the migration with.
fn out_of_commit_order(xid: TxnId, op: &WriteOp) -> DbError {
    let (kind, shard, key) = (op.kind, op.shard, op.key);
    DbError::Internal(format!(
        "async replay of {xid}: {kind:?} of {shard:?} key {key} is out of commit order"
    ))
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

    fn setup() -> (Arc<Cluster>, ReplayFeed, ReplayProcess) {
        let mut config = SimConfig::instant();
        config.parallelism.replay_workers = 4;
        let cluster = ClusterBuilder::new(2).config(config).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let dest = Arc::clone(cluster.node(NodeId(1)));
        dest.storage.create_shard(ShardId(0));
        let registry = Arc::new(ValidationRegistry::new());
        let (replay, feed) = ReplayProcess::start(&cluster, &dest, registry);
        (cluster, feed, replay)
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
        let (cluster, mut feed, replay) = setup();
        feed.ship(
            Lsn(1),
            ApplyMsg::Committed {
                xid: xid(1),
                start_ts: Timestamp(10),
                commit_ts: Timestamp(20),
                ops: vec![op(0, 1, WriteKind::Insert, "a")],
            },
        );
        drop(feed);
        replay.join().unwrap();
        // Visible at ts 20 and later, invisible before.
        assert_eq!(read_at(&cluster, NodeId(1), 1, 20), Some(val("a")));
        assert_eq!(read_at(&cluster, NodeId(1), 1, 19), None);
    }

    #[test]
    fn conflicting_replays_apply_in_commit_order() {
        let (cluster, mut feed, replay) = setup();
        // Many updates to the same key: the fence must serialize them in
        // stream order despite 4 parallel workers.
        feed.ship(
            Lsn(1),
            ApplyMsg::Committed {
                xid: xid(0),
                start_ts: Timestamp(5),
                commit_ts: Timestamp(10),
                ops: vec![op(0, 7, WriteKind::Insert, "v0")],
            },
        );
        for i in 1..50u64 {
            feed.ship(
                Lsn(i + 1),
                ApplyMsg::Committed {
                    xid: xid(i),
                    start_ts: Timestamp(10 * i + 5),
                    commit_ts: Timestamp(10 * (i + 1)),
                    ops: vec![op(0, 7, WriteKind::Update, &format!("v{i}"))],
                },
            );
        }
        feed.read_through(Lsn(50));
        let all_done = || replay.finished_through() == Lsn(50);
        assert!(replay
            .stats
            .progress
            .park_until(all_done, Duration::from_secs(5)));
        drop(feed);
        replay.join().unwrap();
        assert_eq!(read_at(&cluster, NodeId(1), 7, 505), Some(val("v49")));
        // Intermediate snapshots see intermediate values.
        assert_eq!(read_at(&cluster, NodeId(1), 7, 105), Some(val("v9")));
    }

    #[test]
    fn disjoint_replays_run_concurrently_and_all_apply() {
        let (cluster, mut feed, replay) = setup();
        for i in 0..200u64 {
            feed.ship(
                Lsn(i + 1),
                ApplyMsg::Committed {
                    xid: xid(i),
                    start_ts: Timestamp(5),
                    commit_ts: Timestamp(10 + i),
                    ops: vec![op(0, i, WriteKind::Insert, "x")],
                },
            );
        }
        drop(feed);
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
        let (replay, mut feed) = ReplayProcess::start(&cluster, &dest, Arc::clone(&registry));

        feed.ship(
            Lsn(1),
            ApplyMsg::Validate {
                xid: xid(1),
                start_ts: Timestamp(10),
                ops: vec![op(0, 3, WriteKind::Insert, "s")],
            },
        );
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
        feed.ship(
            Lsn(2),
            ApplyMsg::CommitShadow {
                xid: xid(1),
                commit_ts: Timestamp(30),
            },
        );
        drop(feed);
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
        let (replay, mut feed) = ReplayProcess::start(&cluster, &dest, Arc::clone(&registry));

        // A destination transaction wrote key 3 and committed "after" the
        // source transaction's snapshot.
        let session = remus_cluster::Session::connect(&cluster, NodeId(1));
        session.run(|t| t.insert(&layout, 3, val("base"))).unwrap();
        let (_, dest_cts) = session.run(|t| t.update(&layout, 3, val("newer"))).unwrap();

        // Source transaction with an older snapshot tries to update key 3.
        feed.ship(
            Lsn(1),
            ApplyMsg::Validate {
                xid: xid(1),
                start_ts: Timestamp(dest_cts.0 - 1),
                ops: vec![op(0, 3, WriteKind::Update, "stale")],
            },
        );
        let err = registry
            .await_verdict(xid(1), Duration::from_secs(2))
            .unwrap_err();
        assert!(matches!(err, DbError::WwConflict { .. }));
        feed.ship(Lsn(2), ApplyMsg::RollbackShadow { xid: xid(1) });
        drop(feed);
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
        let (replay, mut feed) = ReplayProcess::start(&cluster, &dest, Arc::clone(&registry));
        feed.ship(
            Lsn(1),
            ApplyMsg::Validate {
                xid: xid(1),
                start_ts: Timestamp(10),
                ops: vec![op(0, 3, WriteKind::Insert, "doomed")],
            },
        );
        registry
            .await_verdict(xid(1), Duration::from_secs(2))
            .unwrap();
        feed.ship(Lsn(2), ApplyMsg::RollbackShadow { xid: xid(1) });
        drop(feed);
        replay.join().unwrap();
        assert_eq!(read_at(&cluster, NodeId(1), 3, 1_000_000), None);
        assert_eq!(replay_stats_prepared(&cluster), 0);
    }

    fn replay_stats_prepared(cluster: &Arc<Cluster>) -> usize {
        cluster.node(NodeId(1)).storage.clog.prepared_txns().len()
    }

    #[test]
    fn fatal_surfaces_broken_async_replay() {
        // Updating a key that does not exist on the destination is a
        // protocol violation for async replay.
        let err = replay_committed(&[(404, WriteKind::Update, 10, 20)]).unwrap_err();
        assert!(matches!(err, DbError::Internal(_)), "{err:?}");
    }

    /// Ships `msgs` as committed transactions `(key, kind, start, commit)`
    /// and answers what the drained replay reports.
    fn replay_committed(msgs: &[(Key, WriteKind, u64, u64)]) -> Result<(), DbError> {
        let (_cluster, mut feed, replay) = setup();
        for (i, &(key, kind, start, commit)) in msgs.iter().enumerate() {
            let msg = ApplyMsg::Committed {
                xid: xid(i as u64),
                start_ts: Timestamp(start),
                commit_ts: Timestamp(commit),
                ops: vec![op(0, key, kind, "x")],
            };
            feed.ship(Lsn(i as u64 + 1), msg);
        }
        drop(feed);
        replay.join()
    }

    #[test]
    fn fatal_surfaces_an_insert_over_a_live_version() {
        let err = replay_committed(&[
            (5, WriteKind::Insert, 10, 20),
            (5, WriteKind::Insert, 25, 30),
        ])
        .unwrap_err();
        assert!(matches!(err, DbError::Internal(_)), "{err:?}");
    }

    #[test]
    fn fatal_surfaces_a_version_already_committed_above() {
        // The update at 20 finds a live base (the insert at 10) but a
        // version committed at 40 already above its place.
        let err = replay_committed(&[
            (6, WriteKind::Insert, 5, 10),
            (6, WriteKind::Update, 35, 40),
            (6, WriteKind::Update, 15, 20),
        ])
        .unwrap_err();
        assert!(matches!(err, DbError::Internal(_)), "{err:?}");
    }

    /// The progress measure stops at the oldest ticket not yet complete: a
    /// later ticket's completion does not move it, and it reaches the
    /// stream's applied LSN once that ticket completes.
    #[test]
    fn progress_is_the_lowest_unfinished_lsn_and_a_later_completion_does_not_move_it() {
        let completion = Completion::default();
        assert_eq!(completion.finished_through(), Lsn::ZERO);
        // Tickets 1 and 2, produced by the records at LSN 3 and 6; the
        // stream has read through LSN 7.
        assert_eq!(completion.issue(Lsn(3)), 1);
        assert_eq!(completion.issue(Lsn(6)), 2);
        completion.state.lock().read = Lsn(7);
        assert_eq!(completion.finished_through(), Lsn(2));
        completion.mark(2);
        completion.wait(2);
        assert_eq!(
            completion.finished_through(),
            Lsn(2),
            "a later completion moved the measure"
        );
        completion.mark(1);
        completion.wait(1);
        assert_eq!(completion.finished_through(), Lsn(7));
        // A ticket issued after the prefix completed continues the count.
        assert_eq!(completion.issue(Lsn(9)), 3);
        assert_eq!(completion.finished_through(), Lsn(7));
        completion.state.lock().read = Lsn(9);
        assert_eq!(completion.finished_through(), Lsn(8));
    }
}
