//! Snapshot copying (paper §3.2), parallelized into key-range chunks.
//!
//! Multi-versioning creates the shard snapshot for free: the copy scans the
//! source shard for the versions visible at the snapshot timestamp and
//! streams them into the destination shard. The scan is batched (the source
//! latch is released between batches) and holds no locks against normal
//! processing; the snapshot pin only blocks vacuum, which is exactly the
//! version-chain pressure §4.8 measures.
//!
//! **One install order.** Each row is installed the way catch-up places a
//! committed write ([`VersionedTable::install_committed`]): as a version
//! stamped with the row's *source* commit timestamp, below any version
//! committed after it. §3.2 installs copied tuples at a reserved minimal
//! commit timestamp instead; the source timestamp is what lets the copy and
//! catch-up land in either order. Catch-up only ships commits above the
//! snapshot timestamp, and every copied row committed at or below it, so a
//! key's chain ends up in commit order whichever arrives first (DBLog's
//! argument): a row copied after catch-up wrote the key goes under that
//! write, and a retried chunk finds each row it already installed at the
//! same timestamp and edits it in place. So nothing waits for the copy.
//! Readers are unaffected: a transaction reaches the destination only with
//! a snapshot above `T_m`, and a replica reads above its cut, both above
//! every copied timestamp.
//!
//! What catch-up cannot tell while the copy runs is whether a key it found
//! empty will get a base: a migration's gate records each key whose chain
//! was already mapped when its row landed into the replay's
//! [`MappedKeys`] ([`CopyGate::recording`]), and the replay reconciles its
//! provisional writes against that set before `T_m` (`crate::replay`).
//! Other copies record nothing.
//!
//! A [`CopyGate`] is the one chunk map: each shard cut into chunks at
//! [`ParallelismConfig::chunk_size`]-key boundaries, a done flag per chunk,
//! and the one pool that drains them on `copy_workers` threads. The push
//! copy runs the pool with `copy_chunk` as its chunk body; a replica's
//! backfill runs the same copy, and Squall plans its pulls through a gate
//! too and runs the pool with its pull (`crate::squall`). All of them move a
//! chunk with `move_range`, the one scan of a key range into
//! `install_committed`.
//!
//! [`ParallelismConfig::chunk_size`]: remus_common::ParallelismConfig::chunk_size
//! [`VersionedTable::install_committed`]: remus_storage::VersionedTable::install_committed

use std::collections::{HashMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use remus_cluster::{Cluster, Node};
use remus_common::fault::{FaultAction, InjectionPoint};
use remus_common::{time, DbError, DbResult, ShardId, Timestamp, TxnId};
use remus_storage::clog::FROZEN_TXN;
use remus_storage::{Key, WriteKind::Insert};

use crate::trace::{SpanId, TraceRecorder};

/// Attempts per chunk before a repeatedly-crashing copy worker gives up and
/// fails the migration.
const MAX_CHUNK_ATTEMPTS: usize = 4;

/// Tuples a crashing worker installs before dying, so retries exercise the
/// partially-copied-chunk path.
const CRASH_AFTER_TUPLES: u64 = 16;

/// A shard's key space cut into chunks at sorted split keys
/// (`VersionedTable::chunk_splits`): chunk `i` covers
/// `[splits[i-1], splits[i])` with unbounded first/last ends. `n` splits make
/// `n + 1` chunks.
#[derive(Debug)]
pub(crate) struct ChunkSplits(pub(crate) Vec<Key>);

impl ChunkSplits {
    pub(crate) fn chunk_count(&self) -> usize {
        self.0.len() + 1
    }

    /// The chunk covering `key`: the number of splits at or below it.
    pub(crate) fn chunk_of(&self, key: Key) -> usize {
        self.0.partition_point(|s| *s <= key)
    }

    /// Half-open key range of chunk `idx`.
    pub(crate) fn range_of(&self, idx: usize) -> (Bound<Key>, Bound<Key>) {
        let lo = if idx == 0 {
            Bound::Unbounded
        } else {
            Bound::Included(self.0[idx - 1])
        };
        let hi = match self.0.get(idx) {
            Some(s) => Bound::Excluded(*s),
            None => Bound::Unbounded,
        };
        (lo, hi)
    }
}

/// One shard's chunk layout inside a [`CopyGate`].
#[derive(Debug)]
struct ShardPlan {
    splits: ChunkSplits,
    /// Offset of this shard's chunk 0 in the gate's flat state vectors.
    base: usize,
}

impl ShardPlan {
    fn chunk(&self, shard: ShardId, idx: usize) -> ChunkJob {
        ChunkJob {
            shard,
            idx,
            flat: self.base + idx,
            range: self.splits.range_of(idx),
        }
    }
}

#[derive(Debug)]
struct GateState {
    done: Vec<bool>,
    poisoned: bool,
}

/// The keys whose chain was already mapped when a copy installed their row:
/// catch-up wrote (or locked) them first (module docs).
pub type MappedKeys = Arc<Mutex<HashSet<(ShardId, Key)>>>;

/// The chunk map of one migration's copy (or of Squall's pulls, or of a
/// replica's backfill), and the pool that moves the chunks.
///
/// Built from the source tables *before* the copy starts. Poisoning stops
/// the pool: a failed chunk, or a stop from outside, hands out no further
/// chunk.
#[derive(Debug)]
pub struct CopyGate {
    plans: HashMap<ShardId, ShardPlan>,
    state: Mutex<GateState>,
    /// Where the copy records [`MappedKeys`]; `None` records nothing.
    mapped: Option<MappedKeys>,
}

/// One unit of copy work: a key-range chunk of one shard.
#[derive(Debug, Clone, Copy)]
pub struct ChunkJob {
    /// Shard the chunk belongs to.
    pub shard: ShardId,
    /// Chunk index within the shard.
    pub idx: usize,
    /// Index into the gate's flat completion state.
    pub(crate) flat: usize,
    /// Half-open key range.
    range: (Bound<Key>, Bound<Key>),
}

/// What a drain of a poisoned gate answers.
fn poisoned() -> DbError {
    DbError::Migration("snapshot copy failed".into())
}

impl CopyGate {
    /// Plans the chunk layout for a task's shards on the source node.
    /// Fails with `NotOwner` if the source does not host one of them.
    pub fn plan(shards: &[ShardId], source: &Node, chunk_size: u64) -> DbResult<CopyGate> {
        let mut plans = HashMap::new();
        let mut base = 0usize;
        for &shard in shards {
            let table = source.storage.table_or_err(shard)?;
            let splits = ChunkSplits(table.chunk_splits(chunk_size));
            let n = splits.chunk_count();
            plans.insert(shard, ShardPlan { splits, base });
            base += n;
        }
        Ok(CopyGate::with_plans(plans, base))
    }

    fn with_plans(plans: HashMap<ShardId, ShardPlan>, chunks: usize) -> CopyGate {
        CopyGate {
            plans,
            state: Mutex::new(GateState {
                done: vec![false; chunks],
                poisoned: false,
            }),
            mapped: None,
        }
    }

    /// This gate, its copy recording into `mapped` — a migration's, whose
    /// replay hands the set out
    /// ([`crate::replay::ReplayProcess::copy_running`]).
    pub fn recording(self, mapped: MappedKeys) -> CopyGate {
        CopyGate {
            mapped: Some(mapped),
            ..self
        }
    }

    /// Total chunks across all shards.
    pub fn chunk_count(&self) -> usize {
        self.plans.values().map(|p| p.splits.chunk_count()).sum()
    }

    /// The chunks of `shard` in key order; none for a shard outside the gate.
    pub(crate) fn chunks_of(&self, shard: ShardId) -> impl Iterator<Item = ChunkJob> + '_ {
        let plan = self.plans.get(&shard);
        plan.into_iter()
            .flat_map(move |p| (0..p.splits.chunk_count()).map(move |idx| p.chunk(shard, idx)))
    }

    /// The chunk holding `(shard, key)`; `None` for a shard outside the gate.
    pub(crate) fn chunk_of(&self, shard: ShardId, key: Key) -> Option<ChunkJob> {
        let plan = self.plans.get(&shard)?;
        Some(plan.chunk(shard, plan.splits.chunk_of(key)))
    }

    /// Whether `chunk` is marked copied: a look that never blocks.
    pub(crate) fn is_copied(&self, chunk: &ChunkJob) -> bool {
        self.state.lock().done[chunk.flat]
    }

    /// True once some chunk of `shard` is copied.
    pub(crate) fn any_copied(&self, shard: ShardId) -> bool {
        let Some(plan) = self.plans.get(&shard) else {
            return false;
        };
        let chunks = plan.base..plan.base + plan.splits.chunk_count();
        self.state.lock().done[chunks].contains(&true)
    }

    /// Marks a chunk (by its flat index) copied.
    pub(crate) fn mark_copied(&self, flat: usize) {
        self.state.lock().done[flat] = true;
    }

    /// Poisons the gate: the pool hands out no further chunk.
    pub fn poison(&self) {
        self.state.lock().poisoned = true;
    }

    /// True once the gate is poisoned.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.state.lock().poisoned
    }

    /// True once every chunk completed.
    pub fn all_copied(&self) -> bool {
        let state = self.state.lock();
        state.done.iter().all(|d| *d)
    }

    /// The one chunk pool: drains every chunk, shard by shard in key order,
    /// on `workers` scoped threads. `body(chunk, worker)` moves one chunk and
    /// answers its tuple count; the chunk is then marked copied. The first
    /// error poisons the gate and is returned, and a poisoned gate — by a
    /// failed body or by a stop from outside — hands out no further chunk.
    /// Returns the tuples moved.
    pub(crate) fn drain(
        &self,
        workers: usize,
        body: impl Fn(&ChunkJob, usize) -> DbResult<u64> + Sync,
    ) -> DbResult<u64> {
        let mut shards: Vec<ShardId> = self.plans.keys().copied().collect();
        shards.sort();
        let jobs: Vec<ChunkJob> = shards.into_iter().flat_map(|s| self.chunks_of(s)).collect();
        let next = AtomicUsize::new(0);
        let total = AtomicU64::new(0);
        let first_err = Mutex::new(None);
        std::thread::scope(|scope| {
            for worker in 0..workers.clamp(1, jobs.len().max(1)) {
                let (jobs, next, total, first_err, body) =
                    (&jobs, &next, &total, &first_err, &body);
                scope.spawn(move || {
                    while let Some(chunk) = jobs.get(next.fetch_add(1, Ordering::SeqCst)) {
                        let outcome = if self.is_poisoned() {
                            Err(poisoned())
                        } else {
                            body(chunk, worker)
                        };
                        match outcome {
                            Ok(tuples) => {
                                total.fetch_add(tuples, Ordering::SeqCst);
                                self.mark_copied(chunk.flat);
                            }
                            Err(e) => {
                                first_err.lock().get_or_insert(e);
                                self.poison();
                                return;
                            }
                        }
                    }
                });
            }
        });
        match first_err.into_inner() {
            Some(e) => Err(e),
            None => Ok(total.into_inner()),
        }
    }
}

/// The one range move: streams the versions of `chunk`'s key range visible
/// at `ts` on `source` into `dest`'s table, each at its source commit
/// timestamp ([`VersionedTable::install_committed`], module docs), and
/// records in `mapped`, if given, the keys whose chain was already mapped.
/// Each tuple costs `per_tuple` and counts as work on both nodes, paid in
/// batches of 256 to keep a modeled bandwidth without a syscall per tuple.
/// Installs at most `limit` tuples. Returns the tuples installed.
///
/// [`VersionedTable::install_committed`]: remus_storage::VersionedTable::install_committed
pub(crate) fn move_range(
    source: &Node,
    dest: &Node,
    chunk: &ChunkJob,
    ts: Timestamp,
    per_tuple: Duration,
    limit: u64,
    mapped: Option<&MappedKeys>,
) -> DbResult<u64> {
    let src_table = source.storage.table_or_err(chunk.shard)?;
    let dst_table = dest.storage.table_or_err(chunk.shard)?;
    let pay = |tuples: u32| {
        source.work.add(tuples as u64);
        dest.work.add(tuples as u64);
        time::charge(per_tuple * tuples);
    };
    let (mut moved, mut batch) = (0u64, 0u32);
    let clog = &dest.storage.clog;
    src_table.scan_versioned(
        chunk.range,
        ts,
        TxnId::INVALID,
        &source.storage.clog,
        source.storage.config.lock_wait_timeout,
        |key, value, cts| {
            if moved < limit {
                let placed = dst_table.install_committed(key, Insert, value, FROZEN_TXN, cts, clog);
                if let Some(mapped) = mapped.filter(|_| placed.mapped) {
                    mapped.lock().insert((chunk.shard, key));
                }
                moved += 1;
                batch += 1;
                if batch == 256 {
                    pay(batch);
                    batch = 0;
                }
            }
        },
    )?;
    pay(batch);
    Ok(moved)
}

/// The push copy's chunk body: one attempt at copying `chunk` at
/// `snapshot_ts`. Returns tuples copied. A `CopyChunk` fault of
/// `Fail`/`Crash` kills the worker mid-chunk: a prefix of the chunk is
/// installed, then the attempt errs — the caller retries the whole chunk.
fn copy_chunk(
    cluster: &Cluster,
    gate: &CopyGate,
    source: &Node,
    dest: &Node,
    chunk: &ChunkJob,
    snapshot_ts: Timestamp,
) -> DbResult<u64> {
    let crash = matches!(
        cluster.fault_at(InjectionPoint::CopyChunk, source.id()),
        FaultAction::Fail | FaultAction::Crash
    );
    let limit = if crash { CRASH_AFTER_TUPLES } else { u64::MAX };
    let per_tuple = cluster.config.snapshot_copy_per_tuple;
    let mapped = gate.mapped.as_ref();
    let copied = move_range(source, dest, chunk, snapshot_ts, per_tuple, limit, mapped)?;
    if crash {
        return Err(DbError::NodeUnavailable(source.id()));
    }
    Ok(copied)
}

/// Copies every chunk of the gate's shards from `source` to `dest` on the
/// gate's pool, [`ParallelismConfig::copy_workers`] wide, each chunk tried
/// up to `MAX_CHUNK_ATTEMPTS` times. Destination tables for all shards are
/// created before any worker starts. Per-chunk child spans are recorded
/// under `parent` when a recorder is given. Returns total tuples copied; on
/// failure the gate is poisoned.
///
/// [`ParallelismConfig::copy_workers`]: remus_common::ParallelismConfig::copy_workers
pub fn copy_task_snapshots_gated(
    cluster: &Arc<Cluster>,
    source: &Node,
    dest: &Node,
    snapshot_ts: Timestamp,
    gate: &CopyGate,
    rec: Option<(&TraceRecorder, SpanId)>,
) -> DbResult<u64> {
    for &shard in gate.plans.keys() {
        dest.storage.create_shard(shard);
    }
    let chunk_counter = cluster.metrics.counter("migration.copy_chunks");
    gate.drain(cluster.config.parallelism.copy_workers, |chunk, worker| {
        let span = rec.map(|(r, parent)| {
            let s = r.child(parent, "copy_chunk");
            r.attr(s, "shard", chunk.shard.0);
            r.attr(s, "chunk", chunk.idx as u64);
            r.attr(s, "worker", worker as u64);
            (r, s)
        });
        let mut attempt = 1;
        let outcome = loop {
            match copy_chunk(cluster, gate, source, dest, chunk, snapshot_ts) {
                Err(_) if attempt < MAX_CHUNK_ATTEMPTS => {
                    if let Some((r, s)) = span {
                        r.attr(s, "retries", attempt as u64);
                    }
                    attempt += 1;
                }
                outcome => break outcome,
            }
        };
        if let Ok(tuples) = outcome {
            chunk_counter.inc();
            if let Some((r, s)) = span {
                r.attr(s, "tuples", tuples);
                r.attr(s, "copy_lsn", source.storage.wal.flush_lsn().0);
            }
        }
        if let Some((r, s)) = span {
            r.end(s);
        }
        outcome
    })
}

/// Copies the snapshot of `shard` (visible at `snapshot_ts`) from `source`
/// to `dest`, creating the destination shard table: the whole shard as one
/// range move, with no fault seam and no chunk plan — the sequential
/// reference the chunked copy is tested against. Returns tuples copied.
pub fn copy_shard_snapshot(
    cluster: &Arc<Cluster>,
    source: &Node,
    dest: &Node,
    shard: ShardId,
    snapshot_ts: Timestamp,
) -> DbResult<u64> {
    source.storage.table_or_err(shard)?;
    dest.storage.create_shard(shard);
    let whole = ChunkJob {
        shard,
        idx: 0,
        flat: 0,
        range: (Bound::Unbounded, Bound::Unbounded),
    };
    let per_tuple = cluster.config.snapshot_copy_per_tuple;
    move_range(source, dest, &whole, snapshot_ts, per_tuple, u64::MAX, None)
}

/// Copies all of a task's shards with the configured chunked worker pool
/// (collocated migration copies collocated shards together, §3.8). Returns
/// total tuples copied. Callers that do not interleave replay use this
/// convenience wrapper; engines that do build the [`CopyGate`] themselves.
pub fn copy_task_snapshots(
    cluster: &Arc<Cluster>,
    shards: &[ShardId],
    source: &Node,
    dest: &Node,
    snapshot_ts: Timestamp,
) -> DbResult<u64> {
    let chunk_size = cluster.config.parallelism.chunk_size;
    let gate = CopyGate::plan(shards, source, chunk_size)?;
    copy_task_snapshots_gated(cluster, source, dest, snapshot_ts, &gate, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::{NodeId, TableId};
    use remus_storage::Value;

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn copies_exactly_the_snapshot() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..100 {
            session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
        }
        let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
        // Changes after the snapshot must not be copied.
        session.run(|t| t.update(&layout, 5, val("v1"))).unwrap();
        session
            .run(|t| t.insert(&layout, 999, val("late")))
            .unwrap();

        let (src, dst) = (cluster.node(NodeId(0)), cluster.node(NodeId(1)));
        let copied = copy_shard_snapshot(&cluster, src, dst, ShardId(0), snapshot_ts).unwrap();
        assert_eq!(copied, 100);

        let t = std::time::Duration::from_secs(1);
        let read = |node: &Node, key, ts| {
            let table = node.storage.table(ShardId(0)).unwrap();
            let clog = &node.storage.clog;
            table
                .read_versioned(key, ts, TxnId::INVALID, clog, t)
                .unwrap()
        };
        // Each row carries its source commit timestamp: visible from there on,
        // and not to a snapshot below it.
        let (v0, cts) = read(src, 5, snapshot_ts).unwrap();
        assert_eq!(read(dst, 5, Timestamp::MAX), Some((v0, cts)));
        assert_eq!(read(dst, 5, Timestamp(cts.0 - 1)), None);
        assert_eq!(read(dst, 999, Timestamp::MAX), None);
    }

    /// A copied row goes under a version committed after it, and a retry
    /// of the copy edits the row it already installed: the chain is the
    /// same whichever lands first and however often the copy runs.
    #[test]
    fn a_copy_goes_under_a_later_write_and_a_retry_edits_in_place() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..4 {
            session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
        }
        let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
        let (src, dst) = (cluster.node(NodeId(0)), cluster.node(NodeId(1)));
        let table = dst.storage.create_shard(ShardId(0));
        // Catch-up's update of key 2 lands before the copy.
        let late = TxnId::new(NodeId(0), 999);
        let update = [remus_wal::WriteOp {
            shard: ShardId(0),
            key: 2,
            kind: remus_storage::WriteKind::Update,
            value: val("v1"),
        }];
        let later = Timestamp(snapshot_ts.0 + 10);
        remus_txn::redo_committed(&dst.storage, late, later, &update, |_, _| {}).unwrap();
        let copy = || {
            let mapped = MappedKeys::default();
            let gate = CopyGate::plan(&[ShardId(0)], src, 64).unwrap();
            let gate = gate.recording(Arc::clone(&mapped));
            copy_task_snapshots_gated(&cluster, src, dst, snapshot_ts, &gate, None).unwrap();
            let keys = mapped.lock().clone();
            keys
        };
        assert_eq!(copy(), HashSet::from([(ShardId(0), 2)]));
        // A retry finds every row mapped, by itself.
        assert_eq!(copy().len(), 4);
        let values = |key| -> Vec<Value> {
            table
                .chain_snapshot(key)
                .into_iter()
                .map(|v| v.value)
                .collect()
        };
        assert_eq!(values(2), [val("v1"), val("v0")]);
        assert_eq!(values(3), [val("v0")]);
        let clog = &dst.storage.clog;
        let t = Duration::from_secs(1);
        let at = |ts| table.read(2, ts, TxnId::INVALID, clog, t).unwrap();
        assert_eq!(at(snapshot_ts), Some(val("v0")));
        assert_eq!(at(later), Some(val("v1")));
    }

    #[test]
    fn collocated_copy_moves_all_shards() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 4, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..200 {
            session.run(|t| t.insert(&layout, k, val("x"))).unwrap();
        }
        let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
        let shards: Vec<ShardId> = layout.shard_ids().collect();
        let (src, dst) = (cluster.node(NodeId(0)), cluster.node(NodeId(1)));
        let copied = copy_task_snapshots(&cluster, &shards, src, dst, snapshot_ts).unwrap();
        assert_eq!(copied, 200);
        for shard in shards {
            assert!(dst.storage.hosts(shard));
        }
    }

    #[test]
    fn copy_of_missing_shard_fails() {
        let cluster = ClusterBuilder::new(2).build();
        let (src, dst) = (cluster.node(NodeId(0)), cluster.node(NodeId(1)));
        let err = copy_shard_snapshot(&cluster, src, dst, ShardId(9), Timestamp(5)).unwrap_err();
        assert!(matches!(err, remus_common::DbError::NotOwner { .. }));
        // The chunked planner fails the same way before any work starts.
        let err = CopyGate::plan(&[ShardId(9)], src, 64).unwrap_err();
        assert!(matches!(err, remus_common::DbError::NotOwner { .. }));
    }

    /// Copies via the gated pool and returns (copied, gate) for inspection.
    fn gated_copy(
        cluster: &Arc<remus_cluster::Cluster>,
        shards: &[ShardId],
        chunk_size: u64,
        snapshot_ts: Timestamp,
    ) -> (u64, Arc<CopyGate>) {
        let (src, dst) = (cluster.node(NodeId(0)), cluster.node(NodeId(1)));
        let gate = Arc::new(CopyGate::plan(shards, src, chunk_size).unwrap());
        let copied =
            copy_task_snapshots_gated(cluster, src, dst, snapshot_ts, &gate, None).unwrap();
        (copied, gate)
    }

    /// Sorted (key, value) dump of a shard visible at `ts` on a node.
    fn dump(
        cluster: &Arc<remus_cluster::Cluster>,
        node: NodeId,
        shard: ShardId,
        ts: Timestamp,
    ) -> Vec<(u64, Value)> {
        let n = cluster.node(node);
        let table = n.storage.table(shard).unwrap();
        table
            .scan_visible_range(.., ts, &n.storage.clog, Duration::from_secs(1))
            .unwrap()
    }

    #[test]
    fn single_worker_chunked_copy_matches_sequential_byte_for_byte() {
        let mut config = remus_common::SimConfig::instant();
        config.parallelism.copy_workers = 1;
        config.parallelism.chunk_size = 16;
        let cluster = ClusterBuilder::new(3).config(config).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..100 {
            session
                .run(|t| t.insert(&layout, k * 3, Value::from(vec![k as u8; 9])))
                .unwrap();
        }
        let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
        // Sequential reference copy to node 2.
        let (src, seq_dst) = (cluster.node(NodeId(0)), cluster.node(NodeId(2)));
        let seq = copy_shard_snapshot(&cluster, src, seq_dst, ShardId(0), snapshot_ts).unwrap();
        // Chunked single-worker copy to node 1.
        let (chunked, gate) = gated_copy(&cluster, &[ShardId(0)], 16, snapshot_ts);
        assert_eq!(seq, chunked);
        assert!(gate.all_copied());
        assert_eq!(
            dump(&cluster, NodeId(1), ShardId(0), snapshot_ts),
            dump(&cluster, NodeId(2), ShardId(0), snapshot_ts),
        );
    }

    #[test]
    fn more_workers_than_chunks_copies_everything_once() {
        let mut config = remus_common::SimConfig::instant();
        config.parallelism.copy_workers = 16;
        let cluster = ClusterBuilder::new(2).config(config).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..40 {
            session.run(|t| t.insert(&layout, k, val("w"))).unwrap();
        }
        let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
        // chunk_size 32 over 40 keys -> 2 chunks, 16 workers.
        let (copied, gate) = gated_copy(&cluster, &[ShardId(0)], 32, snapshot_ts);
        assert_eq!(copied, 40);
        assert_eq!(gate.chunk_count(), 2);
        assert_eq!(dump(&cluster, NodeId(1), ShardId(0), snapshot_ts).len(), 40);
    }

    #[test]
    fn empty_shard_copies_as_one_empty_chunk() {
        let cluster = ClusterBuilder::new(2).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
        let (copied, gate) = gated_copy(&cluster, &[ShardId(0)], 8, snapshot_ts);
        assert_eq!(copied, 0);
        assert_eq!(gate.chunk_count(), 1);
        assert!(gate.all_copied());
        assert!(cluster.node(NodeId(1)).storage.hosts(ShardId(0)));
    }

    #[test]
    fn chunk_boundary_through_version_chain_copies_the_snapshot_version() {
        // Key 8 sits exactly on a chunk split (chunk_size 8 over keys 0..16)
        // and carries a multi-version chain; only the snapshot-visible
        // version must cross.
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..16 {
            session.run(|t| t.insert(&layout, k, val("old"))).unwrap();
        }
        session.run(|t| t.update(&layout, 8, val("mid"))).unwrap();
        let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
        session.run(|t| t.update(&layout, 8, val("new"))).unwrap();
        let src = cluster.node(NodeId(0));
        let gate = CopyGate::plan(&[ShardId(0)], src, 8).unwrap();
        assert_eq!(gate.chunk_count(), 2);
        // The split key starts the second chunk.
        assert_eq!(gate.plans[&ShardId(0)].splits.chunk_of(7), 0);
        assert_eq!(gate.plans[&ShardId(0)].splits.chunk_of(8), 1);
        let (copied, _) = gated_copy(&cluster, &[ShardId(0)], 8, snapshot_ts);
        assert_eq!(copied, 16);
        let rows = dump(&cluster, NodeId(1), ShardId(0), snapshot_ts);
        let v8 = rows.iter().find(|(k, _)| *k == 8).unwrap();
        assert_eq!(v8.1, val("mid"));
    }

    #[test]
    fn chunk_map_boundaries() {
        // Keys 10, 20, 30, 40, 50 in chunks of two split at 30 and 50.
        let splits = ChunkSplits(vec![30, 50]);
        // Chunks: [0,30), [30,50), [50,∞).
        assert_eq!(splits.chunk_count(), 3);
        assert_eq!(splits.chunk_of(0), 0);
        assert_eq!(splits.chunk_of(29), 0);
        assert_eq!(splits.chunk_of(30), 1);
        assert_eq!(splits.chunk_of(49), 1);
        assert_eq!(splits.chunk_of(50), 2);
        assert_eq!(splits.chunk_of(u64::MAX), 2);
        assert_eq!(splits.range_of(0), (Bound::Unbounded, Bound::Excluded(30)));
        assert_eq!(splits.range_of(2), (Bound::Included(50), Bound::Unbounded));
    }

    #[test]
    fn empty_shard_is_one_chunk() {
        let cluster = ClusterBuilder::new(1).build();
        cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let gate = CopyGate::plan(&[ShardId(0)], cluster.node(NodeId(0)), 16).unwrap();
        assert_eq!(gate.chunk_count(), 1);
        let chunk = gate.chunk_of(ShardId(0), 123).unwrap();
        assert_eq!(chunk.idx, 0);
        assert_eq!(chunk.range, (Bound::Unbounded, Bound::Unbounded));
        assert_eq!(gate.chunks_of(ShardId(0)).count(), 1);
    }

    #[test]
    fn crashed_copy_worker_retries_chunk_and_result_is_complete() {
        use remus_common::fault::{FaultAction, FaultInjector, InjectionPoint};
        use std::sync::atomic::AtomicUsize;

        /// Crashes the first two CopyChunk visits, then continues.
        struct CrashTwice(AtomicUsize);
        impl FaultInjector for CrashTwice {
            fn decide(&self, point: InjectionPoint, _node: NodeId) -> FaultAction {
                if point == InjectionPoint::CopyChunk && self.0.fetch_add(1, Ordering::SeqCst) < 2 {
                    FaultAction::Crash
                } else {
                    FaultAction::Continue
                }
            }
        }

        let mut config = remus_common::SimConfig::instant();
        config.parallelism.copy_workers = 2;
        let cluster = ClusterBuilder::new(2).config(config).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..64 {
            session.run(|t| t.insert(&layout, k, val("r"))).unwrap();
        }
        let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
        cluster.install_fault_injector(Arc::new(CrashTwice(AtomicUsize::new(0))));
        let (copied, gate) = gated_copy(&cluster, &[ShardId(0)], 16, snapshot_ts);
        cluster.uninstall_fault_injector();
        assert_eq!(copied, 64);
        assert!(gate.all_copied());
        assert_eq!(dump(&cluster, NodeId(1), ShardId(0), snapshot_ts).len(), 64);
    }
}
