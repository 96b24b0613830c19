//! One elastic node's storage context.
//!
//! [`NodeStorage`] bundles everything a node owns: its CLOG, WAL, the MVCC
//! table of each shard it hosts, xid allocation, the registry of
//! transactions currently active on the node (with their write sets, so
//! migration engines can find and terminate victims), the doom list, the
//! per-shard write gates, and the installed commit hook.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};
use remus_common::metrics::{Counter, MetricsRegistry};
use remus_common::{DbError, DbResult, NodeId, ShardId, SimConfig, TxnId};
use remus_storage::{Clog, Key, VersionedTable};
use remus_wal::{Lsn, TailHandle, TailRead, Wal, WalReader};

use crate::gate::ShardGate;
use crate::hooks::SyncCommitHook;
use crate::ssi::SsiNode;

/// Book-keeping for a transaction active on this node.
#[derive(Debug, Default, Clone)]
pub struct ActiveTxn {
    /// Every (shard, key) this transaction wrote *on this node*, in order;
    /// used for abort purges and by force-abort.
    pub writes: Vec<(ShardId, Key)>,
    /// WAL position just before this transaction's first record here. A
    /// propagation process starting a migration must read from the oldest
    /// active `begin_lsn` so in-flight transactions' earlier writes are not
    /// missed; WAL truncation must never pass it.
    pub begin_lsn: Lsn,
}

impl ActiveTxn {
    /// Distinct shards written.
    pub fn shards(&self) -> Vec<ShardId> {
        let mut shards: Vec<ShardId> = self.writes.iter().map(|(s, _)| *s).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

/// Pre-resolved counter handles for this node's hot paths. Resolving a
/// series takes a registry map lock; these are resolved once at node
/// construction so the commit/abort/replay paths touch only atomics.
#[derive(Debug, Clone)]
pub struct NodeCounters {
    /// 2PC messages sent to or from this node (prepare, clock observation,
    /// and commit-decision hops).
    pub twopc_hops: Arc<Counter>,
    /// Write-write conflicts raised against this node's tables.
    pub ww_aborts: Arc<Counter>,
    /// Spill-batch reloads charged when update cache queues ship from this
    /// node (source side of a migration).
    pub queue_spills: Arc<Counter>,
    /// Replay jobs applied on this node (destination side of a migration).
    pub replay_jobs: Arc<Counter>,
}

impl NodeCounters {
    fn new(metrics: &MetricsRegistry) -> Self {
        NodeCounters {
            twopc_hops: metrics.counter("txn.2pc_hops"),
            ww_aborts: metrics.counter("txn.ww_aborts"),
            queue_spills: metrics.counter("wal.queue_spills"),
            replay_jobs: metrics.counter("replay.jobs"),
        }
    }
}

/// Replication slot id -> the handle of the tail that owns it: WAL
/// truncation must not pass what that tail's consumer has acknowledged.
type Slots = Mutex<HashMap<u64, TailHandle>>;

/// A reader of one node's WAL that owns its replication slot: the one way
/// to tail a log that truncation must wait for (migration propagation, the
/// replica shipper). Asking for the next batch acknowledges the previous one
/// — which is the slot's position: records are `Arc`-shared, so whoever
/// still holds one keeps it alive — and dropping the tail drops the slot, so
/// a consumer that returns early or panics releases the log by construction.
#[derive(Debug)]
pub struct WalTail {
    reader: WalReader,
    slots: Arc<Slots>,
    slot: u64,
}

impl WalTail {
    /// [`WalReader::next_batch`]: a batch, the idle period, or stopped.
    pub fn next_batch(&mut self, max: usize, idle: Duration) -> TailRead {
        self.reader.next_batch(max, idle)
    }

    /// [`WalReader::ack`]: moves the slot to everything handed out so far.
    pub fn ack(&self) {
        self.reader.ack()
    }

    /// LSN of the last record handed out (the start position before any).
    pub fn consumed(&self) -> Lsn {
        self.reader.consumed()
    }

    /// The handle that stops this tail and reads its acknowledged LSN.
    pub fn handle(&self) -> TailHandle {
        self.reader.handle()
    }
}

impl Drop for WalTail {
    fn drop(&mut self) {
        // A slot `crash_reset` already cleared stays gone; ids are not reused.
        self.slots.lock().remove(&self.slot);
    }
}

/// One node's storage-side state.
pub struct NodeStorage {
    /// This node's id.
    pub id: NodeId,
    /// Transaction status + commit timestamps.
    pub clog: Arc<Clog>,
    /// Write-ahead log.
    pub wal: Arc<Wal>,
    /// Per-shard write gates (lock-and-abort ownership transfer).
    pub gate: ShardGate,
    /// Simulation tunables.
    pub config: SimConfig,
    /// This node's metric scope (label `node=<id>` on a shared registry).
    pub metrics: MetricsRegistry,
    /// Pre-resolved hot-path counters.
    pub counters: NodeCounters,
    /// SSI tracking state — present only under
    /// [`remus_common::IsolationLevel::Serializable`]. `None` keeps the
    /// snapshot-isolation hot path untouched.
    pub ssi: Option<Arc<SsiNode>>,
    tables: RwLock<HashMap<ShardId, Arc<VersionedTable>>>,
    next_seq: AtomicU64,
    active: Mutex<HashMap<TxnId, ActiveTxn>>,
    doomed: Mutex<HashMap<TxnId, &'static str>>,
    hook: RwLock<Option<Arc<dyn SyncCommitHook>>>,
    slots: Arc<Slots>,
    next_slot: AtomicU64,
}

impl std::fmt::Debug for NodeStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeStorage")
            .field("id", &self.id)
            .field("shards", &self.tables.read().len())
            .finish()
    }
}

impl NodeStorage {
    /// A fresh node with no shards and its own private metrics registry.
    pub fn new(id: NodeId, config: SimConfig) -> Self {
        Self::with_metrics(id, config, &MetricsRegistry::new())
    }

    /// A fresh node scoped as `node=<id>` into a shared (cluster-wide)
    /// metrics registry. The WAL backend follows `config.wal`: in-memory
    /// by default, or a `node-<id>` segment directory under the configured
    /// root (recovering whatever an earlier incarnation left there).
    pub fn with_metrics(id: NodeId, config: SimConfig, registry: &MetricsRegistry) -> Self {
        let metrics = registry.scoped("node", id.raw());
        let counters = NodeCounters::new(&metrics);
        let ssi = (config.isolation == remus_common::IsolationLevel::Serializable)
            .then(|| SsiNode::new(config.hot_path.index_stripes, &metrics));
        let wal = Wal::for_node(&config.wal, id.raw())
            .unwrap_or_else(|e| panic!("opening WAL for node {}: {e}", id.raw()));
        NodeStorage {
            id,
            clog: Arc::new(Clog::new()),
            wal: Arc::new(wal),
            gate: ShardGate::new(),
            config,
            metrics,
            counters,
            ssi,
            tables: RwLock::new(HashMap::new()),
            next_seq: AtomicU64::new(1),
            active: Mutex::new(HashMap::new()),
            doomed: Mutex::new(HashMap::new()),
            hook: RwLock::new(None),
            slots: Arc::default(),
            next_slot: AtomicU64::new(1),
        }
    }

    /// Allocates a new transaction id originating on this node.
    pub fn alloc_xid(&self) -> TxnId {
        TxnId::new(self.id, self.next_seq.fetch_add(1, Ordering::Relaxed))
    }

    // ---- shard placement ----

    /// Creates an (empty) table for a shard this node now hosts. The key
    /// index gets `config.hot_path.index_stripes` lock stripes.
    pub fn create_shard(&self, shard: ShardId) -> Arc<VersionedTable> {
        let stripes = self.config.hot_path.index_stripes;
        let mut tables = self.tables.write();
        Arc::clone(
            tables
                .entry(shard)
                .or_insert_with(|| Arc::new(VersionedTable::with_stripes(stripes))),
        )
    }

    /// The table for `shard`, if hosted here.
    pub fn table(&self, shard: ShardId) -> Option<Arc<VersionedTable>> {
        self.tables.read().get(&shard).cloned()
    }

    /// The table for `shard`, or a `NotOwner` error.
    pub fn table_or_err(&self, shard: ShardId) -> DbResult<Arc<VersionedTable>> {
        self.table(shard).ok_or(DbError::NotOwner {
            shard,
            node: self.id,
        })
    }

    /// Drops a shard's data (cleanup after it migrated away).
    pub fn drop_shard(&self, shard: ShardId) -> bool {
        self.tables.write().remove(&shard).is_some()
    }

    /// True if this node hosts the shard.
    pub fn hosts(&self, shard: ShardId) -> bool {
        self.tables.read().contains_key(&shard)
    }

    /// Ids of all hosted shards.
    pub fn shards(&self) -> Vec<ShardId> {
        self.tables.read().keys().copied().collect()
    }

    // ---- active-transaction registry ----

    /// Registers a transaction as active on this node (idempotent). The
    /// registration records the current WAL tail as the transaction's
    /// `begin_lsn`, so it must happen before the transaction's first WAL
    /// record.
    pub fn register_active(&self, xid: TxnId) {
        let begin_lsn = self.wal.flush_lsn();
        self.active.lock().entry(xid).or_insert(ActiveTxn {
            writes: Vec::new(),
            begin_lsn,
        });
    }

    /// WAL position from which a new propagation reader must start to cover
    /// every in-flight transaction's records.
    pub fn oldest_active_begin_lsn(&self) -> Lsn {
        self.active
            .lock()
            .values()
            .map(|a| a.begin_lsn)
            .min()
            .unwrap_or_else(|| self.wal.flush_lsn())
    }

    /// Records a write in the active registry.
    pub fn record_write(&self, xid: TxnId, shard: ShardId, key: Key) {
        self.active
            .lock()
            .entry(xid)
            .or_default()
            .writes
            .push((shard, key));
    }

    /// Removes the transaction from the registry, returning its record.
    pub fn deregister(&self, xid: TxnId) -> Option<ActiveTxn> {
        self.active.lock().remove(&xid)
    }

    /// The distinct shards `xid` has written on this node: a lookup of its
    /// own registry entry, so a commit costs its own writes and not a copy
    /// of every live transaction's.
    pub fn written_shards(&self, xid: TxnId) -> Vec<ShardId> {
        self.active
            .lock()
            .get(&xid)
            .map(ActiveTxn::shards)
            .unwrap_or_default()
    }

    /// Snapshot of the active transactions and their write sets.
    pub fn active_txns(&self) -> Vec<(TxnId, ActiveTxn)> {
        self.active
            .lock()
            .iter()
            .map(|(x, a)| (*x, a.clone()))
            .collect()
    }

    /// Active transactions that wrote the given shard (lock-and-abort's
    /// conflicting-lock-holder search).
    pub fn writers_of(&self, shard: ShardId) -> Vec<TxnId> {
        self.active
            .lock()
            .iter()
            .filter(|(_, a)| a.writes.iter().any(|(s, _)| *s == shard))
            .map(|(x, _)| *x)
            .collect()
    }

    /// Number of transactions currently active on this node.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }

    // ---- doom list ----

    /// Marks a transaction for termination: its next operation or commit
    /// fails with a migration abort.
    pub fn doom(&self, xid: TxnId, reason: &'static str) {
        self.doomed.lock().insert(xid, reason);
    }

    /// Fails if the transaction has been doomed.
    pub fn check_doom(&self, xid: TxnId) -> DbResult<()> {
        if let Some(reason) = self.doomed.lock().get(&xid) {
            Err(DbError::MigrationAbort { txn: xid, reason })
        } else {
            Ok(())
        }
    }

    /// Clears the doom entry (after the client observed the abort).
    pub fn clear_doom(&self, xid: TxnId) {
        self.doomed.lock().remove(&xid);
    }

    /// Number of doomed transactions whose abort nobody has observed yet.
    pub fn doomed_count(&self) -> usize {
        self.doomed.lock().len()
    }

    // ---- replication slots & WAL truncation ----

    /// A [`WalTail`] reading after `from`, its slot registered under the
    /// caller's lock on the slot table.
    fn tail_at(&self, slots: &mut HashMap<u64, TailHandle>, from: Lsn) -> WalTail {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        let reader = self.wal.reader_from(from);
        slots.insert(slot, reader.handle());
        WalTail {
            reader,
            slots: Arc::clone(&self.slots),
            slot,
        }
    }

    /// A tail whose slot is registered at `from`: WAL truncation will never
    /// pass an undropped slot's position. For tests that script a log by
    /// hand; the system starts its tails at
    /// [`Self::create_slot_at_oldest_active`].
    pub fn create_slot(&self, from: Lsn) -> WalTail {
        self.tail_at(&mut self.slots.lock(), from)
    }

    /// A tail whose slot is registered at the oldest active transaction's
    /// begin LSN, atomically with respect to [`Self::truncate_wal_safely`]: the
    /// slot is visible to any later truncation, so the tail never observes a
    /// truncated record. Computing the position and registering the slot
    /// separately would leave a window where concurrent truncation passes
    /// the not-yet-registered reader.
    pub fn create_slot_at_oldest_active(&self) -> WalTail {
        let mut slots = self.slots.lock();
        let from = self.oldest_active_begin_lsn();
        self.tail_at(&mut slots, from)
    }

    /// Number of live replication slots (each is a [`WalTail`] somewhere).
    pub fn slot_count(&self) -> usize {
        self.slots.lock().len()
    }

    /// Truncates the WAL up to the safe point: the minimum of every active
    /// transaction's `begin_lsn` and every replication slot position.
    /// Returns the position truncated to. The slot table stays locked for
    /// the whole computation so it serializes with
    /// [`Self::create_slot_at_oldest_active`].
    pub fn truncate_wal_safely(&self) -> Lsn {
        let slots = self.slots.lock();
        let mut upto = self.oldest_active_begin_lsn();
        for tail in slots.values() {
            upto = upto.min(tail.acked());
        }
        self.wal.truncate_until(upto);
        upto
    }

    // ---- crash restart ----

    /// Simulates a process crash of this node: every piece of volatile
    /// state is dropped — MVCC tables, CLOG, active/doomed registries,
    /// replication slots, shard gates, the commit hook — and the WAL is
    /// reopened from its durability backend (recovering everything modulo
    /// a torn tail for the file backend; nothing for the in-memory one).
    ///
    /// Tables for shards in `keep` are not dropped but cleared in place,
    /// preserving their `Arc` identity — the shard-map replica is shared
    /// by reference with the cluster node wrapper and must survive.
    ///
    /// This only rebuilds the empty skeleton; callers follow up with
    /// [`crate::recovery::replay_node_wal`] (and re-seed frozen bootstrap
    /// state that never hits the WAL) to restore contents.
    pub fn crash_reset(&self, keep: &[ShardId]) -> DbResult<()> {
        self.wal.crash_and_reopen()?;
        self.clog.reset();
        {
            let mut tables = self.tables.write();
            tables.retain(|shard, table| {
                if keep.contains(shard) {
                    table.clear();
                    true
                } else {
                    false
                }
            });
        }
        self.active.lock().clear();
        self.doomed.lock().clear();
        self.slots.lock().clear();
        self.gate.reset();
        if let Some(ssi) = &self.ssi {
            ssi.clear();
        }
        self.uninstall_hook();
        Ok(())
    }

    /// Bumps the xid sequence allocator to at least `seq + 1`, so ids
    /// recovered from the WAL are never re-issued (re-beginning a resolved
    /// xid is a CLOG protocol violation).
    pub fn reserve_seq(&self, seq: u64) {
        self.next_seq.fetch_max(seq + 1, Ordering::Relaxed);
    }

    // ---- commit hook ----

    /// Installs a migration commit hook, replacing any previous one.
    pub fn install_hook(&self, hook: Arc<dyn SyncCommitHook>) {
        *self.hook.write() = Some(hook);
    }

    /// Removes the commit hook: everything commits asynchronously again.
    pub fn uninstall_hook(&self) {
        *self.hook.write() = None;
    }

    /// The currently installed hook, if a migration installed one.
    pub fn hook(&self) -> Option<Arc<dyn SyncCommitHook>> {
        self.hook.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeStorage {
        NodeStorage::new(NodeId(1), SimConfig::instant())
    }

    #[test]
    fn xids_are_unique_and_tagged_with_node() {
        let n = node();
        let a = n.alloc_xid();
        let b = n.alloc_xid();
        assert_ne!(a, b);
        assert_eq!(a.origin(), NodeId(1));
    }

    #[test]
    fn shard_placement_lifecycle() {
        let n = node();
        assert!(!n.hosts(ShardId(7)));
        assert!(matches!(
            n.table_or_err(ShardId(7)),
            Err(DbError::NotOwner { .. })
        ));
        n.create_shard(ShardId(7));
        assert!(n.hosts(ShardId(7)));
        assert!(n.table_or_err(ShardId(7)).is_ok());
        assert!(n.drop_shard(ShardId(7)));
        assert!(!n.drop_shard(ShardId(7)));
    }

    #[test]
    fn active_registry_tracks_writes_and_writers() {
        let n = node();
        let x = n.alloc_xid();
        let y = n.alloc_xid();
        n.register_active(x);
        n.register_active(y);
        n.record_write(x, ShardId(1), 10);
        n.record_write(x, ShardId(2), 20);
        n.record_write(y, ShardId(2), 30);
        assert_eq!(n.active_count(), 2);
        let mut w = n.writers_of(ShardId(2));
        w.sort();
        assert_eq!(w, vec![x, y]);
        assert_eq!(n.writers_of(ShardId(1)), vec![x]);
        let info = n.deregister(x).unwrap();
        assert_eq!(info.shards(), vec![ShardId(1), ShardId(2)]);
        assert_eq!(n.active_count(), 1);
    }

    #[test]
    fn doom_list_flags_and_clears() {
        let n = node();
        let x = n.alloc_xid();
        assert!(n.check_doom(x).is_ok());
        n.doom(x, "lock-and-abort ownership transfer");
        let err = n.check_doom(x).unwrap_err();
        assert!(err.is_migration_induced());
        n.clear_doom(x);
        assert!(n.check_doom(x).is_ok());
    }

    #[test]
    fn begin_lsn_tracks_wal_position_at_registration() {
        use remus_wal::{LogOp, LogRecord};
        let n = node();
        // Two records already in the WAL.
        let filler = n.alloc_xid();
        n.wal.append(LogRecord::new(filler, LogOp::Abort));
        n.wal.append(LogRecord::new(filler, LogOp::Abort));
        let x = n.alloc_xid();
        n.register_active(x);
        assert_eq!(n.oldest_active_begin_lsn(), Lsn(2));
        n.deregister(x);
        // With nothing active the safe point is the tail.
        assert_eq!(n.oldest_active_begin_lsn(), n.wal.flush_lsn());
    }

    #[test]
    fn written_shards_reads_only_the_transactions_own_entry() {
        let n = node();
        let (mine, other) = (n.alloc_xid(), n.alloc_xid());
        for (xid, shard, key) in [(mine, 7, 1), (other, 3, 1), (mine, 2, 5), (mine, 7, 9)] {
            n.register_active(xid);
            n.record_write(xid, ShardId(shard), key);
        }
        assert_eq!(n.written_shards(mine), vec![ShardId(2), ShardId(7)]);
        assert_eq!(n.written_shards(other), vec![ShardId(3)]);
        n.deregister(mine);
        assert!(n.written_shards(mine).is_empty());
    }

    #[test]
    fn truncation_respects_active_txns_and_slots() {
        use remus_wal::{LogOp, LogRecord};
        let n = node();
        let filler = n.alloc_xid();
        for _ in 0..10 {
            n.wal.append(LogRecord::new(filler, LogOp::Abort));
        }
        let mut tail = n.create_slot(Lsn(4));
        assert_eq!(n.truncate_wal_safely(), Lsn(4));
        assert_eq!(n.wal.retained(), 6);
        // Handing a batch out moves nothing; asking for the next one
        // acknowledges it.
        let TailRead::Batch(batch) = tail.next_batch(3, Duration::ZERO) else {
            panic!("records 5..=7 are in the log");
        };
        assert_eq!(batch.last().unwrap().0, Lsn(7));
        assert_eq!(n.truncate_wal_safely(), Lsn(4));
        assert!(matches!(
            tail.next_batch(1, Duration::ZERO),
            TailRead::Batch(_)
        ));
        assert_eq!(tail.handle().acked(), Lsn(7));
        assert_eq!(n.truncate_wal_safely(), Lsn(7));
        drop(tail);
        assert_eq!(n.slot_count(), 0);
        assert_eq!(n.truncate_wal_safely(), Lsn(10));
        assert_eq!(n.wal.retained(), 0);
    }

    /// The slot is released by construction: a consumer that panics with a
    /// batch in hand unwinds through the tail's `Drop`.
    #[test]
    fn a_tail_dropped_by_a_panicking_consumer_releases_its_slot() {
        use remus_wal::{LogOp, LogRecord};
        let n = Arc::new(node());
        let filler = n.alloc_xid();
        for _ in 0..6 {
            n.wal.append(LogRecord::new(filler, LogOp::Abort));
        }
        let mut tail = n.create_slot(Lsn(2));
        let consumer = std::thread::spawn(move || {
            let TailRead::Batch(batch) = tail.next_batch(2, Duration::ZERO) else {
                panic!("records 3..=4 are in the log");
            };
            panic!("consumer died holding {} records", batch.len());
        });
        assert!(consumer.join().is_err());
        assert_eq!(n.slot_count(), 0);
        assert_eq!(n.truncate_wal_safely(), Lsn(6), "past the dead tail");
    }

    /// A tail that outlives a crash of its node finds its slot already
    /// cleared; dropping it then must not take anybody else's.
    #[test]
    fn a_tail_outliving_crash_reset_drops_nothing() {
        let n = node();
        let stale = n.create_slot(Lsn::ZERO);
        n.crash_reset(&[]).unwrap();
        let fresh = n.create_slot(Lsn::ZERO);
        drop(stale);
        assert_eq!(n.slot_count(), 1);
        drop(fresh);
        assert_eq!(n.slot_count(), 0);
    }

    #[test]
    fn slot_at_oldest_active_pins_reader_start_against_truncation() {
        use remus_wal::{LogOp, LogRecord};
        let n = node();
        let filler = n.alloc_xid();
        n.wal.append(LogRecord::new(filler, LogOp::Abort));
        n.wal.append(LogRecord::new(filler, LogOp::Abort));
        let x = n.alloc_xid();
        n.register_active(x); // begin_lsn = 2
        for _ in 0..4 {
            n.wal.append(LogRecord::new(filler, LogOp::Abort));
        }
        let mut tail = n.create_slot_at_oldest_active();
        assert_eq!(tail.consumed(), Lsn(2));
        // The active transaction finishing no longer unblocks truncation:
        // the slot holds the reader's start position on its own.
        n.deregister(x);
        assert_eq!(n.truncate_wal_safely(), Lsn(2));
        // A reader starting at `from` still sees every record from there.
        assert!(matches!(
            tail.next_batch(1, Duration::ZERO),
            TailRead::Batch(_)
        ));
        drop(tail);
        assert_eq!(n.truncate_wal_safely(), n.wal.flush_lsn());
    }

    #[test]
    fn hook_install_and_uninstall() {
        use crate::hooks::CommitMode;
        use remus_common::Timestamp;
        struct AlwaysSync;
        impl SyncCommitHook for AlwaysSync {
            fn begin_commit(&self, _xid: TxnId, _shards: &[ShardId]) -> CommitMode {
                CommitMode::Sync
            }
            fn await_validation(&self, _xid: TxnId) -> DbResult<()> {
                Ok(())
            }
            fn end_commit(&self, _xid: TxnId, _commit_ts: Option<Timestamp>) {}
        }
        let n = node();
        assert!(n.hook().is_none());
        n.install_hook(Arc::new(AlwaysSync));
        let mode = n.hook().unwrap().begin_commit(n.alloc_xid(), &[]);
        assert_eq!(mode, CommitMode::Sync);
        n.uninstall_hook();
        assert!(n.hook().is_none());
    }
}
