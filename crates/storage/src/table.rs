//! A shard's multi-version table: the storage API transactions run against.
//!
//! One [`VersionedTable`] corresponds to one shard managed "as a regular
//! table" on a node (paper §2.1). Its primary index is split by what is
//! asked of it: point access (transactions, and replay, which locates
//! tuples by primary key, §3.3) goes through a hash table of slots, one
//! miss to the slot and one to the key's node; the ordered range scans that
//! snapshot copying and Squall's chunking need go through a set of keys
//! kept beside it, which nothing else reads. A node is one allocation: the
//! latch, the newest version, and the link to older ones while there are
//! any (see `crate::tuple`).
//!
//! A node is reached only under its stripe's read lock, and latched only
//! then. All blocking (prepare-wait, waiting for a conflicting writer to
//! resolve) happens outside both: operations run the pure checks from
//! `crate::visibility` under the latch, and on `WaitFor` release latch and
//! stripe, block on the CLOG, and look the key up again. So nobody holds a
//! node across a wait, and whoever holds the stripe's write lock — GC
//! unmapping a dead key, an install replacing a chain — is alone with it.
//!
//! Each operation has one *body* that touches a version chain; every other
//! entry point is a projection of it. A new chain layout re-implements the
//! six bodies marked ✱ and nothing else.
//!
//! | entry point | what it is | called by |
//! |---|---|---|
//! | `visible_at` ✱ (private) | the read-side prepare-wait loop | `read_versioned`, `scan` |
//! | [`read_versioned`](VersionedTable::read_versioned) | `visible_at` on the key | `shard::read_owner_at` (routing reads) |
//! | [`read`](VersionedTable::read) | the same, value only | `Txn::read`, replica snapshot reads, recovery checks, the benchmark's point-read probes |
//! | [`scan`](VersionedTable::scan) | the one streaming scan: `collect_batch` ✱ merges the stripes' ordered keys, `visible_at` resolves each | snapshot copy chunks (≈ 128-key ranges), `SessionTxn::scan_table` (whole shards, own writes visible) |
//! | [`scan_visible_range`](VersionedTable::scan_visible_range) | `scan` collected into a `Vec`, no own writes | Squall pulls, replica `scan_table`, the benchmark's scan probe (40 000-key ranges) |
//! | [`count_visible`](VersionedTable::count_visible) | `scan` counted | the benchmark's consistency checks |
//! | [`write`](VersionedTable::write) | the write-side wait loop; `apply_write` ✱ is the one step that edits a chain | `Txn::write_common`; crash replay, only to re-instate a prepared in-doubt transaction's uncommitted versions |
//! | [`insert`](VersionedTable::insert) / [`update`](VersionedTable::update) / [`delete`](VersionedTable::delete) / [`lock_row`](VersionedTable::lock_row) | one-line forwards to `write` | storage tests, the benchmark's write probes |
//! | [`purge_txn`](VersionedTable::purge_txn) | abort cleanup | `remus-txn` abort path |
//! | [`install_frozen`](VersionedTable::install_frozen) ✱ | replaces a chain by one frozen version | snapshot copy, Squall pulls, bulk loaders, `shard::install_owner` |
//! | [`install_committed`](VersionedTable::install_committed) ✱ | places a resolved transaction's version by commit timestamp | `remus_txn::redo_committed` — the one redo rule, for the replica applier and crash replay |
//! | [`chunk_splits`](VersionedTable::chunk_splits) | every n-th key of the ordered keys | `CopyGate::plan`, Squall's chunk map |
//! | [`gc_step`](VersionedTable::gc_step) | budgeted GC over pending chains; `prune_chain` ✱ is the pruning rule | `Cluster::gc_tick`, the benchmark's GC probe |
//! | [`vacuum`](VersionedTable::vacuum) | `gc_step` without a budget | storage tests |
//! | [`clear`](VersionedTable::clear) | drops everything | `NodeStorage::crash_reset` |
//! | [`chain_snapshot`](VersionedTable::chain_snapshot), [`committed_state_digest`](VersionedTable::committed_state_digest), [`stats`](VersionedTable::stats), [`max_probe`](VersionedTable::max_probe) | read-only windows for tests, forensic dumps and gauges | the sweep-reference property test, `remus-core` forensics and replica tests, planner / bench gauges, the index model test |

use std::collections::BTreeSet;
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use remus_common::{DbError, DbResult, Timestamp, TxnId};

use crate::clog::{Clog, TxnStatus};
use crate::slots::SlotTable;
use crate::tuple::{Key, TupleVersion, Value, Version, VersionChain};
use crate::visibility::{check_write, resolve_visible, ReadOutcome, WriteCheck, WriteKind};

/// What a slot points at: a key's latch and its chain, 64 bytes in one
/// allocation.
type Node = Mutex<VersionChain>;

/// Aggregate statistics for monitoring and the Figure-10 harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Number of keys with at least one version.
    pub keys: usize,
    /// Total stored versions.
    pub versions: usize,
    /// Longest version chain (grows under long-lived snapshots, §4.8).
    pub max_chain: usize,
}

/// Outcome of one GC step (see [`VersionedTable::gc_step`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStepStats {
    /// Pending chains visited this step.
    pub scanned: usize,
    /// Versions freed this step.
    pub pruned: usize,
    /// Longest chain among the visited ones, *before* pruning.
    pub max_chain: usize,
}

/// `not_before` of a pending key a writer just enqueued: due at any watermark.
const READY: Timestamp = Timestamp::INVALID;

/// The one pruning rule: drops aborted versions and everything older than
/// the newest version committed at or before `horizon` (the *anchor*, which
/// some snapshot >= horizon may still read), and the anchor too when it is a
/// tombstone — under newer versions it reads the same as nothing. Returns
/// the versions freed and, if versions above the horizon remain, the lowest
/// horizon at which another prune frees something: the lowest commit
/// timestamp above this one, or the next horizon while a writer is unresolved.
fn prune_chain(
    chain: &mut VersionChain,
    horizon: Timestamp,
    clog: &Clog,
) -> (usize, Option<Timestamp>) {
    let (mut seen_anchor, mut retry_at) = (false, None::<Timestamp>);
    let freed = chain.retain(|v| {
        let blocked_until = match v.status(clog) {
            TxnStatus::Aborted => return false,
            TxnStatus::Committed(cts) if cts <= horizon => {
                return !std::mem::replace(&mut seen_anchor, true) && !v.deleted();
            }
            TxnStatus::Committed(cts) => cts,
            TxnStatus::InProgress | TxnStatus::Prepared => Timestamp(horizon.0.saturating_add(1)),
        };
        retry_at = Some(retry_at.map_or(blocked_until, |r| r.min(blocked_until)));
        true
    });
    (freed, retry_at)
}

/// Keys a scan collects, then resolves, per acquisition of the stripe locks.
const SCAN_BATCH: usize = 256;

/// Pending chains a GC step prunes per acquisition of a stripe's read lock:
/// what a writer that has to map a new key in that stripe waits for at most.
const GC_BATCH: usize = 64;

/// The one apply step: edits a latched chain as [`check_write`] allowed.
fn apply_write(
    chain: &mut VersionChain,
    check: WriteCheck,
    kind: WriteKind,
    value: Value,
    xid: TxnId,
) {
    if check == WriteCheck::Ok && kind != WriteKind::Lock {
        return chain.push(match kind {
            WriteKind::Delete => Version::tombstone(xid),
            _ => Version::data(xid, value),
        });
    }
    // A lock marks the live version; anything else edits the writer's own
    // newest version in place.
    let newest = chain.newest_mut().expect("a checked write has a target");
    match kind {
        WriteKind::Lock => newest.locker = xid,
        WriteKind::Delete => newest.value = None,
        // An insert here is a re-insert over the writer's own tombstone.
        WriteKind::Insert | WriteKind::Update => newest.value = Some(value),
    }
}

/// What one lock stripe maps: every key to its node.
#[derive(Default)]
struct Index {
    slots: SlotTable<Box<Node>>,
    /// The same keys in order, which `collect_batch` and `chunk_splits`
    /// read and nothing else does. The first of them to come builds it from
    /// the slots ([`Stripe::read_ordered`]) and from then on it is kept; a
    /// table nobody has scanned — a freshly loaded one, the destination of
    /// a copy — does not pay for an order nobody has asked for.
    ordered: Option<BTreeSet<Key>>,
}

impl Index {
    /// The key's node, mapped to an empty chain first if there is none.
    fn node_or_create(&mut self, key: Key) -> &Node {
        if self.slots.get(key).is_none() {
            self.insert(key, VersionChain::default());
        }
        self.slots.get(key).expect("mapped just above")
    }

    /// Maps `key` to a node of its own holding `chain`, dropping the node
    /// it was mapped to before.
    fn insert(&mut self, key: Key, chain: VersionChain) {
        let node = Box::new(Mutex::new(chain));
        if self.slots.insert(key, node).is_none() {
            if let Some(ordered) = &mut self.ordered {
                ordered.insert(key);
            }
        }
    }

    fn remove(&mut self, key: Key) {
        if self.slots.remove(key).is_some() {
            if let Some(ordered) = &mut self.ordered {
                ordered.remove(&key);
            }
        }
    }
}

/// One lock stripe of the key index, and the keys in it GC has work on.
/// Invariant, kept under the chain latch: a chain that is not exactly one
/// live version has its key in `pending`. Not the converse: an abort or a
/// frozen install leaves a clean chain's key behind, which costs one visit.
#[derive(Default)]
struct Stripe {
    index: RwLock<Index>,
    /// `(not_before, key)`: nothing more can be pruned from the key's chain
    /// until the watermark reaches `not_before`, so a pinned watermark never
    /// re-visits what it already blocked.
    pending: Mutex<BTreeSet<(Timestamp, Key)>>,
}

impl Stripe {
    /// Runs `f` on the key's node under the stripe lock; `create` maps a key
    /// that has none to an empty chain first. The node does not outlive the
    /// call: whatever `f` has to wait for, it reports, and the caller comes
    /// back through here.
    #[inline]
    fn with_node<R>(&self, key: Key, create: bool, f: impl FnOnce(&Node) -> R) -> Option<R> {
        let index = self.index.read();
        if let Some(node) = index.slots.get(key) {
            return Some(f(node));
        }
        if !create {
            return None;
        }
        drop(index);
        Some(f(self.index.write().node_or_create(key)))
    }

    /// The stripe read-locked, with its ordered keys in place.
    fn read_ordered(&self) -> RwLockReadGuard<'_, Index> {
        loop {
            let index = self.index.read();
            if index.ordered.is_some() {
                return index;
            }
            drop(index);
            let mut index = self.index.write();
            if index.ordered.is_none() {
                // Collecting a set sorts first and builds in one pass, leaves full.
                index.ordered = Some(index.slots.iter().map(|(key, _)| key).collect());
            }
        }
    }

    /// Removes and returns up to `budget` pending keys due at `watermark`.
    fn take_due(&self, watermark: Timestamp, budget: usize) -> Vec<Key> {
        let mut pending = self.pending.lock();
        let mut due = Vec::new();
        while due.len() < budget && pending.first().is_some_and(|(ts, _)| *ts <= watermark) {
            due.extend(pending.pop_first().map(|(_, key)| key));
        }
        due
    }

    /// Unmaps keys whose chain a prune emptied; returns those that stay
    /// pending. The prune ran under the read lock, so a writer may have come
    /// since: it found a chain already needing GC and did not enqueue it.
    /// Under the write lock nobody is inside the stripe, and what the chain
    /// is now decides: still empty, unmap; one live version, forget.
    fn remove_dead_keys(&self, dead_keys: Vec<Key>) -> Vec<Key> {
        if dead_keys.is_empty() {
            return dead_keys;
        }
        let mut index = self.index.write();
        dead_keys
            .into_iter()
            .filter(|&key| {
                let Some(node) = index.slots.get_mut(key) else {
                    return false;
                };
                let chain = node.get_mut();
                if chain.is_empty() {
                    index.remove(key);
                    return false;
                }
                !chain.is_one_live_version()
            })
            .collect()
    }
}

/// One shard's MVCC heap.
///
/// The key index is split into N lock stripes (key-hash keyed) so concurrent
/// sessions and the parallel copy/replay workers stop serializing on one
/// `RwLock`. Each stripe keeps its keys in order beside its slots; the
/// ordered scans that snapshot copying and chunking need merge the
/// per-stripe ranges.
pub struct VersionedTable {
    stripes: Box<[Stripe]>,
    /// Where the next [`Self::gc_step`] starts: a small budget goes round.
    gc_next_stripe: AtomicUsize,
}

impl Default for VersionedTable {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for VersionedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let keys: usize = self
            .stripes
            .iter()
            .map(|s| s.index.read().slots.len())
            .sum();
        f.debug_struct("VersionedTable")
            .field("stripes", &self.stripes.len())
            .field("keys", &keys)
            .finish()
    }
}

impl VersionedTable {
    /// An empty single-stripe table. Every observable result is the same at
    /// any stripe count; nodes configure theirs through
    /// `SimConfig::hot_path.index_stripes`.
    pub fn new() -> Self {
        Self::with_stripes(1)
    }

    /// An empty table with `n` index stripes (`n` is clamped to >= 1). An
    /// empty stripe owns no heap memory.
    pub fn with_stripes(n: usize) -> Self {
        VersionedTable {
            stripes: (0..n.max(1)).map(|_| Stripe::default()).collect(),
            gc_next_stripe: AtomicUsize::new(0),
        }
    }

    fn stripe_of(&self, key: Key) -> &Stripe {
        // Fibonacci hashing: adjacent keys land on different stripes.
        let h = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize;
        &self.stripes[h % self.stripes.len()]
    }

    /// Runs `f` on a latched chain and keeps the [`Stripe`] invariant: a
    /// chain `f` takes from one live version to anything else becomes pending.
    fn mutate<R>(
        &self,
        key: Key,
        chain: &mut VersionChain,
        f: impl FnOnce(&mut VersionChain) -> R,
    ) -> R {
        let was_clean = chain.is_one_live_version();
        let out = f(chain);
        if was_clean && !chain.is_one_live_version() {
            self.stripe_of(key).pending.lock().insert((READY, key));
        }
        out
    }

    /// What `self_xid` sees of `key` at `start_ts`, and the commit timestamp
    /// of the version seen. The one read-side prepare-wait loop; inlined into
    /// its three callers so that projecting the pair costs nothing — as a
    /// call, the value-only `read` pays ≈ 10 ns of an 80 ns hot read to pass
    /// it through memory.
    #[inline(always)]
    fn visible_at(
        &self,
        key: Key,
        start_ts: Timestamp,
        self_xid: TxnId,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<Option<(Value, Timestamp)>> {
        let stripe = self.stripe_of(key);
        loop {
            // Latch and stripe lock are dropped at the end of this statement.
            let wait_on = match stripe.with_node(key, false, |node| {
                resolve_visible(&mut node.lock(), clog, start_ts, self_xid)
            }) {
                Some(ReadOutcome::Value { value, cts }) => return Ok(Some((value, cts))),
                Some(ReadOutcome::NotFound) | None => return Ok(None),
                Some(ReadOutcome::WaitFor(xid)) => xid,
            };
            clog.wait_resolved(wait_on, timeout)?;
        }
    }

    /// The first [`SCAN_BATCH`] in-range keys in global key order: a merge
    /// of the per-stripe ranges (each stripe's keys are themselves ordered)
    /// under the stripe read locks, which are taken in index order and
    /// dropped on return.
    fn collect_batch(&self, from: Bound<Key>, end: Bound<Key>) -> Vec<Key> {
        let indexes: Vec<_> = self.stripes.iter().map(Stripe::read_ordered).collect();
        let mut ranges: Vec<_> = indexes
            .iter()
            .flat_map(|index| &index.ordered)
            .map(|ordered| ordered.range((from, end)))
            .collect();
        let mut heads: Vec<_> = ranges.iter_mut().map(Iterator::next).collect();
        let mut batch = Vec::with_capacity(SCAN_BATCH);
        while batch.len() < SCAN_BATCH {
            let lowest = heads
                .iter()
                .enumerate()
                .filter_map(|(i, head)| head.map(|key| (*key, i)))
                .min();
            let Some((key, i)) = lowest else {
                break;
            };
            batch.push(key);
            heads[i] = ranges[i].next();
        }
        batch
    }

    /// SI point read at `start_ts`, with prepare-wait, that also reports the
    /// commit timestamp of the version read ([`Timestamp::INVALID`] for the
    /// reader's own uncommitted version).
    pub fn read_versioned(
        &self,
        key: Key,
        start_ts: Timestamp,
        self_xid: TxnId,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<Option<(Value, Timestamp)>> {
        self.visible_at(key, start_ts, self_xid, clog, timeout)
    }

    /// SI point read at `start_ts`, with prepare-wait.
    pub fn read(
        &self,
        key: Key,
        start_ts: Timestamp,
        self_xid: TxnId,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<Option<Value>> {
        Ok(self
            .visible_at(key, start_ts, self_xid, clog, timeout)?
            .map(|(value, _)| value))
    }

    /// Applies one row-level write of `xid` (snapshot `start_ts`): inserts
    /// have unique-key semantics, updates and deletes are first-committer-
    /// wins, a lock marks the live tuple; `value` is ignored by the last two.
    /// Waits for an unresolved conflicting writer, then re-checks.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's op signature: who, what, when, how long
    pub fn write(
        &self,
        key: Key,
        kind: WriteKind,
        mut value: Value,
        xid: TxnId,
        start_ts: Timestamp,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<()> {
        let stripe = self.stripe_of(key);
        loop {
            let checked = stripe.with_node(key, kind == WriteKind::Insert, |node| {
                let mut chain = node.lock();
                let check = check_write(&mut chain, clog, start_ts, xid, kind);
                if matches!(check, WriteCheck::Ok | WriteCheck::OwnNewest) {
                    let value = std::mem::take(&mut value);
                    self.mutate(key, &mut chain, |c| apply_write(c, check, kind, value, xid));
                }
                check
            });
            let wait_on = match checked {
                Some(WriteCheck::Ok | WriteCheck::OwnNewest) => return Ok(()),
                Some(WriteCheck::WaitFor(w)) => w,
                Some(WriteCheck::Conflict(other)) => {
                    return Err(DbError::WwConflict { txn: xid, other });
                }
                Some(WriteCheck::NotFound) | None => return Err(DbError::KeyNotFound),
                Some(WriteCheck::DuplicateKey) => return Err(DbError::DuplicateKey),
            };
            clog.wait_resolved(wait_on, timeout)?;
        }
    }

    /// Inserts a new tuple (unique-key semantics).
    pub fn insert(
        &self,
        key: Key,
        value: Value,
        xid: TxnId,
        start_ts: Timestamp,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<()> {
        self.write(key, WriteKind::Insert, value, xid, start_ts, clog, timeout)
    }

    /// Updates the live tuple (first-committer-wins on conflict).
    pub fn update(
        &self,
        key: Key,
        value: Value,
        xid: TxnId,
        start_ts: Timestamp,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<()> {
        self.write(key, WriteKind::Update, value, xid, start_ts, clog, timeout)
    }

    /// Deletes the live tuple by pushing a tombstone.
    pub fn delete(
        &self,
        key: Key,
        xid: TxnId,
        start_ts: Timestamp,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<()> {
        self.write(
            key,
            WriteKind::Delete,
            Value::new(),
            xid,
            start_ts,
            clog,
            timeout,
        )
    }

    /// Takes an explicit row-level lock on the live tuple.
    pub fn lock_row(
        &self,
        key: Key,
        xid: TxnId,
        start_ts: Timestamp,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<()> {
        self.write(
            key,
            WriteKind::Lock,
            Value::new(),
            xid,
            start_ts,
            clog,
            timeout,
        )
    }

    /// Abort cleanup: removes every version `xid` created (and any row lock
    /// it held) on the given keys. Call *after* the CLOG records the abort
    /// so that waiters waking up see the final status.
    pub fn purge_txn(&self, keys: impl IntoIterator<Item = Key>, xid: TxnId) {
        for key in keys {
            self.stripe_of(key).with_node(key, false, |node| {
                self.mutate(key, &mut node.lock(), |chain| chain.purge_txn(xid))
            });
        }
    }

    /// Installs a tuple owned by the frozen bootstrap transaction, making it
    /// visible to every snapshot (paper §3.2: tuples of a copied shard
    /// snapshot are installed with a reserved minimal commit timestamp).
    /// Replaces any existing chain for the key: installs target empty shards
    /// and retried Squall pulls.
    pub fn install_frozen(&self, key: Key, value: Value) {
        let chain = VersionChain::with(Version::frozen(value));
        self.stripe_of(key).index.write().insert(key, chain);
    }

    /// Installs what `xid`, already committed at `cts` in `clog`, wrote to
    /// `key` at its place in commit order: below every version committed after
    /// `cts`, above the rest. [`write`](Self::write) pushes on top, which is
    /// commit order only where writers are serialised by the chain itself.
    /// Redo of a log is not such a place (`remus_txn::redo_committed` is the
    /// caller, for crash replay and the replica applier alike): a
    /// replica applies one WAL stream per primary, and the two streams that
    /// carry a migrated shard's history (the source's up to `T_m`, the
    /// destination's after it) arrive in either order. A version `xid` already
    /// has in the chain — the same transaction delivered again, by a retransmit
    /// or as the destination's shadow of it — is edited where it stands, like
    /// a writer's second statement on its own version. Never waits: every
    /// version in a chain filled this way belongs to a resolved transaction.
    pub fn install_committed(
        &self,
        key: Key,
        kind: WriteKind,
        value: Value,
        xid: TxnId,
        cts: Timestamp,
        clog: &Clog,
    ) {
        if kind == WriteKind::Lock {
            return;
        }
        let value = (kind != WriteKind::Delete).then_some(value);
        self.stripe_of(key).with_node(key, true, |node| {
            self.mutate(key, &mut node.lock(), |chain| {
                match chain.version_of_mut(xid) {
                    Some(own) => own.value = value,
                    None => chain.insert_below(
                        Version::new(xid, value).committed_at(cts),
                        |v| matches!(v.status(clog), TxnStatus::Committed(c) if c > cts),
                    ),
                }
            })
        });
    }

    /// Streams every tuple of `range` that `self_xid` sees at `snapshot_ts`
    /// to `f`, in key order, in batches of keys — no lock is held between
    /// batches, and none but the key's own while it is resolved, so normal
    /// transaction processing is not blocked (streaming snapshot scan,
    /// §3.2). Pass [`TxnId::INVALID`] to see committed data only.
    pub fn scan(
        &self,
        range: impl RangeBounds<Key>,
        snapshot_ts: Timestamp,
        self_xid: TxnId,
        clog: &Clog,
        timeout: Duration,
        mut f: impl FnMut(Key, Value),
    ) -> DbResult<()> {
        let end: Bound<Key> = range.end_bound().cloned();
        let mut from: Bound<Key> = range.start_bound().cloned();
        loop {
            let batch = self.collect_batch(from, end);
            let (full, last) = (batch.len() == SCAN_BATCH, batch.last().copied());
            for key in batch {
                // A key unmapped since the batch was collected had no
                // version left for anyone.
                if let Some((value, _)) =
                    self.visible_at(key, snapshot_ts, self_xid, clog, timeout)?
                {
                    f(key, value);
                }
            }
            // A short batch reached the end of the range.
            match last {
                Some(key) if full => from = Bound::Excluded(key),
                _ => return Ok(()),
            }
        }
    }

    /// Collects the committed tuples visible at `snapshot_ts` within a key
    /// range (Squall chunk extraction, replica scans).
    pub fn scan_visible_range(
        &self,
        range: impl RangeBounds<Key>,
        snapshot_ts: Timestamp,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<Vec<(Key, Value)>> {
        let mut out = Vec::new();
        let push = |key, value| out.push((key, value));
        self.scan(range, snapshot_ts, TxnId::INVALID, clog, timeout, push)?;
        Ok(out)
    }

    /// Split points for `chunk_size`-key copy chunks: the key at every
    /// `chunk_size`-th position in key order. `n` split points partition the
    /// key space into `n + 1` half-open ranges `(.., s1)`, `[s1, s2)`, …,
    /// `[sn, ..)`; an empty or small table yields no splits (one chunk).
    /// Keys inserted after the call land in whichever range covers them, so
    /// the partition stays exhaustive under concurrent writes.
    pub fn chunk_splits(&self, chunk_size: u64) -> Vec<Key> {
        let chunk = chunk_size.max(1) as usize;
        let mut keys: Vec<Key> = Vec::new();
        for stripe in self.stripes.iter() {
            keys.extend(stripe.read_ordered().ordered.iter().flatten());
        }
        keys.sort_unstable();
        keys.into_iter()
            .enumerate()
            .filter(|(i, _)| *i != 0 && *i % chunk == 0)
            .map(|(_, k)| k)
            .collect()
    }

    /// Number of committed tuples visible at `snapshot_ts` (consistency
    /// checks).
    pub fn count_visible(
        &self,
        snapshot_ts: Timestamp,
        clog: &Clog,
        timeout: Duration,
    ) -> DbResult<usize> {
        let mut n = 0;
        self.scan(.., snapshot_ts, TxnId::INVALID, clog, timeout, |_, _| {
            n += 1
        })?;
        Ok(n)
    }

    /// Vacuum: [`Self::gc_step`] without a budget. Returns versions freed.
    pub fn vacuum(&self, horizon: Timestamp, clog: &Clog) -> usize {
        self.gc_step(horizon, clog, usize::MAX).pruned
    }

    /// One step of version-chain GC: visits at most `max_chains` pending
    /// chains due at `watermark`, round-robin across the stripes, dropping
    /// aborted versions, versions no snapshot at or after the watermark can
    /// see, and keys left with none. A chain with more to free stays pending
    /// until the watermark reaches the commit timestamp blocking it. Callers
    /// pass a watermark no newer than the oldest active snapshot (the
    /// cluster's `safe_ts_watermark`, which sessions and migrations pin).
    /// Costs what writers made prunable plus a lock per stripe.
    pub fn gc_step(&self, watermark: Timestamp, clog: &Clog, max_chains: usize) -> GcStepStats {
        let mut stats = GcStepStats::default();
        let first = self.gc_next_stripe.fetch_add(1, Ordering::Relaxed);
        for i in 0..self.stripes.len() {
            if stats.scanned >= max_chains {
                break;
            }
            let stripe = &self.stripes[first.wrapping_add(i) % self.stripes.len()];
            let (mut retry, mut dead_keys) = (Vec::new(), Vec::new());
            let due = stripe.take_due(watermark, max_chains - stats.scanned);
            stats.scanned += due.len();
            for batch in due.chunks(GC_BATCH) {
                let index = stripe.index.read();
                // A missing key was dropped with its range since it was enqueued.
                let mapped = |k: &Key| Some((*k, index.slots.get(*k)?));
                for (key, node) in batch.iter().filter_map(mapped) {
                    let mut chain = node.lock();
                    // Chain length is sampled before pruning: the gauge tracks
                    // the growth GC walked into, not the post-prune steady state.
                    stats.max_chain = stats.max_chain.max(chain.len());
                    let (freed, retry_at) = prune_chain(&mut chain, watermark, clog);
                    stats.pruned += freed;
                    // Empty: unmap. One live version: forget. Else: come back.
                    match retry_at {
                        _ if chain.is_empty() => dead_keys.push(key),
                        Some(ts) if !chain.is_one_live_version() => retry.push((ts, key)),
                        _ => {}
                    }
                }
            }
            let held = stripe.remove_dead_keys(dead_keys);
            retry.extend(held.into_iter().map(|key| (READY, key)));
            if !retry.is_empty() {
                stripe.pending.lock().extend(retry);
            }
        }
        stats
    }

    /// Drops everything.
    pub fn clear(&self) {
        for stripe in self.stripes.iter() {
            *stripe.index.write() = Index::default();
            stripe.pending.lock().clear();
        }
    }

    /// A debugging snapshot of one key's version chain (newest first).
    /// Intended for tests and forensic dumps, not the hot path.
    pub fn chain_snapshot(&self, key: Key) -> Vec<TupleVersion> {
        self.stripe_of(key)
            .with_node(key, false, |node| node.lock().snapshot())
            .unwrap_or_default()
    }

    /// A deterministic digest of the table's *committed* state: every
    /// committed version's `(key, commit_ts, deleted, value)` folded into
    /// an FNV-1a hash in `(key, commit_ts)` order. Uncommitted and aborted
    /// versions are excluded, so two tables that converged to the same
    /// committed history — e.g. a replica fed duplicated/reordered ship
    /// batches vs. one fed in order — digest identically byte for byte,
    /// regardless of stripe count or physical chain layout.
    pub fn committed_state_digest(&self, clog: &Clog) -> u64 {
        // (key, cts, deleted, value) of every committed version, sorted.
        let mut rows: Vec<(Key, Timestamp, bool, Value)> = Vec::new();
        for stripe in self.stripes.iter() {
            for (key, node) in stripe.index.read().slots.iter() {
                for v in node.lock().iter_mut() {
                    if let TxnStatus::Committed(cts) = v.status(clog) {
                        rows.push((key, cts, v.deleted(), v.value.clone().unwrap_or_default()));
                    }
                }
            }
        }
        rows.sort_unstable_by_key(|a| (a.0, a.1));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (key, cts, deleted, value) in &rows {
            fold(&key.to_le_bytes());
            fold(&cts.0.to_le_bytes());
            fold(&[*deleted as u8]);
            fold(&(value.len() as u64).to_le_bytes());
            fold(value);
        }
        h
    }

    /// Current statistics.
    pub fn stats(&self) -> TableStats {
        let mut stats = TableStats::default();
        for stripe in self.stripes.iter() {
            let index = stripe.index.read();
            stats.keys += index.slots.len();
            for (_, node) in index.slots.iter() {
                let len = node.lock().len();
                stats.versions += len;
                stats.max_chain = stats.max_chain.max(len);
            }
        }
        stats
    }

    /// The longest probe sequence a point lookup of a mapped key walks in
    /// any stripe's slots (1 = every key sits in its home slot).
    pub fn max_probe(&self) -> usize {
        let stripes = self.stripes.iter();
        let probes = stripes.map(|s| s.index.read().slots.max_probe());
        probes.max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clog::TxnStatus;
    use bytes::Bytes;
    use remus_common::NodeId;

    const T: Duration = Duration::from_secs(2);

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// Starts txn `n`, runs `f` with it, commits at `ts`.
    fn committed(clog: &Clog, n: u64, ts: u64, f: impl FnOnce(TxnId)) -> TxnId {
        let x = xid(n);
        clog.begin(x);
        f(x);
        clog.set_committed(x, Timestamp(ts)).unwrap();
        x
    }

    #[test]
    fn committed_state_digest_ignores_layout_and_uncommitted() {
        let clog = Clog::new();
        // Same committed history, different stripe counts and apply order.
        let a = VersionedTable::with_stripes(1);
        let b = VersionedTable::with_stripes(8);
        committed(&clog, 1, 10, |x| {
            a.insert(1, val("one"), x, Timestamp(5), &clog, T).unwrap();
        });
        committed(&clog, 2, 20, |x| {
            a.insert(2, val("two"), x, Timestamp(5), &clog, T).unwrap();
        });
        // b applies in the opposite key order with the same xids/timestamps.
        b.insert(2, val("two"), xid(2), Timestamp::MAX, &clog, T)
            .unwrap();
        b.insert(1, val("one"), xid(1), Timestamp::MAX, &clog, T)
            .unwrap();
        assert_eq!(
            a.committed_state_digest(&clog),
            b.committed_state_digest(&clog)
        );
        // An uncommitted version does not perturb the digest...
        let loose = xid(99);
        clog.begin(loose);
        b.insert(77, val("pending"), loose, Timestamp::MAX, &clog, T)
            .unwrap();
        assert_eq!(
            a.committed_state_digest(&clog),
            b.committed_state_digest(&clog)
        );
        // ...until it commits.
        clog.set_committed(loose, Timestamp(30)).unwrap();
        assert_ne!(
            a.committed_state_digest(&clog),
            b.committed_state_digest(&clog)
        );
    }

    #[test]
    fn insert_then_read_at_later_snapshot() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        assert_eq!(
            t.read(1, Timestamp(10), xid(9), &clog, T).unwrap(),
            Some(val("a"))
        );
        assert_eq!(t.read(1, Timestamp(9), xid(9), &clog, T).unwrap(), None);
    }

    #[test]
    fn update_creates_new_version_old_snapshots_unaffected() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        committed(&clog, 2, 20, |x| {
            t.update(1, val("b"), x, Timestamp(15), &clog, T).unwrap();
        });
        assert_eq!(
            t.read(1, Timestamp(15), xid(9), &clog, T).unwrap(),
            Some(val("a"))
        );
        assert_eq!(
            t.read(1, Timestamp(25), xid(9), &clog, T).unwrap(),
            Some(val("b"))
        );
    }

    #[test]
    fn first_committer_wins() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        // Two concurrent updaters, both snapshot ts=15.
        committed(&clog, 2, 20, |x| {
            t.update(1, val("b"), x, Timestamp(15), &clog, T).unwrap();
        });
        let loser = xid(3);
        clog.begin(loser);
        let err = t
            .update(1, val("c"), loser, Timestamp(15), &clog, T)
            .unwrap_err();
        assert_eq!(
            err,
            DbError::WwConflict {
                txn: loser,
                other: xid(2)
            }
        );
    }

    #[test]
    fn writer_waits_for_unresolved_writer_then_conflicts() {
        let (t, clog) = (
            std::sync::Arc::new(VersionedTable::new()),
            std::sync::Arc::new(Clog::new()),
        );
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        let holder = xid(2);
        clog.begin(holder);
        t.update(1, val("b"), holder, Timestamp(15), &clog, T)
            .unwrap();

        let (t2, clog2) = (std::sync::Arc::clone(&t), std::sync::Arc::clone(&clog));
        let waiter = std::thread::spawn(move || {
            let w = xid(3);
            clog2.begin(w);
            t2.update(1, val("c"), w, Timestamp(15), &clog2, T)
        });
        std::thread::sleep(Duration::from_millis(20));
        clog.set_committed(holder, Timestamp(20)).unwrap();
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, DbError::WwConflict { .. }));
    }

    #[test]
    fn writer_waits_then_proceeds_if_holder_aborts() {
        let (t, clog) = (
            std::sync::Arc::new(VersionedTable::new()),
            std::sync::Arc::new(Clog::new()),
        );
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        let holder = xid(2);
        clog.begin(holder);
        t.update(1, val("b"), holder, Timestamp(15), &clog, T)
            .unwrap();

        let (t2, clog2) = (std::sync::Arc::clone(&t), std::sync::Arc::clone(&clog));
        let waiter = std::thread::spawn(move || {
            let w = xid(3);
            clog2.begin(w);
            t2.update(1, val("c"), w, Timestamp(15), &clog2, T)
        });
        std::thread::sleep(Duration::from_millis(20));
        // Abort: CLOG first, then purge (the required order).
        clog.set_aborted(holder);
        t.purge_txn([1], holder);
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn delete_hides_tuple_from_later_snapshots() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        committed(&clog, 2, 20, |x| {
            t.delete(1, x, Timestamp(15), &clog, T).unwrap();
        });
        assert_eq!(t.read(1, Timestamp(25), xid(9), &clog, T).unwrap(), None);
        assert_eq!(
            t.read(1, Timestamp(15), xid(9), &clog, T).unwrap(),
            Some(val("a"))
        );
    }

    #[test]
    fn reader_blocks_on_prepared_writer() {
        let t = std::sync::Arc::new(VersionedTable::new());
        let clog = std::sync::Arc::new(Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        let w = xid(2);
        clog.begin(w);
        t.update(1, val("b"), w, Timestamp(15), &clog, T).unwrap();
        clog.set_prepared(w).unwrap();

        let (t2, clog2) = (std::sync::Arc::clone(&t), std::sync::Arc::clone(&clog));
        let reader = std::thread::spawn(move || {
            // Reader's snapshot is *after* the writer will commit, so it
            // must wait and then see the new value.
            t2.read(1, Timestamp(30), xid(9), &clog2, T)
        });
        std::thread::sleep(Duration::from_millis(20));
        clog.set_committed(w, Timestamp(20)).unwrap();
        assert_eq!(reader.join().unwrap().unwrap(), Some(val("b")));
    }

    #[test]
    fn purge_restores_pre_transaction_state() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        let loser = xid(2);
        clog.begin(loser);
        t.update(1, val("junk"), loser, Timestamp(15), &clog, T)
            .unwrap();
        clog.set_aborted(loser);
        t.purge_txn([1], loser);
        assert_eq!(
            t.read(1, Timestamp(25), xid(9), &clog, T).unwrap(),
            Some(val("a"))
        );
        assert_eq!(t.stats().versions, 1);
    }

    #[test]
    fn install_frozen_visible_to_every_snapshot() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        t.install_frozen(1, val("migrated"));
        assert_eq!(
            t.read(1, Timestamp::SNAPSHOT_MIN, xid(9), &clog, T)
                .unwrap(),
            Some(val("migrated"))
        );
    }

    #[test]
    fn snapshot_scan_sees_consistent_cut() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        for k in 0..100u64 {
            committed(&clog, k + 1, 10, |x| {
                t.insert(k, val("v0"), x, Timestamp(5), &clog, T).unwrap();
            });
        }
        // Later updates must be invisible at ts=10.
        committed(&clog, 200, 20, |x| {
            t.update(7, val("v1"), x, Timestamp(12), &clog, T).unwrap();
        });
        let seen = t.scan_visible_range(.., Timestamp(10), &clog, T).unwrap();
        assert_eq!(seen.len(), 100);
        assert!(
            seen.windows(2).all(|w| w[0].0 < w[1].0),
            "scan must be key-ordered"
        );
        assert_eq!(seen[7].1, val("v0"));
    }

    #[test]
    fn scan_range_and_count() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        for k in 0..20u64 {
            committed(&clog, k + 1, 10, |x| {
                t.insert(k, val("v"), x, Timestamp(5), &clog, T).unwrap();
            });
        }
        let chunk = t
            .scan_visible_range(5..10, Timestamp(15), &clog, T)
            .unwrap();
        assert_eq!(chunk.len(), 5);
        assert_eq!(t.count_visible(Timestamp(15), &clog, T).unwrap(), 20);
        assert_eq!(t.count_visible(Timestamp(9), &clog, T).unwrap(), 0);
    }

    #[test]
    fn vacuum_trims_old_versions_but_keeps_horizon_anchor() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        for (n, ts) in [(2u64, 20u64), (3, 30), (4, 40)] {
            committed(&clog, n, ts, |x| {
                t.update(1, val("u"), x, Timestamp(ts - 5), &clog, T)
                    .unwrap();
            });
        }
        assert_eq!(t.stats().versions, 4);
        let freed = t.vacuum(Timestamp(30), &clog);
        // Versions at 10 and 20 are unreachable for any snapshot >= 30; the
        // version committed at 30 is the anchor and must stay.
        assert_eq!(freed, 2);
        assert_eq!(t.stats().versions, 2);
        assert_eq!(
            t.read(1, Timestamp(30), xid(9), &clog, T).unwrap(),
            Some(val("u"))
        );
        assert_eq!(
            t.read(1, Timestamp(45), xid(9), &clog, T).unwrap(),
            Some(val("u"))
        );
    }

    #[test]
    fn vacuum_removes_dead_tombstoned_keys() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        committed(&clog, 2, 20, |x| {
            t.delete(1, x, Timestamp(15), &clog, T).unwrap();
        });
        t.vacuum(Timestamp(25), &clog);
        assert_eq!(t.stats().keys, 0);
    }

    #[test]
    fn vacuum_drops_aborted_versions() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        let loser = xid(2);
        clog.begin(loser);
        t.update(1, val("junk"), loser, Timestamp(15), &clog, T)
            .unwrap();
        clog.set_aborted(loser);
        // No purge happened (e.g. crash path); vacuum reclaims it.
        assert_eq!(t.vacuum(Timestamp(5), &clog), 1);
        assert_eq!(t.stats().versions, 1);
    }

    #[test]
    fn update_missing_key_is_key_not_found() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        let x = xid(1);
        clog.begin(x);
        assert_eq!(
            t.update(42, val("x"), x, Timestamp(5), &clog, T)
                .unwrap_err(),
            DbError::KeyNotFound
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        let x = xid(2);
        clog.begin(x);
        assert_eq!(
            t.insert(1, val("b"), x, Timestamp(15), &clog, T)
                .unwrap_err(),
            DbError::DuplicateKey
        );
    }

    #[test]
    fn concurrent_inserts_one_wins() {
        let t = std::sync::Arc::new(VersionedTable::new());
        let clog = std::sync::Arc::new(Clog::new());
        let a = xid(1);
        clog.begin(a);
        t.insert(1, val("a"), a, Timestamp(5), &clog, T).unwrap();
        let (t2, clog2) = (std::sync::Arc::clone(&t), std::sync::Arc::clone(&clog));
        let racer = std::thread::spawn(move || {
            let b = xid(2);
            clog2.begin(b);
            t2.insert(1, val("b"), b, Timestamp(5), &clog2, T)
        });
        std::thread::sleep(Duration::from_millis(20));
        clog.set_committed(a, Timestamp(10)).unwrap();
        assert_eq!(racer.join().unwrap().unwrap_err(), DbError::DuplicateKey);
    }

    #[test]
    fn own_update_in_place_keeps_single_version() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        let x = xid(1);
        clog.begin(x);
        t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        t.update(1, val("b"), x, Timestamp(5), &clog, T).unwrap();
        assert_eq!(t.stats().versions, 1);
        clog.set_committed(x, Timestamp(10)).unwrap();
        assert_eq!(
            t.read(1, Timestamp(10), xid(9), &clog, T).unwrap(),
            Some(val("b"))
        );
    }

    #[test]
    fn clog_status_check() {
        let clog = Clog::new();
        let x = xid(1);
        clog.begin(x);
        assert_eq!(clog.status(x), TxnStatus::InProgress);
    }

    #[test]
    fn a_resolved_version_is_answered_without_the_clog() {
        let (t, clog) = (VersionedTable::new(), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        // The first read resolves the writer in the log and stamps the
        // version; a log that never heard of the writer — where it reads
        // `Aborted`, and the version would be skipped — is not asked again,
        // by a reader, a writer or GC.
        let blank = Clog::new();
        assert_eq!(blank.status(xid(1)), TxnStatus::Aborted);
        let read = |key, ts, clog: &Clog| t.read(key, Timestamp(ts), xid(9), clog, T).unwrap();
        assert_eq!(read(1, 15, &clog), Some(val("a")));
        assert_eq!(read(1, 15, &blank), Some(val("a")));
        assert_eq!(
            read(1, 9, &blank),
            None,
            "the stamp is the commit timestamp"
        );
        let versioned = t.read_versioned(1, Timestamp(15), xid(9), &blank, T);
        assert_eq!(versioned.unwrap(), Some((val("a"), Timestamp(10))));
        let late = xid(2);
        let early = t.update(1, val("b"), late, Timestamp(5), &blank, T);
        assert_eq!(
            early.unwrap_err(),
            DbError::WwConflict {
                txn: late,
                other: xid(1)
            }
        );
        assert_eq!(t.vacuum(Timestamp(50), &blank), 0);
        // An install that is handed the timestamp stamps at once.
        committed(&clog, 3, 40, |_| {});
        t.install_committed(5, WriteKind::Update, val("r"), xid(3), Timestamp(40), &clog);
        assert_eq!(read(5, 45, &blank), Some(val("r")));
        assert_eq!(read(5, 39, &blank), None);
        // A writer still in progress is not: its version is invisible now
        // and visible once it commits.
        clog.begin(late);
        t.update(1, val("b"), late, Timestamp(15), &clog, T)
            .unwrap();
        assert_eq!(read(1, 60, &clog), Some(val("a")));
        clog.set_committed(late, Timestamp(50)).unwrap();
        assert_eq!(read(1, 60, &clog), Some(val("b")));
        // Nor is an aborted one: its version stays the log's to condemn.
        let loser = xid(4);
        clog.begin(loser);
        t.update(5, val("junk"), loser, Timestamp(45), &clog, T)
            .unwrap();
        clog.set_aborted(loser);
        assert_eq!(read(5, 60, &clog), Some(val("r")));
        assert_eq!(t.vacuum(Timestamp(45), &clog), 1);
    }

    #[test]
    fn striped_table_matches_single_stripe_byte_for_byte() {
        // Identical deterministic workload against 1 and 8 stripes: every
        // observable output (ordered scans, chunk splits, stats, reads)
        // must be identical.
        let clog1 = Clog::new();
        let clog8 = Clog::new();
        let t1 = VersionedTable::with_stripes(1);
        let t8 = VersionedTable::with_stripes(8);
        for (t, clog) in [(&t1, &clog1), (&t8, &clog8)] {
            for k in 0..64u64 {
                committed(clog, k + 1, 10, |x| {
                    t.insert(k * 3, val("v0"), x, Timestamp(5), clog, T)
                        .unwrap();
                });
            }
            committed(clog, 100, 20, |x| {
                t.update(9, val("v1"), x, Timestamp(15), clog, T).unwrap();
                t.delete(12, x, Timestamp(15), clog, T).unwrap();
            });
        }
        let collect = |t: &VersionedTable, clog: &Clog, ts: u64| {
            t.scan_visible_range(.., Timestamp(ts), clog, T).unwrap()
        };
        assert_eq!(collect(&t1, &clog1, 10), collect(&t8, &clog8, 10));
        assert_eq!(collect(&t1, &clog1, 25), collect(&t8, &clog8, 25));
        assert_eq!(
            t1.scan_visible_range(10..100, Timestamp(25), &clog1, T)
                .unwrap(),
            t8.scan_visible_range(10..100, Timestamp(25), &clog8, T)
                .unwrap()
        );
        assert_eq!(t1.chunk_splits(10), t8.chunk_splits(10));
        assert_eq!(t1.stats(), t8.stats());
    }

    #[test]
    fn striped_scan_is_key_ordered_and_batched_across_stripes() {
        let (t, clog) = (VersionedTable::with_stripes(7), Clog::new());
        // More keys than one scan batch (256) so the merge runs repeatedly.
        for k in 0..600u64 {
            committed(&clog, k + 1, 10, |x| {
                t.insert(k, val("v"), x, Timestamp(5), &clog, T).unwrap();
            });
        }
        let mut seen = Vec::new();
        t.scan(.., Timestamp(10), TxnId::INVALID, &clog, T, |k, _| {
            seen.push(k)
        })
        .unwrap();
        assert_eq!(seen.len(), 600);
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "merged scan ordered");
        // Ranges that end exactly on a batch boundary, and inside one.
        for (range, want) in [(0..256, 256), (0..512, 512), (100..101, 1), (599..700, 1)] {
            let rows = t.scan_visible_range(range, Timestamp(10), &clog, T);
            assert_eq!(rows.unwrap().len(), want);
        }
        let splits = t.chunk_splits(100);
        assert_eq!(splits, vec![100, 200, 300, 400, 500]);
    }

    /// Every pending key, for asserting the [`Stripe`] invariant directly.
    fn pending_keys(t: &VersionedTable) -> Vec<Key> {
        let mut keys: Vec<Key> = t
            .stripes
            .iter()
            .flat_map(|s| s.pending.lock().iter().map(|(_, k)| *k).collect::<Vec<_>>())
            .collect();
        keys.sort_unstable();
        keys
    }

    /// `n` keys in the same stripe as `like` (or, with `same == false`, in
    /// any other stripe), drawn from `from..`.
    fn keys_by_stripe(t: &VersionedTable, like: Key, same: bool, from: Key, n: usize) -> Vec<Key> {
        (from..)
            .filter(|k| std::ptr::eq(t.stripe_of(*k), t.stripe_of(like)) == same)
            .take(n)
            .collect()
    }

    #[test]
    fn gc_step_prunes_incrementally_and_keeps_watermark_anchor() {
        let (t, clog) = (VersionedTable::with_stripes(4), Clog::new());
        let mut n = 0u64;
        for k in 0..32u64 {
            n += 1;
            committed(&clog, n, 10, |x| {
                t.insert(k, val("a"), x, Timestamp(5), &clog, T).unwrap();
            });
            for ts in [20u64, 30, 40] {
                n += 1;
                committed(&clog, n, ts, |x| {
                    t.update(k, val("u"), x, Timestamp(ts - 5), &clog, T)
                        .unwrap();
                });
            }
        }
        assert_eq!(t.stats().versions, 32 * 4);
        assert_eq!(pending_keys(&t), (0..32).collect::<Vec<_>>());
        // Bounded steps: each visits exactly its budget of pending chains
        // until all 32 have been seen once.
        for _ in 0..4 {
            let step = t.gc_step(Timestamp(30), &clog, 8);
            assert_eq!((step.scanned, step.pruned, step.max_chain), (8, 16, 4));
        }
        // Per key: versions at 10 and 20 are unreachable for snapshots >=
        // 30; the one at 40 keeps every chain pending, but not due.
        assert_eq!(t.stats().versions, 32 * 2);
        assert_eq!(
            t.gc_step(Timestamp(30), &clog, 1024),
            GcStepStats::default()
        );
        assert_eq!(pending_keys(&t).len(), 32);
        for k in 0..32u64 {
            // The watermark snapshot itself still reads the anchor.
            assert_eq!(
                t.read(k, Timestamp(30), xid(999), &clog, T).unwrap(),
                Some(val("u"))
            );
            assert_eq!(
                t.read(k, Timestamp(45), xid(999), &clog, T).unwrap(),
                Some(val("u"))
            );
        }
        // The watermark reaches what blocked them: one visit each, then
        // every chain is one live version and nothing is pending.
        let last = t.gc_step(Timestamp(40), &clog, 1024);
        assert_eq!((last.scanned, last.pruned), (32, 32));
        assert_eq!(t.stats().versions, 32);
        assert!(pending_keys(&t).is_empty());
    }

    #[test]
    fn gc_step_removes_dead_tombstones_and_reports_chain_stats() {
        let (t, clog) = (VersionedTable::with_stripes(2), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(1, val("a"), x, Timestamp(5), &clog, T).unwrap();
        });
        committed(&clog, 2, 20, |x| {
            t.delete(1, x, Timestamp(15), &clog, T).unwrap();
        });
        committed(&clog, 3, 10, |x| {
            t.insert(2, val("b"), x, Timestamp(5), &clog, T).unwrap();
        });
        // Only the deleted key is pending; the insert-only one is never
        // visited.
        let stats = t.gc_step(Timestamp(25), &clog, 1024);
        assert_eq!(
            stats,
            GcStepStats {
                scanned: 1,
                pruned: 2,
                max_chain: 2
            }
        );
        assert_eq!(t.stats().keys, 1, "dead tombstoned key removed");
        assert_eq!(
            t.read(2, Timestamp(25), xid(9), &clog, T).unwrap(),
            Some(val("b"))
        );
    }

    #[test]
    fn pinned_watermark_visits_each_pending_chain_once() {
        let (t, clog) = (VersionedTable::with_stripes(4), Clog::new());
        for k in 0..16u64 {
            committed(&clog, k + 1, 10, |x| {
                t.insert(k, val("v0"), x, Timestamp(5), &clog, T).unwrap();
            });
            committed(&clog, 100 + k, 30, |x| {
                t.update(k, val("v1"), x, Timestamp(25), &clog, T).unwrap();
            });
        }
        // A snapshot pinned at 20 needs v0 everywhere: the first step
        // visits all 16 chains and frees nothing, later ones visit none.
        let pin = Timestamp(20);
        assert_eq!(t.gc_step(pin, &clog, usize::MAX).scanned, 16);
        for _ in 0..5 {
            assert_eq!(t.gc_step(pin, &clog, usize::MAX), GcStepStats::default());
        }
        // More writes on blocked chains neither re-enqueue them nor make
        // them due.
        for k in 0..16u64 {
            committed(&clog, 200 + k, 40, |x| {
                t.update(k, val("v2"), x, Timestamp(35), &clog, T).unwrap();
            });
        }
        assert_eq!(pending_keys(&t).len(), 16);
        assert_eq!(t.gc_step(pin, &clog, usize::MAX), GcStepStats::default());
        assert_eq!(
            t.read(3, pin, xid(999), &clog, T).unwrap(),
            Some(val("v0")),
            "the pinned snapshot keeps its version"
        );
        // Pin released: everything goes on the first step.
        let step = t.gc_step(Timestamp(50), &clog, usize::MAX);
        assert_eq!((step.scanned, step.pruned, step.max_chain), (16, 32, 3));
        assert_eq!(t.stats().versions, 16);
        assert!(pending_keys(&t).is_empty());
    }

    #[test]
    fn a_stripe_of_blocked_keys_cannot_starve_the_others() {
        let (t, clog) = (VersionedTable::with_stripes(4), Clog::new());
        // One stripe holds 64 chains whose writer stays open, so each is due
        // again at every higher watermark; one key elsewhere is prunable.
        let crowd = keys_by_stripe(&t, 0, true, 0, 64);
        let lone = keys_by_stripe(&t, 0, false, 0, 1)[0];
        let open = xid(9_000);
        clog.begin(open);
        for (i, &k) in crowd.iter().chain([&lone]).enumerate() {
            committed(&clog, i as u64 + 1, 10, |x| {
                t.insert(k, val("v0"), x, Timestamp(5), &clog, T).unwrap();
            });
        }
        for &k in &crowd {
            t.update(k, val("open"), open, Timestamp(15), &clog, T)
                .unwrap();
        }
        committed(&clog, 500, 20, |x| {
            t.update(lone, val("v1"), x, Timestamp(15), &clog, T)
                .unwrap();
        });
        // A budget far below the crowd, an advancing watermark: the lone
        // key is reached within one round of the stripes.
        let mut pruned = 0;
        for step in 0..t.stripes.len() as u64 {
            pruned += t.gc_step(Timestamp(30 + step), &clog, 4).pruned;
        }
        assert_eq!(pruned, 1, "only the lone key had anything to free");
        assert_eq!(t.chain_snapshot(lone).len(), 1);
        assert_eq!(pending_keys(&t), crowd, "the crowd stays pending");
    }

    #[test]
    fn aborts_and_own_tombstones_become_pending() {
        let (t, clog) = (VersionedTable::with_stripes(2), Clog::new());
        // An aborted insert leaves an empty chain behind: GC unmaps it.
        let loser = xid(1);
        clog.begin(loser);
        t.insert(1, val("junk"), loser, Timestamp(5), &clog, T)
            .unwrap();
        assert!(pending_keys(&t).is_empty(), "one live version: clean");
        clog.set_aborted(loser);
        t.purge_txn([1], loser);
        assert_eq!(pending_keys(&t), vec![1]);
        // Insert and delete in one transaction: a lone tombstone, made
        // without ever pushing a second version.
        committed(&clog, 2, 10, |x| {
            t.insert(2, val("brief"), x, Timestamp(5), &clog, T)
                .unwrap();
            t.delete(2, x, Timestamp(5), &clog, T).unwrap();
        });
        assert_eq!(pending_keys(&t), vec![1, 2]);
        // An aborted update takes its chain back to clean; the entry it
        // left costs one visit.
        committed(&clog, 3, 10, |x| {
            t.insert(3, val("keep"), x, Timestamp(5), &clog, T).unwrap();
        });
        let loser = xid(4);
        clog.begin(loser);
        t.update(3, val("junk"), loser, Timestamp(15), &clog, T)
            .unwrap();
        clog.set_aborted(loser);
        t.purge_txn([3], loser);
        let step = t.gc_step(Timestamp(20), &clog, usize::MAX);
        assert_eq!((step.scanned, step.pruned), (3, 1));
        assert_eq!(t.stats().keys, 1);
        assert!(pending_keys(&t).is_empty());
    }

    #[test]
    fn clear_and_install_frozen_keep_pending_exact() {
        let (t, clog) = (VersionedTable::with_stripes(4), Clog::new());
        let dirty = |t: &VersionedTable, base: u64| {
            for k in 0..20u64 {
                committed(&clog, base + 2 * k, 10, |x| {
                    t.insert(k, val("v0"), x, Timestamp(5), &clog, T).unwrap();
                });
                committed(&clog, base + 2 * k + 1, 20, |x| {
                    t.update(k, val("v1"), x, Timestamp(15), &clog, T).unwrap();
                });
            }
        };
        dirty(&t, 1);
        assert_eq!(pending_keys(&t), (0..20).collect::<Vec<_>>());
        // A frozen install replaces the chain by one live version; what is
        // left of its old entry is dropped at its one visit.
        t.install_frozen(0, val("frozen"));
        let step = t.gc_step(Timestamp(25), &clog, usize::MAX);
        assert_eq!((step.scanned, step.pruned), (20, 19));
        assert!(pending_keys(&t).is_empty());
        assert_eq!(t.chain_snapshot(0).len(), 1);
        // ... and writing over it enqueues the key again.
        committed(&clog, 900, 30, |x| {
            t.update(0, val("v2"), x, Timestamp(25), &clog, T).unwrap();
        });
        assert_eq!(pending_keys(&t), vec![0]);
        // Clearing the table clears what was pending; a reload starts over.
        t.clear();
        assert!(pending_keys(&t).is_empty());
        assert_eq!(
            t.gc_step(Timestamp(99), &clog, usize::MAX),
            GcStepStats::default()
        );
        dirty(&t, 1_000);
        assert_eq!(pending_keys(&t), (0..20).collect::<Vec<_>>());
        assert_eq!(t.vacuum(Timestamp(25), &clog), 20);
        assert_eq!(t.stats().versions, 20);
    }

    /// A prune runs under the stripe's read lock and the unmap under its
    /// write lock, so a writer can land on the emptied chain in between —
    /// and, finding a chain that already needed GC, does not enqueue it.
    /// What the chain is under the write lock decides.
    #[test]
    fn gc_never_unmaps_a_chain_written_since_its_prune() {
        let (t, clog) = (VersionedTable::with_stripes(1), Clog::new());
        let stripe = &t.stripes[0];
        // An aborted insert leaves an empty chain pending; the collector
        // takes it (the first half of a step) and is about to unmap it.
        let emptied_and_taken = |key: Key, n: u64| {
            let loser = xid(n);
            clog.begin(loser);
            t.insert(key, val("junk"), loser, Timestamp(5), &clog, T)
                .unwrap();
            clog.set_aborted(loser);
            t.purge_txn([key], loser);
            assert_eq!(stripe.take_due(Timestamp(25), 8), vec![key]);
        };
        // One write since: one live version, nothing left to collect.
        emptied_and_taken(42, 100);
        committed(&clog, 1, 30, |x| {
            t.insert(42, val("late"), x, Timestamp(5), &clog, T)
                .unwrap();
        });
        assert!(stripe.remove_dead_keys(vec![42]).is_empty());
        assert_eq!(
            t.read(42, Timestamp(35), xid(9), &clog, T).unwrap(),
            Some(val("late")),
            "the write into the emptied chain was unmapped by GC"
        );
        // A replica's delete since: a lone tombstone nobody enqueued (the
        // chain needed GC before and after), handed back as still pending.
        emptied_and_taken(43, 101);
        committed(&clog, 2, 30, |_| {});
        t.install_committed(43, WriteKind::Delete, val(""), xid(2), Timestamp(30), &clog);
        assert_eq!(stripe.remove_dead_keys(vec![43]), vec![43]);
        // None since: unmapped, from the slots and from the ordered keys.
        emptied_and_taken(44, 102);
        assert!(stripe.remove_dead_keys(vec![44]).is_empty());
        assert_eq!(t.stats().keys, 2);
        assert_eq!(t.chunk_splits(1), vec![43]);
        assert!(pending_keys(&t).is_empty());
    }

    #[test]
    fn gc_step_never_prunes_versions_visible_to_watermark_snapshot() {
        let (t, clog) = (VersionedTable::with_stripes(3), Clog::new());
        committed(&clog, 1, 10, |x| {
            t.insert(7, val("old"), x, Timestamp(5), &clog, T).unwrap();
        });
        committed(&clog, 2, 40, |x| {
            t.update(7, val("new"), x, Timestamp(35), &clog, T).unwrap();
        });
        // Watermark 20: the version committed at 10 is the anchor a
        // snapshot at 20 reads — it must survive any number of steps.
        for _ in 0..4 {
            t.gc_step(Timestamp(20), &clog, 1024);
        }
        assert_eq!(
            t.read(7, Timestamp(20), xid(9), &clog, T).unwrap(),
            Some(val("old"))
        );
        assert_eq!(
            t.read(7, Timestamp(45), xid(9), &clog, T).unwrap(),
            Some(val("new"))
        );
    }
}
