//! The commit log (CLOG): per-transaction status and commit timestamps.
//!
//! PostgreSQL's CLOG records committed/aborted per xid; PolarDB-PG extends
//! it to also store the commit *timestamp* (paper §2.2), and reserves a
//! special `Prepared` status written during the 2PC prepare phase. MVCC
//! visibility consults the CLOG for every traversed version whose creator
//! it has not yet seen committed (a version keeps that answer, see
//! `crate::tuple`); on `Prepared` the reader blocks until the writer
//! resolves (prepare-wait).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::RwLock;
use remus_common::time::Signal;
use remus_common::{DbError, DbResult, NodeId, Timestamp, TxnId};
use std::collections::HashMap;

/// Status of a transaction as recorded in the CLOG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running; neither prepared nor resolved.
    InProgress,
    /// Wrote its prepare record (2PC phase one, or the single-node
    /// equivalent); commit timestamp not yet assigned. Readers encountering
    /// this wait for resolution.
    Prepared,
    /// Committed with the recorded commit timestamp.
    Committed(Timestamp),
    /// Rolled back.
    Aborted,
}

impl TxnStatus {
    /// True once the transaction can no longer change state.
    pub fn is_resolved(self) -> bool {
        matches!(self, TxnStatus::Committed(_) | TxnStatus::Aborted)
    }
}

const SHARDS: usize = 16;

/// Commit-cache slots per CLOG: `SHARDS` groups of `SLOTS_PER_SHARD`.
const SLOTS_PER_SHARD: usize = 256;

/// One seqlock slot of the lock-free commit cache: an (xid, commit ts) pair
/// guarded by a sequence number (odd while a writer is mid-update).
///
/// Every xid that hashes to this slot hashes to the same CLOG shard, and
/// writers publish only while holding that shard's *write* lock — so there
/// is exactly one writer per slot at a time and the plain
/// odd/write/even protocol is sound. Commit timestamps are immutable once
/// set, so a reader that sees a stable even sequence and a matching xid has
/// a correct value.
#[derive(Default)]
struct CacheSlot {
    seq: AtomicU64,
    xid: AtomicU64,
    ts: AtomicU64,
}

impl CacheSlot {
    /// Publish under the owning shard's write lock (single writer).
    fn put(&self, xid: TxnId, ts: Timestamp) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::SeqCst);
        self.xid.store(xid.0, Ordering::SeqCst);
        self.ts.store(ts.0, Ordering::SeqCst);
        self.seq.store(s + 2, Ordering::SeqCst);
    }

    /// Lock-free read; `None` means "not cached, take the slow path".
    fn get(&self, xid: TxnId) -> Option<Timestamp> {
        let s1 = self.seq.load(Ordering::SeqCst);
        if s1 & 1 == 1 {
            return None;
        }
        if self.xid.load(Ordering::SeqCst) != xid.0 {
            return None;
        }
        let ts = self.ts.load(Ordering::SeqCst);
        if self.seq.load(Ordering::SeqCst) == s1 {
            Some(Timestamp(ts))
        } else {
            None
        }
    }
}

/// A node's commit log.
///
/// Sharded hash maps keep the hot path short; one [`Signal`] wakes
/// prepare-waiters whenever any transaction resolves (acceptable at
/// simulation scale and simple to reason about), and costs a resolution one
/// load while nobody waits. `Committed(ts)` lookups —
/// the common case of every MVCC visibility check — are served by a
/// lock-free seqlock cache in front of the shard locks; commit status is
/// immutable once set, so a cache hit never needs revalidation.
pub struct Clog {
    shards: [RwLock<HashMap<TxnId, TxnStatus>>; SHARDS],
    cache: Box<[CacheSlot]>,
    resolved: Signal,
    wait_blocks: AtomicU64,
}

impl std::fmt::Debug for Clog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Clog")
            .field("entries", &self.len())
            .finish()
    }
}

/// The reserved transaction id owning snapshot-installed tuples: always
/// committed at [`Timestamp::SNAPSHOT_MIN`], making migrated snapshot data
/// visible to every transaction that starts after the snapshot (paper §3.2).
pub const FROZEN_TXN: TxnId = TxnId(u64::MAX);

impl Clog {
    /// An empty commit log (with the frozen bootstrap transaction
    /// pre-committed).
    pub fn new() -> Self {
        let clog = Clog {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            cache: (0..SHARDS * SLOTS_PER_SHARD)
                .map(|_| CacheSlot::default())
                .collect(),
            resolved: Signal::default(),
            wait_blocks: AtomicU64::new(0),
        };
        {
            let mut shard = clog.shard(FROZEN_TXN).write();
            shard.insert(FROZEN_TXN, TxnStatus::Committed(Timestamp::SNAPSHOT_MIN));
            // The frozen transaction owns every snapshot-installed tuple —
            // the hottest commit lookup of all — so it is cached up front.
            clog.slot(FROZEN_TXN)
                .put(FROZEN_TXN, Timestamp::SNAPSHOT_MIN);
        }
        clog
    }

    fn hash(xid: TxnId) -> u64 {
        // xids are dense per node; mix the bits a little.
        xid.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    fn shard(&self, xid: TxnId) -> &RwLock<HashMap<TxnId, TxnStatus>> {
        &self.shards[(Self::hash(xid) >> 60) as usize % SHARDS]
    }

    /// The cache slot for `xid`. The slot index embeds the shard index, so
    /// two xids can share a slot only if they share a CLOG shard — which is
    /// what makes that shard's write lock the slot's single-writer guard.
    fn slot(&self, xid: TxnId) -> &CacheSlot {
        let h = Self::hash(xid);
        let shard_idx = (h >> 60) as usize % SHARDS;
        let sub = (h >> 52) as usize % SLOTS_PER_SHARD;
        &self.cache[shard_idx * SLOTS_PER_SHARD + sub]
    }

    /// Registers a transaction as in progress. Idempotent for an xid that is
    /// already in progress; panics if the xid was already resolved (a bug).
    pub fn begin(&self, xid: TxnId) {
        let mut shard = self.shard(xid).write();
        match shard.insert(xid, TxnStatus::InProgress) {
            None | Some(TxnStatus::InProgress) => {}
            Some(other) => panic!("begin({xid}) over resolved status {other:?}"),
        }
    }

    /// Like [`Clog::begin`], but fails instead of panicking when the xid was
    /// already resolved — the race a server-side force-abort can create.
    pub fn try_begin(&self, xid: TxnId) -> DbResult<()> {
        let mut shard = self.shard(xid).write();
        match shard.get(&xid).copied() {
            None | Some(TxnStatus::InProgress) => {
                shard.insert(xid, TxnStatus::InProgress);
                Ok(())
            }
            Some(TxnStatus::Aborted) => Err(DbError::Aborted(xid)),
            Some(other) => Err(DbError::Internal(format!("begin({xid}) over {other:?}"))),
        }
    }

    /// Like [`Clog::set_aborted`], but only from the in-progress (or
    /// unknown) state: returns `false` if the transaction is already
    /// prepared, committed or aborted. Server-side force-aborts must not yank
    /// a transaction that entered 2PC — its coordinator may still decide to
    /// commit it; callers wait for such victims instead. A transaction that
    /// already aborted itself has nothing left for a force-abort to do.
    pub fn try_abort(&self, xid: TxnId) -> bool {
        {
            let mut shard = self.shard(xid).write();
            match shard.get(&xid) {
                Some(TxnStatus::Committed(_) | TxnStatus::Prepared | TxnStatus::Aborted) => {
                    return false
                }
                _ => {
                    shard.insert(xid, TxnStatus::Aborted);
                }
            }
        }
        self.resolved.notify();
        true
    }

    /// Moves a transaction to `Prepared` (the special reserved status).
    pub fn set_prepared(&self, xid: TxnId) -> DbResult<()> {
        let mut shard = self.shard(xid).write();
        match shard.get(&xid).copied() {
            Some(TxnStatus::InProgress) => {
                shard.insert(xid, TxnStatus::Prepared);
                Ok(())
            }
            Some(TxnStatus::Prepared) => Ok(()),
            other => Err(DbError::Internal(format!("prepare({xid}) from {other:?}"))),
        }
    }

    /// Replaces the prepared (or in-progress, for the single-node fast path)
    /// status with the commit timestamp and wakes prepare-waiters.
    pub fn set_committed(&self, xid: TxnId, ts: Timestamp) -> DbResult<()> {
        debug_assert!(ts.is_valid());
        {
            let mut shard = self.shard(xid).write();
            match shard.get(&xid).copied() {
                Some(TxnStatus::InProgress) | Some(TxnStatus::Prepared) => {
                    shard.insert(xid, TxnStatus::Committed(ts));
                    // Publish to the lock-free cache while still holding the
                    // shard write lock (the slot's single-writer guard).
                    self.slot(xid).put(xid, ts);
                }
                Some(TxnStatus::Committed(prev)) if prev == ts => return Ok(()),
                other => return Err(DbError::Internal(format!("commit({xid}) from {other:?}"))),
            }
        }
        self.resolved.notify();
        Ok(())
    }

    /// Marks the transaction aborted and wakes prepare-waiters.
    pub fn set_aborted(&self, xid: TxnId) {
        {
            let mut shard = self.shard(xid).write();
            match shard.get(&xid).copied() {
                Some(TxnStatus::Committed(_)) => {
                    panic!("abort({xid}) after commit");
                }
                _ => {
                    shard.insert(xid, TxnStatus::Aborted);
                }
            }
        }
        self.resolved.notify();
    }

    /// Looks up a transaction's status. Unknown xids are reported as
    /// aborted: the only way a version references an unknown xid is after a
    /// simulated crash wiped in-progress state, which aborts them.
    ///
    /// The common case — `Committed(ts)` — is answered by the lock-free
    /// commit cache without touching the shard `RwLock`; sound because a
    /// commit record never changes once written (an abort after commit is a
    /// panic, never a transition).
    pub fn status(&self, xid: TxnId) -> TxnStatus {
        if let Some(ts) = self.slot(xid).get(xid) {
            return TxnStatus::Committed(ts);
        }
        self.shard(xid)
            .read()
            .get(&xid)
            .copied()
            .unwrap_or(TxnStatus::Aborted)
    }

    /// The commit timestamp of a committed transaction.
    pub fn commit_ts(&self, xid: TxnId) -> Option<Timestamp> {
        match self.status(xid) {
            TxnStatus::Committed(ts) => Some(ts),
            _ => None,
        }
    }

    /// Blocks until `xid` is resolved (committed or aborted), returning the
    /// final status. This is the prepare-wait primitive.
    pub fn wait_resolved(&self, xid: TxnId, timeout: Duration) -> DbResult<TxnStatus> {
        // A resolution flips the status under its shard's write lock, which
        // every uncached look takes, and only then notifies.
        let mut status = None;
        let mut looks = 0;
        self.resolved.park_until(
            || {
                looks += 1;
                status = Some(self.status(xid)).filter(|st| st.is_resolved());
                // The first look is the fast path; a miss at the second,
                // taken once parked, is a wait that blocks.
                if status.is_none() && looks == 2 {
                    self.wait_blocks.fetch_add(1, Ordering::Relaxed);
                }
                status.is_some()
            },
            timeout,
        );
        // The last look's answer: resolved, or `None` at the deadline.
        status.ok_or(DbError::Timeout("transaction resolution"))
    }

    /// Number of [`Clog::wait_resolved`] calls that actually blocked on an
    /// unresolved (usually prepared) transaction — the prepare-wait count.
    pub fn prepare_wait_blocks(&self) -> u64 {
        self.wait_blocks.load(Ordering::Relaxed)
    }

    /// Total number of recorded transactions (including the frozen one).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if only the frozen bootstrap transaction is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Crash simulation: aborts every unresolved transaction that originated
    /// on `node` (used by the recovery tests). Prepared transactions are
    /// left for 2PC recovery to decide, mirroring real 2PC semantics.
    pub fn crash_abort_in_progress(&self, node: NodeId) -> Vec<TxnId> {
        let mut aborted = Vec::new();
        for shard in &self.shards {
            let mut map = shard.write();
            for (xid, st) in map.iter_mut() {
                if *st == TxnStatus::InProgress && xid.origin() == node {
                    *st = TxnStatus::Aborted;
                    aborted.push(*xid);
                }
            }
        }
        self.resolved.notify();
        aborted
    }

    /// All transactions currently in the `Prepared` state (2PC recovery).
    pub fn prepared_txns(&self) -> Vec<TxnId> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (xid, st) in shard.read().iter() {
                if *st == TxnStatus::Prepared {
                    out.push(*xid);
                }
            }
        }
        out
    }

    /// Crash-restart simulation: wipes every entry back to the fresh state
    /// (only the frozen bootstrap transaction committed), including the
    /// seqlock commit cache — every slot is overwritten with the frozen
    /// pair so no stale `Committed` answer can survive the reset. Callers
    /// must be quiescent: no concurrent readers or writers (the restart
    /// path tears the node down first), which is what makes the bare
    /// slot-publish here sound without the usual shard write lock.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        for slot in self.cache.iter() {
            // The frozen xid answers correctly from any slot; every other
            // xid mismatches and falls through to the (now empty) maps.
            slot.put(FROZEN_TXN, Timestamp::SNAPSHOT_MIN);
        }
        let mut shard = self.shard(FROZEN_TXN).write();
        shard.insert(FROZEN_TXN, TxnStatus::Committed(Timestamp::SNAPSHOT_MIN));
        drop(shard);
        self.resolved.notify();
    }
}

impl Default for Clog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    #[test]
    fn lifecycle_in_progress_prepared_committed() {
        let clog = Clog::new();
        let x = xid(1);
        clog.begin(x);
        assert_eq!(clog.status(x), TxnStatus::InProgress);
        clog.set_prepared(x).unwrap();
        assert_eq!(clog.status(x), TxnStatus::Prepared);
        clog.set_committed(x, Timestamp(42)).unwrap();
        assert_eq!(clog.status(x), TxnStatus::Committed(Timestamp(42)));
        assert_eq!(clog.commit_ts(x), Some(Timestamp(42)));
    }

    #[test]
    fn single_node_fast_path_commits_from_in_progress() {
        let clog = Clog::new();
        let x = xid(2);
        clog.begin(x);
        clog.set_committed(x, Timestamp(7)).unwrap();
        assert_eq!(clog.status(x), TxnStatus::Committed(Timestamp(7)));
    }

    #[test]
    fn abort_from_any_unresolved_state() {
        let clog = Clog::new();
        let a = xid(3);
        clog.begin(a);
        clog.set_aborted(a);
        assert_eq!(clog.status(a), TxnStatus::Aborted);

        let b = xid(4);
        clog.begin(b);
        clog.set_prepared(b).unwrap();
        clog.set_aborted(b);
        assert_eq!(clog.status(b), TxnStatus::Aborted);
    }

    #[test]
    #[should_panic(expected = "after commit")]
    fn abort_after_commit_panics() {
        let clog = Clog::new();
        let x = xid(5);
        clog.begin(x);
        clog.set_committed(x, Timestamp(9)).unwrap();
        clog.set_aborted(x);
    }

    #[test]
    fn commit_is_idempotent_with_same_ts() {
        let clog = Clog::new();
        let x = xid(6);
        clog.begin(x);
        clog.set_committed(x, Timestamp(10)).unwrap();
        clog.set_committed(x, Timestamp(10)).unwrap();
        assert!(clog.set_committed(x, Timestamp(11)).is_err());
    }

    #[test]
    fn unknown_xid_reads_as_aborted() {
        let clog = Clog::new();
        assert_eq!(clog.status(xid(999)), TxnStatus::Aborted);
    }

    #[test]
    fn frozen_txn_always_committed_at_snapshot_min() {
        let clog = Clog::new();
        assert_eq!(
            clog.status(FROZEN_TXN),
            TxnStatus::Committed(Timestamp::SNAPSHOT_MIN)
        );
    }

    #[test]
    fn wait_resolved_returns_immediately_when_resolved() {
        let clog = Clog::new();
        let x = xid(7);
        clog.begin(x);
        clog.set_committed(x, Timestamp(3)).unwrap();
        let st = clog.wait_resolved(x, Duration::from_millis(10)).unwrap();
        assert_eq!(st, TxnStatus::Committed(Timestamp(3)));
    }

    #[test]
    fn wait_resolved_blocks_until_commit() {
        let clog = Arc::new(Clog::new());
        let x = xid(8);
        clog.begin(x);
        clog.set_prepared(x).unwrap();
        assert_eq!(clog.prepare_wait_blocks(), 0);
        let waiter = {
            let clog = Arc::clone(&clog);
            std::thread::spawn(move || clog.wait_resolved(x, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        clog.set_committed(x, Timestamp(77)).unwrap();
        assert_eq!(
            waiter.join().unwrap().unwrap(),
            TxnStatus::Committed(Timestamp(77))
        );
        // The blocked waiter counted exactly once.
        assert_eq!(clog.prepare_wait_blocks(), 1);
    }

    #[test]
    fn resolved_wait_does_not_count_as_block() {
        let clog = Clog::new();
        let x = xid(10);
        clog.begin(x);
        clog.set_committed(x, Timestamp(3)).unwrap();
        clog.wait_resolved(x, Duration::from_millis(10)).unwrap();
        assert_eq!(clog.prepare_wait_blocks(), 0);
    }

    #[test]
    fn wait_resolved_times_out() {
        let clog = Clog::new();
        let x = xid(9);
        clog.begin(x);
        let err = clog
            .wait_resolved(x, Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, DbError::Timeout("transaction resolution"));
    }

    #[test]
    fn committed_lookup_is_answered_by_the_seqlock_slot() {
        let clog = Clog::new();
        let x = xid(1);
        clog.begin(x);
        assert_eq!(clog.status(x), TxnStatus::InProgress);
        assert_eq!(clog.slot(x).get(x), None, "only commits are published");
        clog.set_committed(x, Timestamp(42)).unwrap();
        assert_eq!(clog.slot(x).get(x), Some(Timestamp(42)));
        assert_eq!(clog.status(x), TxnStatus::Committed(Timestamp(42)));
        // The frozen bootstrap transaction is pre-cached too.
        assert_eq!(
            clog.slot(FROZEN_TXN).get(FROZEN_TXN),
            Some(Timestamp::SNAPSHOT_MIN)
        );
    }

    #[test]
    fn slot_collision_evicts_but_both_resolve_correctly() {
        let clog = Clog::new();
        let a = xid(1);
        // Find another xid landing on the same cache slot as `a`.
        let b = (2..100_000)
            .map(xid)
            .find(|x| std::ptr::eq(clog.slot(*x), clog.slot(a)))
            .expect("a colliding xid exists");
        clog.begin(a);
        clog.begin(b);
        clog.set_committed(a, Timestamp(10)).unwrap();
        clog.set_committed(b, Timestamp(20)).unwrap();
        // `b` evicted `a` from the shared slot: `b` answers from the cache,
        // `a` falls back to the shard map — both must stay correct.
        assert_eq!(clog.status(b), TxnStatus::Committed(Timestamp(20)));
        assert_eq!(clog.status(a), TxnStatus::Committed(Timestamp(10)));
    }

    #[test]
    fn prepare_wait_wakeups_still_fire_with_cache_fast_path() {
        // Regression for the commit cache: a prepare-waiter must still be
        // woken by set_committed and observe the final status even though
        // post-commit lookups bypass the shard lock entirely.
        let clog = Arc::new(Clog::new());
        let xs: Vec<TxnId> = (20..24).map(xid).collect();
        for &x in &xs {
            clog.begin(x);
            clog.set_prepared(x).unwrap();
        }
        let waiters: Vec<_> = xs
            .iter()
            .map(|&x| {
                let clog = Arc::clone(&clog);
                std::thread::spawn(move || clog.wait_resolved(x, Duration::from_secs(5)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        for (i, &x) in xs.iter().enumerate() {
            clog.set_committed(x, Timestamp(100 + i as u64)).unwrap();
        }
        for (i, w) in waiters.into_iter().enumerate() {
            assert_eq!(
                w.join().unwrap().unwrap(),
                TxnStatus::Committed(Timestamp(100 + i as u64))
            );
        }
        assert_eq!(clog.prepare_wait_blocks(), 4);
    }

    #[test]
    fn crash_abort_only_hits_in_progress_on_that_node() {
        let clog = Clog::new();
        let local = TxnId::new(NodeId(1), 1);
        let prepared = TxnId::new(NodeId(1), 2);
        let remote = TxnId::new(NodeId(2), 1);
        clog.begin(local);
        clog.begin(prepared);
        clog.set_prepared(prepared).unwrap();
        clog.begin(remote);
        let aborted = clog.crash_abort_in_progress(NodeId(1));
        assert_eq!(aborted, vec![local]);
        assert_eq!(clog.status(local), TxnStatus::Aborted);
        assert_eq!(clog.status(prepared), TxnStatus::Prepared);
        assert_eq!(clog.status(remote), TxnStatus::InProgress);
        assert_eq!(clog.prepared_txns(), vec![prepared]);
    }

    #[test]
    fn reset_forgets_everything_including_the_commit_cache() {
        let clog = Clog::new();
        // Commit enough transactions to populate many cache slots, and
        // query them so the cached answers are hot.
        let xs: Vec<TxnId> = (1..=200).map(xid).collect();
        for (i, &x) in xs.iter().enumerate() {
            clog.begin(x);
            clog.set_committed(x, Timestamp(10 + i as u64)).unwrap();
            assert_eq!(
                clog.status(x),
                TxnStatus::Committed(Timestamp(10 + i as u64))
            );
        }
        clog.reset();
        assert!(clog.is_empty());
        // No stale cache slot may keep answering `Committed` — a stale hit
        // here would resurrect pre-crash commits after a restart.
        for &x in &xs {
            assert_eq!(clog.status(x), TxnStatus::Aborted, "{x:?} survived reset");
        }
        // The frozen bootstrap transaction is back (and cached).
        assert_eq!(
            clog.status(FROZEN_TXN),
            TxnStatus::Committed(Timestamp::SNAPSHOT_MIN)
        );
        // The reset log accepts the same xids over again.
        clog.begin(xs[0]);
        clog.set_committed(xs[0], Timestamp(500)).unwrap();
        assert_eq!(clog.status(xs[0]), TxnStatus::Committed(Timestamp(500)));
    }
}
