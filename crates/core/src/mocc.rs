//! MOCC's source-side state: the validation registry, the sync barrier,
//! and the commit hook installed on the migration's source node (§3.4,
//! §3.5.2).
//!
//! A *synchronized source transaction* writes its validation (prepare)
//! record and then blocks in [`RemusHook::await_validation`] until the
//! destination replay reports the validation outcome through the
//! [`ValidationRegistry`]. The hook also tracks `TS_unsync`: transactions
//! that entered commit progress before the barrier flag was raised and are
//! allowed to finish asynchronously; the mode-change phase waits for them
//! to drain before recording `LSN_unsync`.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use remus_common::{time, DbError, DbResult, ShardId, Timestamp, TxnId};
use remus_txn::{CommitMode, SyncCommitHook};

/// Validation verdict passed from the destination replay to the waiting
/// source transaction.
#[derive(Debug, Clone)]
enum Verdict {
    Ok,
    Failed(DbError),
}

/// xid → validation verdict, with blocking waits.
#[derive(Debug, Default)]
pub struct ValidationRegistry {
    verdicts: Mutex<HashMap<TxnId, Verdict>>,
    arrived: Condvar,
}

impl ValidationRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Destination side: records the verdict and wakes the waiting source
    /// transaction.
    pub fn complete(&self, xid: TxnId, result: DbResult<()>) {
        let verdict = match result {
            Ok(()) => Verdict::Ok,
            Err(e) => Verdict::Failed(e),
        };
        self.verdicts.lock().insert(xid, verdict);
        self.arrived.notify_all();
    }

    /// Source side: blocks until the verdict for `xid` arrives, consuming
    /// it.
    pub fn await_verdict(&self, xid: TxnId, timeout: Duration) -> DbResult<()> {
        let mut verdicts = self.verdicts.lock();
        match time::wait(&self.arrived, &mut verdicts, timeout, |v| v.remove(&xid)) {
            Some(Verdict::Ok) => Ok(()),
            Some(Verdict::Failed(e)) => Err(e),
            None => Err(DbError::Timeout("MOCC validation")),
        }
    }

    /// Number of unconsumed verdicts (diagnostics).
    pub fn pending(&self) -> usize {
        self.verdicts.lock().len()
    }
}

/// The commit hook Remus installs on the source node.
pub struct RemusHook {
    migrating: HashSet<ShardId>,
    sync_on: AtomicBool,
    registry: std::sync::Arc<ValidationRegistry>,
    /// Transactions told to commit in sync mode; the propagation process
    /// consults this when it encounters their prepare records.
    sync_txns: Mutex<HashSet<TxnId>>,
    /// Async-mode transactions currently in commit progress that touch the
    /// migrating shards (the `TS_unsync` set).
    unsync_in_commit: Mutex<HashSet<TxnId>>,
    drained: Condvar,
    validation_timeout: Duration,
}

impl RemusHook {
    /// A hook for a migration of `shards`, in async mode.
    pub fn new(
        shards: &[ShardId],
        registry: std::sync::Arc<ValidationRegistry>,
        validation_timeout: Duration,
    ) -> Self {
        RemusHook {
            migrating: shards.iter().copied().collect(),
            sync_on: AtomicBool::new(false),
            registry,
            sync_txns: Mutex::new(HashSet::new()),
            unsync_in_commit: Mutex::new(HashSet::new()),
            drained: Condvar::new(),
            validation_timeout,
        }
    }

    /// Raises the sync barrier: subsequent commits touching the migrating
    /// shards become synchronized source transactions.
    pub fn enable_sync(&self) {
        self.sync_on.store(true, Ordering::SeqCst);
    }

    /// True once the barrier is raised.
    pub fn sync_enabled(&self) -> bool {
        self.sync_on.load(Ordering::SeqCst)
    }

    /// Whether `xid` committed (or is committing) in sync mode — consulted
    /// by the propagation process at its prepare record.
    pub fn is_sync_txn(&self, xid: TxnId) -> bool {
        self.sync_txns.lock().contains(&xid)
    }

    /// Blocks until every `TS_unsync` transaction (async commits already in
    /// progress when the barrier was raised) has finished (§3.4).
    pub fn wait_ts_unsync_drained(&self, timeout: Duration) -> DbResult<()> {
        debug_assert!(
            self.sync_enabled(),
            "drain before enabling sync is meaningless"
        );
        let mut unsync = self.unsync_in_commit.lock();
        time::wait(&self.drained, &mut unsync, timeout, |u| {
            u.is_empty().then_some(())
        })
        .ok_or(DbError::Timeout("TS_unsync drain"))
    }
}

impl SyncCommitHook for RemusHook {
    fn begin_commit(&self, xid: TxnId, shards: &[ShardId]) -> CommitMode {
        if !shards.iter().any(|s| self.migrating.contains(s)) {
            return CommitMode::Async;
        }
        if self.sync_on.load(Ordering::SeqCst) {
            self.sync_txns.lock().insert(xid);
            CommitMode::Sync
        } else {
            self.unsync_in_commit.lock().insert(xid);
            CommitMode::Async
        }
    }

    fn await_validation(&self, xid: TxnId) -> DbResult<()> {
        self.registry.await_verdict(xid, self.validation_timeout)
    }

    fn end_commit(&self, xid: TxnId, _commit_ts: Option<Timestamp>) {
        let mut unsync = self.unsync_in_commit.lock();
        if unsync.remove(&xid) && unsync.is_empty() {
            self.drained.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::NodeId;
    use std::sync::Arc;

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    const T: Duration = Duration::from_secs(2);

    #[test]
    fn registry_delivers_ok_and_failure() {
        let r = ValidationRegistry::new();
        r.complete(xid(1), Ok(()));
        assert!(r.await_verdict(xid(1), T).is_ok());
        let e = DbError::WwConflict {
            txn: xid(2),
            other: xid(9),
        };
        r.complete(xid(2), Err(e.clone()));
        assert_eq!(r.await_verdict(xid(2), T).unwrap_err(), e);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn registry_blocks_until_verdict_arrives() {
        let r = Arc::new(ValidationRegistry::new());
        let r2 = Arc::clone(&r);
        let waiter = std::thread::spawn(move || r2.await_verdict(xid(5), T));
        std::thread::sleep(Duration::from_millis(20));
        r.complete(xid(5), Ok(()));
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn registry_times_out() {
        let r = ValidationRegistry::new();
        assert_eq!(
            r.await_verdict(xid(1), Duration::from_millis(10))
                .unwrap_err(),
            DbError::Timeout("MOCC validation")
        );
    }

    fn hook() -> RemusHook {
        RemusHook::new(&[ShardId(1)], Arc::new(ValidationRegistry::new()), T)
    }

    #[test]
    fn non_migrating_shards_always_async() {
        let h = hook();
        h.enable_sync();
        assert_eq!(h.begin_commit(xid(1), &[ShardId(2)]), CommitMode::Async);
        assert!(!h.is_sync_txn(xid(1)));
    }

    #[test]
    fn barrier_splits_async_and_sync_commits() {
        let h = hook();
        assert_eq!(h.begin_commit(xid(1), &[ShardId(1)]), CommitMode::Async);
        h.enable_sync();
        assert_eq!(h.begin_commit(xid(2), &[ShardId(1)]), CommitMode::Sync);
        assert!(h.is_sync_txn(xid(2)));
        assert!(!h.is_sync_txn(xid(1)));
    }

    #[test]
    fn ts_unsync_drain_waits_for_stragglers() {
        let h = Arc::new(hook());
        assert_eq!(h.begin_commit(xid(1), &[ShardId(1)]), CommitMode::Async);
        h.enable_sync();
        let h2 = Arc::clone(&h);
        let drainer = std::thread::spawn(move || h2.wait_ts_unsync_drained(T));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!drainer.is_finished());
        h.end_commit(xid(1), Some(Timestamp(5)));
        assert!(drainer.join().unwrap().is_ok());
    }

    #[test]
    fn drain_with_no_stragglers_returns_immediately() {
        let h = hook();
        h.enable_sync();
        assert!(h.wait_ts_unsync_drained(Duration::from_millis(10)).is_ok());
    }
}
