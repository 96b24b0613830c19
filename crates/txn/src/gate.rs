//! Shard write gates and the H-store-style shard lock table.
//!
//! [`ShardGate`] implements the blocking primitive the *lock-and-abort*
//! baseline uses for ownership transfer (§2.3.3): closing a shard's gate
//! blocks new writers; the engine then terminates current writers, replays
//! final updates, flips the shard map, drops the shard, and reopens the
//! gate — at which point the blocked writers discover the shard is gone and
//! abort.
//!
//! [`ShardLockTable`] reproduces the partition locks of H-store that Squall
//! relies on (§2.3.2, §4.2): per-shard shared/exclusive locks held for the
//! duration of a transaction (or a migration pull). This coarse concurrency
//! control is what collapses YCSB throughput when a batch transaction locks
//! every shard.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use remus_common::{time, DbError, DbResult, ShardId, TxnId};

/// Per-shard write gates.
#[derive(Debug, Default)]
pub struct ShardGate {
    /// `closed.len()`, stored under its lock: a writer that loads zero
    /// passes without taking it.
    closed_len: AtomicUsize,
    closed: Mutex<HashMap<ShardId, bool>>,
    opened: Condvar,
}

impl ShardGate {
    /// All gates open.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes the gate: subsequent writers block in [`ShardGate::wait_open`].
    pub fn close(&self, shard: ShardId) {
        let mut closed = self.closed.lock();
        closed.insert(shard, true);
        self.closed_len.store(closed.len(), Ordering::SeqCst);
    }

    /// Reopens the gate and wakes blocked writers.
    pub fn open(&self, shard: ShardId) {
        let mut closed = self.closed.lock();
        closed.remove(&shard);
        self.closed_len.store(closed.len(), Ordering::SeqCst);
        drop(closed);
        self.opened.notify_all();
    }

    /// True if the gate is currently closed.
    pub fn is_closed(&self, shard: ShardId) -> bool {
        self.closed.lock().get(&shard).copied().unwrap_or(false)
    }

    /// Reopens every gate and wakes all blocked writers (crash restart: a
    /// gate closed by a migration that died with the process must not
    /// outlive it).
    pub fn reset(&self) {
        let mut closed = self.closed.lock();
        closed.clear();
        self.closed_len.store(0, Ordering::SeqCst);
        drop(closed);
        self.opened.notify_all();
    }

    /// Blocks while the shard's gate is closed. Returns `true` if the call
    /// had to wait (the caller then re-validates shard placement — after an
    /// ownership transfer the shard is gone and the write must abort).
    pub fn wait_open(&self, shard: ShardId, timeout: Duration) -> DbResult<bool> {
        if self.closed_len.load(Ordering::SeqCst) == 0 {
            return Ok(false);
        }
        let mut closed = self.closed.lock();
        let mut waited = false;
        time::wait(&self.opened, &mut closed, timeout, |closed| {
            let open = !closed.get(&shard).copied().unwrap_or(false);
            waited |= !open;
            open.then_some(waited)
        })
        .ok_or(DbError::Timeout("shard gate"))
    }
}

/// Lock modes for the shard lock table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers, migration pulls).
    Exclusive,
}

#[derive(Debug, Default)]
struct LockState {
    /// Shared holders.
    shared: Vec<TxnId>,
    /// Exclusive holder.
    exclusive: Option<TxnId>,
}

impl LockState {
    fn grant(&mut self, xid: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => {
                if self.exclusive.is_none() || self.exclusive == Some(xid) {
                    if self.exclusive != Some(xid) && !self.shared.contains(&xid) {
                        self.shared.push(xid);
                    }
                    true
                } else {
                    false
                }
            }
            LockMode::Exclusive => match self.exclusive {
                Some(holder) if holder == xid => true,
                Some(_) => false,
                None => {
                    // Upgrade allowed only if we are the sole shared holder.
                    let others = self.shared.iter().any(|&h| h != xid);
                    if others || (!self.shared.is_empty() && !self.shared.contains(&xid)) {
                        false
                    } else if self.shared.is_empty() || self.shared == [xid] {
                        self.shared.retain(|&h| h != xid);
                        self.exclusive = Some(xid);
                        true
                    } else {
                        false
                    }
                }
            },
        }
    }

    fn release(&mut self, xid: TxnId) -> bool {
        let before = self.shared.len();
        self.shared.retain(|&h| h != xid);
        let mut released = before != self.shared.len();
        if self.exclusive == Some(xid) {
            self.exclusive = None;
            released = true;
        }
        released
    }

    fn is_free(&self) -> bool {
        self.shared.is_empty() && self.exclusive.is_none()
    }
}

/// Per-shard shared/exclusive locks with blocking acquisition.
///
/// Callers acquiring multiple shards must acquire in sorted order (see
/// [`ShardLockTable::acquire_many`]) — that convention plus the timeout is
/// the deadlock story, as in H-store's partition executors.
#[derive(Debug, Default)]
pub struct ShardLockTable {
    locks: Mutex<HashMap<ShardId, LockState>>,
    released: Condvar,
}

impl ShardLockTable {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires one shard lock, blocking up to `timeout`.
    pub fn acquire(
        &self,
        xid: TxnId,
        shard: ShardId,
        mode: LockMode,
        timeout: Duration,
    ) -> DbResult<()> {
        let mut locks = self.locks.lock();
        time::wait(&self.released, &mut locks, timeout, |locks| {
            locks
                .entry(shard)
                .or_default()
                .grant(xid, mode)
                .then_some(())
        })
        .ok_or(DbError::Timeout("shard lock"))
    }

    /// Acquires several shard locks in sorted order (deadlock avoidance).
    pub fn acquire_many(
        &self,
        xid: TxnId,
        shards: &[ShardId],
        mode: LockMode,
        timeout: Duration,
    ) -> DbResult<()> {
        let mut sorted: Vec<ShardId> = shards.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (i, shard) in sorted.iter().enumerate() {
            if let Err(e) = self.acquire(xid, *shard, mode, timeout) {
                // Back out the locks taken so far.
                for taken in &sorted[..i] {
                    self.release_one(xid, *taken);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    fn release_one(&self, xid: TxnId, shard: ShardId) {
        let mut locks = self.locks.lock();
        if let Some(state) = locks.get_mut(&shard) {
            if state.release(xid) && state.is_free() {
                locks.remove(&shard);
            }
        }
        drop(locks);
        self.released.notify_all();
    }

    /// Releases every lock held by `xid`.
    pub fn release_all(&self, xid: TxnId) {
        let mut locks = self.locks.lock();
        locks.retain(|_, state| {
            state.release(xid);
            !state.is_free()
        });
        drop(locks);
        self.released.notify_all();
    }

    /// Number of shards with at least one holder (diagnostics).
    pub fn held_count(&self) -> usize {
        self.locks.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::NodeId;
    use std::sync::Arc;

    const T: Duration = Duration::from_millis(200);

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    #[test]
    fn gate_blocks_until_open() {
        let gate = Arc::new(ShardGate::new());
        gate.close(ShardId(1));
        assert!(gate.is_closed(ShardId(1)));
        let g = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g.wait_open(ShardId(1), Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        gate.open(ShardId(1));
        assert!(waiter.join().unwrap().unwrap());
    }

    #[test]
    fn open_gate_passes_without_waiting() {
        let gate = ShardGate::new();
        assert!(!gate.wait_open(ShardId(1), T).unwrap());
    }

    #[test]
    fn the_closed_count_follows_every_gate() {
        let gate = ShardGate::new();
        gate.close(ShardId(1));
        gate.close(ShardId(2));
        gate.close(ShardId(2));
        assert_eq!(gate.closed_len.load(Ordering::SeqCst), 2);
        gate.open(ShardId(1));
        assert!(!gate.wait_open(ShardId(1), T).unwrap());
        let short = Duration::from_millis(5);
        assert!(gate.wait_open(ShardId(2), short).is_err(), "still closed");
        gate.reset();
        assert_eq!(gate.closed_len.load(Ordering::SeqCst), 0);
        assert!(!gate.wait_open(ShardId(2), T).unwrap());
    }

    #[test]
    fn gate_wait_times_out() {
        let gate = ShardGate::new();
        gate.close(ShardId(1));
        assert_eq!(
            gate.wait_open(ShardId(1), Duration::from_millis(10))
                .unwrap_err(),
            DbError::Timeout("shard gate")
        );
    }

    #[test]
    fn shared_locks_coexist() {
        let t = ShardLockTable::new();
        t.acquire(xid(1), ShardId(1), LockMode::Shared, T).unwrap();
        t.acquire(xid(2), ShardId(1), LockMode::Shared, T).unwrap();
        assert_eq!(t.held_count(), 1);
    }

    #[test]
    fn exclusive_excludes_shared_and_exclusive() {
        let t = ShardLockTable::new();
        t.acquire(xid(1), ShardId(1), LockMode::Exclusive, T)
            .unwrap();
        assert!(t
            .acquire(
                xid(2),
                ShardId(1),
                LockMode::Shared,
                Duration::from_millis(10)
            )
            .is_err());
        assert!(t
            .acquire(
                xid(2),
                ShardId(1),
                LockMode::Exclusive,
                Duration::from_millis(10)
            )
            .is_err());
    }

    #[test]
    fn reacquire_is_idempotent() {
        let t = ShardLockTable::new();
        t.acquire(xid(1), ShardId(1), LockMode::Exclusive, T)
            .unwrap();
        t.acquire(xid(1), ShardId(1), LockMode::Exclusive, T)
            .unwrap();
        t.acquire(xid(1), ShardId(1), LockMode::Shared, T).unwrap();
        t.release_all(xid(1));
        // Fully free afterwards.
        t.acquire(xid(2), ShardId(1), LockMode::Exclusive, T)
            .unwrap();
    }

    #[test]
    fn sole_shared_holder_upgrades() {
        let t = ShardLockTable::new();
        t.acquire(xid(1), ShardId(1), LockMode::Shared, T).unwrap();
        t.acquire(xid(1), ShardId(1), LockMode::Exclusive, T)
            .unwrap();
        assert!(t
            .acquire(
                xid(2),
                ShardId(1),
                LockMode::Shared,
                Duration::from_millis(10)
            )
            .is_err());
    }

    #[test]
    fn release_wakes_waiter() {
        let t = Arc::new(ShardLockTable::new());
        t.acquire(xid(1), ShardId(1), LockMode::Exclusive, T)
            .unwrap();
        let t2 = Arc::clone(&t);
        let waiter = std::thread::spawn(move || {
            t2.acquire(
                xid(2),
                ShardId(1),
                LockMode::Exclusive,
                Duration::from_secs(5),
            )
        });
        std::thread::sleep(Duration::from_millis(20));
        t.release_all(xid(1));
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn acquire_many_backs_out_on_failure() {
        let t = ShardLockTable::new();
        t.acquire(xid(9), ShardId(2), LockMode::Exclusive, T)
            .unwrap();
        let err = t.acquire_many(
            xid(1),
            &[ShardId(3), ShardId(1), ShardId(2)],
            LockMode::Exclusive,
            Duration::from_millis(10),
        );
        assert!(err.is_err());
        // Shards 1 and 3 must have been released.
        t.acquire(xid(2), ShardId(1), LockMode::Exclusive, T)
            .unwrap();
        t.acquire(xid(2), ShardId(3), LockMode::Exclusive, T)
            .unwrap();
    }

    #[test]
    fn acquire_many_sorts_and_dedups() {
        let t = ShardLockTable::new();
        t.acquire_many(
            xid(1),
            &[ShardId(2), ShardId(1), ShardId(2)],
            LockMode::Exclusive,
            T,
        )
        .unwrap();
        assert_eq!(t.held_count(), 2);
        t.release_all(xid(1));
        assert_eq!(t.held_count(), 0);
    }
}
