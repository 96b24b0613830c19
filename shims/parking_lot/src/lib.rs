//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal API-compatible shim over `std::sync`. Semantics differ
//! from the real crate in one deliberate way: lock poisoning is ignored
//! (parking_lot has no poisoning), so a panic while holding a lock does not
//! wedge every later acquirer.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Mutual exclusion primitive. `lock()` returns the guard directly, with no
/// poisoning `Result`, matching parking_lot.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(|p| p.into_inner()))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(g)),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard(p.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Reader-writer lock; `read()`/`write()` return guards directly.
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|p| p.into_inner()))
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|p| p.into_inner()))
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Result of a timed condvar wait.
#[derive(Debug, Clone, Copy)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(self) -> bool {
        self.0
    }
}

/// Condition variable taking `&mut MutexGuard` like parking_lot, rather than
/// consuming the guard like `std::sync::Condvar`.
///
/// Like parking_lot — and unlike std, which makes a futex syscall per
/// notification — notifying is a load when nobody waits. A waiter counts
/// itself *while it still holds the caller's mutex*, before parking. A
/// notifier that changed the waited-for state under that mutex therefore
/// either took the mutex after the waiter released it in `wait` (and sees
/// the count), or before the waiter took it (and the waiter sees the new
/// state and does not wait). The mutex orders the two; `SeqCst` is for the
/// notifier that notifies after unlocking.
pub struct Condvar {
    inner: std::sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // std's wait consumes the guard; move it out and back in place.
        // std::sync::Condvar::wait does not unwind, so the brief window
        // where `guard.0` is logically moved-out cannot double-drop (nor
        // leave this thread counted as a waiter).
        unsafe {
            let inner = std::ptr::read(&guard.0);
            let next = self.inner.wait(inner).unwrap_or_else(|p| p.into_inner());
            std::ptr::write(&mut guard.0, next);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let timed_out = unsafe {
            let inner = std::ptr::read(&guard.0);
            let (next, res) = match self.inner.wait_timeout(inner, timeout) {
                Ok((g, r)) => (g, r),
                Err(p) => {
                    let (g, r) = p.into_inner();
                    (g, r)
                }
            };
            std::ptr::write(&mut guard.0, next);
            res.timed_out()
        };
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        WaitTimeoutResult(timed_out)
    }

    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            *done = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            cv.wait(&mut done);
        }
        assert!(*done);
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let start = Instant::now();
        let r = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(r.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn notify_without_a_waiter_is_a_no_op_and_not_remembered() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        // Nothing was banked: a later wait still runs out its timeout.
        let mut g = m.lock();
        let start = Instant::now();
        assert!(cv.wait_for(&mut g, Duration::from_millis(10)).timed_out());
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0, "deregistered");
    }

    /// A waiter that registered before the state change is always woken:
    /// it holds the mutex from its check to its park, so the notifier —
    /// which changes the state under the same mutex — cannot miss it. A
    /// lost wake-up would hang this test on the untimed `wait`.
    #[test]
    fn a_registered_waiter_is_always_woken() {
        for _ in 0..1_000 {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let p2 = Arc::clone(&pair);
            let waiter = std::thread::spawn(move || {
                let (m, cv) = &*p2;
                let mut ready = m.lock();
                while !*ready {
                    cv.wait(&mut ready);
                }
            });
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
            waiter.join().unwrap();
            assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        // parking_lot semantics: no poisoning, the lock stays usable.
        assert_eq!(*m.lock(), 7);
    }
}
