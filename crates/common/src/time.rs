//! The one time seam: every modeled cost and every wait with a deadline in
//! the product crates goes through here.
//!
//! * [`charge`] pays a modeled cost — a network hop, a copy batch, a pull, a
//!   spill reload, an injected delay — by spending it on the wall clock.
//! * [`wait`] is the timed wait on a condition kept under a mutex, over that
//!   mutex's condvar.
//! * [`Signal`] is a condvar for a condition kept anywhere: whoever changes
//!   the condition notifies it, and a waiter parks until the condition holds.
//!
//! Nothing substitutes these yet, so they are plain functions and one struct
//! over `std::thread::sleep`, `Instant` and the condvar; a scheduler that
//! runs on virtual time replaces their bodies, not their callers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

/// Pays a modeled cost. A zero cost is free.
pub fn charge(cost: Duration) {
    if !cost.is_zero() {
        std::thread::sleep(cost);
    }
}

/// The clock every wait reads.
fn now() -> Instant {
    #[cfg(test)]
    tests::CLOCK_READS.with(|reads| reads.set(reads.get() + 1));
    Instant::now()
}

/// Waits on `cv` until `ready`, asked with `guard` held, answers `Some`, or
/// `timeout` passes (`None`). `ready` is asked before anything else, so a
/// wait whose answer is already there reads no clock. The deadline is taken
/// once, at the first block, and is absolute: a wake-up that finds nothing
/// does not re-arm it. [`Duration::MAX`] — any timeout too long to add to
/// the clock — never times out.
pub fn wait<T, R>(
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    timeout: Duration,
    mut ready: impl FnMut(&mut T) -> Option<R>,
) -> Option<R> {
    let mut deadline = None;
    loop {
        if let Some(r) = ready(&mut **guard) {
            return Some(r);
        }
        // Taken at the first block and never moved; an inner `None` is no
        // deadline at all.
        match *deadline.get_or_insert_with(|| now().checked_add(timeout)) {
            None => cv.wait(guard),
            Some(deadline) => {
                let left = deadline.saturating_duration_since(now());
                if left.is_zero() {
                    return None;
                }
                cv.wait_for(guard, left);
            }
        }
    }
}

/// A condvar for a condition that lives outside it: whoever changes the
/// condition calls [`Signal::notify`], and a waiter parks in
/// [`Signal::park_until`] until the condition holds.
///
/// `notify` is one `SeqCst` load while nobody is parked, and that loses no
/// wake-up as long as the notifier changed the condition *before* notifying,
/// either with a `SeqCst` store or under a mutex that whoever reads the
/// condition also takes. A parker counts itself in `parked` (`SeqCst`) and
/// only then looks at the condition, under `lock`, which it holds until the
/// condvar releases it. So the notifier's load either sees the count — and
/// it takes `lock`, which waits for the parker to be inside the condvar,
/// then wakes it — or it does not, and then the count came after the change
/// (after the store in the `SeqCst` order, or after the mutex release the
/// parker's look then acquires), so the parker's look sees the change and it
/// does not park.
#[derive(Debug, Default)]
pub struct Signal {
    parked: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Signal {
    /// Wakes every parked waiter to look at its condition again.
    pub fn notify(&self) {
        if self.parked.load(Ordering::SeqCst) != 0 {
            drop(self.lock.lock());
            self.cv.notify_all();
        }
    }

    /// Parks until `cond` holds (`true`) or `timeout` passes (`false`);
    /// `cond` is asked again at every [`Signal::notify`]. The deadline is as
    /// in [`wait`].
    pub fn park_until(&self, mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
        if cond() {
            return true;
        }
        let mut guard = self.lock.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        let met = wait(&self.cv, &mut guard, timeout, |_| cond().then_some(()));
        self.parked.fetch_sub(1, Ordering::SeqCst);
        met.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    thread_local! {
        /// Clock reads of [`now`] on this thread.
        pub(super) static CLOCK_READS: Cell<u64> = const { Cell::new(0) };
    }

    fn clock_reads() -> u64 {
        CLOCK_READS.with(Cell::get)
    }

    /// A flag and the signal its setter notifies.
    fn flag() -> Arc<(AtomicBool, Signal)> {
        Arc::new((AtomicBool::new(false), Signal::default()))
    }

    #[test]
    fn charging_nothing_is_free_and_a_cost_is_paid() {
        let t0 = Instant::now();
        charge(Duration::ZERO);
        assert!(t0.elapsed() < Duration::from_millis(5));
        charge(Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn park_until_returns_on_notify() {
        let f = flag();
        let setter = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                f.0.store(true, Ordering::SeqCst);
                f.1.notify();
            })
        };
        let t0 = Instant::now();
        assert!(f
            .1
            .park_until(|| f.0.load(Ordering::SeqCst), Duration::from_secs(30)));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "woken, not timed out"
        );
        setter.join().unwrap();
        assert_eq!(f.1.parked.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn park_until_times_out_at_its_deadline_despite_notifies_that_leave_cond_false() {
        let f = flag();
        let notifier = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_millis(300) {
                    f.1.notify();
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        let t0 = Instant::now();
        assert!(!f.1.park_until(|| false, Duration::from_millis(50)));
        let took = t0.elapsed();
        assert!(took >= Duration::from_millis(50), "{took:?}");
        assert!(took < Duration::from_millis(250), "re-armed: {took:?}");
        notifier.join().unwrap();
    }

    #[test]
    fn duration_max_never_times_out() {
        let f = flag();
        let setter = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                for _ in 0..5 {
                    std::thread::sleep(Duration::from_millis(10));
                    f.1.notify();
                }
                f.0.store(true, Ordering::SeqCst);
                f.1.notify();
            })
        };
        assert!(f.1.park_until(|| f.0.load(Ordering::SeqCst), Duration::MAX));
        setter.join().unwrap();
        // The same through `wait` on a mutex-kept condition.
        let state = Mutex::new(3u32);
        let cv = Condvar::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                *state.lock() = 0;
                cv.notify_all();
            });
            let mut guard = state.lock();
            let got = wait(&cv, &mut guard, Duration::MAX, |n| (*n == 0).then_some(7));
            assert_eq!(got, Some(7));
        });
    }

    #[test]
    fn a_wait_whose_condition_already_holds_reads_no_clock() {
        let state = Mutex::new(true);
        let cv = Condvar::new();
        let before = clock_reads();
        let mut guard = state.lock();
        assert_eq!(
            wait(&cv, &mut guard, Duration::from_secs(1), |s| (*s)
                .then_some(1)),
            Some(1)
        );
        drop(guard);
        assert!(Signal::default().park_until(|| true, Duration::from_secs(1)));
        assert_eq!(clock_reads(), before, "no clock read without a block");
        // A wait that does block reads it: the count is live.
        let mut guard = state.lock();
        assert_eq!(
            wait(&cv, &mut guard, Duration::ZERO, |s| (!*s).then_some(1)),
            None
        );
        assert!(clock_reads() > before);
    }
}
