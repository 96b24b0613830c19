//! Runtime mutation switches for the chaos harness's self-test (feature
//! `mutation-hooks`).
//!
//! A history checker is only trustworthy if it demonstrably fails when the
//! system misbehaves. These switches let a test deliberately break one SI
//! invariant at a time so the checker's detection can be asserted. They are
//! compiled out of every normal build; even with the feature on, every
//! switch defaults to off.

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use remus_common::TxnId;

use crate::clog::Clog;

/// When set, visibility resolution (every table read and scan) *skips*
/// prepared versions instead of waiting on them — violating the paper's
/// prepare-wait rule. A reader can then miss a write that commits with a
/// timestamp at or below the reader's snapshot: a stale read the SI checker
/// must flag.
static SKIP_PREPARE_WAIT: AtomicBool = AtomicBool::new(false);

/// Enables or disables the skip-prepare-wait mutation.
pub fn set_skip_prepare_wait(on: bool) {
    SKIP_PREPARE_WAIT.store(on, Ordering::SeqCst);
}

/// Whether the skip-prepare-wait mutation is active.
pub fn skip_prepare_wait() -> bool {
    SKIP_PREPARE_WAIT.load(Ordering::SeqCst)
}

/// One-shot kill switch: the next replay worker that picks up a job panics
/// mid-job. Used to prove `ReplayProcess::join` surfaces a dead worker as an
/// error instead of hanging the dependency tracker.
static KILL_REPLAY_WORKER: AtomicBool = AtomicBool::new(false);

/// Arms the one-shot replay-worker kill switch.
pub fn arm_kill_replay_worker() {
    KILL_REPLAY_WORKER.store(true, Ordering::SeqCst);
}

/// Consumes the kill switch: true exactly once per arming.
pub fn take_kill_replay_worker() -> bool {
    KILL_REPLAY_WORKER.swap(false, Ordering::SeqCst)
}

/// One-shot race seam: the transaction to abort right after a table write's
/// conflict check has read its status. This is not a
/// mutation of the system but a schedule — a writer aborting while another
/// transaction is mid write-check — pinned so a test can replay it.
static ABORT_AFTER_WRITE_CHECK_READ: Mutex<Option<TxnId>> = Mutex::new(None);

/// Arms the seam for `xid`.
pub fn arm_abort_after_write_check_read(xid: TxnId) {
    *ABORT_AFTER_WRITE_CHECK_READ.lock() = Some(xid);
}

/// Called by the write check after it read `xid`'s status: aborts `xid` if
/// the seam is armed for it, exactly once.
pub(crate) fn fire_abort_after_write_check_read(clog: &Clog, xid: TxnId) {
    let mut armed = ABORT_AFTER_WRITE_CHECK_READ.lock();
    if *armed == Some(xid) {
        *armed = None;
        clog.set_aborted(xid);
    }
}
