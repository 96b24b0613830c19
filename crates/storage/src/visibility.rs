//! The MVCC visibility and write-check decision procedures.
//!
//! These are *pure* with respect to waiting: they never block. When a
//! decision depends on a transaction that is still prepared or in progress,
//! they return `WaitFor(xid)` and the caller ([`crate::table`]) releases its
//! latch, performs the prepare-wait against the CLOG, and retries. Keeping
//! the decision logic pure makes it exhaustively testable and keeps latches
//! short.
//!
//! Read rule (paper §2.2): traverse the chain newest-first for the latest
//! version committed with `commit_ts <= start_ts`; a `Prepared` creator
//! forces a wait. In-progress and aborted creators are invisible.
//!
//! Write rule (SI first-committer-wins): the newest non-aborted version
//! decides. A concurrent *committed* writer with `commit_ts > start_ts` is a
//! write-write conflict; an unresolved writer is waited on and the check is
//! retried after it resolves.

use remus_common::{Timestamp, TxnId};

use crate::clog::{Clog, TxnStatus};
use crate::tuple::{Value, Version, VersionChain};

/// Outcome of a non-blocking visibility resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A visible, live version.
    Value {
        /// The payload.
        value: Value,
        /// Commit timestamp of the version's creator (the shard-map cache
        /// must know how fresh each cached routing entry is — paper
        /// §3.5.1); the reader's own uncommitted version reports
        /// [`Timestamp::INVALID`].
        cts: Timestamp,
    },
    /// No version is visible at the snapshot (missing or deleted).
    NotFound,
    /// Resolution blocked on this prepared transaction (prepare-wait).
    WaitFor(TxnId),
}

/// What a reader that settled on `v` gets: its payload with `cts`, or
/// nothing if it is a tombstone.
fn read_of(v: &Version, cts: Timestamp) -> ReadOutcome {
    match &v.value {
        Some(value) => ReadOutcome::Value {
            value: value.clone(),
            cts,
        },
        None => ReadOutcome::NotFound,
    }
}

/// Resolves what `self_xid` sees for this chain at `start_ts`. Takes the
/// latched chain mutably because resolving a committed creator stamps its
/// version ([`Version::status`]).
pub fn resolve_visible(
    chain: &mut VersionChain,
    clog: &Clog,
    start_ts: Timestamp,
    self_xid: TxnId,
) -> ReadOutcome {
    for v in chain.iter_mut() {
        if v.xmin == self_xid {
            // Read-your-writes: the newest own version decides.
            return read_of(v, Timestamp::INVALID);
        }
        match v.status(clog) {
            TxnStatus::InProgress | TxnStatus::Aborted => continue,
            TxnStatus::Prepared => {
                // Mutation self-test seam: skipping a prepared version is
                // exactly the stale-read bug prepare-wait exists to prevent.
                #[cfg(feature = "mutation-hooks")]
                if crate::mutation::skip_prepare_wait() {
                    continue;
                }
                // The creator may commit with a timestamp <= start_ts, so we
                // cannot skip it: wait (paper's prepare-wait).
                return ReadOutcome::WaitFor(v.xmin);
            }
            TxnStatus::Committed(cts) => {
                if cts <= start_ts {
                    return read_of(v, cts);
                }
                // Committed after our snapshot: invisible, keep walking.
            }
        }
    }
    ReadOutcome::NotFound
}

/// The kind of a row-level write: what a table write applies, and what a
/// WAL change record carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Insert a new tuple (unique-constraint semantics).
    Insert,
    /// Update the existing live tuple (the payload is the full new image).
    Update,
    /// Delete the existing live tuple.
    Delete,
    /// Take an explicit row lock (`SELECT ... FOR UPDATE`); logged so the
    /// destination of a migration re-acquires it during replay (§3.5.2).
    Lock,
}

/// What [`VersionedTable::install_committed`](crate::VersionedTable::install_committed)
/// found around the place it put a committed version at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The key was mapped before the install: something was written or
    /// locked there first.
    pub mapped: bool,
    /// No version committed after the installed one was in the chain.
    pub on_top: bool,
    /// The version under the write and whether it is live: the version
    /// committed at the same timestamp (the transaction's own) before this
    /// write edited it, else the newest one below the place that did not
    /// abort. `None`: there is none.
    pub base: Option<bool>,
}

impl Placement {
    /// Whether a history applied in commit order allows `kind` here: nothing
    /// committed above it, an insert over no live version, and any other
    /// write over a live one.
    pub fn in_order(&self, kind: WriteKind) -> bool {
        self.on_top && (self.base == Some(true)) == (kind != WriteKind::Insert)
    }
}

/// Where a version committed at `cts` goes in this chain, which was
/// `mapped` before the install: see [`Placement`]. Read before the install
/// edits the chain.
pub(crate) fn placement(
    chain: &mut VersionChain,
    clog: &Clog,
    cts: Timestamp,
    mapped: bool,
) -> Placement {
    let mut on_top = true;
    let base = chain.iter_mut().find_map(|v| {
        let base = match v.status(clog) {
            TxnStatus::Committed(c) if c > cts => {
                on_top = false;
                false
            }
            status => status != TxnStatus::Aborted,
        };
        base.then(|| !v.deleted())
    });
    Placement {
        mapped,
        on_top,
        base,
    }
}

/// Outcome of a non-blocking write check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteCheck {
    /// The write may proceed by pushing a new version.
    Ok,
    /// The newest version belongs to the writer itself; modify in place.
    OwnNewest,
    /// Blocked on an unresolved transaction; wait and retry.
    WaitFor(TxnId),
    /// First-committer-wins conflict with this transaction.
    Conflict(TxnId),
    /// No live tuple to update/delete/lock.
    NotFound,
    /// Insert would violate the unique constraint.
    DuplicateKey,
}

/// Checks whether `self_xid` (snapshot `start_ts`) may perform `kind` on the
/// tuple whose chain is given.
pub fn check_write(
    chain: &mut VersionChain,
    clog: &Clog,
    start_ts: Timestamp,
    self_xid: TxnId,
    kind: WriteKind,
) -> WriteCheck {
    // Find the newest non-aborted version: it alone arbitrates writes. Its
    // writer's status is read once and carried into the decision below — a
    // second lookup could see the writer abort in between and contradict
    // the filter here.
    let mut newest = None;
    for v in chain.iter_mut() {
        let status = if v.xmin == self_xid {
            TxnStatus::InProgress
        } else {
            v.status(clog)
        };
        #[cfg(feature = "mutation-hooks")]
        crate::mutation::fire_abort_after_write_check_read(clog, v.xmin);
        if status != TxnStatus::Aborted {
            newest = Some((v, status));
            break;
        }
    }
    let Some((v, status)) = newest else {
        return match kind {
            WriteKind::Insert => WriteCheck::Ok,
            _ => WriteCheck::NotFound,
        };
    };

    if v.xmin == self_xid {
        return match (kind, v.deleted()) {
            (WriteKind::Insert, true) => WriteCheck::OwnNewest, // re-insert over own tombstone
            (WriteKind::Insert, false) => WriteCheck::DuplicateKey,
            (_, true) => WriteCheck::NotFound, // updating a row we deleted
            (_, false) => WriteCheck::OwnNewest,
        };
    }

    match status {
        TxnStatus::InProgress | TxnStatus::Prepared => WriteCheck::WaitFor(v.xmin),
        TxnStatus::Aborted => unreachable!("filtered above"),
        TxnStatus::Committed(cts) => {
            // An unresolved or newly-committed explicit lock blocks like a
            // write.
            let locker = v.locker;
            if locker.is_valid() && locker != self_xid {
                match clog.status(locker) {
                    TxnStatus::InProgress | TxnStatus::Prepared => {
                        return WriteCheck::WaitFor(locker);
                    }
                    TxnStatus::Committed(lcts) if lcts > start_ts => {
                        return WriteCheck::Conflict(locker);
                    }
                    _ => {}
                }
            }
            if cts > start_ts {
                // Someone committed a newer version after our snapshot. For
                // an insert racing with another committed *live* insert this
                // is a unique-constraint violation (PostgreSQL waits on the
                // other inserter, then raises duplicate key); everything
                // else is a first-committer-wins conflict.
                return if kind == WriteKind::Insert && !v.deleted() {
                    WriteCheck::DuplicateKey
                } else {
                    WriteCheck::Conflict(v.xmin)
                };
            }
            match (kind, v.deleted()) {
                (WriteKind::Insert, true) => WriteCheck::Ok,
                (WriteKind::Insert, false) => WriteCheck::DuplicateKey,
                (_, true) => WriteCheck::NotFound,
                (_, false) => WriteCheck::Ok,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use remus_common::NodeId;

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    fn val(s: &'static str) -> Value {
        Bytes::from_static(s.as_bytes())
    }

    /// A hit on payload `s` whose creator committed at `cts`.
    fn seen(s: &'static str, cts: u64) -> ReadOutcome {
        ReadOutcome::Value {
            value: val(s),
            cts: Timestamp(cts),
        }
    }

    /// Builds a clog + chain where txn 1 committed "v1" at ts 10 and txn 2
    /// committed "v2" at ts 20.
    fn two_version_chain() -> (Clog, VersionChain) {
        let clog = Clog::new();
        for (n, ts) in [(1, 10), (2, 20)] {
            clog.begin(xid(n));
            clog.set_committed(xid(n), Timestamp(ts)).unwrap();
        }
        let mut chain = VersionChain::default();
        chain.push(Version::data(xid(1), val("v1")));
        chain.push(Version::data(xid(2), val("v2")));
        (clog, chain)
    }

    #[test]
    fn snapshot_selects_version_by_commit_ts() {
        let (clog, mut chain) = two_version_chain();
        let reader = xid(99);
        assert_eq!(
            resolve_visible(&mut chain, &clog, Timestamp(15), reader),
            seen("v1", 10)
        );
        assert_eq!(
            resolve_visible(&mut chain, &clog, Timestamp(20), reader),
            seen("v2", 20)
        );
        assert_eq!(
            resolve_visible(&mut chain, &clog, Timestamp(5), reader),
            ReadOutcome::NotFound
        );
    }

    #[test]
    fn prepared_creator_forces_wait() {
        let (clog, mut chain) = two_version_chain();
        clog.begin(xid(3));
        clog.set_prepared(xid(3)).unwrap();
        chain.push(Version::data(xid(3), val("v3")));
        assert_eq!(
            resolve_visible(&mut chain, &clog, Timestamp(25), xid(99)),
            ReadOutcome::WaitFor(xid(3))
        );
    }

    #[test]
    fn in_progress_creator_is_invisible() {
        let (clog, mut chain) = two_version_chain();
        clog.begin(xid(3));
        chain.push(Version::data(xid(3), val("v3")));
        assert_eq!(
            resolve_visible(&mut chain, &clog, Timestamp(25), xid(99)),
            seen("v2", 20)
        );
    }

    #[test]
    fn aborted_creator_is_skipped() {
        let (clog, mut chain) = two_version_chain();
        clog.begin(xid(3));
        clog.set_aborted(xid(3));
        chain.push(Version::data(xid(3), val("v3")));
        assert_eq!(
            resolve_visible(&mut chain, &clog, Timestamp(25), xid(99)),
            seen("v2", 20)
        );
    }

    #[test]
    fn read_your_own_writes_including_deletes() {
        let (clog, mut chain) = two_version_chain();
        let me = xid(50);
        clog.begin(me);
        chain.push(Version::data(me, val("mine")));
        assert_eq!(
            resolve_visible(&mut chain, &clog, Timestamp(5), me),
            seen("mine", Timestamp::INVALID.0)
        );
        let mut chain2 = chain.clone();
        chain2.push(Version::tombstone(me));
        assert_eq!(
            resolve_visible(&mut chain2, &clog, Timestamp(25), me),
            ReadOutcome::NotFound
        );
    }

    #[test]
    fn visible_tombstone_hides_older_versions() {
        let (clog, mut chain) = two_version_chain();
        clog.begin(xid(3));
        clog.set_committed(xid(3), Timestamp(30)).unwrap();
        chain.push(Version::tombstone(xid(3)));
        assert_eq!(
            resolve_visible(&mut chain, &clog, Timestamp(35), xid(99)),
            ReadOutcome::NotFound
        );
        // Older snapshots still see through the tombstone.
        assert_eq!(
            resolve_visible(&mut chain, &clog, Timestamp(25), xid(99)),
            seen("v2", 20)
        );
    }

    #[test]
    fn empty_chain_is_not_found() {
        let clog = Clog::new();
        assert_eq!(
            resolve_visible(&mut VersionChain::default(), &clog, Timestamp(10), xid(1)),
            ReadOutcome::NotFound
        );
    }

    // ---- write checks ----

    #[test]
    fn update_ok_when_newest_committed_before_snapshot() {
        let (clog, mut chain) = two_version_chain();
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), xid(99), WriteKind::Update),
            WriteCheck::Ok
        );
    }

    #[test]
    fn update_conflicts_with_newer_committed_version() {
        let (clog, mut chain) = two_version_chain();
        // Snapshot at 15; txn 2 committed v2 at 20 => first committer wins.
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(15), xid(99), WriteKind::Update),
            WriteCheck::Conflict(xid(2))
        );
    }

    #[test]
    fn update_waits_for_unresolved_writer() {
        let (clog, mut chain) = two_version_chain();
        clog.begin(xid(3));
        chain.push(Version::data(xid(3), val("v3")));
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), xid(99), WriteKind::Update),
            WriteCheck::WaitFor(xid(3))
        );
        clog.set_prepared(xid(3)).unwrap();
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), xid(99), WriteKind::Update),
            WriteCheck::WaitFor(xid(3))
        );
    }

    #[test]
    fn update_skips_aborted_newest() {
        let (clog, mut chain) = two_version_chain();
        clog.begin(xid(3));
        clog.set_aborted(xid(3));
        chain.push(Version::data(xid(3), val("dead")));
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), xid(99), WriteKind::Update),
            WriteCheck::Ok
        );
    }

    #[test]
    fn update_own_newest_version() {
        let (clog, mut chain) = two_version_chain();
        let me = xid(50);
        clog.begin(me);
        chain.push(Version::data(me, val("mine")));
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), me, WriteKind::Update),
            WriteCheck::OwnNewest
        );
    }

    #[test]
    fn update_after_own_delete_is_not_found() {
        let (clog, mut chain) = two_version_chain();
        let me = xid(50);
        clog.begin(me);
        chain.push(Version::tombstone(me));
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), me, WriteKind::Update),
            WriteCheck::NotFound
        );
    }

    #[test]
    fn insert_duplicate_and_over_tombstone() {
        let (clog, mut chain) = two_version_chain();
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), xid(99), WriteKind::Insert),
            WriteCheck::DuplicateKey
        );
        let mut deleted = chain.clone();
        clog.begin(xid(3));
        clog.set_committed(xid(3), Timestamp(22)).unwrap();
        deleted.push(Version::tombstone(xid(3)));
        assert_eq!(
            check_write(
                &mut deleted,
                &clog,
                Timestamp(25),
                xid(99),
                WriteKind::Insert
            ),
            WriteCheck::Ok
        );
    }

    #[test]
    fn insert_into_empty_chain_is_ok_but_update_is_not_found() {
        let clog = Clog::new();
        let mut chain = VersionChain::default();
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(5), xid(1), WriteKind::Insert),
            WriteCheck::Ok
        );
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(5), xid(1), WriteKind::Update),
            WriteCheck::NotFound
        );
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(5), xid(1), WriteKind::Delete),
            WriteCheck::NotFound
        );
    }

    #[test]
    fn insert_conflicts_with_concurrent_delete() {
        let (clog, mut chain) = two_version_chain();
        clog.begin(xid(3));
        clog.set_committed(xid(3), Timestamp(30)).unwrap();
        chain.push(Version::tombstone(xid(3)));
        // Snapshot at 25 did not see the delete; re-insert is a WW conflict.
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), xid(99), WriteKind::Insert),
            WriteCheck::Conflict(xid(3))
        );
    }

    #[test]
    fn explicit_lock_blocks_and_conflicts_like_a_write() {
        let (clog, mut chain) = two_version_chain();
        let locker = xid(7);
        clog.begin(locker);
        chain.newest_mut().unwrap().locker = locker;
        // Unresolved locker: wait.
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), xid(99), WriteKind::Update),
            WriteCheck::WaitFor(locker)
        );
        // Locker committed after our snapshot: conflict.
        clog.set_committed(locker, Timestamp(30)).unwrap();
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), xid(99), WriteKind::Update),
            WriteCheck::Conflict(locker)
        );
        // Locker committed before our snapshot: no obstacle.
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(35), xid(99), WriteKind::Update),
            WriteCheck::Ok
        );
    }

    #[test]
    fn own_lock_does_not_block_self() {
        let (clog, mut chain) = two_version_chain();
        let me = xid(7);
        clog.begin(me);
        chain.newest_mut().unwrap().locker = me;
        assert_eq!(
            check_write(&mut chain, &clog, Timestamp(25), me, WriteKind::Update),
            WriteCheck::Ok
        );
    }
}
