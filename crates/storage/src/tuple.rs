//! Tuple versions and version chains.
//!
//! Each logical tuple is a chain of versions, newest first. A version
//! records the transaction that created it (`xmin`, the paper's extended
//! tuple header) and whether it is a deletion tombstone. The commit log is
//! the authority on commit timestamps, as in PolarDB-PG; a version caches
//! its creator's once somebody resolved it (PostgreSQL's hint bits do the
//! same for `xmin`'s status), after which nobody asks the CLOG about that
//! version again. Explicit row-level locks (`SELECT ... FOR UPDATE`) are
//! recorded as a `locker` on the newest version.
//!
//! A chain is built for the common case of one version: the newest version
//! lies inline in the chain (and the chain inline in its index node, under
//! the node's latch), and each older version is one boxed link of exactly
//! its size, freed when GC prunes it. A key that was updated and collected
//! occupies what it occupied when it was loaded.

use bytes::Bytes;
use remus_common::{Timestamp, TxnId};

use crate::clog::{Clog, TxnStatus, FROZEN_TXN};

/// Primary key of a tuple. The YCSB/TPC-C workloads encode composite keys
/// into this 64-bit space (see `remus-workload`).
pub type Key = u64;

/// Tuple payload.
pub type Value = Bytes;

/// One version of a tuple, as [`VersionedTable::chain_snapshot`] reports it.
///
/// [`VersionedTable::chain_snapshot`]: crate::VersionedTable::chain_snapshot
#[derive(Debug, Clone)]
pub struct TupleVersion {
    /// The transaction that created this version.
    pub xmin: TxnId,
    /// Payload; empty and irrelevant when `deleted`.
    pub value: Value,
    /// True if this version is a deletion tombstone.
    pub deleted: bool,
    /// A transaction holding an explicit row lock taken *on* this version,
    /// if any. Cleared when the locker resolves (lazily, on next access).
    pub locker: Option<TxnId>,
}

/// One stored version: 48 bytes.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct Version {
    /// The transaction that created this version.
    pub xmin: TxnId,
    /// `xmin`'s commit timestamp once known, [`Timestamp::INVALID`] until
    /// then. Written only under the chain latch, only from a `Committed`
    /// answer of the CLOG (or by an install that was handed the timestamp),
    /// and never changed: commit status is immutable, and a crash reset
    /// clears tables and CLOG together.
    cts: Timestamp,
    /// The transaction holding an explicit row lock taken *on* this version;
    /// [`TxnId::INVALID`] for none.
    pub locker: TxnId,
    /// Payload; `None` for a deletion tombstone.
    pub value: Option<Value>,
}

impl Version {
    /// A version (`None`: a tombstone) of a writer not yet known to have
    /// committed.
    pub fn new(xmin: TxnId, value: Option<Value>) -> Self {
        Version {
            xmin,
            cts: Timestamp::INVALID,
            locker: TxnId::INVALID,
            value,
        }
    }

    /// A regular data version.
    pub fn data(xmin: TxnId, value: Value) -> Self {
        Self::new(xmin, Some(value))
    }

    /// A deletion tombstone.
    pub fn tombstone(xmin: TxnId) -> Self {
        Self::new(xmin, None)
    }

    /// A version of the frozen bootstrap transaction: visible to everyone.
    pub fn frozen(value: Value) -> Self {
        Self::data(FROZEN_TXN, value).committed_at(Timestamp::SNAPSHOT_MIN)
    }

    /// This version, with its creator known to have committed at `cts`.
    pub fn committed_at(mut self, cts: Timestamp) -> Self {
        self.cts = cts;
        self
    }

    /// True if this version is a deletion tombstone.
    pub fn deleted(&self) -> bool {
        self.value.is_none()
    }

    /// The creator's status: from the version if it was resolved before,
    /// else from the CLOG — and a `Committed` answer is kept.
    #[inline]
    pub fn status(&mut self, clog: &Clog) -> TxnStatus {
        if self.cts.is_valid() {
            return TxnStatus::Committed(self.cts);
        }
        let status = clog.status(self.xmin);
        if let TxnStatus::Committed(cts) = status {
            self.cts = cts;
        }
        status
    }

    fn snapshot(&self) -> TupleVersion {
        TupleVersion {
            xmin: self.xmin,
            value: self.value.clone().unwrap_or_default(),
            deleted: self.deleted(),
            locker: Some(self.locker).filter(|l| l.is_valid()),
        }
    }
}

/// A version and the chain below it.
#[derive(Debug)]
#[cfg_attr(test, derive(Clone))]
struct Link {
    version: Version,
    older: Option<Box<Link>>,
}

/// The version chain for one key, newest version first.
///
/// Chains are small in steady state (vacuum trims them); they grow under
/// long-lived snapshots, which is precisely the effect Figure 10 measures.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(Clone))]
pub(crate) struct VersionChain {
    newest: Option<Link>,
}

impl VersionChain {
    /// A chain seeded with one version.
    pub fn with(version: Version) -> Self {
        VersionChain {
            newest: Some(Link {
                version,
                older: None,
            }),
        }
    }

    /// Pushes a new newest version; the one it shadows moves to a link of
    /// its own.
    pub fn push(&mut self, version: Version) {
        let older = self.newest.take().map(Box::new);
        self.newest = Some(Link { version, older });
    }

    /// Mutable access to the newest version.
    pub fn newest_mut(&mut self) -> Option<&mut Version> {
        self.newest.as_mut().map(|link| &mut link.version)
    }

    /// Iterates newest-to-oldest.
    pub fn iter(&self) -> impl Iterator<Item = &Version> {
        std::iter::successors(self.newest.as_ref(), |link| link.older.as_deref())
            .map(|link| &link.version)
    }

    /// Iterates newest-to-oldest, mutably (resolving a version's status may
    /// stamp it).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Version> {
        let mut next = self.newest.as_mut();
        std::iter::from_fn(move || {
            let Link { version, older } = next.take()?;
            next = older.as_deref_mut();
            Some(version)
        })
    }

    /// Mutable access to the version committed at `cts`, wherever it
    /// stands: in one key's chain, a commit timestamp names one transaction.
    /// Committed versions stand in commit order, so the walk ends at the
    /// first one committed below `cts`: an install on top of a long chain
    /// asks about the versions above its place, not about the whole chain.
    pub fn committed_at_mut(&mut self, cts: Timestamp, clog: &Clog) -> Option<&mut Version> {
        for v in self.iter_mut() {
            match v.status(clog) {
                TxnStatus::Committed(c) if c == cts => return Some(v),
                TxnStatus::Committed(c) if c < cts => return None,
                _ => {}
            }
        }
        None
    }

    /// Inserts `version` below the leading run of versions `newer` holds for.
    pub fn insert_below(&mut self, version: Version, mut newer: impl FnMut(&mut Version) -> bool) {
        if !self.newest.as_mut().is_some_and(|l| newer(&mut l.version)) {
            return self.push(version);
        }
        let mut above = self.newest.as_mut().expect("checked just above");
        while above.older.as_mut().is_some_and(|l| newer(&mut l.version)) {
            above = above.older.as_mut().expect("checked by the loop condition");
        }
        let older = above.older.take();
        above.older = Some(Box::new(Link { version, older }));
    }

    /// Drops every version created by `xid` (abort cleanup) and any lock it
    /// held. Returns how many versions were removed.
    pub fn purge_txn(&mut self, xid: TxnId) -> usize {
        self.retain(|v| {
            if v.locker == xid {
                v.locker = TxnId::INVALID;
            }
            v.xmin != xid
        })
    }

    /// Number of versions in the chain.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no versions remain.
    pub fn is_empty(&self) -> bool {
        self.newest.is_none()
    }

    /// True for exactly one version that is not a tombstone: the state GC
    /// has nothing to do on, and the one a chain occupies no link in.
    pub fn is_one_live_version(&self) -> bool {
        matches!(&self.newest, Some(l) if l.older.is_none() && !l.version.deleted())
    }

    /// Keeps only the versions `keep` returns true for, asked newest first
    /// (vacuum); each dropped version's link is freed. Returns how many
    /// were dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&mut Version) -> bool) -> usize {
        let mut dropped = 0;
        // The inline newest version: the next one moves up until one stays.
        while let Some(newest) = &mut self.newest {
            if keep(&mut newest.version) {
                break;
            }
            dropped += 1;
            self.newest = newest.older.take().map(|link| *link);
        }
        // Below it, unlink in place.
        let mut slot = match &mut self.newest {
            Some(newest) => &mut newest.older,
            None => return dropped,
        };
        while let Some(mut link) = slot.take() {
            if keep(&mut link.version) {
                slot = &mut slot.insert(link).older;
            } else {
                dropped += 1;
                *slot = link.older.take();
            }
        }
        dropped
    }

    /// A copy of every version, newest first.
    pub fn snapshot(&self) -> Vec<TupleVersion> {
        self.iter().map(Version::snapshot).collect()
    }
}

impl Drop for VersionChain {
    /// Unlinks one version at a time: the derived drop would recurse once
    /// per version, and a long-lived snapshot makes chains arbitrarily long.
    fn drop(&mut self) {
        let mut next = self
            .newest
            .take()
            .and_then(|mut newest| newest.older.take());
        while let Some(mut link) = next {
            next = link.older.take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::NodeId;

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    fn xmins(chain: &VersionChain) -> Vec<TxnId> {
        chain.iter().map(|v| v.xmin).collect()
    }

    #[test]
    fn push_orders_newest_first() {
        let mut chain = VersionChain::default();
        chain.push(Version::data(xid(1), Bytes::from_static(b"a")));
        chain.push(Version::data(xid(2), Bytes::from_static(b"b")));
        assert_eq!(chain.newest_mut().unwrap().xmin, xid(2));
        assert_eq!(xmins(&chain), vec![xid(2), xid(1)]);
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn purge_removes_versions_and_locks() {
        let mut chain = VersionChain::default();
        chain.push(Version::data(xid(1), Bytes::from_static(b"a")));
        chain.newest_mut().unwrap().locker = xid(9);
        chain.push(Version::data(xid(9), Bytes::from_static(b"b")));
        assert_eq!(chain.purge_txn(xid(9)), 1);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.newest_mut().unwrap().xmin, xid(1));
        assert_eq!(chain.snapshot()[0].locker, None);
    }

    /// A chain of `n` versions committed at 10, 20, .., the newest on top,
    /// none of them stamped yet.
    fn unstamped_chain(n: u64, clog: &Clog) -> VersionChain {
        let mut chain = VersionChain::default();
        for i in 1..=n {
            clog.begin(xid(i));
            clog.set_committed(xid(i), Timestamp(10 * i)).unwrap();
            chain.push(Version::data(xid(i), Bytes::from_static(b"v")));
        }
        chain
    }

    fn stamped(chain: &VersionChain) -> usize {
        chain.iter().filter(|v| v.cts.is_valid()).count()
    }

    #[test]
    fn a_top_install_on_a_long_chain_inspects_a_bounded_number_of_versions() {
        // Each version the walk inspects asks the CLOG once and is stamped
        // with its commit timestamp, so the stamps count the inspections.
        const N: u64 = 10_000;
        let clog = Clog::new();
        let mut chain = unstamped_chain(N, &clog);
        // A retransmit of the newest commit is found on top.
        let own = chain.committed_at_mut(Timestamp(10 * N), &clog).unwrap();
        assert_eq!(own.xmin, xid(N));
        assert_eq!(stamped(&chain), 1);
        // A commit above the newest is not in the chain: the walk ends at
        // the newest version, committed below it.
        assert!(chain
            .committed_at_mut(Timestamp(10 * N + 5), &clog)
            .is_none());
        assert_eq!(stamped(&chain), 1);
        // One a few places down is found, or missed, a few places down.
        assert_eq!(
            chain
                .committed_at_mut(Timestamp(10 * (N - 3)), &clog)
                .unwrap()
                .xmin,
            xid(N - 3)
        );
        assert!(chain
            .committed_at_mut(Timestamp(10 * (N - 5) + 1), &clog)
            .is_none());
        assert_eq!(stamped(&chain), 6);
    }

    #[test]
    fn the_walk_passes_unresolved_and_aborted_versions_above_its_place() {
        let clog = Clog::new();
        let mut chain = unstamped_chain(3, &clog);
        // An aborted and a running writer above the committed ones.
        for (i, abort) in [(8, true), (9, false)] {
            clog.begin(xid(i));
            if abort {
                clog.set_aborted(xid(i));
            }
            chain.push(Version::data(xid(i), Bytes::from_static(b"x")));
        }
        assert_eq!(
            chain.committed_at_mut(Timestamp(30), &clog).unwrap().xmin,
            xid(3)
        );
        assert_eq!(
            chain.committed_at_mut(Timestamp(20), &clog).unwrap().xmin,
            xid(2)
        );
        assert!(chain.committed_at_mut(Timestamp(25), &clog).is_none());
    }

    #[test]
    fn tombstone_has_no_value() {
        let t = Version::tombstone(xid(3));
        assert!(t.deleted());
        assert!(t.snapshot().value.is_empty());
    }

    #[test]
    fn retain_asks_newest_first_and_relinks_what_stays() {
        let build = || {
            let mut chain = VersionChain::default();
            for n in 1..=6 {
                chain.push(Version::data(xid(n), Bytes::new()));
            }
            chain
        };
        // Every subset of six versions, the newest (inline) one included.
        for mask in 0u32..64 {
            let (mut chain, mut asked) = (build(), Vec::new());
            let dropped = chain.retain(|v| {
                asked.push(v.xmin);
                mask >> (v.xmin.seq() - 1) & 1 == 1
            });
            assert_eq!(asked, (1..=6).rev().map(xid).collect::<Vec<_>>());
            let kept: Vec<TxnId> = (1..=6)
                .rev()
                .filter(|n| mask >> (n - 1) & 1 == 1)
                .map(xid)
                .collect();
            assert_eq!(xmins(&chain), kept, "mask {mask:#b}");
            assert_eq!(dropped, 6 - kept.len());
            assert_eq!(chain.is_empty(), kept.is_empty());
        }
    }

    #[test]
    fn insert_below_places_a_version_under_the_newer_run() {
        let mut chain = VersionChain::default();
        for n in [10, 30, 50] {
            chain.push(Version::data(xid(n), Bytes::new()));
        }
        let newer_than = |n: u64| move |v: &mut Version| v.xmin.0 > xid(n).0;
        chain.insert_below(Version::data(xid(40), Bytes::new()), newer_than(40));
        chain.insert_below(Version::data(xid(5), Bytes::new()), newer_than(5));
        chain.insert_below(Version::data(xid(60), Bytes::new()), newer_than(60));
        assert_eq!(xmins(&chain), [60, 50, 40, 30, 10, 5].map(xid));
        // Into an empty chain: it becomes the newest.
        let mut empty = VersionChain::default();
        empty.insert_below(Version::tombstone(xid(1)), |_| true);
        assert_eq!(xmins(&empty), vec![xid(1)]);
    }

    #[test]
    fn one_live_version_is_the_only_clean_state() {
        let mut chain = VersionChain::default();
        assert!(!chain.is_one_live_version());
        chain.push(Version::data(xid(1), Bytes::new()));
        assert!(chain.is_one_live_version());
        chain.push(Version::tombstone(xid(2)));
        assert!(!chain.is_one_live_version());
        chain.retain(|v| v.deleted());
        assert!(!chain.is_one_live_version(), "a lone tombstone");
    }

    #[test]
    fn a_status_is_asked_of_the_clog_until_it_is_committed() {
        let clog = Clog::new();
        let (x, mut v) = (xid(1), Version::data(xid(1), Bytes::new()));
        clog.begin(x);
        assert_eq!(v.status(&clog), TxnStatus::InProgress);
        clog.set_prepared(x).unwrap();
        assert_eq!(v.status(&clog), TxnStatus::Prepared);
        clog.set_committed(x, Timestamp(7)).unwrap();
        assert_eq!(v.status(&clog), TxnStatus::Committed(Timestamp(7)));
        // From here on the version answers: a log that never heard of the
        // transaction (and would say `Aborted`) is not consulted.
        assert_eq!(v.status(&Clog::new()), TxnStatus::Committed(Timestamp(7)));
        let mut aborted = Version::data(xid(2), Bytes::new());
        assert_eq!(aborted.status(&clog), TxnStatus::Aborted);
        assert_eq!(aborted.cts, Timestamp::INVALID, "only commits are kept");
        let mut frozen = Version::frozen(Bytes::new());
        let status = frozen.status(&Clog::new());
        assert_eq!(status, TxnStatus::Committed(Timestamp::SNAPSHOT_MIN));
    }

    #[test]
    fn a_chain_is_as_long_as_memory_and_drops_without_recursing() {
        assert_eq!(std::mem::size_of::<Version>(), 48);
        assert_eq!(std::mem::size_of::<Link>(), 56);
        assert_eq!(std::mem::size_of::<VersionChain>(), 56);
        let mut chain = VersionChain::default();
        for n in 1..=200_000 {
            chain.push(Version::data(xid(n), Bytes::new()));
        }
        assert_eq!(chain.len(), 200_000);
        drop(chain);
    }
}
