//! Tuple versions and version chains.
//!
//! Each logical tuple is a chain of versions, newest first. A version
//! records the transaction that created it (`xmin`, the paper's extended
//! tuple header) and whether it is a deletion tombstone; commit timestamps
//! live in the CLOG, not the tuple, exactly as in PolarDB-PG. Explicit
//! row-level locks (`SELECT ... FOR UPDATE`) are recorded as a `locker` on
//! the newest version.

use bytes::Bytes;
use remus_common::TxnId;

/// Primary key of a tuple. The YCSB/TPC-C workloads encode composite keys
/// into this 64-bit space (see `remus-workload`).
pub type Key = u64;

/// Tuple payload.
pub type Value = Bytes;

/// One version of a tuple.
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

impl TupleVersion {
    /// A regular data version.
    pub fn data(xmin: TxnId, value: Value) -> Self {
        TupleVersion {
            xmin,
            value,
            deleted: false,
            locker: None,
        }
    }

    /// A deletion tombstone.
    pub fn tombstone(xmin: TxnId) -> Self {
        TupleVersion {
            xmin,
            value: Bytes::new(),
            deleted: true,
            locker: None,
        }
    }
}

/// The version chain for one key, newest version first.
///
/// Chains are small in steady state (vacuum trims them); they grow under
/// long-lived snapshots, which is precisely the effect Figure 10 measures.
#[derive(Debug, Clone, Default)]
pub struct VersionChain {
    versions: Vec<TupleVersion>,
}

impl VersionChain {
    /// A chain seeded with one version.
    pub fn with(version: TupleVersion) -> Self {
        VersionChain {
            versions: vec![version],
        }
    }

    /// Pushes a new newest version.
    pub fn push(&mut self, version: TupleVersion) {
        self.versions.insert(0, version);
    }

    /// The newest version, if any.
    pub fn newest(&self) -> Option<&TupleVersion> {
        self.versions.first()
    }

    /// Mutable access to the newest version.
    pub fn newest_mut(&mut self) -> Option<&mut TupleVersion> {
        self.versions.first_mut()
    }

    /// Mutable access to the version `xid` created, wherever it stands.
    pub fn version_of_mut(&mut self, xid: TxnId) -> Option<&mut TupleVersion> {
        self.versions.iter_mut().find(|v| v.xmin == xid)
    }

    /// Inserts `version` below the leading run of versions `newer` holds for.
    pub fn insert_below(&mut self, version: TupleVersion, newer: impl Fn(&TupleVersion) -> bool) {
        let at = self.versions.iter().take_while(|v| newer(v)).count();
        self.versions.insert(at, version);
    }

    /// Iterates newest-to-oldest.
    pub fn iter(&self) -> impl Iterator<Item = &TupleVersion> {
        self.versions.iter()
    }

    /// Drops every version created by `xid` (abort cleanup) and any lock it
    /// held. Returns how many versions were removed.
    pub fn purge_txn(&mut self, xid: TxnId) -> usize {
        for v in &mut self.versions {
            if v.locker == Some(xid) {
                v.locker = None;
            }
        }
        let before = self.versions.len();
        self.versions.retain(|v| v.xmin != xid);
        before - self.versions.len()
    }

    /// Number of versions in the chain.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when no versions remain.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Retains only versions for which `keep` returns true (vacuum).
    pub fn retain(&mut self, keep: impl FnMut(&TupleVersion) -> bool) {
        self.versions.retain(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::NodeId;

    fn xid(n: u64) -> TxnId {
        TxnId::new(NodeId(0), n)
    }

    #[test]
    fn push_orders_newest_first() {
        let mut chain = VersionChain::default();
        chain.push(TupleVersion::data(xid(1), Bytes::from_static(b"a")));
        chain.push(TupleVersion::data(xid(2), Bytes::from_static(b"b")));
        assert_eq!(chain.newest().unwrap().xmin, xid(2));
        let order: Vec<_> = chain.iter().map(|v| v.xmin).collect();
        assert_eq!(order, vec![xid(2), xid(1)]);
    }

    #[test]
    fn purge_removes_versions_and_locks() {
        let mut chain = VersionChain::default();
        chain.push(TupleVersion::data(xid(1), Bytes::from_static(b"a")));
        chain.newest_mut().unwrap().locker = Some(xid(9));
        chain.push(TupleVersion::data(xid(9), Bytes::from_static(b"b")));
        assert_eq!(chain.purge_txn(xid(9)), 1);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.newest().unwrap().xmin, xid(1));
        assert_eq!(chain.newest().unwrap().locker, None);
    }

    #[test]
    fn tombstone_has_no_value() {
        let t = TupleVersion::tombstone(xid(3));
        assert!(t.deleted);
        assert!(t.value.is_empty());
    }
}
