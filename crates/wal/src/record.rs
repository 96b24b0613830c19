//! WAL record types.
//!
//! The record vocabulary follows §3.3/§3.5.2 of the paper: row-level change
//! records tagged with their shard (the propagation process filters on the
//! migrating shards), plus the transaction-control records MOCC relies on —
//! the *validation record* (a special 2PC prepare record), commit/abort,
//! and the commit-prepared / rollback-prepared decisions for transactions
//! that went through a prepare.

use remus_common::{ShardId, Timestamp, TxnId};
pub use remus_storage::WriteKind;
use remus_storage::{Key, Value};

/// One row-level change, identified by primary key (§3.3: every propagated
/// record includes the primary key of the modified tuple).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOp {
    /// Shard the change belongs to.
    pub shard: ShardId,
    /// Primary key of the modified tuple.
    pub key: Key,
    /// What happened.
    pub kind: WriteKind,
    /// New tuple image for inserts/updates; empty otherwise.
    pub value: Value,
}

/// The operation a WAL record describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogOp {
    /// First record of a transaction on this node, carrying its start
    /// timestamp — the propagation process needs it to run the shadow
    /// transaction "with the same start timestamp" (§3.3).
    Begin(Timestamp),
    /// A row-level change by the transaction.
    Write(WriteOp),
    /// Validation record / 2PC prepare (MOCC validation stage trigger).
    Prepare,
    /// Commit of a transaction that never prepared (single-node fast path),
    /// carrying its commit timestamp.
    Commit(Timestamp),
    /// Abort of a transaction that never prepared.
    Abort,
    /// Commit decision for a prepared transaction.
    CommitPrepared(Timestamp),
    /// Rollback decision for a prepared transaction.
    RollbackPrepared,
}

impl LogOp {
    /// True for the records that finish a transaction on this node.
    pub fn is_resolution(&self) -> bool {
        matches!(
            self,
            LogOp::Commit(_) | LogOp::Abort | LogOp::CommitPrepared(_) | LogOp::RollbackPrepared
        )
    }

    /// The commit timestamp carried, for commit-flavored records.
    pub fn commit_ts(&self) -> Option<Timestamp> {
        match self {
            LogOp::Commit(ts) | LogOp::CommitPrepared(ts) => Some(*ts),
            _ => None,
        }
    }
}

/// A WAL record: which transaction did what. The LSN is assigned by the
/// log on append and lives in [`crate::log::Wal`]'s envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The transaction this record belongs to.
    pub xid: TxnId,
    /// The operation.
    pub op: LogOp,
}

impl LogRecord {
    /// Convenience constructor.
    pub fn new(xid: TxnId, op: LogOp) -> Self {
        LogRecord { xid, op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_common::NodeId;

    #[test]
    fn resolution_classification() {
        assert!(LogOp::Commit(Timestamp(1)).is_resolution());
        assert!(LogOp::Abort.is_resolution());
        assert!(LogOp::CommitPrepared(Timestamp(1)).is_resolution());
        assert!(LogOp::RollbackPrepared.is_resolution());
        assert!(!LogOp::Prepare.is_resolution());
        let w = WriteOp {
            shard: ShardId(1),
            key: 2,
            kind: WriteKind::Insert,
            value: Value::new(),
        };
        assert!(!LogOp::Write(w).is_resolution());
    }

    #[test]
    fn commit_ts_extraction() {
        assert_eq!(LogOp::Commit(Timestamp(5)).commit_ts(), Some(Timestamp(5)));
        assert_eq!(
            LogOp::CommitPrepared(Timestamp(6)).commit_ts(),
            Some(Timestamp(6))
        );
        assert_eq!(LogOp::Abort.commit_ts(), None);
        assert_eq!(LogOp::Prepare.commit_ts(), None);
    }

    #[test]
    fn record_construction() {
        let xid = TxnId::new(NodeId(1), 9);
        let r = LogRecord::new(xid, LogOp::Prepare);
        assert_eq!(r.xid, xid);
        assert_eq!(r.op, LogOp::Prepare);
    }
}
