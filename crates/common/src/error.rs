//! The error type shared across the database and migration engines.

use std::fmt;

use crate::ids::{NodeId, ShardId, TxnId};

/// Why a transaction or migration operation failed.
///
/// The distinction between [`DbError::WwConflict`] and
/// [`DbError::MigrationAbort`] matters for the evaluation: the paper counts
/// *migration-induced* aborts separately from ordinary write-write conflict
/// aborts (e.g. Table 2 and §4.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// First-committer-wins SI write-write conflict with another transaction.
    WwConflict {
        /// The transaction that lost the conflict.
        txn: TxnId,
        /// The transaction it conflicted with, when known.
        other: TxnId,
    },
    /// The transaction was aborted by a migration engine (lock-and-abort
    /// terminating lock holders, Squall aborting access to migrated chunks,
    /// or a MOCC validation failure cascading to the source transaction).
    MigrationAbort {
        /// The victim transaction.
        txn: TxnId,
        /// Human-readable reason recorded for the evaluation report.
        reason: &'static str,
    },
    /// The transaction was explicitly rolled back (client abort, or 2PC
    /// participant failure).
    Aborted(TxnId),
    /// Serializable-mode (SSI) dangerous-structure abort: committing this
    /// transaction could complete a rw-antidependency cycle, so it was
    /// aborted to preserve serializability. Not migration-induced — the
    /// SSI tax is accounted separately from engine-caused aborts.
    SsiAbort {
        /// The transaction aborted as (or against) the unsafe pivot.
        txn: TxnId,
    },
    /// The shard is not owned by the node the request landed on; the caller
    /// should refresh its shard map and retry (Squall retries on the
    /// destination).
    NotOwner {
        /// Shard that was addressed.
        shard: ShardId,
        /// Node that rejected the request.
        node: NodeId,
    },
    /// A key expected to exist was not found.
    KeyNotFound,
    /// A unique-constraint violation during insert or replay.
    DuplicateKey,
    /// The migration controller rejected or failed an operation.
    Migration(String),
    /// A node is unreachable / crashed in the failure-injection harness.
    NodeUnavailable(NodeId),
    /// The coordinator "crashed" (an injected [`crate::FaultAction::Crash`])
    /// between two steps of this transaction's two-phase commit and cleaned
    /// nothing up: the transaction is in doubt until recovery decides it by
    /// the 2PC rule — committed iff some participant entered phase two.
    InDoubt(TxnId),
    /// Waited too long (lock wait or prepare-wait in tests with injected
    /// failures).
    Timeout(&'static str),
    /// The on-disk WAL failed a structural check on reopen: bad header,
    /// CRC mismatch, or an LSN break *before* the final segment's tail
    /// (a torn tail is tolerated by truncation and never surfaces here).
    WalCorrupt(String),
    /// Internal invariant violation; always a bug.
    Internal(String),
}

impl DbError {
    /// True if the error is counted as a migration-induced interruption in
    /// the evaluation (paper: "zero migration-induced transaction aborts").
    pub fn is_migration_induced(&self) -> bool {
        matches!(
            self,
            DbError::MigrationAbort { .. } | DbError::NotOwner { .. }
        )
    }

    /// True for errors that a client retry loop should treat as transient.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DbError::WwConflict { .. }
                | DbError::MigrationAbort { .. }
                | DbError::NotOwner { .. }
                | DbError::Aborted(_)
                | DbError::SsiAbort { .. }
        )
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::WwConflict { txn, other } => {
                write!(f, "write-write conflict: {txn} lost to {other}")
            }
            DbError::MigrationAbort { txn, reason } => {
                write!(f, "migration aborted {txn}: {reason}")
            }
            DbError::Aborted(txn) => write!(f, "transaction {txn} aborted"),
            DbError::SsiAbort { txn } => {
                write!(f, "serialization failure: {txn} aborted by SSI")
            }
            DbError::NotOwner { shard, node } => {
                write!(f, "{shard} is not owned by {node}")
            }
            DbError::KeyNotFound => write!(f, "key not found"),
            DbError::DuplicateKey => write!(f, "duplicate key violates unique constraint"),
            DbError::Migration(msg) => write!(f, "migration error: {msg}"),
            DbError::NodeUnavailable(n) => write!(f, "{n} unavailable"),
            DbError::InDoubt(txn) => write!(f, "coordinator crashed mid-2PC: {txn} is in doubt"),
            DbError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            DbError::WalCorrupt(msg) => write!(f, "WAL corrupt: {msg}"),
            DbError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Result alias used throughout the workspace.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_induced_classification() {
        let ww = DbError::WwConflict {
            txn: TxnId(1),
            other: TxnId(2),
        };
        let mig = DbError::MigrationAbort {
            txn: TxnId(1),
            reason: "lock-and-abort",
        };
        let owner = DbError::NotOwner {
            shard: ShardId(3),
            node: NodeId(0),
        };
        assert!(!ww.is_migration_induced());
        assert!(mig.is_migration_induced());
        assert!(owner.is_migration_induced());
    }

    #[test]
    fn retryable_classification() {
        assert!(DbError::WwConflict {
            txn: TxnId(1),
            other: TxnId::INVALID
        }
        .is_retryable());
        assert!(DbError::NotOwner {
            shard: ShardId(0),
            node: NodeId(0)
        }
        .is_retryable());
        assert!(!DbError::DuplicateKey.is_retryable());
        assert!(!DbError::Internal("x".into()).is_retryable());
        // An SSI serialization failure is transient (retry with a fresh
        // snapshot) but must not count as migration-induced.
        let ssi = DbError::SsiAbort { txn: TxnId(1) };
        assert!(ssi.is_retryable());
        assert!(!ssi.is_migration_induced());
    }

    #[test]
    fn display_is_informative() {
        let e = DbError::NotOwner {
            shard: ShardId(9),
            node: NodeId(2),
        };
        assert_eq!(e.to_string(), "ShardId(9) is not owned by NodeId(2)");
    }
}
