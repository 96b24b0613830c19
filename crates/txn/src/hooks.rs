//! The commit-path seam that migration engines interpose on.
//!
//! Remus's sync barrier (paper §3.4) is "a flag in a shared memory area of
//! the source node ... checked by source transactions before they commit".
//! [`SyncCommitHook`] is that flag plus the machinery behind it: the commit
//! protocol asks the installed hook for its [`CommitMode`]; in sync mode the
//! transaction becomes a *synchronized source transaction* and, after
//! writing its validation (prepare) record, blocks in
//! [`SyncCommitHook::await_validation`] until the destination has replayed
//! and validated its changes (MOCC's validation stage, §3.5.2).
//!
//! The hook also hears about commit-progress boundaries so the migration
//! can track `TS_unsync` — the set of transactions already committing when
//! the barrier was raised.

use remus_common::{DbResult, ShardId, Timestamp, TxnId};

/// How a transaction must commit on this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// Normal path: commit locally; changes propagate asynchronously.
    Async,
    /// Synchronized source transaction: wait for destination validation
    /// before assigning the commit timestamp.
    Sync,
}

/// Migration interposition points on one node's commit path.
///
/// The engine installs a hook only on the migration's source node, and only
/// for the migration's lifetime: a node with no hook installed commits
/// asynchronously and does no work on a hook's behalf.
pub trait SyncCommitHook: Send + Sync {
    /// Called when a transaction that wrote `shards` on this node enters
    /// its commit progress. Returns the commit mode and registers the
    /// transaction as "in commit progress" (the `TS_unsync` bookkeeping).
    fn begin_commit(&self, xid: TxnId, shards: &[ShardId]) -> CommitMode;

    /// Sync mode only: blocks until the destination reports the MOCC
    /// validation outcome for `xid`. `Err` means a WW-conflict was found on
    /// the destination and both the source and shadow transaction must
    /// abort.
    fn await_validation(&self, xid: TxnId) -> DbResult<()>;

    /// Called once the transaction resolved (committed with `Some(ts)` or
    /// aborted with `None`), after its resolution record hit the WAL.
    fn end_commit(&self, xid: TxnId, commit_ts: Option<Timestamp>);
}
