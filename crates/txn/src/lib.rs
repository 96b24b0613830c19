#![warn(missing_docs)]

//! The snapshot-isolation transaction engine.
//!
//! This crate owns the mechanics every migration engine builds on:
//!
//! * [`node::NodeStorage`] — one elastic node's storage context: CLOG, WAL,
//!   shard tables, xid allocation, the active-transaction registry, and the
//!   doom list used to terminate victims server-side.
//! * [`txn::Txn`] — a transaction handle tracking snapshot, write set, and
//!   participants; read/insert/update/delete/lock operations that log to
//!   the WAL and apply to the MVCC tables.
//! * [`commit`] — commit/abort protocols: the single-node fast path and
//!   two-phase commit with the prepare-wait timestamp-ordering rule, plus
//!   the [`hooks::SyncCommitHook`] seam through which Remus's MOCC
//!   interposes on the source node's commit path.
//! * [`gate`] — shard write gates (lock-and-abort's ownership transfer) and
//!   the H-store-style shard lock table used to reproduce Squall's
//!   partition-lock concurrency control.
//! * [`net`] — the network-delay seam used to charge cross-node hops.
//! * [`ssi`] — serializable snapshot isolation (opt-in via
//!   [`remus_common::IsolationLevel::Serializable`]): per-node SIREAD lock
//!   tables, rw-antidependency tracking, and dangerous-structure aborts,
//!   with SIREAD retention past commit until the safe-ts watermark.
//! * [`recovery`] — crash-restart WAL replay: after
//!   [`node::NodeStorage::crash_reset`] drops volatile state and reopens
//!   the WAL from its durability backend, [`recovery::replay_node_wal`]
//!   redoes committed transactions and re-instates prepared in-doubt ones;
//!   [`recovery::redo_committed`] is the one redo rule for a committed
//!   transaction, shared with the replica applier.

pub mod commit;
pub mod gate;
pub mod hooks;
pub mod net;
pub mod node;
pub mod recovery;
pub mod ssi;
pub mod txn;

pub use commit::{
    abort_txn, commit_prepared, commit_txn, force_abort, prepare_participant, rollback_prepared,
};
pub use gate::{LockMode, ShardGate, ShardLockTable};
pub use hooks::{CommitMode, SyncCommitHook};
pub use net::{DelayNetwork, Network, NoNetwork};
pub use node::{NodeCounters, NodeStorage, WalTail};
pub use recovery::{redo_committed, replay_node_wal, ReplaySummary};
pub use ssi::{SealOutcome, SsiNode, SsiPhase, SsiShardExport, SsiTxn};
pub use txn::Txn;
