#![warn(missing_docs)]

//! MVCC storage engine: the PostgreSQL-shaped substrate under Remus.
//!
//! The paper's target system stores multiple versions per tuple, records
//! each transaction's status and commit timestamp in a commit log, and
//! resolves visibility with the *prepare-wait* rule (§2.2): a reader that
//! finds a version whose creator is in the `Prepared` state waits for that
//! transaction to finish before deciding visibility.
//!
//! * [`clog::Clog`] — transaction status + commit timestamps, with blocking
//!   waits for resolution.
//! * [`table::VersionedTable`] — one shard's primary-keyed multi-version
//!   heap: SI reads, first-committer-wins writes, deletes, explicit row
//!   locks, streaming snapshot scans, snapshot installation, GC.
//!
//! How a table lays out its keys and version chains — per lock stripe an
//! open-addressing table of `(key, node)` slots for point access, one node
//! per key holding the latch and the newest version with older versions
//! linked behind it, and the keys in order for scans, built when the first
//! scan asks — and the pure visibility and write-check procedures that walk
//! a chain, are private to this crate. A version caches its creator's commit
//! timestamp once somebody resolved it, so the commit log is asked about a
//! version at most until it is known committed. What is public is the table
//! API below: each operation has one body and every other entry point
//! projects it (the [`table`] module doc has the callers).
//!
//! | operation | body | projections |
//! |---|---|---|
//! | point read | the private `visible_at` | [`VersionedTable::read_versioned`], [`VersionedTable::read`] (value only) |
//! | scan | [`VersionedTable::scan`] | [`VersionedTable::scan_visible_range`], [`VersionedTable::count_visible`] |
//! | write | [`VersionedTable::write`] taking a [`WriteKind`] | [`VersionedTable::insert`], [`update`](VersionedTable::update), [`delete`](VersionedTable::delete), [`lock_row`](VersionedTable::lock_row) |
//! | GC | [`VersionedTable::gc_step`] | [`VersionedTable::vacuum`] |
//! | bulk | [`VersionedTable::install_frozen`], [`purge_txn`](VersionedTable::purge_txn), [`chunk_splits`](VersionedTable::chunk_splits), [`clear`](VersionedTable::clear) | — |
//!
//! [`TupleVersion`] is the element type of
//! [`VersionedTable::chain_snapshot`], the one window onto stored versions
//! that reference tests and forensic dumps keep.

pub mod clog;
#[cfg(feature = "mutation-hooks")]
pub mod mutation;
mod slots;
pub mod table;
mod tuple;
mod visibility;

pub use clog::{Clog, TxnStatus};
pub use table::{GcStepStats, TableStats, VersionedTable};
pub use tuple::{Key, TupleVersion, Value};
pub use visibility::WriteKind;
