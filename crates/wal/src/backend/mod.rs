//! Durability backends for the write-ahead log.
//!
//! The in-memory [`Wal`](crate::Wal) stays the authoritative *read* path
//! for replay and propagation regardless of backend; a [`WalBackend`] is
//! purely the durability half: it is handed every record's codec body as
//! the append encoded it (still under the log's append lock, so in LSN
//! order), persists them, and answers "is LSN n durable yet?" for group
//! commit.
//!
//! The one implementation is [`FileBackend`], the on-disk segment log of
//! DESIGN.md §10 with fsync-coalescing group commit and torn-tail-tolerant
//! reopen. A log without a backend (the default) is "durable" the moment a
//! record is placed, and a restart loses it.

pub mod file;

use std::fmt;
use std::sync::Arc;

use remus_common::DbResult;

use crate::log::Lsn;

pub use file::{FileBackend, FsyncData, RecoveredLog, SyncPolicy};

/// The durability half of a [`Wal`](crate::Wal).
///
/// `stage` is invoked under the log's append mutex, so implementations
/// observe records in strictly increasing, dense LSN order and may treat
/// that as an invariant. Everything else can be called from any thread.
pub trait WalBackend: Send + Sync + fmt::Debug {
    /// Accepts the record just appended at `lsn`, as its codec body
    /// ([`crate::codec::encode_record`]), for persistence. Must not block on
    /// I/O (the caller holds the append lock); the file backend frames the
    /// body and hands the frame to a background flusher.
    fn stage(&self, lsn: Lsn, body: &[u8]);

    /// Blocks until every record with LSN ≤ `lsn` is durable — for the
    /// file backend, until the fsync of the group-commit batch containing
    /// `lsn` has completed.
    fn wait_durable(&self, lsn: Lsn) -> DbResult<()>;

    /// Highest LSN known durable.
    fn durable_lsn(&self) -> Lsn;

    /// Number of fsync calls issued so far (0 for in-memory).
    fn fsyncs(&self) -> u64;

    /// Notification that the in-memory log dropped all records ≤ `lsn`;
    /// the backend may reclaim whole segments strictly below that point.
    fn truncated_until(&self, _lsn: Lsn) {}

    /// Graceful stop: persist everything already staged, then stop
    /// background work. Idempotent.
    fn shutdown(&self);

    /// Simulated process kill: discard staged-but-unsynced records and stop
    /// background work *without* a final sync. What was already durable
    /// stays on disk; everything else is lost — exactly the prefix
    /// semantics a real crash gives. Idempotent.
    fn crash(&self);
}

/// Shared handle alias used by the log.
pub type BackendHandle = Arc<dyn WalBackend>;
