//! The durability half of the write-ahead log.
//!
//! The in-memory [`Wal`](crate::Wal) stays the authoritative *read* path
//! for replay and propagation whether or not it is durable; a
//! [`FileBackend`] is purely the durability half: it is handed every
//! record's codec body as the append encoded it (still under the log's
//! append lock, so in LSN order), persists them to the on-disk segment log
//! of DESIGN.md §10 with fsync-coalescing group commit and torn-tail-
//! tolerant reopen, and answers "is LSN n durable yet?" for group commit.
//! A log without one (the default) is "durable" the moment a record is
//! placed, and a restart loses it.

pub mod file;

pub use file::{FileBackend, FsyncData, RecoveredLog, SyncPolicy};
