#![warn(missing_docs)]

//! Write-ahead log and the update-propagation building blocks.
//!
//! Remus tracks the incremental changes of a migrating shard by traversing
//! WAL records (paper §3.3): a propagation process tails the log, buffers
//! per transaction the changes relevant to the migrating shards — the
//! paper's update cache queue is an [`assemble::TxnBuffer`] — and ships a
//! buffer when it sees the transaction's commit (async mode) or
//! validation/prepare record (sync mode, MOCC). That fold of `Begin / Write
//! / Prepare / resolution` records into per-transaction buffers is
//! [`assemble::TxnAssembler`], shared with the replica applier and crash
//! replay.
//!
//! The log itself ([`log::Wal`]) is an in-memory append-only byte log of
//! codec-encoded records in segments, with monotonically increasing LSNs,
//! one blocking tail read ([`log::WalReader::next_batch`]: a batch, the idle
//! period, or a stop asked for through its [`log::TailHandle`]) for the
//! migration and replica streams, and truncation of
//! fully-consumed prefixes, whole segments at a time. A log without a
//! durability backend keeps the original "order only" model, while one
//! with a [`backend::FileBackend`] persists
//! every record to an on-disk segment log (versioned [`codec`], per-record
//! CRC, group commit with fsync coalescing) that
//! [`log::Wal::crash_and_reopen`] can rebuild the log from after a
//! process-level crash — tolerating a torn tail, hard-failing on mid-log
//! corruption. See DESIGN.md §10.

pub mod assemble;
pub mod backend;
pub mod codec;
pub mod log;
pub mod record;
pub mod ship;

pub use assemble::{TxnAssembler, TxnBuffer, TxnEvent, TxnOutcome};
pub use backend::{FileBackend, FsyncData, RecoveredLog, SyncPolicy};
pub use codec::{
    crc32, decode_record, encode_record, encode_record_vec, RecordView, CODEC_VERSION,
};
pub use log::{Lsn, TailHandle, TailRead, Wal, WalReader};
pub use record::{LogOp, LogRecord, WriteKind, WriteOp};
pub use ship::{ApplyLsnGate, ShipBatch};
