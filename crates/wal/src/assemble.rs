//! The WAL-stream transaction assembler (paper §3.3).
//!
//! The propagation process "extracts the changes of the migrating shards
//! into per-transaction update cache queues" and acts on a queue when it
//! meets the transaction's validation or decision record. Every consumer of
//! a node's log does the same fold — migration propagation, the replica
//! applier, crash replay — so it is written once, here: a [`TxnAssembler`]
//! is fed `(lsn, record)` in log order, buffers the writes its predicate
//! keeps per transaction ([`TxnBuffer`], the paper's update cache queue),
//! and answers each record with a [`TxnEvent`] saying what it did. The
//! consumers keep only what they do with an event.
//!
//! **Filter before decoding.** A record is fed as the log holds it, a
//! [`RecordView`] of its codec body. The predicate sees only a write's shard,
//! which the view reads in place, so a write it drops is never decoded; a
//! kept write is decoded once and its [`WriteOp`] moved into the buffer.
//!
//! **A `Begin` that predates the reader's start** has one representation: a
//! transaction first seen at any other record is assembled with
//! `begin_lsn == None` and only the records after the start. What that
//! means is the consumer's to say. The two stream consumers skip such a
//! transaction: their slot starts at the oldest active transaction, so it
//! resolved before the slot existed and is wholly inside the copied
//! snapshot. Crash replay applies it: its start is a truncation point, and
//! truncation can cut a resolved transaction's `Begin` and keep the rest.
//!
//! **The frontier** ([`TxnAssembler::frontier`]) is the LSN before the
//! earliest `Begin` still open, or the last record fed when none is: every
//! record at or below it belongs to a transaction that has resolved (or to
//! one without a `Begin`, which does not hold it — nobody waits for a
//! transaction the snapshot already contains). A replica's watermark and a
//! certified cut are statements about this one number.

use std::collections::{BTreeSet, HashMap};

use remus_common::{ShardId, Timestamp, TxnId};

use crate::codec::RecordView;
use crate::log::Lsn;
use crate::record::{LogOp, LogRecord, WriteOp};

/// How a transaction's resolution record ended it on this log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// `Commit` / `CommitPrepared`, with the logged commit timestamp.
    Committed(Timestamp),
    /// `Abort` / `RollbackPrepared`.
    Aborted,
}

/// One transaction as assembled from the records fed so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnBuffer {
    /// The transaction.
    pub xid: TxnId,
    /// Its logged start timestamp; [`Timestamp::INVALID`] without a `Begin`.
    pub start_ts: Timestamp,
    /// Where its `Begin` was fed; `None` if it predates the reader's start.
    pub begin_lsn: Option<Lsn>,
    /// Whether a `Prepare` was fed.
    pub prepared: bool,
    /// The kept writes, in log order. A consumer that ships them (at
    /// [`TxnEvent::Prepared`] or [`TxnEvent::Resolved`]) takes them out;
    /// later ones collect again. A buffer left with the assembler at its
    /// resolution is emptied and reused by a later transaction.
    pub writes: Vec<WriteOp>,
}

impl TxnBuffer {
    fn headless(xid: &TxnId) -> TxnBuffer {
        TxnBuffer {
            xid: *xid,
            start_ts: Timestamp::INVALID,
            begin_lsn: None,
            prepared: false,
            writes: Vec::new(),
        }
    }
}

/// What feeding one record did.
#[derive(Debug)]
pub enum TxnEvent<'a> {
    /// Nothing to act on: a `Begin`, or a write the predicate dropped.
    Nothing,
    /// A write was kept in this transaction's buffer.
    Kept(&'a TxnBuffer),
    /// The validation / prepare record: the transaction stays open.
    Prepared(&'a mut TxnBuffer),
    /// The decision record: the transaction is closed, and lent until the
    /// next record is fed.
    Resolved {
        /// Everything assembled for it.
        txn: &'a mut TxnBuffer,
        /// LSN of the decision record.
        resolution_lsn: Lsn,
        /// The decision.
        outcome: TxnOutcome,
    },
}

/// Folds a log's `Begin / Write / Prepare / resolution` records into
/// per-transaction buffers; see the module docs.
#[derive(Debug)]
pub struct TxnAssembler<F> {
    keep: F,
    open: HashMap<TxnId, TxnBuffer>,
    /// `Begin` LSNs of the open transactions that have one.
    heads: BTreeSet<Lsn>,
    last: Lsn,
    /// The last transaction resolved, lent with its `Resolved` event.
    resolved: TxnBuffer,
    /// An emptied write buffer the next transaction's first kept write
    /// reuses.
    spare: Vec<WriteOp>,
}

impl<F: Fn(ShardId) -> bool> TxnAssembler<F> {
    /// An assembler for a reader that starts after `after`, buffering the
    /// writes to the shards `keep` accepts.
    pub fn new(after: Lsn, keep: F) -> Self {
        TxnAssembler {
            keep,
            open: HashMap::new(),
            heads: BTreeSet::new(),
            last: after,
            resolved: TxnBuffer::headless(&TxnId::INVALID),
            spare: Vec::new(),
        }
    }

    /// Feeds the next record of the log.
    pub fn feed(&mut self, lsn: Lsn, record: RecordView<'_>) -> TxnEvent<'_> {
        debug_assert!(lsn > self.last, "records are fed in log order");
        self.last = lsn;
        if record.shard().is_some_and(|shard| !(self.keep)(shard)) {
            return TxnEvent::Nothing;
        }
        let LogRecord { xid, op } = record.decode().expect("a run holds the codec's bodies");
        let outcome = match op {
            LogOp::Begin(start_ts) => {
                let mut txn = TxnBuffer::headless(&xid);
                (txn.start_ts, txn.begin_lsn) = (start_ts, Some(lsn));
                self.heads.insert(lsn);
                if let Some(stale) = self.open.insert(xid, txn).and_then(|t| t.begin_lsn) {
                    self.heads.remove(&stale);
                }
                return TxnEvent::Nothing;
            }
            LogOp::Write(w) => {
                let txn = self.open.entry(xid).or_insert_with_key(TxnBuffer::headless);
                if txn.writes.capacity() == 0 {
                    txn.writes = std::mem::take(&mut self.spare);
                }
                txn.writes.push(w);
                return TxnEvent::Kept(txn);
            }
            LogOp::Prepare => {
                let txn = self.open.entry(xid).or_insert_with_key(TxnBuffer::headless);
                txn.prepared = true;
                return TxnEvent::Prepared(txn);
            }
            LogOp::Commit(cts) | LogOp::CommitPrepared(cts) => TxnOutcome::Committed(cts),
            LogOp::Abort | LogOp::RollbackPrepared => TxnOutcome::Aborted,
        };
        let txn = self.open.remove(&xid);
        let txn = txn.unwrap_or_else(|| TxnBuffer::headless(&xid));
        if let Some(begin) = txn.begin_lsn {
            self.heads.remove(&begin);
        }
        let mut writes = std::mem::replace(&mut self.resolved, txn).writes;
        if writes.capacity() > 0 {
            writes.clear();
            self.spare = writes;
        }
        TxnEvent::Resolved {
            txn: &mut self.resolved,
            resolution_lsn: lsn,
            outcome,
        }
    }

    /// The LSN before the earliest open `Begin`, else the last record fed.
    pub fn frontier(&self) -> Lsn {
        self.heads.first().map_or(self.last, |b| Lsn(b.0 - 1))
    }

    /// Open transactions whose `Begin` was fed (the ones holding the
    /// frontier).
    pub fn open_headed(&self) -> usize {
        self.heads.len()
    }

    /// What is left at the end of a log, by `xid`: `prepared` means in
    /// doubt, anything else was in progress when the log ended.
    pub fn into_open(self) -> Vec<TxnBuffer> {
        let mut open: Vec<TxnBuffer> = self.open.into_values().collect();
        open.sort_unstable_by_key(|t| t.xid);
        open
    }
}
