//! WAL shipping: LSN-prefixed frame batches and the replica-side dense
//! monotonic apply-LSN gate.
//!
//! A replica stream tails a primary's WAL (the same
//! [`crate::log::WalReader::next_batch`] drain a migration's stream uses)
//! and delivers [`ShipBatch`]es — contiguous record runs prefixed with the
//! LSN of their first frame — to the replica's applier. The
//! transport is allowed to be sloppy: batches may arrive duplicated,
//! reordered, or overlapping at arbitrary LSN boundaries (a retransmit
//! after a timeout resends frames the replica already holds).
//!
//! [`ApplyLsnGate`] restores exactly-once-in-order semantics on the
//! receive side. It tracks the highest densely-applied LSN; an arriving
//! batch is dropped if wholly below it, trimmed if it overlaps it, and
//! parked if it starts beyond the next expected LSN — parked batches drain
//! as soon as the gap fills. Everything the gate releases is a dense,
//! strictly increasing LSN run, so the applier behind it never sees a
//! frame twice and never sees a gap, no matter what the transport did —
//! which is the order [`crate::assemble::TxnAssembler`] asks to be fed in:
//! the applier hands it what the gate releases, and the assembler's
//! per-transaction buffers and frontier are the same whatever the transport
//! did (`tests/assembler_properties.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::log::Lsn;
use crate::record::LogRecord;

/// A contiguous run of WAL frames, prefixed with the LSN of the first.
/// Frame `i` has LSN `first + i`.
#[derive(Debug, Clone)]
pub struct ShipBatch {
    /// LSN of `records[0]`.
    pub first: Lsn,
    /// The frames, in LSN order, shared with the source's log.
    pub records: Vec<Arc<LogRecord>>,
}

impl ShipBatch {
    /// A batch whose first frame has LSN `first`.
    pub fn new(first: Lsn, records: Vec<Arc<LogRecord>>) -> ShipBatch {
        ShipBatch { first, records }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the batch carries no frames.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// LSN of the last frame ([`Lsn::ZERO`]-adjacent nonsense for an empty
    /// batch; callers drop empties before asking).
    pub fn last(&self) -> Lsn {
        Lsn(self.first.0 + self.records.len() as u64 - 1)
    }
}

/// The dense monotonic apply-LSN gate guarding a replica's apply stream.
///
/// Feed every received [`ShipBatch`] to [`ApplyLsnGate::admit`]; apply —
/// in order — exactly the frames it returns. The gate owns duplicate
/// suppression, overlap trimming, and reorder buffering, which is what
/// makes the applier behind it idempotent by construction.
#[derive(Debug, Default)]
pub struct ApplyLsnGate {
    applied: Lsn,
    /// Out-of-order batches parked until the gap before them fills, keyed
    /// by first LSN. On key collision the longer batch wins.
    parked: BTreeMap<u64, ShipBatch>,
}

impl ApplyLsnGate {
    /// A gate that has applied nothing (next expected LSN is 1).
    pub fn new() -> ApplyLsnGate {
        ApplyLsnGate::default()
    }

    /// A gate positioned after `applied` — a backfilled replica starts its
    /// live stream here, treating everything at or below the cut as done.
    pub fn starting_after(applied: Lsn) -> ApplyLsnGate {
        ApplyLsnGate {
            applied,
            parked: BTreeMap::new(),
        }
    }

    /// Highest densely-applied LSN.
    pub fn applied(&self) -> Lsn {
        self.applied
    }

    /// Number of batches parked waiting for a gap to fill.
    pub fn parked(&self) -> usize {
        self.parked.len()
    }

    /// Admits one received batch and returns the frames now ready to
    /// apply, as a dense `(lsn, record)` run starting at `applied + 1`.
    /// Duplicates return nothing; out-of-order batches park and return
    /// nothing until the gap before them fills.
    pub fn admit(&mut self, batch: ShipBatch) -> Vec<(Lsn, Arc<LogRecord>)> {
        let mut ready = Vec::new();
        self.absorb(batch, &mut ready);
        self.drain_parked(&mut ready);
        ready
    }

    /// Applies `batch` against the current position: drop, trim, extend,
    /// or park.
    fn absorb(&mut self, batch: ShipBatch, ready: &mut Vec<(Lsn, Arc<LogRecord>)>) {
        if batch.is_empty() || batch.last().0 <= self.applied.0 {
            return; // nothing new in it
        }
        if batch.first.0 > self.applied.0 + 1 {
            // Gap before it: park, preferring the longer batch on collision.
            let slot = self
                .parked
                .entry(batch.first.0)
                .or_insert_with(|| ShipBatch::new(batch.first, Vec::new()));
            if batch.len() > slot.len() {
                *slot = batch;
            }
            return;
        }
        // Overlaps or abuts the applied prefix: trim what we already have.
        let skip = (self.applied.0 + 1).saturating_sub(batch.first.0) as usize;
        for (i, record) in batch.records.into_iter().enumerate().skip(skip) {
            let lsn = Lsn(batch.first.0 + i as u64);
            ready.push((lsn, record));
            self.applied = lsn;
        }
    }

    /// Releases parked batches that the advanced position now reaches.
    fn drain_parked(&mut self, ready: &mut Vec<(Lsn, Arc<LogRecord>)>) {
        loop {
            // The lowest-keyed parked batch is the only candidate: all
            // others start even further beyond the dense frontier.
            let Some((&first, _)) = self.parked.iter().next() else {
                return;
            };
            if first > self.applied.0 + 1 {
                return;
            }
            let batch = self.parked.remove(&first).expect("keyed by iteration");
            self.absorb(batch, ready);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogOp;
    use remus_common::{NodeId, Timestamp, TxnId};

    /// A batch of `n` marker frames starting at LSN `first`; frame at LSN
    /// `l` carries commit timestamp `l` so tests can check identity.
    fn batch(first: u64, n: u64) -> ShipBatch {
        let records = (0..n)
            .map(|i| {
                Arc::new(LogRecord::new(
                    TxnId::new(NodeId(0), first + i),
                    LogOp::Commit(Timestamp(first + i)),
                ))
            })
            .collect();
        ShipBatch::new(Lsn(first), records)
    }

    fn lsns(out: &[(Lsn, Arc<LogRecord>)]) -> Vec<u64> {
        out.iter().map(|(l, _)| l.0).collect()
    }

    /// Each released frame's payload must match its LSN (no frame applied
    /// under the wrong LSN after trimming).
    fn assert_aligned(out: &[(Lsn, Arc<LogRecord>)]) {
        for (lsn, r) in out {
            match r.op {
                LogOp::Commit(ts) => assert_eq!(ts.0, lsn.0, "frame misaligned"),
                _ => panic!("test frames are commits"),
            }
        }
    }

    #[test]
    fn in_order_batches_flow_straight_through() {
        let mut gate = ApplyLsnGate::new();
        assert_eq!(lsns(&gate.admit(batch(1, 3))), vec![1, 2, 3]);
        assert_eq!(lsns(&gate.admit(batch(4, 2))), vec![4, 5]);
        assert_eq!(gate.applied(), Lsn(5));
        assert_eq!(gate.parked(), 0);
    }

    #[test]
    fn duplicate_batch_is_dropped() {
        let mut gate = ApplyLsnGate::new();
        gate.admit(batch(1, 4));
        assert!(gate.admit(batch(1, 4)).is_empty());
        assert!(gate.admit(batch(2, 2)).is_empty());
        assert_eq!(gate.applied(), Lsn(4));
    }

    #[test]
    fn overlapping_batch_is_trimmed_to_the_new_suffix() {
        let mut gate = ApplyLsnGate::new();
        gate.admit(batch(1, 4));
        let out = gate.admit(batch(3, 5)); // 3..=7; 3,4 already applied
        assert_eq!(lsns(&out), vec![5, 6, 7]);
        assert_aligned(&out);
    }

    #[test]
    fn out_of_order_batch_parks_until_the_gap_fills() {
        let mut gate = ApplyLsnGate::new();
        assert!(gate.admit(batch(4, 2)).is_empty());
        assert_eq!(gate.parked(), 1);
        let out = gate.admit(batch(1, 3));
        assert_eq!(lsns(&out), vec![1, 2, 3, 4, 5]);
        assert_aligned(&out);
        assert_eq!(gate.parked(), 0);
    }

    #[test]
    fn chained_parked_batches_drain_together() {
        let mut gate = ApplyLsnGate::new();
        assert!(gate.admit(batch(6, 2)).is_empty());
        assert!(gate.admit(batch(3, 3)).is_empty());
        assert_eq!(gate.parked(), 2);
        let out = gate.admit(batch(1, 2));
        assert_eq!(lsns(&out), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_aligned(&out);
    }

    #[test]
    fn parked_collision_keeps_the_longer_batch() {
        let mut gate = ApplyLsnGate::new();
        assert!(gate.admit(batch(3, 1)).is_empty());
        assert!(gate.admit(batch(3, 4)).is_empty());
        assert_eq!(gate.parked(), 1);
        let out = gate.admit(batch(1, 2));
        assert_eq!(lsns(&out), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn starting_after_skips_the_backfilled_prefix() {
        let mut gate = ApplyLsnGate::starting_after(Lsn(10));
        assert!(gate.admit(batch(5, 4)).is_empty(), "wholly below the cut");
        let out = gate.admit(batch(8, 6)); // 8..=13: 8,9,10 below the cut
        assert_eq!(lsns(&out), vec![11, 12, 13]);
        assert_aligned(&out);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut gate = ApplyLsnGate::new();
        assert!(gate.admit(ShipBatch::new(Lsn(9), Vec::new())).is_empty());
        assert_eq!(gate.applied(), Lsn::ZERO);
    }
}
