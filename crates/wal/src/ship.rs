//! WAL shipping: runs of encoded records prefixed with the LSN of their
//! first, and the receive-side dense monotonic apply-LSN gate.
//!
//! A [`ShipBatch`] is the one shape a run of records has from the log to its
//! receiver: a [`crate::log::WalReader`] copies the codec bodies of
//! consecutive records out of the log into one ([`crate::codec`], v1, back
//! to back, with their end offsets), the stream delivers it as it is, and
//! the receiver reads each body in place through a
//! [`crate::codec::RecordView`], decoding only what it keeps. The same
//! drain serves a replica stream and a migration's. The transport is
//! allowed to be sloppy: batches may arrive duplicated, reordered, or
//! overlapping at arbitrary LSN boundaries (a retransmit after a timeout
//! resends records the replica already holds).
//!
//! [`ApplyLsnGate`] restores exactly-once-in-order semantics on the
//! receive side. It tracks the highest densely-applied LSN; an arriving
//! batch is dropped if wholly below it, trimmed if it overlaps it, and
//! parked if it starts beyond the next expected LSN — parked batches drain
//! as soon as the gap fills. Everything the gate releases is a dense,
//! strictly increasing LSN run, so the applier behind it never sees a
//! record twice and never sees a gap, no matter what the transport did —
//! which is the order [`crate::assemble::TxnAssembler`] asks to be fed in:
//! the applier hands it what the gate releases, and the assembler's
//! per-transaction buffers and frontier are the same whatever the transport
//! did (`tests/assembler_properties.rs`).

use std::collections::BTreeMap;

use crate::codec::RecordView;
use crate::log::Lsn;

/// A contiguous run of encoded records, prefixed with the LSN of the first:
/// record `i` has LSN `first + i`. A test builds one from its default, a
/// `first` and a [`ShipBatch::push`] per record.
#[derive(Debug, Clone, Default)]
pub struct ShipBatch {
    /// LSN of the first record.
    pub first: Lsn,
    /// The records' codec bodies, back to back.
    pub(crate) bodies: Vec<u8>,
    /// End offset of each body in `bodies`.
    pub(crate) ends: Vec<usize>,
}

impl ShipBatch {
    /// Appends one codec body after the last record.
    pub fn push(&mut self, body: &[u8]) {
        self.bodies.extend_from_slice(body);
        self.ends.push(self.bodies.len());
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the run carries no records.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// LSN of the last record ([`Lsn::ZERO`]-adjacent nonsense for an empty
    /// run; callers drop empties before asking).
    pub fn last(&self) -> Lsn {
        Lsn(self.first.0 + self.ends.len() as u64 - 1)
    }

    /// The records in LSN order, each read in place.
    pub fn iter(&self) -> impl Iterator<Item = (Lsn, RecordView<'_>)> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        (self.first.0..)
            .zip(starts.zip(&self.ends))
            .map(|(lsn, (start, &end))| (Lsn(lsn), RecordView(&self.bodies[start..end])))
    }

    /// Drops the records at or below `lsn`.
    fn skip_through(&mut self, lsn: Lsn) {
        let n = (lsn.0 + 1).saturating_sub(self.first.0) as usize;
        if n == 0 {
            return;
        }
        let cut = self.ends[n - 1];
        self.bodies.drain(..cut);
        self.ends.drain(..n);
        self.ends.iter_mut().for_each(|end| *end -= cut);
        self.first = Lsn(self.first.0 + n as u64);
    }
}

/// The dense monotonic apply-LSN gate guarding a stream's receiver.
///
/// Feed every received [`ShipBatch`] to [`ApplyLsnGate::admit`]; apply —
/// in order — exactly the runs it returns. The gate owns duplicate
/// suppression, overlap trimming, and reorder buffering, which is what
/// makes the applier behind it idempotent by construction. A default gate
/// has applied nothing: the next expected LSN is 1.
#[derive(Debug, Default)]
pub struct ApplyLsnGate {
    applied: Lsn,
    /// Out-of-order batches parked until the gap before them fills, keyed
    /// by first LSN. On key collision the longer batch wins.
    parked: BTreeMap<u64, ShipBatch>,
}

impl ApplyLsnGate {
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

    /// Admits one received batch and yields the runs now ready to apply:
    /// dense, in LSN order, the first starting at `applied + 1`. The applied
    /// LSN moves as each run is taken. Duplicates yield nothing; an
    /// out-of-order batch parks and yields nothing until the gap before it
    /// fills.
    pub fn admit(&mut self, batch: ShipBatch) -> impl Iterator<Item = ShipBatch> + '_ {
        let mut next = Some(batch);
        std::iter::from_fn(move || loop {
            let mut batch = match next.take() {
                Some(batch) => batch,
                None => self.unpark()?,
            };
            if batch.is_empty() || batch.last() <= self.applied {
                continue; // nothing new in it
            }
            if batch.first.0 > self.applied.0 + 1 {
                // Gap before it: park, preferring the longer batch on collision.
                let slot = self.parked.entry(batch.first.0).or_default();
                if batch.len() > slot.len() {
                    *slot = batch;
                }
                continue;
            }
            // Overlaps or abuts the applied prefix: trim what we already have.
            batch.skip_through(self.applied);
            self.applied = batch.last();
            return Some(batch);
        })
    }

    /// The lowest-keyed parked batch if the applied prefix reaches it: all
    /// others start even further beyond it.
    fn unpark(&mut self) -> Option<ShipBatch> {
        let lowest = self.parked.first_entry()?;
        (*lowest.key() <= self.applied.0 + 1).then(|| lowest.remove())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_record_vec;
    use crate::record::{LogOp, LogRecord};
    use remus_common::{NodeId, Timestamp, TxnId};

    /// A batch of `n` marker records starting at LSN `first`; the record at
    /// LSN `l` carries commit timestamp `l` so tests can check identity.
    fn batch(first: u64, n: u64) -> ShipBatch {
        let mut batch = ShipBatch {
            first: Lsn(first),
            ..ShipBatch::default()
        };
        for lsn in first..first + n {
            let record = LogRecord::new(TxnId::new(NodeId(0), lsn), LogOp::Commit(Timestamp(lsn)));
            batch.push(&encode_record_vec(&record));
        }
        batch
    }

    /// The LSNs `gate` releases for `batch`, each checked against its
    /// payload (no record applied under the wrong LSN after trimming).
    fn admit(gate: &mut ApplyLsnGate, batch: ShipBatch) -> Vec<u64> {
        let mut lsns = Vec::new();
        for run in gate.admit(batch) {
            for (lsn, view) in run.iter() {
                let record = view.decode().unwrap();
                assert_eq!(
                    record.op,
                    LogOp::Commit(Timestamp(lsn.0)),
                    "record misaligned"
                );
                lsns.push(lsn.0);
            }
        }
        lsns
    }

    #[test]
    fn in_order_batches_flow_straight_through() {
        let mut gate = ApplyLsnGate::default();
        assert_eq!(admit(&mut gate, batch(1, 3)), vec![1, 2, 3]);
        assert_eq!(admit(&mut gate, batch(4, 2)), vec![4, 5]);
        assert_eq!(gate.applied(), Lsn(5));
        assert_eq!(gate.parked.len(), 0);
    }

    #[test]
    fn duplicate_batch_is_dropped() {
        let mut gate = ApplyLsnGate::default();
        admit(&mut gate, batch(1, 4));
        assert!(admit(&mut gate, batch(1, 4)).is_empty());
        assert!(admit(&mut gate, batch(2, 2)).is_empty());
        assert_eq!(gate.applied(), Lsn(4));
    }

    #[test]
    fn overlapping_batch_is_trimmed_to_the_new_suffix() {
        let mut gate = ApplyLsnGate::default();
        admit(&mut gate, batch(1, 4));
        // 3..=7; 3,4 already applied
        assert_eq!(admit(&mut gate, batch(3, 5)), vec![5, 6, 7]);
    }

    #[test]
    fn out_of_order_batch_parks_until_the_gap_fills() {
        let mut gate = ApplyLsnGate::default();
        assert!(admit(&mut gate, batch(4, 2)).is_empty());
        assert_eq!(gate.parked.len(), 1);
        assert_eq!(admit(&mut gate, batch(1, 3)), vec![1, 2, 3, 4, 5]);
        assert_eq!(gate.parked.len(), 0);
    }

    #[test]
    fn chained_parked_batches_drain_together() {
        let mut gate = ApplyLsnGate::default();
        assert!(admit(&mut gate, batch(6, 2)).is_empty());
        assert!(admit(&mut gate, batch(3, 3)).is_empty());
        assert_eq!(gate.parked.len(), 2);
        assert_eq!(admit(&mut gate, batch(1, 2)), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn parked_collision_keeps_the_longer_batch() {
        let mut gate = ApplyLsnGate::default();
        assert!(admit(&mut gate, batch(3, 1)).is_empty());
        assert!(admit(&mut gate, batch(3, 4)).is_empty());
        assert_eq!(gate.parked.len(), 1);
        assert_eq!(admit(&mut gate, batch(1, 2)), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn starting_after_skips_the_backfilled_prefix() {
        let mut gate = ApplyLsnGate::starting_after(Lsn(10));
        assert!(
            admit(&mut gate, batch(5, 4)).is_empty(),
            "wholly below the cut"
        );
        // 8..=13: 8,9,10 below the cut
        assert_eq!(admit(&mut gate, batch(8, 6)), vec![11, 12, 13]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut gate = ApplyLsnGate::default();
        let empty = ShipBatch {
            first: Lsn(9),
            ..ShipBatch::default()
        };
        assert!(admit(&mut gate, empty).is_empty());
        assert_eq!(gate.applied(), Lsn::ZERO);
    }
}
