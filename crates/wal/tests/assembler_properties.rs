//! Property tests for [`TxnAssembler`], the one place a log's `Begin / Write
//! / Prepare / resolution` records are folded into per-transaction buffers.
//! No cluster: a generated log is a set of valid per-transaction record
//! sequences, interleaved preserving each transaction's order, read from a
//! random cut. The model is the definition — "the transaction's records
//! after the cut" — computed per transaction straight from the log.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use remus_common::{NodeId, ShardId, Timestamp, TxnId};
use remus_storage::Value;
use remus_wal::{
    ApplyLsnGate, LogOp, LogRecord, Lsn, ShipBatch, TxnAssembler, TxnBuffer, TxnEvent, TxnOutcome,
    WriteKind, WriteOp,
};

/// One generated transaction: its writes as `(shard, key)`, whether it
/// prepares, and how it ends (0 = the log ends first, 1 = commit, 2 = abort,
/// in the flavour matching the prepare).
type TxnSpec = (Vec<(u64, u64)>, bool, u8);

fn txn_spec() -> impl Strategy<Value = TxnSpec> {
    (
        proptest::collection::vec((0u64..3, 0u64..8), 0..7),
        (0u8..2).prop_map(|p| p == 1),
        0u8..3,
    )
}

fn xid(i: usize) -> TxnId {
    TxnId::new(NodeId(0), 100 + i as u64)
}

/// The start timestamp transaction `i` logs; commit timestamps are the
/// resolution's LSN, so every one is distinct and valid.
fn start_ts(i: usize) -> Timestamp {
    Timestamp(1000 + i as u64)
}

fn records_of(i: usize, (writes, prepare, ending): &TxnSpec) -> Vec<LogOp> {
    let mut ops = vec![LogOp::Begin(start_ts(i))];
    ops.extend(writes.iter().map(|&(shard, key)| {
        LogOp::Write(WriteOp {
            shard: ShardId(shard),
            key,
            kind: WriteKind::Update,
            value: Value::copy_from_slice(format!("t{i}").as_bytes()),
        })
    }));
    if *prepare {
        ops.push(LogOp::Prepare);
    }
    match (*ending, *prepare) {
        (1, false) => ops.push(LogOp::Commit(Timestamp::INVALID)),
        (1, true) => ops.push(LogOp::CommitPrepared(Timestamp::INVALID)),
        (2, false) => ops.push(LogOp::Abort),
        (2, true) => ops.push(LogOp::RollbackPrepared),
        _ => {}
    }
    ops
}

/// Interleaves the transactions' record sequences by `picks`, preserving
/// each one's order; record `n` (0-based) has LSN `n + 1`, and a commit
/// record's timestamp is its LSN.
fn interleave(specs: &[TxnSpec], picks: &[usize]) -> Vec<Arc<LogRecord>> {
    let mut pending: Vec<(usize, std::vec::IntoIter<LogOp>)> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| (i, records_of(i, spec).into_iter()))
        .collect();
    let mut log = Vec::new();
    for pick in picks.iter().cycle() {
        if pending.is_empty() {
            break;
        }
        let slot = pick % pending.len();
        let (i, ops) = &mut pending[slot];
        match ops.next() {
            Some(op) => {
                let cts = Timestamp(log.len() as u64 + 1);
                let op = match op {
                    LogOp::Commit(_) => LogOp::Commit(cts),
                    LogOp::CommitPrepared(_) => LogOp::CommitPrepared(cts),
                    other => other,
                };
                log.push(Arc::new(LogRecord::new(xid(*i), op)));
            }
            None => {
                pending.remove(slot);
            }
        }
    }
    log
}

/// The predicate under test: shard 2 is "not migrating".
fn keep(w: &WriteOp) -> bool {
    w.shard != ShardId(2)
}

/// What the assembler must have for each transaction once the log from
/// `cut + 1` on was fed: `(buffer, resolution)`, by definition.
fn model(
    log: &[Arc<LogRecord>],
    cut: usize,
) -> BTreeMap<TxnId, (TxnBuffer, Option<(Lsn, TxnOutcome)>)> {
    let mut txns: BTreeMap<TxnId, (TxnBuffer, Option<(Lsn, TxnOutcome)>)> = BTreeMap::new();
    for (n, record) in log.iter().enumerate().skip(cut) {
        let lsn = Lsn(n as u64 + 1);
        if matches!(&record.op, LogOp::Write(w) if !keep(w)) && !txns.contains_key(&record.xid) {
            // Dropped before the assembler knew the transaction: no trace.
            continue;
        }
        let (txn, resolution) = txns.entry(record.xid).or_insert_with(|| {
            let headless = TxnBuffer {
                xid: record.xid,
                start_ts: Timestamp::INVALID,
                begin_lsn: None,
                prepared: false,
                writes: Vec::new(),
            };
            (headless, None)
        });
        match &record.op {
            LogOp::Begin(ts) => (txn.start_ts, txn.begin_lsn) = (*ts, Some(lsn)),
            LogOp::Write(w) if keep(w) => txn.writes.push(w.clone()),
            LogOp::Write(_) => {}
            LogOp::Prepare => txn.prepared = true,
            LogOp::Commit(cts) | LogOp::CommitPrepared(cts) => {
                *resolution = Some((lsn, TxnOutcome::Committed(*cts)))
            }
            LogOp::Abort | LogOp::RollbackPrepared => {
                *resolution = Some((lsn, TxnOutcome::Aborted))
            }
        }
    }
    txns
}

/// An owned copy of what `feed` answered, comparable across runs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Nothing,
    Kept(TxnBuffer),
    Prepared(TxnBuffer),
    Resolved(TxnBuffer, Lsn, TxnOutcome),
}

fn seen(event: TxnEvent<'_>) -> Seen {
    match event {
        TxnEvent::Nothing => Seen::Nothing,
        TxnEvent::Kept(txn) => Seen::Kept(txn.clone()),
        TxnEvent::Prepared(txn) => Seen::Prepared(txn.clone()),
        TxnEvent::Resolved {
            txn,
            resolution_lsn,
            outcome,
        } => Seen::Resolved(txn, resolution_lsn, outcome),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Events, frontier and leftovers against the model, record by record.
    #[test]
    fn assembles_exactly_the_records_after_the_cut(
        specs in proptest::collection::vec(txn_spec(), 1..13),
        picks in proptest::collection::vec(0usize..1000, 16..17),
        cut in 0usize..120,
    ) {
        let log = interleave(&specs, &picks);
        let cut = cut % (log.len() + 1);
        let want = model(&log, cut);
        let begin_of = |xid: &TxnId| want.get(xid).and_then(|(t, _)| t.begin_lsn);

        let mut assembler = TxnAssembler::new(Lsn(cut as u64), keep);
        prop_assert_eq!(assembler.frontier(), Lsn(cut as u64));
        let mut open_heads: BTreeMap<TxnId, Lsn> = BTreeMap::new();
        let mut frontier = assembler.frontier();
        let mut last_resolution = Lsn::ZERO;
        let mut resolved = 0;
        for (n, record) in log.iter().enumerate().skip(cut) {
            let lsn = Lsn(n as u64 + 1);
            match seen(assembler.feed(lsn, record)) {
                Seen::Nothing => {
                    let dropped = matches!(&record.op, LogOp::Write(w) if !keep(w));
                    prop_assert!(dropped || matches!(record.op, LogOp::Begin(_)));
                    if let LogOp::Begin(_) = record.op {
                        open_heads.insert(record.xid, lsn);
                    }
                }
                Seen::Kept(txn) => {
                    let LogOp::Write(w) = &record.op else { panic!("Kept at {:?}", record.op) };
                    prop_assert!(keep(w));
                    prop_assert_eq!(txn.writes.last(), Some(w));
                    prop_assert_eq!(txn.begin_lsn, begin_of(&record.xid));
                }
                Seen::Prepared(txn) => {
                    prop_assert_eq!(&record.op, &LogOp::Prepare);
                    prop_assert!(txn.prepared);
                    prop_assert_eq!(txn.begin_lsn, begin_of(&record.xid));
                }
                Seen::Resolved(txn, resolution_lsn, outcome) => {
                    // Exactly the kept writes after the cut, in log order,
                    // with the logged outcome, start timestamp, prepared
                    // flag and positions — `begin_lsn` is `None` exactly when
                    // the cut fell after the `Begin`.
                    let (want_txn, want_resolution) = &want[&record.xid];
                    prop_assert_eq!(&txn, want_txn);
                    prop_assert_eq!(Some((resolution_lsn, outcome)), *want_resolution);
                    prop_assert_eq!(resolution_lsn, lsn);
                    prop_assert!(resolution_lsn > last_resolution, "resolution-LSN order");
                    last_resolution = resolution_lsn;
                    open_heads.remove(&record.xid);
                    resolved += 1;
                }
            }
            // The frontier never decreases, never reaches an open
            // transaction's `Begin`, and is the last fed LSN when no
            // transaction with a `Begin` is open.
            let now = assembler.frontier();
            prop_assert!(now >= frontier);
            frontier = now;
            match open_heads.values().min() {
                Some(begin) => prop_assert_eq!(now, Lsn(begin.0 - 1)),
                None => prop_assert_eq!(now, lsn),
            }
            prop_assert_eq!(assembler.open_headed(), open_heads.len());
        }
        prop_assert_eq!(resolved, want.values().filter(|(_, r)| r.is_some()).count());
        // What is left is exactly the unresolved transactions, by xid.
        let open: Vec<TxnBuffer> = want
            .into_values()
            .filter(|(_, resolution)| resolution.is_none())
            .map(|(txn, _)| txn)
            .collect();
        prop_assert_eq!(assembler.into_open(), open);
    }

    /// The same log cut into duplicated / reordered / overlapping batches
    /// and passed through the apply-LSN gate yields the identical events.
    #[test]
    fn a_sloppy_transport_behind_the_gate_changes_nothing(
        specs in proptest::collection::vec(txn_spec(), 1..13),
        picks in proptest::collection::vec(0usize..1000, 16..17),
        cut in 0usize..120,
        segments in proptest::collection::vec((1usize..9, 0usize..4, 0u8..4), 1..12),
    ) {
        let log = interleave(&specs, &picks);
        let cut = cut % (log.len() + 1);
        let mut direct = TxnAssembler::new(Lsn(cut as u64), keep);
        let in_order: Vec<Seen> = log
            .iter()
            .enumerate()
            .skip(cut)
            .map(|(n, record)| seen(direct.feed(Lsn(n as u64 + 1), record)))
            .collect();

        // Segment the tail; per segment: 0 = send, 1 = send twice, 2 = hold
        // back behind the next one, 3 = resend with `back` earlier frames.
        let batch = |from: usize, to: usize| ShipBatch::new(Lsn(from as u64 + 1), log[from..to].to_vec());
        let mut batches = Vec::new();
        let mut held = None;
        let (mut at, mut i) = (cut, 0);
        while at < log.len() {
            let (len, back, action) = segments[i % segments.len()];
            let end = (at + len).min(log.len());
            match action {
                1 => batches.extend([batch(at, end), batch(at, end)]),
                2 => batches.extend(held.replace(batch(at, end))),
                3 => batches.push(batch(at.saturating_sub(back), end)),
                _ => batches.push(batch(at, end)),
            }
            if action != 2 {
                batches.extend(held.take());
            }
            (at, i) = (end, i + 1);
        }
        batches.extend(held.take());

        let mut gate = ApplyLsnGate::starting_after(Lsn(cut as u64));
        let mut gated = TxnAssembler::new(Lsn(cut as u64), keep);
        let mut through_gate = Vec::new();
        for b in batches {
            for (lsn, record) in gate.admit(b) {
                through_gate.push(seen(gated.feed(lsn, &record)));
            }
        }
        prop_assert_eq!(gate.applied(), Lsn(log.len() as u64));
        prop_assert_eq!(through_gate, in_order);
        prop_assert_eq!(gated.frontier(), direct.frontier());
        prop_assert_eq!(gated.into_open(), direct.into_open());
    }
}
