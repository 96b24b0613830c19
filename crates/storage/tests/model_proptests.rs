//! Property tests: the MVCC table agrees with a naive model at every
//! snapshot — by point read and by scan, for any stripe count — vacuum never
//! changes what live snapshots can see, and write-driven GC leaves exactly
//! what a sweep of every chain would. They name nothing of `remus_storage`
//! but `VersionedTable`'s public methods, `Clog` and plain data types, so a
//! new chain layout runs them unedited.

use std::collections::BTreeMap;
use std::ops::{Range, RangeBounds};
use std::time::Duration;

use proptest::prelude::*;
use remus_common::{NodeId, Timestamp, TxnId};
use remus_storage::{Clog, TupleVersion, TxnStatus, Value, VersionedTable};

const T: Duration = Duration::from_secs(1);

#[derive(Debug, Clone)]
enum ModelOp {
    Insert(u8, u8),
    Update(u8, u8),
    Delete(u8),
    Abort(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = ModelOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| ModelOp::Insert(k % 24, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| ModelOp::Update(k % 24, v)),
        any::<u8>().prop_map(|k| ModelOp::Delete(k % 24)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| ModelOp::Abort(k % 24, v)),
    ]
}

/// Key → (value, commit timestamp of the version holding it).
type Model = BTreeMap<u64, (u8, u64)>;

fn expected(state: &Model, range: impl RangeBounds<u64>) -> Vec<(u64, u8, Timestamp)> {
    let rows = state.range(range);
    rows.map(|(k, (v, cts))| (*k, *v, Timestamp(*cts)))
        .collect()
}

/// What `xid` sees of `range` at `ts` by point reads, with the commit
/// timestamp of each version read — after checking that one scan of the
/// same range sees the same.
fn view(
    table: &VersionedTable,
    clog: &Clog,
    range: impl RangeBounds<u64> + Clone,
    ts: Timestamp,
    xid: TxnId,
) -> Vec<(u64, u8, Timestamp)> {
    let mut rows = Vec::new();
    for k in (0..24u64).filter(|k| range.contains(k)) {
        let hit = table.read_versioned(k, ts, xid, clog, T).unwrap();
        let value = table.read(k, ts, xid, clog, T).unwrap();
        assert_eq!(hit.as_ref().map(|(v, _)| v), value.as_ref(), "key {k}");
        rows.extend(hit.map(|(v, cts)| (k, v[0], cts)));
    }
    let mut scanned = Vec::new();
    table
        .scan(range, ts, xid, clog, T, |k, v| scanned.push((k, v[0])))
        .unwrap();
    let read: Vec<_> = rows.iter().map(|&(k, v, _)| (k, v)).collect();
    assert_eq!(scanned, read, "scan ≢ point reads at {ts:?} as {xid:?}");
    rows
}

/// Applies a serial history to a table of `stripes` stripes, checking inside
/// every open writer that it sees its own write and nobody else does, and
/// records the model state after each commit timestamp; then checks point
/// reads and scans — of everything and of `sub` — at *every* historical
/// snapshot.
fn check_history(ops: Vec<ModelOp>, stripes: usize, sub: Range<u64>) {
    let table = VersionedTable::with_stripes(stripes);
    let clog = Clog::new();
    let mut model = Model::new();
    // (snapshot_ts, model state at that snapshot)
    let mut snapshots: Vec<(u64, Model)> = vec![(1, model.clone())];
    let reader = TxnId::new(NodeId(1), 1);
    let mut ts = 10u64;
    for (i, op) in ops.iter().enumerate() {
        let xid = TxnId::new(NodeId(0), i as u64 + 1);
        clog.begin(xid);
        let start = Timestamp(ts);
        ts += 10;
        let value = |v: u8| Value::from(vec![v]);
        // The key and the image the open writer left on it, if it wrote.
        let (key, wrote) = match *op {
            ModelOp::Insert(k, v) => {
                let done = table.insert(k as u64, value(v), xid, start, &clog, T);
                (k as u64, done.is_ok().then_some(Some(v)))
            }
            ModelOp::Update(k, v) => {
                let done = table.update(k as u64, value(v), xid, start, &clog, T);
                (k as u64, done.is_ok().then_some(Some(v)))
            }
            ModelOp::Delete(k) => {
                let done = table.delete(k as u64, xid, start, &clog, T);
                (k as u64, done.is_ok().then_some(None))
            }
            ModelOp::Abort(k, v) => {
                // Write then roll back: must leave no trace. One of the two
                // statements always succeeds.
                let _ = table.insert(k as u64, value(v), xid, start, &clog, T);
                let _ = table.update(k as u64, value(v), xid, start, &clog, T);
                (k as u64, Some(Some(v)))
            }
        };
        // Inside the open writer: it sees the committed state under its own
        // write (an uncommitted version reports no commit timestamp), and
        // any other transaction sees the committed state alone.
        let mut own = model.clone();
        if let Some(image) = wrote {
            own.remove(&key);
            own.extend(image.map(|v| (key, (v, Timestamp::INVALID.0))));
        }
        assert_eq!(view(&table, &clog, .., start, xid), expected(&own, ..));
        assert_eq!(view(&table, &clog, .., start, reader), expected(&model, ..));
        if wrote.is_some() && !matches!(op, ModelOp::Abort(..)) {
            clog.set_committed(xid, Timestamp(ts)).unwrap();
            if let Some(row) = own.get_mut(&key) {
                row.1 = ts;
            }
            model = own;
        } else {
            clog.set_aborted(xid);
            table.purge_txn([key], xid);
        }
        snapshots.push((ts, model.clone()));
        ts += 10;
    }
    // Every historical snapshot must read exactly its model state.
    for (snap_ts, state) in &snapshots {
        let at = Timestamp(*snap_ts);
        assert_eq!(view(&table, &clog, .., at, reader), expected(state, ..));
        assert_eq!(
            view(&table, &clog, sub.clone(), at, reader),
            expected(state, sub.clone())
        );
    }
    // Vacuum to a mid-history horizon: snapshots at or after it unchanged.
    let mid = snapshots[snapshots.len() / 2].0;
    table.vacuum(Timestamp(mid), &clog);
    for (snap_ts, state) in snapshots.iter().filter(|(t, _)| *t >= mid) {
        let at = Timestamp(*snap_ts);
        assert_eq!(view(&table, &clog, .., at, reader), expected(state, ..));
    }
}

/// One step of a GC history: a write transaction (optionally with a GC step
/// while it is still open), a snapshot pinned or released, or a GC step.
#[derive(Debug, Clone)]
enum GcOp {
    Txn { op: ModelOp, gc_while_open: bool },
    Pin,
    Unpin(u8),
    Step(u8),
}

fn gc_op_strategy() -> impl Strategy<Value = GcOp> {
    prop_oneof![
        6 => (op_strategy(), any::<u8>())
            .prop_map(|(op, g)| GcOp::Txn { op, gc_while_open: g % 4 == 0 }),
        1 => any::<u8>().prop_map(|_| GcOp::Pin),
        1 => any::<u8>().prop_map(GcOp::Unpin),
        2 => any::<u8>().prop_map(|b| GcOp::Step(b % 8)),
    ]
}

/// The pruning rule, restated over a chain read through the public API
/// (newest first): what a sweep at `horizon` leaves of it. Empty = key gone.
fn sweep_reference(chain: Vec<TupleVersion>, horizon: Timestamp, clog: &Clog) -> Vec<TupleVersion> {
    let mut below_anchor = false;
    chain
        .into_iter()
        .filter(|v| match clog.status(v.xmin) {
            TxnStatus::Aborted => false,
            // The newest of these is the anchor: kept unless a tombstone.
            TxnStatus::Committed(cts) if cts <= horizon => {
                !std::mem::replace(&mut below_anchor, true) && !v.deleted
            }
            _ => true,
        })
        .collect()
}

/// Builds a table holding exactly `chains` (each newest first), through
/// writes under the versions' own, already resolved, xids.
fn table_of(chains: &BTreeMap<u64, Vec<TupleVersion>>, clog: &Clog) -> VersionedTable {
    let table = VersionedTable::new();
    for (&key, chain) in chains {
        let mut below_live = false;
        for v in chain.iter().rev() {
            let (x, at) = (v.xmin, Timestamp::MAX);
            if !v.deleted {
                let write = if below_live {
                    VersionedTable::update
                } else {
                    VersionedTable::insert
                };
                write(&table, key, v.value.clone(), x, at, clog, T).unwrap();
            } else {
                if !below_live {
                    // A tombstone at the bottom of a chain: the insert it
                    // deletes is its own.
                    table.insert(key, Value::new(), x, at, clog, T).unwrap();
                }
                table.delete(key, x, at, clog, T).unwrap();
            }
            below_live = !v.deleted;
        }
    }
    table
}

fn shape(v: &TupleVersion) -> (TxnId, bool, Value) {
    (v.xmin, v.deleted, v.value.clone())
}

/// Drains `table` at `watermark` in small steps, then checks it against a
/// sweep of every chain of `unpruned` (the same history, never collected).
fn assert_drained_equals_sweep(
    table: &VersionedTable,
    unpruned: &VersionedTable,
    watermark: Timestamp,
    clog: &Clog,
) {
    let mut steps = 0;
    while table.gc_step(watermark, clog, 5).scanned > 0 {
        steps += 1;
        assert!(steps < 1_000, "GC never reaches quiescence");
    }
    let expected: BTreeMap<u64, Vec<TupleVersion>> = (0..24u64)
        .map(|k| {
            (
                k,
                sweep_reference(unpruned.chain_snapshot(k), watermark, clog),
            )
        })
        .filter(|(_, chain)| !chain.is_empty())
        .collect();
    for k in 0..24u64 {
        let got: Vec<_> = table.chain_snapshot(k).iter().map(shape).collect();
        let want: Vec<_> = expected.get(&k).into_iter().flatten().map(shape).collect();
        assert_eq!(got, want, "key {k} at watermark {watermark:?}");
    }
    let reference = table_of(&expected, clog);
    assert_eq!(table.stats(), reference.stats());
    assert_eq!(
        table.committed_state_digest(clog),
        reference.committed_state_digest(clog)
    );
}

/// Write-driven GC ≡ full sweep: on a random history of writes, aborts,
/// pins and budgeted GC steps, every pinned snapshot keeps reading its
/// model state, and draining to quiescence leaves exactly the versions a
/// sweep over every chain leaves — under the pins, and after their release.
fn check_gc_history(ops: Vec<GcOp>) {
    let (collected, unpruned) = (VersionedTable::with_stripes(3), VersionedTable::new());
    let clog = Clog::new();
    let mut model: BTreeMap<u64, u8> = BTreeMap::new();
    let mut pins: Vec<(u64, BTreeMap<u64, u8>)> = Vec::new();
    let mut ts = 10u64;
    let watermark = |pins: &[(u64, BTreeMap<u64, u8>)], now: u64| {
        Timestamp(pins.iter().map(|(t, _)| *t).min().unwrap_or(now))
    };
    let reader = TxnId::new(NodeId(1), 1);
    for (i, op) in ops.iter().enumerate() {
        match op {
            GcOp::Pin => pins.push((ts, model.clone())),
            GcOp::Unpin(n) if !pins.is_empty() => {
                pins.remove(*n as usize % pins.len());
            }
            GcOp::Unpin(_) => {}
            GcOp::Step(budget) => {
                collected.gc_step(watermark(&pins, ts), &clog, *budget as usize);
            }
            GcOp::Txn { op, gc_while_open } => {
                let xid = TxnId::new(NodeId(0), i as u64 + 1);
                clog.begin(xid);
                let start = Timestamp(ts);
                let value = |v: u8| Value::from(vec![v]);
                // The same statement against both tables; GC must not
                // change its outcome.
                let both = |f: &dyn Fn(&VersionedTable) -> bool| {
                    let (a, b) = (f(&collected), f(&unpruned));
                    assert_eq!(a, b, "GC changed the outcome of {op:?}");
                    a
                };
                let (key, commit) = match *op {
                    ModelOp::Insert(k, v) => (
                        k,
                        both(&|t| t.insert(k as u64, value(v), xid, start, &clog, T).is_ok())
                            .then(|| model.insert(k as u64, v)),
                    ),
                    ModelOp::Update(k, v) => (
                        k,
                        both(&|t| t.update(k as u64, value(v), xid, start, &clog, T).is_ok())
                            .then(|| model.insert(k as u64, v)),
                    ),
                    ModelOp::Delete(k) => (
                        k,
                        both(&|t| t.delete(k as u64, xid, start, &clog, T).is_ok())
                            .then(|| model.remove(&(k as u64))),
                    ),
                    ModelOp::Abort(k, v) => {
                        both(&|t| t.insert(k as u64, value(v), xid, start, &clog, T).is_ok());
                        both(&|t| t.update(k as u64, value(v), xid, start, &clog, T).is_ok());
                        (k, None)
                    }
                };
                if *gc_while_open {
                    collected.gc_step(watermark(&pins, ts), &clog, 4);
                }
                ts += 10;
                if commit.is_some() {
                    clog.set_committed(xid, Timestamp(ts)).unwrap();
                } else {
                    clog.set_aborted(xid);
                    collected.purge_txn([key as u64], xid);
                    unpruned.purge_txn([key as u64], xid);
                }
                ts += 10;
            }
        }
        for (pin_ts, state) in &pins {
            for k in 0..24u64 {
                let got = collected
                    .read(k, Timestamp(*pin_ts), reader, &clog, T)
                    .unwrap()
                    .map(|v| v[0]);
                assert_eq!(got, state.get(&k).copied(), "key {k} pinned at {pin_ts}");
            }
        }
    }
    assert_drained_equals_sweep(&collected, &unpruned, watermark(&pins, ts), &clog);
    assert_drained_equals_sweep(&collected, &unpruned, Timestamp(ts), &clog);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn serial_history_matches_model_at_every_snapshot(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        stripes in prop_oneof![Just(1usize), Just(3), Just(8)],
        sub in (0..=24u64, 0..=24u64),
    ) {
        check_history(ops, stripes, sub.0.min(sub.1)..sub.0.max(sub.1));
    }

    #[test]
    fn write_driven_gc_leaves_what_a_full_sweep_leaves(
        ops in proptest::collection::vec(gc_op_strategy(), 1..120)
    ) {
        check_gc_history(ops);
    }
}

#[test]
fn long_update_chain_every_version_reachable_then_vacuumed() {
    let table = VersionedTable::new();
    let clog = Clog::new();
    let mut xseq = 1u64;
    let mut committed = Vec::new();
    {
        let xid = TxnId::new(NodeId(0), xseq);
        clog.begin(xid);
        table
            .insert(5, Value::from(vec![0]), xid, Timestamp(1), &clog, T)
            .unwrap();
        clog.set_committed(xid, Timestamp(2)).unwrap();
        committed.push((2u64, 0u8));
    }
    for v in 1..=60u8 {
        xseq += 1;
        let xid = TxnId::new(NodeId(0), xseq);
        clog.begin(xid);
        let ts = 2 + v as u64 * 2;
        table
            .update(5, Value::from(vec![v]), xid, Timestamp(ts - 1), &clog, T)
            .unwrap();
        clog.set_committed(xid, Timestamp(ts)).unwrap();
        committed.push((ts, v));
    }
    assert_eq!(table.stats().max_chain, 61);
    let reader = TxnId::new(NodeId(1), 1);
    for &(ts, v) in &committed {
        let got = table
            .read(5, Timestamp(ts), reader, &clog, T)
            .unwrap()
            .unwrap();
        assert_eq!(got[0], v);
    }
    // Vacuum to the latest horizon: one version left, latest still reads.
    let last = committed.last().unwrap().0;
    table.vacuum(Timestamp(last), &clog);
    assert_eq!(table.stats().max_chain, 1);
    let got = table
        .read(5, Timestamp(last), reader, &clog, T)
        .unwrap()
        .unwrap();
    assert_eq!(got[0], 60);
}
