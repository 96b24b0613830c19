//! Property tests for wal-apply idempotence: a replica fed duplicated,
//! reordered, and overlapping ship batches converges to byte-exactly the
//! same committed state as a replica fed the same WAL in order — and both
//! equal the primary itself ([`remus_storage::Table::committed_state_digest`]
//! compares committed `(key, cts, deleted, value)` sets, independent of
//! version-chain layout). The same property with a second stream: a replica
//! applies one stream per primary, so a migrated shard's commits reach it
//! over two, and the state must not depend on which stream runs ahead.

use std::sync::Arc;

use proptest::prelude::*;
use remus_cluster::{Cluster, ClusterBuilder, Session};
use remus_common::{NodeId, ShardId, SimConfig, TableId, Timestamp, TxnId};
use remus_core::StreamApplier;
use remus_shard::TableLayout;
use remus_storage::{Value, WriteKind};
use remus_wal::{encode_record_vec, LogOp, LogRecord, Lsn, ShipBatch, WriteOp};

const PRIMARY: NodeId = NodeId(0);
const IN_ORDER: NodeId = NodeId(1);
const MANGLED: NodeId = NodeId(2);

fn val(txn: usize, key: u64) -> Value {
    Value::copy_from_slice(format!("t{txn}-k{key}").as_bytes())
}

/// Runs `txns` (each a list of `(key, action)` ops) against the primary.
/// Action: 0 = upsert, 1 = delete-if-present (else upsert), 2 = abort the
/// transaction after its writes.
fn run_workload(cluster: &Arc<Cluster>, layout: &TableLayout, txns: &[Vec<(u64, u8)>]) {
    let session = Session::connect(cluster, PRIMARY);
    let mut present: std::collections::HashSet<u64> = std::collections::HashSet::new();
    for (i, ops) in txns.iter().enumerate() {
        let mut txn = session.begin();
        let mut staged = present.clone();
        let mut ok = true;
        let mut abort = false;
        for &(key, action) in ops {
            let r = match action {
                1 if staged.contains(&key) => {
                    staged.remove(&key);
                    txn.delete(layout, key)
                }
                _ => {
                    let r = if staged.contains(&key) {
                        txn.update(layout, key, val(i, key))
                    } else {
                        txn.insert(layout, key, val(i, key))
                    };
                    staged.insert(key);
                    r
                }
            };
            if r.is_err() {
                ok = false;
                break;
            }
            abort = action == 2;
        }
        if ok && !abort && txn.commit().is_ok() {
            present = staged;
        }
        // Otherwise the txn drops here: an Abort record on the WAL.
    }
}

/// Collects the primary's whole WAL, record `i` at LSN `i + 1`.
fn full_log(cluster: &Arc<Cluster>) -> Vec<LogRecord> {
    let mut reader = cluster.node(PRIMARY).storage.wal.reader_from(Lsn::ZERO);
    let mut records = Vec::new();
    while let Some((_, r)) = reader.try_next() {
        records.push(r);
    }
    records
}

/// `records` encoded as one run whose first record has LSN `first`.
fn run_of(first: Lsn, records: &[LogRecord]) -> ShipBatch {
    let mut run = ShipBatch::default();
    run.first = first;
    for record in records {
        run.push(&encode_record_vec(record));
    }
    run
}

/// Splits the log into batches by `cuts` (cycled segment lengths), then
/// mangles delivery per segment action: 0 = send, 1 = duplicate, 2 = defer
/// behind the next batch (reorder), 3 = overlap (resend with the previous
/// segment's tail prefixed).
fn mangled_batches(log: &[LogRecord], cuts: &[u64], actions: &[u8]) -> Vec<ShipBatch> {
    let mut segments = Vec::new();
    let mut start = 0usize;
    let mut ci = 0usize;
    while start < log.len() {
        let len = if cuts.is_empty() {
            7
        } else {
            cuts[ci % cuts.len()] as usize
        }
        .max(1)
        .min(log.len() - start);
        segments.push(run_of(Lsn(start as u64 + 1), &log[start..start + len]));
        start += len;
        ci += 1;
    }
    let mut out: Vec<ShipBatch> = Vec::new();
    let mut held: Option<ShipBatch> = None;
    for (i, seg) in segments.iter().enumerate() {
        let action = if actions.is_empty() {
            0
        } else {
            actions[i % actions.len()]
        };
        match action {
            1 => {
                out.push(seg.clone());
                out.push(seg.clone());
            }
            2 => {
                if let Some(prev) = held.replace(seg.clone()) {
                    out.push(prev);
                }
                continue;
            }
            3 => {
                // Overlap: include the tail of the previous segment again.
                let lead = (seg.first.0 - 1) as usize;
                let prev_tail = segments[i.saturating_sub(1)].len().min(3).min(lead);
                let first = Lsn(seg.first.0 - prev_tail as u64);
                out.push(run_of(first, &log[lead - prev_tail..lead + seg.len()]));
            }
            _ => out.push(seg.clone()),
        }
        if let Some(prev) = held.take() {
            out.push(prev);
        }
    }
    if let Some(prev) = held.take() {
        out.push(prev);
    }
    out
}

fn digest_of(cluster: &Arc<Cluster>, node: NodeId, layout: &TableLayout) -> Vec<u64> {
    let storage = &cluster.node(node).storage;
    layout
        .shard_ids()
        .map(|shard| {
            // A shard nothing ever wrote to has no table on a replica;
            // digest it as the empty table it is.
            storage.create_shard(shard);
            storage
                .table(shard)
                .expect("just created")
                .committed_state_digest(&storage.clog)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any duplicated/reordered/overlapping delivery of the primary's WAL
    /// converges to the in-order replica state, which equals the primary.
    #[test]
    fn mangled_delivery_converges_to_in_order_state(
        txns in proptest::collection::vec(
            proptest::collection::vec((0u64..16, 0u8..3), 1..5),
            1..25,
        ),
        cuts in proptest::collection::vec(1u64..9, 0..12),
        actions in proptest::collection::vec(0u8..4, 0..12),
    ) {
        let cluster = ClusterBuilder::new(3).config(SimConfig::instant()).build();
        let layout = cluster.create_table(TableId(1), 0, 4, |_| PRIMARY);
        run_workload(&cluster, &layout, &txns);
        let log = full_log(&cluster);

        let mut in_order = StreamApplier::new(
            cluster.node(IN_ORDER),
            Timestamp::SNAPSHOT_MIN,
            Lsn::ZERO,
        );
        in_order.apply(run_of(Lsn(1), &log)).unwrap();
        prop_assert_eq!(in_order.applied(), Lsn(log.len() as u64));

        let mut mangled = StreamApplier::new(
            cluster.node(MANGLED),
            Timestamp::SNAPSHOT_MIN,
            Lsn::ZERO,
        );
        for batch in mangled_batches(&log, &cuts, &actions) {
            mangled.apply(batch).unwrap();
        }
        // Every record appeared in some batch, so the gate must have
        // released the entire run.
        prop_assert_eq!(mangled.applied(), Lsn(log.len() as u64));
        prop_assert_eq!(mangled.open_txns(), in_order.open_txns());
        prop_assert_eq!(mangled.watermark(), in_order.watermark());

        let want = digest_of(&cluster, IN_ORDER, &layout);
        let got = digest_of(&cluster, MANGLED, &layout);
        prop_assert_eq!(&got, &want);
        let primary = digest_of(&cluster, PRIMARY, &layout);
        prop_assert_eq!(&got, &primary);
    }

    /// Re-applying the whole log on top of an already-converged replica is
    /// a no-op (pure retransmit storm).
    #[test]
    fn retransmit_storm_is_a_noop(
        txns in proptest::collection::vec(
            proptest::collection::vec((0u64..12, 0u8..2), 1..4),
            1..12,
        ),
        storms in 1usize..4,
    ) {
        let cluster = ClusterBuilder::new(2).config(SimConfig::instant()).build();
        let layout = cluster.create_table(TableId(1), 0, 2, |_| PRIMARY);
        run_workload(&cluster, &layout, &txns);
        let log = full_log(&cluster);
        let mut applier = StreamApplier::new(
            cluster.node(IN_ORDER),
            Timestamp::SNAPSHOT_MIN,
            Lsn::ZERO,
        );
        applier.apply(run_of(Lsn(1), &log)).unwrap();
        let want = digest_of(&cluster, IN_ORDER, &layout);
        for _ in 0..storms {
            let n = applier.apply(run_of(Lsn(1), &log)).unwrap();
            prop_assert_eq!(n, 0);
        }
        prop_assert_eq!(digest_of(&cluster, IN_ORDER, &layout), want);
    }
}

/// One single-write transaction as the three WAL frames a primary logs for
/// it, starting at LSN `first` of its stream.
fn txn_frames(first: u64, xid: TxnId, kind: WriteKind, value: &str, cts: u64) -> ShipBatch {
    let write = WriteOp {
        shard: ShardId(0),
        key: 20,
        kind,
        value: Value::copy_from_slice(value.as_bytes()),
    };
    let frames = [
        LogOp::Begin(Timestamp(cts - 1)),
        LogOp::Write(write),
        LogOp::Commit(Timestamp(cts)),
    ];
    run_of(Lsn(first), &frames.map(|op| LogRecord::new(xid, op)))
}

/// A migrated shard's history reaches the replica over two streams: `init`
/// and `X` committed on the source (stream 0) before `T_m`, `Y` on the
/// destination (stream 1) after it. Whichever stream runs ahead, and however
/// often `X` is delivered again — by a retransmit, or by the destination's
/// stream as its shadow of the source transaction — the replica must order
/// the versions by commit timestamp: a read above 84 sees `Y`, one in
/// 77..84 sees `X`, and `X` holds one version.
#[test]
fn two_streams_of_one_shard_converge_in_commit_order() {
    let txn = |seq| TxnId::new(PRIMARY, seq);
    let init = |first| txn_frames(first, txn(1), WriteKind::Insert, "init", 5);
    let x = |first| txn_frames(first, txn(2), WriteKind::Update, "X", 77);
    let x_shadow = |first| txn_frames(first, txn(2).shadow(), WriteKind::Update, "X", 77);
    let y = |first| txn_frames(first, txn(3), WriteKind::Update, "Y", 84);
    // (stream, frames) in arrival order.
    let arrivals: [(&str, Vec<(usize, ShipBatch)>); 4] = [
        (
            "the source's stream lags",
            vec![(0, init(1)), (1, y(1)), (0, x(4))],
        ),
        ("commit order", vec![(0, init(1)), (0, x(4)), (1, y(1))]),
        (
            "X re-delivered after Y",
            vec![(0, init(1)), (0, x(4)), (1, y(1)), (1, x(4))],
        ),
        (
            "X's shadow re-delivered by the destination's stream",
            vec![(0, init(1)), (0, x(4)), (1, x_shadow(1)), (1, y(4))],
        ),
    ];
    let mut digests = Vec::new();
    for (case, batches) in arrivals {
        let cluster = ClusterBuilder::new(2).config(SimConfig::instant()).build();
        let replica = cluster.node(IN_ORDER);
        let mut streams = [
            StreamApplier::new(replica, Timestamp(1), Lsn::ZERO),
            StreamApplier::new(replica, Timestamp(1), Lsn::ZERO),
        ];
        for (stream, batch) in batches {
            streams[stream].apply(batch).unwrap();
        }
        let storage = &replica.storage;
        let table = storage.table(ShardId(0)).expect("applied shard");
        let timeout = std::time::Duration::from_secs(1);
        for (snapshot, want) in [(90, "Y"), (84, "Y"), (80, "X"), (77, "X"), (10, "init")] {
            let served = table
                .read(
                    20,
                    Timestamp(snapshot),
                    TxnId::INVALID,
                    &storage.clog,
                    timeout,
                )
                .unwrap();
            let served = served.map(|v| String::from_utf8_lossy(&v).into_owned());
            assert_eq!(served.as_deref(), Some(want), "{case}: read at {snapshot}");
        }
        assert_eq!(
            table.chain_snapshot(20).len(),
            3,
            "{case}: one version per commit"
        );
        digests.push(table.committed_state_digest(&storage.clog));
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
}
