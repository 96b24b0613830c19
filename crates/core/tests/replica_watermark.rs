//! The certified-cut condition a replica stream's watermark encodes, as a
//! property (DBLog's "the log position a chunk is certified at covers every
//! change the chunk could have missed", here for timestamps): on a
//! single-primary log whose commit timestamps respect the primary's clock
//! rule, after **every** [`StreamApplier::apply`] of every prefix of the
//! log, every transaction of the *whole* log with `cts <= watermark()` is
//! readable on the replica at the watermark, and nothing above it is.
//!
//! The clock rule: a commit record's `cts` exceeds every `cts` logged before
//! it — except a prepared transaction's, which its coordinator decided and
//! which only exceeds what was logged before its `Prepare`; commits the
//! node logged while it was in doubt may be above it. That exception is why
//! the watermark is a statement about
//! [`remus_wal::TxnAssembler::frontier`] and not about the applied position:
//! a resolution counts once no transaction begun before it is still open.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use remus_cluster::{ClusterBuilder, Node};
use remus_common::{NodeId, ShardId, SimConfig, Timestamp, TxnId};
use remus_core::StreamApplier;
use remus_storage::{Value, WriteKind};
use remus_wal::{LogOp, LogRecord, Lsn, ShipBatch, WriteOp};

const REPLICA: NodeId = NodeId(1);
const SHARDS: u64 = 2;
const KEYS: u64 = 6;

/// One generated transaction: writes as `(shard, key, kind)` with kind 0/1 =
/// update, 2 = delete, 3 = row lock (no image); whether it prepares; how it
/// ends (0 = the log ends first, 1 = commit at the node's clock, 2 = commit,
/// if prepared at a timestamp decided while in doubt, 3 = abort).
type TxnSpec = (Vec<(u64, u64, u8)>, bool, u8);

fn xid(i: usize) -> TxnId {
    TxnId::new(NodeId(0), 100 + i as u64)
}

fn value(i: usize, key: u64) -> Value {
    Value::copy_from_slice(format!("t{i}-k{key}").as_bytes())
}

/// The clock rule by construction: the record at LSN `n` that draws a
/// timestamp draws `10 n`, so timestamps grow along the log, `10 n + 3` is
/// what a coordinator could decide for a transaction prepared at `n`, and
/// `10 n + 5` what the primary could hand a heartbeat positioned at `n`.
fn ts_at(lsn: u64) -> Timestamp {
    Timestamp(10 * lsn)
}

fn ops_of(i: usize, (writes, prepare, ending): &TxnSpec) -> Vec<LogOp> {
    let mut ops = vec![LogOp::Begin(Timestamp::INVALID)];
    ops.extend(writes.iter().map(|&(shard, key, kind)| {
        let kind = match kind {
            2 => WriteKind::Delete,
            3 => WriteKind::Lock,
            _ => WriteKind::Update,
        };
        LogOp::Write(WriteOp {
            shard: ShardId(shard),
            key,
            kind,
            value: value(i, key),
        })
    }));
    if *prepare {
        ops.push(LogOp::Prepare);
    }
    match (*ending, *prepare) {
        (0, _) => {}
        (3, false) => ops.push(LogOp::Abort),
        (3, true) => ops.push(LogOp::RollbackPrepared),
        (_, false) => ops.push(LogOp::Commit(Timestamp::INVALID)),
        (_, true) => ops.push(LogOp::CommitPrepared(Timestamp::INVALID)),
    }
    ops
}

/// Interleaves the transactions by `picks`, each in its own order, stamping
/// `Begin` and commit records from the log position — or, for ending 2,
/// from the position of the transaction's `Prepare`.
fn interleave(specs: &[TxnSpec], picks: &[usize]) -> Vec<Arc<LogRecord>> {
    let mut pending: Vec<(usize, std::vec::IntoIter<LogOp>)> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| (i, ops_of(i, spec).into_iter()))
        .collect();
    let mut log = Vec::new();
    let mut decided: BTreeMap<usize, Timestamp> = BTreeMap::new();
    for pick in picks.iter().cycle() {
        if pending.is_empty() {
            break;
        }
        let slot = pick % pending.len();
        let (i, ops) = &mut pending[slot];
        let Some(op) = ops.next() else {
            pending.remove(slot);
            continue;
        };
        let ts = ts_at(log.len() as u64 + 1);
        let op = match op {
            LogOp::Begin(_) => LogOp::Begin(ts),
            LogOp::Commit(_) => LogOp::Commit(ts),
            LogOp::Prepare if specs[*i].2 == 2 => {
                decided.insert(*i, Timestamp(ts.0 + 3));
                LogOp::Prepare
            }
            LogOp::CommitPrepared(_) => LogOp::CommitPrepared(*decided.get(i).unwrap_or(&ts)),
            other => other,
        };
        log.push(Arc::new(LogRecord::new(xid(*i), op)));
    }
    log
}

/// Per key, the committed images of the whole log by commit timestamp
/// (`None` = deleted): a transaction's last write to a key is its image.
fn committed_images(
    log: &[Arc<LogRecord>],
) -> BTreeMap<(ShardId, u64), BTreeMap<Timestamp, Option<Value>>> {
    let mut pending: BTreeMap<TxnId, Vec<&WriteOp>> = BTreeMap::new();
    let mut images: BTreeMap<(ShardId, u64), BTreeMap<Timestamp, Option<Value>>> = BTreeMap::new();
    for record in log {
        match &record.op {
            LogOp::Write(w) if w.kind != WriteKind::Lock => {
                pending.entry(record.xid).or_default().push(w)
            }
            LogOp::Commit(cts) | LogOp::CommitPrepared(cts) => {
                for w in pending.remove(&record.xid).unwrap_or_default() {
                    let image = (w.kind != WriteKind::Delete).then(|| w.value.clone());
                    images
                        .entry((w.shard, w.key))
                        .or_default()
                        .insert(*cts, image);
                }
            }
            _ => {}
        }
    }
    images
}

/// SI read on the replica as a detached observer.
fn read_at(replica: &Node, shard: ShardId, key: u64, ts: Timestamp) -> Option<Value> {
    let observer = TxnId::new(NodeId(63), 1);
    let storage = &replica.storage;
    storage.table(shard).and_then(|table| {
        table
            .read(key, ts, observer, &storage.clog, Duration::from_secs(5))
            .expect("a replica chain holds resolved versions only")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn everything_at_or_below_the_watermark_is_readable_after_every_prefix(
        specs in proptest::collection::vec(
            (
                proptest::collection::vec((0..SHARDS, 0..KEYS, 0u8..4), 0..5),
                (0u8..2).prop_map(|p| p == 1),
                0u8..4,
            ),
            1..13,
        ),
        picks in proptest::collection::vec(0usize..1000, 16..17),
        batch_lens in proptest::collection::vec(1usize..9, 1..8),
    ) {
        let log = interleave(&specs, &picks);
        let images = committed_images(&log);
        let cluster = ClusterBuilder::new(2).config(SimConfig::instant()).build();
        let replica = cluster.node(REPLICA);
        let mut applier = StreamApplier::new(replica, Timestamp::SNAPSHOT_MIN, Lsn::ZERO);

        let check = |watermark: Timestamp| -> Result<(), String> {
            for shard in (0..SHARDS).map(ShardId) {
                for key in 0..KEYS {
                    // The newest image at or below the watermark, out of
                    // the whole log — applied yet or not.
                    let want = images
                        .get(&(shard, key))
                        .and_then(|by_cts| by_cts.range(..=watermark).next_back())
                        .and_then(|(_, image)| image.clone());
                    let got = read_at(replica, shard, key, watermark);
                    prop_assert!(
                        got == want,
                        "{shard:?} key {key} at watermark {watermark:?}: {got:?}, want {want:?}"
                    );
                }
            }
            Ok(())
        };

        let mut open: HashSet<TxnId> = HashSet::new();
        let (mut at, mut i) = (0, 0);
        let mut watermark = applier.watermark();
        check(watermark)?;
        while at < log.len() {
            let end = (at + batch_lens[i % batch_lens.len()]).min(log.len());
            for record in &log[at..end] {
                match record.op {
                    LogOp::Begin(_) => open.insert(record.xid),
                    ref op if op.is_resolution() => open.remove(&record.xid),
                    _ => false,
                };
            }
            applier
                .apply(ShipBatch::new(Lsn(at as u64 + 1), log[at..end].to_vec()))
                .unwrap();
            (at, i) = (end, i + 1);
            prop_assert_eq!(applier.applied(), Lsn(at as u64));
            prop_assert_eq!(applier.open_txns(), open.len());
            prop_assert!(applier.watermark() >= watermark, "the watermark is monotone");
            check(applier.watermark())?;

            // A caught-up heartbeat carries a timestamp above every commit
            // at or below its position and below every later one. It is
            // sound only with nothing open, and refused otherwise.
            let beat = Timestamp(ts_at(at as u64).0 + 5);
            prop_assert_eq!(applier.heartbeat(Lsn(at as u64), beat), open.is_empty());
            prop_assert!(!applier.heartbeat(Lsn(at as u64 + 1), beat), "not its position");
            if open.is_empty() {
                prop_assert_eq!(applier.watermark(), beat);
                check(beat)?;
            }
            watermark = applier.watermark();
        }
    }
}
