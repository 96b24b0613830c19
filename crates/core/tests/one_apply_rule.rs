//! The one apply rule, as a property: migration catch-up leaves its
//! destination with exactly the committed state its own WAL redoes. Random
//! multi-key streams of committed source transactions (inserts, updates,
//! deletes and row locks, commit timestamps rising) are fed through the
//! replay process with 1 and 4 workers, over frozen rows installed up front
//! or copied by a chunk copy racing the replay. Folding the
//! destination's WAL through a `TxnAssembler` and redoing every committed
//! transaction with `redo_committed` into a fresh node seeded with the same
//! frozen rows must give the same `committed_state_digest`. This is also
//! the per-node core of a reenactment check: a node's log, redone by the
//! function that built the node, rebuilds it.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use remus_cluster::ClusterBuilder;
use remus_common::{NodeId, ShardId, SimConfig, TableId, Timestamp, TxnId};
use remus_core::mocc::ValidationRegistry;
use remus_core::replay::{ApplyMsg, ReplayProcess};
use remus_core::snapshot::{copy_task_snapshots_gated, CopyGate};
use remus_storage::{Value, WriteKind};
use remus_txn::{redo_committed, NodeStorage};
use remus_wal::{Lsn, TailRead, TxnAssembler, TxnEvent, TxnOutcome, WriteOp};

const SHARD: ShardId = ShardId(0);
const SOURCE: NodeId = NodeId(0);
const DEST: NodeId = NodeId(1);

fn val(txn: usize, key: u64) -> Value {
    Value::copy_from_slice(format!("t{txn}-k{key}").as_bytes())
}

/// The committed stream `txns` describes, over a shard whose live keys start
/// as `seeded`: each op is `(key, action)` with action 0 = write (insert if
/// the key is not live, else update), 1 = delete (insert if not live), 2 =
/// lock (insert if not live). Every transaction starts just below its own
/// commit timestamp, above every earlier one, so the stream is one a source
/// could have committed.
fn stream(seeded: &[u64], txns: &[Vec<(u64, u8)>]) -> Vec<ApplyMsg> {
    let mut live: std::collections::BTreeSet<u64> = seeded.iter().copied().collect();
    let mut msgs = Vec::new();
    for (i, ops) in txns.iter().enumerate() {
        let write = |key, kind, value| WriteOp {
            shard: SHARD,
            key,
            kind,
            value,
        };
        let ops = ops
            .iter()
            .map(|&(key, action)| {
                if live.insert(key) {
                    return write(key, WriteKind::Insert, val(i, key));
                }
                match action {
                    0 => write(key, WriteKind::Update, val(i, key)),
                    1 => {
                        live.remove(&key);
                        write(key, WriteKind::Delete, Value::new())
                    }
                    _ => write(key, WriteKind::Lock, Value::new()),
                }
            })
            .collect();
        let cts = 11 + 2 * i as u64;
        msgs.push(ApplyMsg::Committed {
            xid: TxnId::new(SOURCE, 100 + i as u64),
            start_ts: Timestamp(cts - 1),
            commit_ts: Timestamp(cts),
            ops,
        });
    }
    msgs
}

/// Redoes every committed transaction of `dest`'s WAL into a fresh node
/// seeded with the frozen rows `seeded`, and answers its digest of `SHARD`.
fn redo_of_the_log(dest: &NodeStorage, seeded: &[u64]) -> u64 {
    let fresh = NodeStorage::new(NodeId(9), SimConfig::instant());
    let table = fresh.create_shard(SHARD);
    for &k in seeded {
        table.install_frozen(k, val(0, k));
    }
    let mut reader = dest.wal.reader_from(Lsn::ZERO);
    let mut assembler = TxnAssembler::new(Lsn::ZERO, |_: ShardId| true);
    while let TailRead::Batch(run) = reader.next_batch(64, Duration::ZERO) {
        for (lsn, record) in run.iter() {
            if let TxnEvent::Resolved {
                txn,
                outcome: TxnOutcome::Committed(cts),
                ..
            } = assembler.feed(lsn, record)
            {
                redo_committed(&fresh, txn.xid, cts, &txn.writes, |_, _| {}).unwrap();
            }
        }
    }
    table.committed_state_digest(&fresh.clog)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn catch_up_leaves_what_its_own_log_redoes(
        seed_mask in any::<u32>(),
        txns in proptest::collection::vec(
            proptest::collection::vec((0u64..24, 0u8..3), 1..5),
            1..40,
        ),
        workers in prop_oneof![Just(1usize), Just(4usize)],
        gated in 0u8..2,
    ) {
        let gated = gated == 1;
        let seeded: Vec<u64> = (0..24).filter(|k| seed_mask & (1 << k) != 0).collect();
        let mut config = SimConfig::instant();
        config.parallelism.replay_workers = workers;
        config.parallelism.chunk_size = 3;
        let cluster = ClusterBuilder::new(2).config(config).build();
        cluster.create_table(TableId(1), 0, 1, |_| SOURCE);
        let (source, dest) = (cluster.node(SOURCE), cluster.node(DEST));
        // The frozen rows: on the source for the copy to move, or on the
        // destination already.
        let rows_on = if gated { source } else { dest };
        let table = rows_on.storage.create_shard(SHARD);
        for &k in &seeded {
            table.install_frozen(k, val(0, k));
        }
        let registry = Arc::new(ValidationRegistry::new());
        let (replay, mut feed) = ReplayProcess::start(&cluster, dest, registry);
        let gate = gated.then(|| {
            let gate = CopyGate::plan(&[SHARD], source, 3).unwrap();
            gate.recording(replay.copy_running())
        });
        for (i, msg) in stream(&seeded, &txns).into_iter().enumerate() {
            feed.ship(Lsn(i as u64 + 1), msg);
        }
        // The copy races the workers, which apply without waiting for it.
        if let Some(gate) = &gate {
            copy_task_snapshots_gated(&cluster, source, dest, Timestamp(2), gate, None).unwrap();
            replay.copy_done();
        }
        drop(feed);
        replay.join().unwrap();

        let storage = &dest.storage;
        let caught_up = storage.table(SHARD).unwrap().committed_state_digest(&storage.clog);
        let redone = redo_of_the_log(storage, &seeded);
        prop_assert!(
            caught_up == redone,
            "{} txns, {workers} workers, gated {gated}: {caught_up:x} != {redone:x}",
            txns.len()
        );
    }
}
