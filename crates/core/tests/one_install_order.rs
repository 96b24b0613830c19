//! One install order, as a property: the snapshot copy places each row at
//! its source commit timestamp, so copy and catch-up land in either order.
//! The source's rows are committed at real timestamps; random interleavings
//! of chunk installs (with `CopyChunk` crashes that retry a chunk) and
//! catch-up installs, on 1 and 4 workers, must leave the destination with
//! the committed state the redo of the source's log gives. And the order
//! check keeps its strength while the copy runs: a catch-up update of a key
//! the snapshot lacks, or a catch-up insert of a key it holds, fails the
//! migration whether it lands before or after its chunk.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use remus_cluster::{Cluster, ClusterBuilder};
use remus_common::fault::{FaultAction, FaultInjector, InjectionPoint};
use remus_common::{NodeId, ShardId, SimConfig, TableId, Timestamp, TxnId};
use remus_core::mocc::ValidationRegistry;
use remus_core::replay::{ApplyMsg, ReplayFeed, ReplayProcess};
use remus_core::snapshot::{copy_task_snapshots_gated, CopyGate};
use remus_storage::{Value, WriteKind};
use remus_txn::{log_and_redo_committed, redo_committed, NodeStorage};
use remus_wal::{Lsn, TailRead, TxnAssembler, TxnEvent, TxnOutcome, WriteOp};

const SHARD: ShardId = ShardId(0);
const SOURCE: NodeId = NodeId(0);
const DEST: NodeId = NodeId(1);
const KEYS: u64 = 24;
/// The copy's snapshot: above every seeded row, below every catch-up commit.
const SNAPSHOT: Timestamp = Timestamp(8);

fn val(txn: usize, key: u64) -> Value {
    Value::copy_from_slice(format!("t{txn}-k{key}").as_bytes())
}

fn write(key: u64, kind: WriteKind, value: Value) -> WriteOp {
    WriteOp {
        shard: SHARD,
        key,
        kind,
        value,
    }
}

/// A two-node cluster whose source holds `seeded` in `SHARD`, inserted by
/// five transactions committed at timestamps 2 to 6 (`key % 5` picks one).
fn seeded_cluster(seeded: &[u64], workers: usize, chunk_size: u64) -> Arc<Cluster> {
    let mut config = SimConfig::instant();
    config.parallelism.replay_workers = workers;
    config.parallelism.copy_workers = workers;
    config.parallelism.chunk_size = chunk_size;
    let cluster = ClusterBuilder::new(2).config(config).build();
    cluster.create_table(TableId(1), 0, 1, |_| SOURCE);
    let source = &cluster.node(SOURCE).storage;
    for txn in 0..5u64 {
        let writes: Vec<WriteOp> = seeded
            .iter()
            .filter(|&&k| k % 5 == txn)
            .map(|&k| write(k, WriteKind::Insert, val(0, k)))
            .collect();
        let (xid, cts) = (TxnId::new(SOURCE, 10 + txn), Timestamp(2 + txn));
        log_and_redo_committed(source, xid, Timestamp(1), cts, &writes, |_, _| {}).unwrap();
    }
    cluster
}

/// Commits `msgs` on the source too, so its log holds the whole history.
fn commit_on_source(cluster: &Cluster, msgs: &[ApplyMsg]) {
    let source = &cluster.node(SOURCE).storage;
    for msg in msgs {
        let ApplyMsg::Committed {
            xid,
            start_ts,
            commit_ts,
            ops,
        } = msg
        else {
            unreachable!("only committed transactions are generated")
        };
        log_and_redo_committed(source, *xid, *start_ts, *commit_ts, ops, |_, _| {}).unwrap();
    }
}

/// The committed stream `txns` describes over the live keys `seeded`, as
/// `one_apply_rule.rs` builds it: action 0 = write (insert if the key is not
/// live, else update), 1 = delete, 2 = lock (both insert if not live).
/// Commit timestamps start above `SNAPSHOT`.
fn stream(seeded: &[u64], txns: &[Vec<(u64, u8)>]) -> Vec<ApplyMsg> {
    let mut live: std::collections::BTreeSet<u64> = seeded.iter().copied().collect();
    let mut msgs = Vec::new();
    for (i, ops) in txns.iter().enumerate() {
        let ops = ops
            .iter()
            .map(|&(key, action)| {
                if live.insert(key) {
                    return write(key, WriteKind::Insert, val(i + 1, key));
                }
                match action {
                    0 => write(key, WriteKind::Update, val(i + 1, key)),
                    1 => {
                        live.remove(&key);
                        write(key, WriteKind::Delete, Value::new())
                    }
                    _ => write(key, WriteKind::Lock, Value::new()),
                }
            })
            .collect();
        let cts = SNAPSHOT.0 + 3 + 2 * i as u64;
        msgs.push(ApplyMsg::Committed {
            xid: TxnId::new(SOURCE, 100 + i as u64),
            start_ts: Timestamp(cts - 1),
            commit_ts: Timestamp(cts),
            ops,
        });
    }
    msgs
}

/// Redoes every committed transaction of `log`'s WAL into a fresh node and
/// answers its digest of `SHARD`.
fn redo_of_the_log(log: &NodeStorage) -> u64 {
    let fresh = NodeStorage::new(NodeId(9), SimConfig::instant());
    let mut reader = log.wal.reader_from(Lsn::ZERO);
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
    fresh
        .create_shard(SHARD)
        .committed_state_digest(&fresh.clog)
}

/// Catch-up as the copy sees it: ships the next messages and waits until
/// replay ran them.
struct CatchUp {
    replay: ReplayProcess,
    feed: ReplayFeed,
    msgs: std::vec::IntoIter<ApplyMsg>,
    shipped: u64,
}

impl CatchUp {
    fn ship(&mut self, n: usize) {
        for msg in self.msgs.by_ref().take(n) {
            self.shipped += 1;
            self.feed.ship(Lsn(self.shipped), msg);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.replay.worker_jobs().iter().sum::<u64>() < self.shipped {
            assert!(
                Instant::now() < deadline,
                "replay did not run what was shipped"
            );
            std::thread::yield_now();
        }
    }
}

/// At every chunk attempt, ships the next scheduled number of catch-up
/// messages first; the attempts the schedule marks crash after installing a
/// prefix of their chunk, and the pool retries the chunk.
struct Interleave {
    catch_up: Mutex<Option<CatchUp>>,
    schedule: Vec<(usize, bool)>,
    visits: AtomicUsize,
}

impl FaultInjector for Interleave {
    fn decide(&self, point: InjectionPoint, _node: NodeId) -> FaultAction {
        if point != InjectionPoint::CopyChunk {
            return FaultAction::Continue;
        }
        let visit = self.visits.fetch_add(1, Ordering::SeqCst);
        let (ship, crash) = self.schedule.get(visit).copied().unwrap_or((0, false));
        if let Some(catch_up) = self.catch_up.lock().unwrap().as_mut() {
            catch_up.ship(ship);
        }
        if crash {
            FaultAction::Crash
        } else {
            FaultAction::Continue
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn copy_and_catch_up_in_any_order_leave_the_redo_of_the_source_log(
        seed_mask in any::<u32>(),
        txns in proptest::collection::vec(
            proptest::collection::vec((0u64..KEYS, 0u8..3), 1..5),
            1..40,
        ),
        schedule in proptest::collection::vec((0usize..4, 0u8..2), 0..24),
        workers in prop_oneof![Just(1usize), Just(4usize)],
        chunk_size in prop_oneof![Just(3u64), Just(20u64)],
    ) {
        // At most three crashes in all: no chunk runs out of attempts.
        let mut crashes = 0;
        let schedule: Vec<(usize, bool)> = schedule
            .into_iter()
            .map(|(ship, crash)| {
                let crash = crash == 1 && crashes < 3;
                crashes += usize::from(crash);
                (ship, crash)
            })
            .collect();
        let seeded: Vec<u64> = (0..KEYS).filter(|k| seed_mask & (1 << k) != 0).collect();
        let cluster = seeded_cluster(&seeded, workers, chunk_size);
        let (source, dest) = (cluster.node(SOURCE), cluster.node(DEST));
        let msgs = stream(&seeded, &txns);
        commit_on_source(&cluster, &msgs);

        let registry = Arc::new(ValidationRegistry::new());
        let (replay, feed) = ReplayProcess::start(&cluster, dest, registry);
        let mapped = replay.copy_running();
        let interleave = Arc::new(Interleave {
            catch_up: Mutex::new(Some(CatchUp {
                replay,
                feed,
                msgs: msgs.into_iter(),
                shipped: 0,
            })),
            schedule,
            visits: AtomicUsize::new(0),
        });
        cluster.install_fault_injector(Arc::clone(&interleave) as Arc<dyn FaultInjector>);
        let gate = CopyGate::plan(&[SHARD], source, chunk_size).unwrap().recording(mapped);
        let copied = copy_task_snapshots_gated(&cluster, source, dest, SNAPSHOT, &gate, None);
        cluster.uninstall_fault_injector();
        let mut catch_up = interleave.catch_up.lock().unwrap().take().unwrap();
        prop_assert_eq!(copied.unwrap(), seeded.len() as u64);
        catch_up.replay.copy_done();
        catch_up.ship(usize::MAX);
        prop_assert!(catch_up.replay.check().is_ok());
        let CatchUp { replay, feed, .. } = catch_up;
        drop(feed);
        replay.join().unwrap();

        let storage = &dest.storage;
        let caught_up = storage.table(SHARD).unwrap().committed_state_digest(&storage.clog);
        let redone = redo_of_the_log(&source.storage);
        prop_assert!(
            caught_up == redone,
            "{} txns, {workers} workers, chunk {chunk_size}: {caught_up:x} != {redone:x}",
            txns.len()
        );
    }
}

/// Runs one catch-up write of key 5 against a copy of a snapshot that holds
/// key 5 (`live`) or lacks it, landing before the copy (`first`) or after
/// it, and answers replay's verdict before `T_m` and at its join.
fn order_check(kind: WriteKind, live: bool, first: bool) -> [bool; 2] {
    let seeded: Vec<u64> = if live { vec![1, 5, 9] } else { vec![1, 9] };
    let cluster = seeded_cluster(&seeded, 1, 2);
    let (source, dest) = (cluster.node(SOURCE), cluster.node(DEST));
    let msg = ApplyMsg::Committed {
        xid: TxnId::new(SOURCE, 100),
        start_ts: Timestamp(SNAPSHOT.0 + 1),
        commit_ts: Timestamp(SNAPSHOT.0 + 2),
        ops: vec![write(5, kind, val(1, 5))],
    };
    commit_on_source(&cluster, std::slice::from_ref(&msg));
    let registry = Arc::new(ValidationRegistry::new());
    let (replay, feed) = ReplayProcess::start(&cluster, dest, registry);
    let mapped = replay.copy_running();
    let mut catch_up = CatchUp {
        replay,
        feed,
        msgs: vec![msg].into_iter(),
        shipped: 0,
    };
    let gate = CopyGate::plan(&[SHARD], source, 2)
        .unwrap()
        .recording(mapped);
    let copy = || copy_task_snapshots_gated(&cluster, source, dest, SNAPSHOT, &gate, None);
    if first {
        catch_up.ship(1);
        copy().unwrap();
    } else {
        copy().unwrap();
        catch_up.ship(1);
    }
    catch_up.replay.copy_done();
    let before_tm = catch_up.replay.check().is_err();
    drop(catch_up.feed);
    [before_tm, catch_up.replay.join().is_err()]
}

/// An update of a key the snapshot lacks is out of order whether it lands
/// before the copy (then nothing is placed under it) or after (then it
/// finds nothing).
#[test]
fn a_catch_up_update_of_a_key_absent_from_the_snapshot_fails_the_migration() {
    for first in [true, false] {
        let failed = order_check(WriteKind::Update, false, first);
        assert_eq!(failed, [true, true], "landing first: {first}");
    }
}

/// An insert of a key live in the snapshot is out of order whether it lands
/// before the copy (then a live row is placed under it) or after (then it
/// lands on one).
#[test]
fn a_catch_up_insert_of_a_key_live_in_the_snapshot_fails_the_migration() {
    for first in [true, false] {
        let failed = order_check(WriteKind::Insert, true, first);
        assert_eq!(failed, [true, true], "landing first: {first}");
    }
}

/// A catch-up delete of key 5 that lands before its chunk — alone, after a
/// lock that mapped the key first, or under a re-insert — leaves a chain GC
/// drains once the copy has put the row under it: one version per live key
/// and nothing left pending, as `gc_after_migration.rs` expects of a
/// destination.
#[test]
fn a_catch_up_delete_before_its_chunk_leaves_its_chain_to_gc() {
    use WriteKind::{Delete, Insert, Lock};
    for (kinds, live) in [
        (vec![Delete], 2),
        (vec![Lock, Delete], 2),
        (vec![Delete, Insert], 3),
    ] {
        let cluster = seeded_cluster(&[1, 5, 9], 1, 2);
        let (source, dest) = (cluster.node(SOURCE), cluster.node(DEST));
        let msgs: Vec<ApplyMsg> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| ApplyMsg::Committed {
                xid: TxnId::new(SOURCE, 100 + i as u64),
                start_ts: Timestamp(SNAPSHOT.0 + 1 + 2 * i as u64),
                commit_ts: Timestamp(SNAPSHOT.0 + 2 + 2 * i as u64),
                ops: vec![write(5, kind, val(i + 1, 5))],
            })
            .collect();
        commit_on_source(&cluster, &msgs);
        let registry = Arc::new(ValidationRegistry::new());
        let (replay, feed) = ReplayProcess::start(&cluster, dest, registry);
        let mapped = replay.copy_running();
        let mut catch_up = CatchUp {
            replay,
            feed,
            msgs: msgs.into_iter(),
            shipped: 0,
        };
        catch_up.ship(usize::MAX);
        let gate = CopyGate::plan(&[SHARD], source, 2)
            .unwrap()
            .recording(mapped);
        copy_task_snapshots_gated(&cluster, source, dest, SNAPSHOT, &gate, None).unwrap();
        catch_up.replay.copy_done();
        catch_up.replay.check().unwrap();
        drop(catch_up.feed);
        catch_up.replay.join().unwrap();

        let (table, clog) = (dest.storage.table(SHARD).unwrap(), &dest.storage.clog);
        table.gc_step(Timestamp::MAX, clog, usize::MAX);
        let stats = table.stats();
        assert_eq!(
            (stats.keys, stats.versions, stats.max_chain),
            (live, live, 1),
            "{kinds:?}: a chain that needed GC was not pending"
        );
        let idle = table.gc_step(Timestamp::MAX, clog, usize::MAX);
        assert_eq!(idle.scanned, 0, "{kinds:?}: nothing is left pending");
    }
}
