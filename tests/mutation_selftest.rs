//! Chaos-harness self-test: prove the SI checker catches a *real* anomaly.
//!
//! The `mutation-hooks` feature adds a runtime switch that makes visibility
//! resolution skip prepared versions instead of prepare-waiting — breaking
//! the exact mechanism that makes 2PC commits atomic with respect to
//! snapshot reads. With the switch on, a reader whose snapshot is newer
//! than an in-flight 2PC commit reads *past* it; once that commit lands
//! with a timestamp below the reader's snapshot, the read is stale. Under
//! GTS this is unambiguously illegal, and the checker must flag it and the
//! shrinker must minimize the counterexample.
//!
//! Gated behind the feature so the broken code path cannot exist in normal
//! builds: `cargo test --features mutation-hooks --test mutation_selftest`.

#![cfg(feature = "mutation-hooks")]

use std::sync::Arc;

use remus::chaos::{
    check_history, shrink_history, CheckConfig, MutKind, OpRead, OpWrite, TxnRecord, Violation,
};
use remus::clock::{Gts, OracleKind};
use remus::cluster::{ClusterBuilder, Session};
use remus::common::{NodeId, ShardId, TableId, Timestamp};
use remus::storage::mutation::set_skip_prepare_wait;
use remus::storage::Value;
use remus::txn::{commit_prepared, prepare_participant, Txn};

fn val(s: &str) -> Value {
    Value::copy_from_slice(s.as_bytes())
}

fn check_config() -> CheckConfig {
    CheckConfig {
        source: NodeId(0),
        dest: NodeId(1),
        migrating: vec![],
        tm_cts: None,
        migration_committed: false,
        // GTS cluster: timestamp order is real-time order, so the strict
        // read axiom applies.
        strict_timestamp_reads: true,
    }
}

/// Runs the read-past-prepared experiment and returns the recorded history.
/// `mutate` turns the prepare-wait-skipping switch on for the reader.
fn run_experiment(mutate: bool) -> Vec<TxnRecord> {
    let cluster = ClusterBuilder::new(1)
        .oracle_instance(Arc::new(Gts::new()))
        .build();
    assert_eq!(cluster.oracle.kind(), OracleKind::Gts);
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let node = cluster.node(NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    let mut history = Vec::new();
    let mut seq = 0u64..;

    // Preload key 1.
    let begin_seq = seq.next().unwrap();
    let mut preload = session.begin();
    let preload_begin = preload.begin_ts();
    preload.insert(&layout, 1, val("base")).unwrap();
    let preload_snap = preload.start_ts();
    let preload_xid = preload.xid();
    let preload_cts = preload.commit().unwrap();
    history.push(TxnRecord {
        xid: preload_xid,
        client: 0,
        begin_ts: preload_begin,
        commit_ts: Some(preload_cts),
        reads: vec![],
        writes: vec![OpWrite {
            key: 1,
            snap_ts: preload_snap,
            kind: MutKind::Insert,
            value: Some(val("base")),
        }],
        routes: vec![],
        replica: false,
        begin_seq,
        commit_seq: seq.next().unwrap(),
    });

    // Writer W: a 2PC participant prepared but not yet committed, with a
    // commit timestamp issued *before* the reader's snapshot.
    let w_start = cluster.oracle.start_ts(NodeId(0));
    let wx = {
        let mut w = Txn::begin(&node.storage, w_start);
        w.update(&node.storage, ShardId(0), 1, val("new")).unwrap();
        let wx = w.xid;
        prepare_participant(&node.storage, wx).unwrap();
        std::mem::forget(w);
        wx
    };
    let w_cts = cluster.oracle.commit_ts(NodeId(0));
    let w_begin_seq = seq.next().unwrap();

    // Reader R begins after W's commit timestamp was issued. A correct SI
    // engine makes R prepare-wait on W's version and (after the commit
    // below) observe it; the mutation makes R skip it.
    if mutate {
        set_skip_prepare_wait(true);
    }
    let r_begin_seq = seq.next().unwrap();
    let mut reader = session.begin();
    let r_begin = reader.begin_ts();
    assert!(r_begin >= w_cts, "GTS snapshots are monotone");
    // Commit W from a second thread; without the mutation, R's read below
    // blocks on the prepared version until this lands.
    let committer = {
        let storage = Arc::clone(&node.storage);
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            commit_prepared(&storage, wx, w_cts).unwrap();
        })
    };
    let observed = reader.read(&layout, 1).unwrap();
    let r_snap = reader.start_ts();
    committer.join().unwrap();
    let w_commit_seq = seq.next().unwrap();
    if mutate {
        set_skip_prepare_wait(false);
    }
    history.push(TxnRecord {
        xid: wx,
        client: 1,
        begin_ts: w_start,
        commit_ts: Some(w_cts),
        reads: vec![],
        writes: vec![OpWrite {
            key: 1,
            snap_ts: w_start,
            kind: MutKind::Update,
            value: Some(val("new")),
        }],
        routes: vec![],
        replica: false,
        begin_seq: w_begin_seq,
        commit_seq: w_commit_seq,
    });

    let r_xid = reader.xid();
    let r_cts = reader.commit().unwrap();
    history.push(TxnRecord {
        xid: r_xid,
        client: 2,
        begin_ts: r_begin,
        commit_ts: Some(r_cts),
        reads: vec![OpRead {
            key: 1,
            snap_ts: r_snap,
            observed,
        }],
        writes: vec![],
        routes: vec![],
        replica: false,
        begin_seq: r_begin_seq,
        commit_seq: seq.next().unwrap(),
    });
    history
}

/// The replay-worker kill switch is one process-wide flag: the tests that
/// arm it take turns.
static KILL_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn killed_replay_worker_fails_join_instead_of_hanging() {
    let _turn = KILL_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    use crossbeam::channel::unbounded;
    use remus::common::{DbError, SimConfig, TxnId};
    use remus::migration::mocc::ValidationRegistry;
    use remus::migration::replay::{ApplyMsg, ReplayProcess};
    use remus::storage::mutation::arm_kill_replay_worker;
    use remus::wal::{Lsn, WriteKind, WriteOp};
    use std::time::Duration;

    let mut config = SimConfig::instant();
    config.parallelism.replay_workers = 2;
    let cluster = ClusterBuilder::new(2).config(config).build();
    cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let dest = Arc::clone(cluster.node(NodeId(1)));
    dest.storage.create_shard(ShardId(0));
    let registry = Arc::new(ValidationRegistry::new());
    let (replay, mut feed) = ReplayProcess::start(&cluster, &dest, registry);

    // The worker picking up the first job dies mid-job. The second job
    // writes the same key, so its key fence waits on the first job's
    // ticket: before the fix, the dead worker never marked its ticket and
    // the whole pipeline (and `join`) hung forever.
    arm_kill_replay_worker();
    for i in 0..2u64 {
        let msg = ApplyMsg::Committed {
            xid: TxnId::new(NodeId(0), 2_000 + i),
            start_ts: Timestamp(10 * i + 5),
            commit_ts: Timestamp(10 * (i + 1)),
            ops: vec![WriteOp {
                shard: ShardId(0),
                key: 7,
                kind: WriteKind::Insert,
                value: val("x"),
            }],
        };
        feed.ship(Lsn(i + 1), msg);
    }
    drop(feed);

    // Watchdog: `join` must return (with the panic surfaced as an error),
    // not hang — run it on the side and bound the wait.
    let (done_tx, done_rx) = unbounded();
    std::thread::spawn(move || {
        let _ = done_tx.send(replay.join());
    });
    let result = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("ReplayProcess::join hung on a dead worker");
    let err = result.unwrap_err();
    assert!(matches!(err, DbError::Internal(_)), "got {err:?}");
    assert!(
        format!("{err}").contains("panicked"),
        "error does not mention the panic: {err}"
    );
}

/// Replay's first error stops `T_m`: a catch-up worker killed mid-job during
/// a Remus migration under a concurrent writer fails the migration before
/// ownership moves, so the source still owns the shard and serves its data.
/// On the parent the error surfaced only when the pipeline joined replay,
/// after `T_m` had committed and the destination owned the shard.
#[test]
fn a_killed_replay_worker_fails_the_migration_before_t_m() {
    use remus::common::SimConfig;
    use remus::migration::{MigrationEngine, MigrationTask, RemusEngine};
    use remus::storage::mutation::{arm_kill_replay_worker, take_kill_replay_worker};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    let _turn = KILL_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
    const ROWS: u64 = 2_000;
    let mut config = SimConfig::instant();
    // A copy of ≈ 10 ms, so the writer commits while it runs.
    config.snapshot_copy_per_tuple = Duration::from_micros(5);
    let cluster = ClusterBuilder::new(2).config(config).build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..ROWS {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }
    let task = MigrationTask {
        shards: vec![ShardId(0)],
        source: NodeId(0),
        dest: NodeId(1),
    };
    let (stop, commits) = (AtomicBool::new(false), AtomicU64::new(0));
    let result = std::thread::scope(|s| {
        s.spawn(|| {
            let writer = Session::connect(&cluster, NodeId(0));
            let mut k = 0;
            while !stop.load(Ordering::SeqCst) {
                if writer
                    .run(|t| t.update(&layout, k % ROWS, val("w")))
                    .is_ok()
                {
                    commits.fetch_add(1, Ordering::SeqCst);
                }
                k += 1;
            }
        });
        while commits.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        arm_kill_replay_worker();
        let result = RemusEngine.migrate(&cluster, &task);
        stop.store(true, Ordering::SeqCst);
        result
    });
    assert!(
        !take_kill_replay_worker(),
        "no replay job ran during the migration"
    );
    let err = result.expect_err("a migration whose replay worker died succeeded");
    assert!(format!("{err}").contains("panicked"), "{err}");
    let source = cluster.node(NodeId(0));
    let owner = cluster.current_owner(source, ShardId(0)).unwrap();
    assert_eq!(owner.node, NodeId(0), "T_m committed: the shard moved");
    assert!(source.storage.hosts(ShardId(0)));
    assert!(!cluster.node(NodeId(1)).storage.hosts(ShardId(0)));
    let (rows, _) = session.run(|t| t.scan_table(&layout)).unwrap();
    assert_eq!(rows.len() as u64, ROWS);
}

#[test]
fn writer_aborting_mid_write_check_is_waited_out_not_a_panic() {
    use remus::storage::mutation::arm_abort_after_write_check_read;

    let cluster = ClusterBuilder::new(1).build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    session.run(|t| t.insert(&layout, 1, val("base"))).unwrap();

    // The victim holds the newest, uncommitted version of key 1.
    let mut victim = session.begin();
    victim.update(&layout, 1, val("victim")).unwrap();
    // The schedule: the victim aborts after the second writer's write check
    // read it as in progress, before the check decides. The check used to
    // read the status a second time there and hit `unreachable!`; it must
    // report a wait on the victim, which resolves at once, and on retry
    // skip the aborted version.
    arm_abort_after_write_check_read(victim.xid());
    session
        .run(|t| t.update(&layout, 1, val("winner")))
        .unwrap();
    victim.abort();

    let (v, _) = session.run(|t| t.read(&layout, 1)).unwrap();
    assert_eq!(v, Some(val("winner")));
}

#[test]
fn skipping_prepare_wait_is_caught_and_minimized() {
    // Control: with the engine intact, the reader prepare-waits, sees the
    // committed write, and the checker passes.
    let clean = run_experiment(false);
    assert_eq!(
        clean.last().unwrap().reads[0].observed,
        Some(val("new")),
        "control run must observe the committed write"
    );
    assert!(check_history(&clean, &check_config()).is_empty());

    // Mutated: the reader skips the prepared version and observes the
    // pre-state — a stale read the checker must flag.
    let broken = run_experiment(true);
    assert_eq!(
        broken.last().unwrap().reads[0].observed,
        Some(val("base")),
        "mutated run must read past the prepared version"
    );
    let violations = check_history(&broken, &check_config());
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::StaleRead { key: 1, .. })),
        "checker missed the injected anomaly: {violations:?}"
    );

    // Pad the history with unrelated clean transactions and let the
    // shrinker strip them back out.
    let mut padded = broken.clone();
    for i in 0..10u64 {
        let ts = Timestamp(1_000 + i);
        padded.push(TxnRecord {
            xid: remus::common::TxnId::new(NodeId(0), 9_000 + i),
            client: 9,
            begin_ts: ts,
            commit_ts: Some(Timestamp(1_100 + i)),
            reads: vec![],
            writes: vec![OpWrite {
                key: 100 + i,
                snap_ts: ts,
                kind: MutKind::Insert,
                value: Some(val(&format!("pad-{i}"))),
            }],
            routes: vec![],
            replica: false,
            begin_seq: 500 + 2 * i,
            commit_seq: 501 + 2 * i,
        });
    }
    let config = check_config();
    let (minimal, min_violations) = shrink_history(&padded, |h| check_history(h, &config));
    assert!(!min_violations.is_empty());
    assert!(
        minimal.len() <= 3,
        "shrinker left {} of {} records",
        minimal.len(),
        padded.len()
    );
    // Every surviving record touches the offending key or is the reader.
    assert!(minimal
        .iter()
        .all(|r| r.reads.iter().any(|op| op.key == 1) || r.writes.iter().any(|op| op.key == 1)));
}
