//! Teardown matrix for the migration engines: each engine × each stage
//! that can be made to fail. After the `Err` the cluster must look as if
//! the migration never started — source serving, destination empty, no
//! slot, pin, commit hook, access hook, open read-through window, closed
//! gate or suspended routing left behind — and an immediate retry of the
//! same migration must succeed.
//!
//! `T_m` is failed at its own seams (an injected `Fail` before and after
//! the prepare phase of the 2PC every migration commits through), for every
//! push engine under both isolation levels and for Squall; the row-lock row
//! is the other way `T_m` fails — a lock timeout on a shard-map row.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use remus_cluster::{CcMode, Cluster, ClusterBuilder, Session};
use remus_common::fault::{FaultAction, FaultInjector, InjectionPoint};
use remus_common::IsolationLevel::{self, Serializable, SnapshotIsolation};
use remus_common::{DbError, NodeId, ShardId, SimConfig, TableId};
use remus_core::{
    LockAndAbort, MigrationEngine, MigrationTask, RemusEngine, SquallEngine, WaitAndRemaster,
};
use remus_shard::{encode_owner, TableLayout, SHARD_MAP_SHARD};
use remus_storage::Value;
use remus_txn::{abort_txn, Txn};

const KEYS: u64 = 200;
const LOCK_WAIT: Duration = Duration::from_millis(300);
const SOURCE: NodeId = NodeId(0);
const DEST: NodeId = NodeId(1);
/// Hosts only a shard-map replica: `T_m` writes there too.
const BYSTANDER: NodeId = NodeId(2);
const TM_SEAMS: [InjectionPoint; 2] = [
    InjectionPoint::TmBeforePrepare,
    InjectionPoint::TmAfterPrepare,
];

fn val(s: &str) -> Value {
    Value::copy_from_slice(s.as_bytes())
}

fn push_engines() -> [&'static dyn MigrationEngine; 3] {
    [&RemusEngine, &LockAndAbort, &WaitAndRemaster]
}

/// The stage made to fail.
#[derive(Debug, Clone, Copy)]
enum Failure {
    /// The task names a shard the source does not host.
    MissingShardAtPlan,
    /// An injected `Fail` at this seam.
    Seam(InjectionPoint),
    /// An uncommitted writer holds a shard-map row `T_m` must update, so
    /// `T_m` times out on the row lock and aborts.
    TmRowLock,
}

struct FailAt(InjectionPoint);

impl FaultInjector for FailAt {
    fn decide(&self, point: InjectionPoint, _node: NodeId) -> FaultAction {
        if point == self.0 {
            FaultAction::Fail
        } else {
            FaultAction::Continue
        }
    }
}

fn populated_cluster(isolation: IsolationLevel, cc: CcMode) -> (Arc<Cluster>, TableLayout) {
    let config = SimConfig {
        lock_wait_timeout: LOCK_WAIT,
        ..SimConfig::instant()
    };
    let cluster = ClusterBuilder::new(3)
        .config(config)
        .isolation(isolation)
        .cc_mode(cc)
        .build();
    let layout = cluster.create_table(TableId(1), 0, 2, |_| SOURCE);
    let session = Session::connect(&cluster, SOURCE);
    for k in 0..KEYS {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }
    (cluster, layout)
}

/// A write through a fresh session, bounded so a gate left closed or
/// routing left suspended fails the test instead of hanging it.
fn bounded_write(cluster: &Arc<Cluster>, layout: TableLayout, key: u64, value: &'static str) {
    let (done_tx, done_rx) = mpsc::channel();
    let cluster = Arc::clone(cluster);
    std::thread::spawn(move || {
        let session = Session::connect(&cluster, SOURCE);
        let _ = done_tx.send(session.run(|t| t.update(&layout, key, val(value))));
    });
    done_rx
        .recv_timeout(LOCK_WAIT)
        .expect("write blocked: a gate is closed or routing is suspended")
        .expect("write failed");
}

fn check_teardown(engine: &dyn MigrationEngine, failure: Failure, isolation: IsolationLevel) {
    let ctx = format!("{} / {failure:?} / {isolation:?}", engine.name());
    // Squall pulls under H-store partition locks.
    let cc = if engine.name() == SquallEngine.name() {
        CcMode::ShardLock
    } else {
        CcMode::Mvcc
    };
    let (cluster, layout) = populated_cluster(isolation, cc);
    let (source, dest) = (cluster.node(SOURCE), cluster.node(DEST));
    let task = MigrationTask {
        shards: layout.shard_ids().collect(),
        source: SOURCE,
        dest: DEST,
    };
    let oldest_before = cluster.snapshots.oldest();
    let start_lsn = source.storage.wal.flush_lsn();

    let mut failing_task = task.clone();
    let mut blocker = None;
    match failure {
        Failure::MissingShardAtPlan => failing_task.shards.push(ShardId(99)),
        Failure::Seam(point) => cluster.install_fault_injector(Arc::new(FailAt(point))),
        Failure::TmRowLock => {
            let node = &cluster.node(BYSTANDER).storage;
            let mut txn = Txn::begin(node, cluster.oracle.start_ts(BYSTANDER));
            let row = task.shards[0].0;
            txn.update(node, SHARD_MAP_SHARD, row, encode_owner(SOURCE))
                .unwrap();
            blocker = Some(txn);
        }
    }
    let err = engine.migrate(&cluster, &failing_task).unwrap_err();
    if matches!(failure, Failure::MissingShardAtPlan) {
        assert!(matches!(err, DbError::NotOwner { .. }), "{ctx}: {err:?}");
    }
    cluster.uninstall_fault_injector();
    if let Some(mut txn) = blocker {
        abort_txn(&mut txn);
    }

    for shard in &task.shards {
        assert!(source.storage.hosts(*shard), "{ctx}: source lost {shard:?}");
        assert!(!dest.storage.hosts(*shard), "{ctx}: dest kept {shard:?}");
    }
    assert!(!dest.storage.hosts(ShardId(99)), "{ctx}");
    assert_eq!(
        cluster.snapshots.oldest(),
        oldest_before,
        "{ctx}: copy snapshot still pinned"
    );
    // No commit hook (a commit touching the shards is not asked to
    // synchronize with anything), no access hook (no statement is asked to
    // pull or abort), no read-through window (routing trusts its cache).
    assert!(
        source.storage.hook().is_none(),
        "{ctx}: commit hook left installed"
    );
    assert!(
        cluster.access_hook().is_none(),
        "{ctx}: access hook left installed"
    );
    for node in cluster.nodes() {
        for shard in &task.shards {
            let open = node.read_through.is_marked(*shard);
            assert!(!open, "{ctx}: window of {shard:?} open on {:?}", node.id());
        }
    }
    // Gates open, routing resumed, source serving.
    bounded_write(&cluster, layout, 7, "after-failure");
    let session = Session::connect(&cluster, SOURCE);
    let (v, _) = session.run(|t| t.read(&layout, 7)).unwrap();
    assert_eq!(v, Some(val("after-failure")), "{ctx}");
    // The replication slot is gone — whichever way propagation's thread
    // ended, its tail took the slot with it: truncation is held back by
    // nothing but active transactions, and moves past where the migration
    // started.
    assert_eq!(source.storage.slot_count(), 0, "{ctx}: slot left behind");
    let truncated = source.storage.truncate_wal_safely();
    assert!(truncated > start_lsn, "{ctx}: WAL pinned at {truncated:?}");
    assert_eq!(
        truncated,
        source.storage.oldest_active_begin_lsn(),
        "{ctx}: a slot still pins the WAL"
    );

    let report = engine
        .migrate(&cluster, &task)
        .unwrap_or_else(|e| panic!("{ctx}: retry failed: {e:?}"));
    assert_eq!(report.tuples_copied, KEYS, "{ctx}");
    for shard in &task.shards {
        assert!(!source.storage.hosts(*shard), "{ctx}");
        assert!(dest.storage.hosts(*shard), "{ctx}");
    }
    let (rows, _) = session.run(|t| t.scan_table(&layout)).unwrap();
    assert_eq!(rows.len() as u64, KEYS, "{ctx}");
    let (v, _) = session.run(|t| t.read(&layout, 7)).unwrap();
    assert_eq!(v, Some(val("after-failure")), "{ctx}");
}

#[test]
fn missing_shard_at_plan_leaves_cluster_clean() {
    for engine in push_engines() {
        check_teardown(engine, Failure::MissingShardAtPlan, SnapshotIsolation);
    }
}

#[test]
fn failed_snapshot_copy_leaves_cluster_clean() {
    for engine in push_engines() {
        check_teardown(
            engine,
            Failure::Seam(InjectionPoint::SnapshotCopy),
            SnapshotIsolation,
        );
    }
}

#[test]
fn failed_sync_barrier_leaves_cluster_clean() {
    check_teardown(
        &RemusEngine,
        Failure::Seam(InjectionPoint::SyncBarrier),
        SnapshotIsolation,
    );
}

#[test]
fn failed_tm_leaves_cluster_clean() {
    // Under `Serializable` the SSI hand-over fences the source before
    // `T_m` runs; the unwind has to lift that fence too.
    for isolation in [SnapshotIsolation, Serializable] {
        for engine in push_engines() {
            for seam in TM_SEAMS {
                check_teardown(engine, Failure::Seam(seam), isolation);
            }
        }
    }
}

#[test]
fn tm_row_lock_timeout_leaves_cluster_clean() {
    for engine in push_engines() {
        check_teardown(engine, Failure::TmRowLock, SnapshotIsolation);
    }
}

/// Squall flips ownership first, so all of it but the pulls is before or
/// in `T_m`: its access hook and the empty destination shards are what a
/// failure must take back.
#[test]
fn failed_squall_leaves_cluster_clean() {
    let tm_seams = TM_SEAMS.map(Failure::Seam);
    for failure in [Failure::MissingShardAtPlan, Failure::TmRowLock]
        .into_iter()
        .chain(tm_seams)
    {
        check_teardown(&SquallEngine, failure, SnapshotIsolation);
    }
}
