//! End-to-end crash recovery (paper §3.7): the fate of an interrupted
//! migration follows `T_m`'s 2PC state, and in-doubt shadow transactions
//! follow their source transaction's decision.

use std::sync::Arc;

use remus::chaos::{FaultSpec, PlanInjector};
use remus::cluster::{Cluster, ClusterBuilder, Session};
use remus::common::IsolationLevel::{Serializable, SnapshotIsolation};
use remus::common::{
    DbError, FaultAction, InjectionPoint, IsolationLevel, NodeId, ShardId, TableId, Timestamp,
    TxnId,
};
use remus::migration::diversion::run_tm;
use remus::migration::mocc::ValidationRegistry;
use remus::migration::recovery::{recover_migration, resolve_prepared_shadows, RecoveryDecision};
use remus::migration::replay::{ApplyMsg, ReplayProcess};
use remus::migration::snapshot::copy_shard_snapshot;
use remus::migration::{MigrationEngine, MigrationTask, RemusEngine};
use remus::storage::Value;
use remus::txn::{prepare_participant, Txn};
use remus::wal::{Lsn, WriteKind, WriteOp};

fn val(s: &str) -> Value {
    Value::copy_from_slice(s.as_bytes())
}

/// Runs the one `T_m` every migration runs with a scripted coordinator
/// crash armed at `point`, returning the xid it leaves in doubt.
fn crash_tm_at(cluster: &Arc<Cluster>, task: &MigrationTask, point: InjectionPoint) -> TxnId {
    cluster.install_fault_injector(Arc::new(PlanInjector::from_specs(vec![FaultSpec {
        point,
        node: task.source,
        occurrence: 0,
        action: FaultAction::Crash,
    }])));
    let outcome = run_tm(cluster, task, true);
    cluster.uninstall_fault_injector();
    match outcome {
        Err(DbError::InDoubt(xid)) => xid,
        other => panic!("crash at {point}: expected an in-doubt T_m, got {other:?}"),
    }
}

/// The commit timestamp of `tm` on the participants that entered phase two.
fn committed_participants(cluster: &Cluster, tm: TxnId) -> Vec<Timestamp> {
    let nodes = cluster.nodes().iter();
    nodes.filter_map(|n| n.storage.clog.commit_ts(tm)).collect()
}

/// Crash before `T_m` commits: the migration rolls back; the source still
/// serves every committed write, including ones made after the (discarded)
/// snapshot copy.
#[test]
fn crash_before_tm_commit_rolls_back_and_source_serves() {
    let cluster = ClusterBuilder::new(2).build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..40u64 {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }
    // The crashed migration got as far as the snapshot copy...
    let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
    copy_shard_snapshot(
        &cluster,
        cluster.node(NodeId(0)),
        cluster.node(NodeId(1)),
        ShardId(0),
        snapshot_ts,
    )
    .unwrap();
    // ... a post-snapshot commit on the source ...
    session.run(|t| t.update(&layout, 7, val("v1"))).unwrap();
    // ... and an in-doubt T_m.
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let tm = crash_tm_at(&cluster, &task, InjectionPoint::TmAfterPrepare);

    let decision = recover_migration(&cluster, &task, tm).unwrap();
    assert_eq!(decision, RecoveryDecision::RolledBack);
    assert!(cluster.node(NodeId(0)).storage.hosts(ShardId(0)));
    assert!(!cluster.node(NodeId(1)).storage.hosts(ShardId(0)));
    let (v, _) = session.run(|t| t.read(&layout, 7)).unwrap();
    assert_eq!(v, Some(val("v1")));
    // The cluster accepts a fresh migration of the same shard afterwards.
    RemusEngine::new().migrate(&cluster, &task).unwrap();
    let (v, _) = session.run(|t| t.read(&layout, 7)).unwrap();
    assert_eq!(v, Some(val("v1")));
}

/// Crash mid phase-two of `T_m` with a prepared shadow in flight: the
/// migration rolls forward; the shadow commits with its source's
/// timestamp; the destination serves everything.
#[test]
fn crash_after_tm_commit_rolls_forward_with_in_doubt_shadow() {
    let cluster = ClusterBuilder::new(3).build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..40u64 {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }
    // Snapshot fully copied before the crash.
    let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
    copy_shard_snapshot(
        &cluster,
        cluster.node(NodeId(0)),
        cluster.node(NodeId(1)),
        ShardId(0),
        snapshot_ts,
    )
    .unwrap();

    // A synchronized source transaction that committed on the source while
    // its shadow was still prepared on the destination (MOCC's key
    // property: source commit implies shadow prepared).
    let source = cluster.node(NodeId(0));
    let dest = cluster.node(NodeId(1));
    let sx = source.storage.alloc_xid();
    let start = cluster.oracle.start_ts(NodeId(0));
    let mut shadow = Txn::begin_with(sx.shadow(), start, dest.id());
    shadow
        .update(&dest.storage, ShardId(0), 7, val("sync-write"))
        .unwrap();
    prepare_participant(&dest.storage, sx.shadow()).unwrap();
    source.storage.clog.begin(sx);
    let cts = cluster.oracle.commit_ts(NodeId(0));
    source.storage.clog.set_committed(sx, cts).unwrap();
    // Mirror the write on the source so both copies agree once recovered.
    source
        .storage
        .table(ShardId(0))
        .unwrap()
        .install_frozen(7, val("sync-write"));

    // T_m crashed mid phase two: one participant already committed.
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let tm = crash_tm_at(&cluster, &task, InjectionPoint::TmAfterFirstCommit);
    let committed = committed_participants(&cluster, tm);
    let [ts] = committed[..] else {
        panic!("expected one committed participant, got {committed:?}");
    };

    let decision = recover_migration(&cluster, &task, tm).unwrap();
    assert_eq!(decision, RecoveryDecision::RolledForward(ts));
    assert!(!cluster.node(NodeId(0)).storage.hosts(ShardId(0)));
    assert!(cluster.node(NodeId(1)).storage.hosts(ShardId(0)));

    // The shadow followed its source's decision: committed at `cts`.
    assert_eq!(
        dest.storage.clog.status(sx.shadow()),
        remus::storage::TxnStatus::Committed(cts)
    );
    let (v, _) = session.run(|t| t.read(&layout, 7)).unwrap();
    assert_eq!(v, Some(val("sync-write")));
    // And all 40 keys survived.
    let (rows, _) = session.run(|t| t.scan_table(&layout)).unwrap();
    assert_eq!(rows.len(), 40);
}

/// The crash matrix: a coordinator crash at each seam of the 2PC `T_m`
/// commits through, under both isolation levels. Recovery decides by the
/// 2PC rule — committed iff some participant entered phase two — and leaves
/// a cluster with nothing in doubt that accepts the next migration.
#[test]
fn tm_crash_at_every_seam_recovers_by_the_2pc_rule() {
    use InjectionPoint::{TmAfterFirstCommit, TmAfterPrepare, TmBeforeCommit, TmBeforePrepare};
    for isolation in [SnapshotIsolation, Serializable] {
        for point in [
            TmBeforePrepare,
            TmAfterPrepare,
            TmBeforeCommit,
            TmAfterFirstCommit,
        ] {
            check_tm_crash(point, isolation);
        }
    }
}

fn check_tm_crash(point: InjectionPoint, isolation: IsolationLevel) {
    let ctx = format!("crash at {point} / {isolation:?}");
    let (source, dest, shard) = (NodeId(0), NodeId(1), ShardId(0));
    let cluster = ClusterBuilder::new(3).isolation(isolation).build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| source);
    let session = Session::connect(&cluster, NodeId(2));
    for k in 0..40u64 {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }
    let snapshot_ts = cluster.oracle.start_ts(source);
    copy_shard_snapshot(
        &cluster,
        cluster.node(source),
        cluster.node(dest),
        shard,
        snapshot_ts,
    )
    .unwrap();

    let task = MigrationTask::single(shard, source, dest);
    let tm = crash_tm_at(&cluster, &task, point);
    let phase_two = committed_participants(&cluster, tm);
    let decision = recover_migration(&cluster, &task, tm).unwrap();
    let owner = match (point, &phase_two[..]) {
        (InjectionPoint::TmAfterFirstCommit, [ts]) => {
            assert_eq!(decision, RecoveryDecision::RolledForward(*ts), "{ctx}");
            dest
        }
        (InjectionPoint::TmAfterFirstCommit, _) => {
            panic!("{ctx}: expected one participant in phase two, got {phase_two:?}")
        }
        _ => {
            assert!(phase_two.is_empty(), "{ctx}: {phase_two:?}");
            assert_eq!(decision, RecoveryDecision::RolledBack, "{ctx}");
            source
        }
    };
    for node in cluster.nodes() {
        let (id, storage) = (node.id(), &node.storage);
        let row = cluster.current_owner(node, shard).unwrap();
        assert_eq!(row.node, owner, "{ctx}: owner row on {id:?}");
        if let RecoveryDecision::RolledForward(ts) = decision {
            assert_eq!(row.cts, ts, "{ctx}: owner row on {id:?}");
        }
        assert_eq!(storage.hosts(shard), id == owner, "{ctx}: copy on {id:?}");
        assert_eq!(storage.active_count(), 0, "{ctx}: active on {id:?}");
        let prepared = storage.clog.prepared_txns();
        assert!(
            prepared.is_empty(),
            "{ctx}: {prepared:?} in doubt on {id:?}"
        );
        let open = node.read_through.is_marked(shard);
        assert!(!open, "{ctx}: read-through window open on {id:?}");
    }

    // A fresh migration of the same shard: the cancelled one retried, or
    // the next one off the new owner.
    let next = if owner == source {
        task
    } else {
        MigrationTask::single(shard, dest, NodeId(2))
    };
    RemusEngine::new()
        .migrate(&cluster, &next)
        .unwrap_or_else(|e| panic!("{ctx}: fresh migration failed: {e:?}"));
    assert!(cluster.node(next.dest).storage.hosts(shard), "{ctx}");
    let (rows, _) = session.run(|t| t.scan_table(&layout)).unwrap();
    assert_eq!(rows.len(), 40, "{ctx}");
}

/// A destination crash wipes the validation registry: prepared shadows of
/// aborted (or unknown) source transactions roll back and their writes
/// vanish.
#[test]
fn shadows_of_unresolved_sources_roll_back() {
    let cluster = ClusterBuilder::new(2).build();
    cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let dest = cluster.node(NodeId(1));
    dest.storage.create_shard(ShardId(0));

    let source = cluster.node(NodeId(0));
    // Aborted source transaction with a prepared shadow.
    let a = source.storage.alloc_xid();
    let mut sa = Txn::begin_with(a.shadow(), Timestamp(10), dest.id());
    sa.insert(&dest.storage, ShardId(0), 1, val("a")).unwrap();
    prepare_participant(&dest.storage, a.shadow()).unwrap();
    source.storage.clog.begin(a);
    source.storage.clog.set_aborted(a);

    let (committed, rolled_back) = resolve_prepared_shadows(source, dest);
    assert_eq!((committed, rolled_back), (0, 1));
    let table = dest.storage.table(ShardId(0)).unwrap();
    assert_eq!(table.stats().versions, 0);
}

/// The destination "crashes" in the middle of MOCC validation (injected via
/// the chaos seam): the shadow is already prepared but the validation ack
/// never reaches the source. The source transaction must abort (it cannot
/// commit without the verdict), and recovery resolves the orphaned prepared
/// shadow by rolling it back.
#[test]
fn destination_crash_during_mocc_validation_leaves_resolvable_shadow() {
    let cluster = ClusterBuilder::new(2).build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..20u64 {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }
    let snapshot_ts = cluster.oracle.start_ts(NodeId(0));
    copy_shard_snapshot(
        &cluster,
        cluster.node(NodeId(0)),
        cluster.node(NodeId(1)),
        ShardId(0),
        snapshot_ts,
    )
    .unwrap();

    // Crash the destination at its first MOCC validation.
    cluster.install_fault_injector(Arc::new(PlanInjector::from_specs(vec![FaultSpec {
        point: InjectionPoint::MoccValidation,
        node: NodeId(1),
        occurrence: 0,
        action: FaultAction::Crash,
    }])));

    let source = cluster.node(NodeId(0));
    let dest = Arc::clone(cluster.node(NodeId(1)));
    let registry = Arc::new(ValidationRegistry::new());
    let (replay, mut feed) = ReplayProcess::start(&cluster, &dest, Arc::clone(&registry));

    // A synchronized source transaction sends its write set for validation.
    let sx = source.storage.alloc_xid();
    let validate = ApplyMsg::Validate {
        xid: sx,
        start_ts: cluster.oracle.start_ts(NodeId(0)),
        ops: vec![WriteOp {
            shard: ShardId(0),
            key: 7,
            kind: WriteKind::Update,
            value: val("never-acked"),
        }],
    };
    feed.ship(Lsn(1), validate);

    // The verdict surfaces the crash instead of validation-ok...
    let err = registry
        .await_verdict(sx, std::time::Duration::from_secs(2))
        .unwrap_err();
    assert_eq!(err, DbError::NodeUnavailable(NodeId(1)));
    // ... while the shadow was prepared before the "crash" (MOCC prepares
    // before acking, so a committed source always implies a prepared
    // shadow — here the source never commits).
    assert_eq!(
        dest.storage.clog.status(sx.shadow()),
        remus::storage::TxnStatus::Prepared
    );

    // The source transaction aborts for lack of a verdict.
    source.storage.clog.begin(sx);
    source.storage.clog.set_aborted(sx);

    // Recovery rolls the orphaned shadow back; the destination copy still
    // serves the pre-crash value.
    let (committed, rolled_back) = resolve_prepared_shadows(source, &dest);
    assert_eq!((committed, rolled_back), (0, 1));
    assert_eq!(
        dest.storage.clog.status(sx.shadow()),
        remus::storage::TxnStatus::Aborted
    );
    let probe = Txn::begin(&dest.storage, Timestamp(u64::MAX / 2));
    assert_eq!(
        probe.read(&dest.storage, ShardId(0), 7).unwrap(),
        Some(val("v0"))
    );

    cluster.uninstall_fault_injector();
    drop(feed);
    // The replay process is dropped un-joined: its worker pool "died with
    // the node"; the prepared shadow was resolved from CLOG state alone.
    drop(replay);
}

/// Propagation lag plus a widened sync-barrier window (both injected) while
/// a writer keeps committing: Remus must still drain `TS_unsync`, divert,
/// and finish with every last committed value on the destination.
#[test]
fn propagation_lag_during_sync_barrier_still_converges() {
    let cluster = ClusterBuilder::new(3).build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..40u64 {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }

    // Slow the first shipments and the sync barrier itself.
    let mut specs: Vec<FaultSpec> = (0..5u32)
        .map(|occurrence| FaultSpec {
            point: InjectionPoint::PropagationShip,
            node: NodeId(0),
            occurrence,
            action: FaultAction::Delay(std::time::Duration::from_millis(5)),
        })
        .collect();
    specs.push(FaultSpec {
        point: InjectionPoint::SyncBarrier,
        node: NodeId(0),
        occurrence: 0,
        action: FaultAction::Delay(std::time::Duration::from_millis(20)),
    });
    cluster.install_fault_injector(Arc::new(PlanInjector::from_specs(specs)));

    // A writer keeps updating throughout the migration.
    let writer = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let session = Session::connect(&cluster, NodeId(2));
            let mut committed: Vec<(u64, Value, Timestamp)> = Vec::new();
            for i in 0..60u64 {
                let key = i % 40;
                let value = val(&format!("w{i}"));
                if let Ok(((), cts)) = session.run(|t| t.update(&layout, key, value.clone())) {
                    committed.push((key, value, cts));
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            committed
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(5));
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    RemusEngine::new().migrate(&cluster, &task).unwrap();
    let committed = writer.join().unwrap();
    cluster.uninstall_fault_injector();

    // Ownership flipped and every last committed value is served.
    let owner = cluster
        .current_owner(cluster.node(NodeId(2)), ShardId(0))
        .unwrap();
    assert_eq!(owner.node, NodeId(1));
    assert!(!committed.is_empty());
    let max_cts = committed.iter().map(|(_, _, c)| *c).max().unwrap();
    let mut last: std::collections::HashMap<u64, Value> = std::collections::HashMap::new();
    for (key, value, _) in &committed {
        last.insert(*key, value.clone());
    }
    let reader = Session::connect(&cluster, NodeId(2));
    let mut txn = reader.begin_after(max_cts);
    for (key, value) in &last {
        assert_eq!(txn.read(&layout, *key).unwrap().as_ref(), Some(value));
    }
    txn.abort();
}
