//! Span-tree well-formedness: every engine's successful migration must
//! record the canonical phase sequence, close every span, and nest
//! children inside their parents (PR 2 satellite).

use std::sync::Arc;

use remus_cluster::{CcMode, Cluster, ClusterBuilder, Session};
use remus_common::{NodeId, ShardId, SimConfig, TableId};
use remus_core::trace::expected_phases;
use remus_core::{
    LockAndAbort, MigrationEngine, MigrationReport, MigrationTask, SquallEngine, WaitAndRemaster,
};
use remus_storage::Value;

fn populated_cluster(cc_mode: CcMode) -> Arc<Cluster> {
    let cluster = ClusterBuilder::new(2)
        .cc_mode(cc_mode)
        .config(SimConfig::instant())
        .build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..64 {
        session
            .run(|t| t.insert(&layout, k, Value::copy_from_slice(b"v")))
            .unwrap();
    }
    cluster
}

fn check_trace(report: &MigrationReport, engine_name: &str) {
    assert_eq!(
        report.traces.len(),
        1,
        "{engine_name}: one migration, one trace"
    );
    let trace = &report.traces[0];
    assert_eq!(trace.engine, engine_name);
    trace
        .check_well_formed()
        .unwrap_or_else(|e| panic!("{engine_name}: malformed trace: {e}"));
    let expected = expected_phases(engine_name)
        .unwrap_or_else(|| panic!("{engine_name}: no canonical phase sequence"));
    assert_eq!(
        trace.root_phases(),
        expected,
        "{engine_name}: phase sequence"
    );
}

/// Where a push engine's cleanup goes: dropping the source copy, then
/// stopping propagation and replay — two children, each inside `cleanup`.
fn check_cleanup_children(report: &MigrationReport) {
    let trace = &report.traces[0];
    let cleanup = trace.span("cleanup").unwrap();
    let kids = trace.children(cleanup.id);
    let names: Vec<_> = kids.iter().map(|s| s.name).collect();
    assert_eq!(
        names,
        vec!["drop_source", "stop_pipeline"],
        "{}",
        trace.engine
    );
    assert!(kids[0].end.unwrap() <= kids[1].start, "{}", trace.engine);
    assert!(
        kids[1].end.unwrap() <= cleanup.end.unwrap(),
        "{}",
        trace.engine
    );
}

#[test]
fn remus_trace_has_canonical_phases_and_nested_barrier() {
    let cluster = populated_cluster(CcMode::Mvcc);
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let report = remus_core::RemusEngine::new()
        .migrate(&cluster, &task)
        .unwrap();
    check_trace(&report, "remus");
    check_cleanup_children(&report);
    let trace = &report.traces[0];

    // Copy happens before the barrier, the barrier before T_m.
    let copy = trace.span("snapshot_copy").unwrap();
    let barrier = trace.span("sync_barrier").unwrap();
    let tm = trace.span("tm_2pc").unwrap();
    assert!(copy.end.unwrap() <= barrier.start);
    assert!(barrier.end.unwrap() <= tm.start);
    assert_eq!(copy.attr("tuples_copied"), Some(64));

    // The barrier's sub-steps are children, in TS_unsync-first order.
    let kids = trace.children(barrier.id);
    let names: Vec<_> = kids.iter().map(|s| s.name).collect();
    assert_eq!(names, vec!["ts_unsync_drain", "lsn_unsync_apply"]);
    assert!(kids[1].attr("lsn_unsync").is_some());
}

#[test]
fn lock_and_abort_trace_has_canonical_phases() {
    let cluster = populated_cluster(CcMode::Mvcc);
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let report = LockAndAbort::new().migrate(&cluster, &task).unwrap();
    check_trace(&report, "lock-and-abort");
    check_cleanup_children(&report);
    let trace = &report.traces[0];
    let lock = trace.span("lock_shards").unwrap();
    let tm = trace.span("tm_2pc").unwrap();
    assert!(lock.end.unwrap() <= tm.start, "locking precedes T_m");
    assert_eq!(lock.attr("forced_aborts"), Some(0));
}

#[test]
fn wait_and_remaster_trace_has_canonical_phases() {
    let cluster = populated_cluster(CcMode::Mvcc);
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let report = WaitAndRemaster::new().migrate(&cluster, &task).unwrap();
    check_trace(&report, "wait-and-remaster");
    check_cleanup_children(&report);
    let trace = &report.traces[0];
    let drain = trace.span("drain").unwrap();
    let tm = trace.span("tm_2pc").unwrap();
    assert!(drain.end.unwrap() <= tm.start, "drain precedes T_m");
}

#[test]
fn squall_trace_has_canonical_phases() {
    let cluster = populated_cluster(CcMode::ShardLock);
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let report = SquallEngine::new().migrate(&cluster, &task).unwrap();
    check_trace(&report, "squall");
    let trace = &report.traces[0];
    // Squall flips ownership before moving data: T_m precedes the pulls.
    let tm = trace.span("tm_2pc").unwrap();
    let pulls = trace.span("pulls").unwrap();
    assert!(tm.end.unwrap() <= pulls.start);
    assert_eq!(pulls.attr("pulled_tuples"), Some(64));
}

#[test]
fn absorbed_reports_keep_every_trace() {
    let mut combined = MigrationReport::new("remus");
    for _ in 0..2 {
        let cluster = populated_cluster(CcMode::Mvcc);
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let report = remus_core::RemusEngine::new()
            .migrate(&cluster, &task)
            .unwrap();
        combined.absorb(&report);
    }
    assert_eq!(combined.traces.len(), 2);
    for trace in &combined.traces {
        trace.check_well_formed().unwrap();
    }
}
