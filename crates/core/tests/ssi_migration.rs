//! SSI state handover across live migrations: the transfer path (Remus)
//! keeps straddling serializable transactions correct across the move, and
//! the conservative path (lock-and-abort) dooms straddling readers that
//! plain force-abort would miss.

use std::sync::Arc;

use remus_cluster::{ClusterBuilder, Session};
use remus_common::{DbError, IsolationLevel, NodeId, ShardId, TableId};
use remus_core::{LockAndAbort, MigrationEngine, MigrationTask, RemusEngine};
use remus_storage::Value;

fn val(s: &str) -> Value {
    Value::copy_from_slice(s.as_bytes())
}

/// Remus transfer path: a reader commits on the source before the move;
/// its retained SIREAD entry must follow the shard so a post-migration
/// writer on the destination completes the dangerous structure against it.
#[test]
fn remus_transfers_retained_sireads_to_the_destination() {
    let cluster = ClusterBuilder::new(2)
        .isolation(IsolationLevel::Serializable)
        .build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..20u64 {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }
    // The reader observes key 3 and commits pre-migration. Its handle now
    // sits in the source SIREAD table, phase Committed, and stays there —
    // no GC tick runs in this test, so retention cannot race the move.
    session.run(|t| t.read(&layout, 3)).unwrap();

    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    RemusEngine::new().migrate(&cluster, &task).unwrap();

    // The entry moved: the destination's SIREAD table holds it.
    let dst_ssi = cluster
        .node(NodeId(1))
        .storage
        .ssi
        .as_ref()
        .expect("serializable cluster arms SSI on every node");
    assert!(
        dst_ssi.siread_count() > 0,
        "no SIREAD entries arrived on the destination"
    );
    let src_departed_err = {
        // Post-migration the source fence stays up until a back-migration
        // imports the shard again; direct SSI access there is refused.
        let src_ssi = cluster.node(NodeId(0)).storage.ssi.as_ref().unwrap();
        let probe = remus_txn::SsiTxn::new(
            remus_common::TxnId::new(NodeId(0), u32::MAX as u64),
            remus_common::Timestamp(1),
        );
        src_ssi.on_read(&probe, ShardId(0), 3).unwrap_err()
    };
    assert!(src_departed_err.is_migration_induced());
    // Ordinary serializable traffic continues on the new owner.
    session.run(|t| t.update(&layout, 3, val("v1"))).unwrap();
    let (v, _) = session.run(|t| t.read(&layout, 3)).unwrap();
    assert_eq!(v, Some(val("v1")));
}

/// Lock-and-abort conservative path: a long-running serializable *reader*
/// holds no write locks, so the engine's force-abort sweep never sees it —
/// the SSI straddler doom must catch it instead.
#[test]
fn lock_and_abort_dooms_straddling_serializable_readers() {
    let cluster = ClusterBuilder::new(2)
        .isolation(IsolationLevel::Serializable)
        .build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..10u64 {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }
    let reader_session = Session::connect(&cluster, NodeId(0));
    let mut reader = reader_session.begin();
    assert_eq!(reader.read(&layout, 3).unwrap(), Some(val("v0")));

    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let report = LockAndAbort::new().migrate(&cluster, &task).unwrap();
    assert!(
        report.forced_aborts >= 1,
        "the straddling reader was not counted as a victim"
    );
    // The reader is doomed: its commit fails as migration-induced, not as
    // a serialization failure (nothing was wrong with its reads).
    let err = reader.commit().unwrap_err();
    assert!(
        err.is_migration_induced() && !matches!(err, DbError::SsiAbort { .. }),
        "got {err:?}"
    );
    // Fresh serializable transactions proceed on the destination.
    session.run(|t| t.update(&layout, 3, val("v1"))).unwrap();
}

/// Red on the parent, where the straddler doom also went into the source's
/// doom list, and the reader — not a participant there — never cleared it.
#[test]
fn a_doomed_straddling_reader_leaves_no_doom_entry_behind() {
    let cluster = ClusterBuilder::new(2)
        .isolation(IsolationLevel::Serializable)
        .build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..10u64 {
        session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
    }
    let reader_session = Session::connect(&cluster, NodeId(0));
    let mut reader = reader_session.begin();
    assert_eq!(reader.read(&layout, 3).unwrap(), Some(val("v0")));
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    LockAndAbort::new().migrate(&cluster, &task).unwrap();
    assert!(reader.commit().unwrap_err().is_migration_induced());
    let source = &cluster.node(NodeId(0)).storage;
    assert_eq!(source.doomed_count(), 0);
}

/// The SI default takes none of this machinery: the same straddling reader
/// survives a lock-and-abort migration untouched (regression guard that
/// the handover is opt-in).
#[test]
fn si_mode_reader_survives_lock_and_abort_untouched() {
    let cluster = ClusterBuilder::new(2).build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    session.run(|t| t.insert(&layout, 3, val("v0"))).unwrap();
    let reader_session = Session::connect(&cluster, NodeId(0));
    let mut reader = reader_session.begin();
    assert_eq!(reader.read(&layout, 3).unwrap(), Some(val("v0")));
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let report = LockAndAbort::new().migrate(&cluster, &task).unwrap();
    assert_eq!(
        report.forced_aborts, 0,
        "a pure reader holds no write locks"
    );
    reader.commit().unwrap();
    let _ = Arc::strong_count(&cluster);
}
