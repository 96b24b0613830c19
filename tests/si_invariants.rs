//! Cross-crate integration tests: snapshot-isolation invariants hold while
//! each migration engine moves shards under concurrent load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use remus::cluster::{CcMode, Cluster, ClusterBuilder, Session, SessionTxn};
use remus::common::{NodeId, ShardId, SimConfig, TableId};
use remus::migration::{
    LockAndAbort, MigrationEngine, MigrationTask, RemusEngine, SquallEngine, WaitAndRemaster,
};
use remus::storage::Value;

fn val(tag: u64) -> Value {
    Value::from(tag.to_le_bytes().to_vec())
}

fn tag_of(v: &Value) -> u64 {
    u64::from_le_bytes(v.as_ref()[..8].try_into().unwrap())
}

fn setup(cc: CcMode) -> (Arc<Cluster>, remus::shard::TableLayout) {
    let cluster = ClusterBuilder::new(3)
        .cc_mode(cc)
        .config(SimConfig::instant())
        .build();
    let layout = cluster.create_table(TableId(1), 0, 3, |i| NodeId(i % 3));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..120u64 {
        session.run(|t| t.insert(&layout, k, val(0))).unwrap();
    }
    (cluster, layout)
}

/// Counter transactions increment disjoint keys; after a migration, every
/// key's value equals the number of successful increments — no lost
/// updates, no double application, for every engine.
fn no_lost_updates_under(engine: &dyn MigrationEngine, cc: CcMode) {
    let (cluster, layout) = setup(cc);
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let session = Session::connect(&cluster, NodeId(w as u32 % 3));
                let mut counts = std::collections::HashMap::new();
                let mut last_cts = remus::common::Timestamp::INVALID;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = w * 40 + (i % 40);
                    // Read-modify-write increment.
                    let r = session.run(|t| {
                        let cur = t.read(&layout, key)?.map(|v| tag_of(&v)).unwrap_or(0);
                        t.update(&layout, key, val(cur + 1))
                    });
                    if let Ok((_, cts)) = r {
                        *counts.entry(key).or_insert(0u64) += 1;
                        last_cts = last_cts.max(cts);
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_micros(400));
                }
                (counts, last_cts)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    // Move shard 0 from node 0 to node 2 (and shard 1 from node 1 to
    // node 0) while the counters run.
    engine
        .migrate(
            &cluster,
            &MigrationTask::single(ShardId(0), NodeId(0), NodeId(2)),
        )
        .unwrap();
    engine
        .migrate(
            &cluster,
            &MigrationTask::single(ShardId(1), NodeId(1), NodeId(0)),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);

    let mut expected = std::collections::HashMap::new();
    let mut causal_token = remus::common::Timestamp::INVALID;
    for w in writers {
        let (counts, last_cts) = w.join().unwrap();
        causal_token = causal_token.max(last_cts);
        for (k, n) in counts {
            *expected.entry(k).or_insert(0u64) += n;
        }
    }
    // Verify from another node, carrying the writers' causal token (DTS
    // cross-session snapshots may otherwise be legitimately stale, §2.2).
    let session = Session::connect(&cluster, NodeId(2));
    let mut verify = session.begin_after(causal_token);
    for (key, count) in expected {
        let v = verify.read(&layout, key).unwrap();
        assert_eq!(
            tag_of(&v.expect("key must exist")),
            count,
            "lost or duplicated update on key {key} under {}",
            engine.name()
        );
    }
    verify.commit().unwrap();
}

#[test]
fn no_lost_updates_remus() {
    no_lost_updates_under(&RemusEngine::new(), CcMode::Mvcc);
}

#[test]
fn no_lost_updates_lock_and_abort() {
    no_lost_updates_under(&LockAndAbort::new(), CcMode::Mvcc);
}

#[test]
fn no_lost_updates_wait_and_remaster() {
    no_lost_updates_under(&WaitAndRemaster::new(), CcMode::Mvcc);
}

#[test]
fn no_lost_updates_squall() {
    no_lost_updates_under(&SquallEngine::new(), CcMode::ShardLock);
}

/// A long-running snapshot reader sees a stable snapshot across a Remus
/// migration: repeated reads of the same keys within one transaction
/// return identical values even though writers churn and the shard moves.
#[test]
fn snapshot_stability_across_migration() {
    let (cluster, layout) = setup(CcMode::Mvcc);
    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let paused = Arc::new(AtomicBool::new(false));
    let writer = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        let pause = Arc::clone(&pause);
        let paused = Arc::clone(&paused);
        std::thread::spawn(move || {
            let session = Session::connect(&cluster, NodeId(1));
            let mut i = 1u64;
            while !stop.load(Ordering::Relaxed) {
                while pause.load(Ordering::Acquire) {
                    paused.store(true, Ordering::Release);
                    std::thread::sleep(Duration::from_micros(100));
                }
                paused.store(false, Ordering::Relaxed);
                let key = i % 120;
                let _ = session.run(|t| t.update(&layout, key, val(i)));
                i += 1;
                std::thread::sleep(Duration::from_micros(300));
            }
        })
    };

    let reader_session = Session::connect(&cluster, NodeId(2));
    let mut reader = reader_session.begin();
    // Under DTS a commit issued *after* this snapshot can still receive a
    // timestamp below it from another node's lagging clock and surface
    // mid-transaction (the paper's documented concession — see
    // `Dts::without_observe_skew_allows_stale_snapshots`). Deployments close
    // this with causal tokens; here we quiesce the writer once and fold the
    // snapshot into every node's clock, so all later commit timestamps land
    // above it and the stability assertion tests the engine, not the clocks.
    pause.store(true, Ordering::Release);
    while !paused.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(100));
    }
    for node in cluster.nodes() {
        cluster.oracle.observe(node.id(), reader.start_ts());
    }
    pause.store(false, Ordering::Release);

    let first: Vec<Option<u64>> = (0..120)
        .map(|k| reader.read(&layout, k).unwrap().map(|v| tag_of(&v)))
        .collect();

    let migration = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            RemusEngine::new().migrate(
                &cluster,
                &MigrationTask::single(ShardId(0), NodeId(0), NodeId(2)),
            )
        })
    };
    // Re-read under the same snapshot while the migration runs.
    for _ in 0..5 {
        for k in 0..120u64 {
            let now = reader.read(&layout, k).unwrap().map(|v| tag_of(&v));
            assert_eq!(now, first[k as usize], "snapshot moved for key {k}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    reader.commit().unwrap();
    migration.join().unwrap().unwrap();
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

/// Internal consistency: a transaction's scan sees what its point reads see
/// — its own insert, update and delete included — while a concurrent
/// session's scan sees none of it, and after an abort nobody does.
#[test]
fn scan_agrees_with_point_reads_on_own_writes() {
    let (cluster, layout) = setup(CcMode::Mvcc);
    // Both sessions on the node `setup` committed through: no DTS skew.
    let mine = Session::connect(&cluster, NodeId(0));
    let theirs = Session::connect(&cluster, NodeId(0));
    let scan = |t: &mut SessionTxn| {
        let rows = t.scan_table(&layout).unwrap();
        let mut rows: Vec<(u64, u64)> = rows.iter().map(|(k, v)| (*k, tag_of(v))).collect();
        rows.sort();
        rows
    };
    let committed: Vec<(u64, u64)> = (0..120).map(|k| (k, 0)).collect();

    let mut writer = mine.begin();
    writer.insert(&layout, 500, val(7)).unwrap();
    writer.update(&layout, 1, val(9)).unwrap();
    writer.delete(&layout, 2).unwrap();
    let by_point_reads: Vec<(u64, u64)> = (0..=500)
        .filter_map(|k| Some((k, tag_of(&writer.read(&layout, k).unwrap()?))))
        .collect();
    assert_eq!(by_point_reads[..2], [(0, 0), (1, 9)]);
    assert_eq!(by_point_reads[2..4], [(3, 0), (4, 0)], "own delete");
    assert_eq!(by_point_reads.last(), Some(&(500, 7)), "own insert");
    assert_eq!(scan(&mut writer), by_point_reads);

    let mut concurrent = theirs.begin();
    assert_eq!(scan(&mut concurrent), committed);
    concurrent.commit().unwrap();

    writer.abort();
    for session in [&mine, &theirs] {
        let mut after = session.begin();
        assert_eq!(scan(&mut after), committed);
        after.commit().unwrap();
    }
}

/// The migration itself preserves the committed data exactly: the multiset
/// of (key, value) pairs visible after the move equals the one before it
/// when the system is quiescent.
#[test]
fn quiescent_migration_is_lossless_for_every_engine() {
    let engines: Vec<(Box<dyn MigrationEngine>, CcMode)> = vec![
        (Box::new(RemusEngine::new()), CcMode::Mvcc),
        (Box::new(LockAndAbort::new()), CcMode::Mvcc),
        (Box::new(WaitAndRemaster::new()), CcMode::Mvcc),
        (Box::new(SquallEngine::new()), CcMode::ShardLock),
    ];
    for (engine, cc) in engines {
        let (cluster, layout) = setup(cc);
        let session = Session::connect(&cluster, NodeId(1));
        for k in 0..120u64 {
            session
                .run(|t| t.update(&layout, k, val(k * 3 + 1)))
                .unwrap();
        }
        let (mut before, _) = session.run(|t| t.scan_table(&layout)).unwrap();
        engine
            .migrate(
                &cluster,
                &MigrationTask::single(ShardId(0), NodeId(0), NodeId(1)),
            )
            .unwrap();
        let (mut after, _) = session.run(|t| t.scan_table(&layout)).unwrap();
        before.sort();
        after.sort();
        assert_eq!(before.len(), 120);
        assert_eq!(
            before,
            after,
            "data changed across {} migration",
            engine.name()
        );
    }
}
