//! Write-driven GC across a live migration: the destination shard is built
//! by frozen installs (clean chains, nothing pending) and then written by
//! replayed shadow transactions and diverted sessions, all through the same
//! table API — so every chain they leave with something to prune must be
//! pending on the *destination*, and draining leaves one version per key.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use remus_clock::OracleKind;
use remus_cluster::{ClusterBuilder, Session};
use remus_common::{NodeId, ShardId, SimConfig, TableId};
use remus_core::{MigrationEngine, MigrationTask, RemusEngine};
use remus_storage::Value;

const KEYS: u64 = 256;

#[test]
fn destination_shard_drains_to_one_version_per_key_after_remus_under_updates() {
    // GTS: once the sessions are done the watermark is above every commit.
    let cluster = ClusterBuilder::new(2)
        .oracle(OracleKind::Gts)
        .config(SimConfig::instant())
        .build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let seed = Session::connect(&cluster, NodeId(0));
    for k in 0..KEYS {
        seed.run(|t| t.insert(&layout, k, Value::copy_from_slice(b"v0")))
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let updaters: Vec<_> = (0..2u64)
        .map(|w| {
            let (cluster, stop) = (Arc::clone(&cluster), Arc::clone(&stop));
            std::thread::spawn(move || {
                let session = Session::connect(&cluster, NodeId(w as u32));
                let mut commits = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    for k in (w..KEYS).step_by(2) {
                        let v = Value::from(format!("w{w}c{commits}").into_bytes());
                        session.run(|t| t.update(&layout, k, v.clone())).unwrap();
                        commits += 1;
                    }
                }
                commits
            })
        })
        .collect();
    // GC races the copy, the replay and the diverted writers.
    let collector = {
        let (cluster, stop) = (Arc::clone(&cluster), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                cluster.gc_tick(64);
                std::thread::yield_now();
            }
        })
    };

    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let report = RemusEngine::new().migrate(&cluster, &task).unwrap();
    assert_eq!(report.forced_aborts, 0);
    // Let the diverted sessions write on the destination for a while.
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    let commits: u64 = updaters.into_iter().map(|h| h.join().unwrap()).sum();
    collector.join().unwrap();
    assert!(commits >= KEYS, "the updaters ran");

    assert!(!cluster.node(NodeId(0)).storage.hosts(ShardId(0)));
    cluster.vacuum_tick();
    let dest = cluster.node(NodeId(1));
    let table = dest.storage.table(ShardId(0)).unwrap();
    let stats = table.stats();
    assert_eq!(
        (stats.keys, stats.versions, stats.max_chain),
        (KEYS as usize, KEYS as usize, 1),
        "a destination chain that needed GC was not pending"
    );
    let idle = table.gc_step(cluster.safe_ts_watermark(), &dest.storage.clog, usize::MAX);
    assert_eq!(idle.scanned, 0, "nothing is left pending");
}
