//! Cluster-level GC concurrency, sized for the nightly ThreadSanitizer
//! job: session traffic, background gc_tick, and long-lived snapshots all
//! racing. The safe-ts watermark must keep every registered snapshot
//! readable while shadowed history is pruned underneath it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use remus_clock::OracleKind;
use remus_cluster::{ClusterBuilder, Session};
use remus_common::{HotPathConfig, NodeId, TableId};
use remus_storage::Value;

fn val(s: &str) -> Value {
    Value::from(s.to_string().into_bytes())
}

#[test]
fn gc_tick_races_sessions_without_breaking_snapshots() {
    let cluster = ClusterBuilder::new(2).oracle(OracleKind::Gts).build();
    let layout = cluster.create_table(TableId(1), 0, 4, |i| NodeId(i % 2));
    const KEYS: u64 = 32;
    let seed = Session::connect(&cluster, NodeId(0));
    for k in 0..KEYS {
        seed.run(|t| t.insert(&layout, k, val("seed"))).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    // Two writers on disjoint keys, committing through the full 2PC path.
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let session = Session::connect(&cluster, NodeId(w as u32));
                for round in 0..150u64 {
                    for k in 0..KEYS / 2 {
                        let key = k * 2 + w;
                        session
                            .run(|t| t.update(&layout, key, val(&format!("r{round}"))))
                            .unwrap();
                    }
                }
            })
        })
        .collect();
    // A long-lived transaction: its snapshot pins the watermark, so both
    // reads — seconds of writer/GC churn apart — must agree.
    let pinned_reader = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let session = Session::connect(&cluster, NodeId(1));
            for _ in 0..20 {
                let mut txn = session.begin();
                let first = txn.read(&layout, 7).unwrap();
                assert!(first.is_some(), "seeded key 7 must be visible");
                std::thread::sleep(std::time::Duration::from_millis(5));
                let second = txn.read(&layout, 7).unwrap();
                assert_eq!(first, second, "snapshot read changed under GC");
                txn.abort();
            }
        })
    };
    // Short readers at fresh snapshots.
    let reader = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let session = Session::connect(&cluster, NodeId(0));
            for i in 0..600u64 {
                let got = session.run(|t| t.read(&layout, i % KEYS)).unwrap().0;
                assert!(got.is_some(), "seeded key vanished under GC");
            }
        })
    };
    let gc = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut pruned = 0u64;
            while !stop.load(Ordering::SeqCst) {
                pruned += cluster.gc_tick(256);
            }
            pruned
        })
    };

    for h in writers {
        h.join().unwrap();
    }
    pinned_reader.join().unwrap();
    reader.join().unwrap();
    stop.store(true, Ordering::SeqCst);
    let pruned = gc.join().unwrap();
    assert!(
        pruned > 0,
        "GC racing sessions should prune shadowed versions"
    );

    // Quiesced, every key reads its final round.
    let check = Session::connect(&cluster, NodeId(0));
    for k in 0..KEYS {
        let got = check.run(|t| t.read(&layout, k)).unwrap().0;
        assert_eq!(got, Some(val("r149")), "key {k} lost its newest version");
    }
}

/// The full `tuned()` combination — striped index, GC, *and* 64-timestamp
/// GTS leases — racing sessions on both nodes. Leases make snapshots
/// non-monotone across nodes, so GC is only sound because the safe-ts
/// watermark is clamped to the oracle's unissued-lease floor; this test
/// would read vanished versions without that clamp.
#[test]
fn tuned_hot_path_gc_races_sessions_under_gts_leases() {
    let cluster = ClusterBuilder::new(2)
        .oracle(OracleKind::Gts)
        .hot_path(HotPathConfig::tuned())
        .build();
    let layout = cluster.create_table(TableId(1), 0, 4, |i| NodeId(i % 2));
    const KEYS: u64 = 32;
    const ROUNDS: u64 = 150;
    let seed = Session::connect(&cluster, NodeId(0));
    for k in 0..KEYS {
        seed.run(|t| t.insert(&layout, k, val("seed"))).unwrap();
    }

    let handle = cluster.start_maintenance(std::time::Duration::from_secs(3600));
    let stop = Arc::new(AtomicBool::new(false));
    // Writers on disjoint keys, one per node, so both nodes hold live
    // lease blocks whose unissued remainders bound the GC watermark.
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let session = Session::connect(&cluster, NodeId(w as u32));
                for round in 0..ROUNDS {
                    for k in 0..KEYS / 2 {
                        let key = k * 2 + w;
                        // A leased snapshot may legally start below the
                        // seeding session's commits (documented cross-node
                        // lease staleness), so first-committer-wins can
                        // abort the update; retry as a real client would.
                        // Writers own disjoint keys, so the conflict can
                        // only be against an older seed/self version and
                        // must clear once the lease block drains forward.
                        loop {
                            match session.run(|t| t.update(&layout, key, val(&format!("r{round}"))))
                            {
                                Ok(_) => break,
                                Err(remus_common::DbError::WwConflict { .. }) => continue,
                                Err(e) => panic!("writer {w} key {key}: {e:?}"),
                            }
                        }
                    }
                }
            })
        })
        .collect();
    // A long transaction on node 1: its leased (possibly stale) snapshot
    // must stay readable and repeatable while GC churns underneath.
    let pinned_reader = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let session = Session::connect(&cluster, NodeId(1));
            for _ in 0..20 {
                let mut txn = session.begin();
                let first = txn.read(&layout, 7).unwrap();
                assert!(first.is_some(), "seeded key 7 must be visible");
                std::thread::sleep(std::time::Duration::from_millis(5));
                let second = txn.read(&layout, 7).unwrap();
                assert_eq!(first, second, "leased snapshot read changed under GC");
                txn.abort();
            }
        })
    };
    // Short readers at fresh (leased) snapshots on node 0.
    let reader = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let session = Session::connect(&cluster, NodeId(0));
            for i in 0..600u64 {
                let got = session.run(|t| t.read(&layout, i % KEYS)).unwrap().0;
                assert!(got.is_some(), "seeded key vanished under leased GC");
            }
        })
    };
    let gc = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut pruned = 0u64;
            while !stop.load(Ordering::SeqCst) {
                pruned += cluster.gc_tick(256);
            }
            pruned
        })
    };

    for h in writers {
        h.join().unwrap();
    }
    pinned_reader.join().unwrap();
    reader.join().unwrap();
    stop.store(true, Ordering::SeqCst);
    let pruned = gc.join().unwrap();
    cluster.stop_maintenance();
    handle.join().unwrap();
    assert!(
        pruned > 0,
        "GC under leases should still prune once blocks drain past history"
    );

    // Quiesced, each writer's keys read their final round from the
    // writer's own node: per-node lease monotonicity guarantees a fresh
    // session there starts above that writer's last commit (a session on
    // the *other* node may legally lag — the documented lease staleness).
    for w in 0..2u64 {
        let check = Session::connect(&cluster, NodeId(w as u32));
        for k in 0..KEYS / 2 {
            let key = k * 2 + w;
            let got = check.run(|t| t.read(&layout, key)).unwrap().0;
            assert_eq!(
                got,
                Some(val(&format!("r{}", ROUNDS - 1))),
                "key {key} lost its newest version under leased GC"
            );
        }
    }
}

#[test]
fn background_maintenance_gc_prunes_while_sessions_commit() {
    let mut config = remus_common::SimConfig::instant();
    config.hot_path.gc_interval = std::time::Duration::from_millis(1);
    let cluster = ClusterBuilder::new(1)
        .oracle(OracleKind::Gts)
        .config(config)
        .build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..8u64 {
        session.run(|t| t.insert(&layout, k, val("seed"))).unwrap();
    }
    let handle = cluster.start_maintenance(std::time::Duration::from_secs(3600));
    for round in 0..300u64 {
        for k in 0..8u64 {
            session
                .run(|t| t.update(&layout, k, val(&format!("r{round}"))))
                .unwrap();
        }
    }
    let gc_pruned = || -> u64 {
        cluster
            .metrics_snapshot()
            .iter()
            .filter(|s| s.name == "storage.gc_pruned")
            .map(|s| s.value)
            .sum()
    };
    // The updates can all land before the first 1 ms tick: give the
    // background thread a bounded chance to run a pass before stopping it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while gc_pruned() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    cluster.stop_maintenance();
    handle.join().unwrap();
    // The background thread pruned shadowed versions.
    assert!(gc_pruned() > 0, "maintenance GC never pruned anything");
    for k in 0..8u64 {
        let got = session.run(|t| t.read(&layout, k)).unwrap().0;
        assert_eq!(got, Some(val("r299")));
    }
}
