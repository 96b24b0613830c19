//! Begins on several coordinators at once, sized for the nightly
//! ThreadSanitizer job: each coordinator registers its transactions on its
//! own stripe of the snapshot registry, long-lived pins go to the pin
//! stripe, and the safe-ts watermark holds every stripe while it reads. No
//! transaction that is live when the watermark is read may start below it,
//! and nothing may stay registered or counted once every thread is done. A
//! drainer parks on the registry's signal meanwhile, so every release races
//! a park; it must come back once the sessions stop.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use remus_clock::OracleKind;
use remus_cluster::{ClusterBuilder, Session};
use remus_common::{NodeId, TableId};
use remus_shard::TableLayout;
use remus_storage::Value;

const COORDINATORS: u32 = 3;
const TXNS: u64 = 300;
const PINS: u64 = 1_000;
const WATERMARKS: u64 = 1_000;

fn val(round: u64) -> Value {
    Value::from(format!("r{round}").into_bytes())
}

/// A key of `layout` whose shard `node` owns (shard `i` lives on node `i`).
fn key_on(layout: &TableLayout, node: u32) -> u64 {
    (0..)
        .find(|&k| layout.shard_for(k).0 - layout.base == u64::from(node))
        .unwrap()
}

#[test]
fn begins_on_every_coordinator_race_pins_and_the_watermark() {
    let cluster = ClusterBuilder::new(COORDINATORS as usize)
        .oracle(OracleKind::Gts)
        .build();
    let layout = cluster.create_table(TableId(1), 0, COORDINATORS, NodeId);
    // Each coordinator's live start timestamp, published after `begin`
    // returns and cleared before `commit` (0 = none).
    let live: Arc<Vec<AtomicU64>> =
        Arc::new((0..COORDINATORS).map(|_| AtomicU64::new(0)).collect());
    let start = Arc::new(Barrier::new(COORDINATORS as usize + 3));
    let sessions_done = Arc::new(AtomicBool::new(false));

    let sessions: Vec<_> = (0..COORDINATORS)
        .map(|n| {
            let (cluster, live, start) =
                (Arc::clone(&cluster), Arc::clone(&live), Arc::clone(&start));
            std::thread::spawn(move || {
                let session = Session::connect(&cluster, NodeId(n));
                let key = key_on(&layout, n);
                session.run(|t| t.insert(&layout, key, val(0))).unwrap();
                start.wait();
                for round in 1..=TXNS {
                    let mut txn = session.begin();
                    live[n as usize].store(txn.start_ts().0, Ordering::SeqCst);
                    txn.update(&layout, key, val(round)).unwrap();
                    assert_eq!(txn.read(&layout, key).unwrap(), Some(val(round)));
                    live[n as usize].store(0, Ordering::SeqCst);
                    txn.commit().unwrap();
                }
            })
        })
        .collect();
    let pinner = {
        let (cluster, start) = (Arc::clone(&cluster), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            for _ in 0..PINS {
                let at = cluster.safe_ts_watermark();
                let pin = cluster.pin_snapshot(at);
                assert!(cluster
                    .snapshots
                    .oldest()
                    .is_some_and(|oldest| oldest <= at));
                drop(pin);
            }
        })
    };
    let observer = {
        let (cluster, live, start) = (Arc::clone(&cluster), Arc::clone(&live), Arc::clone(&start));
        std::thread::spawn(move || {
            start.wait();
            for _ in 0..WATERMARKS {
                let watermark = cluster.safe_ts_watermark();
                for (n, ts) in live.iter().enumerate() {
                    let ts = ts.load(Ordering::SeqCst);
                    assert!(
                        ts == 0 || ts >= watermark.0,
                        "coordinator {n}'s live snapshot {ts} is below the watermark {}",
                        watermark.0
                    );
                }
            }
        })
    };

    let drainer = {
        let (cluster, start, done) = (
            Arc::clone(&cluster),
            Arc::clone(&start),
            Arc::clone(&sessions_done),
        );
        std::thread::spawn(move || {
            start.wait();
            loop {
                // Read first: the last drain begins after every session ended.
                let last = done.load(Ordering::SeqCst);
                cluster.wait_for_drain(Duration::from_secs(60)).unwrap();
                if last {
                    break;
                }
            }
        })
    };

    for session in sessions {
        session.join().unwrap();
    }
    sessions_done.store(true, Ordering::SeqCst);
    drainer.join().unwrap();
    pinner.join().unwrap();
    observer.join().unwrap();
    assert!(cluster.wait_for_drain(Duration::ZERO).is_ok());
    assert_eq!(cluster.active_txn_count(), 0);
    assert_eq!(cluster.snapshots.oldest(), None);
}
