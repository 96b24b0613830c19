//! Concurrency properties of the leased GTS, exercised with enough thread
//! interleaving for the nightly ThreadSanitizer job to chew on: uniqueness
//! across concurrently refilling nodes, per-node monotonicity under mixed
//! fetch/observe traffic, and causality across blocks.

use std::sync::Arc;

use remus_clock::{Gts, TimestampOracle};
use remus_common::{NodeId, Timestamp};

#[test]
fn concurrent_leased_nodes_never_duplicate() {
    for lease in [2, 16, 64] {
        let gts = Arc::new(Gts::leased(8, lease));
        let handles: Vec<_> = (0..8)
            .map(|n| {
                let gts = Arc::clone(&gts);
                std::thread::spawn(move || {
                    (0..2000)
                        .map(|i| {
                            if i % 2 == 0 {
                                gts.start_ts(NodeId(n))
                            } else {
                                gts.commit_ts(NodeId(n))
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let per_node: Vec<Vec<Timestamp>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for issued in &per_node {
            assert!(
                issued.windows(2).all(|w| w[0] < w[1]),
                "lease {lease}: per-node issue order must be monotone"
            );
        }
        let mut all: Vec<Timestamp> = per_node.into_iter().flatten().collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "lease {lease}: duplicate timestamp");
        assert!(
            gts.sequencer_rpcs() <= (n as u64 / lease) + 16,
            "lease {lease}: refills not amortized ({} rpcs for {} timestamps)",
            gts.sequencer_rpcs(),
            n
        );
    }
}

#[test]
fn concurrent_observe_preserves_causality() {
    // One "coordinator" node keeps observing commit timestamps produced by
    // worker nodes (as 2PC does); every timestamp it issues after an
    // observation must exceed the observed one.
    let gts = Arc::new(Gts::leased(13, 32));
    let workers: Vec<_> = (1..=4)
        .map(|n| {
            let gts = Arc::clone(&gts);
            std::thread::spawn(move || {
                (0..1000)
                    .map(|_| gts.commit_ts(NodeId(n)))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let coord = {
        let gts = Arc::clone(&gts);
        std::thread::spawn(move || {
            for i in 0..1000u64 {
                let seen = gts.commit_ts(NodeId(10 + (i % 3) as u32));
                gts.observe(NodeId(0), seen);
                let issued = gts.commit_ts(NodeId(0));
                assert!(
                    issued > seen,
                    "commit_ts after observe must exceed the observed ts"
                );
            }
        })
    };
    for w in workers {
        w.join().unwrap();
    }
    coord.join().unwrap();
}

#[test]
fn unit_lease_is_globally_monotone_across_nodes() {
    // The default lease of 1 must keep the linearizable single-counter
    // behavior: interleaved requests from different nodes observe one
    // global order with no gaps reused.
    let gts = Arc::new(Gts::new());
    let handles: Vec<_> = (0..4)
        .map(|n| {
            let gts = Arc::clone(&gts);
            std::thread::spawn(move || {
                (0..2000)
                    .map(|_| gts.commit_ts(NodeId(n)))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut all: Vec<Timestamp> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert_eq!(gts.sequencer_rpcs(), all.len() as u64);
    all.sort_unstable();
    // Dense: the central counter never skips with lease 1.
    assert!(all.windows(2).all(|w| w[1].0 == w[0].0 + 1));
}
