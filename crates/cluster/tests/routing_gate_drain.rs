//! Wait-and-remaster's routing gate against the begins racing it. The
//! transfer suspends routing and then waits until no transaction is in
//! flight; from there until the resume, no begin may return. A begin that
//! looked at the gate just before the suspend and registered just after the
//! drain found nothing in flight would run behind the drain's back.
//!
//! Here a drainer suspends, drains and resumes in a tight loop while
//! sessions begin and abort in theirs; a begin that returns inside a drained
//! window is counted.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use remus_cluster::{ClusterBuilder, Session};
use remus_common::NodeId;

const SESSIONS: u32 = 2;
const WINDOWS: u32 = 100_000;

#[test]
fn no_begin_returns_while_routing_is_suspended_and_drained() {
    let cluster = ClusterBuilder::new(SESSIONS as usize).build();
    let (drained, done) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let slipped = Arc::new(AtomicU64::new(0));
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|node| {
            let (cluster, drained, done) = (Arc::clone(&cluster), drained.clone(), done.clone());
            let slipped = Arc::clone(&slipped);
            std::thread::spawn(move || {
                let session = Session::connect(&cluster, NodeId(node));
                while !done.load(Ordering::SeqCst) {
                    let txn = session.begin();
                    if drained.load(Ordering::SeqCst) {
                        slipped.fetch_add(1, Ordering::SeqCst);
                    }
                    txn.abort();
                }
            })
        })
        .collect();
    for _ in 0..WINDOWS {
        cluster.routing_gate.suspend();
        cluster.wait_for_drain(Duration::from_secs(10)).unwrap();
        drained.store(true, Ordering::SeqCst);
        std::thread::yield_now();
        drained.store(false, Ordering::SeqCst);
        cluster.routing_gate.resume();
    }
    done.store(true, Ordering::SeqCst);
    for session in sessions {
        session.join().unwrap();
    }
    assert_eq!(
        slipped.load(Ordering::SeqCst),
        0,
        "begins returned inside {WINDOWS} suspended and drained windows"
    );
}
