//! A stop wakes the reader it stops. Propagation and the replica shipper
//! park on the source's log; before the stop was a signal they looked at a
//! flag only when a 20 ms wait returned empty, so stopping a caught-up reader
//! on a log nobody writes to sat that wait out — a quiescent migration's
//! `cleanup` was 0.1 ms or 20 ms at random, and `ReplicaProcess::stop` took
//! up to 20 ms per idle primary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use remus_cluster::{Cluster, ClusterBuilder, Session};
use remus_common::{NodeId, ShardId, SimConfig, TableId};
use remus_core::{
    start_replica, LockAndAbort, MigrationEngine, MigrationTask, RemusEngine, WaitAndRemaster,
};
use remus_storage::Value;

/// Half the old poll: far above what stopping costs (tens of microseconds),
/// below what sitting a poll out did.
const LIMIT: Duration = Duration::from_millis(10);
const ROUNDS: usize = 10;

fn populated_cluster(nodes: usize) -> Arc<Cluster> {
    let cluster = ClusterBuilder::new(nodes)
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

#[test]
fn a_quiescent_migration_does_not_wait_out_a_poll_in_cleanup() {
    let engines: [&dyn MigrationEngine; 3] = [&RemusEngine, &LockAndAbort, &WaitAndRemaster];
    for engine in engines {
        let cluster = populated_cluster(2);
        // The shard ping-pongs; nobody else writes to either node.
        let cleanups: Vec<Duration> = (0..ROUNDS as u32)
            .map(|round| {
                let (source, dest) = (NodeId(round % 2), NodeId((round + 1) % 2));
                let task = MigrationTask::single(ShardId(0), source, dest);
                let report = engine.migrate(&cluster, &task).unwrap();
                assert_eq!(cluster.node(source).storage.slot_count(), 0);
                report.traces[0].span("cleanup").unwrap().duration()
            })
            .collect();
        assert!(
            cleanups.iter().all(|d| *d < LIMIT),
            "{}: cleanup spans {cleanups:?}",
            engine.name()
        );
    }
}

#[test]
fn stopping_a_replica_of_idle_primaries_does_not_wait_out_a_heartbeat_period() {
    // Two primaries and the replica's node; nothing commits after the load.
    let cluster = populated_cluster(3);
    let stops: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let replica = start_replica(&cluster, NodeId(2)).unwrap();
            replica.wait_certified(Duration::from_secs(10)).unwrap();
            let t0 = Instant::now();
            replica.stop();
            let took = t0.elapsed();
            for primary in cluster.primary_ids() {
                assert_eq!(cluster.node(primary).storage.slot_count(), 0);
            }
            took
        })
        .collect();
    assert!(stops.iter().all(|d| *d < LIMIT), "stops took {stops:?}");
}

/// Red on the parent: its maintenance thread slept to its next deadline,
/// the 50 ms WAL period, and looked at the stop flag only then.
#[test]
fn stopping_maintenance_does_not_wait_out_its_period() {
    let stops: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let cluster = populated_cluster(1);
            let handle = cluster.start_maintenance(Duration::from_secs(3600));
            std::thread::sleep(Duration::from_millis(5));
            let t0 = Instant::now();
            cluster.stop_maintenance();
            handle.join().unwrap();
            t0.elapsed()
        })
        .collect();
    assert!(stops.iter().all(|d| *d < LIMIT), "stops took {stops:?}");
}
