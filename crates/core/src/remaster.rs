//! The *wait-and-remaster* baseline (DynaMast style, §2.3.3).
//!
//! Same snapshot copy and asynchronous catch-up as Remus. The ownership
//! transfer phase suspends routing of newly arrived transactions
//! cluster-wide, waits for **every** in-flight transaction to complete
//! (the write set of an interactive transaction is unknown before it
//! finishes, so none can be exempted), replays the final updates, flips
//! the shard map, and resumes routing. The suspension window — which
//! stretches for as long as the longest-running transaction — is the
//! downtime the paper's Figures 6b/7b show collapsing to zero throughput.

use std::sync::Arc;
use std::time::Instant;

use remus_cluster::Cluster;
use remus_common::DbResult;

use crate::pipeline::{PushPipeline, DRAIN_TIMEOUT};
use crate::report::{MigrationEngine, MigrationReport, MigrationTask};

/// The wait-and-remaster engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct WaitAndRemaster;

impl WaitAndRemaster {
    /// Creates the engine.
    pub fn new() -> Self {
        WaitAndRemaster
    }
}

/// Cluster-wide routing, suspended; resumed on drop so no exit path leaves
/// new transactions blocked at begin.
struct SuspendedRouting<'a>(&'a Cluster);

impl<'a> SuspendedRouting<'a> {
    fn suspend(cluster: &'a Cluster) -> Self {
        cluster.routing_gate.suspend();
        SuspendedRouting(cluster)
    }
}

impl Drop for SuspendedRouting<'_> {
    fn drop(&mut self) {
        self.0.routing_gate.resume();
    }
}

impl MigrationEngine for WaitAndRemaster {
    fn name(&self) -> &'static str {
        "wait-and-remaster"
    }

    fn migrate(&self, cluster: &Arc<Cluster>, task: &MigrationTask) -> DbResult<MigrationReport> {
        let mut p = PushPipeline::start(self.name(), cluster, task, false)?;
        p.catch_up()?;

        // Ownership transfer: suspend, drain, replay final updates, remap.
        let transfer0 = Instant::now();
        let routing = SuspendedRouting::suspend(cluster);
        let drain_span = p.rec.start("drain");
        cluster.wait_for_drain(DRAIN_TIMEOUT)?;
        p.rec.end(drain_span);
        let replay_span = p.rec.start("final_replay");
        let final_lsn = cluster.node(task.source).storage.wal.flush_lsn();
        p.rec.attr(replay_span, "final_lsn", final_lsn.0);
        // Routing is suspended and the cluster drained, so the send
        // counter is stable; wait for the replay to finish it.
        let sent_final = p.drain_to(final_lsn, "final update replay")?;
        p.rec.attr(replay_span, "sent_final", sent_final);
        p.rec.end(replay_span);
        // With no transaction in flight only retained (committed) SSI
        // entries remain to hand over — the transfer path with no
        // straddlers by construction.
        p.divert(true)?;
        p.retire_source();
        drop(routing);
        p.report.downtime = transfer0.elapsed();
        p.report.transfer_phase = p.report.downtime;
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::{NodeId, ShardId, TableId};
    use remus_storage::Value;
    use std::time::Duration;

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn transfer_waits_for_inflight_txn_and_blocks_new_ones() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        session.run(|t| t.insert(&layout, 1, val("v0"))).unwrap();

        // A long transaction is in flight when the transfer begins.
        let cluster2 = Arc::clone(&cluster);
        let long_txn = std::thread::spawn(move || {
            let s = Session::connect(&cluster2, NodeId(0));
            let mut t = s.begin();
            t.update(&layout, 1, val("long")).unwrap();
            std::thread::sleep(Duration::from_millis(250));
            t.commit().unwrap();
        });
        std::thread::sleep(Duration::from_millis(50));

        let cluster3 = Arc::clone(&cluster);
        let migration = std::thread::spawn(move || {
            let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
            WaitAndRemaster::new().migrate(&cluster3, &task).unwrap()
        });
        std::thread::sleep(Duration::from_millis(80));
        // The transfer has suspended routing: a new transaction blocks at
        // begin until the migration finishes.
        let cluster4 = Arc::clone(&cluster);
        let blocked = std::thread::spawn(move || {
            let s = Session::connect(&cluster4, NodeId(1));
            let started = Instant::now();
            let (v, _) = s.run(|t| t.read(&layout, 1)).unwrap();
            (started.elapsed(), v)
        });
        let report = migration.join().unwrap();
        long_txn.join().unwrap();
        let (waited, v) = blocked.join().unwrap();
        // Downtime covers the long transaction's remaining run time.
        assert!(
            report.downtime >= Duration::from_millis(100),
            "downtime {:?}",
            report.downtime
        );
        assert!(
            waited >= Duration::from_millis(50),
            "new txn did not block: {waited:?}"
        );
        // The long transaction committed (no aborts) and its write migrated.
        assert_eq!(report.forced_aborts, 0);
        assert_eq!(v, Some(val("long")));
    }
}
