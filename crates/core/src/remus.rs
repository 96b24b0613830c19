//! The Remus live-migration engine (§3).
//!
//! Phase order (Figure 2):
//!
//! 1. **Snapshot copying** — a streaming MVCC scan installs the shard
//!    snapshot on the destination; normal processing is not interrupted.
//! 2. **Async update propagation** — the propagation process tails the WAL
//!    and replays committed changes on the destination until the lag drops
//!    below the catch-up threshold.
//! 3. **Mode changing** — the sync barrier flag is raised; `TS_unsync`
//!    (transactions already in commit progress) drains; `LSN_unsync` is
//!    recorded and propagation applies everything up to it.
//! 4. **Ordered diversion + dual execution** — `T_m` flips the shard map
//!    via 2PC; new transactions route to the destination while existing
//!    source transactions run to completion, committing through MOCC.
//!    When the last pre-`T_m` transaction finishes, propagation shuts
//!    down and the source copy is dropped.

use std::sync::Arc;
use std::time::Instant;

use remus_cluster::Cluster;
use remus_common::fault::InjectionPoint;
use remus_common::{DbError, DbResult};

use crate::pipeline::{PushPipeline, DRAIN_TIMEOUT};
use crate::report::{MigrationEngine, MigrationReport, MigrationTask};

/// The Remus engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct RemusEngine;

impl RemusEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        RemusEngine
    }
}

impl MigrationEngine for RemusEngine {
    fn name(&self) -> &'static str {
        "remus"
    }

    fn migrate(&self, cluster: &Arc<Cluster>, task: &MigrationTask) -> DbResult<MigrationReport> {
        let mut p = PushPipeline::start(self.name(), cluster, task, true)?;
        p.catch_up()?;

        // Phase 3: mode change. Raise the sync barrier, drain TS_unsync,
        // record LSN_unsync, and wait until everything up to it is applied.
        let transfer0 = Instant::now();
        let barrier_span = p.rec.start("sync_barrier");
        p.hook.enable_sync();
        // Mode-change seam: a delay widens the window between raising the
        // barrier and draining TS_unsync.
        p.fault_seam(InjectionPoint::SyncBarrier)?;
        let drain_span = p.rec.child(barrier_span, "ts_unsync_drain");
        p.hook.wait_ts_unsync_drained(DRAIN_TIMEOUT)?;
        p.rec.end(drain_span);
        let apply_span = p.rec.child(barrier_span, "lsn_unsync_apply");
        let lsn_unsync = cluster.node(task.source).storage.wal.flush_lsn();
        p.rec.attr(apply_span, "lsn_unsync", lsn_unsync.0);
        p.drain_to(lsn_unsync, "LSN_unsync application")?;
        p.rec.end(apply_span);
        p.rec.end(barrier_span);

        // Phase 4: ordered diversion.
        let tm_cts = p.divert(true)?;
        p.report.transfer_phase = transfer0.elapsed();

        // Dual execution: existing source transactions (start_ts <
        // T_m.commit_ts) run to completion, committing through MOCC.
        let dual0 = Instant::now();
        let dual_span = p.rec.start("dual_execution");
        let drained = || cluster.snapshots.oldest().is_none_or(|ts| ts >= tm_cts);
        if !cluster.snapshots.park_until(drained, DRAIN_TIMEOUT) {
            return Err(DbError::Timeout("dual execution drain"));
        }
        p.rec.end(dual_span);

        // No pre-T_m transactions remain: stop the pipeline after the
        // final records and clean up.
        let mut report = p.finish()?;
        report.dual_phase = dual0.elapsed();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remus_cluster::{ClusterBuilder, Session};
    use remus_common::{NodeId, ShardId, TableId, Timestamp};
    use remus_storage::Value;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    fn val(s: &str) -> Value {
        Value::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn migration_under_concurrent_writes_loses_nothing() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        for k in 0..200u64 {
            session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Writers keep updating and inserting during the migration.
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let cluster = Arc::clone(&cluster);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let session = Session::connect(&cluster, NodeId(w % 2));
                    let mut committed = Vec::new();
                    let mut last_cts = Timestamp::INVALID;
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let key = (w as u64) * 50 + (i % 50);
                        let value = val(&format!("w{w}i{i}"));
                        let r = session.run(|t| {
                            t.update(&layout, key, value.clone())?;
                            Ok(value.clone())
                        });
                        if let Ok((v, cts)) = r {
                            committed.push((key, v));
                            last_cts = last_cts.max(cts);
                        }
                        i += 1;
                        // Closed-loop clients have request round trips; an
                        // unthrottled loop on a single-core host would
                        // starve the replay pipeline (§3.6: the migration
                        // converges when replay outpaces the update rate).
                        std::thread::sleep(Duration::from_micros(400));
                    }
                    (committed, last_cts)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let report = RemusEngine::new().migrate(&cluster, &task).unwrap();
        stop.store(true, Ordering::Relaxed);
        let mut last_committed: std::collections::HashMap<u64, Value> = Default::default();
        let mut causal_token = Timestamp::INVALID;
        for w in writers {
            let (committed, last_cts) = w.join().unwrap();
            causal_token = causal_token.max(last_cts);
            for (k, v) in committed {
                last_committed.insert(k, v); // later entries overwrite
            }
        }
        // On a fast migration the writers may or may not land commits in
        // the propagation window; correctness is the loses-nothing check
        // below, not the amount of replay work.
        let _ = report.records_replayed;
        // All 200 keys present on the destination, with the last committed
        // value for every key the writers touched.
        // The verifier is a different session on a different node: under
        // DTS it must carry the writers' causal token or its snapshot may
        // legitimately predate their last commits (paper §2.2).
        let mut scan_txn = session.begin_after(causal_token);
        let scan_ts = scan_txn.start_ts();
        let rows = scan_txn.scan_table(&layout).unwrap();
        scan_txn.commit().unwrap();
        assert_eq!(rows.len(), 200);
        let by_key: std::collections::HashMap<u64, Value> = rows.into_iter().collect();
        for (k, v) in last_committed {
            if by_key.get(&k) != Some(&v) {
                // Forensic dump for the flake hunt: the chain and each
                // version's CLOG status on both nodes.
                eprintln!("scan_ts={scan_ts}");
                // Re-read at the same snapshot: distinguishes a transient
                // race during the original scan from a timestamp-order
                // violation (re-read stale too).
                if let Some(table) = cluster.node(NodeId(1)).storage.table(ShardId(0)) {
                    let reread = table
                        .read(
                            k,
                            scan_ts,
                            remus_common::TxnId::INVALID,
                            &cluster.node(NodeId(1)).storage.clog,
                            Duration::from_secs(2),
                        )
                        .unwrap();
                    eprintln!(
                        "reread@scan_ts={:?}",
                        reread.map(|v| String::from_utf8_lossy(&v).into_owned())
                    );
                }
                for node in cluster.nodes() {
                    if let Some(table) = node.storage.table(ShardId(0)) {
                        for ver in table.chain_snapshot(k) {
                            eprintln!(
                                "node {} key {k}: xmin={} status={:?} val={:?}",
                                node.id(),
                                ver.xmin,
                                node.storage.clog.status(ver.xmin),
                                String::from_utf8_lossy(&ver.value)
                            );
                        }
                    }
                }
                panic!(
                    "key {k} lost its last committed update: {:?} != {:?}",
                    by_key
                        .get(&k)
                        .map(|v| String::from_utf8_lossy(v).into_owned()),
                    String::from_utf8_lossy(&v)
                );
            }
        }
    }

    #[test]
    fn old_snapshot_transactions_keep_reading_during_dual_execution() {
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(1));
        for k in 0..50 {
            session.run(|t| t.insert(&layout, k, val("v"))).unwrap();
        }
        // An old transaction started before the migration holds its
        // snapshot through the whole migration.
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let cluster2 = Arc::clone(&cluster);
        let reader = std::thread::spawn(move || {
            let session = Session::connect(&cluster2, NodeId(1));
            let mut txn = session.begin();
            ready_tx.send(()).unwrap();
            // Give the migration time to reach dual execution; the old
            // transaction then completes, unblocking the drain.
            std::thread::sleep(Duration::from_millis(150));
            let v = txn.read(&layout, 7).unwrap();
            txn.commit().unwrap();
            v
        });
        ready_rx.recv().unwrap();
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        RemusEngine::new().migrate(&cluster, &task).unwrap();
        assert_eq!(reader.join().unwrap(), Some(val("v")));
    }

    #[test]
    fn zero_migration_aborts_under_write_load() {
        // The headline property: no transaction is aborted *by the
        // migration*. WW conflicts between concurrent writers are the only
        // permissible failures, and with disjoint keys there are none.
        let cluster = ClusterBuilder::new(2).build();
        let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
        let session = Session::connect(&cluster, NodeId(0));
        let mut preload_cts = remus_common::Timestamp::INVALID;
        for k in 0..100u64 {
            let (_, cts) = session.run(|t| t.insert(&layout, k, val("v0"))).unwrap();
            preload_cts = preload_cts.max(cts);
        }
        // Causal token: fold the preload commits into every node's clock.
        // Without it, a writer session on node 1 can begin "within clock
        // skew" below a preload's commit timestamp (the paper's documented
        // DTS concession) and take a WW conflict the migration had nothing
        // to do with.
        for node in cluster.nodes() {
            cluster.oracle.observe(node.id(), preload_cts);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let failures = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let first_error: Arc<parking_lot::Mutex<Option<remus_common::DbError>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let writers: Vec<_> = (0..3)
            .map(|w| {
                let cluster = Arc::clone(&cluster);
                let stop = Arc::clone(&stop);
                let failures = Arc::clone(&failures);
                let first_error = Arc::clone(&first_error);
                std::thread::spawn(move || {
                    let session = Session::connect(&cluster, NodeId(w % 2));
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Disjoint key space per writer: no WW conflicts.
                        let key = (w as u64) * 30 + (i % 30);
                        if let Err(e) = session.run(|t| t.update(&layout, key, val("x"))) {
                            failures.fetch_add(1, Ordering::Relaxed);
                            first_error.lock().get_or_insert(e);
                        }
                        i += 1;
                        std::thread::sleep(Duration::from_micros(400));
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        RemusEngine::new().migrate(&cluster, &task).unwrap();
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(
            failures.load(Ordering::Relaxed),
            0,
            "Remus must abort no transactions; first error: {:?}",
            first_error.lock()
        );
    }

    #[test]
    fn snapshot_min_timestamp_is_below_all_commits() {
        // Regression guard for the reserved minimal commit timestamp.
        assert!(Timestamp::SNAPSHOT_MIN < Timestamp(2));
    }
}
