//! The chaos scenario runner.
//!
//! A scenario is a pure function of its seed: the seed picks the engine,
//! the oracle, the fault profile, the network perturbation, and every
//! client's key choices. [`run_scenario`] builds a 3-node cluster, preloads
//! a table, runs seeded client threads concurrently with a live migration
//! (or, for the `CrashTm` profile, crashes the handover transaction `T_m`
//! mid-2PC and recovers), records every attempted transaction into a
//! [`HistoryLog`], and hands the history to the SI checker.
//!
//! Determinism contract: the fault *schedule* (plan + network partitions)
//! and the *verdict* are reproducible from the seed. Thread interleavings
//! are not replayed bit-for-bit — they don't need to be, because the
//! checker accepts every SI-legal interleaving and rejects every illegal
//! one.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_clock::{
    Dts, Gts, OracleKind, PhysicalClock, SkewedPhysicalClock, TimestampOracle, WallClock,
};
use remus_cluster::{Cluster, ClusterBuilder, ReplicaSession, Session};
use remus_common::{
    IsolationLevel, NodeId, ParallelismConfig, ShardId, SimConfig, TableId, Timestamp, TxnId,
    WalConfig,
};
use remus_core::diversion::{run_tm_chaos, TmOutcome};
use remus_core::recovery::{recover_migration, RecoveryDecision};
use remus_core::snapshot::copy_task_snapshots;
use remus_core::trace::expected_phases;
pub use remus_core::EngineKind;
use remus_core::{MigrationReport, MigrationTask};
use remus_shard::TableLayout;
use remus_storage::Value;
use remus_txn::ReplaySummary;

use crate::checker::{
    check_final_state, check_history, check_serializability, CheckConfig, Verdict, Violation,
};
use crate::history::{HistoryLog, MutKind, OpRead, OpWrite, TxnRecord};
use crate::net::FaultyNetwork;
use crate::plan::{FaultPlan, FaultProfile, FaultSpec, PlanInjector, REPLICA_NODE};

/// Full description of one chaos scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed: everything derives from it.
    pub seed: u64,
    /// Engine under test.
    pub engine: EngineKind,
    /// Timestamp oracle. GTS enables the timestamp-strict read axiom.
    pub oracle: OracleKind,
    /// Fault profile.
    pub profile: FaultProfile,
    /// Cluster size.
    pub nodes: u32,
    /// Preloaded key range `0..keys`.
    pub keys: u64,
    /// Concurrent client threads.
    pub clients: u32,
    /// Transactions attempted per client.
    pub txns_per_client: u32,
    /// Data-plane parallelism (copy/replay workers, chunk size, drain
    /// batch) the migration runs with.
    pub parallelism: ParallelismConfig,
    /// When set, a background thread runs incremental version-chain GC
    /// (`Cluster::gc_tick`) at this cadence for the whole scenario, so
    /// pruning races the workload, the snapshot copy, and the final scan.
    /// `None` (the seed-derived default) keeps legacy runs byte-identical.
    pub gc_interval: Option<std::time::Duration>,
    /// When set, every node runs the file-backed WAL rooted here (one
    /// `node-<id>` subdirectory per node). Required by the `CrashRestart`
    /// profile — a restart from an in-memory WAL would lose the history.
    /// `None` keeps the in-memory default every legacy scenario uses.
    pub wal_dir: Option<PathBuf>,
    /// Isolation level the cluster runs at. `Serializable` arms the SSI
    /// subsystem on every node and adds the serializability oracle (DSG
    /// cycle check) to the verdict.
    pub isolation: IsolationLevel,
}

impl ScenarioConfig {
    /// Derives the canonical scenario for a seed: engine = `seed % 4`,
    /// oracle alternates GTS/DTS, and every second Remus seed crashes
    /// `T_m` instead of running the tolerated-fault profile.
    pub fn from_seed(seed: u64) -> ScenarioConfig {
        let engine = EngineKind::all()[(seed % 4) as usize];
        let profile = if engine == EngineKind::Remus && seed % 8 == 4 {
            FaultProfile::CrashTm
        } else {
            FaultProfile::Tolerated
        };
        let oracle = if (seed / 4).is_multiple_of(2) {
            OracleKind::Gts
        } else {
            OracleKind::Dts
        };
        ScenarioConfig {
            seed,
            engine,
            oracle,
            profile,
            nodes: 3,
            keys: 48,
            clients: 3,
            txns_per_client: 10,
            parallelism: Self::parallelism_from_seed(seed),
            gc_interval: None,
            wal_dir: None,
            isolation: IsolationLevel::SnapshotIsolation,
        }
    }

    /// A fixed Remus tolerated-fault scenario for smoke tests.
    pub fn remus_smoke(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            engine: EngineKind::Remus,
            oracle: OracleKind::Dts,
            profile: FaultProfile::Tolerated,
            nodes: 3,
            keys: 48,
            clients: 3,
            txns_per_client: 10,
            parallelism: Self::parallelism_from_seed(seed),
            gc_interval: None,
            wal_dir: None,
            isolation: IsolationLevel::SnapshotIsolation,
        }
    }

    /// The canonical replica scenario: 4 nodes (primaries 0–2, replica 3),
    /// a WAL-shipped replica bootstrapped by virtual-cut backfill serving
    /// seeded read-only clients while a live Remus migration moves
    /// `ShardId(0)` between primaries, under seeded ship/apply faults —
    /// and, on some seeds, a mid-backfill crash-restart of the replica
    /// (see [`FaultProfile::Replica`]).
    pub fn replica(seed: u64, oracle: OracleKind) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            engine: EngineKind::Remus,
            oracle,
            profile: FaultProfile::Replica,
            nodes: 4,
            keys: 48,
            clients: 3,
            txns_per_client: 10,
            parallelism: Self::parallelism_from_seed(seed),
            gc_interval: None,
            wal_dir: None,
            isolation: IsolationLevel::SnapshotIsolation,
        }
    }

    /// A crash-restart drill: file-backed WAL rooted at `wal_dir`, the
    /// victim node and crash stage drawn from the seed (see
    /// [`FaultProfile::CrashRestart`]).
    pub fn crash_restart(
        seed: u64,
        engine: EngineKind,
        oracle: OracleKind,
        wal_dir: impl Into<PathBuf>,
    ) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            engine,
            oracle,
            profile: FaultProfile::CrashRestart,
            nodes: 3,
            keys: 48,
            clients: 3,
            txns_per_client: 10,
            parallelism: Self::parallelism_from_seed(seed),
            gc_interval: None,
            wal_dir: Some(wal_dir.into()),
            isolation: IsolationLevel::SnapshotIsolation,
        }
    }

    /// A serializable-mode scenario: the cluster runs
    /// [`IsolationLevel::Serializable`], the engine cycles through the
    /// *push* engines (`seed % 3` — Squall's shard-lock mode bypasses the
    /// MVCC commit path the SSI hooks live on), and a background GC thread
    /// runs throughout so SIREAD retention and retirement race the
    /// workload and the migration. The verdict adds the serializability
    /// oracle: the committed history's serialization graph must be
    /// acyclic even with the shard moving mid-workload.
    pub fn serializable(seed: u64, oracle: OracleKind) -> ScenarioConfig {
        let push = [
            EngineKind::Remus,
            EngineKind::LockAbort,
            EngineKind::Remaster,
        ];
        ScenarioConfig {
            seed,
            engine: push[(seed % 3) as usize],
            oracle,
            profile: FaultProfile::Tolerated,
            nodes: 3,
            keys: 48,
            clients: 3,
            txns_per_client: 10,
            parallelism: Self::parallelism_from_seed(seed),
            gc_interval: Some(std::time::Duration::from_millis(2)),
            wal_dir: None,
            isolation: IsolationLevel::Serializable,
        }
    }

    /// Seed-derived data-plane parallelism: worker counts vary from
    /// sequential to 4-wide, and the small chunk size (8 keys over a
    /// 48-key table) forces multiple chunks per shard so the chunked-copy
    /// seams and copy-LSN gating are actually exercised.
    fn parallelism_from_seed(seed: u64) -> ParallelismConfig {
        ParallelismConfig {
            copy_workers: 1 + ((seed / 2) % 4) as usize,
            replay_workers: 1 + ((seed / 3) % 4) as usize,
            chunk_size: 8,
            drain_batch: 1 + ((seed / 5) % 8) as usize,
        }
    }
}

/// The result of one scenario run.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The fault plan that ran.
    pub plan: FaultPlan,
    /// Engine exercised.
    pub engine: EngineKind,
    /// Every recorded transaction.
    pub history: Vec<TxnRecord>,
    /// Checker verdict: the violation list plus which oracles failed.
    pub violations: Verdict,
    /// Committed client transactions.
    pub committed: usize,
    /// Aborted client transactions.
    pub aborted: usize,
    /// Whether the shard-map flip committed.
    pub migration_committed: bool,
    /// `T_m`'s commit timestamp when known.
    pub tm_cts: Option<Timestamp>,
    /// Versions pruned by the concurrent GC thread (`None` when the
    /// scenario ran without one).
    pub gc_pruned: Option<u64>,
    /// Crash-restart drill: the victim node and its WAL replay summary
    /// (`None` for profiles that never restart a node).
    pub restart: Option<(NodeId, ReplaySummary)>,
    /// Read-only transactions served by the replica at its watermark
    /// (zero for profiles without a replica).
    pub replica_reads: usize,
}

impl ScenarioOutcome {
    /// Whether the history checked out.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the scenario with the plan derived from its seed.
pub fn run_scenario(config: &ScenarioConfig) -> ScenarioOutcome {
    let plan = FaultPlan::generate(config.seed, config.profile, NodeId(0), NodeId(1));
    run_scenario_with_specs(config, &plan, &plan.specs)
}

/// Runs the scenario with an explicit fault-spec subset (used by the plan
/// shrinker; `plan` still provides the clock spike and is echoed in the
/// outcome).
pub fn run_scenario_with_specs(
    config: &ScenarioConfig,
    plan: &FaultPlan,
    specs: &[FaultSpec],
) -> ScenarioOutcome {
    let source = NodeId(0);
    let dest = NodeId(1);
    let shard = ShardId(0);

    // ---- cluster ----
    let mut skewed: Vec<Arc<SkewedPhysicalClock>> = Vec::new();
    let oracle: Arc<dyn TimestampOracle> = match config.oracle {
        OracleKind::Gts => Arc::new(Gts::new()),
        OracleKind::Dts => {
            let base: Arc<dyn PhysicalClock> = Arc::new(WallClock::new());
            let physicals: Vec<Arc<dyn PhysicalClock>> = (0..config.nodes)
                .map(|_| {
                    let clock = Arc::new(SkewedPhysicalClock::new(Arc::clone(&base)));
                    skewed.push(Arc::clone(&clock));
                    clock as Arc<dyn PhysicalClock>
                })
                .collect();
            Arc::new(Dts::from_clocks(physicals))
        }
    };
    let mut sim = SimConfig::instant();
    sim.parallelism = config.parallelism;
    sim.isolation = config.isolation;
    if let Some(dir) = &config.wal_dir {
        sim.wal = WalConfig::file(dir.clone());
    }
    let cluster = ClusterBuilder::new(config.nodes as usize)
        .config(sim)
        .oracle_instance(oracle)
        .network(Arc::new(FaultyNetwork::from_seed(
            config.seed,
            config.nodes,
        )))
        .cc_mode(config.engine.cc_mode())
        .build();
    let injector = Arc::new(PlanInjector::from_specs(specs.to_vec()));
    cluster.install_fault_injector(Arc::clone(&injector) as Arc<dyn remus_common::FaultInjector>);
    // The replica profile reserves the last node as a shard-less replica;
    // every other profile spreads the table over the whole cluster.
    let primaries = match config.profile {
        FaultProfile::Replica => config.nodes - 1,
        _ => config.nodes,
    };
    let layout = cluster.create_table(TableId(1), 0, 4, |i| NodeId(i % primaries));
    let task = MigrationTask::single(shard, source, dest);

    // Optional concurrent version-chain GC: races the workload, the
    // snapshot copy, and the catch-up pipeline for the whole scenario.
    // The safe-ts watermark must make it invisible to the SI checker.
    let gc_stop = Arc::new(AtomicBool::new(false));
    let gc_thread = config.gc_interval.map(|interval| {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&gc_stop);
        std::thread::spawn(move || {
            let mut pruned = 0u64;
            while !stop.load(Ordering::SeqCst) {
                pruned += cluster.gc_tick(1024);
                std::thread::sleep(interval);
            }
            pruned
        })
    });

    // ---- shared recording state ----
    let log = Arc::new(HistoryLog::new());
    let seq = Arc::new(AtomicU64::new(0));

    // ---- preload ----
    {
        let session = Session::connect(&cluster, source);
        let begin_seq = seq.fetch_add(1, Ordering::SeqCst);
        let mut txn = session.begin();
        let begin_ts = txn.begin_ts();
        let mut writes = Vec::new();
        for key in 0..config.keys {
            let value = Value::copy_from_slice(format!("init-{key}").as_bytes());
            txn.insert(&layout, key, value.clone())
                .expect("preload insert");
            writes.push(OpWrite {
                key,
                snap_ts: txn.start_ts(),
                kind: MutKind::Insert,
                value: Some(value),
            });
        }
        let routes = txn.routes();
        let xid = txn.xid();
        let cts = txn.commit().expect("preload commit");
        let commit_seq = seq.fetch_add(1, Ordering::SeqCst);
        log.record(TxnRecord {
            xid,
            client: 0,
            begin_ts,
            commit_ts: Some(cts),
            reads: vec![],
            writes,
            routes,
            begin_seq,
            commit_seq,
            replica: false,
        });
    }

    // A clock-skew spike on the destination's physical clock (DTS only:
    // GTS has no per-node clocks to skew).
    if let Some(ms) = plan.clock_spike_ms {
        if let Some(clock) = skewed.get(dest.0 as usize) {
            clock.set_skew_ms(ms);
        }
    }

    // ---- clients + migration ----
    let mut migration_committed = false;
    let mut tm_cts: Option<Timestamp> = None;
    let mut migration_failure: Option<String> = None;
    let mut trace_violations: Vec<Violation> = Vec::new();
    let mut restart: Option<(NodeId, ReplaySummary)> = None;
    match config.profile {
        FaultProfile::Tolerated => {
            let workers: Vec<_> = (0..config.clients)
                .map(|client| {
                    spawn_client(
                        &cluster,
                        &layout,
                        &log,
                        &seq,
                        config,
                        client + 1,
                        config.txns_per_client,
                    )
                })
                .collect();
            // Let the workload get going before the migration starts.
            std::thread::sleep(std::time::Duration::from_millis(10));
            match config.engine.engine().migrate(&cluster, &task) {
                Ok(report) => {
                    migration_committed = true;
                    trace_violations = check_migration_traces(&report);
                }
                Err(e) => migration_failure = Some(format!("{e:?}")),
            }
            for w in workers {
                w.join().expect("client thread");
            }
            if migration_committed {
                let row = cluster
                    .current_owner(cluster.node(source), shard)
                    .expect("owner row");
                if row.node == dest && row.cts.is_valid() {
                    tm_cts = Some(row.cts);
                }
            }
        }
        FaultProfile::Replica => {
            // WAL-shipped replica racing a live migration. Bootstrap the
            // replica (virtual-cut backfill), optionally crash-restart it
            // mid-backfill, then run writers on the primaries and seeded
            // read-only clients on the replica while the engine migrates a
            // shard between primaries under ship/apply faults.
            let mut proc =
                remus_core::start_replica(&cluster, REPLICA_NODE).expect("start replica");
            if plan.replica_restart() {
                // Kill the replica while the backfill is in flight: detach
                // the streams, wipe the node via `restart_node` (its apply
                // state is volatile), and re-bootstrap from scratch at a
                // fresh virtual cut.
                std::thread::sleep(std::time::Duration::from_millis(1));
                proc.stop();
                let summary = cluster.restart_node(REPLICA_NODE).expect("restart replica");
                restart = Some((REPLICA_NODE, summary));
                proc = remus_core::start_replica(&cluster, REPLICA_NODE)
                    .expect("re-bootstrap replica");
            }
            let workers: Vec<_> = (0..config.clients)
                .map(|client| {
                    spawn_client(
                        &cluster,
                        &layout,
                        &log,
                        &seq,
                        config,
                        client + 1,
                        config.txns_per_client,
                    )
                })
                .collect();
            let readers: Vec<_> = (0..config.clients)
                .map(|client| {
                    spawn_replica_reader(
                        &cluster,
                        &layout,
                        &log,
                        &seq,
                        config,
                        client + 200,
                        config.txns_per_client,
                    )
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(10));
            match config.engine.engine().migrate(&cluster, &task) {
                Ok(report) => {
                    migration_committed = true;
                    trace_violations = check_migration_traces(&report);
                }
                Err(e) => migration_failure = Some(format!("{e:?}")),
            }
            for w in workers {
                w.join().expect("client thread");
            }
            for r in readers {
                r.join().expect("replica reader");
            }
            if migration_committed {
                let row = cluster
                    .current_owner(cluster.node(source), shard)
                    .expect("owner row");
                if row.node == dest && row.cts.is_valid() {
                    tm_cts = Some(row.cts);
                }
            }
            // Catch-up: with writers quiesced, the watermark must reach the
            // newest commit (idle primaries advance it via heartbeats), and
            // a full replica scan there must serve the newest versions.
            let target = log
                .snapshot()
                .iter()
                .filter_map(|r| r.commit_ts)
                .chain(tm_cts)
                .max()
                .unwrap_or(Timestamp(1));
            proc.handle()
                .wait_watermark(target, std::time::Duration::from_secs(30))
                .expect("replica catch-up");
            record_replica_scan(&cluster, &layout, &log, &seq, config.keys);
            assert!(!proc.is_failed(), "replica apply process failed");
            proc.stop();
        }
        FaultProfile::CrashTm => {
            // Quiescent crash drill: run traffic, copy, crash T_m mid-2PC,
            // recover, then run traffic against the recovered cluster.
            let phase1: Vec<_> = (0..config.clients)
                .map(|client| {
                    spawn_client(
                        &cluster,
                        &layout,
                        &log,
                        &seq,
                        config,
                        client + 1,
                        config.txns_per_client / 2,
                    )
                })
                .collect();
            for w in phase1 {
                w.join().expect("phase-1 client");
            }
            let snapshot_ts = cluster.oracle.start_ts(source);
            copy_task_snapshots(
                &cluster,
                &task.shards,
                cluster.node(source),
                cluster.node(dest),
                snapshot_ts,
            )
            .expect("snapshot copy");
            match run_tm_chaos(&cluster, &task, &*injector).expect("tm chaos") {
                TmOutcome::Committed(ts) => {
                    migration_committed = true;
                    tm_cts = Some(ts);
                }
                TmOutcome::Crashed(xid) => {
                    match recover_migration(&cluster, &task, xid).expect("recovery") {
                        RecoveryDecision::RolledForward(ts) => {
                            migration_committed = true;
                            tm_cts = Some(ts);
                        }
                        RecoveryDecision::RolledBack => {}
                    }
                }
            }
            let phase2: Vec<_> = (0..config.clients)
                .map(|client| {
                    spawn_client(
                        &cluster,
                        &layout,
                        &log,
                        &seq,
                        config,
                        client + 100,
                        config.txns_per_client / 2,
                    )
                })
                .collect();
            for w in phase2 {
                w.join().expect("phase-2 client");
            }
        }
        FaultProfile::CrashRestart => {
            // Quiescent node-crash drill: seeded traffic commits onto the
            // victim's durable WAL, the victim dies at a seeded stage of
            // the copy pipeline and is rebuilt from disk, and a fresh
            // engine must then drive the whole migration over the
            // recovered node. The SI checker sees the stitched
            // pre+post-restart history as one timeline.
            assert!(
                config.wal_dir.is_some(),
                "CrashRestart scenarios need a file-backed WAL (set wal_dir)"
            );
            let (victim, stage) = plan
                .crash_restart_spec()
                .expect("CrashRestart plan carries a restart spec");
            let phase1: Vec<_> = (0..config.clients)
                .map(|client| {
                    spawn_client(
                        &cluster,
                        &layout,
                        &log,
                        &seq,
                        config,
                        client + 1,
                        config.txns_per_client / 2,
                    )
                })
                .collect();
            for w in phase1 {
                w.join().expect("phase-1 client");
            }
            if stage >= 1 {
                // A snapshot copy the crash then wipes (destination
                // victim) or leaves stale on the destination (source
                // victim); the post-restart migration re-copies either
                // way because frozen installs are idempotent.
                let snapshot_ts = cluster.oracle.start_ts(source);
                copy_task_snapshots(
                    &cluster,
                    &task.shards,
                    cluster.node(source),
                    cluster.node(dest),
                    snapshot_ts,
                )
                .expect("snapshot copy");
            }
            if stage >= 2 {
                // Catch-up-era traffic: commits landing after the copy's
                // snapshot that must survive the restart and still be
                // present after the re-copy.
                let extra: Vec<_> = (0..config.clients)
                    .map(|client| {
                        spawn_client(
                            &cluster,
                            &layout,
                            &log,
                            &seq,
                            config,
                            client + 50,
                            config.txns_per_client / 2,
                        )
                    })
                    .collect();
                for w in extra {
                    w.join().expect("catch-up client");
                }
            }
            let summary = cluster.restart_node(victim).expect("restart_node");
            restart = Some((victim, summary));
            match config.engine.engine().migrate(&cluster, &task) {
                Ok(report) => {
                    migration_committed = true;
                    trace_violations = check_migration_traces(&report);
                }
                Err(e) => migration_failure = Some(format!("{e:?}")),
            }
            if migration_committed {
                let row = cluster
                    .current_owner(cluster.node(source), shard)
                    .expect("owner row");
                if row.node == dest && row.cts.is_valid() {
                    tm_cts = Some(row.cts);
                }
            }
            let phase2: Vec<_> = (0..config.clients)
                .map(|client| {
                    spawn_client(
                        &cluster,
                        &layout,
                        &log,
                        &seq,
                        config,
                        client + 100,
                        config.txns_per_client / 2,
                    )
                })
                .collect();
            for w in phase2 {
                w.join().expect("phase-2 client");
            }
        }
    }
    cluster.uninstall_fault_injector();
    gc_stop.store(true, Ordering::SeqCst);
    let gc_pruned = gc_thread.map(|h| h.join().expect("gc thread"));

    // ---- check ----
    let history = log.snapshot();
    let committed = history
        .iter()
        .filter(|r| r.client > 0 && !r.replica && r.committed())
        .count();
    let aborted = history
        .iter()
        .filter(|r| r.client > 0 && !r.replica && !r.committed())
        .count();
    let replica_reads = history.iter().filter(|r| r.replica).count();
    let check = CheckConfig {
        source,
        dest,
        migrating: vec![shard],
        tm_cts,
        migration_committed,
        strict_timestamp_reads: config.oracle == OracleKind::Gts,
    };
    let mut violations = check_history(&history, &check);
    if config.isolation == IsolationLevel::Serializable {
        violations.extend(check_serializability(&history));
    }
    violations.extend(trace_violations);
    if let Some(detail) = migration_failure {
        violations.push(Violation::MigrationFailed { detail });
    }
    // Final scan from a node that is not the migration source, with a
    // causal token covering every commit in the history.
    let max_cts = history
        .iter()
        .filter_map(|r| r.commit_ts)
        .chain(tm_cts)
        .max()
        .unwrap_or(Timestamp(1));
    let scan_session = Session::connect(&cluster, NodeId(config.nodes - 1));
    let mut scan_txn = scan_session.begin_after(max_cts);
    let observed: BTreeMap<u64, Value> = scan_txn
        .scan_table(&layout)
        .expect("final scan")
        .into_iter()
        .collect();
    scan_txn.abort();
    violations.extend(check_final_state(&history, &observed));

    ScenarioOutcome {
        plan: plan.clone(),
        engine: config.engine,
        history,
        violations,
        committed,
        aborted,
        migration_committed,
        tm_cts,
        gc_pruned,
        restart,
        replica_reads,
    }
}

/// Post-hoc trace invariant for tolerated-fault runs: a migration that
/// reported success must carry well-formed span trees whose root phases
/// match the engine's canonical protocol order (copy before barrier before
/// `T_m`; no unclosed spans).
fn check_migration_traces(report: &MigrationReport) -> Vec<Violation> {
    let mut violations = Vec::new();
    if report.traces.is_empty() {
        violations.push(Violation::TraceMalformed {
            engine: report.engine.to_string(),
            detail: "successful migration recorded no trace".to_string(),
        });
    }
    for trace in &report.traces {
        if let Err(detail) = trace.check_well_formed() {
            violations.push(Violation::TraceMalformed {
                engine: trace.engine.to_string(),
                detail,
            });
            continue;
        }
        if let Some(expected) = expected_phases(trace.engine) {
            let got = trace.root_phases();
            if got != expected {
                violations.push(Violation::TraceMalformed {
                    engine: trace.engine.to_string(),
                    detail: format!("phase sequence {got:?}, expected {expected:?}"),
                });
            }
        }
    }
    violations
}

/// Spawns one seeded client thread: `txns` transactions, each reading 1–2
/// keys and updating 1–2 *other* keys, all distinct, issued in `(shard,
/// key)` order so shard-lock mode cannot deadlock. Every attempted
/// transaction — committed or aborted — is recorded.
fn spawn_client(
    cluster: &Arc<Cluster>,
    layout: &TableLayout,
    log: &Arc<HistoryLog>,
    seq: &Arc<AtomicU64>,
    config: &ScenarioConfig,
    client: u32,
    txns: u32,
) -> std::thread::JoinHandle<()> {
    let cluster = Arc::clone(cluster);
    let layout = *layout;
    let log = Arc::clone(log);
    let seq = Arc::clone(seq);
    let keys = config.keys;
    // Writers coordinate on primaries only; the replica (last node of the
    // replica profile) serves no client writes.
    let nodes = match config.profile {
        FaultProfile::Replica => config.nodes - 1,
        _ => config.nodes,
    };
    let seed = config.seed;
    std::thread::spawn(move || {
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ u64::from(client));
        let coordinator = NodeId(rng.gen_range(0..nodes));
        let session = Session::connect(&cluster, coordinator);
        for t in 0..txns {
            // Distinct keys; the leading ones are read, the rest written.
            let n_reads = rng.gen_range(1..=2usize);
            let n_writes = rng.gen_range(1..=2usize);
            let mut chosen: Vec<u64> = Vec::new();
            while chosen.len() < n_reads + n_writes {
                let k = rng.gen_range(0..keys);
                if !chosen.contains(&k) {
                    chosen.push(k);
                }
            }
            let mut ops: Vec<(u64, bool)> = chosen
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i >= n_reads))
                .collect();
            // Global statement order by (shard, key): under shard locking
            // every statement takes the shard lock, so a consistent order
            // prevents deadlocks between clients.
            ops.sort_by_key(|(k, _)| (layout.shard_for(*k).0, *k));

            let begin_seq = seq.fetch_add(1, Ordering::SeqCst);
            let mut txn = session.begin();
            let begin_ts = txn.begin_ts();
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            let mut failed = false;
            for (key, is_write) in ops {
                if is_write {
                    let value = Value::copy_from_slice(format!("c{client}-t{t}-k{key}").as_bytes());
                    match txn.update(&layout, key, value.clone()) {
                        Ok(()) => writes.push(OpWrite {
                            key,
                            snap_ts: txn.start_ts(),
                            kind: MutKind::Update,
                            value: Some(value),
                        }),
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                } else {
                    match txn.read(&layout, key) {
                        Ok(observed) => reads.push(OpRead {
                            key,
                            snap_ts: txn.start_ts(),
                            observed,
                        }),
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
            }
            let routes = txn.routes();
            let xid = txn.xid();
            let commit_ts = if failed {
                txn.abort();
                None
            } else {
                txn.commit().ok()
            };
            let commit_seq = if commit_ts.is_some() {
                seq.fetch_add(1, Ordering::SeqCst)
            } else {
                0
            };
            log.record(TxnRecord {
                xid,
                client,
                begin_ts,
                commit_ts,
                reads,
                writes,
                routes,
                begin_seq,
                commit_seq,
                replica: false,
            });
        }
    })
}

/// Spawns one seeded read-only client on the replica: `txns` transactions,
/// each reading 1–3 keys at the replica's watermark. A begin that times out
/// (certification or watermark wait) or a read that errors transiently
/// skips the round — only completed read sets are recorded, each marked
/// with the replica flag so the checker applies the staleness oracle.
fn spawn_replica_reader(
    cluster: &Arc<Cluster>,
    layout: &TableLayout,
    log: &Arc<HistoryLog>,
    seq: &Arc<AtomicU64>,
    config: &ScenarioConfig,
    client: u32,
    txns: u32,
) -> std::thread::JoinHandle<()> {
    let cluster = Arc::clone(cluster);
    let layout = *layout;
    let log = Arc::clone(log);
    let seq = Arc::clone(seq);
    let keys = config.keys;
    let seed = config.seed;
    std::thread::spawn(move || {
        let session =
            ReplicaSession::connect(&cluster, REPLICA_NODE).expect("replica not registered");
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0x9e6c_6356_8b57_d0ed) ^ u64::from(client));
        for t in 0..txns {
            let n_reads = rng.gen_range(1..=3usize);
            let chosen: Vec<u64> = (0..n_reads).map(|_| rng.gen_range(0..keys)).collect();
            let begin_seq = seq.fetch_add(1, Ordering::SeqCst);
            let Ok(txn) = session.begin() else {
                continue;
            };
            let snap = txn.snap_ts();
            let mut reads = Vec::new();
            let mut failed = false;
            for key in chosen {
                match txn.read(&layout, key) {
                    Ok(observed) => reads.push(OpRead {
                        key,
                        snap_ts: snap,
                        observed,
                    }),
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            drop(txn);
            if failed {
                continue;
            }
            let commit_seq = seq.fetch_add(1, Ordering::SeqCst);
            log.record(TxnRecord {
                // Synthetic xid in a range no real transaction reaches.
                xid: TxnId::new(
                    REPLICA_NODE,
                    0x5000_0000 + u64::from(client) * 0x1000 + u64::from(t),
                ),
                client,
                begin_ts: snap,
                commit_ts: Some(snap),
                reads,
                writes: vec![],
                routes: vec![],
                begin_seq,
                commit_seq,
                replica: true,
            });
        }
    })
}

/// Records one full-table replica read at the caught-up watermark — the
/// end-of-scenario staleness assertion: after writers quiesce and the
/// watermark covers every commit, the replica must serve the newest
/// version of every key.
fn record_replica_scan(
    cluster: &Arc<Cluster>,
    layout: &TableLayout,
    log: &Arc<HistoryLog>,
    seq: &Arc<AtomicU64>,
    keys: u64,
) {
    let session = ReplicaSession::connect(cluster, REPLICA_NODE).expect("replica not registered");
    let begin_seq = seq.fetch_add(1, Ordering::SeqCst);
    let txn = session.begin().expect("caught-up replica begin");
    let snap = txn.snap_ts();
    let mut reads = Vec::new();
    for key in 0..keys {
        let observed = txn.read(layout, key).expect("caught-up replica read");
        reads.push(OpRead {
            key,
            snap_ts: snap,
            observed,
        });
    }
    drop(txn);
    let commit_seq = seq.fetch_add(1, Ordering::SeqCst);
    log.record(TxnRecord {
        xid: TxnId::new(REPLICA_NODE, 0x6000_0000),
        client: 999,
        begin_ts: snap,
        commit_ts: Some(snap),
        reads,
        writes: vec![],
        routes: vec![],
        begin_seq,
        commit_seq,
        replica: true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_passes_and_is_deterministic() {
        let cfg = ScenarioConfig::remus_smoke(1);
        let a = run_scenario(&cfg);
        let b = run_scenario(&cfg);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.passed(), b.passed());
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert!(a.committed > 0);
    }

    #[test]
    fn crash_scenario_recovers_and_checks_out() {
        let cfg = ScenarioConfig::from_seed(4);
        assert_eq!(cfg.profile, FaultProfile::CrashTm);
        let outcome = run_scenario(&cfg);
        assert!(outcome.passed(), "violations: {:?}", outcome.violations);
        assert!(outcome.plan.crash_point().is_some());
    }

    #[test]
    fn replica_scenario_smoke() {
        let cfg = ScenarioConfig::replica(2, OracleKind::Dts);
        let outcome = run_scenario(&cfg);
        assert!(outcome.passed(), "violations: {:?}", outcome.violations);
        assert!(outcome.migration_committed);
        assert!(outcome.committed > 0);
        assert!(outcome.replica_reads > 0, "no replica reads recorded");
    }

    #[test]
    fn restart_scenario_smoke() {
        let dir =
            std::env::temp_dir().join(format!("remus-chaos-restart-smoke-{}", std::process::id()));
        let cfg = ScenarioConfig::crash_restart(7, EngineKind::Remus, OracleKind::Dts, &dir);
        let outcome = run_scenario(&cfg);
        std::fs::remove_dir_all(&dir).expect("tmpdir hygiene");
        assert!(outcome.passed(), "violations: {:?}", outcome.violations);
        let (victim, summary) = outcome.restart.expect("restart ran");
        assert!(victim == NodeId(0) || victim == NodeId(1));
        assert!(summary.committed > 0, "replay rebuilt nothing: {summary:?}");
        assert!(outcome.migration_committed);
    }
}
