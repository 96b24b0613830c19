//! Chaos planner mode: the elasticity autopilot under faults.
//!
//! The classic runner ([`run_scenario`](crate::runner::run_scenario))
//! migrates a *fixed* shard between *fixed* nodes. Planner mode instead
//! lets the planner choose every migration from measured load, then runs
//! the chosen migrations through a real engine with injected faults and
//! concurrent writers, and checks the multi-migration history against SI.
//!
//! A scenario is `rounds` iterations of:
//!
//! 1. **Reset** the load accounting (isolates this round's measurement
//!    from the previous round's fault-era traffic).
//! 2. **Measured batch** — single-threaded, read-only, seeded traffic
//!    that hammers one seed-chosen hot node and brushes every other
//!    shard. Read tallies are charged at statement execution, so the
//!    resulting per-shard loads are a pure function of the seed and the
//!    ownership state — the planner's input replays bit-identically.
//! 3. **Plan** — one [`Planner::decide`] tick over the rolled window
//!    (`PlannerConfig::chaos_mode`: EWMA off, cost signals off, infinite
//!    cooldown, so decisions depend on nothing timing-polluted).
//! 4. **Execute** — each planned migration runs through the scenario's
//!    engine with a seeded fault plan installed and seeded writer threads
//!    racing it, every attempt recorded into the history.
//!
//! The determinism contract extends the runner's: not just the fault
//! schedule and the verdict, but the *decision list itself* is a pure
//! function of the seed — [`PlannerScenarioOutcome::decisions`] compares
//! equal across replays of the same seed. The final history must satisfy
//! snapshot isolation with one [`MigrationSpec`] per autopilot-chosen
//! move, and the final table contents must equal the history's model.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_clock::{Dts, Gts, OracleKind, PhysicalClock, TimestampOracle, WallClock};
use remus_cluster::{Cluster, ClusterBuilder, ReplicaSession, Session};
use remus_common::{NodeId, PlannerConfig, ShardId, SimConfig, TableId, Timestamp, TxnId};
use remus_planner::{Action, ObservationCollector, Planner};
use remus_shard::TableLayout;
use remus_storage::Value;

use crate::checker::{check_final_state, check_history_multi, MigrationSpec, Verdict, Violation};
use crate::history::{HistoryLog, MutKind, OpRead, OpWrite, TxnRecord};
use crate::net::FaultyNetwork;
use crate::plan::{FaultPlan, FaultProfile, PlanInjector};
use crate::runner::EngineKind;

/// How many times the measured batch sweeps each shard of the hot node
/// (cold shards are swept once). With 8 keys per shard and 2 shards per
/// node this yields hot-node load 80 vs. 16 per cold node — far past the
/// 1.2 imbalance trigger, and light enough that moving one hot shard
/// strictly improves the balance.
const HOT_SWEEPS: u32 = 5;

/// Full description of one planner-mode chaos scenario.
#[derive(Debug, Clone)]
pub struct PlannerScenarioConfig {
    /// Master seed: hot-node choices, fault plans, and writer keys all
    /// derive from it.
    pub seed: u64,
    /// Engine the autopilot's migrations run through (push engines; the
    /// planner drives them interchangeably).
    pub engine: EngineKind,
    /// Timestamp oracle. GTS enables the timestamp-strict read axiom.
    pub oracle: OracleKind,
    /// Cluster size.
    pub nodes: u32,
    /// Preloaded key range `0..keys`.
    pub keys: u64,
    /// Shard count (direct layout: key `k` lives on shard `k % shards`).
    pub shards: u32,
    /// Measure → plan → execute iterations.
    pub rounds: u32,
    /// Writer threads racing each planned migration.
    pub writers: u32,
    /// Transactions per writer per migration.
    pub txns_per_writer: u32,
    /// Replica actions on: the planner runs
    /// [`PlannerConfig::chaos_replica_mode`], the last node starts as an
    /// empty spare (shards spread over the others), and the round script
    /// alternates read-hot and write-only measured batches so the seed
    /// deterministically drives a provision *and* a decommission.
    pub replicas: bool,
}

impl PlannerScenarioConfig {
    /// Derives the canonical planner scenario for a seed: the engine
    /// cycles through the push engines and the oracle alternates GTS/DTS
    /// across engine cycles.
    pub fn from_seed(seed: u64) -> PlannerScenarioConfig {
        let push = [
            EngineKind::Remus,
            EngineKind::LockAbort,
            EngineKind::Remaster,
        ];
        let oracle = if (seed / 3).is_multiple_of(2) {
            OracleKind::Gts
        } else {
            OracleKind::Dts
        };
        PlannerScenarioConfig {
            seed,
            engine: push[(seed % 3) as usize],
            oracle,
            nodes: 3,
            keys: 48,
            shards: 6,
            rounds: 4,
            writers: 2,
            txns_per_writer: 6,
            replicas: false,
        }
    }

    /// The replica-action variant for a seed: the canonical 4-node replica
    /// topology (shards spread over nodes 0–2, node 3 an empty spare), the
    /// engine cycling through the push engines for the migrations that
    /// still run, and the oracle chosen explicitly so a test matrix can
    /// sweep seeds × {GTS, DTS}.
    ///
    /// The round script is fixed: rounds 0, 1, and 3 measure a read-hot
    /// batch, round 2 a write-only batch. Round 0 trips the read-offload
    /// trigger (`Replicate` to the spare), round 1 balances with the
    /// replica live, round 2's readless window drops demand below the
    /// floor (`Decommission`), and round 3 balances again after the
    /// retirement (re-provisioning is parked behind the infinite chaos
    /// cooldown).
    pub fn replica_from_seed(seed: u64, oracle: OracleKind) -> PlannerScenarioConfig {
        let push = [
            EngineKind::Remus,
            EngineKind::LockAbort,
            EngineKind::Remaster,
        ];
        PlannerScenarioConfig {
            seed,
            engine: push[(seed % 3) as usize],
            oracle,
            nodes: 4,
            keys: 48,
            shards: 6,
            rounds: 4,
            writers: 2,
            txns_per_writer: 6,
            replicas: true,
        }
    }

    /// How many of the first nodes own shards (the rest start as spares).
    fn spread(&self) -> u32 {
        if self.replicas {
            self.nodes - 1
        } else {
            self.nodes
        }
    }
}

/// The result of one planner-mode scenario run.
#[derive(Debug)]
pub struct PlannerScenarioOutcome {
    /// Engine exercised.
    pub engine: EngineKind,
    /// Every planner decision in execution order, in the planner's stable
    /// string form. Identical across replays of the same seed.
    pub decisions: Vec<String>,
    /// One spec per executed migration, as handed to the checker.
    pub migrations: Vec<MigrationSpec>,
    /// Every recorded transaction.
    pub history: Vec<TxnRecord>,
    /// Checker verdict: the violation list plus which oracles failed
    /// (passing = SI held across every chosen migration).
    pub violations: Verdict,
    /// Committed writer transactions.
    pub committed: usize,
    /// Aborted writer transactions.
    pub aborted: usize,
}

impl PlannerScenarioOutcome {
    /// Whether the history checked out.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total keys read through replica sessions — the staleness oracle's
    /// evidence that replica actions were actually exercised.
    pub fn replica_reads(&self) -> usize {
        self.history
            .iter()
            .filter(|r| r.replica)
            .map(|r| r.reads.len())
            .sum()
    }
}

/// Runs one planner-mode scenario.
pub fn run_planner_scenario(config: &PlannerScenarioConfig) -> PlannerScenarioOutcome {
    // ---- cluster ----
    let oracle: Arc<dyn TimestampOracle> = match config.oracle {
        OracleKind::Gts => Arc::new(Gts::new()),
        OracleKind::Dts => {
            let clocks: Vec<Arc<dyn PhysicalClock>> = (0..config.nodes)
                .map(|_| Arc::new(WallClock::new()) as Arc<dyn PhysicalClock>)
                .collect();
            Arc::new(Dts::from_clocks(clocks))
        }
    };
    let cluster = ClusterBuilder::new(config.nodes as usize)
        .config(SimConfig::instant())
        .oracle_instance(oracle)
        .network(Arc::new(FaultyNetwork::from_seed(
            config.seed,
            config.nodes,
        )))
        .cc_mode(config.engine.cc_mode())
        .build();
    // In replica mode the last node starts as an empty spare — the only
    // admissible `Replicate` destination, so the decision is seed-pure.
    let spread = config.spread();
    let layout = cluster
        .create_table_with_layout(TableLayout::direct(TableId(1), 0, config.shards), |i| {
            NodeId(i % spread)
        });
    let mut owners: BTreeMap<ShardId, NodeId> = layout
        .shard_ids()
        .enumerate()
        .map(|(i, shard)| (shard, NodeId(i as u32 % spread)))
        .collect();

    // ---- shared recording state ----
    let log = Arc::new(HistoryLog::new());
    let seq = Arc::new(AtomicU64::new(0));

    // ---- preload (client 0) ----
    let session = Session::connect(&cluster, NodeId(0));
    {
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

    // ---- measure → plan → execute rounds ----
    let planner_config = if config.replicas {
        PlannerConfig::chaos_replica_mode(config.seed)
    } else {
        PlannerConfig::chaos_mode(config.seed)
    };
    let mut planner = Planner::new(planner_config);
    let mut collector = ObservationCollector::new();
    let mut decisions: Vec<String> = Vec::new();
    let mut migrations: Vec<MigrationSpec> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    // The replica process the harness provisioned, if one is live. The
    // harness executes replica decisions itself and never enables the
    // cluster's read-offload flag, so the measured batches stay
    // primary-routed and the planner's input stays a pure function of the
    // seed even while a replica is attached.
    let mut replica_proc: Option<(NodeId, remus_core::ReplicaProcess)> = None;
    let mut replica_sweeps: u64 = 0;
    let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    for round in 0..config.rounds {
        // 1. Isolate this round's measurement from fault-era traffic.
        cluster.reset_load();

        // 2. Deterministic measured batch: single-threaded recorded
        // sweeps. Read-hot rounds sweep reads, HOT_SWEEPS per shard of the
        // hot node and one elsewhere; in replica mode round 2 is instead a
        // uniform write-only sweep, which zeroes the windowed read demand
        // (the decommission trigger) without tripping the balancer.
        let hot = NodeId(rng.gen_range(0..spread));
        let write_only = config.replicas && round == 2;
        if write_only {
            for shard in layout.shard_ids() {
                record_shard_write_sweep(&layout, &session, &log, &seq, config.keys, shard, round);
            }
        } else {
            for shard in layout.shard_ids() {
                let sweeps = if owners[&shard] == hot { HOT_SWEEPS } else { 1 };
                for _ in 0..sweeps {
                    record_shard_sweep(&layout, &session, &log, &seq, config.keys, shard);
                }
            }
        }

        // 3. One planner tick over the freshly rolled window.
        let obs = collector.collect(&cluster, 1.0);
        let tick = planner.decide(&obs);

        // 4. Execute each decision with faults and racing writers.
        for decision in tick.decisions {
            decisions.push(decision.to_string());
            let plan_seed = config
                .seed
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(u64::from(round) + 1);
            match decision.action {
                Action::Migrate(task) => {
                    let shard = task.shards[0];
                    let plan = FaultPlan::generate(
                        plan_seed,
                        FaultProfile::Tolerated,
                        task.source,
                        task.dest,
                    );
                    let injector = Arc::new(PlanInjector::from_specs(plan.specs));
                    cluster
                        .install_fault_injector(injector as Arc<dyn remus_common::FaultInjector>);
                    let workers: Vec<_> = (0..config.writers)
                        .map(|w| {
                            spawn_writer(
                                &cluster,
                                &layout,
                                &log,
                                &seq,
                                config,
                                round * 8 + w + 1,
                                config.txns_per_writer,
                            )
                        })
                        .collect();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    let result = config.engine.engine().migrate(&cluster, &task);
                    for w in workers {
                        w.join().expect("writer thread");
                    }
                    cluster.uninstall_fault_injector();

                    // An engine can fail after the ownership transfer
                    // committed (post-T_m phases); routing is the ground
                    // truth, exactly as in the autopilot executor.
                    let row = cluster
                        .current_owner(cluster.node(task.source), shard)
                        .expect("owner row");
                    let committed = match &result {
                        Ok(_) => true,
                        Err(e) => {
                            let landed = row.node == task.dest;
                            if !landed {
                                failures.push(format!("{e:?}"));
                                planner.note_failed(&task.shards);
                            }
                            landed
                        }
                    };
                    let tm_cts = (committed && row.node == task.dest && row.cts.is_valid())
                        .then_some(row.cts);
                    migrations.push(MigrationSpec {
                        shard,
                        source: task.source,
                        dest: task.dest,
                        tm_cts,
                        committed,
                    });
                    if committed {
                        owners.insert(shard, task.dest);
                    }
                }
                Action::Replicate { src, dst, .. } => {
                    // Ship-stream and applier faults from the canonical
                    // replica profile, racing the bootstrap along with the
                    // seeded writers. (The profile's optional CrashRestart
                    // spec is runner-driven and inert here — planner-mode
                    // re-bootstrap drills live in the classic runner.)
                    let other = NodeId((src.0 + 1) % spread);
                    let plan = FaultPlan::generate(plan_seed, FaultProfile::Replica, src, other);
                    let injector = Arc::new(PlanInjector::from_specs(plan.specs));
                    cluster
                        .install_fault_injector(injector as Arc<dyn remus_common::FaultInjector>);
                    let workers: Vec<_> = (0..config.writers)
                        .map(|w| {
                            spawn_writer(
                                &cluster,
                                &layout,
                                &log,
                                &seq,
                                config,
                                round * 8 + w + 1,
                                config.txns_per_writer,
                            )
                        })
                        .collect();
                    let proc = remus_core::start_replica(&cluster, dst).expect("replica bootstrap");
                    let certified = proc.wait_certified(std::time::Duration::from_secs(30));
                    for w in workers {
                        w.join().expect("writer thread");
                    }
                    cluster.uninstall_fault_injector();
                    match certified {
                        Ok(()) => {
                            replica_proc = Some((dst, proc));
                        }
                        Err(e) => {
                            proc.stop();
                            cluster.unregister_replica(dst);
                            failures.push(format!("{e:?}"));
                            planner.note_replica_failed();
                        }
                    }
                }
                Action::Decommission { replica } => {
                    // Final staleness record before teardown: the replica
                    // must still serve a watermark-consistent snapshot.
                    record_replica_sweep_at(
                        &cluster,
                        &layout,
                        &log,
                        &seq,
                        config.keys,
                        replica,
                        &mut replica_sweeps,
                    );
                    if let Some((node, proc)) = replica_proc.take() {
                        debug_assert_eq!(node, replica);
                        proc.stop();
                    }
                    cluster.unregister_replica(replica);
                }
            }
        }

        // Staleness oracle feed: while a replica is live, one recorded
        // replica sweep per round, all under the same client id so the
        // checker's per-client watermark-regression rule really bites.
        if let Some((node, _)) = &replica_proc {
            record_replica_sweep_at(
                &cluster,
                &layout,
                &log,
                &seq,
                config.keys,
                *node,
                &mut replica_sweeps,
            );
        }
    }

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
    let mut violations =
        check_history_multi(&history, &migrations, config.oracle == OracleKind::Gts);
    for detail in failures {
        violations.push(Violation::MigrationFailed { detail });
    }
    let max_cts = history
        .iter()
        .filter_map(|r| r.commit_ts)
        .chain(migrations.iter().filter_map(|m| m.tm_cts))
        .max()
        .unwrap_or(Timestamp(1));
    // The scan coordinator must be a primary — in replica mode the last
    // node may still be a registered replica (e.g. if a bootstrap fault
    // left no live replica to decommission).
    let scan_session = Session::connect(&cluster, NodeId(spread - 1));
    let mut scan_txn = scan_session.begin_after(max_cts);
    let observed: BTreeMap<u64, Value> = scan_txn
        .scan_table(&layout)
        .expect("final scan")
        .into_iter()
        .collect();
    scan_txn.abort();
    violations.extend(check_final_state(&history, &observed));

    PlannerScenarioOutcome {
        engine: config.engine,
        decisions,
        migrations,
        history,
        violations,
        committed,
        aborted,
    }
}

/// One recorded read-only transaction sweeping every key of `shard`
/// (direct layout: keys congruent to the shard index). Runs on the main
/// thread so the load it tallies is a pure function of the caller's
/// sequence — commit failures are recorded but cannot perturb the tallies,
/// which are charged at statement execution.
fn record_shard_sweep(
    layout: &TableLayout,
    session: &Session,
    log: &HistoryLog,
    seq: &AtomicU64,
    keys: u64,
    shard: ShardId,
) {
    let begin_seq = seq.fetch_add(1, Ordering::SeqCst);
    let mut txn = session.begin();
    let begin_ts = txn.begin_ts();
    let mut reads = Vec::new();
    let mut failed = false;
    for key in (0..keys).filter(|&k| layout.shard_for(k) == shard) {
        match txn.read(layout, key) {
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
        client: 0,
        begin_ts,
        commit_ts,
        reads,
        writes: vec![],
        routes,
        begin_seq,
        commit_seq,
        replica: false,
    });
}

/// One recorded write-only transaction updating every key of `shard`.
/// The write-only round of the replica script: zeroes the windowed read
/// demand (the decommission trigger is a pure function of the batch)
/// while keeping write load uniform across shards so the balancer stays
/// quiet.
fn record_shard_write_sweep(
    layout: &TableLayout,
    session: &Session,
    log: &HistoryLog,
    seq: &AtomicU64,
    keys: u64,
    shard: ShardId,
    round: u32,
) {
    let begin_seq = seq.fetch_add(1, Ordering::SeqCst);
    let mut txn = session.begin();
    let begin_ts = txn.begin_ts();
    let mut writes = Vec::new();
    let mut failed = false;
    for key in (0..keys).filter(|&k| layout.shard_for(k) == shard) {
        let value = Value::copy_from_slice(format!("sweep-r{round}-k{key}").as_bytes());
        match txn.update(layout, key, value.clone()) {
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
        client: 0,
        begin_ts,
        commit_ts,
        reads: vec![],
        writes,
        routes,
        begin_seq,
        commit_seq,
        replica: false,
    });
}

/// Records one full-table read at `replica`'s current watermark. Every
/// sweep shares client 900 so the checker's per-client replica-regression
/// rule (watermarks must never run backwards) covers the whole scenario;
/// `sweeps` numbers the synthetic xids.
fn record_replica_sweep_at(
    cluster: &Arc<Cluster>,
    layout: &TableLayout,
    log: &Arc<HistoryLog>,
    seq: &Arc<AtomicU64>,
    keys: u64,
    replica: NodeId,
    sweeps: &mut u64,
) {
    let session = ReplicaSession::connect(cluster, replica).expect("replica not registered");
    let begin_seq = seq.fetch_add(1, Ordering::SeqCst);
    let txn = session.begin().expect("certified replica begin");
    let snap = txn.snap_ts();
    let mut reads = Vec::new();
    for key in 0..keys {
        let observed = txn.read(layout, key).expect("replica read");
        reads.push(OpRead {
            key,
            snap_ts: snap,
            observed,
        });
    }
    drop(txn);
    let commit_seq = seq.fetch_add(1, Ordering::SeqCst);
    *sweeps += 1;
    log.record(TxnRecord {
        xid: TxnId::new(replica, 0x7000_0000 + *sweeps),
        client: 900,
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

/// Spawns one seeded writer thread racing a migration: `txns`
/// transactions, each updating 1–2 distinct keys in `(shard, key)` order,
/// every attempt recorded.
fn spawn_writer(
    cluster: &Arc<Cluster>,
    layout: &TableLayout,
    log: &Arc<HistoryLog>,
    seq: &Arc<AtomicU64>,
    config: &PlannerScenarioConfig,
    client: u32,
    txns: u32,
) -> std::thread::JoinHandle<()> {
    let cluster = Arc::clone(cluster);
    let layout = *layout;
    let log = Arc::clone(log);
    let seq = Arc::clone(seq);
    let keys = config.keys;
    let nodes = config.nodes;
    let seed = config.seed;
    std::thread::spawn(move || {
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ u64::from(client));
        let coordinator = NodeId(rng.gen_range(0..nodes));
        let session = Session::connect(&cluster, coordinator);
        for t in 0..txns {
            let n_writes = rng.gen_range(1..=2usize);
            let mut chosen: Vec<u64> = Vec::new();
            while chosen.len() < n_writes {
                let k = rng.gen_range(0..keys);
                if !chosen.contains(&k) {
                    chosen.push(k);
                }
            }
            chosen.sort_by_key(|&k| (layout.shard_for(k).0, k));

            let begin_seq = seq.fetch_add(1, Ordering::SeqCst);
            let mut txn = session.begin();
            let begin_ts = txn.begin_ts();
            let mut writes = Vec::new();
            let mut failed = false;
            for key in chosen {
                let value = Value::copy_from_slice(format!("w{client}-t{t}-k{key}").as_bytes());
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
                reads: vec![],
                writes,
                routes,
                begin_seq,
                commit_seq,
                replica: false,
            });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_scenario_moves_shards_and_passes() {
        let config = PlannerScenarioConfig::from_seed(0);
        assert_eq!(config.engine, EngineKind::Remus);
        let outcome = run_planner_scenario(&config);
        assert!(outcome.passed(), "violations: {:?}", outcome.violations);
        assert!(
            !outcome.decisions.is_empty(),
            "the hot-node batch must trip the imbalance trigger"
        );
        assert_eq!(outcome.decisions.len(), outcome.migrations.len());
        assert!(outcome.migrations.iter().all(|m| m.committed));
    }

    #[test]
    fn decisions_replay_identically() {
        let config = PlannerScenarioConfig::from_seed(1);
        let a = run_planner_scenario(&config);
        let b = run_planner_scenario(&config);
        assert_eq!(a.decisions, b.decisions);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert!(b.passed(), "violations: {:?}", b.violations);
    }

    #[test]
    fn replica_scenario_provisions_and_decommissions() {
        let config = PlannerScenarioConfig::replica_from_seed(0, OracleKind::Gts);
        let outcome = run_planner_scenario(&config);
        assert!(outcome.passed(), "violations: {:?}", outcome.violations);
        assert!(
            outcome
                .decisions
                .iter()
                .any(|d| d.starts_with("replicate ")),
            "round 0's read-hot batch must provision: {:?}",
            outcome.decisions
        );
        assert!(
            outcome
                .decisions
                .iter()
                .any(|d| d.starts_with("decommission ")),
            "round 2's readless window must retire the replica: {:?}",
            outcome.decisions
        );
        assert!(outcome.replica_reads() > 0);
    }

    #[test]
    fn replica_decisions_replay_identically() {
        let config = PlannerScenarioConfig::replica_from_seed(5, OracleKind::Dts);
        let a = run_planner_scenario(&config);
        let b = run_planner_scenario(&config);
        assert_eq!(a.decisions, b.decisions);
        assert!(a.passed(), "violations: {:?}", a.violations);
        assert!(b.passed(), "violations: {:?}", b.violations);
    }
}
