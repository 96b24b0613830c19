//! Elasticity-autopilot benchmark: hotspot shift under three policies.
//!
//! One client session drives the [`HotspotShift`] workload — Zipfian
//! traffic over a two-shard hot pair whose every transaction writes both
//! shards — against a two-node cluster with a simulated network delay.
//! The phase-0 pair is co-located on node 0, so commits take the local
//! fast path; after `SHIFT_AFTER` transactions the hot pair jumps to a
//! *split* pair (one shard per node) and every commit suddenly pays
//! cross-node 2PC hops. The same shift runs under three policies:
//!
//! * **autopilot** — a [`remus_planner::Autopilot`] watches the live
//!   affinity signal and reunites the new pair (the b-side shard moves,
//!   it carries only writes and is the cheaper side), restoring local
//!   commits.
//! * **static-plan** — the capacity plan computed *before* the shift: it
//!   migrates yesterday's hot shard, which is a correct plan for a world
//!   that no longer exists and does nothing for the new pair.
//! * **no-migration** — the cluster is left alone.
//!
//! Each leg measures three windows: `pre` (phase 0), `react` (post-shift
//! until the pair is co-resident again, capped), and `steady` (fixed
//! commits after reaction). The headline numbers are **recovery** —
//! steady/pre throughput within the autopilot leg, expected back near
//! 1.0x — and the autopilot's steady-state advantage over no-migration;
//! the emitted `remus-bench/v1` report is held to the `planner recovery`
//! rows of [`remus_bench::gate::GATES`], as `bench_check` does.
//!
//! A second scenario, `--scenario read-skew`, benchmarks the other half
//! of the replicate-or-migrate decision core: a read-hot shard under a
//! continuous writer, where the adaptive planner answers with a
//! WAL-shipped replica (reads offload to the apply watermark, skipping
//! the shared oracle and the contended primary storage) while a
//! forced-migrate leg — the same planner with replication disabled — can
//! only shuffle the shard between primaries. The headline number is the
//! **edge**: the replicate leg's read recovery (steady/pre read
//! throughput) over the forced-migrate leg's, gated by the `replicate
//! recovery` rows of the same table.
//!
//! Usage: `cargo run --release -p remus-bench --bin bench_planner --
//! [--scenario hotspot|read-skew] --json BENCH_planner.json`

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_bench::{
    finish, gate, json_path_arg, BenchReport, EngineKind, ScenarioReport, ScenarioResult,
    TableSection, CLIENT_SEED,
};
use remus_clock::OracleKind;
use remus_cluster::{Cluster, ClusterBuilder, ReadRouter, Session};
use remus_common::{ClientId, HotPathConfig, NodeId, PlannerConfig, ShardId, SimConfig, TableId};
use remus_core::{MigrationReport, MigrationTask};
use remus_planner::{Autopilot, AutopilotOptions};
use remus_shard::TableLayout;
use remus_storage::Value;
use remus_workload::{
    EngineConfig, HotspotShift, OpenLoopEngine, RunMetrics, Workload, Ycsb, YcsbConfig,
};

/// Keys in the YCSB table (4 shards, ~256 keys each).
const KEYS: u64 = 1024;
/// Hot keys per shard in the shift workload.
const HOT_KEYS: usize = 16;
/// Zipfian skew over the hot ranks.
const THETA: f64 = 0.9;
/// Phase-0 transactions before the hot pair jumps.
const SHIFT_AFTER: u64 = 6000;
/// Unmeasured phase-0 transactions before the `pre` window starts
/// (process and allocator warm-up).
const WARMUP_TXNS: u64 = 2000;
/// Cap on post-shift commits in the reaction window (the autopilot leg
/// normally exits early, as soon as the pair is co-resident again).
const REACT_MAX: u64 = 1500;
/// Unmeasured commits between reaction and the steady window: refills the
/// session's shard-map cache and drains migration residue so `steady`
/// measures the new routing, not the transition.
const DRAIN_TXNS: u64 = 300;
/// Commits in the steady-state window the gates compare.
const STEADY_TXNS: u64 = 2000;
/// One-way cross-node latency: what makes a split hot pair expensive.
const NET_LATENCY: Duration = Duration::from_micros(100);
/// RNG seed shared by all legs (same key sequence per leg).
const SEED: u64 = 7;

/// Phase-0 hot pair, co-located on node 0 at setup.
const PAIR0: (ShardId, ShardId) = (ShardId(0), ShardId(1));
/// Phase-1 hot pair, split across the nodes at setup.
const PAIR1: (ShardId, ShardId) = (ShardId(2), ShardId(3));

/// Nodes in the read-skew scenario: one loaded primary plus two spares
/// the planner can either replicate onto or migrate to.
const RS_NODES: usize = 3;
/// Shards in the read-skew table, all placed on node 0 at setup.
const RS_SHARDS: u32 = 4;
/// Keys in the read-skew table.
const RS_KEYS: u64 = 1024;
/// Closed-loop read-only router clients in the read-skew scenario.
const RS_READERS: usize = 4;
/// Point reads per read-only transaction.
const RS_READS_PER_TXN: usize = 8;
/// The read-hot (and write-hot) shard: wherever a migration puts it, the
/// writer's updates follow, so only a replica separates the readers from
/// the writer.
const RS_HOT_SHARD: ShardId = ShardId(0);
/// Unmeasured transactions per reader before the pre window.
const RS_WARMUP_TXNS: u64 = 500;
/// Measured transactions per reader in the degraded pre window.
const RS_PRE_TXNS: u64 = 3_000;
/// Unmeasured transactions per reader after the planner has acted:
/// refills router endpoints and drains migration/backfill residue.
const RS_DRAIN_TXNS: u64 = 500;
/// Measured transactions per reader in the steady window.
const RS_STEADY_TXNS: u64 = 5_000;
/// How long the main thread waits for the planner's answer (replica
/// certified, or the primaries rebalanced) before measuring anyway.
const RS_REACT_TIMEOUT: Duration = Duration::from_secs(30);

/// Which policy a leg runs.
enum Policy {
    Autopilot,
    StaticPlan,
    NoMigration,
}

impl Policy {
    fn label(&self) -> &'static str {
        match self {
            Policy::Autopilot => "autopilot",
            Policy::StaticPlan => "static-plan",
            Policy::NoMigration => "no-migration",
        }
    }
}

struct LegResult {
    pre_tps: f64,
    react_tps: f64,
    steady_tps: f64,
    moves: u64,
    aborts: u64,
    scenario: ScenarioResult,
}

/// Whether some node hosts both shards of the phase-1 pair.
fn pair1_colocated(cluster: &Cluster) -> bool {
    cluster.nodes().iter().any(|n| {
        let shards = n.data_shards();
        shards.contains(&PAIR1.0) && shards.contains(&PAIR1.1)
    })
}

/// Planner tuned for the scenario: pure co-location (the balancer is
/// disabled and cost weights are zero so the decision replays exactly),
/// reacting within a few 5 ms windows of the shift.
fn pilot_config() -> PlannerConfig {
    let mut config = PlannerConfig::balanced();
    config.imbalance_ratio = f64::INFINITY;
    config.cost_weight_versions = 0.0;
    config.cost_weight_wal = 0.0;
    config.seed = SEED;
    config
}

fn run_leg(policy: Policy) -> LegResult {
    let mut config = SimConfig::instant();
    config.network_latency = NET_LATENCY;
    config.hot_path = HotPathConfig::tuned();
    let cluster = ClusterBuilder::new(2)
        .cc_mode(EngineKind::Remus.cc_mode())
        .oracle(OracleKind::Gts)
        .config(config)
        .build();
    // Version-chain GC (the tuned hot path's cadence) keeps the Zipfian
    // hot keys' chains short, so the pre and steady windows measure
    // routing cost, not accumulated history.
    cluster.start_maintenance(Duration::from_secs(3600));
    // Shards 0-2 on node 0, shard 3 on node 1: PAIR0 co-located with the
    // client, PAIR1 split across the wire.
    let ycsb = Ycsb::setup_with_placement(
        &cluster,
        YcsbConfig {
            keys: KEYS,
            shards: 4,
            table: TableId(1),
            ..YcsbConfig::default()
        },
        |i| NodeId(u32::from(i == 3)),
    );
    let shift = HotspotShift::new(&ycsb, PAIR0, PAIR1, HOT_KEYS, THETA, SHIFT_AFTER);

    let pilot = match policy {
        Policy::Autopilot => Some(Autopilot::start(
            Arc::clone(&cluster),
            pilot_config(),
            AutopilotOptions {
                tick_interval: Duration::from_millis(5),
                latency: None,
            },
        )),
        _ => None,
    };

    let session = Session::connect(&cluster, NodeId(0));
    let mut rng = SmallRng::seed_from_u64(SEED);
    let metrics = RunMetrics::new();
    let commit_one = |rng: &mut SmallRng| {
        let started = Instant::now();
        // Aborts (the hot pair mid-migration, write-write conflicts) are
        // retried like a real client; only the commit records a latency,
        // measured across its retries.
        loop {
            let outcome = session
                .run(|t| shift.run_once(ClientId(0), t, rng))
                .map(|_| ());
            metrics.record_outcome(started, &outcome);
            if outcome.is_ok() {
                break;
            }
        }
    };

    // Warm-up, unmeasured (phase 0 traffic like the pre window's).
    while shift.executed() < WARMUP_TXNS {
        commit_one(&mut rng);
    }

    // Window 1: phase 0, hot pair local to the client.
    let t0 = Instant::now();
    let mut pre_commits = 0u64;
    while shift.phase() == 0 {
        commit_one(&mut rng);
        pre_commits += 1;
    }
    let pre_elapsed = t0.elapsed();
    metrics.marks.mark("shift", &metrics.timeline);

    // The stale plan fires exactly at the shift: migrate what *was* hot.
    if matches!(policy, Policy::StaticPlan) {
        let task = MigrationTask::single(PAIR0.0, NodeId(0), NodeId(1));
        EngineKind::Remus
            .engine()
            .migrate(&cluster, &task)
            .expect("static plan migration failed");
    }

    // Window 2: post-shift reaction — until the new pair is co-resident
    // again (autopilot) or the cap (the other legs never co-locate it).
    let t1 = Instant::now();
    let mut react_commits = 0u64;
    while react_commits < REACT_MAX && !pair1_colocated(&cluster) {
        commit_one(&mut rng);
        react_commits += 1;
    }
    let react_elapsed = t1.elapsed();

    // Post-transition drain, unmeasured.
    for _ in 0..DRAIN_TXNS {
        commit_one(&mut rng);
    }

    // Window 3: steady state, what the gates compare.
    let t2 = Instant::now();
    for _ in 0..STEADY_TXNS {
        commit_one(&mut rng);
    }
    let steady_elapsed = t2.elapsed();

    let moves = match pilot {
        Some(pilot) => pilot.stop().moves,
        None => u64::from(matches!(policy, Policy::StaticPlan)),
    };
    cluster.stop_maintenance();
    let pre_tps = pre_commits as f64 / pre_elapsed.as_secs_f64();
    let react_tps = react_commits as f64 / react_elapsed.as_secs_f64().max(1e-9);
    let steady_tps = STEADY_TXNS as f64 / steady_elapsed.as_secs_f64();
    let scenario = finish(
        EngineKind::Remus,
        &metrics,
        MigrationReport::default(),
        &cluster,
    );
    let aborts = scenario.migration_aborts + scenario.ww_aborts + scenario.other_aborts;
    println!(
        "{:<12}\tpre={pre_tps:.0}\treact={react_tps:.0}\tsteady={steady_tps:.0}\t\
         moves={moves}\taborts={aborts}",
        policy.label(),
    );
    LegResult {
        pre_tps,
        react_tps,
        steady_tps,
        moves,
        aborts,
        scenario,
    }
}

fn recovery_row(leg: &LegResult, label: &str) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{:.0}", leg.pre_tps),
        format!("{:.0}", leg.react_tps),
        format!("{:.0}", leg.steady_tps),
        format!("{}", leg.moves),
        format!("{}", leg.aborts),
        format!("{:.2}x", leg.steady_tps / leg.pre_tps.max(1e-9)),
    ]
}

/// One read-skew leg.
struct SkewLegResult {
    pre_tps: f64,
    steady_tps: f64,
    replica_share: f64,
    actions: u64,
    scenario: ScenarioResult,
}

impl SkewLegResult {
    fn recovery(&self) -> f64 {
        self.steady_tps / self.pre_tps.max(1e-9)
    }
}

/// Planner for the read-skew legs: the adaptive replicate-or-migrate
/// core with cost weights zeroed (so the replicate-vs-balance pricing
/// reduces to the measured read benefit and replays across runs) and
/// co-location off (the workload has no cross-shard writes).
fn skew_config(replication: bool) -> PlannerConfig {
    let mut config = PlannerConfig::adaptive();
    config.replication = replication;
    config.cost_weight_versions = 0.0;
    config.cost_weight_wal = 0.0;
    config.cost_weight_ship = 0.0;
    config.colocation = false;
    config.seed = SEED;
    config
}

/// One closed-loop router reader: warmed up, then timed over the pre
/// window, parked while the planner reacts, then timed over the steady
/// window. Returns the two window durations and how many steady
/// transactions a replica served.
fn skew_reader(
    cluster: &Arc<Cluster>,
    layout: TableLayout,
    hot_keys: &[u64],
    idx: usize,
    phase: &Barrier,
    acted: &AtomicBool,
    metrics: &RunMetrics,
) -> (Duration, Duration, u64) {
    let mut rng = SmallRng::seed_from_u64(SEED.wrapping_mul(0x9e37_79b9).wrapping_add(idx as u64));
    let mut router = ReadRouter::new(cluster, NodeId(0), idx);
    let mut run_txn = |rng: &mut SmallRng| -> bool {
        let started = Instant::now();
        let mut txn = router.begin().expect("read begin");
        let replica = txn.is_replica();
        for _ in 0..RS_READS_PER_TXN {
            // 3 of 4 reads hit the hot shard's keys; the rest keep the
            // cold shards warm so the balancer sees their load too.
            let key = if rng.gen_range(0..4u32) != 0 {
                hot_keys[rng.gen_range(0..hot_keys.len())]
            } else {
                rng.gen_range(0..RS_KEYS)
            };
            txn.read(&layout, key).expect("read");
        }
        txn.finish().expect("read finish");
        metrics.record_outcome(started, &Ok(()));
        replica
    };
    for _ in 0..RS_WARMUP_TXNS {
        run_txn(&mut rng);
    }
    phase.wait();
    let t0 = Instant::now();
    for _ in 0..RS_PRE_TXNS {
        run_txn(&mut rng);
    }
    let pre = t0.elapsed();
    phase.wait();
    // React: keep the load signal flowing while the planner decides and
    // executes; nothing here is measured.
    while !acted.load(Ordering::Relaxed) {
        run_txn(&mut rng);
    }
    for _ in 0..RS_DRAIN_TXNS {
        run_txn(&mut rng);
    }
    let mut replica_txns = 0u64;
    let t1 = Instant::now();
    for _ in 0..RS_STEADY_TXNS {
        if run_txn(&mut rng) {
            replica_txns += 1;
        }
    }
    (pre, t1.elapsed(), replica_txns)
}

/// Runs one read-skew leg: same cluster, workload, and windows; the two
/// legs differ only in whether the planner may answer with a replica.
fn run_skew_leg(replicate: bool) -> SkewLegResult {
    let mut config = SimConfig::instant();
    // Frequent version-chain GC keeps the hot keys' chains short;
    // `gts_lease` stays at the strict default of 1 so primary-side reads
    // pay the oracle round-trip the replica path gets to skip.
    config.hot_path.gc_interval = Duration::from_millis(5);
    let cluster = ClusterBuilder::new(RS_NODES)
        .cc_mode(EngineKind::Remus.cc_mode())
        .oracle(OracleKind::Gts)
        .config(config)
        .build();
    cluster.start_maintenance(Duration::from_secs(3600));
    // Every shard starts on node 0; nodes 1 and 2 are empty spares the
    // planner can replicate onto or migrate to.
    let layout = cluster.create_table(TableId(1), 0, RS_SHARDS, |_| NodeId(0));
    let seeder = Session::connect(&cluster, NodeId(0));
    for chunk in (0..RS_KEYS).collect::<Vec<_>>().chunks(64) {
        seeder
            .run(|t| {
                for &k in chunk {
                    t.insert(
                        &layout,
                        k,
                        Value::copy_from_slice(format!("v{k}").as_bytes()),
                    )?;
                }
                Ok(())
            })
            .expect("seeding failed");
    }
    let hot_keys: Vec<u64> = (0..RS_KEYS)
        .filter(|k| layout.shard_for(*k) == RS_HOT_SHARD)
        .collect();

    // Continuous writer on the hot shard for the whole leg: whatever the
    // planner does, the write stream follows the shard. One closed-loop
    // client; migration-induced aborts are absorbed by the engine's abort
    // accounting and the next arrival retries.
    let writer = {
        let hot_keys = hot_keys.clone();
        let rounds = AtomicU64::new(0);
        OpenLoopEngine::start(
            &cluster,
            EngineConfig::closed_loop(1, Duration::ZERO, CLIENT_SEED),
            Arc::new(
                move |_c: remus_common::ClientId,
                      t: &mut remus_cluster::SessionTxn<'_>,
                      rng: &mut SmallRng| {
                    let key = hot_keys[rng.gen_range(0..hot_keys.len())];
                    let round = rounds.fetch_add(1, Ordering::Relaxed);
                    t.update(
                        &layout,
                        key,
                        Value::copy_from_slice(format!("w{round}").as_bytes()),
                    )?;
                    Ok(())
                },
            ),
        )
    };

    let metrics = RunMetrics::new();
    let acted = AtomicBool::new(false);
    let replica_txns = AtomicU64::new(0);
    let phase = Barrier::new(RS_READERS + 1);
    let (pre_window, steady_window, pilot_report) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RS_READERS)
            .map(|idx| {
                let (cluster, hot_keys, metrics, phase, acted, replica_txns) =
                    (&cluster, &hot_keys, &metrics, &phase, &acted, &replica_txns);
                scope.spawn(move || {
                    let (pre, steady, from_replica) =
                        skew_reader(cluster, layout, hot_keys, idx, phase, acted, metrics);
                    replica_txns.fetch_add(from_replica, Ordering::Relaxed);
                    (pre, steady)
                })
            })
            .collect();
        phase.wait(); // warm-up done, pre window starts
        phase.wait(); // pre window done on every reader
        let pilot = Autopilot::start(
            Arc::clone(&cluster),
            skew_config(replicate),
            AutopilotOptions {
                tick_interval: Duration::from_millis(5),
                latency: None,
            },
        );
        // Wait for the leg's answer: a certified replica serving offloaded
        // reads, or the hot shard migrated off the loaded primary (the
        // balancer moves the highest-demand shard first, then typically
        // finds no further strictly-improving move). On timeout the steady
        // window measures whatever state the cluster is in and the gates
        // fail.
        let deadline = Instant::now() + RS_REACT_TIMEOUT;
        while Instant::now() < deadline {
            let done = if replicate {
                cluster.read_offload_enabled() && !cluster.replica_ids().is_empty()
            } else {
                !cluster
                    .node(NodeId(0))
                    .data_shards()
                    .contains(&RS_HOT_SHARD)
            };
            if done {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        acted.store(true, Ordering::Relaxed);
        let windows: Vec<(Duration, Duration)> = handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .collect();
        let pre = windows.iter().map(|(p, _)| *p).max().unwrap_or_default();
        let steady = windows.iter().map(|(_, s)| *s).max().unwrap_or_default();
        (pre, steady, pilot.stop())
    });
    let commits = writer.stop().metrics.counters.commits();
    // `commits` is the two measured windows; the recorders also saw the
    // warm-up, react and drain transactions.
    let scenario = ScenarioResult {
        commits: RS_READERS as u64 * (RS_PRE_TXNS + RS_STEADY_TXNS),
        ..finish(
            EngineKind::Remus,
            &metrics,
            MigrationReport::default(),
            &cluster,
        )
    };
    cluster.stop_maintenance();

    let reads_per_window = |txns: u64| (RS_READERS as u64 * txns * RS_READS_PER_TXN as u64) as f64;
    let pre_tps = reads_per_window(RS_PRE_TXNS) / pre_window.as_secs_f64().max(1e-9);
    let steady_tps = reads_per_window(RS_STEADY_TXNS) / steady_window.as_secs_f64().max(1e-9);
    let replica_share =
        replica_txns.load(Ordering::Relaxed) as f64 / (RS_READERS as u64 * RS_STEADY_TXNS) as f64;
    let actions = pilot_report.moves
        + pilot_report.replicas_provisioned
        + pilot_report.replicas_decommissioned;
    let label = if replicate {
        "replicate"
    } else {
        "forced-migrate"
    };
    println!(
        "{label:<14}\tpre_reads/s={pre_tps:.0}\tsteady_reads/s={steady_tps:.0}\t\
         replica_share={replica_share:.2}\tactions={actions}\twriter_commits={commits}",
    );
    if replicate {
        assert!(
            pilot_report.replicas_provisioned >= 1,
            "the adaptive planner never provisioned a replica"
        );
        assert!(
            replica_share > 0.5,
            "steady reads were not replica-served (share {replica_share:.2})"
        );
    } else {
        assert!(
            pilot_report.moves >= 1,
            "the forced-migrate planner never migrated anything"
        );
        assert_eq!(
            pilot_report.replicas_provisioned, 0,
            "the forced-migrate leg provisioned a replica"
        );
    }
    SkewLegResult {
        pre_tps,
        steady_tps,
        replica_share,
        actions,
        scenario,
    }
}

fn skew_row(leg: &SkewLegResult, label: &str) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{:.0}", leg.pre_tps),
        format!("{:.0}", leg.steady_tps),
        format!("{:.2}", leg.replica_share),
        format!("{}", leg.actions),
        format!("{:.2}x", leg.recovery()),
    ]
}

/// The read-skew scenario: replicate leg vs forced-migrate leg, gated on
/// the replicate leg's absolute recovery and on the edge between them.
fn run_read_skew(path: &Path) {
    println!(
        "# bench_planner — read-skewed hotspot, {RS_READERS} router readers \
         x {RS_READS_PER_TXN} reads, continuous hot-shard writer"
    );
    let replicate = run_skew_leg(true);
    let migrate = run_skew_leg(false);
    println!(
        "replicate recovery: {:.2}x; edge over forced-migrate: {:.2}x",
        replicate.recovery(),
        replicate.recovery() / migrate.recovery().max(1e-9),
    );

    let mut report = BenchReport::new("bench_planner", "read-skew");
    for (name, leg) in [
        ("readskew-replicate", &replicate),
        ("readskew-migrate", &migrate),
    ] {
        report
            .scenarios
            .push(ScenarioReport::from_result(name, &leg.scenario));
    }
    report.tables.push(TableSection::new(
        "replicate recovery",
        &[
            "policy",
            "pre_read_tps",
            "steady_read_tps",
            "replica_share",
            "actions",
            "recovery",
        ],
        vec![
            skew_row(&replicate, "replicate"),
            skew_row(&migrate, "forced-migrate"),
        ],
    ));
    report.write(path).expect("writing JSON report failed");
    gate::enforce(&report);
}

/// Scans the process arguments for `--scenario <name>` (default
/// `hotspot`).
fn scenario_arg() -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "hotspot".to_string())
}

fn main() {
    let scenario = scenario_arg();
    let default_path = match scenario.as_str() {
        "read-skew" => "BENCH_planner_readskew.json",
        _ => "BENCH_planner.json",
    };
    let path = json_path_arg().unwrap_or_else(|| PathBuf::from(default_path));
    match scenario.as_str() {
        "hotspot" => run_hotspot(&path),
        "read-skew" => run_read_skew(&path),
        other => panic!("unknown --scenario {other:?} (expected hotspot or read-skew)"),
    }
}

/// The original hotspot-shift scenario: autopilot vs static plan vs
/// doing nothing, gated on recovery and advantage.
fn run_hotspot(path: &Path) {
    println!(
        "# bench_planner — hotspot shift after {SHIFT_AFTER} txns, \
         {NET_LATENCY:?} one-way network latency"
    );
    let auto = run_leg(Policy::Autopilot);
    let stat = run_leg(Policy::StaticPlan);
    let none = run_leg(Policy::NoMigration);

    println!(
        "autopilot recovery: {:.2}x of pre-shift; advantage over no-migration: {:.2}x",
        auto.steady_tps / auto.pre_tps.max(1e-9),
        auto.steady_tps / none.steady_tps.max(1e-9),
    );

    let mut report = BenchReport::new("bench_planner", "hotspot-shift");
    for (name, leg) in [
        ("planner-autopilot", &auto),
        ("planner-static", &stat),
        ("planner-none", &none),
    ] {
        report
            .scenarios
            .push(ScenarioReport::from_result(name, &leg.scenario));
    }
    report.tables.push(TableSection::new(
        "planner recovery",
        &[
            "policy",
            "pre_tps",
            "react_tps",
            "steady_tps",
            "moves",
            "aborts",
            "recovery",
        ],
        vec![
            recovery_row(&auto, "autopilot"),
            recovery_row(&stat, "static-plan"),
            recovery_row(&none, "no-migration"),
        ],
    ));
    report.write(path).expect("writing JSON report failed");

    assert!(auto.moves >= 1, "the autopilot never migrated anything");
    gate::enforce(&report);
}
