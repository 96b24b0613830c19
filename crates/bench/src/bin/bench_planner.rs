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

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_bench::{
    Args, Bench, Leg, LegOutcome, Maintenance, Oracle, ReaderPool, Rig, ScenarioReport,
};
use remus_cluster::{Cluster, ReadRouter, Session};
use remus_common::{ClientId, HotPathConfig, NodeId, PlannerConfig, ShardId, SimConfig, TableId};
use remus_core::{MigrationReport, MigrationTask};
use remus_planner::{Autopilot, AutopilotOptions};
use remus_workload::{HotspotShift, RunMetrics, Workload, Ycsb, YcsbConfig};

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
/// Point reads per read-only transaction.
const RS_READS_PER_TXN: usize = 8;
/// The read-hot (and write-hot) shard: wherever a migration puts it, the
/// writer's updates follow, so only a replica separates the readers from
/// the writer.
const RS_HOT_SHARD: ShardId = ShardId(0);
/// The closed-loop read-only router clients of the read-skew scenario:
/// the degraded pre window, then — once the planner has acted and the
/// drain has refilled router endpoints and flushed migration/backfill
/// residue — the steady window.
const RS_READERS: ReaderPool = ReaderPool {
    readers: 4,
    warmup_txns: 500,
    txns: 3_000,
    after: Some((500, 5_000)),
};
/// How long the main thread waits for the planner's answer (replica
/// certified, or the primaries rebalanced) before measuring anyway.
const RS_REACT_TIMEOUT: Duration = Duration::from_secs(30);

/// Which policy a hotspot leg runs.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Policy {
    Autopilot,
    StaticPlan,
    NoMigration,
}

/// What the hotspot-shift scenario reports: autopilot vs static plan vs
/// doing nothing, each leg's recovery its own steady/pre throughput.
pub(crate) fn hotspot() -> Bench<Policy> {
    Bench {
        scale_label: Some("hotspot-shift"),
        default_json: Some("BENCH_planner.json"),
        table: "planner recovery",
        headers: &[
            "policy",
            "pre_tps",
            "react_tps",
            "steady_tps",
            "moves",
            "aborts",
            "recovery",
        ],
        legs: vec![
            Leg::new("planner-autopilot", "autopilot", Policy::Autopilot),
            Leg::new("planner-static", "static-plan", Policy::StaticPlan),
            Leg::new("planner-none", "no-migration", Policy::NoMigration),
        ],
        ..Bench::new(
            "bench_planner",
            "bench_planner — hotspot shift: autopilot vs static plan vs no migration",
        )
    }
}

/// What the read-skew scenario reports: the replicate leg vs the
/// forced-migrate leg (the parameter: whether the planner may answer with
/// a replica), each leg's recovery its own steady/pre read throughput.
pub(crate) fn read_skew() -> Bench<bool> {
    Bench {
        scale_label: Some("read-skew"),
        default_json: Some("BENCH_planner_readskew.json"),
        table: "replicate recovery",
        headers: &[
            "policy",
            "pre_read_tps",
            "steady_read_tps",
            "replica_share",
            "actions",
            "recovery",
        ],
        legs: vec![
            Leg::new("readskew-replicate", "replicate", true),
            Leg::new("readskew-migrate", "forced-migrate", false),
        ],
        ..Bench::new(
            "bench_planner",
            "bench_planner — read-skewed hotspot under a continuous writer: replicate vs migrate",
        )
    }
}

/// Whether some node hosts both shards of the phase-1 pair.
fn pair1_colocated(cluster: &Cluster) -> bool {
    cluster.nodes().iter().any(|n| {
        let shards = n.data_shards();
        shards.contains(&PAIR1.0) && shards.contains(&PAIR1.1)
    })
}

/// Both scenarios' planner: cost weights zeroed so the decision reduces to
/// the measured signal and replays across runs, seeded, reacting within a
/// few 5 ms ticks.
fn start_pilot(cluster: &Arc<Cluster>, policy: PlannerConfig) -> Autopilot {
    let config = PlannerConfig {
        cost_weight_versions: 0.0,
        cost_weight_wal: 0.0,
        cost_weight_ship: 0.0,
        seed: SEED,
        ..policy
    };
    let options = AutopilotOptions {
        tick_interval: Duration::from_millis(5),
        latency: None,
    };
    Autopilot::start(Arc::clone(cluster), config, options)
}

fn run_hotspot_leg(leg: &Leg<Policy>) -> LegOutcome {
    let policy = leg.params;
    let config = SimConfig {
        network_latency: NET_LATENCY,
        // Version-chain GC at the tuned cadence keeps the Zipfian hot keys'
        // chains short, so the pre and steady windows measure routing
        // cost, not accumulated history.
        hot_path: HotPathConfig::tuned(),
        ..SimConfig::instant()
    };
    let rig = Rig::build(2, leg.engine, Oracle::Gts, config, Maintenance::GcOnly);
    let cluster = &rig.cluster;
    // Shards 0-2 on node 0, shard 3 on node 1: PAIR0 co-located with the
    // client, PAIR1 split across the wire.
    let table = YcsbConfig {
        keys: KEYS,
        shards: 4,
        table: TableId(1),
        ..YcsbConfig::default()
    };
    let ycsb = Ycsb::setup_with_placement(cluster, table, |i| NodeId(u32::from(i == 3)));
    let shift = HotspotShift::new(&ycsb, PAIR0, PAIR1, HOT_KEYS, THETA, SHIFT_AFTER);

    // Pure co-location: the balancer is disabled.
    let pilot = (policy == Policy::Autopilot).then(|| {
        let colocate = PlannerConfig {
            imbalance_ratio: f64::INFINITY,
            ..PlannerConfig::balanced()
        };
        start_pilot(cluster, colocate)
    });

    let session = Session::connect(cluster, NodeId(0));
    let mut rng = SmallRng::seed_from_u64(SEED);
    let metrics = RunMetrics::new();
    // One window of the single client: commits until `done` says so (it
    // is told how many the window has seen); returns commits per second.
    // Aborts (the hot pair mid-migration, write-write conflicts) are
    // retried like a real client; only the commit records a latency,
    // measured across its retries.
    let mut window = |done: &dyn Fn(u64) -> bool| {
        let (opened, mut commits) = (Instant::now(), 0u64);
        while !done(commits) {
            let started = Instant::now();
            loop {
                let outcome = session.run(|t| shift.run_once(ClientId(0), t, &mut rng));
                let outcome = outcome.map(|_| ());
                metrics.record_outcome(started, &outcome);
                if outcome.is_ok() {
                    break;
                }
            }
            commits += 1;
        }
        commits as f64 / opened.elapsed().as_secs_f64().max(1e-9)
    };

    // Warm-up, unmeasured (phase 0 traffic like the pre window's); then
    // window 1: phase 0, hot pair local to the client.
    window(&|_| shift.executed() >= WARMUP_TXNS);
    let pre_tps = window(&|_| shift.phase() != 0);
    metrics.marks.mark("shift", &metrics.timeline);
    // The stale plan fires exactly at the shift: migrate what *was* hot.
    if policy == Policy::StaticPlan {
        rig.migrate(&[MigrationTask::single(PAIR0.0, NodeId(0), NodeId(1))]);
    }
    // Window 2: post-shift reaction — until the new pair is co-resident
    // again (autopilot) or the cap (the other legs never co-locate it).
    let react_tps = window(&|n| n >= REACT_MAX || pair1_colocated(cluster));
    // Post-transition drain, unmeasured; then window 3: steady state,
    // what the gates compare.
    window(&|n| n >= DRAIN_TXNS);
    let steady_tps = window(&|n| n >= STEADY_TXNS);

    let static_moves = u64::from(policy == Policy::StaticPlan);
    let moves = pilot.map_or(static_moves, |pilot| pilot.stop().moves);
    if policy == Policy::Autopilot {
        assert!(moves >= 1, "the autopilot never migrated anything");
    }
    let scenario = rig.finish(leg.scenario, &metrics, &MigrationReport::default());
    let aborts = scenario.migration_aborts + scenario.ww_aborts + scenario.other_aborts;
    LegOutcome {
        scenarios: vec![scenario],
        rows: vec![vec![
            format!("{pre_tps:.0}"),
            format!("{react_tps:.0}"),
            format!("{steady_tps:.0}"),
            moves.to_string(),
            aborts.to_string(),
        ]],
        measure: Some(steady_tps / pre_tps.max(1e-9)),
    }
}

/// One read-skew leg: same cluster, workload, and windows; the two legs
/// differ only in whether the planner may answer with a replica.
fn run_skew_leg(leg: &Leg<bool>) -> LegOutcome {
    let replicate = leg.params;
    // Frequent version-chain GC keeps the hot keys' chains short;
    // `gts_lease` stays at the strict default of 1 so primary-side reads
    // pay the oracle round-trip the replica path gets to skip.
    let mut config = SimConfig::instant();
    config.hot_path.gc_interval = Duration::from_millis(5);
    let rig = Rig::build(
        RS_NODES,
        leg.engine,
        Oracle::Gts,
        config,
        Maintenance::GcOnly,
    );
    let cluster = &rig.cluster;
    // Every shard starts on node 0; nodes 1 and 2 are empty spares the
    // planner can replicate onto or migrate to.
    let layout = rig.seed_table(RS_SHARDS, |_| NodeId(0), |_| 0..RS_KEYS);
    let on_hot_shard = |k: &u64| layout.shard_for(*k) == RS_HOT_SHARD;
    let hot_keys: Vec<u64> = (0..RS_KEYS).filter(on_hot_shard).collect();
    // Continuous writer on the hot shard for the whole leg: whatever the
    // planner does, the write stream follows the shard.
    let writer = rig.hot_writer(layout, hot_keys.clone(), Duration::ZERO);

    let metrics = RunMetrics::new();
    let reader = |idx: usize, mut rng: SmallRng| {
        let mut router = ReadRouter::new(cluster, NodeId(0), idx);
        let hot_keys = &hot_keys;
        move || {
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
            replica
        }
    };
    // The disturbance: the adaptive replicate-or-migrate planner with
    // co-location off (the workload has no cross-shard writes), and the
    // wait for the leg's answer — a certified replica serving offloaded
    // reads, or the hot shard migrated off the loaded primary (the
    // balancer moves the highest-demand shard first, then typically finds
    // no further strictly-improving move). On timeout the steady window
    // measures whatever state the cluster is in and the gates fail.
    let disturbance = || {
        let policy = PlannerConfig {
            replication: replicate,
            colocation: false,
            ..PlannerConfig::balanced()
        };
        let pilot = start_pilot(cluster, policy);
        let deadline = Instant::now() + RS_REACT_TIMEOUT;
        let answered = || match replicate {
            true => cluster.read_offload_enabled() && !cluster.replica_ids().is_empty(),
            false => !cluster
                .node(NodeId(0))
                .data_shards()
                .contains(&RS_HOT_SHARD),
        };
        while Instant::now() < deadline && !answered() {
            std::thread::sleep(Duration::from_millis(2));
        }
        pilot
    };
    let (windows, pilot) = RS_READERS.run(&metrics, reader, disturbance);
    let pilot = pilot.stop();
    writer.stop();

    let readers = RS_READERS.readers as u64;
    let (pre_txns, steady_txns) = (RS_READERS.txns, RS_READERS.after.map_or(0, |a| a.1));
    // `commits` is the two measured windows; the recorders also saw the
    // warm-up, react and drain transactions.
    let scenario = ScenarioReport {
        commits: readers * (pre_txns + steady_txns),
        ..rig.finish(leg.scenario, &metrics, &MigrationReport::default())
    };
    let reads_per_s = |txns: u64, window: Duration| {
        (readers * txns * RS_READS_PER_TXN as u64) as f64 / window.as_secs_f64().max(1e-9)
    };
    let pre_tps = reads_per_s(pre_txns, windows[0].elapsed);
    let steady_tps = reads_per_s(steady_txns, windows[1].elapsed);
    let replica_share = windows[1].flagged as f64 / (readers * steady_txns) as f64;
    // Armed-checks: the leg's answer is the one it is named after.
    let (provisioned, moves) = (pilot.replicas_provisioned, pilot.moves);
    if replicate {
        assert!(
            provisioned >= 1,
            "the adaptive planner never provisioned a replica"
        );
        assert!(
            replica_share > 0.5,
            "steady reads not replica-served ({replica_share:.2})"
        );
    } else {
        assert!(
            moves >= 1,
            "the forced-migrate planner never migrated anything"
        );
        assert_eq!(
            provisioned, 0,
            "the forced-migrate leg provisioned a replica"
        );
    }
    let actions = moves + provisioned + pilot.replicas_decommissioned;
    LegOutcome {
        scenarios: vec![scenario],
        rows: vec![vec![
            format!("{pre_tps:.0}"),
            format!("{steady_tps:.0}"),
            format!("{replica_share:.2}"),
            actions.to_string(),
        ]],
        measure: Some(steady_tps / pre_tps.max(1e-9)),
    }
}

fn main() {
    let args = Args::from_process(&["hotspot", "read-skew"]);
    match args.scenario.as_deref() {
        Some("read-skew") => args.run(read_skew(), |leg, _| run_skew_leg(leg)),
        _ => args.run(hotspot(), |leg, _| run_hotspot_leg(leg)),
    }
}
