//! Shared scenario runners behind the figure/table binaries.
//!
//! Each runner builds a fresh six-node cluster, loads the workload, starts
//! the client fleet, executes the scenario's migration plan with
//! the requested engine, and returns the per-second series plus the
//! counters the paper's artifacts report.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use remus_cluster::{Cluster, ClusterBuilder, Session};
use remus_common::metrics::{MetricSample, Timeline};
use remus_common::{NodeId, ParallelismConfig, ShardId, SimConfig};
use remus_core::trace::{expected_phases, MigrationTrace};
pub use remus_core::EngineKind;
use remus_core::{
    MigrationController, MigrationEngine, MigrationPlan, MigrationReport, MigrationTask,
    RemusEngine,
};
use remus_workload::driver::RunMetrics;
use remus_workload::engine::{EngineConfig, OpenLoopEngine, Pacing};
use remus_workload::hybrid::{AnalyticalClient, BatchIngest, BatchIngestReport};
use remus_workload::tpcc::{Tpcc, TpccConfig};
use remus_workload::ycsb::{HotSpot, KeyDistribution, Ycsb, YcsbConfig};

use crate::print::print_scenario;
use crate::report::{json_path_arg, BenchReport, ScenarioReport};
use crate::scale::Scale;

/// The simulation config used by the harnesses (relative costs per
/// DESIGN.md; zero network latency because the host is single-core and
/// thread sleeps would distort more than they model).
pub fn sim_config(scale: &Scale) -> SimConfig {
    SimConfig {
        network_latency: Duration::ZERO,
        squall_pull_latency: Duration::from_millis(20),
        squall_chunk_keys: 64,
        parallelism: ParallelismConfig {
            copy_workers: 4,
            replay_workers: 4,
            chunk_size: 256,
            drain_batch: 32,
        },
        hot_path: remus_common::HotPathConfig {
            index_stripes: 8,
            gc_interval: Duration::ZERO,
            gts_lease: 1,
        },
        catchup_threshold: 64,
        spill_threshold: 4096,
        spill_reload_latency: Duration::from_micros(100),
        max_clock_skew: Duration::from_millis(1),
        snapshot_copy_per_tuple: scale.copy_per_tuple,
        lock_wait_timeout: Duration::from_secs(60),
        wal: remus_common::WalConfig::memory(),
        isolation: remus_common::IsolationLevel::SnapshotIsolation,
    }
}

/// Run seed of every bench client fleet that does not name its own.
pub const CLIENT_SEED: u64 = 0x5EED;

/// One worker per client, each client on a fixed-rate open-loop schedule
/// of `period` under [`CLIENT_SEED`] — the figure runners' fleet (their
/// period is `Scale::think`) and the paced ablation writers.
pub fn fixed_rate_clients(clients: usize, period: Duration) -> EngineConfig {
    EngineConfig::open_loop(clients, clients, Pacing::FixedRate { period }, CLIENT_SEED)
}

/// What a scenario run produced.
#[derive(Debug, Clone, Default)]
pub struct ScenarioResult {
    /// Engine name.
    pub engine: &'static str,
    /// Committed transactions per second, one entry per second.
    pub tps: Vec<f64>,
    /// Overlay events (seconds from series start).
    pub events: Vec<(String, f64)>,
    /// Total commits.
    pub commits: u64,
    /// Migration-induced aborts.
    pub migration_aborts: u64,
    /// Write-write conflict aborts.
    pub ww_aborts: u64,
    /// Other aborts.
    pub other_aborts: u64,
    /// Mean commit latency outside migrations.
    pub base_latency: Duration,
    /// Average latency increase while migrating (Table 3).
    pub latency_increase: Duration,
    /// Aggregate migration report of the whole plan.
    pub migration: MigrationReport,
    /// Batch ingestion report (hybrid A).
    pub batch: Option<BatchIngestReport>,
    /// Mean ingested tuples/s before the consolidation window (Table 2).
    pub batch_tps_before: f64,
    /// Mean ingested tuples/s during the consolidation window (Table 2).
    pub batch_tps_during: f64,
    /// Whether the hybrid-B duplicate-key check passed.
    pub consistency_ok: Option<bool>,
    /// Cluster metric samples taken after the run (2PC hops, WW aborts,
    /// prepare-wait blocks, queue spills, replay jobs, …).
    pub counters: Vec<MetricSample>,
}

fn mean_rate(timeline_buckets: &[u64], from: f64, to: f64) -> f64 {
    if to <= from {
        return 0.0;
    }
    let lo = from.floor().max(0.0) as usize;
    let hi = (to.ceil() as usize).min(timeline_buckets.len());
    if hi <= lo {
        return 0.0;
    }
    let sum: u64 = timeline_buckets[lo..hi].iter().sum();
    sum as f64 / (hi - lo) as f64
}

fn event_time(events: &[(String, f64)], name: &str) -> Option<f64> {
    events.iter().find(|(n, _)| n == name).map(|(_, t)| *t)
}

/// Collects what one scenario run produced: the client fleet's recorders,
/// the (aggregate) migration report, and the cluster's counter snapshot.
pub fn finish(
    engine: EngineKind,
    metrics: &RunMetrics,
    migration: MigrationReport,
    cluster: &Cluster,
) -> ScenarioResult {
    ScenarioResult {
        engine: engine.name(),
        tps: metrics.timeline.rates_per_sec(),
        events: metrics
            .marks
            .all()
            .into_iter()
            .map(|(n, d)| (n, d.as_secs_f64()))
            .collect(),
        commits: metrics.counters.commits(),
        migration_aborts: metrics.counters.migration_aborts(),
        ww_aborts: metrics.counters.ww_aborts(),
        other_aborts: metrics.counters.other_aborts(),
        base_latency: metrics.latency_normal.mean(),
        latency_increase: metrics.latency_increase(),
        migration,
        counters: cluster.metrics_snapshot(),
        ..Default::default()
    }
}

fn build_cluster(kind: EngineKind, scale: &Scale) -> Arc<Cluster> {
    let cluster = ClusterBuilder::new(scale.nodes)
        .cc_mode(kind.cc_mode())
        .config(sim_config(scale))
        .build();
    cluster.start_maintenance(Duration::from_millis(500));
    cluster
}

fn ycsb_config(scale: &Scale, distribution: KeyDistribution) -> YcsbConfig {
    YcsbConfig {
        shards: scale.ycsb_shards,
        keys: scale.ycsb_keys,
        value_len: scale.value_len,
        distribution,
        ..YcsbConfig::default()
    }
}

/// Hybrid workload A during cluster consolidation (Figure 6 / Table 2).
pub fn run_hybrid_a(kind: EngineKind, scale: &Scale) -> ScenarioResult {
    let cluster = build_cluster(kind, scale);
    let ycsb = Arc::new(Ycsb::setup(
        &cluster,
        ycsb_config(scale, KeyDistribution::Uniform),
    ));
    let layout = ycsb.layout;
    let clients = OpenLoopEngine::start(
        &cluster,
        fixed_rate_clients(scale.clients, scale.think),
        Arc::clone(&ycsb) as _,
    );
    let metrics = Arc::clone(&clients.metrics);
    let batch_tl = Arc::new(Timeline::per_second());

    clients.run_for(scale.warmup);

    // The ingestion client starts, runs through the consolidation, and is
    // retried on migration-induced aborts.
    metrics.marks.mark("batch start", &metrics.timeline);
    let batch_handle = {
        let cluster = Arc::clone(&cluster);
        let metrics = Arc::clone(&metrics);
        let batch_tl = Arc::clone(&batch_tl);
        let (size, n, len, pause) = (
            scale.batch_size,
            scale.batches,
            scale.value_len,
            scale.batch_pause,
        );
        let keys = scale.ycsb_keys;
        std::thread::spawn(move || {
            let ingest = BatchIngest::new(layout, keys, size, n, len).with_pause(pause);
            let report = ingest.run(&cluster, NodeId(0), Some(&batch_tl));
            metrics.marks.mark("batch end", &metrics.timeline);
            report
        })
    };

    std::thread::sleep(Duration::from_millis(600));
    metrics.marks.mark("consolidation start", &metrics.timeline);
    metrics.set_migration_active(true);
    let plan = MigrationPlan::consolidate(&cluster, NodeId(0), scale.consolidation_group);
    let migration = MigrationController::new(Arc::clone(&cluster), kind.engine())
        .run_plan_aggregate(&plan)
        .expect("consolidation failed");
    metrics.set_migration_active(false);
    metrics.marks.mark("consolidation end", &metrics.timeline);

    let batch_report = batch_handle.join().expect("batch client panicked");
    clients.run_for(scale.cooldown);
    clients.stop();

    let mut result = finish(kind, &metrics, migration, &cluster);
    let buckets = batch_tl.buckets();
    let c_start = event_time(&result.events, "consolidation start").unwrap_or(0.0);
    let c_end = event_time(&result.events, "consolidation end").unwrap_or(c_start);
    let b_start = event_time(&result.events, "batch start").unwrap_or(0.0);
    result.batch_tps_before = mean_rate(&buckets, b_start, c_start);
    result.batch_tps_during = mean_rate(&buckets, c_start, c_end);
    result.batch = Some(batch_report);
    result
}

/// Hybrid workload B during cluster consolidation (Figure 7).
pub fn run_hybrid_b(kind: EngineKind, scale: &Scale) -> ScenarioResult {
    let cluster = build_cluster(kind, scale);
    let ycsb = Arc::new(Ycsb::setup(
        &cluster,
        ycsb_config(scale, KeyDistribution::Uniform),
    ));
    let layout = ycsb.layout;
    let clients = OpenLoopEngine::start(
        &cluster,
        fixed_rate_clients(scale.clients, scale.think),
        Arc::clone(&ycsb) as _,
    );
    let metrics = Arc::clone(&clients.metrics);

    clients.run_for(scale.warmup);

    // The long-lived analytical transaction: one snapshot, repeated full
    // scans with the duplicate-primary-key consistency check.
    metrics.marks.mark("analytic start", &metrics.timeline);
    let consistent = Arc::new(AtomicBool::new(true));
    let analytic_handle = {
        let cluster = Arc::clone(&cluster);
        let metrics = Arc::clone(&metrics);
        let consistent = Arc::clone(&consistent);
        let hold = scale.analytic_hold;
        let last = NodeId((scale.nodes - 1) as u32);
        std::thread::spawn(move || {
            let session = Session::connect(&cluster, last);
            let started = Instant::now();
            let mut txn = session.begin();
            while started.elapsed() < hold {
                match txn.scan_table(&layout) {
                    Ok(rows) => {
                        let mut keys: Vec<u64> = rows.into_iter().map(|(k, _)| k).collect();
                        let total = keys.len();
                        keys.sort_unstable();
                        keys.dedup();
                        if keys.len() != total {
                            consistent.store(false, Ordering::SeqCst);
                        }
                    }
                    Err(_) => {
                        // The baseline aborted the analytical transaction
                        // (Squall/lock-and-abort may); give up the snapshot.
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            let _ = txn.commit();
            metrics.marks.mark("analytic end", &metrics.timeline);
        })
    };

    std::thread::sleep(Duration::from_millis(400));
    metrics.marks.mark("consolidation start", &metrics.timeline);
    metrics.set_migration_active(true);
    // Figure 7: four shards per migration.
    let plan = MigrationPlan::consolidate(&cluster, NodeId(0), scale.consolidation_group * 2);
    let migration = MigrationController::new(Arc::clone(&cluster), kind.engine())
        .run_plan_aggregate(&plan)
        .expect("consolidation failed");
    metrics.set_migration_active(false);
    metrics.marks.mark("consolidation end", &metrics.timeline);

    analytic_handle.join().expect("analytic client panicked");
    clients.run_for(scale.cooldown);
    clients.stop();

    // Post-consolidation consistency probe from a fresh snapshot.
    let analytical = AnalyticalClient { layout };
    let post_ok = analytical.check_consistency(&cluster, NodeId(1)).is_ok();

    let mut result = finish(kind, &metrics, migration, &cluster);
    result.consistency_ok = Some(consistent.load(Ordering::SeqCst) && post_ok);
    result
}

/// Skewed-YCSB load balancing (Figure 8).
pub fn run_load_balance(kind: EngineKind, scale: &Scale) -> ScenarioResult {
    let cluster = build_cluster(kind, scale);
    // Find the hot shards of the Zipfian access pattern and pile them onto
    // node 0, as the paper's skewed workload does.
    let config = ycsb_config(scale, KeyDistribution::Zipfian(0.99));
    let probe = {
        use rand::SeedableRng;
        let layout = remus_shard::TableLayout::new(config.table, config.base_shard, config.shards);
        let zipf = remus_workload::ycsb::Zipfian::new(config.keys, 0.99);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let mut hits = vec![0u64; config.shards as usize];
        for _ in 0..200_000 {
            let rank = zipf.sample(&mut rng);
            let key = remus_shard::key_hash(rank) % config.keys;
            hits[(layout.shard_for(key).0 - config.base_shard) as usize] += 1;
        }
        let mut order: Vec<u32> = (0..config.shards).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(hits[i as usize]));
        order
    };
    let hot_count = (scale.ycsb_shards / 3).clamp(5, 50) as usize;
    let hot: Vec<u32> = probe[..hot_count].to_vec();
    let nodes = scale.nodes as u32;
    let ycsb = Arc::new(Ycsb::setup_with_placement(&cluster, config, |i| {
        if hot.contains(&i) {
            NodeId(0)
        } else {
            NodeId(1 + i % (nodes - 1))
        }
    }));

    let clients = OpenLoopEngine::start(
        &cluster,
        fixed_rate_clients(scale.clients, scale.think),
        Arc::clone(&ycsb) as _,
    );
    let metrics = Arc::clone(&clients.metrics);
    clients.run_for(scale.warmup);

    // Migrate 4/5 of the hot shards to the other nodes, four at a time.
    let migrate_n = hot_count * 4 / 5;
    let shards: Vec<ShardId> = hot[..migrate_n]
        .iter()
        .map(|&i| ShardId(ycsb.layout.base + i as u64))
        .collect();
    let dests: Vec<NodeId> = (1..nodes).map(NodeId).collect();
    metrics.marks.mark("balancing start", &metrics.timeline);
    metrics.set_migration_active(true);
    let plan = MigrationPlan::move_shards(&shards, NodeId(0), &dests, 4);
    let migration = MigrationController::new(Arc::clone(&cluster), kind.engine())
        .run_plan_aggregate(&plan)
        .expect("load balancing failed");
    metrics.set_migration_active(false);
    metrics.marks.mark("balancing end", &metrics.timeline);

    clients.run_for(scale.cooldown);
    clients.stop();
    finish(kind, &metrics, migration, &cluster)
}

/// TPC-C scale-out (Figure 9): the last node starts empty; half of the
/// overloaded first node's warehouses move onto it.
pub fn run_scale_out(kind: EngineKind, scale: &Scale) -> ScenarioResult {
    // TPC-C keeps inserting order rows, so the per-tuple copy pacing that
    // suits the fixed-size YCSB tables would stretch each warehouse move
    // into minutes; scale it down while keeping the windows visible.
    let mut config = sim_config(scale);
    config.snapshot_copy_per_tuple = scale.copy_per_tuple / 10;
    let cluster = ClusterBuilder::new(scale.nodes)
        .cc_mode(kind.cc_mode())
        .config(config)
        .build();
    cluster.start_maintenance(Duration::from_millis(500));
    let w = scale.warehouses;
    let nodes = scale.nodes as u32;
    let old_nodes = nodes - 1;
    // Node 0 is overloaded with twice the share; the last node is new.
    let share = w / (old_nodes + 1); // e.g. 24 warehouses, 6 "shares" of 4
    let tpcc = Arc::new(Tpcc::setup(
        &cluster,
        TpccConfig {
            warehouses: w,
            ..TpccConfig::default()
        },
        |wh| {
            if wh < 2 * share {
                NodeId(0)
            } else {
                NodeId(1 + (wh - 2 * share) / share.max(1) % (old_nodes - 1))
            }
        },
    ));
    let clients = OpenLoopEngine::start(
        &cluster,
        fixed_rate_clients(scale.tpcc_clients, scale.think),
        Arc::clone(&tpcc) as _,
    );
    let metrics = Arc::clone(&clients.metrics);
    clients.run_for(scale.warmup);

    // Move half of node 0's warehouses (all 8 collocated shards each) to
    // the new node, one warehouse per migration.
    metrics.marks.mark("scale-out start", &metrics.timeline);
    metrics.set_migration_active(true);
    let plan = MigrationPlan {
        tasks: (0..share)
            .map(|wh| MigrationTask {
                shards: tpcc.warehouse_shards(wh),
                source: NodeId(0),
                dest: NodeId(nodes - 1),
            })
            .collect(),
    };
    let migration = MigrationController::new(Arc::clone(&cluster), kind.engine())
        .run_plan_aggregate(&plan)
        .expect("scale-out migration failed");
    metrics.set_migration_active(false);
    metrics.marks.mark("scale-out end", &metrics.timeline);

    clients.run_for(scale.cooldown);
    clients.stop();
    finish(kind, &metrics, migration, &cluster)
}

/// One sample of the high-contention run (Figure 10).
#[derive(Debug, Clone, Copy)]
pub struct ContentionSample {
    /// Seconds since the run started.
    pub t: f64,
    /// Work units per second on the source node (the "CPU" stand-in).
    pub src_work: u64,
    /// Work units per second on the destination node.
    pub dst_work: u64,
    /// Longest version chain in the hot shard.
    pub max_chain: usize,
}

/// Result of the high-contention scenario.
#[derive(Debug, Clone)]
pub struct HighContentionResult {
    /// Committed transactions per second.
    pub tps: Vec<f64>,
    /// Per-second node work and version-chain samples.
    pub samples: Vec<ContentionSample>,
    /// Overlay events.
    pub events: Vec<(String, f64)>,
    /// WW conflicts between client transactions.
    pub ww_aborts: u64,
    /// WW conflicts between shadow and destination transactions during
    /// dual execution (paper: 8 in five minutes).
    pub shadow_conflicts: u64,
    /// The migration report.
    pub migration: MigrationReport,
}

/// High-contention YCSB on one hot shard, migrated with Remus (Figure 10,
/// §4.8).
pub fn run_high_contention(scale: &Scale) -> HighContentionResult {
    let mut config = sim_config(scale);
    // Stretch the snapshot copy so the long-lived copy snapshot visibly
    // holds back vacuum (the version-chain effect of §4.8).
    config.snapshot_copy_per_tuple = config.snapshot_copy_per_tuple.max(Duration::from_millis(2));
    let cluster = ClusterBuilder::new(scale.nodes).config(config).build();
    cluster.start_maintenance(Duration::from_millis(200));
    let ycsb = Arc::new(Ycsb::setup(
        &cluster,
        ycsb_config(scale, KeyDistribution::Uniform),
    ));
    // Hot tuples: 100 keys of one shard owned by node 0.
    let shard = cluster.node(NodeId(0)).data_shards()[0];
    let hot_keys = Arc::new(ycsb.keys_on_shard(shard, 100));
    assert!(!hot_keys.is_empty(), "hot shard has no keys");
    let workload = Arc::new(HotSpot {
        layout: ycsb.layout,
        keys: Arc::clone(&hot_keys),
        value_len: scale.value_len,
    });
    let clients = OpenLoopEngine::start(
        &cluster,
        fixed_rate_clients(scale.clients * 2, scale.think),
        workload as _,
    );
    let metrics = Arc::clone(&clients.metrics);

    // Sampler: per-second node work deltas and chain length.
    let stop_sampler = Arc::new(AtomicBool::new(false));
    let sampler = {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop_sampler);
        let started = Instant::now();
        std::thread::spawn(move || {
            let (src, dst) = (
                cluster.node(NodeId(0)).clone(),
                cluster.node(NodeId(1)).clone(),
            );
            let mut samples = Vec::new();
            let (mut last_src, mut last_dst) = (src.work.get(), dst.work.get());
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_secs(1));
                let (s, d) = (src.work.get(), dst.work.get());
                let chain = src
                    .storage
                    .table(shard)
                    .or_else(|| dst.storage.table(shard))
                    .map(|t| t.stats().max_chain)
                    .unwrap_or(0);
                samples.push(ContentionSample {
                    t: started.elapsed().as_secs_f64(),
                    src_work: s - last_src,
                    dst_work: d - last_dst,
                    max_chain: chain,
                });
                last_src = s;
                last_dst = d;
            }
            samples
        })
    };

    clients.run_for(scale.warmup);
    metrics.marks.mark("migration start", &metrics.timeline);
    metrics.set_migration_active(true);
    let task = MigrationTask::single(shard, NodeId(0), NodeId(1));
    let report = RemusEngine::new()
        .migrate(&cluster, &task)
        .expect("migration failed");
    metrics.set_migration_active(false);
    metrics.marks.mark("migration end", &metrics.timeline);
    clients.run_for(scale.cooldown);

    stop_sampler.store(true, Ordering::Relaxed);
    let samples = sampler.join().expect("sampler panicked");
    clients.stop();
    HighContentionResult {
        tps: metrics.timeline.rates_per_sec(),
        samples,
        events: metrics
            .marks
            .all()
            .into_iter()
            .map(|(n, d)| (n, d.as_secs_f64()))
            .collect(),
        ww_aborts: metrics.counters.ww_aborts(),
        shadow_conflicts: report.validation_conflicts,
        migration: report,
    }
}

/// The first trace of `migration`, asserted well-formed and in `kind`'s
/// canonical root-phase order.
pub fn checked_trace<'a>(
    label: &str,
    kind: EngineKind,
    migration: &'a MigrationReport,
) -> &'a MigrationTrace {
    let trace = migration
        .traces
        .first()
        .unwrap_or_else(|| panic!("{label}: migration recorded no trace"));
    trace
        .check_well_formed()
        .unwrap_or_else(|e| panic!("{label}: malformed migration trace: {e}"));
    assert_eq!(
        trace.root_phases(),
        expected_phases(kind.name()).expect("every engine has a canonical sequence"),
        "{label}: unexpected phase sequence"
    );
    trace
}

/// The `main` of the per-engine figure bins (`fig6`–`fig9`): runs `runner`
/// for each of `engines` (or only the one named by the first process
/// argument), prints every run's block, and writes the `--json` report
/// when asked.
pub fn figure_main(
    fig: &str,
    caption: &str,
    scenario: &str,
    engines: &[EngineKind],
    runner: fn(EngineKind, &Scale) -> ScenarioResult,
) {
    let scale = Scale::from_args_or_env();
    let only = std::env::args().nth(1).and_then(|s| EngineKind::parse(&s));
    println!("# {caption}");
    println!("# scale: {scale:?}");
    let mut report = BenchReport::new(fig, &format!("{scale:?}"));
    for &kind in engines.iter().filter(|&&k| only.is_none_or(|o| o == k)) {
        let result = runner(kind, &scale);
        print_scenario(&result);
        report
            .scenarios
            .push(ScenarioReport::from_result(scenario, &result));
    }
    if let Some(path) = json_path_arg() {
        report.write(&path).expect("writing JSON report failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_rate_windows() {
        let buckets = [10u64, 20, 30, 40];
        assert_eq!(mean_rate(&buckets, 0.0, 4.0), 25.0);
        assert_eq!(mean_rate(&buckets, 1.0, 3.0), 25.0);
        assert_eq!(mean_rate(&buckets, 3.0, 3.0), 0.0);
        assert_eq!(mean_rate(&buckets, 10.0, 12.0), 0.0);
    }

    #[test]
    fn sim_config_orders_costs() {
        let c = sim_config(&Scale::quick());
        assert!(c.squall_pull_latency > c.spill_reload_latency);
        assert!(c.lock_wait_timeout > Duration::from_secs(10));
    }

    /// The smallest end-to-end smoke: one Remus consolidation of a tiny
    /// hybrid-A scenario completes with zero migration aborts.
    #[test]
    fn hybrid_a_smoke_remus() {
        let scale = Scale {
            ycsb_shards: 12,
            ycsb_keys: 600,
            clients: 2,
            batch_size: 200,
            batches: 1,
            warmup: Duration::from_millis(100),
            cooldown: Duration::from_millis(100),
            batch_pause: Duration::ZERO,
            copy_per_tuple: Duration::ZERO,
            ..Scale::quick()
        };
        let result = run_hybrid_a(EngineKind::Remus, &scale);
        assert_eq!(result.engine, "remus");
        assert_eq!(result.migration_aborts, 0);
        assert!(result.commits > 0);
        assert_eq!(result.batch.as_ref().unwrap().aborted_attempts, 0);
    }
}
