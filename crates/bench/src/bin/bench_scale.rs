//! Open-loop scale gate: a live migration over the full YCSB table while
//! the open-loop engine offers a deterministic load from hundreds of
//! logical clients multiplexed onto a bounded worker pool.
//!
//! This is the scale cell of the perf trajectory. Under `--scale paper`
//! the table holds ≥10 M tuples and ≥240 logical clients ride eight
//! workers; the smaller presets keep the same shape for smoke runs. The
//! run:
//!
//! 1. bulk-loads the table (non-transactional frozen install, so loading
//!    10 M tuples is an in-memory fill, not 10 M commits),
//! 2. starts the open-loop engine with a seeded Poisson schedule
//!    (`clients / arrival_mean` offered txn/s — the offered load is a
//!    pure function of the seed, never of how fast the host executes),
//! 3. consolidates node 0 away — every shard it owns migrates to the
//!    other nodes in `consolidation_group`-sized plan steps under the
//!    Remus engine — while the clients keep arriving,
//! 4. reports **offered vs delivered** load and **coordinated-omission-
//!    safe** p50/p99 (latency measured from each intended arrival, so
//!    stalls during the migration inflate the tail instead of hiding in
//!    an unmeasured queue).
//!
//! The headline ratio is delivered/offered; the emitted `remus-bench/v1`
//! report is held to the `open-loop scale` row of
//! [`remus_bench::gate::GATES`], as `bench_check` does.
//!
//! Usage: `cargo run --release -p remus-bench --bin bench_scale --
//! --scale paper --json BENCH_scale.json`

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use remus_bench::{
    finish, gate, json_path_arg, sim_config, BenchReport, EngineKind, Scale, ScenarioReport,
    TableSection,
};
use remus_clock::OracleKind;
use remus_cluster::ClusterBuilder;
use remus_common::NodeId;
use remus_core::{MigrationController, MigrationPlan};
use remus_workload::ycsb::{KeyDistribution, Ycsb, YcsbConfig};
use remus_workload::{EngineConfig, OpenLoopEngine, Pacing, Workload};

/// Seed of the run: the offered load is a pure function of this.
const SEED: u64 = 0x5CA1E;

fn main() {
    let scale = Scale::from_args_or_env();
    let path = json_path_arg().unwrap_or_else(|| PathBuf::from("BENCH_scale.json"));
    println!(
        "# bench_scale — open-loop engine: {} keys, {} clients on {} workers, \
         Poisson mean {:?}/client",
        scale.ycsb_keys, scale.clients, scale.workers, scale.arrival_mean
    );

    let cluster = ClusterBuilder::new(scale.nodes)
        .cc_mode(EngineKind::Remus.cc_mode())
        .oracle(OracleKind::Gts)
        .config(sim_config(&scale))
        .build();
    cluster.start_maintenance(std::time::Duration::from_millis(500));

    let load_t0 = Instant::now();
    let ycsb = Arc::new(Ycsb::setup(
        &cluster,
        YcsbConfig {
            shards: scale.ycsb_shards,
            keys: scale.ycsb_keys,
            value_len: scale.value_len,
            distribution: KeyDistribution::Uniform,
            ..YcsbConfig::default()
        },
    ));
    println!(
        "loaded {} tuples in {:.1}s",
        scale.ycsb_keys,
        load_t0.elapsed().as_secs_f64()
    );

    let engine = OpenLoopEngine::start(
        &cluster,
        EngineConfig {
            clients: scale.clients,
            workers: scale.workers,
            pacing: Pacing::Poisson {
                mean: scale.arrival_mean,
            },
            seed: SEED,
            queue_bound: scale.queue_bound,
            horizon: None,
            max_txns_per_client: None,
        },
        Arc::clone(&ycsb) as Arc<dyn Workload>,
    );
    let metrics = Arc::clone(&engine.metrics);
    std::thread::sleep(scale.warmup);

    // The live migration: consolidate node 0 away while the load runs.
    metrics.set_migration_active(true);
    let plan = MigrationPlan::consolidate(&cluster, NodeId(0), scale.consolidation_group);
    assert!(!plan.is_empty(), "node 0 owns shards to consolidate");
    let controller = MigrationController::new(Arc::clone(&cluster), EngineKind::Remus.engine());
    let mig_t0 = Instant::now();
    let mut migration = controller
        .run_plan_aggregate(&plan)
        .expect("consolidation failed");
    let mig_elapsed = mig_t0.elapsed();
    metrics.set_migration_active(false);
    // At this scale each trace carries thousands of per-chunk copy spans
    // (multi-MB of JSON); the trajectory gate compares root phase
    // sequences, so keep the protocol phases and drop the chunk bulk.
    for trace in &mut migration.traces {
        trace.spans.retain(|s| s.parent.is_none());
    }
    assert!(
        cluster.node(NodeId(0)).data_shards().is_empty(),
        "consolidation left shards on node 0"
    );

    std::thread::sleep(scale.cooldown);
    let report = engine.stop();
    cluster.stop_maintenance();

    let offered_tps = report.offered_rate();
    let delivered_tps = report.delivered_rate();
    let ratio = report.delivered_ratio();
    let (p50_n, p99_n) = (
        metrics.latency_normal.percentile(0.50),
        metrics.latency_normal.percentile(0.99),
    );
    let (p50_m, p99_m) = (
        metrics.latency_migration.percentile(0.50),
        metrics.latency_migration.percentile(0.99),
    );
    println!(
        "offered={offered_tps:.0}/s delivered={delivered_tps:.0}/s \
         ratio={ratio:.2} dropped={} parks={} queue_high_water={}",
        report.dropped, report.parks, report.queue_high_water
    );
    println!(
        "CO-safe latency: normal p50={}us p99={}us | during migration \
         p50={}us p99={}us",
        p50_n.as_micros(),
        p99_n.as_micros(),
        p50_m.as_micros(),
        p99_m.as_micros()
    );
    println!(
        "migration: {} shards off node 0 in {:.1}s ({} tuples copied, {} replayed)",
        plan.len(),
        mig_elapsed.as_secs_f64(),
        migration.tuples_copied,
        migration.records_replayed
    );
    assert!(
        metrics.latency_migration.count() > 0,
        "no commits landed during the migration window — the gate measured nothing"
    );

    let scenario = finish(EngineKind::Remus, &metrics, migration, &cluster);
    let mut bench = BenchReport::new("bench_scale", "open-loop-scale");
    bench.scenarios.push(ScenarioReport::from_result(
        "scale-consolidation",
        &scenario,
    ));
    bench.tables.push(TableSection::new(
        "open-loop scale",
        &[
            "run",
            "keys",
            "clients",
            "workers",
            "offered_tps",
            "delivered_tps",
            "dropped",
            "co_p50_us",
            "co_p99_us",
            "delivered",
        ],
        vec![vec![
            "open-loop".to_string(),
            scale.ycsb_keys.to_string(),
            scale.clients.to_string(),
            scale.workers.to_string(),
            format!("{offered_tps:.0}"),
            format!("{delivered_tps:.0}"),
            report.dropped.to_string(),
            format!("{}", p50_m.as_micros()),
            format!("{}", p99_m.as_micros()),
            format!("{ratio:.2}x"),
        ]],
    ));
    bench.write(&path).expect("writing JSON report failed");
    gate::enforce(&bench);
}
