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

use std::sync::Arc;

use remus_bench::{
    sim_config, ycsb_config, Args, Bench, Leg, LegOutcome, Maintenance, Oracle, Rig, Scale, NODES,
};
use remus_common::NodeId;
use remus_core::MigrationPlan;
use remus_workload::ycsb::{KeyDistribution, Ycsb};
use remus_workload::{EngineConfig, OpenLoopEngine, Pacing};

/// Seed of the run: the offered load is a pure function of this.
const SEED: u64 = 0x5CA1E;

/// What `bench_scale` reports: one leg, sized by the scale preset.
pub(crate) fn bench() -> Bench<()> {
    Bench {
        scale_label: Some("open-loop-scale"),
        default_json: Some("BENCH_scale.json"),
        table: "open-loop scale",
        headers: &[
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
        legs: vec![Leg::new("scale-consolidation", "open-loop", ())],
        ..Bench::new(
            "bench_scale",
            "bench_scale — a live consolidation under the open-loop engine",
        )
    }
}

fn run_leg(leg: &Leg<()>, scale: &Scale) -> LegOutcome {
    println!(
        "{} keys, {} clients on {} workers, Poisson mean {:?}/client",
        scale.ycsb_keys, scale.clients, scale.workers, scale.arrival_mean
    );
    let config = sim_config(scale);
    let rig = Rig::build(NODES, leg.engine, Oracle::Gts, config, Maintenance::Vacuum);
    let cluster = &rig.cluster;

    let table = ycsb_config(scale, KeyDistribution::Uniform);
    let ycsb = Arc::new(Ycsb::setup(cluster, table));

    let pacing = Pacing::Poisson {
        mean: scale.arrival_mean,
    };
    let config = EngineConfig::open_loop(scale.clients, scale.workers, pacing, SEED);
    let engine = OpenLoopEngine::start(cluster, config, ycsb as _);
    std::thread::sleep(scale.warmup);

    // The live migration: consolidate node 0 away while the load runs.
    let plan = MigrationPlan::consolidate(cluster, NodeId(0), scale.consolidation_group);
    assert!(!plan.is_empty(), "node 0 owns shards to consolidate");
    let mut migration = rig.migrate_marked(&engine.metrics, "consolidation", &plan.tasks);
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

    println!(
        "parks={} queue_high_water={}; {} plan steps off node 0",
        report.parks,
        report.queue_high_water,
        plan.len()
    );
    // CO-safe latency of the commits that landed during the migration.
    let during = &report.metrics.latency_migration;
    assert!(
        during.count() > 0,
        "no commits landed during the migration window — the gate measured nothing"
    );
    LegOutcome {
        scenarios: vec![rig.finish(leg.scenario, &report.metrics, &migration)],
        rows: vec![vec![
            scale.ycsb_keys.to_string(),
            scale.clients.to_string(),
            scale.workers.to_string(),
            format!("{:.0}", report.offered_rate()),
            format!("{:.0}", report.delivered_rate()),
            report.dropped.to_string(),
            during.percentile(0.50).as_micros().to_string(),
            during.percentile(0.99).as_micros().to_string(),
        ]],
        measure: Some(report.delivered_ratio()),
    }
}

fn main() {
    Args::from_process(&[]).run(bench(), run_leg);
}
