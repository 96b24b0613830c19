//! Cluster consolidation under load: drain one node of a six-node cluster
//! while YCSB clients keep running, once with Remus and once with the
//! lock-and-abort baseline, and compare the damage.
//!
//! Run with: `cargo run --release --example live_consolidation`

use std::sync::Arc;
use std::time::Duration;

use remus::cluster::ClusterBuilder;
use remus::common::{NodeId, SimConfig};
use remus::migration::{
    LockAndAbort, MigrationController, MigrationEngine, MigrationPlan, RemusEngine,
};
use remus::workload::engine::{EngineConfig, OpenLoopEngine, Pacing};
use remus::workload::ycsb::{Ycsb, YcsbConfig};

fn consolidate(engine: Arc<dyn MigrationEngine>) {
    let cluster = ClusterBuilder::new(6).config(SimConfig::instant()).build();
    cluster.start_maintenance(Duration::from_millis(500));
    let ycsb = Arc::new(Ycsb::setup(
        &cluster,
        YcsbConfig {
            shards: 36,
            keys: 9_000,
            ..YcsbConfig::default()
        },
    ));

    let pacing = Pacing::FixedRate {
        period: Duration::from_micros(500),
    };
    let clients = OpenLoopEngine::start(
        &cluster,
        EngineConfig::open_loop(6, 6, pacing, 0x5EED),
        Arc::clone(&ycsb) as _,
    );
    clients.run_for(Duration::from_secs(1));

    // Remove node 0: move all of its shards to the other five nodes.
    let name = engine.name();
    let plan = MigrationPlan::consolidate(&cluster, NodeId(0), 2);
    let migrations = plan.len();
    let controller = MigrationController::new(Arc::clone(&cluster), engine);
    clients.metrics.set_migration_active(true);
    controller
        .run_plan(&plan, |_, _| {})
        .expect("consolidation failed");
    clients.metrics.set_migration_active(false);

    clients.run_for(Duration::from_secs(1));
    let metrics = clients.stop().metrics;
    println!(
        "{name:>18}: {migrations} migrations | commits={} | migration-induced aborts={} | \
         ww aborts={} | latency increase={:.2} ms",
        metrics.counters.commits(),
        metrics.counters.migration_aborts(),
        metrics.counters.ww_aborts(),
        metrics.latency_increase().as_secs_f64() * 1e3,
    );
    assert!(
        cluster.node(NodeId(0)).data_shards().is_empty(),
        "node 0 must end empty"
    );
}

fn main() {
    println!("consolidating a six-node cluster down to five, under YCSB load:");
    consolidate(Arc::new(RemusEngine::new()));
    consolidate(Arc::new(LockAndAbort::new()));
    println!("note: Remus reports zero migration-induced aborts; lock-and-abort may not.");
}
