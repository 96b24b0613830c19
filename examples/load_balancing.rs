//! Load balancing a skewed workload: a Zipfian YCSB load hammers hot
//! shards piled on one node; Remus spreads them over the cluster and the
//! throughput rises — with zero migration-induced aborts.
//!
//! Run with: `cargo run --release --example load_balancing`

use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use remus::cluster::ClusterBuilder;
use remus::common::{NodeId, ShardId, SimConfig};
use remus::migration::{MigrationController, MigrationPlan, RemusEngine};
use remus::shard::key_hash;
use remus::workload::engine::{EngineConfig, OpenLoopEngine, Pacing};
use remus::workload::ycsb::{KeyDistribution, Ycsb, YcsbConfig, Zipfian};

fn main() {
    let cluster = ClusterBuilder::new(4).config(SimConfig::instant()).build();
    cluster.start_maintenance(Duration::from_millis(500));
    let config = YcsbConfig {
        shards: 16,
        keys: 8_000,
        distribution: KeyDistribution::Zipfian(0.99),
        ..YcsbConfig::default()
    };

    // Find the hot shards of the access pattern and pile them on node 0.
    let probe_layout =
        remus::shard::TableLayout::new(config.table, config.base_shard, config.shards);
    let zipf = Zipfian::new(config.keys, 0.99);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
    let mut hits = vec![0u64; config.shards as usize];
    for _ in 0..50_000 {
        let key = key_hash(zipf.sample(&mut rng)) % config.keys;
        hits[(probe_layout.shard_for(key).0) as usize] += 1;
    }
    let mut order: Vec<u32> = (0..config.shards).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(hits[i as usize]));
    let hot: Vec<u32> = order[..6].to_vec();
    println!("hot shards (by sampled hits): {hot:?}");

    let ycsb = Arc::new(Ycsb::setup_with_placement(&cluster, config, |i| {
        if hot.contains(&i) {
            NodeId(0)
        } else {
            NodeId(1 + i % 3)
        }
    }));

    let pacing = Pacing::FixedRate {
        period: Duration::from_micros(400),
    };
    let clients = OpenLoopEngine::start(
        &cluster,
        EngineConfig::open_loop(8, 8, pacing, 0x5EED),
        Arc::clone(&ycsb) as _,
    );
    clients.run_for(Duration::from_secs(2));
    let before = clients.metrics.counters.commits();

    // Spread four of the six hot shards over the other nodes.
    let shards: Vec<ShardId> = hot[..4].iter().map(|&i| ShardId(i as u64)).collect();
    let plan =
        MigrationPlan::move_shards(&shards, NodeId(0), &[NodeId(1), NodeId(2), NodeId(3)], 2);
    let controller = MigrationController::new(Arc::clone(&cluster), Arc::new(RemusEngine::new()));
    clients.metrics.set_migration_active(true);
    controller
        .run_plan(&plan, |_, _| {})
        .expect("load balancing failed");
    clients.metrics.set_migration_active(false);

    clients.run_for(Duration::from_secs(2));
    let metrics = clients.stop().metrics;
    let after = metrics.counters.commits() - before;
    println!(
        "commits: {before} in the 2s before balancing, {after} in the ~2s after \
         (plus the balancing window)"
    );
    println!(
        "migration-induced aborts: {} (must be 0), ww aborts: {}",
        metrics.counters.migration_aborts(),
        metrics.counters.ww_aborts()
    );
    assert_eq!(metrics.counters.migration_aborts(), 0);
}
