//! Ablation: collocated / grouped migration (§3.8).
//!
//! The paper migrates several shards together (2 in Figure 6, 4 in
//! Figures 7–8, 24 — a whole warehouse — in Figure 9). Grouping amortizes
//! the per-migration fixed costs (catch-up, mode change, `T_m`, dual
//! drain) across shards: this ablation consolidates one node with group
//! sizes 1, 2, 4, and 8 and reports plan duration and per-migration cost.
//!
//! Usage: `cargo run --release -p remus-bench --bin ablation_group [--json <path>]`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use remus_bench::{
    fixed_rate_clients, json_path_arg, print_table, sim_config, BenchReport, Scale, TableSection,
};
use remus_cluster::ClusterBuilder;
use remus_common::NodeId;
use remus_core::{MigrationController, MigrationPlan, RemusEngine};
use remus_workload::engine::OpenLoopEngine;
use remus_workload::ycsb::{Ycsb, YcsbConfig};

fn run_with_group(group: usize, scale: &Scale) -> Vec<String> {
    let mut config = sim_config(scale);
    config.snapshot_copy_per_tuple = Duration::from_micros(100);
    let cluster = ClusterBuilder::new(4).config(config).build();
    cluster.start_maintenance(Duration::from_millis(300));
    let ycsb = Arc::new(Ycsb::setup(
        &cluster,
        YcsbConfig {
            shards: 32,
            keys: 8_000,
            ..YcsbConfig::default()
        },
    ));
    let config = fixed_rate_clients(4, Duration::from_micros(500));
    let clients = OpenLoopEngine::start(&cluster, config, ycsb as _);
    clients.run_for(Duration::from_millis(300));

    let plan = MigrationPlan::consolidate(&cluster, NodeId(0), group);
    let migrations = plan.len();
    let controller = MigrationController::new(Arc::clone(&cluster), Arc::new(RemusEngine::new()));
    let t0 = Instant::now();
    let total = controller
        .run_plan_aggregate(&plan)
        .expect("consolidation failed");
    let wall = t0.elapsed();
    clients.stop();
    vec![
        group.to_string(),
        migrations.to_string(),
        format!("{:.0}", wall.as_secs_f64() * 1e3),
        format!("{:.0}", wall.as_secs_f64() * 1e3 / migrations as f64),
        format!("{:.0}", total.transfer_phase.as_secs_f64() * 1e3),
    ]
}

fn main() {
    let scale = Scale::from_args_or_env();
    println!("# Ablation — grouped (collocated) migration (§3.8)");
    let rows: Vec<Vec<String>> = [1usize, 2, 4, 8]
        .iter()
        .map(|&g| run_with_group(g, &scale))
        .collect();
    let table = TableSection::new(
        "group size vs consolidation cost (8 shards leave node 0)",
        &[
            "group",
            "migrations",
            "plan_wall_ms",
            "per_migration_ms",
            "sum_transfer_ms",
        ],
        rows,
    );
    print_table(&table);
    if let Some(path) = json_path_arg() {
        let mut report = BenchReport::new("ablation_group", &format!("{scale:?}"));
        report.tables.push(table);
        report.write(&path).expect("writing JSON report failed");
    }
}
