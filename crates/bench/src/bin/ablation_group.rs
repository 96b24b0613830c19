//! Ablation: collocated / grouped migration (§3.8).
//!
//! The paper migrates several shards together (2 in Figure 6, 4 in
//! Figures 7–8, 24 — a whole warehouse — in Figure 9). Grouping amortizes
//! the per-migration fixed costs (catch-up, mode change, `T_m`, dual
//! drain) across shards: this ablation consolidates one node with group
//! sizes 1, 2, 4, and 8 and reports plan duration and per-migration cost.
//!
//! Usage: `cargo run --release -p remus-bench --bin ablation_group [--scale <preset>] [--json <path>]`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use remus_bench::{
    fixed_rate_clients, sim_config, Args, Bench, Leg, LegOutcome, Maintenance, Oracle, Rig, Scale,
};
use remus_common::{NodeId, SimConfig};
use remus_core::MigrationPlan;
use remus_workload::engine::OpenLoopEngine;
use remus_workload::ycsb::{Ycsb, YcsbConfig};

fn run_with_group(leg: &Leg<usize>, scale: &Scale) -> LegOutcome {
    let config = SimConfig {
        snapshot_copy_per_tuple: Duration::from_micros(100),
        ..sim_config(scale)
    };
    let rig = Rig::build(4, leg.engine, Oracle::Dts, config, Maintenance::Vacuum);
    let ycsb = Arc::new(Ycsb::setup(
        &rig.cluster,
        YcsbConfig {
            shards: 32,
            keys: 8_000,
            ..YcsbConfig::default()
        },
    ));
    let config = fixed_rate_clients(4, Duration::from_micros(500));
    let clients = OpenLoopEngine::start(&rig.cluster, config, ycsb as _);
    clients.run_for(Duration::from_millis(300));

    let plan = MigrationPlan::consolidate(&rig.cluster, NodeId(0), leg.params);
    let migrations = plan.len();
    let t0 = Instant::now();
    let total = rig.migrate(&plan.tasks);
    let wall = t0.elapsed();
    clients.stop();
    LegOutcome {
        rows: vec![vec![
            migrations.to_string(),
            format!("{:.0}", wall.as_secs_f64() * 1e3),
            format!("{:.0}", wall.as_secs_f64() * 1e3 / migrations as f64),
            format!("{:.0}", total.transfer_phase.as_secs_f64() * 1e3),
        ]],
        ..LegOutcome::default()
    }
}

fn main() {
    let leg = |(row, group)| Leg::new("", row, group);
    let bench = Bench {
        table: "group size vs consolidation cost (8 shards leave node 0)",
        headers: &[
            "group",
            "migrations",
            "plan_wall_ms",
            "per_migration_ms",
            "sum_transfer_ms",
        ],
        legs: [("1", 1usize), ("2", 2), ("4", 4), ("8", 8)]
            .map(leg)
            .into(),
        ..Bench::new(
            "ablation_group",
            "Ablation — grouped (collocated) migration (§3.8)",
        )
    };
    Args::from_process(&[]).run(bench, run_with_group);
}
