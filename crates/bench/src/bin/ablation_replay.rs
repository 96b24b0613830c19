//! Ablation: transaction-level parallel replay (§3.6).
//!
//! The paper controls migration impact by making `speed_replay` exceed
//! `speed_update` with a parallel apply (18 threads in §4.1). This ablation
//! migrates a shard under sustained write load with 1, 2, 4, and 8 apply
//! workers and reports the catch-up and total migration durations: too few
//! workers and the destination cannot catch up, stretching (or, at
//! pathological settings, preventing) the mode change.
//!
//! Usage: `cargo run --release -p remus-bench --bin ablation_replay [--json <path>]`.

use std::sync::Arc;
use std::time::Duration;

use remus_bench::{
    json_path_arg, print_table, sim_config, BenchReport, Scale, TableSection, CLIENT_SEED,
};
use remus_cluster::ClusterBuilder;
use remus_common::{NodeId, ShardId};
use remus_core::{MigrationEngine, MigrationTask, RemusEngine};
use remus_workload::ycsb::{KeyDistribution, Ycsb, YcsbConfig};
use remus_workload::{EngineConfig, OpenLoopEngine, Workload};

fn run_with_workers(workers: usize, scale: &Scale) -> Vec<String> {
    let mut config = sim_config(scale);
    config.parallelism.replay_workers = workers;
    config.snapshot_copy_per_tuple = Duration::from_micros(200);
    let cluster = ClusterBuilder::new(2).config(config).build();
    cluster.start_maintenance(Duration::from_millis(300));
    let ycsb = Arc::new(Ycsb::setup(
        &cluster,
        YcsbConfig {
            shards: 4,
            keys: 4_000,
            read_ratio: 0.0, // all updates: maximum propagation pressure
            distribution: KeyDistribution::Uniform,
            ..YcsbConfig::default()
        },
    ));
    // Writers hammer updates while the shard moves 0 → 1: three closed-loop
    // clients running the YCSB mix with a 500 µs think time.
    let writers = OpenLoopEngine::start(
        &cluster,
        EngineConfig::closed_loop(3, Duration::from_micros(500), CLIENT_SEED),
        Arc::clone(&ycsb) as Arc<dyn Workload>,
    );
    std::thread::sleep(Duration::from_millis(200));

    let report = RemusEngine::new()
        .migrate(
            &cluster,
            &MigrationTask::single(ShardId(0), NodeId(0), NodeId(1)),
        )
        .expect("migration failed");
    writers.stop();
    vec![
        workers.to_string(),
        format!("{:.1}", report.catchup_phase.as_secs_f64() * 1e3),
        format!("{:.1}", report.transfer_phase.as_secs_f64() * 1e3),
        format!("{:.1}", report.total.as_secs_f64() * 1e3),
        report.records_replayed.to_string(),
    ]
}

fn main() {
    let scale = Scale::from_args_or_env();
    println!("# Ablation — transaction-level parallel replay (§3.6)");
    let rows: Vec<Vec<String>> = [1usize, 2, 4, 8]
        .iter()
        .map(|&w| run_with_workers(w, &scale))
        .collect();
    let table = TableSection::new(
        "replay parallelism vs migration phases",
        &[
            "workers",
            "catchup_ms",
            "transfer_ms",
            "total_ms",
            "records_replayed",
        ],
        rows,
    );
    print_table(&table);
    if let Some(path) = json_path_arg() {
        let mut report = BenchReport::new("ablation_replay", &format!("{scale:?}"));
        report.tables.push(table);
        report.write(&path).expect("writing JSON report failed");
    }
}
