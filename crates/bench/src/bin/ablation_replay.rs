//! Ablation: transaction-level parallel replay (§3.6).
//!
//! The paper controls migration impact by making `speed_replay` exceed
//! `speed_update` with a parallel apply (18 threads in §4.1). This ablation
//! migrates a shard under sustained write load with 1, 2, 4, and 8 apply
//! workers and reports the catch-up and total migration durations: too few
//! workers and the destination cannot catch up, stretching (or, at
//! pathological settings, preventing) the mode change.
//!
//! Usage: `cargo run --release -p remus-bench --bin ablation_replay [--scale <preset>] [--json <path>]`.

use std::sync::Arc;
use std::time::Duration;

use remus_bench::{
    sim_config, Args, Bench, Leg, LegOutcome, Maintenance, Oracle, Rig, Scale, CLIENT_SEED,
};
use remus_common::{NodeId, ShardId, SimConfig};
use remus_core::MigrationTask;
use remus_workload::ycsb::{KeyDistribution, Ycsb, YcsbConfig};
use remus_workload::{EngineConfig, OpenLoopEngine};

fn run_with_workers(leg: &Leg<usize>, scale: &Scale) -> LegOutcome {
    let mut config = SimConfig {
        snapshot_copy_per_tuple: Duration::from_micros(200),
        ..sim_config(scale)
    };
    config.parallelism.replay_workers = leg.params;
    let rig = Rig::build(2, leg.engine, Oracle::Dts, config, Maintenance::Vacuum);
    let ycsb = Arc::new(Ycsb::setup(
        &rig.cluster,
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
    let config = EngineConfig::closed_loop(3, Duration::from_micros(500), CLIENT_SEED);
    let writers = OpenLoopEngine::start(&rig.cluster, config, ycsb as _);
    std::thread::sleep(Duration::from_millis(200));

    let report = rig.migrate(&[MigrationTask::single(ShardId(0), NodeId(0), NodeId(1))]);
    writers.stop();
    let ms = |d: Duration| format!("{:.1}", d.as_secs_f64() * 1e3);
    LegOutcome {
        rows: vec![vec![
            ms(report.catchup_phase),
            ms(report.transfer_phase),
            ms(report.total),
            report.records_replayed.to_string(),
        ]],
        ..LegOutcome::default()
    }
}

fn main() {
    let leg = |(row, workers)| Leg::new("", row, workers);
    let bench = Bench {
        table: "replay parallelism vs migration phases",
        headers: &[
            "workers",
            "catchup_ms",
            "transfer_ms",
            "total_ms",
            "records_replayed",
        ],
        legs: [("1", 1usize), ("2", 2), ("4", 4), ("8", 8)]
            .map(leg)
            .into(),
        ..Bench::new(
            "ablation_replay",
            "Ablation — transaction-level parallel replay (§3.6)",
        )
    };
    Args::from_process(&[]).run(bench, run_with_workers);
}
