//! Ablation: the catch-up threshold (§3.4).
//!
//! The mode change starts "when the number of changes that have not been
//! applied on the destination drops below a threshold". A tiny threshold
//! postpones the barrier chasing a moving target; a huge one enters sync
//! mode with a backlog, stretching the mode-change phase while source
//! commits wait behind it. This ablation migrates a shard under write load
//! with different thresholds and reports where the time goes.
//!
//! Usage: `cargo run --release -p remus-bench --bin ablation_threshold [--json <path>]`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use remus_bench::{
    json_path_arg, print_table, sim_config, BenchReport, Scale, TableSection, CLIENT_SEED,
};
use remus_cluster::{ClusterBuilder, Session};
use remus_common::{NodeId, ShardId};
use remus_core::{MigrationEngine, MigrationTask, RemusEngine};
use remus_storage::Value;
use remus_workload::{EngineConfig, OpenLoopEngine};

fn run_with_threshold(threshold: usize, scale: &Scale) -> Vec<String> {
    let mut config = sim_config(scale);
    config.catchup_threshold = threshold;
    config.snapshot_copy_per_tuple = Duration::from_micros(300);
    let cluster = ClusterBuilder::new(2).config(config).build();
    cluster.start_maintenance(Duration::from_millis(300));
    let layout = cluster.create_table(remus_common::TableId(1), 0, 2, |i| NodeId(i % 2));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..2_000u64 {
        session
            .run(|t| t.insert(&layout, k, Value::from(vec![1u8; 32])))
            .unwrap();
    }
    // One closed-loop client sweeping the keys in order with a 300 µs
    // think time: steady update pressure on the shard while it moves.
    let writer = {
        let next = AtomicU64::new(0);
        OpenLoopEngine::start(
            &cluster,
            EngineConfig::closed_loop(1, Duration::from_micros(300), CLIENT_SEED),
            Arc::new(
                move |_c: remus_common::ClientId,
                      t: &mut remus_cluster::SessionTxn<'_>,
                      _r: &mut rand::rngs::SmallRng| {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    t.update(&layout, i % 2_000, Value::from(vec![2u8; 32]))?;
                    Ok(())
                },
            ),
        )
    };
    std::thread::sleep(Duration::from_millis(100));
    let report = RemusEngine::new()
        .migrate(
            &cluster,
            &MigrationTask::single(ShardId(0), NodeId(0), NodeId(1)),
        )
        .expect("migration failed");
    writer.stop();
    vec![
        threshold.to_string(),
        format!("{:.1}", report.catchup_phase.as_secs_f64() * 1e3),
        format!("{:.1}", report.transfer_phase.as_secs_f64() * 1e3),
        format!("{:.1}", report.total.as_secs_f64() * 1e3),
    ]
}

fn main() {
    let scale = Scale::from_args_or_env();
    println!("# Ablation — catch-up threshold before the mode change (§3.4)");
    let rows: Vec<Vec<String>> = [1usize, 16, 64, 1024, 16384]
        .iter()
        .map(|&t| run_with_threshold(t, &scale))
        .collect();
    let table = TableSection::new(
        "catch-up threshold vs phase durations",
        &["threshold", "catchup_ms", "transfer_ms", "total_ms"],
        rows,
    );
    print_table(&table);
    if let Some(path) = json_path_arg() {
        let mut report = BenchReport::new("ablation_threshold", &format!("{scale:?}"));
        report.tables.push(table);
        report.write(&path).expect("writing JSON report failed");
    }
}
