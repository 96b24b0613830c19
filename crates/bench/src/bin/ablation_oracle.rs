//! Ablation: centralized GTS vs decentralized DTS (§2.2, §4.1).
//!
//! The paper runs all experiments under DTS because it "shows much better
//! performance than GTS": every GTS timestamp is a round trip to the
//! control plane. This ablation wraps a GTS with a simulated control-plane
//! RTT and compares YCSB throughput and latency against DTS (free local
//! HLC ticks) and an idealized zero-RTT GTS.
//!
//! Usage: `cargo run --release -p remus-bench --bin ablation_oracle [--json <path>]`.

use std::sync::Arc;
use std::time::Duration;

use remus_bench::{fixed_rate_clients, json_path_arg, print_table, BenchReport, TableSection};
use remus_clock::{Gts, OracleKind, TimestampOracle};
use remus_cluster::ClusterBuilder;
use remus_common::{NodeId, SimConfig, Timestamp};
use remus_workload::engine::OpenLoopEngine;
use remus_workload::ycsb::{Ycsb, YcsbConfig};

/// A GTS whose every request pays a control-plane round trip.
struct RemoteGts {
    inner: Gts,
    rtt: Duration,
}

impl TimestampOracle for RemoteGts {
    fn start_ts(&self, node: NodeId) -> Timestamp {
        std::thread::sleep(self.rtt);
        self.inner.start_ts(node)
    }
    fn commit_ts(&self, node: NodeId) -> Timestamp {
        std::thread::sleep(self.rtt);
        self.inner.commit_ts(node)
    }
    fn observe(&self, node: NodeId, ts: Timestamp) {
        self.inner.observe(node, ts);
    }
    fn kind(&self) -> OracleKind {
        OracleKind::Gts
    }
}

fn run(label: &str, oracle: Option<Arc<dyn TimestampOracle>>) -> Vec<String> {
    let mut builder = ClusterBuilder::new(6).config(SimConfig::instant());
    builder = match oracle {
        Some(o) => builder.oracle_instance(o),
        None => builder.oracle(OracleKind::Dts),
    };
    let cluster = builder.build();
    let ycsb = Arc::new(Ycsb::setup(
        &cluster,
        YcsbConfig {
            shards: 24,
            keys: 12_000,
            ..YcsbConfig::default()
        },
    ));
    let config = fixed_rate_clients(8, Duration::from_micros(200));
    let clients = OpenLoopEngine::start(&cluster, config, ycsb as _);
    clients.run_for(Duration::from_secs(4));
    let metrics = clients.stop().metrics;
    let secs = metrics.timeline.elapsed().as_secs_f64();
    vec![
        label.to_string(),
        format!("{:.0}", metrics.counters.commits() as f64 / secs),
        format!("{:.3}", metrics.latency_normal.mean().as_secs_f64() * 1e3),
        format!(
            "{:.3}",
            metrics.latency_normal.percentile(0.99).as_secs_f64() * 1e3
        ),
    ]
}

fn main() {
    println!("# Ablation — GTS vs DTS timestamp schemes (§2.2)");
    let rows = vec![
        run("dts", None),
        run("gts (ideal, zero RTT)", Some(Arc::new(Gts::new()))),
        run(
            "gts (100µs control-plane RTT)",
            Some(Arc::new(RemoteGts {
                inner: Gts::new(),
                rtt: Duration::from_micros(100),
            })),
        ),
    ];
    let table = TableSection::new(
        "timestamp scheme vs YCSB performance",
        &["oracle", "tps", "mean_latency_ms", "p99_latency_ms"],
        rows,
    );
    print_table(&table);
    println!("note: the paper uses DTS for all experiments for the same reason.");
    if let Some(path) = json_path_arg() {
        let mut report = BenchReport::new("ablation_oracle", "fixed");
        report.tables.push(table);
        report.write(&path).expect("writing JSON report failed");
    }
}
