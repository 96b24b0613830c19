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

use remus_bench::{fixed_rate_clients, Args, Bench, Leg, LegOutcome, Maintenance, Oracle, Rig};
use remus_clock::{Gts, OracleKind, TimestampOracle};
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

/// One leg: DTS, or (its parameter) a GTS behind a control-plane round trip.
fn run(leg: &Leg<Option<Duration>>) -> LegOutcome {
    let oracle = leg.params.map_or(Oracle::Dts, |rtt| {
        let inner = Gts::new();
        Oracle::Instance(Arc::new(RemoteGts { inner, rtt }))
    });
    let config = SimConfig::instant();
    let rig = Rig::build(6, leg.engine, oracle, config, Maintenance::Off);
    let ycsb = Arc::new(Ycsb::setup(
        &rig.cluster,
        YcsbConfig {
            shards: 24,
            keys: 12_000,
            ..YcsbConfig::default()
        },
    ));
    let config = fixed_rate_clients(8, Duration::from_micros(200));
    let clients = OpenLoopEngine::start(&rig.cluster, config, ycsb as _);
    clients.run_for(Duration::from_secs(4));
    let metrics = clients.stop().metrics;
    let secs = metrics.timeline.elapsed().as_secs_f64();
    let ms = |d: Duration| format!("{:.3}", d.as_secs_f64() * 1e3);
    LegOutcome {
        rows: vec![vec![
            format!("{:.0}", metrics.counters.commits() as f64 / secs),
            ms(metrics.latency_normal.mean()),
            ms(metrics.latency_normal.percentile(0.99)),
        ]],
        ..LegOutcome::default()
    }
}

fn main() {
    let rtt = Duration::from_micros(100);
    let bench = Bench {
        scale_label: Some("fixed"),
        table: "timestamp scheme vs YCSB performance",
        headers: &["oracle", "tps", "mean_latency_ms", "p99_latency_ms"],
        legs: vec![
            Leg::new("", "dts", None),
            Leg::new("", "gts (ideal, zero RTT)", Some(Duration::ZERO)),
            Leg::new("", "gts (100µs control-plane RTT)", Some(rtt)),
        ],
        ..Bench::new(
            "ablation_oracle",
            "Ablation — GTS vs DTS timestamp schemes (§2.2)",
        )
    };
    Args::from_process(&[]).run(bench, |leg, _| run(leg));
    println!("note: the paper uses DTS for all experiments for the same reason.");
}
