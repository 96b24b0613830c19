//! Replica read-scaling benchmark: read throughput at 0/1/2 replicas
//! while a Remus migration runs between the primaries.
//!
//! Three legs share one shape — two primary nodes (4 shards, a continuous
//! writer, and one live `Remus` migration of shard 0 between them) and a
//! fixed pool of closed-loop read-only clients. The legs differ only in
//! where the readers run:
//!
//! * **no-replica** — readers open regular [`Session`]s on the primaries:
//!   every `begin` takes a timestamp from the shared oracle (`gts_lease:
//!   1`, the strict default) and every read walks the primaries' version
//!   chains, racing the writer and the migration's copy workers.
//! * **1-replica / 2-replica** — the same readers open
//!   [`ReplicaSession`]s against WAL-shipped replicas (virtual-cut
//!   backfill, certification awaited before the clock starts). Replica
//!   reads snapshot at the apply watermark without touching the oracle,
//!   and hit storage no client writer contends on.
//!
//! The headline number is **scaling** — a replica leg's aggregate read
//! throughput over the no-replica leg's. Offloaded reads shed the oracle
//! round-trip and the primary-side contention, so the ratio is expected
//! near or above 1.0x even on one replica; the emitted `remus-bench/v1`
//! report is held to the `replica read scaling` rows of
//! [`remus_bench::gate::GATES`], as `bench_check` does. Every leg also
//! requires the replicas to catch up to the writer's last commit
//! afterwards, so the measured reads were served by replicas that stayed
//! live, not ones silently wedged at an old watermark.
//!
//! Usage: `cargo run --release -p remus-bench --bin bench_replica --
//! --json BENCH_replica.json`

use std::time::Duration;

use rand::Rng;
use remus_bench::{
    Args, Bench, Leg, LegOutcome, Maintenance, Oracle, ReaderPool, Rig, ScenarioReport,
};
use remus_cluster::{ReplicaSession, Session};
use remus_common::{NodeId, ShardId, SimConfig};
use remus_core::{start_replica, MigrationTask};
use remus_workload::RunMetrics;

/// Primary nodes; shard `i` lives on primary `i % PRIMARIES`.
const PRIMARIES: u32 = 2;
/// Keys in the table (4 shards, ~256 keys each).
const KEYS: u64 = 1024;
/// Shards in the table.
const SHARDS: u32 = 4;
/// Point reads per read-only transaction.
const READS_PER_TXN: usize = 8;
/// The closed-loop read-only clients, identical in every leg: one timed
/// window, the migration inside it.
const READERS: ReaderPool = ReaderPool {
    readers: 4,
    warmup_txns: 1_000,
    // Sized so each leg's window spans a few hundred milliseconds — enough
    // to straddle the migration and to drown scheduler jitter.
    txns: 15_000,
    after: None,
};

/// What `bench_replica` reports; a leg's parameter is its replica count.
pub(crate) fn bench() -> Bench<usize> {
    let leg = |scenario, row, replicas| Leg::new(scenario, row, replicas).versus("no-replica");
    Bench {
        scale_label: Some("read-scaling"),
        default_json: Some("BENCH_replica.json"),
        table: "replica read scaling",
        headers: &[
                "leg",
                "replicas",
                "read_tps",
                "writer_tps",
                "mean_read_txn_us",
                "scaling",
            ],
        legs: vec![
            leg("replica-0", "no-replica", 0),
            leg("replica-1", "1-replica", 1),
            leg("replica-2", "2-replica", 2),
        ],
        ..Bench::new(
            "bench_replica",
            "bench_replica — closed-loop readers at 0/1/2 replicas, live shard-0 migration in every leg",
        )
    }
}

fn run_leg(leg: &Leg<usize>) -> LegOutcome {
    let replicas = leg.params;
    // The version-chain GC cadence of the tuned hot path keeps chains
    // short on the primaries; `gts_lease` stays at the strict default of 1
    // so primary-side begins pay the oracle round-trip they pay under the
    // chaos checker's strict GTS mode.
    let mut config = SimConfig::instant();
    config.hot_path.gc_interval = Duration::from_millis(5);
    let nodes = PRIMARIES as usize + replicas;
    let rig = Rig::build(nodes, leg.engine, Oracle::Gts, config, Maintenance::GcOnly);
    let cluster = &rig.cluster;
    let layout = rig.seed_table(SHARDS, |i| NodeId(i % PRIMARIES), |_| 0..KEYS);

    // Replicas bootstrap via virtual-cut backfill; the clock starts only
    // after every one is certified, like a real read pool going live.
    let certified = |r| {
        let proc = start_replica(cluster, NodeId(PRIMARIES + r as u32)).expect("replica");
        let certification = proc.wait_certified(Duration::from_secs(30));
        certification.expect("certification");
        proc
    };
    let procs: Vec<_> = (0..replicas).map(certified).collect();

    // Continuous writer on the primaries for the whole leg: the replicas
    // must keep applying while they serve reads.
    let writer = rig.hot_writer(layout, (0..KEYS).collect(), Duration::ZERO);

    // Where the readers run is what the legs differ in: against the
    // replicas when there are any, else in regular sessions on the
    // primaries.
    let metrics = RunMetrics::new();
    let reader = |idx: usize, mut rng: rand::rngs::SmallRng| {
        let replica = (replicas > 0).then(|| {
            let node = NodeId(PRIMARIES + (idx % replicas) as u32);
            ReplicaSession::connect(cluster, node).expect("replica connect")
        });
        let primary = Session::connect(cluster, NodeId(idx as u32 % PRIMARIES));
        move || {
            if let Some(session) = &replica {
                let txn = session.begin().expect("replica begin");
                for _ in 0..READS_PER_TXN {
                    txn.read(&layout, rng.gen_range(0..KEYS)).expect("read");
                }
            } else {
                let mut txn = primary.begin();
                for _ in 0..READS_PER_TXN {
                    txn.read(&layout, rng.gen_range(0..KEYS)).expect("read");
                }
                txn.commit().expect("read-only commit");
            }
            false
        }
    };
    // The live migration the readers ride through: shard 0 moves between
    // the primaries while every leg's clock is running.
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let (windows, migration) = READERS.run(&metrics, reader, || rig.migrate(&[task]));

    let writer = writer.stop();
    let writer_tps = writer.metrics.counters.commits() as f64 / writer.elapsed.as_secs_f64();
    // The replicas that served the measured reads must still be live and
    // able to catch up to the writer's final commit.
    for proc in &procs {
        if writer.last_commit_ts.is_valid() {
            let caught_up = proc
                .handle()
                .wait_watermark(writer.last_commit_ts, Duration::from_secs(30));
            caught_up.expect("replica never caught up to the writer");
        }
        assert!(!proc.is_failed(), "replica failed during the leg");
    }
    // `commits` is the measured window; the recorders also saw the warm-up.
    let scenario = ScenarioReport {
        commits: READERS.readers as u64 * READERS.txns,
        ..rig.finish(leg.scenario, &metrics, &migration)
    };
    procs.into_iter().for_each(|proc| proc.stop());

    let reads = (scenario.commits * READS_PER_TXN as u64) as f64;
    let read_tps = reads / windows[0].elapsed.as_secs_f64().max(1e-9);
    LegOutcome {
        rows: vec![vec![
            replicas.to_string(),
            format!("{read_tps:.0}"),
            format!("{writer_tps:.0}"),
            scenario.base_latency_us.to_string(),
        ]],
        scenarios: vec![scenario],
        measure: Some(read_tps),
    }
}

fn main() {
    Args::from_process(&[]).run(bench(), |leg, _| run_leg(leg));
}
