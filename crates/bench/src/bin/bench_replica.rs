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

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remus_bench::{
    finish, gate, json_path_arg, BenchReport, EngineKind, ScenarioReport, ScenarioResult,
    TableSection, CLIENT_SEED,
};
use remus_clock::OracleKind;
use remus_cluster::{ClusterBuilder, ReplicaSession, Session};
use remus_common::{NodeId, ShardId, SimConfig, TableId};
use remus_core::{start_replica, MigrationTask};
use remus_shard::TableLayout;
use remus_storage::Value;
use remus_workload::{EngineConfig, OpenLoopEngine, RunMetrics};

/// Primary nodes; shard `i` lives on primary `i % PRIMARIES`.
const PRIMARIES: u32 = 2;
/// Keys in the table (4 shards, ~256 keys each).
const KEYS: u64 = 1024;
/// Shards in the table.
const SHARDS: u32 = 4;
/// Closed-loop read-only client threads, identical in every leg.
const READERS: usize = 4;
/// Point reads per read-only transaction.
const READS_PER_TXN: usize = 8;
/// Unmeasured transactions per reader before the clock starts.
const WARMUP_TXNS: u64 = 1_000;
/// Measured transactions per reader (sized so each leg's window spans a
/// few hundred milliseconds — enough to straddle the migration and to
/// drown scheduler jitter).
const READ_TXNS: u64 = 15_000;
/// RNG seed shared by all legs.
const SEED: u64 = 11;

struct LegResult {
    replicas: usize,
    read_tps: f64,
    writer_tps: f64,
    read_p50_us: u64,
    scenario: ScenarioResult,
}

fn val(n: u64) -> Value {
    Value::copy_from_slice(format!("v{n}").as_bytes())
}

/// One reader thread: closed-loop read-only transactions against either a
/// primary session or a replica session, warmed up, then timed.
fn reader_loop(
    cluster: &Arc<remus_cluster::Cluster>,
    layout: TableLayout,
    replicas: usize,
    idx: usize,
    start: &Barrier,
    metrics: &RunMetrics,
) -> Duration {
    let mut rng = SmallRng::seed_from_u64(SEED.wrapping_mul(0x9e37_79b9).wrapping_add(idx as u64));
    let replica_session = if replicas > 0 {
        let node = NodeId(PRIMARIES + (idx % replicas) as u32);
        Some(ReplicaSession::connect(cluster, node).expect("replica connect"))
    } else {
        None
    };
    let primary_session = if replicas == 0 {
        Some(Session::connect(cluster, NodeId(idx as u32 % PRIMARIES)))
    } else {
        None
    };
    let run_txn = |rng: &mut SmallRng| {
        let started = Instant::now();
        match (&replica_session, &primary_session) {
            (Some(session), _) => {
                let txn = session.begin().expect("replica begin");
                for _ in 0..READS_PER_TXN {
                    txn.read(&layout, rng.gen_range(0..KEYS)).expect("read");
                }
            }
            (None, Some(session)) => {
                let mut txn = session.begin();
                for _ in 0..READS_PER_TXN {
                    txn.read(&layout, rng.gen_range(0..KEYS)).expect("read");
                }
                txn.commit().expect("read-only commit");
            }
            _ => unreachable!(),
        }
        metrics.record_outcome(started, &Ok(()));
    };
    for _ in 0..WARMUP_TXNS {
        run_txn(&mut rng);
    }
    start.wait();
    let t0 = Instant::now();
    for _ in 0..READ_TXNS {
        run_txn(&mut rng);
    }
    t0.elapsed()
}

fn run_leg(replicas: usize) -> LegResult {
    let mut config = SimConfig::instant();
    // The version-chain GC cadence of the tuned hot path keeps chains
    // short on the primaries; `gts_lease` stays at the strict default of 1
    // so primary-side begins pay the oracle round-trip they pay under the
    // chaos checker's strict GTS mode.
    config.hot_path.gc_interval = Duration::from_millis(5);
    let cluster = ClusterBuilder::new(PRIMARIES as usize + replicas)
        .cc_mode(EngineKind::Remus.cc_mode())
        .oracle(OracleKind::Gts)
        .config(config)
        .build();
    cluster.start_maintenance(Duration::from_secs(3600));
    let layout = cluster.create_table(TableId(1), 0, SHARDS, |i| NodeId(i % PRIMARIES));
    let seeder = Session::connect(&cluster, NodeId(0));
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(64) {
        seeder
            .run(|t| {
                for &k in chunk {
                    t.insert(&layout, k, val(k))?;
                }
                Ok(())
            })
            .expect("seeding failed");
    }

    // Replicas bootstrap via virtual-cut backfill; the clock starts only
    // after every one is certified, like a real read pool going live.
    let procs: Vec<_> = (0..replicas)
        .map(|r| {
            let proc = start_replica(&cluster, NodeId(PRIMARIES + r as u32)).expect("replica");
            proc.wait_certified(Duration::from_secs(30))
                .expect("certification");
            proc
        })
        .collect();

    // Continuous writer on the primaries for the whole leg: the replicas
    // must keep applying while they serve reads. One closed-loop client;
    // migration-induced aborts are absorbed by the engine's abort
    // accounting and the next arrival retries.
    let writer_rounds = Arc::new(AtomicU64::new(0));
    let writer = {
        let rounds = Arc::clone(&writer_rounds);
        OpenLoopEngine::start(
            &cluster,
            EngineConfig::closed_loop(1, Duration::ZERO, CLIENT_SEED),
            Arc::new(
                move |_c: remus_common::ClientId,
                      t: &mut remus_cluster::SessionTxn<'_>,
                      rng: &mut SmallRng| {
                    let key = rng.gen_range(0..KEYS);
                    let round = rounds.fetch_add(1, Ordering::Relaxed);
                    t.update(&layout, key, val(key.wrapping_add(round)))?;
                    Ok(())
                },
            ),
        )
    };

    let metrics = RunMetrics::new();
    let start = Barrier::new(READERS + 1);
    let (window, migration) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|idx| {
                let (cluster, metrics, start) = (&cluster, &metrics, &start);
                scope.spawn(move || reader_loop(cluster, layout, replicas, idx, start, metrics))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        // The live migration the readers ride through: shard 0 moves
        // between the primaries while every leg's clock is running.
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        let report = EngineKind::Remus
            .engine()
            .migrate(&cluster, &task)
            .expect("migration failed");
        let slowest = handles
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .max()
            .unwrap_or_default();
        (slowest.max(t0.elapsed().min(slowest)), report)
    });

    let writer_report = writer.stop();
    let writer_tps = writer_report.metrics.counters.commits() as f64
        / writer_report.elapsed.as_secs_f64().max(1e-9);
    let last_cts = writer_report.last_commit_ts;
    // The replicas that served the measured reads must still be live and
    // able to catch up to the writer's final commit.
    for proc in &procs {
        if last_cts.is_valid() {
            proc.handle()
                .wait_watermark(last_cts, Duration::from_secs(30))
                .expect("replica never caught up to the writer");
        }
        assert!(!proc.is_failed(), "replica failed during the leg");
    }
    // `commits` is the measured window; the recorders also saw the warm-up.
    let scenario = ScenarioResult {
        commits: READERS as u64 * READ_TXNS,
        ..finish(EngineKind::Remus, &metrics, migration, &cluster)
    };
    for proc in procs {
        proc.stop();
    }
    cluster.stop_maintenance();

    let total_reads = scenario.commits * READS_PER_TXN as u64;
    let read_tps = total_reads as f64 / window.as_secs_f64().max(1e-9);
    let read_p50_us = scenario.base_latency.as_micros() as u64;
    println!(
        "{replicas}-replica\treads/s={read_tps:.0}\twriter/s={writer_tps:.0}\tmean_read_txn_us={read_p50_us}",
    );
    LegResult {
        replicas,
        read_tps,
        writer_tps,
        read_p50_us,
        scenario,
    }
}

fn scaling_row(leg: &LegResult, baseline: f64) -> Vec<String> {
    vec![
        match leg.replicas {
            0 => "no-replica".to_string(),
            n => format!("{n}-replica"),
        },
        format!("{}", leg.replicas),
        format!("{:.0}", leg.read_tps),
        format!("{:.0}", leg.writer_tps),
        format!("{}", leg.read_p50_us),
        format!("{:.2}x", leg.read_tps / baseline.max(1e-9)),
    ]
}

fn main() {
    let path = json_path_arg().unwrap_or_else(|| PathBuf::from("BENCH_replica.json"));
    println!(
        "# bench_replica — {READERS} readers x {READ_TXNS} txns x \
         {READS_PER_TXN} reads, live shard-0 migration in every leg"
    );
    let legs: Vec<LegResult> = [0usize, 1, 2].into_iter().map(run_leg).collect();
    let baseline = legs[0].read_tps;
    let best = legs[1..]
        .iter()
        .map(|l| l.read_tps)
        .fold(f64::MIN, f64::max);
    let scaling = best / baseline.max(1e-9);
    println!("replica read scaling: {scaling:.2}x of the no-replica leg");

    let mut report = BenchReport::new("bench_replica", "read-scaling");
    for leg in &legs {
        let name = format!("replica-{}", leg.replicas);
        report
            .scenarios
            .push(ScenarioReport::from_result(&name, &leg.scenario));
    }
    report.tables.push(TableSection::new(
        "replica read scaling",
        &[
            "leg",
            "replicas",
            "read_tps",
            "writer_tps",
            "mean_read_txn_us",
            "scaling",
        ],
        legs.iter().map(|leg| scaling_row(leg, baseline)).collect(),
    ));
    report.write(&path).expect("writing JSON report failed");
    gate::enforce(&report);
}
