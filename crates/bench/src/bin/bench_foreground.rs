//! Foreground hot-path benchmark: concurrent sessions against a
//! migrating cluster, optimized hot path vs the sequential baseline.
//!
//! Four session threads each commit a fixed number of transactions (two
//! updates + two reads over a private key pair, so there are no
//! write-write conflicts) against a hot shard that never migrates, while
//! a 2048-key bulk shard is migrated back and forth between the two
//! nodes with the Remus engine for the whole run. The workload is fixed
//! *work*, not fixed time: throughput is total commits over the wall
//! clock of the session threads.
//!
//! The run is executed twice with identical workloads:
//!
//! * **baseline** — [`HotPathConfig::sequential()`]: one index stripe,
//!   no version-chain GC, one GTS timestamp per RPC. Version chains grow
//!   by two versions per transaction and every write pays an
//!   O(chain-length) insert, so throughput decays as history piles up.
//! * **optimized** — [`HotPathConfig::tuned()`]: striped index,
//!   incremental GC on a 2 ms cadence, batched GTS leases. Chains stay
//!   near length one and the foreground path stays flat.
//!
//! and then twice more with the **file-backed WAL** (DESIGN.md §10):
//! every commit waits on the group-commit flusher, so the legs price real
//! fsyncs into the foreground path while concurrent sessions coalesce
//! them (`wal.fsyncs` ≪ `wal.appends`, both reported in the JSON
//! counters). The hot-path speedup is gated *within* each durability
//! pair — tuned-vs-sequential on the in-memory pair and again on the
//! file-backed pair — because durability adds the same constant to both
//! legs of a pair and comparing across pairs would measure the disk, not
//! the hot path.
//!
//! It emits a `remus-bench/v1` JSON report with a `foreground throughput`
//! table (txn/s, p50/p99 latency, speedup) and holds it to the
//! `foreground throughput` rows of [`remus_bench::gate::GATES`], as
//! `bench_check` does.
//!
//! Usage: `cargo run --release -p remus-bench --bin bench_foreground --
//! --json BENCH_foreground.json`

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use remus_bench::{
    checked_trace, finish, gate, json_path_arg, BenchReport, EngineKind, ScenarioReport,
    TableSection, CLIENT_SEED,
};
use remus_clock::OracleKind;
use remus_cluster::{Cluster, ClusterBuilder, Session};
use remus_common::{HotPathConfig, NodeId, ShardId, SimConfig, TableId, WalConfig};
use remus_core::{MigrationReport, MigrationTask};
use remus_shard::TableLayout;
use remus_storage::Value;
use remus_workload::{EngineConfig, OpenLoopEngine};

/// Keys in the bulk shard that migrates back and forth.
const BULK_KEYS: usize = 2048;
/// Concurrent foreground sessions.
const SESSIONS: usize = 4;
/// Committed transactions per session (fixed work per leg).
const TXNS_PER_SESSION: u64 = 8000;
/// Private keys per session; two versions land per transaction, so the
/// baseline chain on each key reaches `2 * TXNS_PER_SESSION /
/// HOT_KEYS_PER_SESSION` versions by the end of the leg.
const HOT_KEYS_PER_SESSION: usize = 2;
/// Simulated per-tuple copy cost: 2048 keys -> ~20 ms per migration leg,
/// so several round trips overlap the session work.
const COPY_PER_TUPLE: Duration = Duration::from_micros(10);

/// The shard that migrates (bulk data, never written by sessions).
const BULK_SHARD: ShardId = ShardId(0);
/// The shard the sessions hammer (never migrates).
const HOT_SHARD: ShardId = ShardId(1);

struct LegResult {
    tps: f64,
    p50: Duration,
    p99: Duration,
    migrations: u64,
    scenario: remus_bench::ScenarioResult,
}

fn foreground_config(hot_path: HotPathConfig, wal_dir: Option<&Path>) -> SimConfig {
    let mut config = SimConfig::instant();
    config.snapshot_copy_per_tuple = COPY_PER_TUPLE;
    config.hot_path = hot_path;
    if let Some(dir) = wal_dir {
        config.wal = WalConfig::file(dir);
    }
    config
}

/// Splits the key space by shard: the first `BULK_KEYS` keys hashing to
/// the bulk shard, and `SESSIONS * HOT_KEYS_PER_SESSION` keys hashing to
/// the hot shard.
fn pick_keys(layout: &TableLayout) -> (Vec<u64>, Vec<u64>) {
    let mut bulk = Vec::with_capacity(BULK_KEYS);
    let mut hot = Vec::with_capacity(SESSIONS * HOT_KEYS_PER_SESSION);
    let mut k = 0u64;
    while bulk.len() < BULK_KEYS || hot.len() < SESSIONS * HOT_KEYS_PER_SESSION {
        let shard = layout.shard_for(k);
        if shard == BULK_SHARD {
            if bulk.len() < BULK_KEYS {
                bulk.push(k);
            }
        } else if shard == HOT_SHARD && hot.len() < SESSIONS * HOT_KEYS_PER_SESSION {
            hot.push(k);
        }
        k += 1;
    }
    (bulk, hot)
}

/// Migrates the bulk shard back and forth until `stop` is raised,
/// completing at least one round. Returns the first report and the count.
fn migration_loop(
    cluster: Arc<Cluster>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<(MigrationReport, u64)> {
    std::thread::spawn(move || {
        let engine = EngineKind::Remus.engine();
        let mut first: Option<MigrationReport> = None;
        let mut count = 0u64;
        let (mut src, mut dst) = (NodeId(0), NodeId(1));
        while count == 0 || !stop.load(Ordering::SeqCst) {
            let task = MigrationTask::single(BULK_SHARD, src, dst);
            let report = engine
                .migrate(&cluster, &task)
                .unwrap_or_else(|e| panic!("bulk migration {src:?}->{dst:?} failed: {e:?}"));
            if first.is_none() {
                first = Some(report);
            }
            count += 1;
            std::mem::swap(&mut src, &mut dst);
        }
        (first.expect("at least one migration ran"), count)
    })
}

fn run_leg(label: &str, hot_path: HotPathConfig, wal_dir: Option<&Path>) -> LegResult {
    let cluster = ClusterBuilder::new(2)
        .cc_mode(EngineKind::Remus.cc_mode())
        .oracle(OracleKind::Gts)
        .config(foreground_config(hot_path, wal_dir))
        .build();
    // Background maintenance: WAL truncation plus the hot path's GC
    // cadence. The huge vacuum period keeps full-sweep vacuum out of the
    // measurement; GC is governed by `hot_path.gc_interval` alone.
    cluster.start_maintenance(Duration::from_secs(3600));
    let layout = cluster.create_table(TableId(1), 0, 2, |_| NodeId(0));
    let (bulk_keys, hot_keys) = pick_keys(&layout);

    let seed = Session::connect(&cluster, NodeId(0));
    for &k in bulk_keys.iter() {
        seed.run(|t| t.insert(&layout, k, Value::from(vec![7u8; 64])))
            .expect("bulk seed insert failed");
    }
    for &k in hot_keys.iter() {
        seed.run(|t| t.insert(&layout, k, Value::from(vec![1u8; 16])))
            .expect("hot seed insert failed");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let migrator = migration_loop(Arc::clone(&cluster), Arc::clone(&stop));

    // Fixed work on the shared client fleet: each client owns a private key
    // pair, so no write-write conflicts are possible, and the fleet routes
    // clients round-robin across both nodes so each carries foreground
    // traffic. The per-client round counters reproduce the old loops'
    // round-varying values.
    let rounds: Arc<Vec<AtomicU64>> = Arc::new((0..SESSIONS).map(|_| AtomicU64::new(0)).collect());
    let fleet_rounds = Arc::clone(&rounds);
    let fleet = OpenLoopEngine::start(
        &cluster,
        EngineConfig {
            max_txns_per_client: Some(TXNS_PER_SESSION),
            ..EngineConfig::closed_loop(SESSIONS, Duration::ZERO, CLIENT_SEED)
        },
        Arc::new(
            move |c: remus_common::ClientId,
                  t: &mut remus_cluster::SessionTxn<'_>,
                  _r: &mut rand::rngs::SmallRng| {
                let s = c.0 as usize % SESSIONS;
                let keys = &hot_keys[s * HOT_KEYS_PER_SESSION..(s + 1) * HOT_KEYS_PER_SESSION];
                let round = fleet_rounds[s].fetch_add(1, Ordering::Relaxed);
                let value = Value::from(vec![(round % 251) as u8; 16]);
                for &k in keys {
                    t.update(&layout, k, value.clone())?;
                }
                for &k in keys {
                    t.read(&layout, k)?;
                }
                Ok(())
            },
        ),
    );
    let engine_report = fleet.join();
    let elapsed = engine_report.elapsed;
    stop.store(true, Ordering::SeqCst);
    let (first_migration, migrations) = migrator.join().unwrap();
    cluster.stop_maintenance();

    // The scenario carries exactly one trace (the first round trip's
    // outbound leg) so the phase sequence bench_check compares is stable
    // across runs even though the loop count varies.
    checked_trace(label, EngineKind::Remus, &first_migration);

    let metrics = &engine_report.metrics;
    let commits = metrics.counters.commits();
    assert_eq!(
        commits,
        SESSIONS as u64 * TXNS_PER_SESSION,
        "{label}: a foreground txn aborted (keys are private, none should)"
    );
    let tps = commits as f64 / elapsed.as_secs_f64();
    let latency = &metrics.latency_normal;
    let (p50, p99) = (latency.percentile(0.50), latency.percentile(0.99));
    println!(
        "{label}\ttxn/s={tps:.0}\tp50={:.1}us\tp99={:.1}us\tmigrations={migrations}\telapsed={:.2}s",
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
        elapsed.as_secs_f64(),
    );
    let scenario = finish(EngineKind::Remus, metrics, first_migration, &cluster);
    if wal_dir.is_some() {
        // Group commit must actually group: every commit waited on a
        // flusher batch, yet concurrent sessions share fsyncs.
        let sum = |name: &str| -> u64 {
            scenario
                .counters
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum()
        };
        let (appends, fsyncs) = (sum("wal.appends"), sum("wal.fsyncs"));
        println!("{label}\twal.appends={appends}\twal.fsyncs={fsyncs}");
        assert!(fsyncs >= 1, "{label}: file-backed leg never synced");
        assert!(
            fsyncs * 2 < appends,
            "{label}: group commit is not coalescing \
             ({fsyncs} fsyncs for {appends} appends)"
        );
    }
    LegResult {
        tps,
        p50,
        p99,
        migrations,
        scenario,
    }
}

fn throughput_row(config: &str, leg: &LegResult, speedup: f64) -> Vec<String> {
    vec![
        config.to_string(),
        format!("{:.0}", leg.tps),
        format!("{}", leg.p50.as_micros()),
        format!("{}", leg.p99.as_micros()),
        format!("{}", leg.migrations),
        format!("{speedup:.2}x"),
    ]
}

fn main() {
    let path = json_path_arg().unwrap_or_else(|| PathBuf::from("BENCH_foreground.json"));
    println!(
        "# bench_foreground — {SESSIONS} sessions x {TXNS_PER_SESSION} txns \
         against a migrating cluster"
    );
    let base = run_leg("baseline ", HotPathConfig::sequential(), None);
    let opt = run_leg("optimized", HotPathConfig::tuned(), None);
    let speedup = opt.tps / base.tps.max(1e-9);
    println!("foreground speedup: {speedup:.2}x");

    // The durable pair: same fixed work, every commit priced through the
    // group-commit flusher. One WAL root per leg, removed afterwards —
    // leaking segments would trip the CI tmpdir-hygiene check.
    let wal_root = std::env::temp_dir().join(format!("remus-bench-fgwal-{}", std::process::id()));
    let base_wal_dir = wal_root.join("baseline");
    let opt_wal_dir = wal_root.join("optimized");
    let base_wal = run_leg(
        "walfile-baseline ",
        HotPathConfig::sequential(),
        Some(&base_wal_dir),
    );
    let opt_wal = run_leg(
        "walfile-optimized",
        HotPathConfig::tuned(),
        Some(&opt_wal_dir),
    );
    std::fs::remove_dir_all(&wal_root).expect("removing bench WAL segments failed");
    let speedup_wal = opt_wal.tps / base_wal.tps.max(1e-9);
    println!("foreground speedup (file-backed WAL): {speedup_wal:.2}x");

    let mut report = BenchReport::new("bench_foreground", "foreground");
    report.scenarios.push(ScenarioReport::from_result(
        "foreground-baseline",
        &base.scenario,
    ));
    report.scenarios.push(ScenarioReport::from_result(
        "foreground-optimized",
        &opt.scenario,
    ));
    report.scenarios.push(ScenarioReport::from_result(
        "foreground-walfile-baseline",
        &base_wal.scenario,
    ));
    report.scenarios.push(ScenarioReport::from_result(
        "foreground-walfile-optimized",
        &opt_wal.scenario,
    ));
    report.tables.push(TableSection::new(
        "foreground throughput",
        &[
            "config",
            "txn/s",
            "p50_us",
            "p99_us",
            "migrations",
            "speedup",
        ],
        vec![
            throughput_row("baseline", &base, 1.0),
            throughput_row("optimized", &opt, speedup),
            throughput_row("walfile-baseline", &base_wal, 1.0),
            throughput_row("walfile-optimized", &opt_wal, speedup_wal),
        ],
    ));
    report.write(&path).expect("writing JSON report failed");
    gate::enforce(&report);
}
