//! SSI-tax benchmark: what serializable mode costs over snapshot
//! isolation, steady-state and through a live migration.
//!
//! Four legs share one shape — two primary nodes (4 shards), a seeded
//! read-modify-write workload over a hot key range offered by the
//! open-loop engine (Poisson arrivals, so the offered load is a pure
//! function of the seed and latency is coordinated-omission-safe) — and
//! differ on two axes:
//!
//! * **isolation** — `si` legs run plain snapshot isolation; `ssi` legs
//!   run [`IsolationLevel::Serializable`], arming the SIREAD tables,
//!   rw-antidependency tracking, and dangerous-structure aborts
//!   (DESIGN.md §14).
//! * **migration** — `steady` legs run undisturbed; `live` legs move
//!   shard 0 between the primaries under the Remus engine mid-window,
//!   exercising the SSI state handover on top of the tax.
//!
//! The headline number is **retention** — an ssi leg's delivered
//! throughput over the matching si leg's. SSI spends work on SIREAD
//! bookkeeping and sheds transactions at dangerous structures, so the
//! ratio sits below 1.0x; the emitted `remus-bench/v1` report is held to
//! the `ssi tax` rows of [`remus_bench::gate::GATES`], as `bench_check`
//! does. Each ssi leg also requires `txn.rw_edges > 0` (the subsystem
//! demonstrably armed), and every leg's report carries the
//! `txn.ssi_aborts` / `txn.rw_edges` / `txn.siread_entries` samples for
//! the archived artifact.
//!
//! Usage: `cargo run --release -p remus-bench --bin bench_ssi --
//! --json BENCH_ssi.json`

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;
use remus_bench::{
    finish, gate, json_path_arg, BenchReport, EngineKind, ScenarioReport, TableSection,
};
use remus_clock::OracleKind;
use remus_cluster::{ClusterBuilder, Session};
use remus_common::metrics::MetricSample;
use remus_common::{IsolationLevel, NodeId, ShardId, SimConfig, TableId};
use remus_core::MigrationTask;
use remus_storage::Value;
use remus_workload::{EngineConfig, OpenLoopEngine, Pacing};

/// Primary nodes; shard `i` lives on primary `i % PRIMARIES`.
const PRIMARIES: u32 = 2;
/// Keys in the table (4 shards, ~512 keys each).
const KEYS: u64 = 2048;
/// Shards in the table.
const SHARDS: u32 = 4;
/// Hot keys every transaction reads from — small enough that concurrent
/// read sets overlap and rw antidependencies actually form.
const HOT_KEYS: u64 = 64;
/// Point reads per transaction (each raises SIREAD entries under SSI).
const READS_PER_TXN: usize = 8;
/// Logical open-loop clients.
const CLIENTS: usize = 16;
/// Worker threads multiplexing them.
const WORKERS: usize = 8;
/// Poisson mean inter-arrival per client (16 clients → ~80k offered/s,
/// past saturation, so delivered throughput measures per-transaction
/// cost rather than the arrival schedule).
const ARRIVAL_MEAN: Duration = Duration::from_micros(200);
/// Unmeasured ramp before the migration (or its stand-in) fires.
const WARMUP: Duration = Duration::from_millis(150);
/// Steady-leg stand-in for the migration window, and post-window tail.
const COOLDOWN: Duration = Duration::from_millis(150);
/// RNG seed shared by all legs: identical offered schedules.
const SEED: u64 = 0x551;

struct LegResult {
    name: &'static str,
    isolation: IsolationLevel,
    live: bool,
    tps: f64,
    p99_us: u64,
    ssi_aborts: u64,
    rw_edges: u64,
    scenario: remus_bench::ScenarioResult,
}

fn val(n: u64) -> Value {
    Value::copy_from_slice(format!("v{n}").as_bytes())
}

fn counter_sum(counters: &[MetricSample], name: &str) -> u64 {
    counters
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

fn run_leg(name: &'static str, isolation: IsolationLevel, live: bool) -> LegResult {
    let mut config = SimConfig::instant();
    // Version-chain GC cadence keeps chains short and — under SSI — is
    // the tick that retires committed SIREAD entries at the safe-ts
    // watermark, so retention bookkeeping runs *during* the window.
    config.hot_path.gc_interval = Duration::from_millis(5);
    // Stretch the copy enough that the live legs' migration spans a
    // measurable slice of the window (shard 0 holds ~512 keys).
    config.snapshot_copy_per_tuple = Duration::from_micros(50);
    let cluster = ClusterBuilder::new(PRIMARIES as usize)
        .cc_mode(EngineKind::Remus.cc_mode())
        .oracle(OracleKind::Gts)
        .config(config)
        .isolation(isolation)
        .build();
    cluster.start_maintenance(Duration::from_millis(20));
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

    // The workload: read a handful of hot keys, then update one of them.
    // Overlapping read/write sets across 8 concurrent clients form rw
    // antidependencies constantly; under SSI some commits complete a
    // dangerous structure and pay the tax as `DbError::SsiAbort`.
    let fleet = OpenLoopEngine::start(
        &cluster,
        EngineConfig::open_loop(
            CLIENTS,
            WORKERS,
            Pacing::Poisson { mean: ARRIVAL_MEAN },
            SEED,
        ),
        Arc::new(
            move |_c: remus_common::ClientId,
                  t: &mut remus_cluster::SessionTxn<'_>,
                  rng: &mut SmallRng| {
                let base = rng.gen_range(0..HOT_KEYS);
                for i in 0..READS_PER_TXN as u64 {
                    t.read(&layout, (base + i * 17) % HOT_KEYS)?;
                }
                let k = (base + 1) % HOT_KEYS;
                t.update(&layout, k, val(k))?;
                Ok(())
            },
        ),
    );
    let metrics = Arc::clone(&fleet.metrics);
    std::thread::sleep(WARMUP);

    // The live legs migrate shard 0 between the primaries mid-window;
    // the steady legs idle for a comparable slice so every leg's clock
    // covers the same schedule.
    let mut migration = remus_core::MigrationReport::new(EngineKind::Remus.name());
    if live {
        metrics.set_migration_active(true);
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        migration = EngineKind::Remus
            .engine()
            .migrate(&cluster, &task)
            .expect("migration failed");
        metrics.set_migration_active(false);
    } else {
        std::thread::sleep(COOLDOWN);
    }
    std::thread::sleep(COOLDOWN);

    let report = fleet.stop();
    let scenario = finish(EngineKind::Remus, &metrics, migration, &cluster);
    let counters = &scenario.counters;
    cluster.stop_maintenance();

    let tps = report.delivered_rate();
    // CO-safe tail: the migration-window buckets for the live legs, the
    // normal buckets otherwise (steady legs never enter the window).
    let p99 = if live {
        report.metrics.latency_migration.percentile(0.99)
    } else {
        report.metrics.latency_normal.percentile(0.99)
    };
    let ssi_aborts = counter_sum(counters, "txn.ssi_aborts");
    let rw_edges = counter_sum(counters, "txn.rw_edges");
    if live {
        assert!(
            report.metrics.latency_migration.count() > 0,
            "{name}: no commits landed during the migration window"
        );
    }
    match isolation {
        IsolationLevel::Serializable => assert!(
            rw_edges > 0,
            "{name}: serializable leg raised no rw edges — SSI never armed"
        ),
        IsolationLevel::SnapshotIsolation => assert_eq!(
            rw_edges, 0,
            "{name}: SI leg raised rw edges — isolation knob leaked"
        ),
    }
    println!(
        "{name}\tdelivered/s={tps:.0}\tco_p99_us={}\tssi_aborts={ssi_aborts}\trw_edges={rw_edges}",
        p99.as_micros()
    );

    LegResult {
        name,
        isolation,
        live,
        tps,
        p99_us: p99.as_micros() as u64,
        ssi_aborts,
        rw_edges,
        scenario,
    }
}

fn tax_row(leg: &LegResult, baseline: f64) -> Vec<String> {
    let s = &leg.scenario;
    let attempts = s.commits + s.migration_aborts + s.ww_aborts + s.other_aborts;
    vec![
        leg.name.to_string(),
        match leg.isolation {
            IsolationLevel::SnapshotIsolation => "si".to_string(),
            IsolationLevel::Serializable => "ssi".to_string(),
        },
        if leg.live { "live" } else { "steady" }.to_string(),
        format!("{:.0}", leg.tps),
        format!("{}", leg.p99_us),
        format!("{}", leg.ssi_aborts),
        format!("{}", leg.rw_edges),
        format!("{:.4}", leg.ssi_aborts as f64 / (attempts as f64).max(1.0)),
        format!("{:.2}x", leg.tps / baseline.max(1e-9)),
    ]
}

fn main() {
    let path = json_path_arg().unwrap_or_else(|| PathBuf::from("BENCH_ssi.json"));
    println!(
        "# bench_ssi — {CLIENTS} open-loop clients on {WORKERS} workers, \
         {READS_PER_TXN} reads + 1 update over {HOT_KEYS} hot keys, \
         Poisson mean {ARRIVAL_MEAN:?}/client"
    );
    let legs = [
        run_leg("si-steady", IsolationLevel::SnapshotIsolation, false),
        run_leg("ssi-steady", IsolationLevel::Serializable, false),
        run_leg("si-live", IsolationLevel::SnapshotIsolation, true),
        run_leg("ssi-live", IsolationLevel::Serializable, true),
    ];
    let si_steady = legs[0].tps;
    let si_live = legs[2].tps;
    println!(
        "ssi tax: steady retention {:.2}x, live retention {:.2}x",
        legs[1].tps / si_steady.max(1e-9),
        legs[3].tps / si_live.max(1e-9),
    );

    let mut report = BenchReport::new("bench_ssi", "ssi-tax");
    for leg in &legs {
        report
            .scenarios
            .push(ScenarioReport::from_result(leg.name, &leg.scenario));
    }
    // Every ssi leg's counters must surface the SSI series in the JSON
    // artifact — the archived evidence the tax numbers are drawn from.
    for scenario in &report.scenarios {
        if scenario.name.starts_with("ssi") {
            for series in ["txn.ssi_aborts", "txn.rw_edges", "txn.siread_entries"] {
                assert!(
                    scenario.counters.iter().any(|c| c.name == series),
                    "{}: report carries no {series} sample",
                    scenario.name
                );
            }
        }
    }
    report.tables.push(TableSection::new(
        "ssi tax",
        &[
            "leg",
            "isolation",
            "migration",
            "delivered_tps",
            "co_p99_us",
            "ssi_aborts",
            "rw_edges",
            "ssi_abort_rate",
            "retention",
        ],
        legs.iter()
            .map(|leg| {
                let baseline = if leg.live { si_live } else { si_steady };
                tax_row(leg, baseline)
            })
            .collect(),
    ));
    report.write(&path).expect("writing JSON report failed");
    gate::enforce(&report);
}
