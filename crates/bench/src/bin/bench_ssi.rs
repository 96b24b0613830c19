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

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;
use remus_bench::{Args, Bench, Leg, LegOutcome, Maintenance, Oracle, Rig};
use remus_common::{IsolationLevel, NodeId, ShardId, SimConfig};
use remus_core::{MigrationReport, MigrationTask};
use remus_storage::Value;
use remus_workload::{EngineConfig, OpenLoopEngine, Pacing};
use IsolationLevel::{Serializable, SnapshotIsolation};

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

/// What `bench_ssi` reports. A leg's parameters are its isolation level
/// and whether a live migration crosses its window; retention is taken
/// against the si leg of the same kind.
pub(crate) fn bench() -> Bench<(IsolationLevel, bool)> {
    let leg = |name, params, baseline| Leg::new(name, name, params).versus(baseline);
    Bench {
        scale_label: Some("ssi-tax"),
        default_json: Some("BENCH_ssi.json"),
        table: "ssi tax",
        headers: &[
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
        legs: vec![
            leg("si-steady", (SnapshotIsolation, false), "si-steady"),
            leg("ssi-steady", (Serializable, false), "si-steady"),
            leg("si-live", (SnapshotIsolation, true), "si-live"),
            leg("ssi-live", (Serializable, true), "si-live"),
        ],
        ..Bench::new(
            "bench_ssi",
            "bench_ssi — open-loop read-modify-write over hot keys, SI vs serializable",
        )
    }
}

fn run_leg(leg: &Leg<(IsolationLevel, bool)>) -> LegOutcome {
    let (isolation, live) = leg.params;
    let name = leg.scenario;
    let mut config = SimConfig {
        // Stretch the copy enough that the live legs' migration spans a
        // measurable slice of the window (shard 0 holds ~512 keys).
        snapshot_copy_per_tuple: Duration::from_micros(50),
        isolation,
        ..SimConfig::instant()
    };
    // Version-chain GC cadence keeps chains short and — under SSI — is
    // the tick that retires committed SIREAD entries at the safe-ts
    // watermark, so retention bookkeeping runs *during* the window.
    config.hot_path.gc_interval = Duration::from_millis(5);
    let nodes = PRIMARIES as usize;
    let rig = Rig::build(nodes, leg.engine, Oracle::Gts, config, Maintenance::GcOnly);
    let value = |k: u64| Value::copy_from_slice(format!("v{k}").as_bytes());
    let layout = rig.seed_table(SHARDS, |i| NodeId(i % PRIMARIES), |_| 0..KEYS);

    // The workload: read a handful of hot keys, then update one of them.
    // Overlapping read/write sets across 8 concurrent clients form rw
    // antidependencies constantly; under SSI some commits complete a
    // dangerous structure and pay the tax as `DbError::SsiAbort`.
    let workload = move |_c: remus_common::ClientId,
                         t: &mut remus_cluster::SessionTxn<'_>,
                         rng: &mut SmallRng| {
        let base = rng.gen_range(0..HOT_KEYS);
        for i in 0..READS_PER_TXN as u64 {
            t.read(&layout, (base + i * 17) % HOT_KEYS)?;
        }
        let k = (base + 1) % HOT_KEYS;
        t.update(&layout, k, value(k))
    };
    let pacing = Pacing::Poisson { mean: ARRIVAL_MEAN };
    let config = EngineConfig::open_loop(CLIENTS, WORKERS, pacing, SEED);
    let fleet = OpenLoopEngine::start(&rig.cluster, config, Arc::new(workload));
    std::thread::sleep(WARMUP);

    // The live legs migrate shard 0 between the primaries mid-window;
    // the steady legs idle for a comparable slice so every leg's clock
    // covers the same schedule.
    let migration = if live {
        let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
        rig.migrate_marked(&fleet.metrics, "handover", &[task])
    } else {
        std::thread::sleep(COOLDOWN);
        MigrationReport::new(leg.engine.name())
    };
    std::thread::sleep(COOLDOWN);

    let report = fleet.stop();
    let scenario = rig.finish(name, &report.metrics, &migration);
    let tps = report.delivered_rate();
    // CO-safe tail: the migration-window buckets for the live legs, the
    // normal buckets otherwise (steady legs never enter the window).
    let latency = if live {
        &report.metrics.latency_migration
    } else {
        &report.metrics.latency_normal
    };
    assert!(
        latency.count() > 0,
        "{name}: no commits landed in the measured window"
    );
    let ssi_aborts = scenario.counter_sum("txn.ssi_aborts");
    let rw_edges = scenario.counter_sum("txn.rw_edges");
    // Armed-checks: the subsystem demonstrably ran (or stayed off), and an
    // ssi leg's record surfaces the SSI series in the JSON artifact — the
    // archived evidence the tax numbers are drawn from.
    if isolation == Serializable {
        assert!(rw_edges > 0, "{name}: no rw edges — SSI never armed");
        for series in ["txn.ssi_aborts", "txn.rw_edges", "txn.siread_entries"] {
            let carried = scenario.counters.iter().any(|c| c.name == series);
            assert!(carried, "{name}: report carries no {series} sample");
        }
    } else {
        assert_eq!(rw_edges, 0, "{name}: SI leg raised rw edges — knob leaked");
    }
    let s = &scenario;
    let attempts = s.commits + s.migration_aborts + s.ww_aborts + s.other_aborts;
    // A leg is named after its two axes: `<isolation>-<migration>`.
    let (isolation, migration_window) = leg.row.split_once('-').expect("leg name");
    LegOutcome {
        rows: vec![vec![
            isolation.to_string(),
            migration_window.to_string(),
            format!("{tps:.0}"),
            latency.percentile(0.99).as_micros().to_string(),
            ssi_aborts.to_string(),
            rw_edges.to_string(),
            format!("{:.4}", ssi_aborts as f64 / (attempts as f64).max(1.0)),
        ]],
        scenarios: vec![scenario],
        measure: Some(tps),
    }
}

fn main() {
    Args::from_process(&[]).run(bench(), |leg, _| run_leg(leg));
}
