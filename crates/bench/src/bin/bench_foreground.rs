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
//! `bench_check` does: the in-memory pair by its speedup, the file-backed
//! pair by its appends per fsync — that group commit coalesces is a count
//! this host's disk cannot move, where the pair's wall-clock ratio is
//! mostly the disk.
//!
//! Usage: `cargo run --release -p remus-bench --bin bench_foreground --
//! --json BENCH_foreground.json`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use remus_bench::{Args, Bench, Leg, LegOutcome, Maintenance, Oracle, Rig, CLIENT_SEED};
use remus_common::{HotPathConfig, NodeId, ShardId, SimConfig, WalConfig};
use remus_core::MigrationTask;
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

/// What `bench_foreground` reports. A leg's parameters are its hot path
/// and whether its WAL is file-backed; the speedup is taken within each
/// durability pair.
pub(crate) fn bench() -> Bench<(HotPathConfig, bool)> {
    let (sequential, tuned) = (HotPathConfig::sequential(), HotPathConfig::tuned());
    let leg = |scenario, row, params, baseline| Leg::new(scenario, row, params).versus(baseline);
    let (memory, walfile) = ("baseline", "walfile-baseline");
    Bench {
        scale_label: Some("foreground"),
        default_json: Some("BENCH_foreground.json"),
        table: "foreground throughput",
        headers: &[
            "config",
            "txn/s",
            "p50_us",
            "p99_us",
            "migrations",
            "speedup",
        ],
        legs: vec![
            leg("foreground-baseline", memory, (sequential, false), memory),
            leg("foreground-optimized", "optimized", (tuned, false), memory),
            leg(
                "foreground-walfile-baseline",
                walfile,
                (sequential, true),
                walfile,
            ),
            leg(
                "foreground-walfile-optimized",
                "walfile-optimized",
                (tuned, true),
                walfile,
            ),
        ],
        ..Bench::new(
            "bench_foreground",
            "bench_foreground — concurrent sessions of fixed work against a migrating cluster",
        )
    }
}

/// The first `n` keys hashing to `shard`.
fn keys_on(layout: &TableLayout, shard: ShardId, n: usize) -> Vec<u64> {
    let on_shard = (0u64..).filter(|k| layout.shard_for(*k) == shard);
    on_shard.take(n).collect()
}

fn run_leg(leg: &Leg<(HotPathConfig, bool)>) -> LegOutcome {
    let (hot_path, durable) = leg.params;
    // One WAL root per durable leg, removed afterwards — leaking segments
    // would trip the CI tmpdir-hygiene check.
    let wal_root = format!("remus-bench-fgwal-{}-{}", std::process::id(), leg.row);
    let wal_root = durable.then(|| std::env::temp_dir().join(wal_root));
    let config = SimConfig {
        snapshot_copy_per_tuple: COPY_PER_TUPLE,
        hot_path,
        wal: wal_root
            .as_ref()
            .map_or_else(WalConfig::memory, WalConfig::file),
        ..SimConfig::instant()
    };
    let rig = Rig::build(2, leg.engine, Oracle::Gts, config, Maintenance::GcOnly);
    let hot_len = SESSIONS * HOT_KEYS_PER_SESSION;
    let layout = rig.seed_table(
        2,
        |_| NodeId(0),
        |layout| {
            [
                keys_on(layout, BULK_SHARD, BULK_KEYS),
                keys_on(layout, HOT_SHARD, hot_len),
            ]
            .concat()
        },
    );
    let hot_keys = keys_on(&layout, HOT_SHARD, hot_len);

    // Fixed work on the shared client fleet: each client owns a private key
    // pair, so no write-write conflicts are possible, and the fleet routes
    // clients round-robin across both nodes so each carries foreground
    // traffic.
    let workload = move |c: remus_common::ClientId,
                         t: &mut remus_cluster::SessionTxn<'_>,
                         _r: &mut rand::rngs::SmallRng| {
        let s = c.0 as usize % SESSIONS;
        let keys = &hot_keys[s * HOT_KEYS_PER_SESSION..(s + 1) * HOT_KEYS_PER_SESSION];
        let value = Value::from(vec![1u8; 16]);
        for &k in keys {
            t.update(&layout, k, value.clone())?;
        }
        for &k in keys {
            t.read(&layout, k)?;
        }
        Ok(())
    };
    let fleet_config = EngineConfig {
        max_txns_per_client: Some(TXNS_PER_SESSION),
        ..EngineConfig::closed_loop(SESSIONS, Duration::ZERO, CLIENT_SEED)
    };

    // The disturbance: the bulk shard migrates back and forth between the
    // nodes until the fleet is done, completing at least one round.
    let done = AtomicBool::new(false);
    let (fleet, first_migration, migrations) = std::thread::scope(|scope| {
        let migrator = scope.spawn(|| {
            let (mut first, mut count) = (None, 0u64);
            let (mut src, mut dst) = (NodeId(0), NodeId(1));
            while count == 0 || !done.load(Ordering::SeqCst) {
                let report = rig.migrate(&[MigrationTask::single(BULK_SHARD, src, dst)]);
                first.get_or_insert(report);
                count += 1;
                std::mem::swap(&mut src, &mut dst);
            }
            (first.expect("at least one migration ran"), count)
        });
        let fleet = OpenLoopEngine::start(&rig.cluster, fleet_config, Arc::new(workload)).join();
        done.store(true, Ordering::SeqCst);
        let (first, count) = migrator.join().expect("migrator panicked");
        (fleet, first, count)
    });

    // The scenario carries exactly one trace (the first round trip's
    // outbound leg) so the phase sequence bench_check compares is stable
    // across runs even though the loop count varies.
    let commits = fleet.metrics.counters.commits();
    assert_eq!(
        commits,
        SESSIONS as u64 * TXNS_PER_SESSION,
        "{}: a foreground txn aborted (keys are private, none should)",
        leg.row
    );
    let tps = commits as f64 / fleet.elapsed.as_secs_f64();
    let latency = &fleet.metrics.latency_normal;
    let scenario = rig.finish(leg.scenario, &fleet.metrics, &first_migration);
    drop(rig);
    if let Some(root) = wal_root {
        std::fs::remove_dir_all(root).expect("removing bench WAL segments failed");
    }
    LegOutcome {
        scenarios: vec![scenario],
        rows: vec![vec![
            format!("{tps:.0}"),
            latency.percentile(0.50).as_micros().to_string(),
            latency.percentile(0.99).as_micros().to_string(),
            migrations.to_string(),
        ]],
        measure: Some(tps),
    }
}

fn main() {
    Args::from_process(&[]).run(bench(), |leg, _| run_leg(leg));
}
