//! Perf smoke: small, fixed, quiescent migrations per engine.
//!
//! Unlike the figure binaries this runs no client load at all — each
//! engine migrates a single freshly-populated shard between two idle
//! nodes under `SimConfig::instant()`, so the phase *sequence* is fully
//! deterministic and the wall clock is seconds, not minutes. The emitted
//! JSON report carries every phase span and the cluster counters; CI runs
//! this twice and feeds both files to `bench_check`, which fails the job
//! on a phase-sequence change or an order-of-magnitude wall-clock
//! regression.
//!
//! On top of the per-engine `smoke` scenario, every engine also runs a
//! `smoke-seq` / `smoke-par` pair over a larger shard with a nonzero
//! per-tuple copy cost: identical migrations except for the data-plane
//! [`ParallelismConfig`]. The pair must produce identical phase sequences,
//! and for the push engines (which stream a chunked snapshot copy) the
//! parallel run's snapshot-copy + catch-up time must be at least 2x lower
//! — the chunked copy's speedup is sleep-dominated and therefore
//! deterministic, so this is asserted, not just reported.
//!
//! Usage: `cargo run --release -p remus-bench --bin bench_smoke -- --json BENCH_smoke.json`
//! (without `--json` the report goes to `BENCH_smoke.json` in the current
//! directory).

use std::path::PathBuf;
use std::time::Duration;

use remus_bench::{
    checked_trace, finish, json_path_arg, BenchReport, EngineKind, ScenarioReport, ScenarioResult,
};
use remus_cluster::{ClusterBuilder, Session};
use remus_common::{NodeId, ParallelismConfig, ShardId, SimConfig, TableId};
use remus_core::MigrationTask;
use remus_storage::Value;
use remus_workload::RunMetrics;

/// Keys loaded into the migrated shard for the plain smoke scenario.
const KEYS: u64 = 256;
/// Keys for the sequential-vs-parallel comparison: large enough that the
/// simulated per-tuple copy cost dominates the wall clock.
const PAR_KEYS: u64 = 2048;
/// Simulated per-tuple copy cost for the comparison runs (charged per
/// 256-tuple batch): 2048 keys -> ~102 ms of sequential copy sleep.
const PAR_COPY_PER_TUPLE: Duration = Duration::from_micros(50);

/// One quiescent migration of a freshly loaded `keys`-key shard; the
/// result's `commits` is the load, there being no client fleet.
fn run_engine(kind: EngineKind, keys: u64, config: SimConfig) -> ScenarioResult {
    let cluster = ClusterBuilder::new(2)
        .cc_mode(kind.cc_mode())
        .config(config)
        .build();
    let layout = cluster.create_table(TableId(1), 0, 1, |_| NodeId(0));
    let session = Session::connect(&cluster, NodeId(0));
    for k in 0..keys {
        session
            .run(|t| t.insert(&layout, k, Value::from(vec![7u8; 64])))
            .expect("insert failed");
    }
    let task = MigrationTask::single(ShardId(0), NodeId(0), NodeId(1));
    let report = kind
        .engine()
        .migrate(&cluster, &task)
        .unwrap_or_else(|e| panic!("{} smoke migration failed: {e:?}", kind.name()));
    ScenarioResult {
        commits: keys,
        ..finish(kind, &RunMetrics::new(), report, &cluster)
    }
}

/// Validates the trace and appends the scenario to the report. Returns the
/// migration's snapshot-copy + catch-up span time (zero for engines whose
/// trace has neither phase).
fn push_scenario(
    report: &mut BenchReport,
    name: &'static str,
    kind: EngineKind,
    result: ScenarioResult,
) -> Duration {
    let migration = &result.migration;
    let trace = checked_trace(kind.name(), kind, migration);
    let copy_plus_catchup = ["snapshot_copy", "catchup"]
        .iter()
        .filter_map(|p| trace.span(p))
        .map(|s| s.duration())
        .sum();
    println!(
        "{name}\t{}\ttotal={:.1}ms\tphases={}",
        kind.name(),
        migration.total.as_secs_f64() * 1e3,
        trace
            .root_phases()
            .iter()
            .map(|p| {
                let s = trace.span(p).expect("root phase exists");
                format!("{p}={:.1}ms", s.duration().as_secs_f64() * 1e3)
            })
            .collect::<Vec<_>>()
            .join(","),
    );
    report
        .scenarios
        .push(ScenarioReport::from_result(name, &result));
    copy_plus_catchup
}

fn main() {
    let path = json_path_arg().unwrap_or_else(|| PathBuf::from("BENCH_smoke.json"));
    println!("# bench_smoke — one quiescent {KEYS}-key migration per engine");
    let mut report = BenchReport::new("bench_smoke", "smoke");
    for kind in EngineKind::all() {
        let result = run_engine(kind, KEYS, SimConfig::instant());
        push_scenario(&mut report, "smoke", kind, result);
    }

    println!("# bench_smoke — sequential vs parallel data plane ({PAR_KEYS} keys)");
    for kind in EngineKind::all() {
        let mut seq_config = SimConfig::instant();
        seq_config.snapshot_copy_per_tuple = PAR_COPY_PER_TUPLE;
        seq_config.parallelism = ParallelismConfig::sequential();
        let mut par_config = seq_config.clone();
        par_config.parallelism = ParallelismConfig {
            copy_workers: 4,
            replay_workers: 4,
            chunk_size: 256,
            drain_batch: 32,
        };
        let seq = run_engine(kind, PAR_KEYS, seq_config);
        let par = run_engine(kind, PAR_KEYS, par_config);
        // Both legs are held to the engine's canonical sequence below, so
        // parallelism cannot have changed it.
        let seq_copy = push_scenario(&mut report, "smoke-seq", kind, seq);
        let par_copy = push_scenario(&mut report, "smoke-par", kind, par);
        // Squall pulls after the ownership flip instead of streaming a
        // snapshot copy, so the copy+catchup criterion only applies to the
        // push engines.
        if kind.name() != "squall" {
            let ratio = seq_copy.as_secs_f64() / par_copy.as_secs_f64().max(1e-9);
            println!(
                "{}\tcopy+catchup seq={:.1}ms par={:.1}ms speedup={ratio:.1}x",
                kind.name(),
                seq_copy.as_secs_f64() * 1e3,
                par_copy.as_secs_f64() * 1e3,
            );
            assert!(
                ratio >= 2.0,
                "{}: parallel copy+catchup speedup {ratio:.2}x < 2x \
                 (seq {seq_copy:?}, par {par_copy:?})",
                kind.name()
            );
        }
    }
    report.write(&path).expect("writing JSON report failed");
}
