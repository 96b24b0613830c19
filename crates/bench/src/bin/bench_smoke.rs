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

use std::time::Duration;

use remus_bench::{
    Args, Bench, EngineKind, Leg, LegOutcome, Maintenance, Oracle, Rig, ScenarioReport,
};
use remus_common::{NodeId, ParallelismConfig, ShardId, SimConfig};
use remus_core::MigrationTask;
use remus_workload::RunMetrics;

/// Keys loaded into the migrated shard for the plain smoke scenario.
const KEYS: u64 = 256;
/// Keys for the sequential-vs-parallel comparison: large enough that the
/// simulated per-tuple copy cost dominates the wall clock.
const PAR_KEYS: u64 = 2048;
/// Simulated per-tuple copy cost for the comparison runs (charged per
/// 256-tuple batch): 2048 keys -> ~102 ms of sequential copy sleep.
const PAR_COPY_PER_TUPLE: Duration = Duration::from_micros(50);

/// What `bench_smoke` reports: a `smoke` leg per engine under
/// `SimConfig::instant()`, then per engine a `smoke-seq` / `smoke-par` pair
/// over `PAR_KEYS` keys at `PAR_COPY_PER_TUPLE` with the data plane each
/// leg's parameter names.
pub(crate) fn bench() -> Bench<Option<ParallelismConfig>> {
    let parallel = ParallelismConfig {
        chunk_size: 256,
        ..SimConfig::instant().parallelism
    };
    // A fully sequential data plane: one copy worker over one chunk per
    // shard (the exact sequential scan), one replay worker, single-record
    // drains.
    let sequential = ParallelismConfig {
        copy_workers: 1,
        replay_workers: 1,
        chunk_size: u64::MAX,
        drain_batch: 1,
    };
    let planes = [("smoke-seq", sequential), ("smoke-par", parallel)];
    let plain = |kind| Leg::new("smoke", "", None).engine(kind);
    let mut legs = Vec::from(EngineKind::all().map(plain));
    for kind in EngineKind::all() {
        legs.extend(planes.map(|(name, plane)| Leg::new(name, "", Some(plane)).engine(kind)));
    }
    Bench {
        scale_label: Some("smoke"),
        default_json: Some("BENCH_smoke.json"),
        legs,
        ..Bench::new(
            "bench_smoke",
            "bench_smoke — one quiescent migration per engine, then sequential vs parallel",
        )
    }
}

/// One quiescent migration of a freshly loaded shard. Returns the record
/// and the migration's snapshot-copy + catch-up span time (zero for
/// engines whose trace has neither phase).
fn run_leg(leg: &Leg<Option<ParallelismConfig>>) -> (ScenarioReport, Duration) {
    let (keys, config) = match leg.params {
        None => (KEYS, SimConfig::instant()),
        Some(parallelism) => {
            let config = SimConfig {
                snapshot_copy_per_tuple: PAR_COPY_PER_TUPLE,
                parallelism,
                ..SimConfig::instant()
            };
            (PAR_KEYS, config)
        }
    };
    let kind = leg.engine;
    let rig = Rig::build(2, kind, Oracle::Dts, config, Maintenance::Off);
    rig.seed_table(1, |_| NodeId(0), |_| 0..keys);
    let migration = rig.migrate(&[MigrationTask::single(ShardId(0), NodeId(0), NodeId(1))]);
    // `migrate` held the trace to its engine's canonical sequence, so
    // parallelism cannot have changed it.
    let trace = &migration.traces[0];
    let span_of = |p: &&str| trace.span(p).map(|s| s.duration());
    let copy_plus_catchup = ["snapshot_copy", "catchup"]
        .iter()
        .filter_map(span_of)
        .sum();
    let (scenario, total) = (leg.scenario, migration.total);
    println!("{scenario}\t{}\ttotal={total:.1?}", kind.name());
    // `commits` is the load, there being no client fleet.
    let record = ScenarioReport {
        commits: keys,
        ..rig.finish(leg.scenario, &RunMetrics::new(), &migration)
    };
    (record, copy_plus_catchup)
}

fn main() {
    let mut seq_copy = Duration::ZERO;
    Args::from_process(&[]).run(bench(), |leg, _| {
        let (record, copy) = run_leg(leg);
        match leg.scenario {
            "smoke-seq" => seq_copy = copy,
            // Squall pulls after the ownership flip instead of streaming a
            // snapshot copy, so the copy+catchup criterion only applies to
            // the push engines. Their chunked copy's speedup is
            // sleep-dominated and therefore deterministic: asserted, not
            // just reported.
            "smoke-par" if leg.engine != EngineKind::Squall => {
                let ratio = seq_copy.as_secs_f64() / copy.as_secs_f64().max(1e-9);
                let name = leg.engine.name();
                println!("{name}\tcopy+catchup seq={seq_copy:.1?} par={copy:.1?} {ratio:.1}x");
                assert!(
                    ratio >= 2.0,
                    "{name}: parallel copy+catchup {ratio:.2}x < 2x"
                );
            }
            _ => {}
        }
        LegOutcome {
            scenarios: vec![record],
            ..LegOutcome::default()
        }
    });
}
