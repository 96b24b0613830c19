//! Seeded chaos scenarios over all four migration engines.
//!
//! Each seed deterministically derives the engine, the timestamp oracle,
//! the fault profile (tolerated faults vs. a `T_m` coordinator crash), the
//! network perturbation, and the client workload. The recorded history must
//! satisfy snapshot isolation, monotone routing, and committed-data
//! preservation for every seed. Split by engine residue so the four suites
//! run in parallel.

use remus::chaos::{run, Drive, EngineKind, FaultProfile, Scenario};

const SEEDS_PER_ENGINE: u64 = 6;

fn run_residue(residue: u64, engine: EngineKind) {
    for i in 0..SEEDS_PER_ENGINE {
        let seed = i * 4 + residue;
        let scenario = Scenario::from_seed(seed);
        assert_eq!(scenario.engine, engine);
        let outcome = run(&scenario);
        outcome.expect_green(&scenario);
        assert!(
            outcome.committed > 0,
            "seed {seed}: no transaction committed"
        );
    }
}

#[test]
fn chaos_seeds_remus() {
    run_residue(0, EngineKind::Remus);
}

#[test]
fn chaos_seeds_lock_and_abort() {
    run_residue(1, EngineKind::LockAbort);
}

#[test]
fn chaos_seeds_wait_and_remaster() {
    run_residue(2, EngineKind::Remaster);
}

#[test]
fn chaos_seeds_squall() {
    run_residue(3, EngineKind::Squall);
}

/// Parallel data plane under copy-worker crashes: for every tolerated-fault
/// seed of the push engines (Squall pulls, it has no chunked snapshot
/// copy), run with a 4-wide copy/replay pool and a chunk size small enough
/// to give every shard several chunks, and crash a copy worker mid-chunk
/// twice. The chunk retry must absorb the crashes, the migration must
/// commit, and the history must still satisfy SI.
#[test]
fn parallel_copy_worker_crashes_preserve_si() {
    use remus::chaos::{run_with_specs, FaultPlan, FaultSpec};
    use remus::common::fault::{FaultAction, InjectionPoint};
    use remus::common::{NodeId, ParallelismConfig};

    let push = [
        EngineKind::Remus,
        EngineKind::LockAbort,
        EngineKind::Remaster,
    ];
    let mut ran = 0;
    for seed in 0..16u64 {
        let mut scenario = Scenario::from_seed(seed);
        let profile = FaultProfile::Tolerated;
        if scenario.drive != Drive::Fixed(profile) || !push.contains(&scenario.engine) {
            continue;
        }
        scenario.parallelism = ParallelismConfig {
            copy_workers: 4,
            replay_workers: 4,
            chunk_size: 8,
            drain_batch: 4,
        };
        let plan = FaultPlan::generate(seed, profile, NodeId(0), NodeId(1));
        // Replace any seeded copy-chunk kills with exactly two worker
        // crashes, so every seed exercises the mid-chunk retry and the
        // total stays inside the 4-attempt-per-chunk budget.
        let mut specs: Vec<FaultSpec> = plan
            .specs
            .iter()
            .filter(|s| {
                s.point != InjectionPoint::CopyChunk
                    || !matches!(s.action, FaultAction::Fail | FaultAction::Crash)
            })
            .copied()
            .collect();
        for occurrence in [0u32, 3] {
            specs.push(FaultSpec {
                point: InjectionPoint::CopyChunk,
                node: NodeId(0),
                occurrence,
                action: FaultAction::Crash,
            });
        }
        let outcome = run_with_specs(&scenario, &specs);
        outcome.expect_green(&scenario);
        assert!(
            outcome.migration_committed(),
            "seed {seed}: migration did not commit under copy-worker crashes"
        );
        ran += 1;
    }
    assert!(ran >= 8, "only {ran} parallel crash seeds ran");
}

/// The planner drive on a seed-derived data plane (its own constructor pins
/// the cluster default): every planner-chosen migration copies in 8-key
/// chunks over a 4-wide copy pool and a 3-wide replay pool, and the decision
/// list does not notice.
#[test]
fn planner_moves_run_on_a_seeded_data_plane() {
    let mut scenario = Scenario::planner(6);
    scenario.parallelism = Scenario::from_seed(6).parallelism;
    assert_eq!(scenario.parallelism.copy_workers, 4);
    let outcome = run(&scenario);
    outcome.expect_green(&scenario);
    assert!(outcome.migration_committed(), "{:?}", outcome.migrations);
    assert_eq!(outcome.decisions, run(&Scenario::planner(6)).decisions);
}

/// Same seed, run twice: identical fault schedule, identical verdict. One
/// tolerated-profile seed and one `T_m`-crash seed.
#[test]
fn same_seed_reproduces_schedule_and_verdict() {
    for seed in [3u64, 4] {
        let scenario = Scenario::from_seed(seed);
        let first = run(&scenario);
        let second = run(&scenario);
        assert_eq!(first.plans, second.plans, "seed {seed}: schedule diverged");
        assert_eq!(
            first.passed(),
            second.passed(),
            "seed {seed}: verdict diverged"
        );
        assert_eq!(
            first.migration_committed(),
            second.migration_committed(),
            "seed {seed}: migration fate diverged"
        );
    }
    // The pair covers both profiles.
    let profile = |seed| Scenario::from_seed(seed).drive;
    assert_eq!(profile(3), Drive::Fixed(FaultProfile::Tolerated));
    assert_eq!(profile(4), Drive::Fixed(FaultProfile::CrashTm));
}
