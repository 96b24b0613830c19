//! Crash-restart chaos matrix: a node is killed at a seeded stage of the
//! copy/catch-up pipeline and rebuilt from its on-disk WAL segments via
//! `Cluster::restart_node`; a fresh engine then drives the migration to
//! completion over the recovered node. The SI checker must stay green on
//! the stitched pre+post-restart history — snapshot reads,
//! first-committer-wins, monotone shard-map routing across `T_m`, and
//! committed-data preservation in the final scan.

use remus_chaos::{run, EngineKind, Scenario};
use remus_clock::OracleKind;
use remus_common::NodeId;

/// Restart drills only make sense for engines whose migration is a
/// restartable control-plane procedure; Squall's pull protocol holds
/// H-store partition locks client-side and is out of scope for the drill.
const ENGINES: [EngineKind; 3] = [
    EngineKind::Remus,
    EngineKind::LockAbort,
    EngineKind::Remaster,
];

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("remus-chaos-restart-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Seeds 0..12 cycle engine = `seed % 3` and oracle = `(seed / 3) % 2`, so
/// the matrix covers the full engine x oracle cross product twice while
/// the fault plan varies victim (source/dest) and crash stage per seed.
#[test]
fn restart_matrix_keeps_si_green_across_seeds() {
    let mut combos = std::collections::HashSet::new();
    let mut victims = std::collections::HashSet::new();
    let mut stages = std::collections::HashSet::new();
    for seed in 0..12u64 {
        let engine = ENGINES[(seed % 3) as usize];
        let oracle = if (seed / 3) % 2 == 0 {
            OracleKind::Gts
        } else {
            OracleKind::Dts
        };
        let dir = tempdir(&format!("matrix-{seed}"));
        let scenario = Scenario::crash_restart(seed, engine, oracle, &dir);
        let outcome = run(&scenario);
        std::fs::remove_dir_all(&dir).expect("tmpdir hygiene");
        outcome.expect_green(&scenario);
        assert!(
            outcome.migration_committed(),
            "seed {seed}: migration did not commit after restart"
        );
        assert!(outcome.committed > 0, "seed {seed} committed nothing");
        let (victim, summary) = outcome.restart.expect("restart ran");
        assert!(
            summary.committed > 0,
            "seed {seed}: replay rebuilt no committed transactions: {summary:?}"
        );
        let (_, stage) = outcome.plans[0].crash_restart_spec().expect("restart spec");
        combos.insert((engine.name(), oracle == OracleKind::Gts));
        victims.insert(victim);
        stages.insert(stage);
    }
    // The matrix must actually span the cross product and both victims.
    assert_eq!(combos.len(), 6, "engine x oracle cross product not covered");
    assert_eq!(
        victims,
        [NodeId(0), NodeId(1)].into_iter().collect(),
        "both migration endpoints must get killed across the matrix"
    );
    assert!(
        stages.len() >= 2,
        "crash stages not varied across the matrix: {stages:?}"
    );
}

/// The verdict (and the fault plan) of a restart scenario is a pure
/// function of the seed even though thread interleavings are not.
#[test]
fn restart_scenario_is_deterministic_in_verdict() {
    let dir_a = tempdir("det-a");
    let scenario_a = Scenario::crash_restart(3, EngineKind::Remus, OracleKind::Gts, &dir_a);
    let a = run(&scenario_a);
    std::fs::remove_dir_all(&dir_a).expect("tmpdir hygiene");
    let dir_b = tempdir("det-b");
    let b = run(&Scenario::crash_restart(
        3,
        EngineKind::Remus,
        OracleKind::Gts,
        &dir_b,
    ));
    std::fs::remove_dir_all(&dir_b).expect("tmpdir hygiene");
    assert_eq!(a.plans, b.plans);
    assert_eq!(a.passed(), b.passed());
    a.expect_green(&scenario_a);
}

/// A restarted node leaves no WAL segments behind once its tempdir is
/// removed — the hygiene contract the CI tmpdir check enforces.
#[test]
fn restart_scenario_cleans_up_wal_segments() {
    let dir = tempdir("hygiene");
    let scenario = Scenario::crash_restart(1, EngineKind::LockAbort, OracleKind::Dts, &dir);
    let outcome = run(&scenario);
    // The scenario wrote real segments for every node...
    let node_dirs = std::fs::read_dir(&dir).expect("wal dir exists").count();
    assert_eq!(node_dirs, 3, "one node-<id> subdirectory per node");
    // ...and removing the root reclaims everything.
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert!(!dir.exists());
    outcome.expect_green(&scenario);
}

/// The planner drive on the file-backed WAL: every planner-chosen migration
/// propagates from, and commits onto, durable segments with group commit on
/// (no node is restarted — that drill needs the fixed move's script).
#[test]
fn planner_drive_runs_on_the_file_backed_wal() {
    let dir = tempdir("planner");
    let mut scenario = Scenario::planner(2);
    scenario.wal_dir = Some(dir.clone());
    let outcome = run(&scenario);
    let node_dirs = std::fs::read_dir(&dir).expect("wal dir exists").count();
    std::fs::remove_dir_all(&dir).expect("tmpdir hygiene");
    outcome.expect_green(&scenario);
    assert_eq!(node_dirs, 3, "one node-<id> subdirectory per node");
    assert!(outcome.migration_committed(), "{:?}", outcome.migrations);
    assert_eq!(outcome.decisions, run(&Scenario::planner(2)).decisions);
}
