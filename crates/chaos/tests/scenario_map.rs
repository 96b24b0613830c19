//! Pins what every seed of every chaos matrix maps to: one line per
//! (matrix, constructor, seed, oracle) cell with the engine, the drive, the
//! isolation level, the data-plane parallelism, the GC cadence, the WAL
//! backend and — for a fixed move — the generated fault plan, or — for the
//! planner drive — the decision strings of one run. The committed fixture
//! was generated at the commit *before* the two harnesses were merged, so a
//! port of the runner has to reproduce it byte for byte; only the
//! constructor spelling in [`fixed`] and [`planner`] may differ.

use std::time::Duration;

use remus_chaos::{
    run_planner_scenario, EngineKind, FaultPlan, PlannerScenarioConfig, ScenarioConfig,
};
use remus_clock::OracleKind;
use remus_common::{NodeId, ParallelismConfig, SimConfig};

const ORACLES: [OracleKind; 2] = [OracleKind::Gts, OracleKind::Dts];

/// The fields every row shares, in the fixture's column order.
#[allow(clippy::too_many_arguments)]
fn head(
    matrix: &str,
    ctor: &str,
    seed: u64,
    engine: EngineKind,
    oracle: OracleKind,
    drive: &str,
    isolation: remus_common::IsolationLevel,
    p: ParallelismConfig,
    gc: Option<Duration>,
    wal_file: bool,
) -> String {
    format!(
        "{matrix} {ctor} seed={seed} engine={} oracle={oracle:?} drive={drive} \
         isolation={isolation:?} parallelism={}/{}/{}/{} gc={gc:?} wal={}",
        engine.name(),
        p.copy_workers,
        p.replay_workers,
        p.chunk_size,
        p.drain_batch,
        if wal_file { "file" } else { "memory" },
    )
}

/// One fixed-move row: the scenario's fields plus the plan its seed generates.
fn fixed(matrix: &str, ctor: &str, c: &ScenarioConfig) -> String {
    let plan = FaultPlan::generate(c.seed, c.profile, NodeId(0), NodeId(1));
    let specs: Vec<String> = plan.specs.iter().map(ToString::to_string).collect();
    format!(
        "{} spike={:?} specs=[{}]\n",
        head(
            matrix,
            ctor,
            c.seed,
            c.engine,
            c.oracle,
            &format!("{:?}", c.profile),
            c.isolation,
            c.parallelism,
            c.gc_interval,
            c.wal_dir.is_some(),
        ),
        plan.clock_spike_ms,
        specs.join("; "),
    )
}

/// One planner row: the scenario's fields plus the decisions of one run.
fn planner(matrix: &str, ctor: &str, c: &PlannerScenarioConfig) -> String {
    let sim = SimConfig::instant();
    let outcome = run_planner_scenario(c);
    format!(
        "{} decisions=[{}]\n",
        head(
            matrix,
            ctor,
            c.seed,
            c.engine,
            c.oracle,
            if c.replicas {
                "planner+replicas"
            } else {
                "planner"
            },
            sim.isolation,
            sim.parallelism,
            None,
            false,
        ),
        outcome.decisions.join("; "),
    )
}

fn generate() -> String {
    let mut out = String::new();
    // tests/chaos_scenarios.rs: 24 seeds, then the copy-worker-crash sweep
    // (push engines' tolerated seeds below 16, 4-wide pools).
    for seed in 0..24 {
        out += &fixed(
            "chaos_scenarios",
            "from_seed",
            &ScenarioConfig::from_seed(seed),
        );
    }
    for seed in 0..16 {
        let mut c = ScenarioConfig::from_seed(seed);
        if c.profile != remus_chaos::FaultProfile::Tolerated || c.engine == EngineKind::Squall {
            continue;
        }
        c.parallelism = ParallelismConfig {
            copy_workers: 4,
            replay_workers: 4,
            chunk_size: 8,
            drain_batch: 4,
        };
        out += &fixed("chaos_scenarios", "from_seed+parallel", &c);
    }
    // tests/planner_chaos.rs: 12 seeds.
    for seed in 0..12 {
        out += &planner(
            "planner_chaos",
            "planner",
            &PlannerScenarioConfig::from_seed(seed),
        );
    }
    // chaos_gc.rs: 12 seeds and the smoke scenario, GC every millisecond.
    let gc = Some(Duration::from_millis(1));
    for seed in 0..12 {
        let mut c = ScenarioConfig::from_seed(seed);
        c.gc_interval = gc;
        out += &fixed("chaos_gc", "from_seed+gc", &c);
    }
    let mut c = ScenarioConfig::remus_smoke(3);
    c.gc_interval = gc;
    out += &fixed("chaos_gc", "remus_smoke+gc", &c);
    // chaos_replica.rs: 12 seeds x both oracles.
    for seed in 0..12 {
        for oracle in ORACLES {
            out += &fixed(
                "chaos_replica",
                "replica",
                &ScenarioConfig::replica(seed, oracle),
            );
        }
    }
    // chaos_restart.rs: 12 seeds, then the determinism and hygiene cells.
    let restart = |seed: u64| {
        let oracle = ORACLES[((seed / 3) % 2) as usize];
        (
            seed,
            EngineKind::push_engines()[(seed % 3) as usize],
            oracle,
        )
    };
    let extra = [
        (3, EngineKind::Remus, OracleKind::Gts),
        (1, EngineKind::LockAbort, OracleKind::Dts),
    ];
    for (seed, engine, oracle) in (0..12).map(restart).chain(extra) {
        let c = ScenarioConfig::crash_restart(seed, engine, oracle, "unused");
        out += &fixed("chaos_restart", "crash_restart", &c);
    }
    // chaos_serializable.rs: 12 seeds x both oracles.
    for seed in 0..12 {
        for oracle in ORACLES {
            out += &fixed(
                "chaos_serializable",
                "serializable",
                &ScenarioConfig::serializable(seed, oracle),
            );
        }
    }
    // planner_replica_chaos.rs: 12 seeds x both oracles.
    for seed in 0..12 {
        for oracle in ORACLES {
            out += &planner(
                "planner_replica_chaos",
                "planner_replica",
                &PlannerScenarioConfig::replica_from_seed(seed, oracle),
            );
        }
    }
    // src/bin/chaos_smoke.rs: three seeds.
    for seed in [1, 2, 3] {
        out += &fixed(
            "chaos_smoke",
            "remus_smoke",
            &ScenarioConfig::remus_smoke(seed),
        );
    }
    out
}

#[test]
fn every_matrix_cell_maps_to_the_pinned_scenario() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/scenario_map.txt"
    );
    let want = std::fs::read_to_string(fixture).unwrap_or_default();
    let got = generate();
    if got != want {
        let actual =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("scenario_map.actual.txt");
        std::fs::write(&actual, &got).expect("write the generated map");
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "scenario map differs from {fixture} at line {} ({} lines generated, {} pinned); \
             the generated map is in {}",
            line + 1,
            got.lines().count(),
            want.lines().count(),
            actual.display()
        );
    }
}
