//! Pins what every seed of every chaos matrix maps to: one line per
//! (matrix, constructor, seed, oracle) cell with the engine, the drive, the
//! isolation level, the data-plane parallelism, the GC cadence, the WAL
//! backend and — for a fixed move — the generated fault plan, or — for the
//! planner drive — the decision strings of one run. The committed fixture
//! was generated at the commit *before* the two harnesses were merged, so a
//! port of the runner has to reproduce it byte for byte; only the
//! constructor spelling in [`row`] and [`generate`] may differ.

use std::time::Duration;

use remus_chaos::{run, Drive, EngineKind, FaultPlan, FaultProfile, Scenario};
use remus_clock::OracleKind;
use remus_common::{NodeId, ParallelismConfig};

const ORACLES: [OracleKind; 2] = [OracleKind::Gts, OracleKind::Dts];

/// One row: the scenario's fields plus, for a fixed move, the plan its seed
/// generates, or, for the planner drive, the decisions of one run.
fn row(matrix: &str, ctor: &str, c: &Scenario) -> String {
    let (drive, tail) = match c.drive {
        Drive::Fixed(profile) => {
            let plan = FaultPlan::generate(c.seed, profile, NodeId(0), NodeId(1));
            let specs: Vec<String> = plan.specs.iter().map(ToString::to_string).collect();
            let spike = plan.clock_spike_ms;
            let tail = format!("spike={spike:?} specs=[{}]", specs.join("; "));
            (format!("{profile:?}"), tail)
        }
        Drive::Planner { replicas } => {
            let drive = if replicas {
                "planner+replicas"
            } else {
                "planner"
            };
            let tail = format!("decisions=[{}]", run(c).decisions.join("; "));
            (drive.to_string(), tail)
        }
    };
    let p = c.parallelism;
    format!(
        "{matrix} {ctor} seed={} engine={} oracle={:?} drive={drive} isolation={:?} \
         parallelism={}/{}/{}/{} gc={:?} wal={} {tail}\n",
        c.seed,
        c.engine.name(),
        c.oracle,
        c.isolation,
        p.copy_workers,
        p.replay_workers,
        p.chunk_size,
        p.drain_batch,
        c.gc_interval,
        if c.wal_dir.is_some() {
            "file"
        } else {
            "memory"
        },
    )
}

fn generate() -> String {
    let mut out = String::new();
    // tests/chaos_scenarios.rs: 24 seeds, then the copy-worker-crash sweep
    // (push engines' tolerated seeds below 16, 4-wide pools).
    for seed in 0..24 {
        out += &row("chaos_scenarios", "from_seed", &Scenario::from_seed(seed));
    }
    for seed in 0..16 {
        let mut c = Scenario::from_seed(seed);
        if c.drive != Drive::Fixed(FaultProfile::Tolerated) || c.engine == EngineKind::Squall {
            continue;
        }
        c.parallelism = ParallelismConfig {
            copy_workers: 4,
            replay_workers: 4,
            chunk_size: 8,
            drain_batch: 4,
        };
        out += &row("chaos_scenarios", "from_seed+parallel", &c);
    }
    // tests/planner_chaos.rs: 12 seeds.
    for seed in 0..12 {
        out += &row("planner_chaos", "planner", &Scenario::planner(seed));
    }
    // chaos_gc.rs: 12 seeds and the smoke scenario, GC every millisecond.
    let gc = Some(Duration::from_millis(1));
    for seed in 0..12 {
        let mut c = Scenario::from_seed(seed);
        c.gc_interval = gc;
        out += &row("chaos_gc", "from_seed+gc", &c);
    }
    let mut c = Scenario::remus_smoke(3);
    c.gc_interval = gc;
    out += &row("chaos_gc", "remus_smoke+gc", &c);
    // chaos_replica.rs: 12 seeds x both oracles.
    for seed in 0..12 {
        for oracle in ORACLES {
            out += &row("chaos_replica", "replica", &Scenario::replica(seed, oracle));
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
        let c = Scenario::crash_restart(seed, engine, oracle, "unused");
        out += &row("chaos_restart", "crash_restart", &c);
    }
    // chaos_serializable.rs: 12 seeds x both oracles.
    for seed in 0..12 {
        for oracle in ORACLES {
            out += &row(
                "chaos_serializable",
                "serializable",
                &Scenario::serializable(seed, oracle),
            );
        }
    }
    // planner_replica_chaos.rs: 12 seeds x both oracles.
    for seed in 0..12 {
        for oracle in ORACLES {
            out += &row(
                "planner_replica_chaos",
                "planner_replica",
                &Scenario::planner_replica(seed, oracle),
            );
        }
    }
    // src/bin/chaos_smoke.rs: three seeds.
    for seed in [1, 2, 3] {
        out += &row("chaos_smoke", "remus_smoke", &Scenario::remus_smoke(seed));
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
