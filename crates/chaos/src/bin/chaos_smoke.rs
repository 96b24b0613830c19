//! CI chaos smoke: a handful of fixed Remus seeds, each run twice to
//! assert the seed → (fault schedule, verdict) mapping is deterministic.
//! Exits nonzero on any SI violation or determinism break.

use remus_chaos::{run, Scenario};

fn main() {
    let seeds = [1u64, 2, 3];
    let mut failed = false;
    for seed in seeds {
        let scenario = Scenario::remus_smoke(seed);
        let first = run(&scenario);
        let second = run(&scenario);
        if first.plans != second.plans {
            println!("seed {seed}: FAIL (fault plan not deterministic)");
            failed = true;
            continue;
        }
        if first.passed() != second.passed() {
            println!("seed {seed}: FAIL (verdict not deterministic)");
            failed = true;
            continue;
        }
        if first.passed() {
            // Stdout carries only seed-deterministic facts (CI diffs two
            // runs); commit/abort counts depend on thread interleaving and
            // go to stderr.
            println!("seed {seed}: ok ({} faults)", first.plans[0].specs.len());
            eprintln!(
                "seed {seed}: {} committed, {} aborted",
                first.committed, first.aborted
            );
        } else {
            println!("seed {seed}: FAIL ({})", first.violations.summary());
            for v in &first.violations {
                println!("  [{}] {v}", v.oracle());
            }
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
