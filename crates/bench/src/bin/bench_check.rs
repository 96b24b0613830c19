//! Compares two bench JSON reports for CI.
//!
//! Pairwise checks, deliberately loose enough for noisy shared runners:
//!
//! 1. **Determinism**: both reports must contain the same scenarios (name
//!    and engine) and every migration's root phase sequence must match —
//!    a reordered, missing, or extra phase is a correctness signal, not
//!    noise, and always fails.
//! 2. **Wall clock**: an engine's end-to-end migration time may not
//!    regress by more than 10x between the baseline (first file) and the
//!    candidate (second file). Only order-of-magnitude blowups fail;
//!    ordinary jitter passes.
//!
//! Each file on its own is then held to the gate table
//! ([`remus_bench::gate::GATES`]) — the same `evaluate` every producing
//! bin ran on it when it was written.
//!
//! Usage: `bench_check <baseline.json> <candidate.json>`. Exits non-zero
//! with one line per violation.

use std::process::exit;

use remus_bench::gate::{evaluate, GateTier};
use remus_bench::{BenchReport, ScenarioReport};

/// Maximum tolerated candidate/baseline wall-clock ratio.
const MAX_SLOWDOWN: f64 = 10.0;

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    BenchReport::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn scenario_key(s: &ScenarioReport) -> String {
    format!("{} / {}", s.name, s.engine)
}

fn phase_sequences(s: &ScenarioReport) -> Vec<Vec<String>> {
    s.migration
        .traces
        .iter()
        .map(|t| t.root_phases().iter().map(|p| p.to_string()).collect())
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, candidate_path] = &args[..] else {
        eprintln!("usage: bench_check <baseline.json> <candidate.json>");
        exit(2);
    };
    let baseline = load(baseline_path);
    let candidate = load(candidate_path);

    let mut violations: Vec<String> = Vec::new();
    let base_keys: Vec<String> = baseline.scenarios.iter().map(scenario_key).collect();
    let cand_keys: Vec<String> = candidate.scenarios.iter().map(scenario_key).collect();
    if base_keys != cand_keys {
        violations.push(format!(
            "scenario sets differ: baseline {base_keys:?}, candidate {cand_keys:?}"
        ));
    }

    for (b, c) in baseline.scenarios.iter().zip(&candidate.scenarios) {
        let key = scenario_key(b);
        let (bp, cp) = (phase_sequences(b), phase_sequences(c));
        if bp != cp {
            violations.push(format!(
                "{key}: phase sequences differ: baseline {bp:?}, candidate {cp:?}"
            ));
        }
        let base_us = b.migration.total_us.max(1) as f64;
        let cand_us = c.migration.total_us.max(1) as f64;
        let ratio = cand_us / base_us;
        if ratio > MAX_SLOWDOWN {
            violations.push(format!(
                "{key}: migration wall clock regressed {ratio:.1}x \
                 ({base_us:.0}us -> {cand_us:.0}us, limit {MAX_SLOWDOWN}x)"
            ));
        }
    }

    for (which, report) in [("baseline", &baseline), ("candidate", &candidate)] {
        for finding in evaluate(report) {
            if finding.tier == GateTier::Fail {
                violations.push(format!("{which}: {}", finding.message));
            } else {
                eprintln!("bench_check WARN: {which}: {}", finding.message);
            }
        }
    }

    if violations.is_empty() {
        println!(
            "bench_check OK: {} scenarios, phase sequences identical, \
             no >{MAX_SLOWDOWN}x wall-clock regression",
            candidate.scenarios.len()
        );
    } else {
        for v in &violations {
            eprintln!("bench_check FAIL: {v}");
        }
        exit(1);
    }
}
