//! Compares two bench JSON reports of the same bin for CI.
//!
//! Everything that is checked lives in [`remus_bench::gate::compare`]: the
//! two reports must have the same shape (title, scenarios, tables, headers,
//! row labels) and the same root phase sequences, no migration may have
//! regressed by an order of magnitude between the baseline (first file)
//! and the candidate (second file), and each file on its own is held to
//! the gate table ([`remus_bench::gate::GATES`]) — the same `evaluate` the
//! producing bin ran on it when it was written.
//!
//! Usage: `bench_check <baseline.json> <candidate.json>`. Exits non-zero
//! with one line per violation.

use std::process::exit;

use remus_bench::gate::{compare, print_findings, MAX_SLOWDOWN};
use remus_bench::BenchReport;

fn load(path: &str) -> BenchReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    BenchReport::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, candidate_path] = &args[..] else {
        eprintln!("usage: bench_check <baseline.json> <candidate.json>");
        exit(2);
    };
    let candidate = load(candidate_path);
    if print_findings("bench_check ", &compare(&load(baseline_path), &candidate)) {
        exit(1);
    }
    println!(
        "bench_check OK: {} scenarios and {} tables of the same shape, phase sequences \
         identical, no >{MAX_SLOWDOWN}x wall-clock regression",
        candidate.scenarios.len(),
        candidate.tables.len()
    );
}
