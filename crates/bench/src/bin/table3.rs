//! Table 3: average latency increase caused by Remus vs lock-and-abort
//! across the four scenarios, plus the baseline transaction latency.
//!
//! Expected shape (paper §4.7): Remus adds a few milliseconds (the wait
//! for a synchronized transaction's own updates to be replayed);
//! lock-and-abort adds tens of milliseconds (blocked behind the whole
//! ownership-transfer phase, then retried).
//!
//! Usage: `cargo run --release -p remus-bench --bin table3 [--json <path>]`.

use remus_bench::{
    json_path_arg, print_table, run_hybrid_a, run_hybrid_b, run_load_balance, run_scale_out,
    BenchReport, EngineKind, Scale, ScenarioReport, TableSection,
};

fn main() {
    let scale = Scale::from_args_or_env();
    println!("# Table 3 — average latency increase (ms)");
    println!("# scale: {scale:?}");
    type Runner = fn(EngineKind, &Scale) -> remus_bench::ScenarioResult;
    let scenarios: [(&str, Runner); 4] = [
        ("hybrid A", run_hybrid_a),
        ("hybrid B", run_hybrid_b),
        ("load balancing", run_load_balance),
        ("scale-out", run_scale_out),
    ];
    let mut report = BenchReport::new("table3", &format!("{scale:?}"));
    let mut rows = Vec::new();
    for (name, runner) in scenarios {
        let remus = runner(EngineKind::Remus, &scale);
        let lock = runner(EngineKind::LockAbort, &scale);
        rows.push(vec![
            name.to_string(),
            format!("{:.2}", remus.latency_increase.as_secs_f64() * 1e3),
            format!("{:.2}", lock.latency_increase.as_secs_f64() * 1e3),
            format!("{:.2}", remus.base_latency.as_secs_f64() * 1e3),
        ]);
        report
            .scenarios
            .push(ScenarioReport::from_result(name, &remus));
        report
            .scenarios
            .push(ScenarioReport::from_result(name, &lock));
    }
    let table = TableSection::new(
        "average latency increase",
        &[
            "workload",
            "remus_ms",
            "lock_and_abort_ms",
            "txn_latency_ms",
        ],
        rows,
    );
    print_table(&table);
    report.tables.push(table);
    if let Some(path) = json_path_arg() {
        report.write(&path).expect("writing JSON report failed");
    }
}
