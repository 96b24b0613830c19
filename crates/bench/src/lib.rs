#![warn(missing_docs)]

//! Benchmark harnesses that regenerate every table and figure of the
//! paper's evaluation (§4).
//!
//! One binary per artifact (see `src/bin/`): `fig6` … `fig10`, `table2`,
//! `table3`. Each prints the same rows/series the paper reports — per-
//! second throughput with migration events overlaid for the figures,
//! abort ratios and latency deltas for the tables. Absolute numbers come
//! from a laptop-scale simulation (see DESIGN.md §1); the *shape* — which
//! engine wins, where throughput collapses, who aborts — is the
//! reproduction target.
//!
//! Scales are read from the `REMUS_SCALE` environment variable:
//! `quick` (CI smoke), `default`, or `full` (closest to the paper's
//! dimensions; takes correspondingly longer).
//!
//! Every binary also accepts `--json <path>` and then additionally writes
//! the machine-readable [`report::BenchReport`] document (phase span
//! trees, cluster counters, captured tables) that `bench_check` diffs in
//! CI.
//!
//! What a report is held to is written once, in [`gate`]: a table of
//! expectations as data (`gate::GATES`) and one evaluator, called by the
//! `bench_*` bins on the report they just wrote and by `bench_check` on
//! both of its inputs. The pieces the bins share live in [`harness`]: the
//! scenario runners, the one [`ScenarioResult`] collector ([`finish`]),
//! the migration-trace check, and the `main` of `fig6`–`fig9`.

pub mod gate;
pub mod harness;
pub mod print;
pub mod report;
pub mod scale;

pub use harness::{
    checked_trace, figure_main, finish, fixed_rate_clients, run_high_contention, run_hybrid_a,
    run_hybrid_b, run_load_balance, run_scale_out, sim_config, EngineKind, HighContentionResult,
    ScenarioResult, CLIENT_SEED,
};
pub use print::{print_events, print_scenario, print_series, print_table};
pub use report::{json_path_arg, BenchReport, ScenarioReport, TableSection};
pub use scale::Scale;
