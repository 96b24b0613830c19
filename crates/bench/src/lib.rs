#![warn(missing_docs)]

//! Benchmark harnesses that regenerate every table and figure of the
//! paper's evaluation (§4).
//!
//! One binary per artifact (see `src/bin/`): `fig6` … `fig10`, `table2`,
//! `table3` for the paper's own; four `ablation_*` bins beyond it; and the
//! gated `bench_*` trajectory (smoke, foreground, planner, replica, ssi,
//! scale) with `bench_check` to compare two of their reports. Each prints
//! the same rows/series the paper reports — per-second throughput with
//! migration events overlaid for the figures, abort ratios and latency
//! deltas for the tables. Absolute numbers come from a laptop-scale
//! simulation (see DESIGN.md §1); the *shape* — which engine wins, where
//! throughput collapses, who aborts — is the reproduction target.
//!
//! Every bin takes the same arguments, parsed once by [`Args`]: a
//! positional engine name (run only that engine's legs), `--scale
//! quick|default|full|paper` (default: the `REMUS_SCALE` environment
//! variable, then `default`; `paper` is the ≥10 M-tuple preset of
//! `bench_scale`), `--scenario <name>` where a bin has more than one, and
//! `--json <path>` for where the machine-readable
//! [`report::BenchReport`] document (phase span trees, cluster counters,
//! captured tables) goes — the document `bench_check` compares in CI.
//! What is not understood is an error, never ignored.
//!
//! What a report is held to is written once, in [`gate`]: a table of
//! expectations as data (`gate::GATES`), one evaluator, and the pairwise
//! comparison `bench_check` is. What the bins are built from lives in
//! [`harness`]: the one [`Rig`] (cluster build, maintenance lifetime,
//! table seeding, marked migration window, result record, the hot-shard
//! writer and the reader pool), the bench description [`Bench`] with its
//! one driver [`Args::run`], and the figure runners.

pub mod gate;
pub mod harness;
pub mod print;
pub mod report;
pub mod scale;

pub use harness::{
    figure_main, fixed_rate_clients, run_figure, run_high_contention, sim_config, ycsb_config,
    Args, Bench, EngineKind, Figure, Leg, LegOutcome, Maintenance, Oracle, ReaderPool, Rig, Side,
    CLIENT_SEED,
};
pub use print::{print_events, print_scenario, print_series, print_table_head};
pub use report::{BenchReport, ScenarioReport, TableSection};
pub use scale::{Scale, NODES};
