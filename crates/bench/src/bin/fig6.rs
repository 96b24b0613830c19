//! Figure 6: YCSB throughput under hybrid workload A (batch ingestion)
//! during cluster consolidation, for all four approaches.
//!
//! Expected shape (paper §4.4.1): Remus stays flat with zero aborts;
//! lock-and-abort keeps YCSB flat but aborts nearly every batch;
//! wait-and-remaster shows sharp drops to zero while batches are in
//! flight; Squall collapses during batches (partition locks) and keeps
//! fluctuating afterwards (pull blocking).
//!
//! Usage: `cargo run --release -p remus-bench --bin fig6 [engine] [--scale <preset>] [--json <path>]`
//! (or `REMUS_SCALE=quick|default|full|paper`).

use remus_bench::{figure_main, EngineKind, Figure};

fn main() {
    figure_main(
        "fig6",
        "Figure 6 — YCSB throughput, hybrid workload A, consolidation",
        Figure::HybridA,
        &EngineKind::all(),
    );
}
