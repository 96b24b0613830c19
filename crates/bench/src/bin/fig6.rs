//! Figure 6: YCSB throughput under hybrid workload A (batch ingestion)
//! during cluster consolidation, for all four approaches.
//!
//! Expected shape (paper §4.4.1): Remus stays flat with zero aborts;
//! lock-and-abort keeps YCSB flat but aborts nearly every batch;
//! wait-and-remaster shows sharp drops to zero while batches are in
//! flight; Squall collapses during batches (partition locks) and keeps
//! fluctuating afterwards (pull blocking).
//!
//! Usage: `cargo run --release -p remus-bench --bin fig6 [engine] [--json <path>]`
//! with `REMUS_SCALE=quick|default|full`.

use remus_bench::{figure_main, run_hybrid_a, EngineKind};

fn main() {
    figure_main(
        "fig6",
        "Figure 6 — YCSB throughput, hybrid workload A, consolidation",
        "hybrid A",
        &EngineKind::all(),
        run_hybrid_a,
    );
}
