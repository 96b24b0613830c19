//! Figure 7: YCSB throughput under hybrid workload B (a long analytical
//! transaction) during cluster consolidation.
//!
//! Expected shape (paper §4.4.2): Remus and lock-and-abort keep YCSB flat;
//! wait-and-remaster drops to zero until the analytical transaction
//! completes; Squall's YCSB throughput is zero while the analytical
//! transaction holds every shard lock.
//!
//! Usage: `cargo run --release -p remus-bench --bin fig7 [engine] [--json <path>]`.

use remus_bench::{figure_main, EngineKind, Figure};

fn main() {
    figure_main(
        "fig7",
        "Figure 7 — YCSB throughput, hybrid workload B, consolidation",
        Figure::HybridB,
        &EngineKind::all(),
    );
}
