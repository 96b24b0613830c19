//! Figure 8: YCSB throughput during load balancing of a skewed workload.
//!
//! Expected shape (paper §4.5): throughput rises as hot shards spread out
//! for Remus / lock-and-abort / wait-and-remaster (lock-and-abort racks up
//! migration aborts along the way); Squall drops and fluctuates because
//! transactions block behind pulls and shard-lock contention.
//!
//! Usage: `cargo run --release -p remus-bench --bin fig8 [engine] [--json <path>]`.

use remus_bench::{figure_main, EngineKind, Figure};

fn main() {
    figure_main(
        "fig8",
        "Figure 8 — YCSB throughput during load balancing (skewed)",
        Figure::LoadBalance,
        &EngineKind::all(),
    );
}
