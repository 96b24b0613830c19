//! Figure 9: TPC-C throughput during scale-out.
//!
//! Expected shape (paper §4.6): throughput rises to a higher plateau for
//! every push approach once the new node carries its share; Remus shows
//! much smaller fluctuations through the 8-shards-per-warehouse
//! migrations than lock-and-abort (long ownership-transfer phases) and
//! wait-and-remaster (waits for in-flight TPC-C transactions). Squall is
//! not evaluated (no multi-key range partitioning, §4.6).
//!
//! Usage: `cargo run --release -p remus-bench --bin fig9 [engine] [--json <path>]`.

use remus_bench::{figure_main, EngineKind, Figure};

fn main() {
    figure_main(
        "fig9",
        "Figure 9 — TPC-C throughput during scale-out",
        Figure::ScaleOut,
        &EngineKind::push_engines(),
    );
}
