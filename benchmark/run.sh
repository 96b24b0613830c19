#!/usr/bin/env bash
# The one command of the repo benchmark: builds it from source (offline, path
# dependencies only) and runs it. Arguments go to the program unchanged:
#
#   benchmark/run.sh --workload ycsb_steady --seed 1 --seconds 10 --trace 0 [--json out.json]
#   benchmark/run.sh compare baseline.json candidate.json
#   benchmark/run.sh spread runs.json
#
# Run it from the repository root (compare and spread read ./BENCHMARK.json).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo reads benchmark/.cargo/config.toml only when started inside
# benchmark/; name the shared target directory here too.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
