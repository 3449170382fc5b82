#!/usr/bin/env bash
# Builds the benchmark twice from source through the workspace, as the
# `benchmark` binary of `ulc-bench` (feature-off, and with the `obs`
# recording path for the traced run), and runs the feature-off build,
# which runs each workload in child processes. Run from the repository
# root; all arguments pass through (see README.md).
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload fig6-tpcc1 --seed 0 --trace 0
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}/benchmark-build"
build() {
  # Separate target directories: the two feature sets would otherwise
  # overwrite each other's binary.
  cargo build --release --quiet --offline -p ulc-bench --bin benchmark \
    --target-dir "$target/$1" "${@:2}"
}
build plain
build obs --features obs
exec "$target/plain/release/benchmark" --obs-exe "$target/obs/release/benchmark" "$@"
