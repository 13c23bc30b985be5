#!/usr/bin/env bash
# The benchmark's one command. Builds the real `ppa` binary and the
# harness in release into one target directory, then runs the harness.
#
#   pipeline_bench/run.sh                      every workload, end to end + traced
#   pipeline_bench/run.sh --smoke              tiny sizes, one timed run
#   pipeline_bench/run.sh --aa                 the whole set twice, compared
#   pipeline_bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one measurement (BENCHMARK.json contract)
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# cargo resolves a relative target dir against its own cwd; pin it.
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
cargo build --release --offline --quiet -p ppa-cli --bin ppa
cargo build --release --offline --quiet --manifest-path pipeline_bench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ppa-pipeline-bench" "$@"
