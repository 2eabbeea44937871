#!/usr/bin/env bash
# Builds the repository's release binaries (run_all, stellar_serve and the
# e* experiments) and the benchmark crate, then runs the benchmark.
#
#   benchmark/run.sh
#       all six workloads, each in its own process, untraced then traced;
#       prints every metric table and writes benchmark/out/result.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#       (this is the command BENCHMARK.json names)
#   benchmark/run.sh selfcheck | compare A.json... --vs B.json... | manifest
#
# Build output goes to standard error, so standard output is the benchmark's
# alone. Both builds land in $CARGO_TARGET_DIR when it is set.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build_started=$(date +%s%N)
cargo build --release --offline --quiet -p stellar-bench --bins 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
build_ms=$(( ($(date +%s%N) - build_started) / 1000000 ))
printf 'build_s %d.%03d\n' $((build_ms / 1000)) $((build_ms % 1000)) 1>&2

if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    bin="$CARGO_TARGET_DIR/release/stellar-benchmark"
else
    bin="benchmark/target/release/stellar-benchmark"
fi
if [ $# -eq 0 ]; then
    set -- all
fi
# Not exec: the benchmark reads the resource usage of its own children, and
# this shell's children (the builds) must not be among them.
"$bin" "$@"
