#!/usr/bin/env bash
# Configure and build cohersim_bench in build-bench/, then run it.
#
#   benchmark/run.sh [--seed N] [--trace] [--smoke]   all three workloads,
#                                                      results in
#                                                      build-bench/results/
#   benchmark/run.sh --workload W [ARGS...]           one workload; ARGS
#                                                      go to cohersim_bench
#
# Build output goes to stderr, so the last line of standard output is
# the benchmark's JSON result line.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-bench"

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" >&2

bin="$build/cohersim_bench"
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

mkdir -p "$build/results"
status=0
for w in sweep fleet mixed; do
    "$bin" --workload "$w" --json "$build/results/$w.json" "$@" || status=1
done
exit "$status"
