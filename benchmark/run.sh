#!/usr/bin/env bash
# Build the benchmark (Release, under benchmark/out/build) and run it.
#
#   benchmark/run.sh --seed 1                  all four workloads, untraced
#   benchmark/run.sh --trace                   all four, per-layer metrics
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke                   ~2 s per workload, both
#                                              modes, metric names checked
#
# Build output goes to stderr; the last stdout line is the JSON summary.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build=benchmark/out/build
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
    cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release "${generator[@]}"
  fi
  cmake --build "$build" --target fqbench -j "$(nproc)"
} >&2

if [[ "${1:-}" == "--smoke" ]]; then
  out=benchmark/out/smoke
  rm -rf "$out/results"
  "$build/fqbench" --seconds 2 --trace 0 --out "$out"
  "$build/fqbench" --seconds 2 --trace 1 --out "$out"
  exec python3 benchmark/smoke_check.py BENCHMARK.json "$out"/results/*.json
fi

exec "$build/fqbench" "$@"
