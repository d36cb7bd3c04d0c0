#!/usr/bin/env bash
# Makes a result set for -agree: one untraced run per workload and seed,
# appended to OUT as one JSON object per line.
#   benchmark/set.sh OUT [RUNS=10] [FIRST_SEED=1] [SECONDS=run_seconds]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$(realpath -m "$1")"
runs="${2:-10}"
first="${3:-1}"
seconds="${4:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")}"
for workload in prove-merkle prove-grind serve-cold serve-hot; do
  for ((seed = first; seed < first + runs; seed++)); do
    "$here/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --append "$out" >/dev/null
  done
done
