#!/usr/bin/env bash
# Builds everything, runs the test suite, then regenerates every bench output
# committed under results/ — exactly the files scripts/ci.sh compares: the
# records the full runs of scripts/benches.sh's record_benches write, and the
# stdout of its stdout_benches.
#
# Usage: scripts/run_all.sh

set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/benches.sh

jobs="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S .
cmake --build build -j"$jobs"
ctest --test-dir build --output-on-failure

for b in "${record_benches[@]}"; do
  echo "== $b =="
  "./build/bench/$b"
done
for b in "${stdout_benches[@]}"; do
  echo "== $b =="
  "./build/bench/$b" | tee "results/$b.txt"
done

echo "all outputs in results/"
