#!/usr/bin/env bash
# CI entry point: tier-1 tests (plain + ASan/UBSan via scripts/check.sh) and
# the smoke gates (durability, trace determinism, partition failover,
# overload control, autoscale, chaos, memoization, event core), each of which
# fails on nondeterminism between two same-seed runs and none of which may
# write under results/, plus two byte-for-byte gates over the benches listed
# in scripts/benches.sh: the full run of every record bench must reproduce
# its committed results/ files (no file missing or extra), and fig1/fig2
# (the cpu-quantum-heavy figures) their committed stdout in results/.
# Every bench step runs in a scratch working directory with its own
# results/, so the files the benches write never touch the committed ones.
#
# Usage: scripts/ci.sh            # full gate
#        scripts/ci.sh --soak N   # chaos soak only: N seeded schedules
#                                 # through the chaos engine (default 50)

set -euo pipefail

cd "$(dirname "$0")/.."
source scripts/benches.sh

jobs="$(nproc 2>/dev/null || echo 4)"

work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT
mkdir -p "$work_dir/results"
repo_dir="$PWD"
# Runs a bench binary (path relative to the repo root) from $work_dir.
bench() { (cd "$work_dir" && "$repo_dir/$1" "${@:2}"); }

if [[ "${1:-}" == "--soak" ]]; then
  seeds="${2:-50}"
  echo "== chaos soak: $seeds seeded schedules vs the invariant oracles =="
  cmake -B build -S . >/dev/null
  cmake --build build -j"$jobs" --target ab11_chaos
  bench build/bench/ab11_chaos --seeds "$seeds"
  echo "chaos soak: all $seeds schedules passed the oracles"
  exit 0
fi

echo "== tier-1: plain build + ctest -L tier1 =="
cmake -B build -S . >/dev/null
cmake --build build -j"$jobs"
ctest --test-dir build -L tier1 --output-on-failure

echo "== tier-1: ASan/UBSan build + ctest =="
scripts/check.sh --sanitize-only

echo "== durability smoke: two same-seed recovery runs must be bit-identical =="
bench build/bench/ab7_recovery --smoke

echo "== trace smoke: same-seed migration runs must agree on the trace digest =="
bench build/bench/ab1_migration_latency --smoke

echo "== partition smoke: gray-failure failover must be deterministic and exactly-once =="
bench build/bench/ab8_partition --smoke

echo "== overload smoke: collapse without controls, plateau with, deterministically =="
bench build/bench/ab9_overload --smoke

echo "== autoscale smoke: hot shard splits, settle p99 inside SLO, deterministically =="
bench build/bench/ab10_autoscale --smoke

echo "== chaos smoke: fixed schedule corpus survives; the reintroduced reshape bug is caught and shrunk =="
bench build/bench/ab11_chaos --smoke

echo "== memo smoke: hit-rate, cache-first harvest and stale-serve gates, deterministically =="
bench build/bench/ab12_memo --smoke

echo "== scale smoke: event-core digests stable across runs, throughput above floor =="
bench build/bench/scale_sim --smoke

echo "== chaos smoke (sanitized): same gate under ASan/UBSan =="
bench build-asan/bench/ab11_chaos --smoke

echo "== memo smoke (sanitized): same gate under ASan/UBSan =="
bench build-asan/bench/ab12_memo --smoke

echo "== smoke runs write no records =="
if [[ -n "$(ls -A "$work_dir/results")" ]]; then
  echo "a --smoke run wrote under results/:" >&2
  ls -A "$work_dir/results" >&2
  exit 1
fi

echo "== records gate: every full run reproduces its committed results/ files byte for byte =="
for b in "${record_benches[@]}"; do
  bench "build/bench/$b" >/dev/null
done
diff <(cd "$work_dir/results" && ls BENCH_*.json) <(cd results && ls BENCH_*.json)
for f in "$work_dir"/results/*; do
  cmp "$f" "results/${f##*/}"
done

echo "== cpu-slice gate: fig1 and fig2 reproduce their committed output byte for byte =="
for b in "${stdout_benches[@]}"; do
  bench "build/bench/$b" >"$work_dir/$b.txt"
  cmp "$work_dir/$b.txt" "results/$b.txt"
done

echo "CI: all gates passed"
