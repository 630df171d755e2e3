#!/usr/bin/env bash
# One-command regression check: configure, build, run the full test suite,
# then the quick micro-bench gates (scripts/bench_gates.sh, which lists
# each gate and its threshold; any tripped gate fails the check), and
# finally the multi-process loopback smoke test
# (scripts/loopback_smoke.sh: real server + client over 127.0.0.1 with
# bit-identical and idempotence gates).
#
# Usage: scripts/check.sh [--bench-json] [--metrics-json] [build_dir]
#   (default build dir: build)
#
# --bench-json additionally captures the benches' machine-readable series
# (one JSON object per line) at the repo root — bench_gates.sh --json,
# which names the capture file.
#
# --metrics-json additionally runs scripts/metrics_dump.sh after the
# benches, dropping the engine's metrics exposition and trace artifacts
# (git-ignored; metrics_dump.sh names them) at the repo root. The dump
# runs the Prometheus format self-check and the whole check fails if the
# exposition does.
#
# This is the tier-1 sequence from ROADMAP.md plus the benches, so a single
# run catches build breaks, unit/concurrency regressions, and gross
# merge-pipeline / engine throughput / accuracy regressions.

set -euo pipefail

cd "$(dirname "$0")/.."

# Refuse to run from a dirty in-source build: a stray top-level
# CMakeCache.txt/CMakeFiles (from `cmake .`) poisons every later
# out-of-source configure with cached settings, and in-source object files
# are exactly the artifact mess .gitignore exists to keep out of the repo.
if [[ -e CMakeCache.txt || -d CMakeFiles ]]; then
  echo "check.sh: refusing to run: in-source build artifacts found at the" >&2
  echo "repo root (CMakeCache.txt / CMakeFiles). Remove them and use an" >&2
  echo "out-of-source build dir, e.g.: rm -rf CMakeCache.txt CMakeFiles" >&2
  exit 2
fi

BENCH_JSON=0
METRICS_JSON=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --bench-json) BENCH_JSON=1 ;;
    --metrics-json) METRICS_JSON=1 ;;
    --*) echo "check.sh: unknown flag '$arg'" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
if [[ "$(realpath -m "$BUILD_DIR")" == "$(realpath .)" ]]; then
  echo "check.sh: refusing an in-source build dir ('$BUILD_DIR')" >&2
  exit 2
fi
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

if [[ "$BENCH_JSON" == 1 ]]; then
  scripts/bench_gates.sh --json "$BUILD_DIR"
else
  scripts/bench_gates.sh "$BUILD_DIR"
fi

echo "== loopback smoke (server + client over 127.0.0.1) =="
scripts/loopback_smoke.sh "$BUILD_DIR"

if [[ "$METRICS_JSON" == 1 ]]; then
  echo "== metrics dump (exposition self-check gate) =="
  scripts/metrics_dump.sh "$BUILD_DIR"
fi

echo "== check.sh: all green =="
