#!/usr/bin/env bash
# The quick micro-bench gates: the one list that both scripts/check.sh and
# the CI "Bench gates" step run. Each bench exits nonzero when its gate
# trips, and this script then fails too:
#
#   micro_merge_pipeline     the piece-sweep publish path must stay
#                            domain-independent, >= 10x faster than the
#                            per-cell reference at domain 1e6, and agree
#                            with it on mass and shape;
#   micro_engine_throughput  async publish must cut boundary-op p99 ingest
#                            latency >= 5x, telemetry may cost at most 5%
#                            of ingest throughput, the compiled query path
#                            must stay >= 5x the bench's replica of the
#                            piece-walk read path (a shared_ptr acquire
#                            plus the walk), and the epoch-pinned reader
#                            fast path must hold (cached-handle batches
#                            >= 0.85x the raw arena and >= 3x the
#                            string-keyed path, lease misses matching the
#                            publications observed);
#   micro_dist_frames        loopback frame ingest >= 10k frames/sec, and
#                            duplicate frames cause exactly zero merges;
#   micro_st_feedback        feedback-trained accuracy >= 2x the untrained
#                            equi-width baseline, and the 4-shard merged
#                            model within 10% of the unmerged one.
#
# Usage: scripts/bench_gates.sh [--json] [build_dir]   (default: build)
#
# --json also captures the benches' machine-readable series (one JSON
# object per line) into $CAPTURE at the repo root, led by a `_meta` line
# recording the capture environment. Under GitHub Actions the capture
# path is also written to the step's outputs as `capture`, so the
# artifact upload names the file from here. The other committed
# BENCH_*.json files are earlier captures of the same series.

set -euo pipefail

cd "$(dirname "$0")/.."

CAPTURE=BENCH_GATES.json

JSON=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --json) JSON=1 ;;
    --*) echo "bench_gates.sh: unknown flag '$arg'" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

run_bench() {
  # Runs one gate bench, teeing its stdout; with --json only the JSON
  # series lines are appended to the capture. pipefail keeps a tripped
  # gate fatal through the pipe.
  if [[ "$JSON" == 1 ]]; then
    "$@" --json | tee /dev/stderr | grep '^{' >> "$CAPTURE"
  else
    "$@"
  fi
}

if [[ "$JSON" == 1 ]]; then
  printf '{"bench":"_meta","series":"environment","cores":%s,"note":"%s"}\n' \
    "$(nproc 2>/dev/null || echo 1)" \
    "quick gate capture; multi-thread series can scale only up to the cores recorded here" \
    > "$CAPTURE"
fi

echo "== merge-pipeline micro-bench (quick) =="
run_bench "$BUILD_DIR/micro_merge_pipeline" --quick

echo "== engine micro-bench (quick) =="
run_bench "$BUILD_DIR/micro_engine_throughput" --quick

echo "== distributed frame micro-bench (quick) =="
run_bench "$BUILD_DIR/micro_dist_frames" --quick

echo "== self-tuning feedback micro-bench (quick) =="
run_bench "$BUILD_DIR/micro_st_feedback" --quick

if [[ "$JSON" == 1 ]]; then
  echo "== bench series written to $CAPTURE =="
  if [[ -n "${GITHUB_OUTPUT:-}" ]]; then
    echo "capture=$CAPTURE" >> "$GITHUB_OUTPUT"
  fi
fi
