#!/usr/bin/env bash
# A/B comparison of two revisions on the repo benchmark (perfbench/,
# described by BENCHMARK.json).
#
# Usage: scripts/bench_compare.sh REV_A REV_B [--pairs N] [--seconds S]
#                                 [--seed K] [--trace] [workload...]
#
# REV_A is the baseline (usually the parent commit) and REV_B the change.
# A revision is anything `git rev-parse` accepts; `.` is the working tree
# as it stands (tracked and untracked, non-ignored files). Each side is
# exported into its own temporary directory (git archive; the working
# tree by copy), and its perfbench is built there with
# `cmake -S <dir>/perfbench` (Release). .git is only read, and neither
# BENCHMARK.json nor perfbench/ is written.
#
# Defaults: 10 pairs, BENCHMARK.json's run_seconds, seed 1, and every
# workload BENCHMARK.json lists. Each pair runs both binaries once on the
# same seed, alternating which side goes first.
#
# For every workload and every end-to-end metric of BENCHMARK.json it
# prints both medians, the relative delta of B against A, A's
# interquartile range (relative to A's median), B's pair wins (ties count
# for neither side) and a verdict:
#   worse       B's median is worse than A's by more than the metric's
#               bound;
#   better      B wins at least 9 in 10 pairs and the medians differ by
#               more than A's interquartile range and by at least 1% of
#               A's median (the effect-size floor: a paced metric, such
#               as read_mostly's ingest_ups under its rate limiter, has
#               an IQR of 0, so without the floor a 0.05% jitter that B
#               happens to win 9 times in 10 would read as a gain);
#   unresolved  A's interquartile range is wider than the bound, unless
#               every B run beats every A run;
#   unchanged   otherwise.
# It also prints each side's failed/attempted operation totals and every
# run whose correctness checks failed. Exit status: 0 when every run
# passed its checks and no metric is worse, 1 otherwise, 2 on bad usage
# or a failed export or build.
#
# --trace runs the pairs with `--trace 1` instead. Traced runs emit the
# per-layer metrics and no end-to-end ones, so the end-to-end table is
# skipped; for every per_layer metric of BENCHMARK.json that every run of
# both sides emits it prints both medians, the delta, A's IQR and B's
# pair wins, with no verdict. The per-layer table is report-only: it
# never changes the exit status (incorrect runs still do).
#
# Set TMPDIR to choose where the two exports and builds go; they are
# removed on exit.

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

usage() {
  sed -n '5,6p' "$0" | sed 's/^# //' >&2
  exit 2
}

[ $# -ge 2 ] || usage
REV_A="$1"
REV_B="$2"
shift 2
PAIRS=10
SECONDS_ARG=""
SEED=1
TRACE=0
WORKLOADS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) PAIRS="${2:?}"; shift 2 ;;
    --seconds) SECONDS_ARG="${2:?}"; shift 2 ;;
    --seed) SEED="${2:?}"; shift 2 ;;
    --trace) TRACE=1; shift ;;
    --*) usage ;;
    *) WORKLOADS+=("$1"); shift ;;
  esac
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench_compare.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# Exports revision $1 into directory $2.
export_rev() {
  mkdir -p "$2"
  if [ "$1" = "." ]; then
    git -C "$ROOT" ls-files -z --cached --others --exclude-standard |
      (cd "$ROOT" &&
       while IFS= read -r -d '' f; do
         if [ -e "$f" ]; then printf '%s\0' "$f"; fi
       done) |
      (cd "$ROOT" && tar --null -T - -cf -) | tar -xf - -C "$2"
  else
    local sha
    sha="$(git -C "$ROOT" rev-parse --verify --quiet "$1^{commit}")" || {
      echo "bench_compare: unknown revision '$1'" >&2
      exit 2
    }
    git -C "$ROOT" archive "$sha" | tar -xf - -C "$2"
  fi
}

# Builds side $1's perfbench; prints the binary's path.
build_side() {
  local src="$WORK/$1/src" out="$WORK/$1/build"
  cmake -S "$src/perfbench" -B "$out" -DCMAKE_BUILD_TYPE=Release \
    > "$WORK/$1/build.log" 2>&1 &&
    cmake --build "$out" --target perfbench -j "$(nproc)" \
      >> "$WORK/$1/build.log" 2>&1 || {
    tail -n 30 "$WORK/$1/build.log" >&2
    echo "bench_compare: building side $1 failed" >&2
    exit 2
  }
  echo "$out/perfbench"
}

for side in A B; do
  rev="REV_$side"
  echo "bench_compare: exporting and building $side = ${!rev}" >&2
  export_rev "${!rev}" "$WORK/$side/src"
done
BIN_A="$(build_side A)"
BIN_B="$(build_side B)"

python3 - "$ROOT/BENCHMARK.json" "$BIN_A" "$BIN_B" "$REV_A" "$REV_B" \
  "$PAIRS" "$SECONDS_ARG" "$SEED" "$TRACE" "$WORK" "${WORKLOADS[@]}" <<'PY'
import json
import math
import statistics
import subprocess
import sys

(bench_json, bin_a, bin_b, rev_a, rev_b, pairs, seconds, seed, trace,
 work) = sys.argv[1:11]
with open(bench_json) as f:
    bench = json.load(f)
workloads = sys.argv[11:] or [w["name"] for w in bench["workloads"]]
pairs = int(pairs)
seconds = float(seconds) if seconds else float(bench["run_seconds"])
traced = trace == "1"
metrics = bench["per_layer" if traced else "end_to_end"]
RUN_TIMEOUT_S = 170  # as perfbench/run.py
MIN_EFFECT = 0.01  # smallest relative median gain that can read "better"


def run(binary, side, workload, index):
    cmd = [binary, "--workload", workload, "--seed", seed,
           "--seconds", str(seconds), "--trace", trace,
           "--out-dir", "%s/out-%s" % (work, side)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = done.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as e:
        sys.exit("bench_compare: %s run %d of %s produced no result (%s)"
                 % (side, index, workload, e))
    if not result["correct"]:
        fails = [l for l in lines if l.startswith("check ") and "FAIL" in l]
        print("INCORRECT %s run %d of %s:\n  %s"
              % (side, index, workload, "\n  ".join(fails)))
    return result


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


status = 0
for workload in workloads:
    runs = {"A": [], "B": []}
    for i in range(pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            runs[side].append(run(bin_a if side == "A" else bin_b, side,
                                  workload, i))
        print("  %s pair %d/%d done" % (workload, i + 1, pairs),
              file=sys.stderr)
    print("\n%s: A=%s B=%s, %d pairs, seed %s, %g s%s"
          % (workload, rev_a, rev_b, pairs, seed, seconds,
             ", traced (per-layer, report-only)" if traced else ""))
    width = max(len(m["name"]) for m in metrics)
    print("%-*s %-10s %12s %12s %8s %8s %7s  %s"
          % (width, "metric", "unit", "median A", "median B", "delta",
             "IQR A", "B wins", "" if traced else "verdict"))
    for m in metrics:
        name = m["name"]
        if not all(name in r["metrics"] for r in runs["A"] + runs["B"]):
            continue
        a = [r["metrics"][name]["value"] for r in runs["A"]]
        b = [r["metrics"][name]["value"] for r in runs["B"]]
        sign = 1.0 if m["better"] == "higher" else -1.0
        med_a, med_b = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        scale = abs(med_a) if med_a != 0 else 1.0
        delta = (med_b - med_a) / scale  # relative, signed as measured
        iqr = (q3 - q1) / scale
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        all_beat = all(sign * (y - x) > 0 for x in a for y in b)
        if traced:
            verdict = ""
        elif sign * delta < -m["bound"]:
            verdict = "worse"
            status = 1
        elif (wins >= math.ceil(0.9 * pairs) and sign * delta > iqr
              and sign * delta >= MIN_EFFECT):
            verdict = "better"
        elif iqr > m["bound"] and not all_beat:
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        print("%-*s %-10s %12.6g %12.6g %+7.1f%% %7.1f%% %4d/%-2d  %s"
              % (width, name, m["unit"], med_a, med_b, 100 * delta,
                 100 * iqr, wins, pairs, verdict))
    for side in ("A", "B"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        incorrect = sum(1 for r in runs[side] if not r["correct"])
        print("%s: failed/attempted %d/%d, incorrect runs %d/%d"
              % (side, failed, attempted, incorrect, pairs))
        if incorrect:
            status = 1
sys.exit(status)
PY
