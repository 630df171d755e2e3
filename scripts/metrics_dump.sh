#!/usr/bin/env bash
# Metrics-dump path: runs the engine server demo with its telemetry dump
# flags and drops the exposition artifacts at the repo root, under the
# git-ignored capture names declared below —
#   $PROM   Prometheus text exposition
#   $JSON   JSON exposition (same snapshot)
#   $TRACE  chrome://tracing event dump of the trace ring
# The server runs SelfCheckPrometheus on its own exposition and exits
# nonzero when the format check fails, so a broken exposition fails this
# script (and any check.sh run that invoked it). Under GitHub Actions the
# three paths are also written to the step's outputs (`prom`, `json`,
# `trace`), so the artifact upload names the files from here.
#
# Usage: scripts/metrics_dump.sh [build_dir]   (default: build)

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

PROM=METRICS.prom
JSON=METRICS.json
TRACE=TRACE.json

"$BUILD_DIR/example_engine_server" \
  --metrics-out="$PROM" \
  --metrics-json-out="$JSON" \
  --trace-out="$TRACE"

# The server's readers route through the compiled-arena estimate path, so
# the dump must carry the query-side series: the sampled latency
# distribution and the query counter. Their absence means the query
# telemetry regressed even if the format self-check passed. The per-key
# series come from the engine's scrape-time collector: one per-key
# counter and the per-key feedback-error histogram must appear too, so a
# collector that dropped per-key output fails.
for series in dynhist_query_latency_ns_count \
              dynhist_engine_queries_total \
              'dynhist_key_queries_total{' \
              'dynhist_key_feedback_abs_error_count{'; do
  if ! grep -q "^$series" "$PROM"; then
    echo "metrics_dump: FAIL — series '$series' missing from exposition" >&2
    exit 1
  fi
done

if [[ -n "${GITHUB_OUTPUT:-}" ]]; then
  {
    echo "prom=$PROM"
    echo "json=$JSON"
    echo "trace=$TRACE"
  } >> "$GITHUB_OUTPUT"
fi

echo "metrics_dump: wrote $PROM $JSON $TRACE"
