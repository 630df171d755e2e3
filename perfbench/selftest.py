#!/usr/bin/env python3
"""Self-test of the repo benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload (those BENCHMARK.json lists, and wire_fanin)
through perfbench/run.py with --toy and one-second runs, untraced and
traced, and checks that:
  * every metric BENCHMARK.json names (end_to_end untraced, per_layer
    traced) is emitted exactly once, is finite, and carries its unit;
  * the run passes its own correctness checks;
  * each correctness check is live: with its expected total deliberately
    wrong (--break-check) the run reports correct=false and exits nonzero.
Exits nonzero on the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The checks that compare an output against an expected total, per workload.
LIVE_CHECKS = {
    "ingest": ["ingest.published_total", "ingest.live_total",
               "ingest.stats_inserts", "ingest.stats_deletes"],
    "read_mostly": ["read_mostly.published_total", "read_mostly.stats_counts",
                    "read_mostly.feedbacks"],
    "wire_fanin": ["wire_fanin.bit_identical", "wire_fanin.frames_rejected",
                   "wire_fanin.stats_inserts"],
}


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--toy", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    last = done.stdout.rstrip("\n").split("\n")[-1]
    pairs = json.loads(last, object_pairs_hook=lambda p: p)
    return done.returncode, dict(pairs), done.stdout + done.stderr


def metric_pairs(result):
    # `result` keeps the metrics object as a list of (name, value) pairs so
    # duplicate names stay visible.
    return [(name, dict(v)) for name, v in result["metrics"]]


def expect(ok, what):
    if not ok:
        print("FAIL " + what)
        sys.exit(1)
    print("ok   " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    listed = [w["name"] for w in bench["workloads"]]
    expect(set(listed) <= set(LIVE_CHECKS),
           "BENCHMARK.json lists only workloads this test knows")
    # wire_fanin is not in BENCHMARK.json (see README) but stays runnable,
    # so it is held to the same output format.
    for workload in LIVE_CHECKS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, log = run(workload, trace)
            expect(code == 0 and result["correct"] is True,
                   "%s trace=%d passes its checks" % (workload, trace))
            pairs = metric_pairs(result)
            names = [n for n, _ in pairs]
            emitted = dict(pairs)
            expect(set(names) == {m["name"] for m in bench[key]},
                   "%s trace=%d emits exactly the %s metrics" % (
                       workload, trace, key))
            for metric in bench[key]:
                name = metric["name"]
                expect(names.count(name) == 1,
                       "%s emits %s once" % (workload, name))
                value = emitted[name]["value"]
                expect(isinstance(value, (int, float)) and math.isfinite(value),
                       "%s %s is finite (%r)" % (workload, name, value))
                expect(emitted[name]["unit"] == metric["unit"],
                       "%s %s has unit %s" % (workload, name, metric["unit"]))
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   "%s attempted %d, failed %d" % (
                       workload, result["attempted"], result["failed"]))
        for check in LIVE_CHECKS[workload]:
            code, result, log = run(workload, 0, ["--break-check", check])
            expect(code != 0 and result["correct"] is False
                   and ("FAIL " + check) in log,
                   "%s fires on a wrong expected total" % check)
    code, result, log = run("ingest", 0, ["--break-check", "no.such.check"])
    expect(code != 0 and result["correct"] is False,
           "an unknown --break-check name fails the run")
    print("selftest: all green")


if __name__ == "__main__":
    main()
