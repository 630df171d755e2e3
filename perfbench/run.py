#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <ingest|read_mostly|wire_fanin>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--toy] [--break-check <name>]

Run from the root of a checkout. Builds the dynhist library and the
`perfbench` binary from source (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs one workload. Prints the run's environment record, its metric
table and check log, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. Per-run records and span
dumps land in .bench_out/. Exit status: 0 when every correctness check
passed, nonzero otherwise (and without a result line when the build or
the run itself failed).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 1        # the seed the benchmark is tuned on
HELD_OUT_SEED = 2       # for checking a claim on a seed not tuned on
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "dynhist.h"))):
        fail("no dynhist sources at " + ROOT + "; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s (%s)" % (" ".join(cmd), e), 3)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd), 3)
    return os.path.join(out, "perfbench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    for value in result["metrics"].values():
        if not math.isfinite(value.get("value", float("nan"))):
            return None
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "read_mostly", "wire_fanin"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--toy", action="store_true",
                    help="self-test sizes")
    ap.add_argument("--break-check", default="",
                    help="perturb one check's expectation (self-test)")
    args = ap.parse_args()

    binary = build(build_dir())
    out_dir = os.path.join(ROOT, ".bench_out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", out_dir]
    if args.toy:
        cmd.append("--toy")
    if args.break_check:
        cmd += ["--break-check", args.break_check]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = done.stdout.rstrip("\n").split("\n")
    result = parse_result(lines[-1]) if lines else None
    if result is None:
        sys.stdout.write(done.stdout)
        fail("run produced no valid result line (exit %d)" % done.returncode,
             done.returncode or 5)

    env = {}
    for line in lines[:-1]:
        if line.startswith("env "):
            env = json.loads(line[4:])
            env["git_sha"] = git_sha()
            env["source_digest"] = source_digest()
            print("env " + json.dumps(env, sort_keys=True))
        else:
            print(line)
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(out_dir, "%s-seed%d-trace%s.json" % (
        args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"env": env, "result": result,
                   "checks": [l[6:] for l in lines if l.startswith("check ")]},
                  f, indent=1, sort_keys=True)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
