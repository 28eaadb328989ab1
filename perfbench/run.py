#!/usr/bin/env python3
"""Builds and runs the HEAD repository benchmark.

    python3 perfbench/run.py --workload drive|serve|train --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which pulls in the repository
sources) as a Release build under .bench_build/perfbench; later runs only
rebuild what changed. The run prints its stamp, its output checks and every
metric it measured with its unit, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end set of BENCHMARK.json with --trace 0 and
the per-layer set with --trace 1. A per-layer metric of a layer the
workload does not run is reported as 0. --self-test builds and runs the
unit tests of the benchmark's own helpers.
"""
import argparse
import fcntl
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
RESULT_PREFIX = "PERFBENCH_RESULT "


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                      "perfbench", "perfbench_test"])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log("perfbench: build step failed: " + " ".join(step))
                return False
    return True


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_workload(args):
    start = time.monotonic()
    if not build():
        return 1
    end_to_end, per_layer = declared_metrics()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, RUN_TIMEOUT_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    if done.returncode != 0:
        log("perfbench: run failed with exit code %d" % done.returncode)
        return 1
    lines = [l for l in done.stdout.splitlines() if l.startswith(RESULT_PREFIX)]
    if len(lines) != 1:
        log("perfbench: no result line from the benchmark binary")
        return 1
    raw = json.loads(lines[0][len(RESULT_PREFIX):])
    measured = raw["metrics"]

    print("perfbench workload=%s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("stamp: " + " ".join("%s=%s" % kv for kv in sorted(raw["stamp"].items())))
    print("checks: " + ("ok" if raw["correct"] else "FAILED"))
    for failure in raw["checks"]:
        print("  check failed: " + failure)
    print("attempted=%d failed=%d" % (raw["attempted"], raw["failed"]))
    for name in sorted(measured):
        m = measured[name]
        value = m["value"] if m["value"] is not None else float("nan")
        print("metric %-44s %16.6f %s" % (name, value, m["unit"]))

    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        if name in measured:
            value = measured[name]["value"]
            if measured[name]["unit"] != unit:
                log("perfbench: %s measured in %s, declared in %s" %
                    (name, measured[name]["unit"], unit))
                return 1
        elif args.trace:
            value = 0.0
            print("metric %-44s %16.6f %s (layer not run by %s)" %
                  (name, value, unit, args.workload))
        else:
            log("perfbench: end-to-end metric %s was not measured" % name)
            return 1
        if value is None or not math.isfinite(value):
            log("perfbench: %s is not finite" % name)
            return 1
        if not args.trace and value <= 0.0:
            log("perfbench: end-to-end metric %s is not positive" % name)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}), flush=True)
    return 0


def self_test():
    if not build():
        return 1
    return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["drive", "serve", "train"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
