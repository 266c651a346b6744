#!/usr/bin/env python3
"""End-to-end benchmark of msgorder.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the benchmark binary from source (CMake, into
.bench_build/perfbench), runs one workload, re-checks the exported Chrome
traces with Python's own JSON parser, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics (layers a workload does not
exercise read 0).  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])
    return os.path.join(BUILD_DIR, "perfbench")


def chrome_trace_ok(path):
    """The exported Chrome trace parses as JSON and holds trace events."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        log(f"{path}: not valid JSON: {e}")
        return False
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        log(f"{path}: no traceEvents")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.join(BUILD_DIR, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir, "--launched-at", repr(time.monotonic())],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            log(f"benchmark binary exited with {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        raw = json.loads(lines[-1])
        correct = bool(raw["correct"])
        for path in raw["json_files"]:
            correct = chrome_trace_ok(path) and correct
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return 1
    except (IndexError, KeyError, ValueError) as e:
        log(f"unreadable benchmark output: {e}")
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {}
    for m in declared:
        got = raw["metrics"].pop(m["name"], None)
        if got is None:
            if not args.trace:
                log(f"end-to-end metric {m['name']} missing")
                return 1
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']}, declared {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if raw["metrics"]:
        log(f"undeclared metrics: {sorted(raw['metrics'])}")
        return 1

    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
