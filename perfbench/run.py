#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cordic --seed 1 --seconds 10 --trace 0

Builds the pypim library and the perfbench harness from source into
``.bench_build/perfbench`` (an optimised CMake build, serialised by a
lock so concurrent runs share one build), runs the harness, checks that
its result names exactly the metrics ``BENCHMARK.json`` lists for the
run kind (``end_to_end`` for ``--trace 0``, ``per_layer`` for
``--trace 1``) with their units, and prints that result as the last line
of standard output. ``--smoke`` runs tiny sizes in a few seconds.

Exits non-zero, printing no result, when the sources are missing, the
build fails, the harness fails or times out, or its result is malformed.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("cordic", "reduce_cold", "sort", "io_roundtrip")
HARNESS_TIMEOUT_S = 170
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"the pypim sources are missing ({need} not found)")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", JOBS])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")


def run_harness(args):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"harness timed out after {HARNESS_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    return lines[-1]


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"harness result is not JSON: {line[:200]!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("no rep was attempted")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        value = m.get("value")
        if m.get("unit") != want[name]:
            fail(f"{name}: unit {m.get('unit')!r}, expected {want[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: runs in seconds, for the smoke test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    spec = load_spec()
    build()
    sys.stdout.flush()
    result = check_result(run_harness(args), spec, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
