#!/usr/bin/env python3
"""Build and run the lung ledger benchmark.

    python3 lungbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--tree-seed <n>]
    python3 lungbench/run.py --self-test

Run from the root of a dgflow checkout. The first call configures and builds
the library and the driver into .bench_build/lungbench; later calls only
rebuild what changed. The driver's last output line is one JSON object
{"correct", "attempted", "failed", "metrics"}; this script checks it against
BENCHMARK.json (every end-to-end metric with --trace 0, every per-layer
metric with --trace 1, each with its declared unit) and prints it as its own
last line. Exit status: 0 on success, 1 on a failed build, run or check.

--self-test runs every workload at a tiny length in both modes and checks the
result schema and metric names.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lungbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "lungbench")
# a run measures ~--seconds plus set-up; the driver must end well within the
# harness limit of 180 s per run
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"lungbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "lungbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run(workload, seed, seconds, trace, tree_seed=0):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DGFLOW_")}
    # back the heap with transparent huge pages: with 4 KiB pages the
    # physical layout, and with it the cache behaviour of the cache-resident
    # working sets, changes from process to process
    env["GLIBC_TUNABLES"] = ":".join(
        t for t in (env.get("GLIBC_TUNABLES"), "glibc.malloc.hugetlb=1") if t)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tree-seed", str(tree_seed), "--out", OUT]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result


def validate(result, trace):
    """Checks the result schema; fills per-layer metrics a workload does not
    exercise with 0 (see README.md). Returns a list of problems."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["last line is not a result object"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not an integer")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = declared_metrics(trace)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in declared:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        elif m.get("unit") != declared[name]:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"declared {declared[name]}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    for name, unit in declared.items():
        if name in metrics:
            continue
        if trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            problems.append(f"end-to-end metric {name} is missing")
    if not trace:
        for name, m in metrics.items():
            if isinstance(m.get("value"), (int, float)) and m["value"] <= 0:
                problems.append(f"end-to-end metric {name} is not positive")
    result["metrics"] = {name: metrics[name] for name in declared}
    return problems


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    problems = []
    for workload in workloads:
        for trace in (False, True):
            code, lines, result = run(workload, 0, 1, trace)
            tag = f"{workload} trace={int(trace)}"
            if code != 0 or result is None:
                problems.append(f"{tag}: exit {code}, output tail: "
                                + " | ".join(lines[-3:]))
                continue
            problems += [f"{tag}: {p}" for p in validate(result, trace)]
            if not result.get("correct"):
                problems.append(f"{tag}: output checks failed")
            print(f"self-test {tag}: {len(result['metrics'])} metrics, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
    for p in problems:
        print("SELF-TEST FAILED:", p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tree-seed", type=int, default=0,
                        help="airway tree jitter seed (default: the default "
                        "tree); see README.md")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.tree_seed < 0:
        parser.error("seeds must be >= 0")
    build()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        parser.error("--workload is required")
    code, lines, result = run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.tree_seed)
    for line in lines[:-1]:
        print(line)
    if result is None:
        fail(f"{args.workload} printed no result (exit {code})")
    problems = validate(result, bool(args.trace))
    for p in problems:
        print("RESULT INVALID:", p)
    if problems or code != 0 or not result["correct"]:
        if not problems:
            print(json.dumps(result))
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
