#!/usr/bin/env python3
"""Builds the LUIS benchmark harness from source and runs one workload.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds a
Release tree in .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench);
later runs rebuild incrementally. The harness's stdout is forwarded; its
last line is the result object, checked here against the metric names
BENCHMARK.json declares. Each run's full output, including the drawn
composition and work counters, is also kept under
<build dir>/results/<workload>-seed<N>-trace<T>.txt.

Exit status: the harness's (0 ok, 1 an op failed), or 2 when the sources
are missing, the build fails or the result is malformed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tune", "execute", "sweep")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no LUIS sources under {ROOT}/src; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs,
                  "--target", "luis_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "luis_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()

    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.txt"
    with open(os.path.join(results, name), "w") as f:
        f.write(proc.stdout)

    if proc.returncode not in (0, 1) or not lines:
        print("\n".join(lines))
        fail(f"harness exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness's last line is not a JSON result")
    got = set(result.get("metrics", {}))
    want = declared_metrics(args.trace)
    if got != want:
        fail(f"metric set differs from BENCHMARK.json: "
             f"missing {sorted(want - got)}, extra {sorted(got - want)}")
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
