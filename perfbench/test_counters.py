#!/usr/bin/env python3
"""Test: the benchmark's deterministic work counters repeat exactly.

    python3 perfbench/test_counters.py

Runs every workload BENCHMARK.json declares twice with seed 7, for 2 s
each with --trace 1, and compares
the work counters (B&B nodes, simplex iterations, model size, bytecode
steps, shadow ops, ...) and the drawn composition that the harness prints
on its `details` line. Both runs must also report correct outputs.
Exit status 0 when every workload repeats bit for bit.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 2


def details(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
        sys.exit(f"test_counters: {workload} run failed (exit {proc.returncode})")
    line = next(l for l in lines if l.startswith("details "))
    info = json.loads(line[len("details "):])
    counters = {k: v for k, v in info.items() if k.startswith("counter.")}
    return counters, info["composition"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for workload in names:
        first, comp1 = details(workload)
        second, comp2 = details(workload)
        same = first == second and comp1 == comp2 and first
        ok = ok and bool(same)
        print(f"{workload}: {len(first)} counters "
              f"{'repeat exactly' if same else 'DIFFER'}")
        if not same:
            for key in sorted(set(first) | set(second)):
                if first.get(key) != second.get(key):
                    print(f"  {key}: {first.get(key)} vs {second.get(key)}")
            if comp1 != comp2:
                print("  composition differs")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
