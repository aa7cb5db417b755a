#!/usr/bin/env python3
"""A/B comparison of two LUIS trees on the perfbench workloads.

    python3 tools/ab_perfbench.py PARENT_TREE CHANGE_TREE WORKLOAD...

Each tree is a full checkout; each builds and runs its own
perfbench/run.py into its own .bench_build (CARGO_TARGET_DIR is removed
from the child environment). Per workload the script runs 10 pairs of
end-to-end runs (--trace 0), each run_seconds long (from the parent's
BENCHMARK.json). Every pair draws a fresh seed that both sides share, and
the side that runs first alternates from pair to pair, so slow drift of
the host lands on both sides equally. One discarded warm-up run per tree
builds it before the first pair.

Per end-to-end metric it prints the parent and change medians, the
median ratio (change / parent), the pairs the change won and tied, the
parent's quartile spread ((q3 - q1) / median), how much worse the change
median is in the metric's worse direction, and a verdict against the
BENCHMARK.json bound: "unresolved" when the parent's own spread exceeds
the bound (the runs cannot tell a change of that size), else "ok" or
"WORSE". Exit status 0 when every run succeeded and no metric is WORSE.
"""
import json
import os
import random
import statistics
import subprocess
import sys

PAIRS = 10


def run_once(tree, workload, seed, seconds, env):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=tree,
                          env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"ab_perfbench: {tree}: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main():
    if len(sys.argv) < 4:
        sys.exit("usage: ab_perfbench.py PARENT_TREE CHANGE_TREE WORKLOAD...")
    parent, change = (os.path.abspath(t) for t in sys.argv[1:3])
    workloads = sys.argv[3:]
    with open(os.path.join(parent, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = {w["name"] for w in spec["workloads"]}
    for w in workloads:
        if w not in known:
            sys.exit(f"ab_perfbench: unknown workload '{w}' "
                     f"(want {', '.join(sorted(known))})")
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    trees = {"parent": parent, "change": change}
    rng = random.SystemRandom()

    for side, tree in trees.items():
        print(f"warm-up build and run: {side} {tree}", file=sys.stderr,
              flush=True)
        run_once(tree, workloads[0], 1, 1, env)

    worse = False
    for workload in workloads:
        runs = {"parent": [], "change": []}
        seeds = []
        for i in range(PAIRS):
            seed = rng.randrange(1, 2**31)
            seeds.append(seed)
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(
                    run_once(trees[side], workload, seed, seconds, env))
            print(f"  {workload} pair {i + 1}/{PAIRS} seed {seed} "
                  f"({order[0]} first) done", file=sys.stderr, flush=True)
        print(f"{workload}: seeds {' '.join(map(str, seeds))}")
        print(f"  {'metric':24s} {'parent':>11s} {'change':>11s} "
              f"{'ratio':>7s} {'won':>4s} {'tied':>4s} {'p.spread':>8s} "
              f"{'worse_by':>8s} {'bound':>5s}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            higher = m["better"] == "higher"
            p = [r[name] for r in runs["parent"]]
            c = [r[name] for r in runs["change"]]
            won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
            tied = sum(a == b for a, b in zip(p, c))
            pm, cm = statistics.median(p), statistics.median(c)
            ratio = cm / pm if pm else float("nan")
            worse_by = (cm - pm) / pm if pm else 0.0
            if higher:
                worse_by = -worse_by
            p_spread = spread(p)
            if p_spread > bound:
                verdict = "unresolved"
            elif worse_by <= bound:
                verdict = "ok"
            else:
                verdict = "WORSE"
                worse = True
            print(f"  {name:24s} {pm:11.6g} {cm:11.6g} {ratio:7.3f} "
                  f"{won:4d} {tied:4d} {p_spread:8.3f} {worse_by:+8.3f} "
                  f"{bound:5.2f}  {verdict}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
