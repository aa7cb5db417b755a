#!/usr/bin/env python3
"""Self-check of the LUIS benchmark: is one build's result reproducible?

    python3 perfbench/selfcheck.py

Runs two sets of ten runs of every workload BENCHMARK.json declares,
each run on a fresh seed (1000, 1001, ...) and run_seconds long, all on
the same build. For each end-to-end metric x workload it reports both
medians, each set's spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives the quartiles) and how far the
second median moved in the metric's worse direction.
A metric passes when its spread is within its BENCHMARK.json bound
(setup_s is exempt) and the second median is no worse than the first by
more than the bound. Exit status 0 when every row passes.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"selfcheck: {workload} seed {seed} failed "
                 f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"selfcheck: {workload} seed {seed} reported incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(RUNS):
                seed = SEED_BASE + s * RUNS + i
                runs.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"  {workload} set {s + 1} seed {seed} done",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        print(f"{workload}:")
        for name, m in metrics.items():
            per_set = [[r[name] for r in runs] for runs in sets]
            spreads = [spread(v) for v in per_set]
            medians = [statistics.median(v) for v in per_set]
            verdict = all(sp <= m["bound"] for sp in spreads) \
                or name == "setup_s"
            drift = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
            if m["better"] == "higher":
                drift = -drift
            verdict = verdict and drift <= m["bound"]
            ok = ok and verdict
            report.setdefault(workload, {})[name] = {
                "medians": medians, "spreads": spreads, "worse_by": drift,
                "bound": m["bound"], "pass": verdict}
            print(f"  {name:24s} median {' / '.join(f'{x:.6g}' for x in medians)}"
                  f"  spread {' / '.join(f'{x:.3f}' for x in spreads)}"
                  f"  worse by {drift:+.3f}  bound {m['bound']:.2f}"
                  f"  {'ok' if verdict else 'FAIL'}")
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       "perfbench", "selfcheck.json")
    with open(out, "w") as f:
        json.dump(report, f, indent=2)
    print(f"{'PASS' if ok else 'FAIL'} (details in {os.path.relpath(out, ROOT)})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
