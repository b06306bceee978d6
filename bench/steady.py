"""Steadiness check: two sets of runs of one commit, compared metric by metric.

    python3 bench/steady.py [--runs 10]

Runs the command in BENCHMARK.json (from the repository root) ``--runs``
times per set and workload, on every workload in BENCHMARK.json, with the
run length from BENCHMARK.json; every run has its own seed (1 to 2 x runs)
and a set runs each workload's runs one after another. For every
end-to-end metric on every workload it prints each set's median and
quartiles, the spread (q3 - q1) / median, and whether the sets agree
within the metric's bound: each set's spread at most the bound, and the
medians of the two sets apart by at most the bound, as a share of the
first. The share of failed operations must be the same in both sets.
Exits 1 if any check disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(command, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(argv)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {}  # (set, workload) -> list of result objects
    for k in range(2):
        for workload in workloads:
            for i in range(args.runs):
                seed = 1 + k * args.runs + i
                out = one_run(bench["command"], workload, seed, bench["run_seconds"])
                results.setdefault((k, workload), []).append(out)
                values = " ".join(f"{name}={out['metrics'][name]['value']:.5g}" for name in metrics)
                print(f"set {k + 1} seed {seed} {workload}: {values} failed={out['failed']}/{out['attempted']}",
                      flush=True)

    agree = True
    print(f"\n{'workload':<8} {'metric':<12} {'bound':>5}  " +
          "  ".join(f"{'set ' + str(k + 1) + ' median [q1, q3] spread':<40}" for k in range(2)) +
          "  change  verdict")
    for workload in workloads:
        shares = {sum(r["failed"] for r in results[(k, workload)]) / sum(r["attempted"] for r in results[(k, workload)])
                  for k in range(2)}
        for name, spec in metrics.items():
            bound = spec["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in results[(k, workload)]]) for k in range(2)]
            change = (sums[1][0] - sums[0][0]) / sums[0][0]
            ok = all(s[3] <= bound for s in sums) and abs(change) <= bound and len(shares) == 1
            agree = agree and ok
            cells = "  ".join(f"{m:<10.5g} [{q1:.5g}, {q3:.5g}] {sp:6.1%}".ljust(40) for m, q1, q3, sp in sums)
            print(f"{workload:<8} {name:<12} {bound:>5}  {cells}  {change:+6.1%}  {'agree' if ok else 'DISAGREE'}")
        print(f"{workload:<8} failed share per set: {sorted(shares)}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
