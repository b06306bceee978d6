"""Benchmark for thermolearn: fixed work per run, every output checked.

    python3 bench/run.py --workload {chain,digest,learn} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload digest --seed 1 --seconds 10 --profile 25

Run from the root of a source checkout: the program is imported from
./src, so nothing needs to be installed. The job list comes from the seed
and ``--seconds`` (which sets the number of whole rounds, see jobs.py);
no run is cut off by the clock. Each job list runs in a fresh
single-threaded worker process (worker.py), one job after another, after
set-up probes that measure interpreter start, import and a warm-up job.
Outputs go to .bench_tmp/ in the checkout and are checked against the
oracles after the worker exits (checks.py), then removed.

With ``--trace 0`` the last line of stdout is the end-to-end metrics;
with ``--trace 1`` it is the per-layer metrics of a traced run of all
three workloads (layers.py). ``--profile N`` prints the top N cProfile
rows of the named workload's timed jobs instead. The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import jobs as joblists
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 11  # set-up is measured this many times per run (probes plus the worker); median reported
# Seconds worker.calibrate() takes on the reference machine (about its median, see README). Job
# times are reported at that machine speed: each is scaled by CAL_REF_S over the calibration around it.
CAL_REF_S = 0.0095
# Seconds a baseline worker (interpreter start and `import numpy`, no program) takes there; set-up
# time is scaled by BASE_REF_S over the median baseline of the run.
BASE_REF_S = 0.17
WORKER_TIMEOUT_S = 150
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker_env():
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.update({name: "1" for name in ONE_THREAD})
    return env


def _run_worker(spec_path, result_path, flags, stdout=None):
    """Start a fresh worker, wait for it, and return its result dict."""
    log = result_path + ".log"
    with open(log, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path, repr(t0), *flags],
            env=_worker_env(), cwd=ROOT, stdout=stdout or subprocess.DEVNULL, stderr=err,
            timeout=WORKER_TIMEOUT_S,
        )
    with open(log) as fh:
        sys.stderr.write(fh.read())
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def _prepare(workload, seed, seconds, tmp):
    """Write the warm-up and the job list (inputs included) under tmp; returns (spec path, jobs)."""
    job_list = joblists.make_jobs(workload, seed, joblists.rounds_for(workload, seconds), os.path.join(tmp, "jobs"))
    warmup = joblists.make_warmup(workload, os.path.join(tmp, "warmup"))
    spec_path = os.path.join(tmp, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump({"src": SRC, "warmup": warmup, "jobs": job_list}, fh)
    return spec_path, job_list


def _checked(job_list, result):
    problems = checks.check_run(job_list, result["ok"])
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    return not problems


def end_to_end(workload, seed, seconds, tmp):
    spec, job_list = _prepare(workload, seed, seconds, tmp)
    setups, bases = [], []
    for i in range(SETUP_RUNS - 1):
        bases.append(_run_worker(spec, os.path.join(tmp, f"base{i}.json"), ["--baseline"])["setup_s"])
        setups.append(_run_worker(spec, os.path.join(tmp, f"probe{i}.json"), ["--probe"])["setup_s"])
    result = _run_worker(spec, os.path.join(tmp, "worker.json"), [])
    setups.append(result["setup_s"])
    walls, cals = result["job_s"], result["cal_s"]
    times = [t * CAL_REF_S / ((before + after) / 2) for t, before, after in zip(walls, cals, cals[1:])]
    metrics = {
        "setup_s": (statistics.median(setups) * BASE_REF_S / statistics.median(bases), "s"),
        "jobs_per_s": (len(times) / sum(times), "jobs/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] * 1024 / 1e6, "MB"),
    }
    print(f"{workload}: {len(times)} jobs, seed {seed}; job_s.p50 is the median of {len(times)} job times, "
          f"setup_s the median of {len(setups)} set-ups; times at the reference machine speed")
    print(f"unscaled: setup_s {statistics.median(setups):.4f} s, jobs_per_s {len(walls) / sum(walls):.4f} jobs/s, "
          f"job_s.p50 {statistics.median(walls):.4f} s; baseline median {statistics.median(bases) * 1e3:.1f} ms "
          f"(reference {BASE_REF_S * 1e3:.0f} ms), calibration median {statistics.median(cals) * 1e3:.2f} ms "
          f"(reference {CAL_REF_S * 1e3:.1f} ms)")
    return _checked(job_list, result), result["ok"], metrics


def traced(workload, seed, seconds, tmp):
    """Trace the first rounds of every workload, a third of the run length each."""
    runs, ok, good = {}, [], True
    for name in joblists.WORKLOADS:
        sub = os.path.join(tmp, name)
        os.makedirs(sub)
        spec, job_list = _prepare(name, seed, seconds / len(joblists.WORKLOADS), sub)
        result = _run_worker(spec, os.path.join(sub, "worker.json"), ["--trace"])
        good = _checked(job_list, result) and good
        runs[name] = (job_list, result)
        ok += result["ok"]
        print(f"traced {name}: {len(job_list)} jobs, timed wall {sum(result['job_s']):.3f} s")
    metrics = {name: (entry["value"], entry["unit"]) for name, entry in layers.per_layer(runs, workload).items()}
    return good, ok, metrics


def profile(workload, seed, seconds, rows, tmp):
    spec, job_list = _prepare(workload, seed, seconds, tmp)
    sys.stdout.flush()
    result = _run_worker(spec, os.path.join(tmp, "worker.json"), ["--profile", str(rows)], stdout=sys.stdout)
    return _checked(job_list, result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="ROWS",
                        help="print the top ROWS cProfile rows of the workload's timed jobs instead of metrics")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "thermolearn", "__init__.py")):
        print(f"no thermolearn sources under {SRC}: run from the root of a thermolearn checkout", file=sys.stderr)
        return 2
    tmp = os.path.join(ROOT, ".bench_tmp", f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        if args.profile:
            return 0 if profile(args.workload, args.seed, args.seconds, args.profile, tmp) else 1
        measure = traced if args.trace else end_to_end
        correct, ok, metrics = measure(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run still uses it
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ok),
        "failed": ok.count(False),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
