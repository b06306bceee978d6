"""The measured process: import thermolearn, warm up, run a job list.

Run by ``run.py`` in a fresh interpreter with BLAS pinned to one thread:

    python3 bench/worker.py JOBS_JSON RESULT_JSON T0 [--baseline] [--probe] [--trace] [--profile N]

``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start. With ``--probe`` the
worker stops after the warm-up; with ``--baseline`` it only imports numpy
and records the time so far. Jobs run one after another (a closed loop
with one client); only the call itself is timed, and ``calibrate`` is
timed before each job and after the last, outside the timed region.
Library-call outputs are saved for the checks after the clock stops. With ``--trace`` the public
entry points of each layer are wrapped (see ``Tracer``) and the spans are
written to the result file at the end; the wrappers exist only then.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import json
import os
import resource
import sys
import time


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    return lambda: trim(0)


# Between jobs, outside the timed region, freed heap memory goes back to the
# OS, as it would for a fresh process per CLI run. Without this the peak RSS
# of one job list varied by 10% with the allocator's history (96 or 106 MB
# on chain, depending on the seed).
release_free_memory = _malloc_trim()


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python and numpy work that the program never touches.

    The reference machine's speed drifts by up to 1.9x in phases of a minute
    or more, and every kind of job slows by about the same factor, so the
    time of this work, taken right around a job, says how fast the machine
    was then (see README).
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    x = np.arange(1 << 12, dtype=float)  # small, so that it adds little to the peak RSS
    for _ in range(32):
        x = np.fft.irfft(np.fft.rfft(x), n=1 << 12)
    return time.perf_counter() - start


def _import_program(src: str):
    import thermolearn
    from thermolearn import cli

    where = os.path.realpath(thermolearn.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"thermolearn imported from {where}, not from {src}")
    return thermolearn, cli


class Tracer:
    """Spans around calls into the program, kept in memory.

    A span is ``[name, start, end, parent, job, info]``; ``parent`` is the
    index of the enclosing span or -1, ``info`` holds sizes read from the
    call's arguments or result. Counting wrappers add to ``counts`` only.
    Nothing is recorded outside a job's timed call.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.job = None

    def span(self, owner, attr, name, info=None):
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return inner(*args, **kwargs)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        return wrapper

    def count(self, owner, attr, name):
        inner = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if self.job is not None:
                counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def install(self, cli):
        """Wrap each layer's public entry points (module attributes the program calls through)."""
        anneal, boost, convolution, digest, ebm, ising, marl, trace = (
            importlib.import_module(f"thermolearn.{name}")
            for name in ("anneal", "boost", "convolution", "digest", "ebm", "ising", "marl", "trace")
        )
        # Validation, input loading and hashing have no spans, so they count in run_experiment's self time.
        self.span(cli, "run_experiment", "cli.run_experiment")
        self.span(trace.Trace, "csv_text", "trace.csv_text", lambda a, k, r: {"rows": len(a[0])})
        self.span(ising, "metropolis_chain", "ising.metropolis_chain",
                  lambda a, k, r: {"steps": len(r.trace), "samples_bytes": r.samples.nbytes})
        self.span(ising, "estimate_observables", "ising.estimate_observables")
        self.span(ising, "partition_exact", "ising.partition_exact")

        def anneal_info(a, k, r):
            best = r.trace.column("best_energy")
            last_gain = int((best > best[-1]).sum())  # sweeps before the final best appeared
            return {"proposals": len(best) * a[3], "sweeps_after_best": len(best) - last_gain - 1}

        run_anneal = self.span(anneal, "anneal", "anneal.anneal", anneal_info)
        cli.run_anneal = run_anneal
        self.count(digest.DigestLandscape, "energy", "digest.energy_calls")
        self.span(convolution, "conv_fft", "convolution.conv_fft",
                  lambda a, k, r: {"n": 1 << (len(r) - 1).bit_length()})
        self.span(boost, "boost3", "boost.boost3")
        self.span(boost, "boost_recursive", "boost.boost_recursive")
        self.count(boost.TableHypothesis, "predict", "boost.predict_calls")
        self.span(ebm, "bm_train", "ebm.bm_train",
                  lambda a, k, r: {"method": k["method"], "epochs": k["epochs"]})
        self.span(ebm, "bm_log_likelihood", "ebm.bm_log_likelihood")
        self.span(ebm, "bm_gibbs_sample", "ebm.bm_gibbs_sample", lambda a, k, r: {"steps": len(r)})
        self.span(marl, "run_ising_game", "marl.run_ising_game",
                  lambda a, k, r: {"agent_steps": a[1] * a[2] * a[0].graph.n_agents})


def _library_call(tl, job):
    """Build the call's arguments from its inputs; returns (call, save)."""
    import numpy as np
    from thermolearn import boost, convolution, ebm, marl

    kind, p = job["kind"], job["params"]
    inputs = dict(np.load(job["inputs"]))
    if kind == "conv_fft":
        return (lambda: convolution.conv_fft(inputs["x"], inputs["y"])), (lambda r: {"z": r})
    if kind in ("boost3", "boost_recursive"):
        dataset = boost.WeightedDataset.uniform(inputs["xs"], inputs["ys"])
        learner = boost.NoisyThresholdLearner(p["threshold"], p["gamma"])
        rng = tl.RngStream(p["seed"])
        if kind == "boost3":
            def save(r):
                hyp, diag = r
                voters = getattr(hyp, "voters", (hyp,))
                preds = {f"p{i + 1}": h.predict_many(dataset.xs) for i, h in enumerate(voters)}
                return {**preds, "vote": hyp.predict_many(dataset.xs), "diag": np.array(list(diag))}

            return (lambda: boost.boost3(learner, dataset, rng)), save
        return (lambda: boost.boost_recursive(learner, dataset, p["target"], rng)), (
            lambda r: {"vote": r.predict_many(dataset.xs)})
    if kind == "bm_train":
        machine = ebm.BoltzmannMachine(inputs["a"], inputs["b"], inputs["W"])
        rng = tl.RngStream(p["seed"])

        def call():
            return ebm.bm_train(machine, inputs["data"], method=p["method"], learning_rate=p["learning_rate"],
                                epochs=p["epochs"], k=p["k"], rng=rng)

        return call, (lambda r: {"a": r[0].a, "b": r[0].b, "W": r[0].W, "losses": np.asarray(r[1])})
    if kind == "bm_gibbs_sample":
        machine = ebm.BoltzmannMachine(inputs["a"], inputs["b"], inputs["W"])
        rng = tl.RngStream(p["seed"])
        return (lambda: ebm.bm_gibbs_sample(machine, p["steps"], rng)), (
            lambda r: {"visible": r.visible, "hidden": r.hidden})
    if kind == "run_ising_game":
        env = marl.IsingGameEnv(marl.torus_graph(p["side"], p["side"]), p["coupling"])
        ratio = (p["t_end"] / p["t_start"]) ** (1.0 / (p["episodes"] - 1))
        schedule = tl.CoolingSchedule("geometric", p["t_start"], ratio)
        rng = tl.RngStream(p["seed"])

        def call():
            return marl.run_ising_game(env, p["episodes"], p["steps"], p["alpha"], p["gamma"], schedule, rng)

        return call, (lambda r: {"magnetization": r.trace.column("magnetization"), "final_spins": r.final_spins})
    raise ValueError(f"unknown job kind {kind!r}")


def run_job(tl, cli, job, tracer=None, job_index=None):
    """Run one job; returns (wall s, CPU s, ok). Only the call itself is timed."""
    import numpy as np

    if job["kind"] == "cli":
        call, save = (lambda: cli.main(job["argv"])), None
    else:
        call, save = _library_call(tl, job)
    if tracer is not None:
        tracer.counts.clear()
        tracer.job = job_index
    failure = None
    cpu, start = time.process_time(), time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a job that raises counts as failed; the run goes on
        failure = exc
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if tracer is not None:
        tracer.job = None
    if failure is not None:
        print(f"job {job_index}: {type(failure).__name__}: {failure}", file=sys.stderr)
        return wall, cpu, False
    if save is None:
        return wall, cpu, result == 0
    np.savez(job["out"], **save(result))
    return wall, cpu, True


def main(argv):
    jobs_path, result_path, t0 = argv[0], argv[1], float(argv[2])
    if "--baseline" in argv:
        # The same interpreter start, without the program: it tracks how fast
        # the machine starts processes and imports, which set-up is scaled by.
        import numpy  # noqa: F401

        with open(result_path, "w") as fh:
            json.dump({"setup_s": time.monotonic() - t0}, fh)
        return
    probe, trace = "--probe" in argv, "--trace" in argv
    profile = int(argv[argv.index("--profile") + 1]) if "--profile" in argv else 0
    with open(jobs_path) as fh:
        spec = json.load(fh)
    tl, cli = _import_program(spec["src"])
    for job in spec["warmup"]:
        run_job(tl, cli, job)
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s}
    if not probe:
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install(cli)
        profiler = None
        if profile:
            import cProfile

            profiler = cProfile.Profile()
        calibrate()  # the first call is 20-40% slower (cold caches); its time is not used
        walls, cpus, ok, counts, cals = [], [], [], [], []
        for index, job in enumerate(spec["jobs"]):
            cals.append(calibrate())
            if profiler is not None:
                profiler.enable()
            wall, cpu, good = run_job(tl, cli, job, tracer, index)
            if profiler is not None:
                profiler.disable()
            release_free_memory()
            walls.append(wall)
            cpus.append(cpu)
            ok.append(good)
            if tracer is not None:
                counts.append(dict(tracer.counts))
        cals.append(calibrate())
        result.update(job_s=walls, cpu_s=cpus, cal_s=cals, ok=ok,
                      peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            result.update(spans=tracer.spans, counts=counts)
        if profiler is not None:
            import pstats

            pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(profile)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
