"""Per-layer metrics from the spans and counts of a traced run.

``PER_LAYER`` maps each metric to its unit; the README says which
workload's traced jobs it comes from and which end-to-end metric it should
move. A span's self time is its duration minus the time
covered by its direct child spans.
"""

from __future__ import annotations

import math
import os
import statistics

PER_LAYER = {
    "ising.metropolis_chain.steps_per_s": "steps/s",
    "ising.metropolis_chain.self_ms": "ms/job",
    "ising.samples_mb": "MB/job",
    "ising.estimate_observables.ms": "ms/job",
    "ising.partition_exact.ms": "ms/job",
    "trace.csv_text.rows_per_s": "rows/s",
    "trace.artifact_kb": "kB/job",
    "cli.run_experiment.self_ms": "ms/job",
    "anneal.anneal.proposals_per_s": "proposals/s",
    "anneal.anneal.self_ms": "ms/job",
    "digest.energy_calls": "calls/job",
    "anneal.sweeps_after_best": "sweeps/job",
    "convolution.conv_fft.ms.n4096": "ms",
    "convolution.conv_fft.ms.n16384": "ms",
    "convolution.conv_fft.ms.n65536": "ms",
    "convolution.conv_fft.mflops": "Mflop/s",
    "boost.boost3.ms": "ms/job",
    "boost.boost_recursive.ms": "ms/job",
    "boost.predict_calls": "calls/job",
    "ebm.bm_train.epochs_per_s.exact_gradient": "epochs/s",
    "ebm.bm_train.epochs_per_s.cd_k": "epochs/s",
    "ebm.bm_log_likelihood.ms": "ms/call",
    "ebm.bm_gibbs_sample.steps_per_s": "steps/s",
    "marl.run_ising_game.agent_steps_per_s": "agent-steps/s",
    "process.cpu_share": "cpu_s/wall_s",
}


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent, job, info in spans:
            if parent >= 0:
                child[parent] += end - start
        self.child = child

    def named(self, name, top_level=False):
        for index, span in enumerate(self.spans):
            if span[0] == name and not (top_level and span[3] >= 0):
                yield span[2] - span[1], span[2] - span[1] - self.child[index], span[5] or {}


def _artifact_bytes(job):
    return sum(os.path.getsize(os.path.join(job["out"], f))
               for f in os.listdir(job["out"]) if f.startswith("trace."))


def per_layer(traced, named):
    """Metrics from ``traced``: workload -> (jobs, worker result); ``named`` gives process.cpu_share."""
    chain, digest, learn = (_Spans(traced[w][1]["spans"]) for w in ("chain", "digest", "learn"))
    n_chain, n_digest = len(traced["chain"][0]), len(traced["digest"][0])
    m = {}

    mc = list(chain.named("ising.metropolis_chain"))
    m["ising.metropolis_chain.steps_per_s"] = sum(i["steps"] for _, _, i in mc) / sum(d for d, _, _ in mc)
    m["ising.metropolis_chain.self_ms"] = 1e3 * sum(s for _, s, _ in mc) / n_chain
    m["ising.samples_mb"] = sum(i["samples_bytes"] for _, _, i in mc) / 1e6 / n_chain
    m["ising.estimate_observables.ms"] = 1e3 * sum(d for d, _, _ in chain.named("ising.estimate_observables")) / n_chain
    exact = list(chain.named("ising.partition_exact"))
    m["ising.partition_exact.ms"] = 1e3 * sum(d for d, _, _ in exact) / len(exact)
    csv = list(chain.named("trace.csv_text"))
    m["trace.csv_text.rows_per_s"] = sum(i["rows"] for _, _, i in csv) / sum(d for d, _, _ in csv)
    m["trace.artifact_kb"] = sum(_artifact_bytes(job) for job in traced["chain"][0]) / 1e3 / n_chain
    runner = list(chain.named("cli.run_experiment")) + list(digest.named("cli.run_experiment"))
    m["cli.run_experiment.self_ms"] = 1e3 * sum(s for _, s, _ in runner) / (n_chain + n_digest)

    an = list(digest.named("anneal.anneal"))
    m["anneal.anneal.proposals_per_s"] = sum(i["proposals"] for _, _, i in an) / sum(d for d, _, _ in an)
    m["anneal.anneal.self_ms"] = 1e3 * sum(s for _, s, _ in an) / n_digest
    counts = traced["digest"][1]["counts"]
    m["digest.energy_calls"] = sum(c.get("digest.energy_calls", 0) for c in counts) / n_digest
    m["anneal.sweeps_after_best"] = sum(i["sweeps_after_best"] for _, _, i in an) / n_digest

    conv = list(learn.named("convolution.conv_fft"))
    for n in (4096, 16384, 65536):
        m[f"convolution.conv_fft.ms.n{n}"] = 1e3 * statistics.median(d for d, _, i in conv if i["n"] == n)
    flops = sum(3 * 5 * i["n"] * math.log2(i["n"]) for _, _, i in conv)
    m["convolution.conv_fft.mflops"] = flops / sum(d for d, _, _ in conv) / 1e6
    for name in ("boost.boost3", "boost.boost_recursive"):
        top = [d for d, _, _ in learn.named(name, top_level=True)]
        m[f"{name}.ms"] = 1e3 * sum(top) / len(top)
    learn_jobs, learn_result = traced["learn"]
    boost_counts = [c.get("boost.predict_calls", 0) for job, c in zip(learn_jobs, learn_result["counts"])
                    if job["kind"].startswith("boost")]
    m["boost.predict_calls"] = sum(boost_counts) / len(boost_counts)
    train = list(learn.named("ebm.bm_train"))
    for method in ("exact_gradient", "cd_k"):
        runs = [(d, i["epochs"]) for d, _, i in train if i["method"] == method]
        m[f"ebm.bm_train.epochs_per_s.{method}"] = sum(e for _, e in runs) / sum(d for d, _ in runs)
    ll = [d for d, _, _ in learn.named("ebm.bm_log_likelihood")]
    m["ebm.bm_log_likelihood.ms"] = 1e3 * sum(ll) / len(ll)
    gibbs = list(learn.named("ebm.bm_gibbs_sample"))
    m["ebm.bm_gibbs_sample.steps_per_s"] = sum(i["steps"] for _, _, i in gibbs) / sum(d for d, _, _ in gibbs)
    game = list(learn.named("marl.run_ising_game"))
    m["marl.run_ising_game.agent_steps_per_s"] = sum(i["agent_steps"] for _, _, i in game) / sum(d for d, _, _ in game)

    result = traced[named][1]
    m["process.cpu_share"] = sum(result["cpu_s"]) / sum(result["job_s"])
    return {name: {"value": value, "unit": PER_LAYER[name]} for name, value in m.items()}
