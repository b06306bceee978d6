"""Output checks, run by the parent after the worker has exited.

Every check compares an output against an oracle in ``oracles.py`` or
against a property the method must have; none compares against a stored
copy of earlier outputs. ``check_job`` returns a list of problems (empty
means the job's outputs are right) and a dict of facts the run reports
(such as whether a digest instance was solved).

Statistical tolerances (see README for their false-failure rates):
sampled means must lie within ``Z_TOL`` batch-means standard errors of
the exact value, and boosting errors within ``Z_TOL`` binomial standard
deviations of the closed form.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

import oracles

Z_TOL = 8.0
EXACT_RTOL = 1e-9
GIBBS_BURN_IN = 1_000
DIGEST_SOLVED_FLOOR = 0.5  # share of a run's digest jobs that must reach energy 0


def _close(got, want, rtol=EXACT_RTOL):
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _read_manifest(out):
    """Problems with the manifest: every artifact present, hashed right, nothing extra."""
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    problems = []
    artifacts = manifest["artifacts"]
    on_disk = set(os.listdir(out)) - {"manifest.json"}
    if on_disk != set(artifacts):
        problems.append(f"artifacts on disk {sorted(on_disk)} != manifest {sorted(artifacts)}")
    for name, digest in artifacts.items():
        path = os.path.join(out, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != digest:
                    problems.append(f"sha256 of {name} does not match the manifest")
    return problems


def _trace_energies(out, fmt):
    if fmt == "json":
        with open(os.path.join(out, "trace.json")) as fh:
            columns = json.load(fh)["columns"]
        return np.asarray(columns["step"]), np.asarray(columns["energy"], dtype=float)
    with open(os.path.join(out, "trace.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    col = {name: i for i, name in enumerate(rows[0])}
    body = rows[1:]
    return (np.array([int(r[col["step"]]) for r in body]),
            np.array([float(r[col["energy"]]) for r in body]))


def _check_ising(job, out):
    meta = job["meta"]
    problems = _read_manifest(out)
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    beta, steps, n = meta["beta"], meta["steps"], meta["n_sites"]
    if meta["graph"] == "ring":
        z, mean_e = oracles.ring_transfer(n, meta["coupling"], meta["field"], beta)
    else:
        z, mean_e = oracles.graph_enumeration(n, meta["edges"], meta["fields"], beta)
    if n <= 20:
        if "partition_z" not in result or not _close(result["partition_z"], z):
            problems.append(f"partition_z {result.get('partition_z')} != exact {z}")
    step, energy = _trace_energies(out, meta["format"])
    if len(step) != steps or not np.array_equal(step, np.arange(steps)):
        problems.append(f"trace has {len(step)} rows, expected steps = {steps}")
        return problems, {}
    sampled = energy[steps // 10:]
    if not abs(result["mean_energy"] - sampled.mean()) <= 1e-6 * max(1.0, abs(sampled.mean())):
        problems.append("result mean_energy disagrees with the trace energies")
    se = oracles.batch_means_se(sampled)
    zscore = abs(result["mean_energy"] - mean_e) / se if se > 0 else math.inf
    if zscore > Z_TOL:
        problems.append(f"mean_energy {result['mean_energy']} vs exact {mean_e}: {zscore:.1f} SE")
    return problems, {"z": zscore}


def _check_digest(job, out):
    meta = job["meta"]
    problems = _read_manifest(out)
    with open(os.path.join(out, "result.json")) as fh:
        result = json.load(fh)
    sigma, mu = result["best_sigma"], result["best_mu"]
    if sorted(sigma) != list(range(len(meta["a"]))) or sorted(mu) != list(range(len(meta["b"]))):
        return problems + ["best_sigma/best_mu are not permutations"], {}
    implied = oracles.digest_implied(meta["a"], meta["b"], sigma, mu)
    if result["implied_fragments"] != implied.tolist():
        problems.append(f"implied_fragments {result['implied_fragments']} != recomputed {implied.tolist()}")
    energy = oracles.digest_energy(meta["a"], meta["b"], meta["c"], sigma, mu)
    if not abs(energy - result["best_energy"]) <= 1e-9:
        problems.append(f"best_energy {result['best_energy']} != recomputed {energy}")
    return problems, {"solved": result["best_energy"] == 0.0}


def _binomial_ok(err, p, n):
    return abs(err - p) <= Z_TOL * math.sqrt(p * (1 - p) / n)


def _check_library(job, inputs, out):
    kind, p = job["kind"], job["params"]
    problems = []
    if kind == "conv_fft":
        want = oracles.linear_convolution(inputs["x"], inputs["y"])
        got = out["z"]
        if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9 * max(1.0, np.max(np.abs(want))):
            problems.append("conv_fft differs from the np.fft convolution")
    elif kind == "boost3":
        ys, n = inputs["ys"], len(inputs["ys"])
        p1, p2, p3, vote = out["p1"], out["p2"], out["p3"], out["vote"]
        w = np.full(n, 1.0 / n)
        wrong1 = p1 != ys
        risk = w[wrong1].sum()
        w2 = w * np.where(wrong1, 0.5 / risk, 0.5 / (1 - risk))
        dis = p1 != p2
        w3 = np.where(dis, w / w[dis].sum(), 0.0)
        recomputed = [risk, w2[p2 != ys].sum(), w3[p3 != ys].sum(), w[vote != ys].sum(),
                      oracles.vote_error(0.5 - p["gamma"])]
        if not np.allclose(out["diag"], recomputed, rtol=1e-12, atol=1e-12):
            problems.append(f"boost3 diagnostics {out['diag'].tolist()} != recomputed {recomputed}")
        if not np.array_equal(vote, (p1.astype(int) + p2 + p3 >= 2).astype(vote.dtype)):
            problems.append("boost3 vote is not the majority of its voters")
        if not _binomial_ok(recomputed[3], recomputed[4], n):
            problems.append(f"boost3 final error {recomputed[3]} far from 3p^2-2p^3 = {recomputed[4]}")
    elif kind == "boost_recursive":
        ys = inputs["ys"]
        err = float(np.mean(out["vote"] != ys))
        want = oracles.boosted_error(p["gamma"], 2)
        if not _binomial_ok(err, want, len(ys)):
            problems.append(f"boost_recursive error {err} far from the depth-2 closed form {want}")
    elif kind == "bm_train":
        losses = out["losses"]
        final = oracles.bm_nll(out["a"], out["b"], out["W"], inputs["data"])
        initial = oracles.bm_nll(inputs["a"], inputs["b"], inputs["W"], inputs["data"])
        if len(losses) != p["epochs"] or not _close(losses[-1], final):
            problems.append(f"final NLL {losses[-1] if len(losses) else None} != enumeration {final}")
        if not final < initial:
            problems.append(f"training did not lower the NLL: {initial} -> {final}")
    elif kind == "bm_gibbs_sample":
        pv, ph = oracles.bm_marginals(inputs["a"], inputs["b"], inputs["W"])
        for name, traj, exact in (("visible", out["visible"], pv), ("hidden", out["hidden"], ph)):
            kept = traj[GIBBS_BURN_IN:].astype(float)
            for i in range(kept.shape[1]):
                se = oracles.batch_means_se(kept[:, i])
                if abs(kept[:, i].mean() - exact[i]) > Z_TOL * se + 1e-12:
                    problems.append(f"Gibbs {name}[{i}] marginal {kept[:, i].mean():.4f} vs exact {exact[i]:.4f}")
    elif kind == "run_ising_game":
        mags, spins = out["magnetization"], out["final_spins"]
        if len(mags) != p["episodes"] or np.any(mags < 0) or np.any(mags > 1):
            problems.append("MARL magnetizations outside [0, 1] or wrong length")
        if not np.all(np.abs(spins) == 1) or not _close(mags[-1], abs(spins.mean())):
            problems.append("MARL final magnetization does not match the final spins")
    return problems, {}


def check_job(job):
    """(problems, facts) for one finished job."""
    if job["kind"] == "cli":
        subcommand = job["argv"][0]
        check = _check_ising if subcommand == "ising" else _check_digest
        return check(job, job["out"])
    with np.load(job["inputs"]) as inputs, np.load(job["out"]) as out:
        return _check_library(job, dict(inputs), dict(out))


def check_run(jobs, ok):
    """Problems across a whole run, plus the per-job ones. A job that failed is a problem in itself."""
    problems, solved = [], []
    for index, (job, good) in enumerate(zip(jobs, ok)):
        if not good:
            problems.append(f"job {index} ({job['kind']}) failed: it raised or exited non-zero")
            continue
        job_problems, facts = check_job(job)
        problems += [f"job {index} ({job['kind']}): {text}" for text in job_problems]
        if "solved" in facts:
            solved.append(facts["solved"])
    if solved and sum(solved) < DIGEST_SOLVED_FLOOR * len(solved):
        problems.append(f"only {sum(solved)}/{len(solved)} digest instances solved (floor {DIGEST_SOLVED_FLOOR:.0%})")
    return problems
