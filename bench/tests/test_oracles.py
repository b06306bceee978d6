"""Each benchmark oracle against an itertools brute force on tiny cases.

    python3 -m pytest bench/tests
"""

import itertools
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import jobs  # noqa: E402
import oracles  # noqa: E402


def brute_ising(n, edges, fields, beta):
    z = weighted = 0.0
    for spins in itertools.product((-1, 1), repeat=n):
        energy = -sum(J * spins[i] * spins[j] for i, j, J in edges) - sum(h * s for h, s in zip(fields, spins))
        w = math.exp(-beta * energy)
        z += w
        weighted += w * energy
    return z, weighted / z


@pytest.mark.parametrize("n,coupling,field,beta", [
    (3, 1.0, 0.0, 0.5), (4, 0.7, 0.25, 0.9), (5, -1.2, 0.1, 0.4), (8, 0.5, -0.3, 1.3), (10, 1.0, 0.3, 0.2),
])
def test_ring_transfer_matches_brute_force(n, coupling, field, beta):
    z, mean_e = oracles.ring_transfer(n, coupling, field, beta)
    z_bf, mean_bf = brute_ising(n, oracles.ring_edges(n, coupling), [field] * n, beta)
    assert z == pytest.approx(z_bf, rel=1e-12)
    assert mean_e == pytest.approx(mean_bf, rel=1e-10, abs=1e-12)


def test_graph_enumeration_matches_brute_force():
    gen = np.random.default_rng(0)
    edges = [(i, j, float(gen.uniform(-1, 1))) for i, j in jobs.torus_edges(3)]
    fields = gen.uniform(-0.3, 0.3, 9).tolist()
    z, mean_e = oracles.graph_enumeration(9, edges, fields, 0.7)
    z_bf, mean_bf = brute_ising(9, edges, fields, 0.7)
    assert z == pytest.approx(z_bf, rel=1e-12)
    assert mean_e == pytest.approx(mean_bf, rel=1e-10)


def test_torus_edges_give_degree_four():
    degree = np.zeros(16, dtype=int)
    for i, j in jobs.torus_edges(4):
        degree[i] += 1
        degree[j] += 1
    assert len(jobs.torus_edges(4)) == 32 and set(degree) == {4}


def brute_digest_energy(a, b, c, sigma, mu):
    cuts = set(itertools.accumulate(a[i] for i in sigma)) | set(itertools.accumulate(b[i] for i in mu)) | {0}
    pos = sorted(cuts)
    implied = sorted(y - x for x, y in zip(pos, pos[1:]))
    observed = sorted(c)
    width = max(len(implied), len(observed))
    obs = [None] * (width - len(observed)) + observed  # padding on the observed side is not summed
    imp = [0] * (width - len(implied)) + implied
    return sum((o - i) ** 2 / o for o, i in zip(obs, imp) if o is not None)


def test_digest_energy_matches_brute_force_and_reaches_zero():
    gen = np.random.default_rng(3)
    for _ in range(5):
        a, b, c = jobs.digest_instance(gen, 3, 4, 20)
        energies = [
            (oracles.digest_energy(a, b, c, s, m), brute_digest_energy(a, b, c, s, m))
            for s in itertools.permutations(range(len(a)))
            for m in itertools.permutations(range(len(b)))
        ]
        for got, want in energies:
            assert got == pytest.approx(want, abs=1e-12)
        assert min(e for e, _ in energies) == 0.0


def test_linear_convolution_matches_direct_sum():
    gen = np.random.default_rng(1)
    x, y = gen.uniform(-1, 1, 7), gen.uniform(-1, 1, 5)
    direct = np.zeros(11)
    for (i, xi), (j, yj) in itertools.product(enumerate(x), enumerate(y)):
        direct[i + j] += xi * yj
    assert np.max(np.abs(oracles.linear_convolution(x, y) - direct)) < 1e-14


def brute_bm(a, b, W):
    """{(v, h): weight} and Z by listing every joint state."""
    weights = {}
    for v in itertools.product((0, 1), repeat=len(a)):
        for h in itertools.product((0, 1), repeat=len(b)):
            energy = -np.dot(a, v) - np.dot(b, h) - np.array(v) @ W @ np.array(h)
            weights[(v, h)] = math.exp(-energy)
    return weights, sum(weights.values())


def test_bm_nll_and_marginals_match_brute_force():
    gen = np.random.default_rng(2)
    a, b, W = gen.normal(0, 1, 3), gen.normal(0, 1, 2), gen.normal(0, 1, (3, 2))
    data = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 1], [1, 0, 1]])
    weights, z = brute_bm(a, b, W)
    p_v = {v: sum(w for (vv, _), w in weights.items() if vv == v) / z for v in itertools.product((0, 1), repeat=3)}
    nll = -np.mean([math.log(p_v[tuple(row)]) for row in data])
    assert oracles.bm_nll(a, b, W, data) == pytest.approx(nll, rel=1e-12)
    pv, ph = oracles.bm_marginals(a, b, W)
    want_v = [sum(w for (v, _), w in weights.items() if v[i]) / z for i in range(3)]
    want_h = [sum(w for (_, h), w in weights.items() if h[j]) / z for j in range(2)]
    assert np.allclose(pv, want_v, rtol=1e-12) and np.allclose(ph, want_h, rtol=1e-12)


def brute_vote_error(p, depth):
    """Error of a depth-d tree of three-way majority votes over 3^d independent voters."""
    n = 3**depth
    total = 0.0
    for flips in itertools.product((0, 1), repeat=n):
        layer = list(flips)
        while len(layer) > 1:
            layer = [int(sum(layer[i:i + 3]) >= 2) for i in range(0, len(layer), 3)]
        if layer[0]:
            total += p ** sum(flips) * (1 - p) ** (n - sum(flips))
    return total


@pytest.mark.parametrize("gamma", [0.0, 0.1, 0.25])
def test_boosting_closed_form_matches_brute_force(gamma):
    assert oracles.vote_error(0.5 - gamma) == pytest.approx(brute_vote_error(0.5 - gamma, 1), abs=1e-15)
    assert oracles.boosted_error(gamma, 2) == pytest.approx(brute_vote_error(0.5 - gamma, 2), abs=1e-15)


def test_batch_means_se_of_constant_batches():
    series = np.repeat([1.0, 3.0], 50)  # two batches, means 1 and 3
    assert oracles.batch_means_se(series, n_batches=2) == pytest.approx(math.sqrt(2.0) / math.sqrt(2))


def test_conv_check_flags_a_wrong_output():
    gen = np.random.default_rng(4)
    inputs = {"x": gen.uniform(-1, 1, 64), "y": gen.uniform(-1, 1, 64)}
    right = oracles.linear_convolution(inputs["x"], inputs["y"])
    job = {"kind": "conv_fft", "params": {"n": 128}}
    assert checks._check_library(job, inputs, {"z": right})[0] == []
    wrong = right.copy()
    wrong[10] += 1e-6
    assert checks._check_library(job, inputs, {"z": wrong})[0]


def test_a_failed_job_fails_the_run():
    # a failed job leaves no outputs to check, so the run must not pass on it
    problems = checks.check_run([{"kind": "cli", "argv": ["digest"]}], [False])
    assert problems and "failed" in problems[0]
