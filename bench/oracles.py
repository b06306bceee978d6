"""Exact answers computed apart from the program (numpy only, no thermolearn).

Each oracle is checked against an itertools brute force in
``bench/tests/test_oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np


def _logsumexp(values: np.ndarray) -> float:
    m = float(values.max())
    return m + math.log(float(np.exp(values - m).sum()))


def ring_transfer(n: int, coupling: float, field: float, beta: float):
    """(Z, <E>) of a periodic ring of n >= 3 sites by the transfer matrix.

    E(s) = -J sum_i s_i s_{i+1} - h sum_i s_i. The symmetric transfer matrix
    has eigenvalues lam_pm = e^{bJ} cosh(bh) +- sqrt(e^{2bJ} sinh^2(bh) + e^{-2bJ}),
    so Z = lam_+^n + lam_-^n and <E> = -d ln Z / d beta, taken analytically.
    """
    J, h, b = coupling, field, beta
    ej, emj = math.exp(b * J), math.exp(-b * J)
    ch, sh = math.cosh(b * h), math.sinh(b * h)
    root = math.sqrt(ej * ej * sh * sh + emj * emj)
    lam_p, lam_m = ej * ch + root, ej * ch - root
    d_center = ej * (J * ch + h * sh)
    d_root = (J * ej * ej * sh * sh + h * ej * ej * sh * ch - J * emj * emj) / root
    d_p, d_m = d_center + d_root, d_center - d_root
    r = lam_m / lam_p
    z = lam_p**n * (1.0 + r**n)
    dlnz = n * (d_p / lam_p + r ** (n - 1) * d_m / lam_p) / (1.0 + r**n)
    return z, -dlnz


def spin_table(n: int) -> np.ndarray:
    """All 2^n configurations as rows of -1/+1, bit i of the row index = site i."""
    idx = np.arange(1 << n, dtype=np.int64)[:, None]
    return (((idx >> np.arange(n)) & 1) * 2 - 1).astype(np.float64)


def graph_enumeration(n: int, edges, fields, beta: float):
    """(Z, <E>) of E(s) = -sum J_ij s_i s_j - sum h_i s_i by summing all 2^n states."""
    s = spin_table(n)
    energy = -(s @ np.asarray(fields, dtype=float))
    for i, j, coupling in edges:
        energy -= coupling * s[:, i] * s[:, j]
    log_w = -beta * energy
    log_z = _logsumexp(log_w)
    p = np.exp(log_w - log_z)
    return math.exp(log_z), float(p @ energy)


def ring_edges(n: int, coupling: float):
    return [(i, (i + 1) % n, coupling) for i in range(n)]


def digest_implied(a, b, sigma, mu) -> np.ndarray:
    """Fragments implied by the ordering (sigma, mu), ascending.

    Cuts are the prefix sums of a[sigma] and b[mu] plus both ends; the
    implied fragments are the gaps between the distinct cuts.
    """
    cuts = np.union1d(np.cumsum(np.asarray(a)[list(sigma)]), np.cumsum(np.asarray(b)[list(mu)]))
    return np.sort(np.diff(np.union1d(cuts, [0])))


def digest_energy(a, b, c, sigma, mu) -> float:
    """Double-digest energy of the ordering (sigma, mu), from prefix-sum cuts.

    With the observed and implied multisets ascending and the shorter one
    front-padded with zeros, H = sum over observed c_j of (c_j - implied_j)^2 / c_j.
    """
    implied = digest_implied(a, b, sigma, mu)
    observed = np.sort(np.asarray(c))
    width = max(observed.size, implied.size)
    obs = np.concatenate([np.zeros(width - observed.size), observed])
    imp = np.concatenate([np.zeros(width - implied.size), implied])
    keep = obs > 0
    return float(np.sum((obs[keep] - imp[keep]) ** 2 / obs[keep]))


def linear_convolution(x, y) -> np.ndarray:
    """Linear convolution through numpy's FFT, zero-padded past len(x) + len(y) - 1."""
    out_len = len(x) + len(y) - 1
    size = 1 << (out_len - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:out_len]


def bm_joint(a, b, W):
    """(visible states, hidden states, log p(v, h)) over all joint states of a 0/1 machine."""
    n_v, n_h = len(a), len(b)
    V = (spin_table(n_v) + 1) / 2
    H = (spin_table(n_h) + 1) / 2
    neg_energy = (V @ a)[:, None] + (H @ b)[None, :] + V @ W @ H.T
    return V, H, neg_energy - _logsumexp(neg_energy.ravel())


def bm_nll(a, b, W, data) -> float:
    """Mean negative log-likelihood of the visible rows, by enumeration."""
    V, _, log_p = bm_joint(np.asarray(a), np.asarray(b), np.asarray(W))
    m = log_p.max(axis=1, keepdims=True)
    log_pv = (m + np.log(np.exp(log_p - m).sum(axis=1, keepdims=True))).ravel()
    rows = np.asarray(data, dtype=np.int64) @ (1 << np.arange(len(a)))
    return float(-log_pv[rows].mean())


def bm_marginals(a, b, W):
    """(P(v_i = 1), P(h_j = 1)) by enumeration."""
    V, H, log_p = bm_joint(np.asarray(a), np.asarray(b), np.asarray(W))
    p = np.exp(log_p)
    return p.sum(axis=1) @ V, p.sum(axis=0) @ H


def vote_error(p: float) -> float:
    """Error of a majority of three voters that each err independently with probability p."""
    return 3.0 * p * p - 2.0 * p**3


def boosted_error(gamma: float, depth: int) -> float:
    """Expected error after ``depth`` nested three-way votes over a learner with advantage gamma."""
    p = 0.5 - gamma
    for _ in range(depth):
        p = vote_error(p)
    return p


def batch_means_se(series, n_batches: int = 20) -> float:
    """Standard error of the mean of a correlated series, by batch means."""
    x = np.asarray(series, dtype=float)
    per = x.size // n_batches
    means = x[: per * n_batches].reshape(n_batches, per).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))
