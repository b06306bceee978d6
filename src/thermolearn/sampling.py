"""Importance sampling and empirical central-limit checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import _array, _count, _problem, _real
from .errors import DomainError, NumericalError
from .rng import RngStream

__all__ = [
    "WeightedSample",
    "importance_estimate",
    "Bernoulli",
    "UniformReal",
    "Exponential",
    "clt_standardized_sums",
]


@dataclass(frozen=True)
class WeightedSample:
    """A draw from the proposal together with its importance ratio p(x)/q(x)."""

    value: float
    weight: float

    def __post_init__(self):
        _real("WeightedSample: weight", self.weight, 0)


def importance_estimate(h_values, p_densities, q_densities) -> float:
    """Estimate E_p[h(x)] from samples drawn under the proposal q.

    Returns (1/N) sum h(x_i) p(x_i)/q(x_i). All q densities must be
    strictly positive; when p and q coincide this reduces bit-exactly to
    the plain Monte Carlo mean of h. A ratio p/q, a term or the mean beyond
    the float range raises NumericalError; when only the sum of the terms
    overflows, the mean is taken over the terms scaled by 2^-k, 2^k >= N.
    """
    h = _array("importance_estimate: h_values", h_values)
    p = _array("importance_estimate: p_densities", p_densities, h.shape)
    q = _array("importance_estimate: q_densities", q_densities, h.shape)
    if np.any(q <= 0):
        raise DomainError("importance_estimate: proposal density must be strictly positive at every sample")
    if np.any(p < 0):
        raise DomainError("importance_estimate: target density must be non-negative")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or a nan (0 * inf, inf - inf) is checked below
        terms = h * (p / q)
        estimate = float(np.mean(terms))
        if not math.isfinite(estimate) and np.isfinite(terms).all():  # only the sum overflowed
            scale = (terms.size - 1).bit_length()
            estimate = float(np.ldexp(np.mean(np.ldexp(terms, -scale)), scale))
    if not math.isfinite(estimate):
        raise NumericalError(f"importance_estimate: a ratio p/q, a term or the mean is beyond the float range ({estimate!r})")
    return estimate


@dataclass(frozen=True)
class Bernoulli:
    """Two-point sampler on {0, 1}."""

    p: float = 0.5

    def __post_init__(self):
        _real("Bernoulli: p", self.p, 0, 1)

    @property
    def mean(self):
        return self.p

    @property
    def variance(self):
        return self.p * (1.0 - self.p)

    def sample(self, rng: RngStream, size):
        return (rng.generator.random(size) < self.p).astype(float)


@dataclass(frozen=True)
class UniformReal:
    """Uniform sampler on [low, high)."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        _real("UniformReal: high", self.high, _real("UniformReal: low", self.low), ends="(]")

    @property
    def mean(self):
        return 0.5 * (self.low + self.high)

    @property
    def variance(self):
        return (self.high - self.low) ** 2 / 12.0

    def sample(self, rng: RngStream, size):
        return rng.generator.uniform(self.low, self.high, size)


@dataclass(frozen=True)
class Exponential:
    """Exponential sampler with the given rate."""

    rate: float = 1.0

    def __post_init__(self):
        _real("Exponential: rate", self.rate, 0, ends="(]")

    @property
    def mean(self):
        return 1.0 / self.rate

    @property
    def variance(self):
        return 1.0 / self.rate**2

    def sample(self, rng: RngStream, size):
        return rng.generator.exponential(1.0 / self.rate, size)


def clt_standardized_sums(sampler, n: int, reps: int, rng: RngStream) -> np.ndarray:
    """Draw ``reps`` standardized sums (S_n - n mu) / (sigma sqrt(n)).

    As ``reps`` grows the empirical mean tends to 0 and the variance to 1;
    as ``n`` grows the whole empirical law approaches a standard normal.
    """
    n, reps = _count("clt_standardized_sums: n", n, 1), _count("clt_standardized_sums: reps", reps, 1)
    mu = float(sampler.mean)
    var = float(sampler.variance)
    if _problem(var, 0, ends="(]") or _problem(mu):
        raise DomainError("clt_standardized_sums: sampler needs finite mean and positive variance")
    sums = sampler.sample(rng, (reps, n)).sum(axis=1)
    return (sums - n * mu) / (math.sqrt(var) * math.sqrt(n))
