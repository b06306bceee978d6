"""Importance sampling."""

from __future__ import annotations

import math

import numpy as np

from .config import _array
from .errors import DomainError, NumericalError

__all__ = ["importance_estimate"]


# kept for ROADMAP item 7: annealed importance sampling against exact ln Z
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
