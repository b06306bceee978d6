"""Sample-complexity and approximation-quality bounds."""

from __future__ import annotations

import math

from .config import _count, _real
from .errors import NumericalError

__all__ = ["pac_sample_bound", "approximation_ratio"]


# kept for ROADMAP item 20: the Occam bound beside PAC-Bayes over an enumerated class
def pac_sample_bound(epsilon: float, delta: float, hypothesis_count: int, k: float = 0.0) -> int:
    """Samples sufficient to PAC-learn a finite hypothesis class.

    Returns ceil((1/epsilon) * (ln|H| - ln delta + k)), clamped at zero.
    Natural log is used; accuracy epsilon and confidence delta must lie
    in (0, 1]. A bound above the float range raises NumericalError.
    """
    epsilon = _real("pac_sample_bound: epsilon", epsilon, 0, 1, "(]")
    delta = _real("pac_sample_bound: delta", delta, 0, 1, "(]")
    hypothesis_count = _count("pac_sample_bound: hypothesis_count", hypothesis_count, 1)
    k = _real("pac_sample_bound: k", k)
    bound = (math.log(hypothesis_count) - math.log(delta) + k) / epsilon
    if bound == math.inf:  # -inf is below the clamp at zero
        raise NumericalError(f"pac_sample_bound: bound {bound!r} is beyond the float range")
    return math.ceil(max(0.0, bound))


# kept for ROADMAP item 24: Lloyd's cost against the enumerated k-means optimum
def approximation_ratio(cost: float, optimal_cost: float) -> float:
    """Performance ratio max(C/C*, C*/C) of a solution against the optimum.

    Symmetric in its arguments and always >= 1; both costs must be
    strictly positive. A ratio above the float range raises NumericalError.
    """
    cost = _real("approximation_ratio: cost", cost, 0, ends="(]")
    optimal_cost = _real("approximation_ratio: optimal_cost", optimal_cost, 0, ends="(]")
    ratio = max(cost / optimal_cost, optimal_cost / cost)
    if ratio == math.inf:
        raise NumericalError(f"approximation_ratio: ratio {ratio!r} is beyond the float range")
    return ratio
