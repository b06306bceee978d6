"""Entropy, divergence, mutual information and the information-bottleneck
objective on finite distributions.

Everything internal is computed in natural log (nats); base conversion
happens only at the Shannon-entropy API. The convention 0*log(0) = 0 by
continuity applies throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import as_distribution, as_joint
from .config import _real
from .errors import DomainError, NumericalError, ValidationError

__all__ = [
    "entropy_nats",
    "entropy_shannon",
    "entropy_gibbs",
    "kl_divergence",
    "mutual_information",
    "ib_objective",
]


def entropy_nats(dist) -> float:
    """-sum p_i ln p_i, with 0 ln 0 = 0."""
    p = as_distribution(dist).probs
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def entropy_shannon(dist, log_base: float = 2.0) -> float:
    """Shannon entropy -sum p_i log_base(p_i).

    ``log_base`` must exceed 1; base 2 gives bits, base e gives nats.
    """
    return entropy_nats(dist) / math.log(_real("entropy_shannon: log_base", log_base, 1, ends="(]"))


# kept for ROADMAP item 13: F = U - TS from exact counts
def entropy_gibbs(dist, k_B: float = 1.0) -> float:
    """Thermodynamic entropy -k_B sum p_i ln p_i.

    For the uniform distribution over Omega states this equals k_B ln Omega.
    NumericalError when it is beyond the float range.
    """
    k_B = _real("entropy_gibbs: k_B", k_B, 0, ends="(]")
    entropy = k_B * entropy_nats(dist)
    if entropy == math.inf:
        raise NumericalError(f"entropy_gibbs: k_B S overflows a float (k_B = {k_B!r})")
    return entropy


def kl_divergence(q, p) -> float:
    """Kullback-Leibler divergence KL(q || p) = sum q_i ln(q_i / p_i), in nats.

    Requires q absolutely continuous w.r.t. p: any outcome with p_i = 0
    must also have q_i = 0, otherwise a DomainError is raised (rather
    than returning +inf) so callers handle support mismatches explicitly.
    """
    q = as_distribution(q).probs
    p = as_distribution(p).probs
    if q.shape != p.shape:
        raise ValidationError("kl_divergence: distributions must share a support size")
    bad = (p == 0) & (q > 0)
    if np.any(bad):
        raise DomainError(f"kl_divergence: q has mass on outcomes {np.flatnonzero(bad).tolist()} where p is zero")
    mask = q > 0
    return float((q[mask] * (np.log(q[mask]) - np.log(p[mask]))).sum())


def mutual_information(joint) -> float:
    """I = sum_{x,t} p(x,t) ln[ p(x,t) / (p(x) p(t)) ], in nats."""
    joint = as_joint(joint)
    table = joint.table
    px = joint.marginal_rows().probs
    pt = joint.marginal_cols().probs
    rows, cols = np.nonzero(table)
    t = table[rows, cols]
    return float((t * (np.log(t) - np.log(px[rows]) - np.log(pt[cols]))).sum())


def ib_objective(joint_xt, joint_ty, beta: float) -> float:
    """Information-bottleneck value I(X;T) - beta * I(T;Y).

    Trades compression of the representation against the relevance it
    retains; beta >= 0 sets the exchange rate.
    """
    beta = _real("ib_objective: beta", beta, 0)
    return mutual_information(joint_xt) - beta * mutual_information(joint_ty)
