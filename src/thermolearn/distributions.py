"""Finite probability distributions and joint tables.

These two containers are the backbone of every entropy, divergence, and
posterior computation in the package. Validation is strict: entries must
be non-negative and sum to one within ``SUM_TOL``. Every exact Boltzmann
computation normalises through :func:`log_normalize` and enumerates binary
states through :func:`state_bits`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .config import SUM_TOL, _array, _count, _index, _stochastic
from .errors import NumericalError

def log_normalize(log_weights) -> Tuple[np.ndarray, float]:
    """Probabilities exp(w - ln Z) and ln Z over all entries of log-weights w
    of any shape, with one max shift so both stay finite for finite w. An
    entry of -inf is a weight of 0; a largest entry that is not finite
    raises NumericalError."""
    return _log_normalize_inplace("log_normalize", np.array(log_weights, dtype=float))


def _log_normalize_inplace(name: str, log_w: np.ndarray) -> Tuple[np.ndarray, float]:
    # log_normalize on a float array the caller owns, overwritten with the probabilities;
    # a NumericalError names the caller
    m, total = _exp_shifted(name, log_w)
    log_w /= total
    return log_w, m + math.log(total)


def _exp_shifted(name: str, log_w: np.ndarray) -> Tuple[float, float]:
    # the max shift of log_normalize: (the max m of log_w, the sum of exp(w - m)), with
    # log_w overwritten by exp(w - m); a NumericalError names the caller
    m = float(log_w.max())
    if not math.isfinite(m):  # +inf would make the max shift inf - inf, and all -inf leaves no weight
        raise NumericalError(f"{name}: log-weights overflow a float (largest {m!r})")
    with np.errstate(over="ignore"):  # log-weights further apart than the float range: a weight of 0
        log_w -= m
    np.exp(log_w, out=log_w)
    return m, float(log_w.sum())


def partition_value(log_z: float) -> float:
    """Z = exp(ln Z), or NumericalError when Z is beyond the float range."""
    try:
        return math.exp(log_z)
    except OverflowError:
        raise NumericalError(f"partition function exp({log_z!r}) overflows a float") from None


_KEPT_BITS = 12  # widths whose tables state_bits keeps: 90 kB in all
_kept_bits = {}


def state_bits(n_bits: int) -> np.ndarray:
    """Bit i of every state index k in 0..2^n_bits - 1 as uint8 row i, so column k
    is the state that :func:`_pack_bits` maps to k. The table is read-only: up to
    ``_KEPT_BITS`` bits, one table per width is kept and shared by every call."""
    bits = _kept_bits.get(n_bits)
    if bits is None:
        bits = np.zeros((n_bits, 1 << n_bits), dtype=np.uint8)
        for i in range(n_bits):
            bits[i].reshape(-1, 2, 1 << i)[:, 1, :] = 1
        bits.flags.writeable = False
        if n_bits <= _KEPT_BITS:
            _kept_bits[n_bits] = bits
    return bits


def _pack_bits(bits):
    """State index of 0/1 units (any nonzero entry is a 1): bit i is unit i along the last axis.

    One state gives an int, a stack of states an array of indices. Past 63 units the
    indices are Python ints, so they stay exact at any width.
    """
    bits = np.asarray(bits, dtype=bool)
    weights = 1 << np.arange(bits.shape[-1], dtype=object if bits.shape[-1] > 63 else np.int64)
    index = bits @ weights
    return int(index) if bits.ndim == 1 else index


def _unpack_bits(index: int, n_bits: int) -> np.ndarray:
    """The uint8 units 0..n_bits-1 of a state index, the inverse of :func:`_pack_bits`."""
    raw = operator.index(index).to_bytes(-(-n_bits // 8), "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n_bits, bitorder="little")


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability vector over a finite outcome set."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _stochastic("DiscreteDistribution: probs", self.probs))

    def __len__(self):
        return self.probs.size

    def __getitem__(self, i):
        return float(self.probs[i])

    @classmethod
    def uniform(cls, n: int) -> "DiscreteDistribution":
        n = _count("DiscreteDistribution.uniform: n", n, 1)
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, index: int, n: int) -> "DiscreteDistribution":
        probs = np.zeros(_count("DiscreteDistribution.point_mass: n", n, 1))
        probs[_index("DiscreteDistribution.point_mass: index", index, n)] = 1.0
        return cls(probs)


def as_distribution(dist) -> DiscreteDistribution:
    """Coerce an array-like of probabilities into a validated distribution."""
    if isinstance(dist, DiscreteDistribution):
        return dist
    return DiscreteDistribution(dist)


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability table over outcome pairs, rows = X, columns = T."""

    table: np.ndarray = field()

    def __post_init__(self):
        table = _array("JointDistribution: table", self.table, (None, None))
        _stochastic("JointDistribution: table", table.reshape(-1))
        object.__setattr__(self, "table", table)

    @property
    def shape(self):
        return self.table.shape

    def marginal_rows(self) -> DiscreteDistribution:
        """Marginal over the row variable (sum over columns)."""
        return DiscreteDistribution(self.table.sum(axis=1))

    def marginal_cols(self) -> DiscreteDistribution:
        """Marginal over the column variable (sum over rows)."""
        return DiscreteDistribution(self.table.sum(axis=0))


def as_joint(joint) -> JointDistribution:
    if isinstance(joint, JointDistribution):
        return joint
    return JointDistribution(joint)
