"""Weak-to-strong learning by three-hypothesis voting.

A weak learner only promises weighted error at most 1/2 - gamma on
whatever distribution it is trained on. Training three hypotheses on
carefully modified distributions (rebalance around the first's mistakes,
then concentrate on the first two's disagreements) and taking a majority
vote drives the error down to 3p^2 - 2p^3 with p = 1/2 - gamma, and
recursing on that construction pushes it below any target.

Distributions are explicit per-item weights; nothing is resampled, so
the whole pipeline is deterministic given the weak learner.
"""

from __future__ import annotations

import csv
import io
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .config import _array, _read_text, _real
from .distributions import DiscreteDistribution
from .errors import ConvergenceError, DegenerateSplitError, ValidationError
from .rng import RngStream

__all__ = [
    "WeightedDataset",
    "Hypothesis",
    "WeakLearner",
    "ThresholdHypothesis",
    "TableHypothesis",
    "MajorityVoteHypothesis",
    "NoisyThresholdLearner",
    "empirical_risk",
    "reweight_d2",
    "reweight_d3",
    "boost3",
    "Boost3Diagnostics",
    "boost_error_bound",
    "boost_recursion_depth",
    "boost_recursive",
    "load_dataset",
    "dump_dataset",
]


@dataclass(frozen=True)
class WeightedDataset:
    """Labeled items (x_i, y_i) with a probability weight per item; labels
    are 0 or 1."""

    xs: np.ndarray
    ys: np.ndarray
    weights: DiscreteDistribution

    def __post_init__(self):
        xs = _array("WeightedDataset: xs", self.xs)
        ys = _array("WeightedDataset: ys", self.ys, xs.shape, 0, 1, dtype=np.int8)
        weights = self.weights
        if not isinstance(weights, DiscreteDistribution):
            weights = DiscreteDistribution(weights)
        if len(weights) != xs.size:
            raise ValidationError("WeightedDataset: one weight per item required")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.xs.size

    @classmethod
    def uniform(cls, xs, ys) -> "WeightedDataset":
        xs = _array("WeightedDataset.uniform: xs", xs)
        return cls(xs, ys, DiscreteDistribution.uniform(xs.size))

    def reweighted(self, weights) -> "WeightedDataset":
        return WeightedDataset(self.xs, self.ys, weights)


class Hypothesis(ABC):
    """Deterministic binary classifier: same x always gets the same label.

    ``predict_many`` labels a whole array of items as int8; ``predict``
    labels one item through it.
    """

    @abstractmethod
    def predict_many(self, xs) -> np.ndarray: ...

    def predict(self, x) -> int:
        return int(self.predict_many([x])[0])


class WeakLearner(ABC):
    """Trainer contracted to reach weighted error <= 1/2 - gamma on the
    distribution it is handed; ``gamma`` is that advantage."""

    gamma: float

    @abstractmethod
    def train(self, dataset: WeightedDataset, rng: RngStream) -> Hypothesis: ...


class ThresholdHypothesis(Hypothesis):
    """Predicts 1 iff x >= threshold."""

    def __init__(self, threshold: float):
        self.threshold = float(threshold)

    def predict_many(self, xs) -> np.ndarray:
        return (np.asarray(xs, dtype=float) >= self.threshold).astype(np.int8)


class TableHypothesis(Hypothesis):
    """Memorized labels for known x values, with a fallback rule for the rest.

    Lookups compare x by float equality, as a dict keyed by float(x) does:
    -0.0 finds 0.0, and NaN finds nothing. Predictions come from sorted
    copies of the keys and labels taken at construction; ``table`` is the
    dict they were taken from.
    """

    def __init__(self, table: dict, fallback: Hypothesis):
        self.table = dict(table)
        keys = np.array(list(self.table), dtype=float)
        order = np.argsort(keys, kind="stable")
        self._set_lookup(keys[order], np.array(list(self.table.values()), dtype=np.int8)[order], fallback)

    @classmethod
    def _from_sorted(cls, keys: np.ndarray, labels: np.ndarray, fallback: Hypothesis) -> "TableHypothesis":
        """Table over distinct ascending float keys; its dict is built only if ``table`` is read."""
        hypothesis = cls.__new__(cls)
        hypothesis._set_lookup(keys, labels, fallback)
        return hypothesis

    def _set_lookup(self, keys, labels, fallback) -> None:
        # a NaN after the sorted keys ends every search that runs past them in a miss
        self._keys = np.append(keys, np.nan)
        self._labels = np.append(labels, 0).astype(np.int8)
        self.fallback = fallback

    @cached_property
    def table(self) -> dict:
        return dict(zip(self._keys[:-1].tolist(), self._labels[:-1].tolist()))

    def predict_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        # searchsorted starts each search from the last one's slot, so it finds
        # ascending queries faster; each query's slot is the same in any order
        order = np.argsort(xs, axis=None)
        at = np.empty(xs.shape, dtype=np.intp)
        np.put(at, order, np.searchsorted(self._keys, xs.take(order)))
        out = self._labels[at]
        miss = self._keys[at] != xs
        if miss.any():
            out[miss] = self.fallback.predict_many(xs[miss])
        return out


class MajorityVoteHypothesis(Hypothesis):
    def __init__(self, h1: Hypothesis, h2: Hypothesis, h3: Hypothesis):
        self.voters = (h1, h2, h3)

    def predict_many(self, xs) -> np.ndarray:
        return _vote(*(h.predict_many(xs) for h in self.voters))


class NoisyThresholdLearner(WeakLearner):
    """Synthetic weak learner for a threshold concept y = 1[x >= t].

    Training predicts the true concept and then flips the label of each
    distinct x value independently with probability 1/2 - gamma, so the
    expected weighted error is exactly 1/2 - gamma on any distribution.
    The flips are frozen into a lookup table at train time, making the
    returned hypothesis deterministic; unseen x values fall back to the
    clean concept.
    """

    def __init__(self, threshold: float, gamma: float):
        self.threshold = _real("NoisyThresholdLearner: threshold", threshold)
        self.gamma = _real("NoisyThresholdLearner: gamma", gamma, 0, 0.5, "(]")

    def train(self, dataset: WeightedDataset, rng: RngStream) -> Hypothesis:
        concept = ThresholdHypothesis(self.threshold)
        flip_prob = 0.5 - self.gamma
        # np.unique's keys without its numpy.ma import: the first x of each run of equal sorted values
        xs = np.sort(dataset.xs)
        xs = xs[np.append(True, xs[1:] != xs[:-1])]
        flips = rng.generator.random(xs.size) < flip_prob
        return TableHypothesis._from_sorted(xs, concept.predict_many(xs) ^ flips, concept)


def _weight(weights: np.ndarray, mask: np.ndarray) -> float:
    return float(weights[mask].sum())


def _rebalanced(dataset: WeightedDataset, wrong: np.ndarray) -> WeightedDataset:
    # reweight_d2 given h1's mistakes on dataset.xs
    w = dataset.weights.probs
    risk = _weight(w, wrong)
    if risk <= 0.0 or risk >= 1.0:
        raise DegenerateSplitError(f"reweight_d2: h1 risk {risk} leaves an empty side; need risk in (0, 1)")
    return dataset.reweighted(w * np.where(wrong, 0.5 / risk, 0.5 / (1.0 - risk)))


def _restricted(dataset: WeightedDataset, disagree: np.ndarray) -> WeightedDataset:
    # reweight_d3 given where h1 and h2 disagree on dataset.xs
    w = dataset.weights.probs
    total = _weight(w, disagree)
    if total <= 0.0:
        raise DegenerateSplitError("reweight_d3: h1 and h2 agree on all weighted items")
    return dataset.reweighted(np.where(disagree, w / total, 0.0))


def _vote(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray) -> np.ndarray:
    return (sum(p.astype(int) for p in (p1, p2, p3)) >= 2).astype(np.int8)


def empirical_risk(hypothesis: Hypothesis, dataset: WeightedDataset) -> float:
    """Weight of the items the hypothesis misclassifies."""
    return _weight(dataset.weights.probs, hypothesis.predict_many(dataset.xs) != dataset.ys)


def reweight_d2(dataset: WeightedDataset, h1: Hypothesis) -> WeightedDataset:
    """Rebalance so h1's correct and incorrect items each carry weight 1/2.

    Each side is rescaled proportionally; under the result h1's weighted
    error is exactly 1/2. A perfect or totally wrong h1 leaves one side
    empty and is rejected.
    """
    return _rebalanced(dataset, h1.predict_many(dataset.xs) != dataset.ys)


def reweight_d3(dataset: WeightedDataset, h1: Hypothesis, h2: Hypothesis) -> WeightedDataset:
    """Restrict the distribution to items where h1 and h2 disagree."""
    return _restricted(dataset, h1.predict_many(dataset.xs) != h2.predict_many(dataset.xs))


class Boost3Diagnostics(NamedTuple):
    h1_err: float
    h2_err: float
    h3_err: float
    final_err: float
    bound: float


class Boost3Result(NamedTuple):
    hypothesis: Hypothesis
    diagnostics: Boost3Diagnostics


def boost3(weak: WeakLearner, dataset: WeightedDataset, rng: RngStream) -> Boost3Result:
    """One round of three-hypothesis boosting.

    h1 trains on the given distribution, h2 on the rebalanced one, h3 on
    the disagreement distribution; the result is their majority vote.
    Diagnostics report each hypothesis's error under its own training
    distribution, the vote's error under the original distribution, and
    the closed-form bound at the learner's advantage.
    """
    bound = boost_error_bound(weak.gamma)
    # every distribution below shares dataset.xs, so each hypothesis predicts
    # on it once (p1, p2, p3) and the rules work on those arrays
    xs, ys, w = dataset.xs, dataset.ys, dataset.weights.probs
    h1 = weak.train(dataset, rng)
    p1 = h1.predict_many(xs)
    h1_err = _weight(w, p1 != ys)
    if h1_err == 0.0:
        # already perfect: the rebalanced distribution does not exist, and
        # no vote can improve on h1
        return Boost3Result(h1, Boost3Diagnostics(0.0, 0.0, 0.0, 0.0, bound))
    d2 = _rebalanced(dataset, p1 != ys)
    h2 = weak.train(d2, rng)
    p2 = h2.predict_many(xs)
    h2_err = _weight(d2.weights.probs, p2 != ys)
    if np.array_equal(p1, p2):
        # no disagreement region: the majority vote equals h1 regardless of h3
        return Boost3Result(h1, Boost3Diagnostics(h1_err, h2_err, 0.0, h1_err, bound))
    d3 = _restricted(dataset, p1 != p2)
    h3 = weak.train(d3, rng)
    p3 = h3.predict_many(xs)
    diagnostics = Boost3Diagnostics(
        h1_err=h1_err,
        h2_err=h2_err,
        h3_err=_weight(d3.weights.probs, p3 != ys),
        final_err=_weight(w, _vote(p1, p2, p3) != ys),
        bound=bound,
    )
    return Boost3Result(MajorityVoteHypothesis(h1, h2, h3), diagnostics)


def boost_error_bound(gamma: float) -> float:
    """Error of the three-way vote when each voter errs at 1/2 - gamma:
    3p^2 - 2p^3 with p = 1/2 - gamma."""
    p = 0.5 - _real("boost_error_bound: gamma", gamma, 0, 0.5)
    return 3.0 * p * p - 2.0 * p * p * p


_MAX_DEPTH = 64


def boost_recursion_depth(gamma: float, target_epsilon: float) -> int:
    """Smallest d <= 64 such that iterating p -> 3p^2 - 2p^3 d times from
    p = 1/2 - gamma lands at or below target_epsilon, else ConvergenceError."""
    target_epsilon = _real("boost_recursion_depth: target_epsilon", target_epsilon, 0, 0.5, "()")
    error = 0.5 - _real("boost_recursion_depth: gamma", gamma, 0, 0.5)
    depth = 0
    # absolute slop so an iterate that lands on the target up to float
    # rounding (e.g. 0.35200000000000004 vs 0.352) counts as reaching it
    while error > target_epsilon + 1e-12:
        next_error = 3.0 * error * error - 2.0 * error**3
        if not next_error < error:
            raise ConvergenceError(
                f"boost_recursion_depth: bound stalls at {error} (gamma too small)"
            )
        error = next_error
        depth += 1
        if depth > _MAX_DEPTH:
            raise ConvergenceError("boost_recursion_depth: exceeded max recursion depth")
    return depth


class _BoostedLearner(WeakLearner):
    """Wraps a learner so one whole boost3 round acts as a single train call."""

    def __init__(self, base: WeakLearner):
        self.base = base
        self.gamma = 0.5 - boost_error_bound(base.gamma)

    def train(self, dataset: WeightedDataset, rng: RngStream) -> Hypothesis:
        return boost3(self.base, dataset, rng).hypothesis


def boost_recursive(
    weak: WeakLearner, dataset: WeightedDataset, target_epsilon: float, rng: RngStream
) -> Hypothesis:
    """Compose boost3 with itself until the recursion-tree bound meets the target.

    Depth d (from :func:`boost_recursion_depth`) nests d layers, training
    3^d base hypotheses; depth 0 returns a single base hypothesis.
    """
    depth = boost_recursion_depth(weak.gamma, target_epsilon)
    learner: WeakLearner = weak
    for _ in range(depth):
        learner = _BoostedLearner(learner)
    return learner.train(dataset, rng)


def load_dataset(path) -> WeightedDataset:
    """Read 'x,y' CSV rows (optional header) into a uniform-weight dataset."""
    xs, ys = [], []
    rows = csv.reader(io.StringIO(_read_text(path, newline=""), newline=""))
    for row_no, row in enumerate(rows, 1):
        if not row or (row_no == 1 and row[0].strip().lower() == "x"):
            continue
        if len(row) != 2:
            raise ValidationError(f"{path}:{row_no}: expected 'x,y', got {row!r}")
        try:
            xs.append(float(row[0]))
            label = int(row[1])
        except ValueError:
            raise ValidationError(f"{path}:{row_no}: non-numeric row {row!r}") from None
        if not np.isfinite(xs[-1]):
            raise ValidationError(f"{path}:{row_no}: x must be finite, got {row[0]!r}")
        ys.append(label)
    if not xs:
        raise ValidationError(f"{path}: no data rows")
    return WeightedDataset.uniform(np.array(xs), np.array(ys))


def dump_dataset(dataset: WeightedDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in zip(dataset.xs, dataset.ys):
            writer.writerow([repr(float(x)), int(y)])
