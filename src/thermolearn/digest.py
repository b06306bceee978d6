"""Double-digest reconstruction as an annealing benchmark.

Two enzymes cut the same segment; we observe the fragment length
multisets a (enzyme A alone), b (enzyme B alone), and c (both together).
A candidate solution orders a and b; overlaying both orderings implies a
double-digest fragment multiset, scored against the observed c. Energy 0
means the implied and observed multisets agree exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from operator import sub
from typing import List, NamedTuple, Tuple

import numpy as np

from .anneal import EnergyLandscape
from .config import _array, _content_lines, _count, _items
from .errors import ValidationError
from .rng import RngStream

__all__ = [
    "DoubleDigestInstance",
    "DigestOrdering",
    "double_digest_implied_fragments",
    "double_digest_energy",
    "DigestLandscape",
    "generate_instance",
    "brute_force_min_energy",
    "BruteForceResult",
    "load_instance",
    "dump_instance",
]


def _fragment_tuple(values, name: str) -> Tuple[int, ...]:
    label = f"DoubleDigestInstance: {name}"
    out = tuple(_count(f"{label} fragments", x, 1) for x in _items(label, values))
    if not out:
        raise ValidationError(f"{label} must contain at least one fragment")
    return out


@dataclass(frozen=True)
class DoubleDigestInstance:
    """Observed fragment multisets, which must all sum to ``total_length``."""

    a: Tuple[int, ...]
    b: Tuple[int, ...]
    c: Tuple[int, ...]
    total_length: int = field(init=False)

    def __post_init__(self):
        a = _fragment_tuple(self.a, "a")
        b = _fragment_tuple(self.b, "b")
        c = _fragment_tuple(self.c, "c")
        total = sum(a)
        if sum(b) != total or sum(c) != total:
            raise ValidationError(
                f"DoubleDigestInstance: fragment sums disagree: sum(a)={total}, sum(b)={sum(b)}, sum(c)={sum(c)}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "total_length", total)


def _checked_instance(name: str, instance) -> DoubleDigestInstance:
    if not isinstance(instance, DoubleDigestInstance):
        raise ValidationError(f"{name}: instance must be a DoubleDigestInstance, got {type(instance).__name__}")
    return instance


def _check_permutation(perm, n: int, name: str) -> Tuple[int, ...]:
    p = tuple(_array(name, perm, (n,), 0, n, "[)", dtype=np.intp).tolist())
    if sorted(p) != list(range(n)):
        raise ValidationError(f"{name} must be a permutation of 0..{n - 1}, got {p}")
    return p


class DigestOrdering(NamedTuple):
    """A permutation for each enzyme's fragments (indices into a and b)."""

    sigma: Tuple[int, ...]
    mu: Tuple[int, ...]

    @classmethod
    def identity(cls, instance: DoubleDigestInstance) -> "DigestOrdering":
        return cls(tuple(range(len(instance.a))), tuple(range(len(instance.b))))


def _validated(ordering: DigestOrdering, instance: DoubleDigestInstance):
    _checked_instance("double digest", instance)
    sigma = _check_permutation(ordering.sigma, len(instance.a), "sigma")
    mu = _check_permutation(ordering.mu, len(instance.b), "mu")
    return sigma, mu


def _prefix_cuts(fragments, perm, initial) -> List[int]:
    # ascending, since every fragment is positive; a's list alone starts at 0
    return list(accumulate([fragments[i] for i in perm], initial=initial))


def _gaps(cuts: List[int]) -> List[int]:
    # ascending; the total both orderings end on and each cut they share
    # give a zero gap at the front, so there are len(a) + len(b) gaps
    cuts.sort()
    gaps = list(map(sub, cuts[1:], cuts))
    gaps.sort()
    return gaps


def _cut_gaps(a, b, sigma, mu) -> List[int]:
    return _gaps(_prefix_cuts(a, sigma, 0) + _prefix_cuts(b, mu, None))


def _gap_energy(observed: Tuple[int, ...], gaps: List[int]) -> float:
    # ascending c_j meets the gap as far from the end (a zero before the front),
    # summed left to right: builtin sum is compensated from Python 3.12
    if len(observed) > len(gaps):
        gaps = [0] * (len(observed) - len(gaps)) + gaps
    energy = 0.0
    for c, v in zip(observed, gaps[len(gaps) - len(observed):]):
        d = c - v
        energy += d * d / c
    return energy


# a table kernel holds at most this many terms; a larger instance is scored by _gap_energy
_TABLE_CAP = 1 << 14


def _table_energy(rows, cuts: List[int]) -> float:
    # _gap_energy with each term read from its fragment's row: the same operands in the same order
    gaps = _gaps(cuts)
    energy = 0.0
    for row, v in zip(rows, gaps[len(gaps) - len(rows):]):
        energy += row[v]
    return energy


def _scorer(observed: Tuple[int, ...], a, b):
    # cuts -> energy against the ascending observed multiset; row j holds (c_j - v)^2 / c_j
    # for every gap v, and each gap lies inside one fragment of each enzyme, so v <= min(max a, max b)
    top = min(max(a), max(b))
    values = set(observed)
    # more observed fragments than the len(a) + len(b) gaps (no ordering has energy 0) or past the cap
    if len(observed) > len(a) + len(b) or len(values) * (top + 1) > _TABLE_CAP:
        return lambda cuts: _gap_energy(observed, _gaps(cuts))
    table = {c: [(c - v) * (c - v) / c for v in range(top + 1)] for c in values}
    return partial(_table_energy, [table[c] for c in observed])


def double_digest_implied_fragments(
    ordering: DigestOrdering, instance: DoubleDigestInstance
) -> Tuple[int, ...]:
    """Fragment multiset implied by overlaying both orderings, sorted ascending.

    Cut positions are the prefix sums of a under sigma united with those
    of b under mu (endpoints excluded, coincident cuts merged); the
    fragments are the gaps between consecutive positions.
    """
    sigma, mu = _validated(ordering, instance)
    gaps = _cut_gaps(instance.a, instance.b, sigma, mu)
    return tuple(gaps[gaps.count(0):])


def double_digest_energy(ordering: DigestOrdering, instance: DoubleDigestInstance) -> float:
    """H = sum_j (c_j - chat_j)^2 / c_j over the observed fragments.

    Observed and implied multisets are sorted ascending and the shorter
    is front-padded with zero-length entries; the sum runs over the
    observed entries (their lengths are positive, so every weight is
    defined). Zero iff the multisets agree.
    """
    sigma, mu = _validated(ordering, instance)
    return _gap_energy(tuple(sorted(instance.c)), _cut_gaps(instance.a, instance.b, sigma, mu))


CUT_CACHE_SIZE = 256


class DigestLandscape(EnergyLandscape):
    """Annealing landscape over ordering pairs.

    A move ``(side, k)`` picks sigma (side 0) or mu (side 1) with
    probability 1/2 and swaps positions i = k // (n - 1) and j = k % (n - 1),
    skipping i, for k uniform in [0, n(n - 1)); single-fragment permutations
    are left unchanged. Transpositions reach every permutation pair.

    A move changes one side, so ``energy`` keeps one cache per side that
    maps ``tuple(perm)`` to that side's ascending prefix cuts, and joins
    the two cached lists with one sort, which merges two ascending runs.
    Each cache holds at most ``CUT_CACHE_SIZE`` permutations and is
    cleared when full. Each term (c_j - v)^2 / c_j is read from a table
    built once per landscape: one row per observed fragment length, one
    entry per gap v from 0 to min(max a, max b), the widest gap two orderings
    can leave, since each gap lies inside one fragment of each enzyme.
    An instance whose table would pass ``_TABLE_CAP`` terms (lengths
    beyond int64 among them), or with more observed fragments than
    len(a) + len(b), is scored term by term as
    :func:`double_digest_energy` scores it. Either way the energy is the
    same float, bit for bit, as :func:`double_digest_energy` gives.
    ``EnergyLandscape``'s reentrancy rule still holds: the tables are
    never written after ``__init__``, no result depends on what a cache
    holds, a cached list is never modified, and a dict's get, set and
    clear are each atomic under the GIL, so walks sharing one landscape
    stay independent. Threads racing on a full cache may clear it twice
    or pass the cap by one entry each; neither changes an energy.

    ``energy_floor`` is 0.0: each term (c_j - v)^2 / c_j is a square over
    a positive length, so it is >= 0, and adding such terms left to right
    from 0.0 never rounds below 0.0, so ``anneal`` stops at energy 0.
    """

    energy_floor = 0.0

    def __init__(self, instance: DoubleDigestInstance):
        self.instance = _checked_instance("DigestLandscape", instance)
        self._observed = tuple(sorted(instance.c))
        self._sizes = (len(instance.a), len(instance.b))
        self._sides = ((instance.a, 0, {}), (instance.b, None, {}))
        self._caches = tuple(cache for _, _, cache in self._sides)
        self._score = _scorer(self._observed, instance.a, instance.b)

    def _cuts(self, side: int, perm) -> List[int]:
        fragments, initial, cache = self._sides[side]
        key = tuple(perm)
        cuts = cache.get(key)
        if cuts is None:
            if len(cache) >= CUT_CACHE_SIZE:
                cache.clear()
            cuts = cache[key] = _prefix_cuts(fragments, key, initial)
        return cuts

    def energy(self, state: DigestOrdering) -> float:
        # states come from random_state/apply, so the permutation
        # re-validation in the public entry point is skipped here
        sigma, mu = state
        cache_a, cache_b = self._caches
        try:
            left, right = cache_a.get(sigma), cache_b.get(mu)
        except TypeError:  # a permutation given as a list
            left = right = None
        # a cut list is never empty, so only a miss goes to _cuts
        return self._score((left or self._cuts(0, sigma)) + (right or self._cuts(1, mu)))

    def random_state(self, rng: RngStream) -> DigestOrdering:
        gen = rng.generator
        sigma = tuple(int(i) for i in gen.permutation(len(self.instance.a)))
        mu = tuple(int(i) for i in gen.permutation(len(self.instance.b)))
        return DigestOrdering(sigma, mu)

    def moves(self, rng: RngStream, count: int) -> List[Tuple[int, int]]:
        # exact integer draws, in this order: count sides, then count pair
        # indices for sigma and for mu, skipping a single-fragment side
        gen = rng.generator
        sides = gen.integers(2, size=count).tolist()
        pairs = [gen.integers(n * (n - 1), size=count).tolist() if n > 1 else [0] * count for n in self._sizes]
        return [(side, pairs[side][t]) for t, side in enumerate(sides)]

    def apply(self, state: DigestOrdering, move: Tuple[int, int]) -> DigestOrdering:
        side, k = move
        perm = state[side]
        n = len(perm)
        if n > 1:
            perm = list(perm)
            i, j = divmod(k, n - 1)
            j += j >= i
            perm[i], perm[j] = perm[j], perm[i]
            perm = tuple(perm)
        return tuple.__new__(DigestOrdering, (state[0], perm) if side else (perm, state[1]))


def generate_instance(
    n_a: int, n_b: int, total_length: int, rng: RngStream
) -> DoubleDigestInstance:
    """Forward-construct a solvable instance by random cut placement.

    Draws n_a - 1 and n_b - 1 distinct interior cut positions on a
    segment of the given length; a and b are stored in positional order,
    so the identity ordering has energy exactly 0.
    """
    n_a, n_b = _count("generate_instance: n_a", n_a, 1), _count("generate_instance: n_b", n_b, 1)
    # numpy draws from a population of at most 2^63 - 1 positions
    total_length = _count("generate_instance: total_length", total_length, max(n_a, n_b), 2**63)
    gen = rng.generator

    def draw_cuts(n_frags: int) -> set:
        interior = gen.choice(total_length - 1, size=n_frags - 1, replace=False) + 1
        return {int(c) for c in interior}

    def gaps(cuts: set) -> Tuple[int, ...]:
        positions = sorted(cuts | {0, total_length})
        return tuple(positions[i + 1] - positions[i] for i in range(len(positions) - 1))

    cuts_a = draw_cuts(n_a)
    cuts_b = draw_cuts(n_b)
    return DoubleDigestInstance(gaps(cuts_a), gaps(cuts_b), gaps(cuts_a | cuts_b))


class BruteForceResult(NamedTuple):
    best_energy: float
    best_ordering: DigestOrdering
    evaluated: int


def brute_force_min_energy(instance: DoubleDigestInstance) -> BruteForceResult:
    """Scan all ordering pairs, stopping at the first of energy 0, the floor.

    Duplicate fragment lengths produce equivalent orderings, so the scan
    enumerates distinct value sequences only.
    """
    _checked_instance("brute_force_min_energy", instance)

    def distinct_perms(values: Tuple[int, ...]):
        seen = set()
        for perm in itertools.permutations(range(len(values))):
            key = tuple(values[i] for i in perm)
            if key in seen:
                continue
            seen.add(key)
            yield perm

    a, b, observed = instance.a, instance.b, tuple(sorted(instance.c))
    best_energy = float("inf")
    best_ordering = None
    evaluated = 0
    score = _scorer(observed, a, b)
    # each ordering's prefix cuts, worked out once; the joined list is new, so the scorer may sort it
    mu_options = [(mu, _prefix_cuts(b, mu, None)) for mu in distinct_perms(b)]
    for sigma in distinct_perms(a):
        sigma_cuts = _prefix_cuts(a, sigma, 0)
        for mu, mu_cuts in mu_options:
            energy = score(sigma_cuts + mu_cuts)
            evaluated += 1
            if energy < best_energy:
                best_energy = energy
                best_ordering = DigestOrdering(sigma, mu)
                if best_energy == 0.0:
                    return BruteForceResult(best_energy, best_ordering, evaluated)
    return BruteForceResult(best_energy, best_ordering, evaluated)


def load_instance(path) -> DoubleDigestInstance:
    """Read the three-line instance format: 'a: ...', 'b: ...', 'c: ...'.

    A malformed or invalid instance raises ValidationError naming the
    file, and the line number where one line is at fault.
    """
    parts = {}
    for line_no, text in _content_lines(path):
        if ":" not in text:
            raise ValidationError(f"{path}:{line_no}: expected 'name: values', got {text!r}")
        name, _, rest = text.partition(":")
        name = name.strip().lower()
        if name not in ("a", "b", "c"):
            raise ValidationError(f"{path}:{line_no}: unknown multiset {name!r}")
        if name in parts:
            raise ValidationError(f"{path}:{line_no}: duplicate line for {name!r}")
        try:
            parts[name] = _fragment_tuple([int(tok) for tok in rest.split()], name)
        except ValidationError as err:  # an empty line or a fragment below 1
            raise ValidationError(f"{path}:{line_no}: {err}") from None
        except ValueError:
            raise ValidationError(f"{path}:{line_no}: fragments must be integers") from None
    missing = {"a", "b", "c"} - set(parts)
    if missing:
        raise ValidationError(f"{path}: missing lines for {sorted(missing)}")
    try:
        return DoubleDigestInstance(parts["a"], parts["b"], parts["c"])
    except ValidationError as err:  # sums that disagree
        raise ValidationError(f"{path}: {err}") from None


def dump_instance(instance: DoubleDigestInstance, path) -> None:
    with open(path, "w") as fh:
        for name, values in (("a", instance.a), ("b", instance.b), ("c", instance.c)):
            fh.write(f"{name}: {' '.join(str(v) for v in values)}\n")
