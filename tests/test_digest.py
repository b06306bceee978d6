import itertools
import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from thermolearn import digest
from thermolearn.anneal import CoolingSchedule, anneal
from thermolearn.digest import (
    DigestLandscape,
    DigestOrdering,
    DoubleDigestInstance,
    brute_force_min_energy,
    double_digest_energy,
    double_digest_implied_fragments,
    dump_instance,
    generate_instance,
    load_instance,
)
from thermolearn.errors import ValidationError
from thermolearn.rng import RngStream

INST = DoubleDigestInstance((3, 5), (2, 6), (1, 2, 5))


# --- instance and ordering validation ---------------------------------------


def test_instance_totals_must_agree():
    with pytest.raises(ValidationError, match=r"^DoubleDigestInstance: fragment sums disagree: sum\(a\)=8, sum\(b\)=8, sum\(c\)=9$"):
        DoubleDigestInstance((3, 5), (2, 6), (1, 2, 6))
    with pytest.raises(ValidationError, match=r"^DoubleDigestInstance: fragment sums disagree"):
        DoubleDigestInstance((3, 5), (2, 7), (1, 2, 5))
    assert DoubleDigestInstance((3, 5), (2, 6), (1, 2, 5)).total_length == 8
    with pytest.raises(TypeError):  # a computed field, not an argument
        DoubleDigestInstance((3, 5), (2, 6), (1, 2, 5), total_length=8)


def test_instance_fragments_must_be_positive_integers():
    with pytest.raises(ValidationError, match=r"^DoubleDigestInstance: a fragments must be an integer >= 1, got 0$"):
        DoubleDigestInstance((3, 0), (2, 1), (3,))
    with pytest.raises(ValidationError, match=r"^DoubleDigestInstance: a fragments must be an integer"):
        DoubleDigestInstance((3.5,), (3.5,), (3.5,))
    with pytest.raises(ValidationError, match=r"^DoubleDigestInstance: b must contain at least one fragment$"):
        DoubleDigestInstance((3,), (), (3,))


def test_ordering_must_be_permutation():
    with pytest.raises(ValidationError):
        double_digest_energy(DigestOrdering(sigma=(0, 0), mu=(0, 1)), INST)
    with pytest.raises(ValidationError):
        double_digest_energy(DigestOrdering(sigma=(0,), mu=(0, 1)), INST)


def test_ordering_that_is_not_a_permutation_names_its_range():
    # one fragment: every in-range sequence of length 1 is (0,), so only the range check can fail
    one = DoubleDigestInstance((3,), (1, 2), (1, 2))
    with pytest.raises(ValidationError, match=r"^sigma must be a 1-D sequence of shape \(1,\) of integers in \[0, 1\), got 1 at \[0\]$"):
        double_digest_energy(DigestOrdering(sigma=(1,), mu=(0, 1)), one)
    with pytest.raises(ValidationError, match=r"^mu must be a permutation of 0\.\.1, got \(1, 1\)$"):
        double_digest_energy(DigestOrdering(sigma=(0,), mu=(1, 1)), one)
    three = DoubleDigestInstance((1, 2, 3), (6,), (1, 2, 3))
    with pytest.raises(ValidationError, match=r"^sigma must be a permutation of 0\.\.2, got \(0, 0, 1\)$"):
        double_digest_energy(DigestOrdering(sigma=(0, 0, 1), mu=(0,)), three)


# --- implied fragments --------------------------------------------------------


def test_single_fragment_has_no_cuts():
    inst = DoubleDigestInstance((8,), (8,), (8,))
    assert double_digest_implied_fragments(DigestOrdering.identity(inst), inst) == (8,)


def test_implied_fragments_hand_example():
    assert double_digest_implied_fragments(DigestOrdering.identity(INST), INST) == (1, 2, 5)


def test_coincident_cuts_merge():
    inst = DoubleDigestInstance((4, 4), (4, 4), (4, 4))
    assert double_digest_implied_fragments(DigestOrdering.identity(inst), inst) == (4, 4)


# --- energy ---------------------------------------------------------------------


def _reference_implied(sigma, mu, instance):
    # the cut-set construction the energy kernel replaced, kept as its oracle
    total = instance.total_length
    cuts = {0, total}
    pos = 0
    for idx in sigma[:-1]:
        pos += instance.a[idx]
        cuts.add(pos)
    pos = 0
    for idx in mu[:-1]:
        pos += instance.b[idx]
        cuts.add(pos)
    ordered = sorted(cuts)
    gaps = [ordered[i + 1] - ordered[i] for i in range(len(ordered) - 1)]
    gaps.sort()
    return tuple(gaps)


def _reference_energy(observed, implied):
    n_obs, n_imp = len(observed), len(implied)
    width = max(n_obs, n_imp)
    energy = 0.0
    for j in range(width):
        obs_idx = j - (width - n_obs)
        if obs_idx < 0:
            continue
        c_j = observed[obs_idx]
        imp_idx = j - (width - n_imp)
        c_hat = implied[imp_idx] if imp_idx >= 0 else 0
        diff = c_j - c_hat
        energy += diff * diff / c_j
    return energy


def _random_split(gen, total, k):
    pos = [0] + sorted(gen.sample(range(1, total), k - 1)) + [total]
    return tuple(y - x for x, y in zip(pos, pos[1:]))


def _instance_cases(gen, count):
    # every fifth instance has lengths beyond int64
    for trial in range(count):
        scale = 10**20 if trial % 5 == 0 else 1
        total = gen.randint(4, 24)
        n_a, n_b = gen.randint(1, min(6, total)), gen.randint(1, min(6, total))
        n_c = gen.randint(1, min(total, 13))
        yield DoubleDigestInstance(*(tuple(scale * x for x in _random_split(gen, total, n)) for n in (n_a, n_b, n_c)))


SHAPES = ("single", "duplicate", "coincident", "c_longer", "c_shorter", "beyond_int64")


def _count_shapes(seen, inst, implied):
    n_a, n_b = len(inst.a), len(inst.b)
    seen["single"] += min(n_a, n_b) == 1
    seen["duplicate"] += len(set(inst.a + inst.b)) < n_a + n_b
    seen["coincident"] += len(implied) < n_a + n_b - 1
    seen["c_longer"] += len(inst.c) > len(implied)
    seen["c_shorter"] += len(inst.c) < len(implied)
    seen["beyond_int64"] += inst.total_length > 2**63


def test_energy_kernel_matches_reference():
    gen = random.Random(20240)
    seen = dict.fromkeys(SHAPES, 0)
    for inst in _instance_cases(gen, 3000):
        n_a, n_b = len(inst.a), len(inst.b)
        ordering = DigestOrdering(tuple(gen.sample(range(n_a), n_a)), tuple(gen.sample(range(n_b), n_b)))
        implied = _reference_implied(ordering.sigma, ordering.mu, inst)
        expected = _reference_energy(tuple(sorted(inst.c)), implied)
        assert double_digest_implied_fragments(ordering, inst) == implied
        assert double_digest_energy(ordering, inst) == expected
        assert DigestLandscape(inst).energy(ordering) == expected
        _count_shapes(seen, inst, implied)
    assert min(seen.values()) >= 100, seen


def test_correct_ordering_has_zero_energy():
    assert double_digest_energy(DigestOrdering.identity(INST), INST) == 0.0


def test_wrong_ordering_hand_value():
    wrong = DigestOrdering(sigma=(1, 0), mu=(0, 1))
    assert double_digest_energy(wrong, INST) == pytest.approx(2.3, abs=1e-12)


def test_single_fragment_energy_always_zero():
    inst = DoubleDigestInstance((8,), (8,), (8,))
    assert double_digest_energy(DigestOrdering.identity(inst), inst) == 0.0


def test_energy_non_negative_and_zero_iff_match():
    inst = generate_instance(3, 3, 30, RngStream(5))
    for sigma in itertools.permutations(range(3)):
        for mu in itertools.permutations(range(3)):
            ordering = DigestOrdering(sigma=sigma, mu=mu)
            e = double_digest_energy(ordering, inst)
            assert e >= 0.0
            implied = double_digest_implied_fragments(ordering, inst)
            if implied == tuple(sorted(inst.c)):
                assert e == 0.0
            else:
                assert e > 0.0


# --- landscape -------------------------------------------------------------------


def test_landscape_energy_matches_free_function():
    land = DigestLandscape(INST)
    rng = RngStream(1)
    for _ in range(10):
        state = land.random_state(rng)
        assert land.energy(state) == double_digest_energy(state, INST)


def test_proposal_swaps_exactly_one_permutation():
    inst = generate_instance(4, 4, 40, RngStream(2))
    land = DigestLandscape(inst)
    rng = RngStream(3)
    state = land.random_state(rng)
    for move in land.moves(rng, 100):
        nxt = land.apply(state, move)
        # built by tuple.__new__, so check the type and that the other side is passed through
        assert type(nxt) is DigestOrdering
        assert nxt[1 - move[0]] is state[1 - move[0]]
        changed_sigma = nxt.sigma != state.sigma
        changed_mu = nxt.mu != state.mu
        assert changed_sigma != changed_mu
        assert sorted(nxt.sigma) == list(range(4))
        assert sorted(nxt.mu) == list(range(4))
        state = nxt


def test_moves_hit_every_ordered_pair_at_its_rate():
    # (3, 4) fragments: 6 ordered sigma pairs at 1/2 * 1/6 = 1/12 each and 12
    # mu pairs at 1/2 * 1/12 = 1/24 each. Seed 2024; each count must lie within
    # 5 binomial SDs, so a correct sampler fails with probability about
    # 18 * 5.7e-7 = 1e-5 over fresh seeds.
    inst = DoubleDigestInstance((1, 2, 3), (1, 1, 2, 2), (1, 1, 1, 1, 2))
    land = DigestLandscape(inst)
    n = 120_000
    counts = {}
    for move in land.moves(RngStream(2024), n):
        counts[move] = counts.get(move, 0) + 1
    expected = {(0, k): 1 / 12 for k in range(6)}
    expected.update({(1, k): 1 / 24 for k in range(12)})
    assert set(counts) == set(expected)
    for move, p in expected.items():
        assert abs(counts[move] - n * p) <= 5 * math.sqrt(n * p * (1 - p)), (move, counts[move])
    # each side's ordered pairs are its transpositions, every one reached twice (i, j and j, i)
    start = DigestOrdering.identity(inst)
    for side, size in ((0, 3), (1, 4)):
        swaps = []
        for k in range(size * (size - 1)):
            nxt = land.apply(start, (side, k))
            assert nxt[1 - side] == start[1 - side]
            swaps.append(frozenset(i for i, p in enumerate(nxt[side]) if p != i))
        assert sorted(map(sorted, swaps)) == sorted(sorted(pair) for pair in itertools.permutations(range(size), 2))


def test_singleton_side_proposal_is_fixed_point():
    inst = DoubleDigestInstance((8,), (3, 5), (3, 5))
    land = DigestLandscape(inst)
    rng = RngStream(4)
    state = DigestOrdering.identity(inst)
    for move in land.moves(rng, 20):
        nxt = land.apply(state, move)
        assert nxt.sigma == (0,)
        state = nxt


# --- cut caches ------------------------------------------------------------------------


def _on_tables(land):
    return getattr(land._score, "func", None) is digest._table_energy


@pytest.mark.parametrize(
    "cache_size, table_cap",
    [(digest.CUT_CACHE_SIZE, digest._TABLE_CAP), (3, digest._TABLE_CAP), (digest.CUT_CACHE_SIZE, 0)],
    ids=[str(digest.CUT_CACHE_SIZE), "3", f"{digest.CUT_CACHE_SIZE}-no-tables"],
)
def test_cached_energy_matches_free_function_along_walks(monkeypatch, cache_size, table_cap):
    # at 3 entries the caches clear every few moves, so evicted and refilled entries are read too;
    # at a table cap of 0 every instance is scored by the reference route
    monkeypatch.setattr(digest, "CUT_CACHE_SIZE", cache_size)
    monkeypatch.setattr(digest, "_TABLE_CAP", table_cap)
    gen = random.Random(31)
    seen = dict.fromkeys(SHAPES, 0)
    on_tables = dict.fromkeys(SHAPES, 0)
    for k, inst in enumerate(_instance_cases(gen, 400)):
        land = DigestLandscape(inst)
        rng = RngStream(k)
        state = land.random_state(rng)
        for move in land.moves(rng, 40):
            state = land.apply(state, move)
            expected = double_digest_energy(state, inst).hex()
            as_lists = DigestOrdering(list(state.sigma), list(state.mu))
            as_numpy = DigestOrdering(*(tuple(np.array(p, dtype=np.int64)) for p in state))
            assert [land.energy(s).hex() for s in (state, as_lists, as_numpy)] == [expected] * 3, (inst, state)
        implied = double_digest_implied_fragments(state, inst)
        _count_shapes(seen, inst, implied)
        if _on_tables(land):
            _count_shapes(on_tables, inst, implied)
    assert min(seen.values()) >= 50, seen
    if table_cap:
        assert on_tables.pop("beyond_int64") == 0 and min(on_tables.values()) >= 1, on_tables
    else:
        assert not any(on_tables.values()), on_tables


def test_term_tables_are_built_only_below_the_cap():
    # lengths beyond int64 would need about 10^20 entries per row: no table at all;
    # the benchmark's size (15 fragments, length 120) holds at most 14 x 121 terms
    beyond = DoubleDigestInstance((10**20, 3 * 10**20), (2 * 10**20, 2 * 10**20), (10**20, 10**20, 2 * 10**20))
    peaks = {}
    for name, inst in (("beyond_int64", beyond), ("benchmark", generate_instance(7, 8, 120, RngStream(5)))):
        tracemalloc.start()
        try:
            land = DigestLandscape(inst)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _on_tables(land) == (name == "benchmark")
    assert peaks["beyond_int64"] < 8 * 2**10 and peaks["benchmark"] <= 100_000, peaks


class _Floorless(DigestLandscape):
    # anneals every sweep of the schedule, for tests that study the whole walk, not the stop at 0
    energy_floor = -math.inf


class _Uncached(_Floorless):
    # the energy as the free function computes it, prefix cuts rebuilt on every call
    def energy(self, state):
        inst = self.instance
        return digest._gap_energy(self._observed, digest._cut_gaps(inst.a, inst.b, state.sigma, state.mu))


class _CacheWatch(_Floorless):
    def __init__(self, instance):
        super().__init__(instance)
        self.largest = [0, 0]

    def energy(self, state):
        energy = super().energy(state)
        for side, (_, _, cache) in enumerate(self._sides):
            self.largest[side] = max(self.largest[side], len(cache))
        return energy


@pytest.mark.parametrize("n_a, n_b, seed", [(7, 8, 1), (9, 6, 2)])
def test_anneal_at_benchmark_size_matches_uncached_energy(n_a, n_b, seed):
    # the benchmark's size and schedule: 15 fragments, 250 sweeps x 100 proposals
    inst = generate_instance(n_a, n_b, 90, RngStream(seed))
    schedule = CoolingSchedule("geometric", 5.0, 0.98)
    cached = _CacheWatch(inst)
    runs = [anneal(land, schedule, 250, 100, RngStream(100 + seed)) for land in (cached, _Uncached(inst))]
    assert runs[0].trace.csv_text() == runs[1].trace.csv_text()
    assert runs[0].best_state == runs[1].best_state
    assert runs[0].best_energy.hex() == runs[1].best_energy.hex()
    # both caches reached their cap, and neither grew past it
    assert cached.largest == [digest.CUT_CACHE_SIZE] * 2


def test_walks_sharing_one_landscape_across_threads_match_walks_on_their_own(monkeypatch):
    # at 3 entries both caches clear in the middle of every walk, while the other thread reads them
    monkeypatch.setattr(digest, "CUT_CACHE_SIZE", 3)
    inst = generate_instance(9, 6, 90, RngStream(2))
    schedule = CoolingSchedule("geometric", 5.0, 0.98)

    def walk(land, seed):
        result = anneal(land, schedule, 100, 100, RngStream(seed))
        return result.best_state, result.best_energy.hex(), result.trace.csv_text()

    shared = DigestLandscape(inst)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads switch every few moves, not every few sweeps
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            together = list(pool.map(lambda seed: walk(shared, seed), range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert together == [walk(DigestLandscape(inst), seed) for seed in range(4)]


def test_longer_anneal_grows_memory_only_by_its_trace_rows():
    # 15 fragments: both caches fill and clear within the short run already, so the
    # 300 extra sweeps may add only their trace rows, about 80 bytes each (four float
    # columns, an int column and a temperature list); an uncapped cache adds megabytes
    inst = generate_instance(7, 8, 90, RngStream(3))
    schedule = CoolingSchedule("geometric", 5.0, 0.995)
    peaks = []
    for sweeps in (100, 400):
        land = _Floorless(inst)
        tracemalloc.start()
        try:
            anneal(land, schedule, sweeps, 50, RngStream(4))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 300 * 256, peaks


# --- forward generation ------------------------------------------------------------


def test_generated_instance_identity_is_ground_truth():
    for seed in range(10):
        inst = generate_instance(5, 4, 60, RngStream(seed))
        assert sum(inst.a) == sum(inst.b) == sum(inst.c) == 60
        assert double_digest_energy(DigestOrdering.identity(inst), inst) == 0.0


def test_generate_validation():
    with pytest.raises(ValidationError):
        generate_instance(0, 3, 30, RngStream(0))
    with pytest.raises(ValidationError):
        generate_instance(4, 4, 3, RngStream(0))
    # numpy's choice takes a population of at most 2^63 - 1 interior positions
    with pytest.raises(ValidationError, match=r"^generate_instance: total_length must be an integer in \[3, "):
        generate_instance(3, 3, 2**63, RngStream(0))
    inst = generate_instance(3, 3, 2**63 - 1, RngStream(0))
    assert sum(inst.a) == sum(inst.b) == sum(inst.c) == 2**63 - 1


def _reference_instance(n_a, n_b, total_length, rng):
    # generate_instance drawing its cuts from an explicit array of the interior positions
    gen = rng.generator
    cuts_a, cuts_b = ({int(c) for c in gen.choice(np.arange(1, total_length), size=n - 1, replace=False)}
                      for n in (n_a, n_b))

    def gaps(cuts):
        positions = sorted(cuts | {0, total_length})
        return tuple(int(d) for d in np.diff(positions))

    return DoubleDigestInstance(gaps(cuts_a), gaps(cuts_b), gaps(cuts_a | cuts_b))


def test_generated_cuts_match_drawing_from_the_position_array():
    for seed in range(40):
        for total_length in (1, 2, 3, 8, 9, 50, 1000, 10**6):
            for n_a, n_b in ((1, 1), (1, 2), (2, 2), (3, 1), (5, 9)):
                if max(n_a, n_b) > total_length:
                    continue
                ours, theirs = RngStream(seed), RngStream(seed)
                assert generate_instance(n_a, n_b, total_length, ours) == _reference_instance(
                    n_a, n_b, total_length, theirs
                )
                # the bit generator is left where the array form leaves it
                assert ours.generator.bit_generator.state == theirs.generator.bit_generator.state


def test_generated_instance_memory_does_not_grow_with_total_length():
    tracemalloc.start()
    try:
        inst = generate_instance(3, 3, 10**12, RngStream(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(inst.a) == sum(inst.b) == sum(inst.c) == 10**12
    assert peak < 2**20, peak


# --- brute force ----------------------------------------------------------------------


def test_brute_force_finds_zero_on_generated_instance():
    inst = generate_instance(4, 3, 40, RngStream(11))
    result = brute_force_min_energy(inst)
    assert result.best_energy == 0.0
    assert double_digest_energy(result.best_ordering, inst) == 0.0
    assert result.evaluated <= 24 * 6


def test_brute_force_early_stop():
    inst = generate_instance(4, 4, 48, RngStream(12))
    result = brute_force_min_energy(inst)
    assert result.best_energy == 0.0
    full = _reference_brute_force(inst)
    assert result.evaluated <= full[2]


def test_instance_is_checked():
    # each escaped as AttributeError or TypeError before
    ordering = DigestOrdering.identity(INST)
    for call in (
        lambda: DigestLandscape(None),
        lambda: brute_force_min_energy(None),
        lambda: double_digest_energy(ordering, None),
        lambda: double_digest_implied_fragments(ordering, (3, 5)),
    ):
        with pytest.raises(ValidationError, match="must be a DoubleDigestInstance"):
            call()


def _reference_brute_force(inst, stop_at=None):
    # the scan as it was: every distinct ordering pair re-validated and scored by the old path
    def distinct(values):
        seen = set()
        for perm in itertools.permutations(range(len(values))):
            key = tuple(values[i] for i in perm)
            if key not in seen:
                seen.add(key)
                yield perm

    observed = tuple(sorted(inst.c))
    best, best_ordering, evaluated = float("inf"), None, 0
    mus = list(distinct(inst.b))
    for sigma in distinct(inst.a):
        for mu in mus:
            energy = _reference_energy(observed, _reference_implied(sigma, mu, inst))
            evaluated += 1
            if energy < best:
                best, best_ordering = energy, DigestOrdering(sigma, mu)
                if stop_at is not None and best <= stop_at:
                    return best, best_ordering, evaluated
    return best, best_ordering, evaluated


def test_brute_force_matches_reference_scan():
    gen = random.Random(77)
    for k in range(20):
        total = gen.randint(12, 40)
        n_a, n_b = gen.randint(1, 5), gen.randint(1, 5)
        if k % 2:
            inst = generate_instance(n_a, n_b, total, RngStream(k))
        else:  # c unrelated to a and b, so the minimum is positive
            inst = DoubleDigestInstance(*(_random_split(gen, total, gen.randint(1, 6)) for _ in range(3)))
        got = brute_force_min_energy(inst)
        assert tuple(got) == _reference_brute_force(inst, 0.0)
        # the full scan keeps the same first minimum
        assert tuple(got)[:2] == _reference_brute_force(inst)[:2]


def _distinct_perms(values):
    # the first permutation of each distinct value sequence, in itertools order
    first = {}
    for perm in itertools.permutations(range(len(values))):
        first.setdefault(tuple(values[i] for i in perm), perm)
    return list(first.values())


def _cut_gap_scan(inst, stop_at):
    # the scan with every pair scored through _cut_gaps, which builds both prefix-cut lists anew
    observed = tuple(sorted(inst.c))
    best, best_ordering, evaluated = math.inf, None, 0
    for sigma, mu in itertools.product(_distinct_perms(inst.a), _distinct_perms(inst.b)):
        energy = digest._gap_energy(observed, digest._cut_gaps(inst.a, inst.b, sigma, mu))
        evaluated += 1
        if energy < best:
            best, best_ordering = energy, DigestOrdering(sigma, mu)
            if stop_at is not None and best <= stop_at:
                break
    return best.hex(), best_ordering, evaluated


def test_brute_force_with_cached_cuts_matches_the_cut_gap_scan():
    gen = random.Random(2303)
    seen = {"single": 0, "duplicate": 0, "solvable": 0}
    for k in range(60):
        scale = 10**20 if k % 5 == 0 else 1
        total = gen.randint(5, 24)
        n_a, n_b = gen.randint(1, 5), gen.randint(1, 5)
        if k % 2:
            inst = generate_instance(n_a, n_b, total, RngStream(k))
            inst = DoubleDigestInstance(*(tuple(scale * x for x in side) for side in (inst.a, inst.b, inst.c)))
        else:  # c unrelated to a and b
            sizes = (n_a, n_b, gen.randint(1, min(total, 10)))
            inst = DoubleDigestInstance(*(tuple(scale * x for x in _random_split(gen, total, n)) for n in sizes))
        seen["single"] += min(len(inst.a), len(inst.b)) == 1
        seen["duplicate"] += len(set(inst.a)) < len(inst.a) or len(set(inst.b)) < len(inst.b)
        got = brute_force_min_energy(inst)
        assert (got.best_energy.hex(), got.best_ordering, got.evaluated) == _cut_gap_scan(inst, 0.0)
        assert (got.best_energy.hex(), got.best_ordering) == _cut_gap_scan(inst, None)[:2]
        seen["solvable"] += got.best_energy == 0.0
    assert min(seen.values()) >= 5, seen


def test_brute_force_on_wrong_only_instance():
    # observed c deliberately inconsistent with any ordering: min energy > 0
    inst = DoubleDigestInstance((3, 5), (2, 6), (4, 4))
    result = brute_force_min_energy(inst)
    assert result.best_energy > 0.0


# --- annealing integration -----------------------------------------------------------


def test_anneal_solves_small_benchmark():
    inst = generate_instance(5, 4, 60, RngStream(123))
    land = DigestLandscape(inst)
    result = anneal(
        land,
        CoolingSchedule("geometric", 5.0, 0.995),
        sweeps=500,
        proposals_per_sweep=50,
        rng=RngStream(7),
    )
    assert result.best_energy == 0.0


def test_sweep_draws_moves_then_uniforms():
    # one sweep replayed by hand from a fresh stream: moves(rng, P), then generator.random(P)
    inst = generate_instance(4, 5, 50, RngStream(8))
    land = DigestLandscape(inst)
    start = land.random_state(RngStream(9))
    per_sweep, temperature = 60, 2.0  # 1/T is exact, so exp(-d/T) == exp(-d * (1/T))
    result = anneal(land, CoolingSchedule("constant", temperature), 1, per_sweep, RngStream(10), initial=start)

    rng = RngStream(10)
    moves = land.moves(rng, per_sweep)
    uniforms = rng.generator.random(per_sweep)
    state, energy = start, land.energy(start)
    best_state, best_energy, accepted = state, energy, 0
    for move, u in zip(moves, uniforms):
        candidate = land.apply(state, move)
        candidate_energy = land.energy(candidate)
        delta = candidate_energy - energy
        if delta <= 0.0 or u < math.exp(-delta / temperature):
            state, energy = candidate, candidate_energy
            accepted += 1
            if energy < best_energy:
                best_state, best_energy = state, energy
    assert 0 < accepted < per_sweep
    assert result.trace.column("current_energy")[0] == energy
    assert result.trace.column("acceptance_rate")[0] == accepted / per_sweep
    assert result.best_state == best_state
    assert result.best_energy == best_energy


def test_anneal_same_seed_same_trace():
    inst = generate_instance(5, 5, 60, RngStream(21))
    runs = [
        anneal(DigestLandscape(inst), CoolingSchedule("geometric", 5.0, 0.97), 80, 30, RngStream(22))
        for _ in range(2)
    ]
    assert runs[0].trace.csv_text() == runs[1].trace.csv_text()
    assert runs[0].best_state == runs[1].best_state


def test_uphill_acceptance_dies_in_final_decile():
    sweeps, per_sweep = 1000, 100

    class Tracking(_Floorless):
        def __init__(self, inst):
            super().__init__(inst)
            self.pending = None
            self.uphill = 0
            self.uphill_accepted = 0
            self.calls = 0

        def apply(self, state, move):
            if self.pending is not None:
                cand, was_uphill, sweep = self.pending
                if was_uphill and sweep >= sweeps * 9 // 10:
                    self.uphill += 1
                    if state is cand:
                        self.uphill_accepted += 1
            cand = super().apply(state, move)
            was_uphill = self.energy(cand) > self.energy(state)
            self.pending = (cand, was_uphill, self.calls // per_sweep)
            self.calls += 1
            return cand

    inst = generate_instance(5, 4, 60, RngStream(123))
    land = Tracking(inst)
    anneal(
        land,
        CoolingSchedule("geometric", 5.0, 0.995),
        sweeps=sweeps,
        proposals_per_sweep=per_sweep,
        rng=RngStream(7),
    )
    assert land.uphill > 0
    assert land.uphill_accepted / land.uphill < 0.05


# --- persistence -----------------------------------------------------------------------


def test_instance_file_roundtrip(tmp_path):
    path = tmp_path / "inst.txt"
    dump_instance(INST, path)
    back = load_instance(path)
    assert back == INST


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a: 3 5\nb: 2 6\n")
    with pytest.raises(ValidationError):
        load_instance(path)


@pytest.mark.parametrize(
    "text, where, why",
    [
        ("a: 8\nb: 8\n# none\nc:\n", "bad.txt:4: ", "c must contain at least one fragment"),
        ("a: 8\nb: 8 0\nc: 8\n", "bad.txt:2: ", "b fragments must be"),
        ("a: 3 5\nb: 2 6\nc: 1 2 6\n", "bad.txt: ", "fragment sums disagree"),
        ("a: 8\nb: 8\na: 8\nc: 8\n", "bad.txt:3: ", "duplicate line for 'a'"),
    ],
    ids=["empty_line", "zero_fragment", "sums_disagree", "duplicate_line"],
)
def test_load_names_file_of_invalid_instance(tmp_path, text, where, why):
    # each raised the instance's own message, without the path, before
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        load_instance(path)
    assert str(err.value).startswith(str(tmp_path / where)) and why in str(err.value)
