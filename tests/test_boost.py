import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from thermolearn.distributions import DiscreteDistribution
from thermolearn.boost import (
    MajorityVoteHypothesis,
    NoisyThresholdLearner,
    TableHypothesis,
    ThresholdHypothesis,
    WeightedDataset,
    boost3,
    boost_error_bound,
    boost_recursion_depth,
    boost_recursive,
    dump_dataset,
    empirical_risk,
    load_dataset,
    reweight_d2,
    reweight_d3,
)
from thermolearn.errors import ConvergenceError, DegenerateSplitError, ValidationError
from thermolearn.rng import RngStream


def threshold_data(n, threshold, seed):
    rng = RngStream(seed)
    xs = rng.generator.random(size=n)
    ys = (xs >= threshold).astype(int)
    return WeightedDataset.uniform(xs, ys)


class FixedHypothesis:
    """Constant-label stub obeying the Hypothesis protocol."""

    def __init__(self, label):
        self.label = label

    def predict(self, x):
        return self.label

    def predict_many(self, xs):
        return np.full(len(xs), self.label, dtype=int)


# --- dataset -----------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ValidationError):
        WeightedDataset.uniform([0.1, 0.2], [0, 2])
    with pytest.raises(ValidationError):
        WeightedDataset.uniform([0.1], [0, 1])
    with pytest.raises(ValidationError, match="^WeightedDataset: one weight per item required"):
        WeightedDataset([0.1, 0.2], [0, 1], [1.0])


def test_dataset_rejects_non_finite_xs():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            WeightedDataset.uniform([0.1, bad], [0, 1])


def test_uniform_weights():
    ds = WeightedDataset.uniform([0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1])
    assert np.allclose(ds.weights.probs, 0.25)
    assert len(ds) == 4


def test_reweighted_keeps_items():
    ds = WeightedDataset.uniform([0.1, 0.2], [0, 1])
    out = ds.reweighted([0.9, 0.1])
    assert np.allclose(out.xs, ds.xs)
    assert np.allclose(out.weights.probs, [0.9, 0.1])


# --- hypotheses and risk --------------------------------------------------------


def test_threshold_hypothesis_predicts_indicator():
    h = ThresholdHypothesis(0.5)
    assert h.predict(0.49) == 0
    assert h.predict(0.5) == 1
    assert list(h.predict_many(np.array([0.2, 0.7]))) == [0, 1]


def test_table_hypothesis_overrides_fallback():
    base = ThresholdHypothesis(0.5)
    h = TableHypothesis([0.2], [1], base)
    assert h.predict(0.2) == 1
    assert h.predict(0.7) == 1
    assert h.predict(0.3) == 0


@pytest.mark.parametrize(
    "keys, labels",
    [
        ([0.5, 0.2], [0, 1]),  # unsorted
        ([0.2, 0.2], [0, 1]),  # repeated
        ([-0.0, 0.0], [0, 1]),  # one key twice, by float equality
        ([0.0, -0.0], [0, 1]),
        ([0.2, np.nan], [0, 1]),
        ([-np.inf, 0.2], [0, 1]),
        ([0.2, np.inf], [0, 1]),
        ([0.2, 0.5], [1]),  # one label short
        ([0.2], [1, 0]),  # one label over
        ([0.2, 0.5], [1, 2]),
    ],
)
def test_table_hypothesis_rejects_keys_and_labels_outside_its_rule(keys, labels):
    with pytest.raises(ValidationError, match="^TableHypothesis: "):
        TableHypothesis(keys, labels, ThresholdHypothesis(0.5))


# Table lookups once went through a dict keyed by float(x) one x at a time,
# with the threshold fallback's scalar rule for misses; that lookup is the
# oracle for the array lookup.


def _dict_lookup(table, fallback, x):
    key = float(x)
    if key in table:
        return int(table[key])
    return int(float(x) >= fallback.threshold)


@pytest.mark.parametrize(
    "table",
    [
        {},  # empty: every query falls back
        {0.0: 1},
        {-0.0: 1},
        {-0.0: 1, 0.5: 0, 2.0: 1},
        {0.9: 0, -3.0: 1, 0.1: 1, 1e300: 0, -1e-300: 0},  # not in key order
    ],
)
def test_table_predict_many_replays_dict_lookup(table):
    keys = sorted(table)
    h = TableHypothesis(keys, [table[k] for k in keys], ThresholdHypothesis(0.5))
    queries = np.array(
        [0.0, -0.0, 0.5, 2.0, 0.9, -3.0, 0.1, 1e300, -1e-300,  # keys and their signed zeros
         -np.inf, -5.0, 7.0, np.inf,  # below the smallest and above the largest key
         0.49, 0.51, 0.3, 1.0, np.nan]  # misses on both sides of the fallback threshold
    )
    want = [_dict_lookup(table, h.fallback, x) for x in queries]
    got = h.predict_many(queries)
    assert got.dtype == np.int8
    assert got.tolist() == want
    assert [h.predict(x) for x in queries] == want


def test_noisy_learner_table_replays_scalar_labels():
    ds = threshold_data(500, 0.5, seed=12)
    h = NoisyThresholdLearner(0.5, gamma=0.2).train(ds, RngStream(4))
    flips = RngStream(4).generator.random(np.unique(ds.xs).size) < 0.5 - 0.2
    want = {}
    for x, flip in zip(np.unique(ds.xs), flips):
        label = int(float(x) >= 0.5)
        want[float(x)] = 1 - label if flip else label
    assert h._keys[:-1].tolist() == list(want) and h._labels[:-1].tolist() == list(want.values())
    assert h.predict_many(np.unique(ds.xs)).tolist() == list(want.values())


# Table lookups once searched the queries in their given order; that lookup
# is the oracle for the ascending one.


def _unsorted_lookup(h, xs):
    xs = np.asarray(xs, dtype=float)
    at = np.searchsorted(h._keys, xs)
    out = h._labels[at]
    miss = h._keys[at] != xs
    if miss.any():
        out[miss] = h.fallback.predict_many(xs[miss])
    return out


def _lookup_cases():
    gen = np.random.default_rng(11)
    keys = np.round(gen.uniform(-2, 2, 300), 2)  # drawn with repeats
    seen = gen.choice(keys, 2000)
    yield "repeated keys", seen
    yield "unseen x", np.concatenate([seen, gen.uniform(-3, 3, 500)])
    yield "NaN", np.concatenate([seen[:50], [np.nan] * 7, seen[50:100], [np.nan]])
    yield "signed zeros", np.array([0.0, -0.0, 0.0, 1.0, -0.0, -1.0, 0.0])
    yield "empty", np.empty(0)
    yield "one item", seen[:1]
    yield "2-D", np.concatenate([seen[:300], [np.nan, -0.0, 0.0]]).reshape(3, 101)


def _tables():
    gen = np.random.default_rng(12)
    xs = np.concatenate([np.round(gen.uniform(-2, 2, 600), 2), [0.0, -0.0, -0.0, 0.0]])
    ds = WeightedDataset.uniform(xs, (xs >= 0.0).astype(int))
    learner = NoisyThresholdLearner(0.0, gamma=0.1)
    return [learner.train(ds, RngStream(seed)) for seed in range(3)] + [
        TableHypothesis([-0.0, 0.5, 1.25], [1, 0, 1], ThresholdHypothesis(0.5))]


@pytest.mark.parametrize("name, queries", list(_lookup_cases()), ids=[name for name, _ in _lookup_cases()])
def test_ascending_lookup_replays_the_unsorted_lookup(name, queries):
    for h in _tables():
        got = h.predict_many(queries)
        want = _unsorted_lookup(h, queries)
        assert got.dtype == want.dtype == np.int8 and got.shape == want.shape == queries.shape
        assert got.tobytes() == want.tobytes()
    h1, h2, h3, _ = _tables()
    votes = sum(_unsorted_lookup(h, queries).astype(int) for h in (h1, h2, h3)) >= 2
    assert MajorityVoteHypothesis(h1, h2, h3).predict_many(queries).tobytes() == votes.astype(np.int8).tobytes()


def test_noisy_learner_keys_are_np_unique():
    gen = np.random.default_rng(13)
    xs = np.concatenate([np.round(gen.uniform(-1, 1, 3000), 1), [-0.0, 0.0, -0.0], gen.uniform(-1, 1, 1000)])
    for seed in range(4):
        gen.shuffle(xs)
        ds = WeightedDataset.uniform(xs, (xs >= 0.0).astype(int))
        h = NoisyThresholdLearner(0.0, gamma=0.2).train(ds, RngStream(seed))
        assert h._keys[:-1].tobytes() == np.unique(xs).tobytes()


def test_boost3_does_not_import_numpy_ma():
    # numpy 2's np.unique imports numpy.ma on its first call; numpy 1 loads it with numpy
    code = (
        "import sys, numpy as np\n"
        "from thermolearn.boost import NoisyThresholdLearner, WeightedDataset, boost3\n"
        "from thermolearn.rng import RngStream\n"
        "before = 'numpy.ma' in sys.modules\n"
        "xs = np.random.default_rng(0).random(500)\n"
        "boost3(NoisyThresholdLearner(0.5, 0.1), WeightedDataset.uniform(xs, (xs >= 0.5).astype(int)), RngStream(1))\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


def test_risk_perfect_and_constant():
    ds = threshold_data(100, 0.5, seed=0)
    perfect = ThresholdHypothesis(0.5)
    assert empirical_risk(perfect, ds) == 0.0
    balanced = WeightedDataset.uniform([0.0, 1.0], [0, 1])
    assert empirical_risk(FixedHypothesis(0), balanced) == pytest.approx(0.5)


def test_risk_counts_weighted_mistakes():
    ds = WeightedDataset(
        xs=np.array([0.1, 0.9]),
        ys=np.array([1, 1], dtype=np.int8),
        weights=DiscreteDistribution([0.3, 0.7]),
    )
    h = ThresholdHypothesis(0.5)  # wrong on the weight-0.3 item only
    assert empirical_risk(h, ds) == pytest.approx(0.3)


# --- reweighting -----------------------------------------------------------------


def test_d2_balanced_hypothesis_is_fixed_point():
    ds = WeightedDataset.uniform([0.1, 0.9], [1, 1])
    h = ThresholdHypothesis(0.5)  # wrong on one of two uniform items
    out = reweight_d2(ds, h)
    assert np.allclose(out.weights.probs, ds.weights.probs)


def test_d2_hand_value():
    ds = WeightedDataset.uniform([0.1, 0.2, 0.3, 0.9], [1, 0, 0, 1])
    h = ThresholdHypothesis(0.5)  # wrong only on x=0.1
    out = reweight_d2(ds, h)
    expect = [0.5, 1 / 6, 1 / 6, 1 / 6]
    assert np.allclose(out.weights.probs, expect)
    assert out.weights.probs.sum() == pytest.approx(1.0)


def test_d2_degenerate_risks():
    ds = WeightedDataset.uniform([0.1, 0.9], [0, 1])
    with pytest.raises(DegenerateSplitError):
        reweight_d2(ds, ThresholdHypothesis(0.5))  # risk 0
    all_zero = WeightedDataset.uniform([0.1, 0.9], [0, 0])
    with pytest.raises(DegenerateSplitError):
        reweight_d2(all_zero, FixedHypothesis(1))  # risk 1


def test_d3_point_mass_on_single_disagreement():
    ds = WeightedDataset.uniform([0.1, 0.5, 0.9], [0, 1, 1])
    h1 = ThresholdHypothesis(0.5)
    h2 = ThresholdHypothesis(0.7)  # disagree only on x=0.5
    out = reweight_d3(ds, h1, h2)
    assert np.allclose(out.weights.probs, [0.0, 1.0, 0.0])


def test_d3_renormalizes_disagreement_weights():
    ds = WeightedDataset(
        xs=np.array([0.1, 0.5, 0.6, 0.9]),
        ys=np.array([0, 1, 1, 1], dtype=np.int8),
        weights=__import__("thermolearn").DiscreteDistribution([0.4, 0.1, 0.3, 0.2]),
    )
    h1 = ThresholdHypothesis(0.5)
    h2 = ThresholdHypothesis(0.7)  # disagree on x in {0.5, 0.6}: weights 0.1, 0.3
    out = reweight_d3(ds, h1, h2)
    assert np.allclose(out.weights.probs, [0.0, 0.25, 0.75, 0.0])


def test_d3_identical_hypotheses_error():
    ds = WeightedDataset.uniform([0.1, 0.9], [0, 1])
    h = ThresholdHypothesis(0.5)
    with pytest.raises(DegenerateSplitError):
        reweight_d3(ds, h, h)


# --- majority vote -----------------------------------------------------------------


def test_vote_unanimous_and_two_of_three():
    ones = FixedHypothesis(1)
    zeros = FixedHypothesis(0)
    assert MajorityVoteHypothesis(ones, ones, ones).predict(0.3) == 1
    assert MajorityVoteHypothesis(ones, ones, zeros).predict(0.3) == 1
    assert MajorityVoteHypothesis(zeros, ones, zeros).predict(0.3) == 0


def test_vote_ignores_third_when_first_two_agree():
    ds = threshold_data(50, 0.5, seed=1)
    h = ThresholdHypothesis(0.5)
    voted = MajorityVoteHypothesis(h, h, FixedHypothesis(0))
    assert np.array_equal(voted.predict_many(ds.xs), h.predict_many(ds.xs))


# --- error bound and recursion depth ---------------------------------------------------


def test_bound_frozen_values():
    assert boost_error_bound(0.5) == 0.0
    assert boost_error_bound(0.0) == 0.5
    assert abs(boost_error_bound(0.1) - 0.352) < 1e-12


def test_bound_strictly_improves_nontrivial_advantage():
    for gamma in (0.05, 0.1, 0.25, 0.4):
        assert boost_error_bound(gamma) < 0.5 - gamma


def test_bound_validation():
    with pytest.raises(ValidationError):
        boost_error_bound(-0.01)
    with pytest.raises(ValidationError):
        boost_error_bound(0.51)


def test_depth_examples():
    assert boost_recursion_depth(0.1, 0.352) == 1
    assert boost_recursion_depth(0.1, 0.45) == 0
    # iterating e -> 3e^2 - 2e^3 from 0.4: 0.352, 0.2845, 0.1967, 0.1009, 0.0285
    assert boost_recursion_depth(0.1, 0.1) == 5


def test_depth_stall_detection():
    # 69 rounds from gamma = 1e-12, past the cap of 64
    with pytest.raises(ConvergenceError, match=r"^boost_recursion_depth: exceeded max recursion depth$"):
        boost_recursion_depth(1e-12, 0.01)


def test_depth_at_gamma_zero_stalls_at_the_fixed_point_one_half():
    # the bound map p -> 3p^2 - 2p^3 fixes 1/2, where a gamma of 0 starts it
    with pytest.raises(ConvergenceError, match=r"^boost_recursion_depth: bound stalls at 0\.5 \(gamma too small\)$"):
        boost_recursion_depth(0.0, 0.3)


# --- boosting end to end -----------------------------------------------------------------


def test_boost3_diagnostics_and_improvement():
    ds = threshold_data(10000, 0.5, seed=3)
    weak = NoisyThresholdLearner(0.5, gamma=0.1)
    result = boost3(weak, ds, RngStream(3))
    d = result.diagnostics
    for err in (d.h1_err, d.h2_err, d.h3_err):
        assert err <= 0.5 - weak.gamma + 1e-9
    assert d.bound == pytest.approx(0.352)
    assert d.final_err <= 0.402
    assert empirical_risk(result.hypothesis, ds) == pytest.approx(d.final_err)


def test_boost3_perfect_learner_stays_perfect():
    ds = threshold_data(500, 0.5, seed=4)

    class PerfectLearner:
        gamma = 0.5

        def train(self, dataset, rng):
            return ThresholdHypothesis(0.5)

    result = boost3(PerfectLearner(), ds, RngStream(0))
    assert result.diagnostics.final_err == 0.0


def test_boost3_returns_h1_when_h2_agrees_on_every_item():
    ds = threshold_data(500, 0.5, seed=4)
    h = ThresholdHypothesis(0.3)

    class SameLearner:
        gamma = 0.1

        def train(self, dataset, rng):
            return h

    hypothesis, diag = boost3(SameLearner(), ds, RngStream(0))
    assert hypothesis is h
    assert diag.h1_err > 0.0 and diag.h2_err == pytest.approx(0.5)
    assert (diag.h3_err, diag.final_err, diag.bound) == (0.0, diag.h1_err, boost_error_bound(0.1))


class CountingLearner:
    """Wraps a learner; every hypothesis it trains logs the items each predict_many call gets."""

    def __init__(self, base):
        self.base, self.gamma, self.calls = base, base.gamma, []

    def train(self, dataset, rng):
        hypothesis, calls = self.base.train(dataset, rng), self.calls

        class Counted:
            def predict_many(self, xs):
                calls.append(xs)
                return hypothesis.predict_many(xs)

        return Counted()


class FixedLearner:
    def __init__(self, hypothesis, gamma=0.1):
        self.hypothesis, self.gamma = hypothesis, gamma

    def train(self, dataset, rng):
        return self.hypothesis


@pytest.mark.parametrize(
    "base, calls",
    [
        (FixedLearner(ThresholdHypothesis(0.5), gamma=0.5), 1),  # h1 is perfect
        (FixedLearner(ThresholdHypothesis(0.3)), 2),  # h2 agrees with h1 on every item
        (NoisyThresholdLearner(0.5, gamma=0.1), 3),
    ],
    ids=["h1_perfect", "h2_agrees", "three_voters"],
)
def test_boost3_predicts_once_per_trained_hypothesis_on_the_dataset_items(base, calls):
    ds = threshold_data(500, 0.5, seed=4)
    learner = CountingLearner(base)
    boost3(learner, ds, RngStream(0))
    assert len(learner.calls) == calls
    assert all(xs is ds.xs for xs in learner.calls)


def test_boost3_to_dict_round_trips_floats():
    ds = threshold_data(2000, 0.5, seed=5)
    result = boost3(NoisyThresholdLearner(0.5, 0.15), ds, RngStream(1))
    payload = result.diagnostics._asdict()
    assert set(payload) == {"h1_err", "h2_err", "h3_err", "final_err", "bound"}
    assert all(isinstance(v, float) for v in payload.values())


def test_recursive_boost_beats_target():
    ds = threshold_data(4000, 0.5, seed=6)
    weak = NoisyThresholdLearner(0.5, gamma=0.15)
    hypothesis = boost_recursive(weak, ds, target_epsilon=0.2, rng=RngStream(2))
    assert empirical_risk(hypothesis, ds) <= 0.2 + 0.05


def test_recursive_depth_zero_returns_base_output():
    ds = threshold_data(1000, 0.5, seed=7)
    weak = NoisyThresholdLearner(0.5, gamma=0.1)
    hypothesis = boost_recursive(weak, ds, target_epsilon=0.45, rng=RngStream(3))
    assert empirical_risk(hypothesis, ds) <= 0.45 + 0.05


# --- persistence ---------------------------------------------------------------------------


def test_dataset_file_roundtrip(tmp_path):
    ds = threshold_data(50, 0.5, seed=8)
    path = tmp_path / "data.csv"
    dump_dataset(ds, path)
    back = load_dataset(path)
    assert np.allclose(back.xs, ds.xs)
    assert np.array_equal(back.ys, ds.ys)
    assert np.allclose(back.weights.probs, ds.weights.probs)


def test_dataset_file_line_endings_reach_the_csv_reader(tmp_path):
    # CRLF and CR rows parse alike; a quoted field keeps its own line break,
    # as csv.reader sees it on a file opened with newline=""
    for name, data in (("crlf.csv", b"x,y\r\n0.25,0\r\n0.75,1\r\n"), ("cr.csv", b"x,y\r0.25,0\r0.75,1\r")):
        (tmp_path / name).write_bytes(data)
        back = load_dataset(tmp_path / name)
        assert back.xs.tolist() == [0.25, 0.75] and back.ys.tolist() == [0, 1]
    (tmp_path / "quoted.csv").write_bytes(b'x,y\r\n"0.25\r\n1",0\r\n')
    with pytest.raises(ValidationError, match=re.escape(r"quoted.csv:2: non-numeric row ['0.25\r\n1', '0']")):
        load_dataset(tmp_path / "quoted.csv")
