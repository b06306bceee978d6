import re

import numpy as np
import pytest

from thermolearn.distributions import DiscreteDistribution
from thermolearn.boost import (
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
    majority_vote,
    reweight_d2,
    reweight_d3,
)
from thermolearn.errors import ConvergenceError, DegenerateSplitError, ValidationError
from thermolearn.rng import RngStream


def threshold_data(n, threshold, seed):
    rng = RngStream(seed)
    xs = rng.random(size=n)
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
    h = TableHypothesis({0.2: 1}, base)
    assert h.predict(0.2) == 1
    assert h.predict(0.7) == 1
    assert h.predict(0.3) == 0


# Table lookups once went through the dict one x at a time, with the
# threshold fallback's scalar rule for misses; that lookup is the oracle
# for the array lookup.


def _dict_lookup(h, x):
    key = float(x)
    if key in h.table:
        return int(h.table[key])
    return int(float(x) >= h.fallback.threshold)


@pytest.mark.parametrize(
    "table",
    [
        {},
        {0.0: 1},
        {-0.0: 1},
        {-0.0: 1, 0.5: 0, 2.0: 1},
        {0.9: 0, -3.0: 1, 0.1: 1, 1e300: 0, -1e-300: 0},  # not in key order
    ],
)
def test_table_predict_many_replays_dict_lookup(table):
    h = TableHypothesis(table, ThresholdHypothesis(0.5))
    queries = np.array(
        [0.0, -0.0, 0.5, 2.0, 0.9, -3.0, 0.1, 1e300, -1e-300,  # keys and their signed zeros
         -np.inf, -5.0, 7.0, np.inf,  # below the smallest and above the largest key
         0.49, 0.51, 0.3, 1.0, np.nan]  # misses on both sides of the fallback threshold
    )
    want = [_dict_lookup(h, x) for x in queries]
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
    assert list(h.table.items()) == list(want.items())
    assert all(type(k) is float and type(v) is int for k, v in h.table.items())


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
    assert majority_vote(ones, ones, ones).predict(0.3) == 1
    assert majority_vote(ones, ones, zeros).predict(0.3) == 1
    assert majority_vote(zeros, ones, zeros).predict(0.3) == 0


def test_vote_ignores_third_when_first_two_agree():
    ds = threshold_data(50, 0.5, seed=1)
    h = ThresholdHypothesis(0.5)
    voted = majority_vote(h, h, FixedHypothesis(0))
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
    with pytest.raises(ConvergenceError):
        boost_recursion_depth(1e-9, 0.01, max_depth=50)


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
    payload = result.diagnostics.to_dict()
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
