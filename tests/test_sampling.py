import warnings

import numpy as np
import pytest
from scipy import stats

from thermolearn.errors import DomainError, NumericalError, ValidationError
from thermolearn.rng import RngStream
from thermolearn.sampling import (
    Bernoulli,
    Exponential,
    UniformReal,
    WeightedSample,
    clt_standardized_sums,
    importance_estimate,
)


# --- importance sampling -------------------------------------------------


def test_same_proposal_reduces_to_plain_mean():
    rng = RngStream(7)
    x = rng.random(size=500)
    p = np.full(500, 0.3)
    h = x * x
    assert importance_estimate(h, p, p) == pytest.approx(float(np.mean(h)), abs=0.0)


@pytest.mark.parametrize("h, p, q, estimate", [
    ([1.0], [1e300], [1e-300], "inf"),  # p/q overflows: it warned "overflow encountered in divide"
    ([1e300], [1e10], [1.0], "inf"),  # a term overflows
    ([0.0], [1e300], [1e-300], "nan"),  # 0 * inf
    ([-1e300, 1.0], [1e10, 1.0], [1.0, 1.0], "-inf"),  # a term overflows below the range; the other terms are finite
])
def test_estimate_beyond_the_float_range_is_numerical_error_without_warnings(h, p, q, estimate):
    message = rf"^importance_estimate: a ratio p/q, a term or the mean is beyond the float range \({estimate}\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            importance_estimate(h, p, q)
        assert importance_estimate([1e308, 1e308], [0.5, 0.5], [1.0, 1.0]) == 5e307
        assert importance_estimate([1e308, -1e308], [1.0, 1.0], [1.0, 1.0]) == 0.0


@pytest.mark.parametrize("h, p, q, expected", [
    ([1e308, 1e308], [1.0, 1.0], [1.0, 1.0], 1e308),  # the sum overflows; it raised NumericalError
    ([1e308] * 5, [1.0] * 5, [1.0] * 5, 1e308),  # scaled by 2^-3 for five terms
    ([1.5e308, 1.5e308, -1e308], [1.0] * 3, [2.0, 2.0, 1.0], 5e307 / 3),
])
def test_estimate_whose_sum_overflows_is_the_mean_of_its_terms(h, p, q, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert importance_estimate(h, p, q) == pytest.approx(expected, rel=1e-15)
    assert importance_estimate([1e308, 1e308], [1, 1], [1, 1]) == 1e308


def test_discrete_reweighting_hand_value():
    # target p puts 0.8 on the first point, proposal q splits evenly
    h = np.array([1.0, 0.0])
    p = np.array([0.8, 0.2])
    q = np.array([0.5, 0.5])
    assert importance_estimate(h, p, q) == pytest.approx(0.8)


def test_constant_integrand_recovers_target_mass():
    rng = RngStream(42)
    n = 20000
    x = rng.random(size=n)
    # target: triangular density 2x on [0,1]; proposal: uniform
    p = 2.0 * x
    q = np.ones(n)
    h = np.ones(n)
    assert importance_estimate(h, p, q) == pytest.approx(1.0, abs=0.02)


def test_nonpositive_proposal_rejected():
    with pytest.raises(DomainError):
        importance_estimate(np.array([1.0]), np.array([0.5]), np.array([0.0]))


def test_negative_target_rejected():
    with pytest.raises(DomainError):
        importance_estimate(np.array([1.0]), np.array([-0.5]), np.array([0.5]))


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        importance_estimate(np.array([1.0, 2.0]), np.array([0.5]), np.array([0.5]))


def test_weighted_sample_validation():
    ws = WeightedSample(1.5, 2.0)
    assert ws.weight == 2.0
    with pytest.raises(ValidationError):
        WeightedSample(1.5, -0.1)


# --- samplers ------------------------------------------------------------


def test_bernoulli_moments_and_support():
    b = Bernoulli(0.3)
    assert b.mean == pytest.approx(0.3)
    assert b.variance == pytest.approx(0.21)
    draws = b.sample(RngStream(1), size=2000)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert float(np.mean(draws)) == pytest.approx(0.3, abs=0.05)


def test_uniform_real_moments():
    u = UniformReal(2.0, 6.0)
    assert u.mean == pytest.approx(4.0)
    assert u.variance == pytest.approx(16.0 / 12.0)
    draws = u.sample(RngStream(2), size=5000)
    assert float(np.min(draws)) >= 2.0
    assert float(np.max(draws)) <= 6.0


def test_exponential_moments():
    e = Exponential(2.0)
    assert e.mean == pytest.approx(0.5)
    assert e.variance == pytest.approx(0.25)
    draws = e.sample(RngStream(3), size=20000)
    assert float(np.mean(draws)) == pytest.approx(0.5, abs=0.02)


def test_sampler_parameter_validation():
    with pytest.raises(ValidationError):
        Bernoulli(1.5)
    with pytest.raises(ValidationError):
        UniformReal(3.0, 3.0)
    with pytest.raises(ValidationError):
        Exponential(0.0)


# --- CLT check -----------------------------------------------------------


def test_single_summand_bernoulli_is_two_point():
    vals = clt_standardized_sums(Bernoulli(0.5), n=1, reps=400, rng=RngStream(5))
    uniq = np.unique(np.round(vals, 12))
    assert len(uniq) == 2
    assert np.allclose(sorted(uniq), [-1.0, 1.0])


def test_standardized_sums_approach_standard_normal():
    vals = clt_standardized_sums(Bernoulli(0.5), n=1000, reps=10000, rng=RngStream(6))
    assert float(np.mean(vals)) == pytest.approx(0.0, abs=0.05)
    assert float(np.var(vals)) == pytest.approx(1.0, rel=0.05)
    ks = stats.kstest(vals, "norm")
    assert ks.statistic < 0.02


def test_clt_holds_for_skewed_summands():
    vals = clt_standardized_sums(Exponential(1.0), n=2000, reps=4000, rng=RngStream(7))
    ks = stats.kstest(vals, "norm")
    assert ks.statistic < 0.03


def test_degenerate_sampler_rejected():
    with pytest.raises(DomainError):
        clt_standardized_sums(Bernoulli(1.0), n=10, reps=10, rng=RngStream(8))


def test_clt_rep_and_n_validation():
    with pytest.raises(ValidationError):
        clt_standardized_sums(Bernoulli(0.5), n=0, reps=10, rng=RngStream(9))
    with pytest.raises(ValidationError):
        clt_standardized_sums(Bernoulli(0.5), n=10, reps=0, rng=RngStream(9))
