import warnings

import numpy as np
import pytest

from thermolearn.errors import DomainError, NumericalError, ValidationError
from thermolearn.rng import RngStream
from thermolearn.sampling import importance_estimate


# --- importance sampling -------------------------------------------------


def test_same_proposal_reduces_to_plain_mean():
    rng = RngStream(7)
    x = rng.generator.random(size=500)
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
    x = rng.generator.random(size=n)
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
