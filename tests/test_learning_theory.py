import math

import pytest

from thermolearn.errors import NumericalError, ValidationError
from thermolearn.learning_theory import approximation_ratio, pac_sample_bound


def test_sample_bound_hand_value():
    # 1/0.1 * ln(2000/0.1) rounded up
    expected = math.ceil(10.0 * math.log(20000.0))
    assert pac_sample_bound(0.1, 0.1, 2000) == expected


def test_sample_bound_monotone_in_tolerance():
    assert pac_sample_bound(0.01, 0.1, 100) > pac_sample_bound(0.1, 0.1, 100)


def test_sample_bound_doubling_hypotheses_costs_at_most_ln2_over_eps():
    eps = 0.05
    base = pac_sample_bound(eps, 0.05, 512)
    doubled = pac_sample_bound(eps, 0.05, 1024)
    assert doubled - base <= math.ceil(math.log(2.0) / eps)
    assert doubled >= base


def test_sample_bound_slack_term():
    base = pac_sample_bound(0.1, 0.1, 100, k=0.0)
    slacked = pac_sample_bound(0.1, 0.1, 100, k=3.0)
    assert slacked == math.ceil(10.0 * (math.log(1000.0) + 3.0))
    assert slacked > base


def test_sample_bound_for_a_class_beyond_the_float_range():
    # |H| / delta does not fit a float (there are 2^2048 Boolean functions of 11
    # inputs); ln|H| - ln delta does: ceil(2 * (400 ln 10 + ln 2))
    assert pac_sample_bound(0.5, 0.5, 10**400) == 1844
    assert pac_sample_bound(0.5, 0.5, 10**400) == math.ceil(2.0 * (400 * math.log(10.0) + math.log(2.0)))
    # a quotient that overflows only after the division takes the same route
    assert pac_sample_bound(0.5, 1e-300, 10**300) == math.ceil(2.0 * (300 + 300) * math.log(10.0))
    assert pac_sample_bound(1.0, 1.0, 2**2048) == math.ceil(2048 * math.log(2.0))


def test_sample_bound_beyond_the_float_range_is_numerical_error():
    with pytest.raises(NumericalError, match="^pac_sample_bound: bound inf is beyond the float range$"):
        pac_sample_bound(1e-320, 0.5, 10)
    # a bound below the float range is clamped at zero
    assert pac_sample_bound(1e-300, 0.5, 10, k=-1e300) == 0


def test_sample_bound_validation():
    with pytest.raises(ValidationError):
        pac_sample_bound(0.0, 0.1, 10)
    with pytest.raises(ValidationError):
        pac_sample_bound(0.1, 1.5, 10)
    with pytest.raises(ValidationError):
        pac_sample_bound(0.1, 0.1, 0)
    with pytest.raises(ValidationError):
        pac_sample_bound(0.1, 0.1, 10, k=float("nan"))


def test_ratio_optimal_cost():
    assert approximation_ratio(10.0, 10.0) == pytest.approx(1.0)


def test_ratio_hand_value():
    assert approximation_ratio(15.0, 10.0) == pytest.approx(1.5)


def test_ratio_never_below_one_for_valid_costs():
    assert approximation_ratio(10.0, 10.000001) >= 0.999999


def test_ratio_beyond_the_float_range_is_numerical_error():
    for costs in ((1e308, 1e-10), (1e-10, 1e308), (5e-324, 1.0)):
        with pytest.raises(NumericalError, match="^approximation_ratio: ratio inf is beyond the float range$"):
            approximation_ratio(*costs)
    assert approximation_ratio(1e308, 1.0) == 1e308
    assert approximation_ratio(1.0, 2.0**-1023) == 2.0**1023


def test_ratio_validation():
    with pytest.raises(ValidationError):
        approximation_ratio(-1.0, 10.0)
    with pytest.raises(ValidationError):
        approximation_ratio(10.0, 0.0)


def _two_route_bound(epsilon, delta, hypothesis_count, k):
    # the bound as once computed: ln(|H| / delta), and ln|H| - ln delta only
    # when the quotient overflows
    try:
        log_ratio = math.log(hypothesis_count / delta)
    except OverflowError:
        log_ratio = math.inf
    if log_ratio == math.inf:
        log_ratio = math.log(hypothesis_count) - math.log(delta)
    return math.ceil(max(0.0, (log_ratio + k) / epsilon))


def test_sample_bound_matches_the_two_route_formula_on_a_grid():
    counts = sorted({*range(1, 101), *(10**j for j in range(40)), *(2**j for j in range(130))})
    deltas = [1e-6 * 10 ** (j / 4) for j in range(25)] + [0.05, 0.5]
    epsilons = [j / 10 for j in range(1, 11)] + [0.01, 0.05, 1.0 / 3.0]
    for h in counts:
        for delta in deltas:
            for eps in epsilons:
                for k in (0.0, 1.0):
                    assert pac_sample_bound(eps, delta, h, k) == _two_route_bound(eps, delta, h, k), (eps, delta, h, k)
