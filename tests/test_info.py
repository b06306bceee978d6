import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolearn.distributions import DiscreteDistribution, JointDistribution
from thermolearn.errors import DomainError, NumericalError, ValidationError
from thermolearn.info import (
    entropy_gibbs,
    entropy_nats,
    entropy_shannon,
    ib_objective,
    kl_divergence,
    mutual_information,
)


def random_dist(rng, n):
    w = rng.random(n) + 1e-12
    return DiscreteDistribution(w / w.sum())


# --- Shannon entropy ---------------------------------------------------


def test_entropy_uniform_four_outcomes_is_two_bits():
    assert entropy_shannon(DiscreteDistribution.uniform(4), 2) == pytest.approx(2.0)


def test_entropy_point_mass_is_zero():
    assert entropy_shannon(DiscreteDistribution([1.0]), 2) == 0.0


def test_entropy_hand_value():
    assert entropy_shannon(DiscreteDistribution([0.5, 0.25, 0.25]), 2) == pytest.approx(1.5)


def test_entropy_base_must_exceed_one():
    with pytest.raises(ValidationError):
        entropy_shannon(DiscreteDistribution([1.0]), 1.0)


def test_entropy_maximality_over_random_distributions():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        d = random_dist(rng, n)
        h = entropy_shannon(d, 2)
        assert h <= math.log2(n) + 1e-12
    assert entropy_shannon(DiscreteDistribution.uniform(8), 2) == pytest.approx(3.0, abs=1e-12)


# --- Gibbs entropy ------------------------------------------------------


def test_gibbs_uniform_matches_log_multiplicity():
    for omega in (1, 2, 5, 64):
        assert entropy_gibbs(DiscreteDistribution.uniform(omega), 1.0) == pytest.approx(
            math.log(omega), abs=1e-12
        )


def test_gibbs_default_constant_is_entropy_in_nats():
    # k_B = 1 by default: bit for bit the entropy in nats, and ln(Omega) on a
    # uniform law to the rounding of Omega terms
    p = DiscreteDistribution([0.1, 0.2, 0.3, 0.4])
    assert entropy_gibbs(p) == entropy_nats(p)
    for omega in (2, 3, 10, 1024):
        assert entropy_gibbs(DiscreteDistribution.uniform(omega)) == pytest.approx(math.log(omega), rel=1e-15)


def test_gibbs_physical_constant_scaling():
    k_b = 1.38e-16
    assert entropy_gibbs(DiscreteDistribution([0.5, 0.5]), k_b) == pytest.approx(k_b * math.log(2))


def test_gibbs_beyond_the_float_range_is_numerical_error():
    # k_B S at k_B = 1e308 fits for two equal outcomes (S = ln 2) and overflows for ten
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        half = DiscreteDistribution([0.5, 0.5])
        assert entropy_gibbs(half, k_B=1e308) == 1e308 * entropy_nats(half)
        with pytest.raises(NumericalError, match=r"^entropy_gibbs: k_B S overflows a float \(k_B = 1e\+308\)$"):
            entropy_gibbs(DiscreteDistribution.uniform(10), k_B=1e308)


def test_gibbs_requires_positive_constant():
    with pytest.raises(ValidationError):
        entropy_gibbs(DiscreteDistribution([1.0]), 0.0)


# --- KL divergence ------------------------------------------------------


def test_kl_self_is_zero():
    d = DiscreteDistribution([0.2, 0.8])
    assert kl_divergence(d, d) == 0.0


def test_kl_hand_value():
    q = DiscreteDistribution([0.5, 0.5])
    p = DiscreteDistribution([0.75, 0.25])
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert expected == pytest.approx(0.143841, abs=1e-6)
    assert kl_divergence(q, p) == pytest.approx(expected, abs=1e-15)


def test_kl_zero_in_q_is_fine():
    assert kl_divergence(
        DiscreteDistribution([1.0, 0.0]), DiscreteDistribution([0.5, 0.5])
    ) == pytest.approx(math.log(2))


def test_kl_absolute_continuity_violation():
    with pytest.raises(DomainError):
        kl_divergence(DiscreteDistribution([0.5, 0.5]), DiscreteDistribution([1.0, 0.0]))


def test_kl_needs_one_support_size():
    with pytest.raises(ValidationError, match="^kl_divergence: distributions must share a support size"):
        kl_divergence([0.5, 0.5], [0.25, 0.25, 0.5])


def test_kl_against_the_smallest_float_is_finite():
    # q / p overflowed to inf after a numpy RuntimeWarning; ln q - ln p does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kl_divergence([1.0, 0.0], [5e-324, 1.0]) == pytest.approx(-math.log(5e-324), rel=1e-15)


def test_kl_non_negative_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        q, p = random_dist(rng, n), random_dist(rng, n)
        assert kl_divergence(q, p) >= -1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_kl_zero_iff_equal(n, seed):
    rng = np.random.default_rng(seed)
    q = random_dist(rng, n)
    p = random_dist(rng, n)
    kl = kl_divergence(q, p)
    if np.max(np.abs(q.probs - p.probs)) < 1e-12:
        assert kl == pytest.approx(0.0, abs=1e-12)
    else:
        assert kl > 0.0


# --- mutual information -------------------------------------------------


def test_mi_independent_is_zero():
    j = JointDistribution(np.outer([0.3, 0.7], [0.6, 0.4]))
    assert mutual_information(j) == pytest.approx(0.0, abs=1e-15)


def test_mi_diagonal_equals_entropy():
    p = DiscreteDistribution([0.2, 0.3, 0.5])
    j = JointDistribution(np.diag(p.probs))
    assert mutual_information(j) == pytest.approx(entropy_nats(p), abs=1e-12)


def test_mi_hand_value():
    j = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    expected = sum(
        pxy * math.log(pxy / (0.5 * 0.5)) for pxy in (0.4, 0.1, 0.1, 0.4)
    )
    assert expected == pytest.approx(0.192745, abs=1e-6)
    assert mutual_information(j) == pytest.approx(expected, abs=1e-14)


def test_mi_symmetry():
    rng = np.random.default_rng(8)
    table = rng.random((3, 4))
    table /= table.sum()
    assert mutual_information(JointDistribution(table)) == pytest.approx(
        mutual_information(JointDistribution(table.T)), abs=1e-12
    )


def test_mi_cross_formula_agreement():
    rng = np.random.default_rng(21)
    for _ in range(100):
        table = rng.random((int(rng.integers(2, 5)), int(rng.integers(2, 5)))) + 1e-9
        table /= table.sum()
        j = JointDistribution(table)
        h_x = entropy_nats(j.marginal_rows())
        h_t = entropy_nats(j.marginal_cols())
        h_xt = entropy_nats(DiscreteDistribution(table.ravel()))
        assert mutual_information(j) == pytest.approx(h_x + h_t - h_xt, abs=1e-10)


def test_mi_of_a_cell_at_the_smallest_float_is_finite():
    # p(x) p(t) underflowed to 0, so the cell's ratio was inf; the true value
    # is 5e-324 * (-ln 5e-324), a subnormal float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mi = mutual_information([[5e-324, 0.0], [0.0, 1.0]])
    assert mi == pytest.approx(5e-324 * -math.log(5e-324), abs=5e-323) and mi > 0.0


# --- information bottleneck ----------------------------------------------


def test_ib_beta_zero_reduces_to_compression_term():
    rng = np.random.default_rng(5)
    xt = rng.random((3, 3)) + 0.01
    xt /= xt.sum()
    ty = rng.random((3, 2)) + 0.01
    ty /= ty.sum()
    j_xt, j_ty = JointDistribution(xt), JointDistribution(ty)
    assert ib_objective(j_xt, j_ty, 0.0) == pytest.approx(mutual_information(j_xt), abs=1e-14)


def test_ib_independent_joints_vanish():
    xt = JointDistribution(np.outer([0.4, 0.6], [0.5, 0.5]))
    ty = JointDistribution(np.outer([0.5, 0.5], [0.9, 0.1]))
    assert ib_objective(xt, ty, 3.7) == pytest.approx(0.0, abs=1e-12)


def test_ib_diagonal_identity_channel():
    p = DiscreteDistribution([0.25, 0.75])
    diag = JointDistribution(np.diag(p.probs))
    value = ib_objective(diag, diag, 1.0)
    assert value == pytest.approx(entropy_nats(p) - entropy_nats(p), abs=1e-12)


def test_ib_negative_beta_rejected():
    d = JointDistribution(np.diag([0.5, 0.5]))
    with pytest.raises(ValidationError):
        ib_objective(d, d, -0.1)
