import math
import warnings

import numpy as np
import pytest

from thermolearn.distributions import (
    DiscreteDistribution,
    _pack_bits,
    _unpack_bits,
    JointDistribution,
    as_distribution,
    as_joint,
    log_normalize,
    partition_value,
    state_bits,
)
from thermolearn.ebm import BoltzmannMachine, bm_joint_index, bm_state_from_index
from thermolearn.errors import NumericalError, ValidationError
from thermolearn.ising import config_from_index, config_index


def test_valid_distribution_roundtrip():
    d = DiscreteDistribution([0.2, 0.3, 0.5])
    assert len(d) == 3
    assert d[2] == pytest.approx(0.5)


def test_negative_entry_rejected():
    with pytest.raises(ValidationError):
        DiscreteDistribution([0.6, -0.1, 0.5])


def test_bad_sum_rejected():
    with pytest.raises(ValidationError):
        DiscreteDistribution([0.5, 0.4])


def test_labels_must_match_probs_in_length():
    with pytest.raises(ValidationError, match=r"^DiscreteDistribution: labels length must match probs$"):
        DiscreteDistribution([0.5, 0.5], labels=["a"])


def test_sum_tolerance_accepts_tiny_drift():
    probs = np.array([0.25, 0.25, 0.25, 0.25 + 5e-10])
    DiscreteDistribution(probs)


def test_uniform_and_point_mass():
    u = DiscreteDistribution.uniform(4)
    np.testing.assert_allclose(u.probs, 0.25)
    p = DiscreteDistribution.point_mass(2, 4)
    assert p[2] == 1.0 and p[0] == 0.0


def test_mean_over_integer_support():
    d = DiscreteDistribution([0.5, 0.0, 0.5])
    assert d.mean() == pytest.approx(1.0)


def test_as_distribution_accepts_sequences():
    d = as_distribution([0.5, 0.5])
    assert isinstance(d, DiscreteDistribution)
    assert as_distribution(d) is d


def test_joint_marginals():
    j = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    np.testing.assert_allclose(j.marginal_rows().probs, [0.5, 0.5])
    np.testing.assert_allclose(j.marginal_cols().probs, [0.5, 0.5])


def test_joint_validation():
    with pytest.raises(ValidationError):
        JointDistribution([[0.5, 0.4]])
    with pytest.raises(ValidationError):
        JointDistribution([[1.2, -0.2]])


def test_joint_from_independent_and_diagonal():
    row = DiscreteDistribution([0.3, 0.7])
    col = DiscreteDistribution([0.5, 0.5])
    j = JointDistribution.from_independent(row, col)
    np.testing.assert_allclose(j.table, [[0.15, 0.15], [0.35, 0.35]])
    d = JointDistribution.diagonal(row)
    np.testing.assert_allclose(d.table, [[0.3, 0.0], [0.0, 0.7]])
    assert as_joint(d.table).shape == (2, 2)


# --- normaliser and state enumeration -----------------------------------------


def test_log_normalize_shift_invariant():
    log_w = np.random.default_rng(0).normal(size=(3, 4))
    probs, log_z = log_normalize(log_w)
    assert probs.shape == (3, 4)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert log_z == pytest.approx(math.log(np.exp(log_w).sum()), abs=1e-12)
    shifted, log_z_shifted = log_normalize(log_w + 123.25)
    np.testing.assert_allclose(shifted, probs, rtol=0, atol=1e-15)
    assert log_z_shifted == pytest.approx(log_z + 123.25, abs=1e-12)


def test_log_normalize_extreme_weights_stay_finite():
    probs, log_z = log_normalize([1000.0, 0.0, -1000.0])
    assert np.all(np.isfinite(probs))
    assert probs[0] == 1.0
    assert log_z == 1000.0
    with pytest.raises(NumericalError):
        partition_value(log_z)
    assert partition_value(math.log(2.0)) == pytest.approx(2.0, abs=1e-15)


def test_log_normalize_weights_beyond_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # entries further apart than the float range: the lower is a weight of 0, with no
        # overflow warning from the max shift
        probs, log_z = log_normalize([1.7e308, -1.7e308, -np.inf])
        assert probs.tolist() == [1.0, 0.0, 0.0] and log_z == 1.7e308
        for largest in (np.inf, -np.inf, np.nan):
            with pytest.raises(NumericalError, match=rf"^log_normalize: log-weights overflow a float \(largest {largest}\)$"):
                log_normalize([largest, -np.inf])


def test_state_bits_match_index_conventions():
    bits = state_bits(5)
    assert bits.dtype == np.uint8 and bits.shape == (5, 32)
    machine = BoltzmannMachine.zeros(2, 3)
    for k in range(32):
        assert np.array_equal(2 * bits[:, k].astype(int) - 1, config_from_index(k, 5))
        state = bm_state_from_index(k, machine)
        assert np.array_equal(bits[:, k], np.concatenate([state.v, state.h]))
    assert state_bits(0).shape == (0, 1)


@pytest.mark.parametrize("n_bits", [1, 8, 63, 64, 70, 130])
def test_state_index_is_exact_past_63_bits(n_bits):
    bits = np.random.default_rng(n_bits).integers(0, 2, n_bits, dtype=np.uint8)
    bits[-1] = 1
    index = sum(int(bit) << i for i, bit in enumerate(bits))
    assert config_index(2 * bits.astype(int) - 1) == index
    assert np.array_equal(config_from_index(index, n_bits), 2 * bits.astype(np.int8) - 1)
    machine = BoltzmannMachine.zeros(n_bits - n_bits // 2, n_bits // 2)
    state = bm_state_from_index(index, machine)
    assert np.array_equal(np.concatenate([state.v, state.h]), bits)
    assert bm_joint_index(state, machine) == index
    assert list(_pack_bits(np.stack([bits, 1 - bits]))) == [index, (1 << n_bits) - 1 - index]
    assert np.array_equal(_unpack_bits(index, n_bits), bits)
