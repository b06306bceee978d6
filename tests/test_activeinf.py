import itertools
import math

import numpy as np
import pytest

from thermolearn.activeinf import (
    DiscreteMDP,
    FactorizedPosterior,
    GenerativeModel,
    expected_free_energy,
    fe_value_iteration,
    helmholtz_free_energy,
    mdp_from_json,
    mdp_to_json,
    mean_field_kl,
    mean_field_update,
    value_iteration,
    variational_free_energy,
)
from thermolearn.distributions import DiscreteDistribution
from thermolearn.errors import CapacityError, DomainError, ValidationError


def two_state_model(transition, reward_per_state, prior=(0.5, 0.5)):
    """Identity observation channel so reward[o, s] acts as r(s)."""
    return GenerativeModel(
        prior=DiscreteDistribution(list(prior)),
        likelihood=np.eye(2),
        transition=np.asarray(transition, dtype=float),
        reward=np.diag(np.asarray(reward_per_state, dtype=float)),
    )


# --- Helmholtz free energy -----------------------------------------------------


def test_helmholtz_values():
    assert helmholtz_free_energy(10.0, 2.0, 3.0) == pytest.approx(4.0)
    assert helmholtz_free_energy(7.5, 0.0, 100.0) == pytest.approx(7.5)
    assert helmholtz_free_energy(7.5, 3.0, 0.0) == pytest.approx(7.5)


def test_helmholtz_validation():
    with pytest.raises(ValidationError):
        helmholtz_free_energy(1.0, -0.5, 1.0)
    with pytest.raises(ValidationError):
        helmholtz_free_energy(float("nan"), 1.0, 1.0)


# --- variational free energy ------------------------------------------------------


def test_vfe_zero_at_exact_posterior():
    prior = DiscreteDistribution([0.5, 0.5])
    lik = np.array([0.9, 0.3])
    posterior = DiscreteDistribution([0.75, 0.25])
    assert variational_free_energy(posterior, prior, lik) == pytest.approx(0.0, abs=1e-12)


def test_vfe_needs_q_and_prior_on_one_state_space():
    with pytest.raises(DomainError, match="^variational_free_energy: q and prior must share the hidden state space"):
        variational_free_energy([1.0], [0.5, 0.5], [0.9, 0.3])


def test_factorized_posterior_needs_a_factor():
    with pytest.raises(ValidationError, match="^FactorizedPosterior: need at least one factor"):
        FactorizedPosterior(())


def test_vfe_uniform_q_hand_value():
    prior = DiscreteDistribution([0.5, 0.5])
    lik = np.array([0.9, 0.3])
    q = DiscreteDistribution([0.5, 0.5])
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert expected == pytest.approx(0.143841, abs=1e-6)
    assert variational_free_energy(q, prior, lik) == pytest.approx(expected, abs=1e-12)


def test_vfe_point_mass_on_map():
    prior = DiscreteDistribution([0.5, 0.5])
    lik = np.array([0.9, 0.3])
    q = DiscreteDistribution([1.0, 0.0])
    assert variational_free_energy(q, prior, lik) == pytest.approx(-math.log(0.75), abs=1e-12)


def test_vfe_matrix_likelihood_with_evidence_index():
    prior = DiscreteDistribution([0.5, 0.5])
    lik = np.array([[0.9, 0.1], [0.3, 0.7]])
    q = DiscreteDistribution([0.75, 0.25])
    assert variational_free_energy(q, prior, lik, evidence_index=0) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(ValidationError):
        variational_free_energy(q, prior, lik)


def test_vfe_non_negative_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        prior = rng.random(n) + 0.05
        prior /= prior.sum()
        lik = rng.random(n) + 0.05
        q = rng.random(n) + 0.05
        q /= q.sum()
        f = variational_free_energy(
            DiscreteDistribution(q), DiscreteDistribution(prior), lik
        )
        assert f >= -1e-15


def test_vfe_zero_evidence_rejected():
    prior = DiscreteDistribution([1.0, 0.0])
    lik = np.array([0.0, 0.5])
    with pytest.raises(DomainError):
        variational_free_energy(DiscreteDistribution([0.5, 0.5]), prior, lik)


# --- expected free energy ------------------------------------------------------------


def test_efe_deterministic_transitions_sum_rewards():
    # two states, action 0 swaps them deterministically; r(s) = (1, 3)
    transition = [[[0, 1], [1, 0]]]
    model = two_state_model(transition, [1.0, 3.0], prior=(1.0, 0.0))
    # state dist: t0 at s0 (r=1), t1 at s1 (r=3), t2 at s0 (r=1)
    assert expected_free_energy([0, 0, 0], model) == pytest.approx(1.0 + 3.0 + 1.0)


def test_efe_uniform_transition_entropy_term():
    k = 2
    transition = [np.full((k, k), 1.0 / k)]
    model = two_state_model(transition, [0.0, 0.0])
    assert expected_free_energy([0], model) == pytest.approx(math.log(k))


def test_efe_empty_policy_is_zero():
    model = two_state_model([[[0, 1], [1, 0]]], [1.0, 2.0])
    assert expected_free_energy([], model) == 0.0


def test_efe_negate_reward_flips_reward_term():
    model = two_state_model([[[0, 1], [1, 0]]], [1.0, 3.0], prior=(1.0, 0.0))
    plain = expected_free_energy([0, 0], model)
    flipped = expected_free_energy([0, 0], model, negate_reward=True)
    assert flipped == pytest.approx(-plain)  # entropy term is 0 here


def test_efe_validates_actions_and_start():
    model = two_state_model([[[0, 1], [1, 0]]], [1.0, 3.0])
    with pytest.raises(ValidationError):
        expected_free_energy([1], model)
    with pytest.raises(ValidationError):
        expected_free_energy([0], model, start=DiscreteDistribution([1.0, 0.0, 0.0]))


# --- value iteration -------------------------------------------------------------------


def test_vi_single_state_geometric_series():
    mdp = DiscreteMDP(np.ones((1, 1, 1)), np.array([[1.0]]), gamma=0.5)
    result = value_iteration(mdp, tolerance=1e-12)
    assert result.values[0] == pytest.approx(2.0, abs=1e-9)
    assert result.residual < 1e-12


def test_vi_myopic_at_gamma_zero():
    transition = np.zeros((2, 2, 2))
    transition[:, :, 0] = 1.0
    reward = np.array([[1.0, 5.0], [2.0, 0.5]])
    result = value_iteration(DiscreteMDP(transition, reward, gamma=0.0))
    assert np.allclose(result.values, [5.0, 2.0])
    assert list(result.policy) == [1, 0]


def chain_mdp(gamma=0.9):
    # action 0: stay; action 1: move to the other state; reward by state entered
    transition = np.zeros((2, 2, 2))
    transition[0, 0, 0] = 1.0
    transition[0, 1, 1] = 1.0
    transition[1, 0, 1] = 1.0
    transition[1, 1, 0] = 1.0
    reward = np.array([[0.0, 1.0], [1.0, 0.0]])
    return DiscreteMDP(transition, reward, gamma=gamma)


def enumerate_policies_exact(mdp):
    """Evaluate every stationary deterministic policy by linear solve."""
    n, m = mdp.n_states, mdp.n_actions
    best_v = None
    for assignment in itertools.product(range(m), repeat=n):
        P = np.array([mdp.transition[s, assignment[s]] for s in range(n)])
        r = np.array([mdp.reward[s, assignment[s]] for s in range(n)])
        v = np.linalg.solve(np.eye(n) - mdp.gamma * P, r)
        if best_v is None or np.all(v >= best_v - 1e-12):
            best_v = np.maximum(v, best_v) if best_v is not None else v
    return best_v


def test_vi_matches_policy_enumeration_on_chain():
    mdp = chain_mdp()
    result = value_iteration(mdp, tolerance=1e-12)
    exact = enumerate_policies_exact(mdp)
    assert np.allclose(result.values, exact, atol=1e-8)


def test_vi_contraction_rate():
    mdp = chain_mdp(gamma=0.8)
    result = value_iteration(mdp, tolerance=1e-10)
    diffs = result.sup_diffs
    # below ~1e-4 the subtraction V_{k+1}-V_k carries enough float noise
    # (2 eps ||V|| per entry) to swamp the 1e-9 slack, so check above it
    checked = 0
    for a, b in zip(diffs[2:], diffs[3:]):
        if a >= 1e-4:
            assert b / a <= mdp.gamma + 1e-9
            checked += 1
    assert checked >= 5


def test_vi_policy_affine_invariance():
    mdp = chain_mdp()
    base = value_iteration(mdp, tolerance=1e-10)
    scaled = DiscreteMDP(mdp.transition, 3.0 * mdp.reward + 7.0, mdp.gamma)
    result = value_iteration(scaled, tolerance=1e-10)
    assert np.array_equal(result.policy, base.policy)


def test_vi_tolerance_validation():
    with pytest.raises(ValidationError):
        value_iteration(chain_mdp(), tolerance=0.0)


def test_mdp_validation():
    with pytest.raises(ValidationError):
        DiscreteMDP(np.full((2, 1, 2), 0.6), np.zeros((2, 1)), gamma=0.9)
    with pytest.raises(ValidationError):
        DiscreteMDP(np.ones((1, 1, 1)), np.zeros((1, 1)), gamma=1.0)
    for flag in (False, np.False_):  # a bool is not a discount
        with pytest.raises(ValidationError, match="gamma"):
            DiscreteMDP(np.ones((1, 1, 1)), np.zeros((1, 1)), gamma=flag)


def test_mdp_json_roundtrip():
    mdp = chain_mdp()
    back = mdp_from_json(mdp_to_json(mdp))
    assert np.allclose(back.transition, mdp.transition)
    assert np.allclose(back.reward, mdp.reward)
    assert back.gamma == mdp.gamma
    with pytest.raises(ValidationError):
        mdp_from_json('{"n_states": 1}')


@pytest.mark.parametrize("text", [
    '{"n_states": 1,',
    '{"n_states": 1, "n_actions": 1, "gamma": 0.5, "transition": [[["x"]]], "reward": [[0]]}',
    '{"n_states": 1, "n_actions": 1, "gamma": "a", "transition": [[[1.0]]], "reward": [[0]]}',
    '{"n_states": 1, "n_actions": 1, "gamma": 0.5, "transition": [[[1.0]], [[1.0, 0.0]]], "reward": [[0]]}',
    "[1, 2]",
    "3",
    '{"n_states": 1, "n_actions": 1, "gamma": false, "transition": [[[1.0]]], "reward": [[0]]}',
    '{"n_states": 1.0, "n_actions": 1, "gamma": 0.5, "transition": [[[1.0]]], "reward": [[0]]}',
    '{"n_states": 1, "n_actions": true, "gamma": 0.5, "transition": [[[1.0]]], "reward": [[0]]}',
])
def test_mdp_json_malformed_is_validation_error(text):
    # invalid JSON, non-numeric and ragged tables, a non-numeric discount and
    # payloads that are not objects were JSONDecodeError/ValueError/TypeError;
    # a bool discount and non-integer declared sizes were accepted
    with pytest.raises(ValidationError, match="MDP JSON"):
        mdp_from_json(text)


# --- free-energy value iteration ----------------------------------------------------------


def test_fevi_deterministic_reduces_to_min_cost():
    # deterministic transitions: entropy 0, so c(s,a) = E[r|s]
    transition = np.zeros((2, 2, 2))
    transition[0] = np.eye(2)  # action 0: stay
    transition[1] = np.eye(2)[[1, 0]]  # action 1: swap
    model = two_state_model(transition, [1.0, 3.0])
    result = fe_value_iteration(model, tolerance=1e-12, discount=0.5)
    # optimal plan from either state: reach s0 (cost 1) and stay
    # V(s0) = 1 + 0.5 V(s0) -> 2; V(s1) = 3 + 0.5 V(s0) -> 4
    assert np.allclose(result.values, [2.0, 4.0], atol=1e-9)
    assert list(result.policy) == [0, 1]
    assert result.residual < 1e-12


def test_fevi_single_state_fixed_point():
    model = GenerativeModel(
        prior=DiscreteDistribution([1.0]),
        likelihood=np.eye(1),
        transition=np.ones((1, 1, 1)),
        reward=np.array([[2.0]]),
    )
    result = fe_value_iteration(model, tolerance=1e-12, discount=0.5)
    # c = 2 + 0 entropy; V = c / (1 - discount)
    assert result.values[0] == pytest.approx(4.0, abs=1e-9)


def test_fevi_constant_cost_shift():
    transition = np.zeros((2, 2, 2))
    transition[0] = np.eye(2)
    transition[1] = np.eye(2)[[1, 0]]
    model = two_state_model(transition, [1.0, 3.0])
    shifted = two_state_model(transition, [1.0 + 5.0, 3.0 + 5.0])
    discount = 0.5
    base = fe_value_iteration(model, tolerance=1e-12, discount=discount)
    moved = fe_value_iteration(shifted, tolerance=1e-12, discount=discount)
    assert np.allclose(moved.values, base.values + 5.0 / (1 - discount), atol=1e-8)
    assert np.array_equal(moved.policy, base.policy)


def test_fevi_entropy_steers_when_rewards_tie():
    # both actions stay in place reward-wise; action 1 is noisy so it costs entropy
    transition = np.zeros((2, 2, 2))
    transition[0] = np.eye(2)
    transition[1] = np.full((2, 2), 0.5)
    model = two_state_model(transition, [1.0, 1.0])
    result = fe_value_iteration(model, tolerance=1e-12, discount=0.9)
    assert list(result.policy) == [0, 0]


def test_fevi_negate_reward_prefers_high_reward_state():
    transition = np.zeros((2, 2, 2))
    transition[0] = np.eye(2)
    transition[1] = np.eye(2)[[1, 0]]
    model = two_state_model(transition, [1.0, 3.0])
    result = fe_value_iteration(model, tolerance=1e-12, discount=0.5, negate_reward=True)
    # minimizing -E[r]: reach s1 (reward 3) and stay
    assert list(result.policy) == [1, 0]


# --- mean-field variational inference --------------------------------------------------------


def test_mf_independent_target_is_exact_after_one_sweep():
    px = np.array([0.3, 0.7])
    py = np.array([0.6, 0.4])
    log_joint = np.log(np.outer(px, py))
    q = FactorizedPosterior.uniform((2, 2))
    out = mean_field_update(q, log_joint, sweeps=1)
    assert mean_field_kl(out, log_joint) == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(out.factors[0].probs, px, atol=1e-12)
    assert np.allclose(out.factors[1].probs, py, atol=1e-12)


def test_mf_correlated_joint_converged_kl():
    log_joint = np.log(np.array([[0.4, 0.1], [0.1, 0.4]]))
    q = FactorizedPosterior.uniform((2, 2))
    out = mean_field_update(q, log_joint, sweeps=200)
    kl = mean_field_kl(out, log_joint)
    # best product approximation of this symmetric joint is uniform:
    # KL = 0.5 ln(25/16)
    assert kl == pytest.approx(0.5 * math.log(25.0 / 16.0), abs=1e-9)
    assert kl > 0.0


def test_mf_zero_sweeps_is_identity():
    q = FactorizedPosterior.uniform((2, 2))
    log_joint = np.log(np.array([[0.4, 0.1], [0.1, 0.4]]))
    out = mean_field_update(q, log_joint, sweeps=0)
    assert out is q or all(
        np.allclose(a.probs, b.probs) for a, b in zip(out.factors, q.factors)
    )


def test_mf_kl_non_increasing_per_sweep():
    rng = np.random.default_rng(7)
    for _ in range(10):
        table = rng.random((3, 4, 2)) + 0.05
        log_joint = np.log(table / table.sum())
        q = FactorizedPosterior.uniform((3, 4, 2))
        kls = [mean_field_kl(q, log_joint)]
        for _ in range(8):
            q = mean_field_update(q, log_joint, sweeps=1)
            kls.append(mean_field_kl(q, log_joint))
        for a, b in zip(kls, kls[1:]):
            assert b <= a + 1e-12


def test_mf_three_variable_exactness_on_product():
    parts = [np.array([0.2, 0.8]), np.array([0.5, 0.25, 0.25]), np.array([0.9, 0.1])]
    joint = np.einsum("i,j,k->ijk", *parts)
    q = FactorizedPosterior.uniform((2, 3, 2))
    out = mean_field_update(q, np.log(joint), sweeps=2)
    assert mean_field_kl(out, np.log(joint)) == pytest.approx(0.0, abs=1e-10)


def test_mf_unnormalized_table_is_fine():
    # adding a constant to the log table must not change anything
    log_joint = np.log(np.array([[0.4, 0.1], [0.1, 0.4]]))
    q = FactorizedPosterior.uniform((2, 2))
    a = mean_field_update(q, log_joint, sweeps=3)
    b = mean_field_update(q, log_joint + 11.0, sweeps=3)
    for fa, fb in zip(a.factors, b.factors):
        assert np.allclose(fa.probs, fb.probs, atol=1e-12)


def test_mf_capacity_limits():
    with pytest.raises(CapacityError):
        mean_field_update(
            FactorizedPosterior.uniform((2, 2, 2, 2)), np.zeros((2, 2, 2, 2)), sweeps=1
        )
    with pytest.raises(CapacityError):
        mean_field_kl(FactorizedPosterior.uniform((17,)), np.zeros(17))


def test_mf_table_shape_mismatch():
    q = FactorizedPosterior.uniform((2, 2))
    with pytest.raises(ValidationError):
        mean_field_update(q, np.zeros((2, 3)), sweeps=1)
    with pytest.raises(ValidationError):
        mean_field_update(q, np.full((2, 2), -np.inf), sweeps=1)
