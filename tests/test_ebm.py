import math
import tracemalloc
import warnings

import numpy as np
import pytest

from thermolearn.distributions import DiscreteDistribution
from thermolearn.ebm import (
    _gibbs_step,
    BMState,
    BoltzmannMachine,
    bm_energy,
    bm_exact_gradient,
    bm_free_energy,
    bm_gibbs_sample,
    bm_hidden_activation,
    bm_joint_index,
    bm_log_likelihood,
    bm_partition_exact,
    bm_state_from_index,
    bm_train,
    bm_visible_activation,
    dump_visible_data,
    ebl_infer,
    gibbs_posterior,
    GibbsSampleRun,
    load_visible_data,
    loss_hinge,
    loss_nll,
    loss_perceptron,
)
from thermolearn.errors import CapacityError, NumericalError, ValidationError
from thermolearn.rng import RngStream

SMALL = BoltzmannMachine(a=np.array([0.5]), b=np.array([-0.25]), W=np.array([[1.0]]))


# --- inference and losses ----------------------------------------------------


def test_infer_argmin_with_low_index_ties():
    assert ebl_infer([0.5]) == 0
    assert ebl_infer([3.0, 1.0, 2.0]) == 1
    assert ebl_infer([1.0, 1.0]) == 0
    with pytest.raises(ValidationError):
        ebl_infer([])


def test_posterior_equal_energies():
    post, z = gibbs_posterior([0.0, 0.0], beta=1.0)
    assert np.allclose(post.probs, [0.5, 0.5])
    assert z == pytest.approx(2.0)


def test_posterior_infinite_temperature_is_uniform():
    post, _ = gibbs_posterior([5.0, -3.0, 100.0], beta=0.0)
    assert np.allclose(post.probs, 1.0 / 3.0)


def test_posterior_two_level_hand_value():
    post, z = gibbs_posterior([0.0, 1.0], beta=1.0)
    assert post.probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)
    assert post.probs[1] == pytest.approx(math.exp(-1.0) / (1.0 + math.exp(-1.0)), abs=1e-12)
    assert z == pytest.approx(1.0 + math.exp(-1.0), rel=1e-12)


def test_posterior_normalized_and_dual_to_infer():
    rng = np.random.default_rng(0)
    for _ in range(50):
        energies = rng.normal(size=int(rng.integers(1, 9)))
        post, _ = gibbs_posterior(energies, beta=2.5)
        assert post.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(np.argmax(post.probs)) == ebl_infer(energies)


def test_posterior_survives_extreme_energies():
    post, _ = gibbs_posterior([1000.0, 1001.0], beta=1.0)
    assert post.probs[0] == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_posterior_partition_overflow_is_numerical_error():
    with pytest.raises(NumericalError):
        gibbs_posterior([-1000.0, 0.0], beta=1.0)
    with pytest.raises(NumericalError):
        bm_partition_exact(BoltzmannMachine(a=np.array([800.0]), b=np.zeros(1), W=np.zeros((1, 1))))
    # the log-domain quantities stay finite at the same scale
    assert loss_nll([-1000.0, 0.0], 0, beta=1.0) == pytest.approx(0.0, abs=1e-12)


def test_log_weight_overflow_is_numerical_error_without_warnings():
    # -beta * E = 1e309 overflows: loss_nll returned nan, and gibbs_posterior raised
    # ValidationError over NaN probabilities, both after numpy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^loss_nll: log-weights overflow a float \(largest inf\)$"):
            loss_nll([0.0, -1e308], 0, 10.0)
        with pytest.raises(NumericalError, match=r"^gibbs_posterior: log-weights overflow a float \(largest inf\)$"):
            gibbs_posterior([0.0, -1e308], 10.0)
        # an overflow to -inf is a weight of 0
        post, z = gibbs_posterior([0.0, 1e308], 10.0)
        assert post.probs.tolist() == [1.0, 0.0] and z == 1.0
        assert (loss_nll([0.0, 1e308], 0, 10.0), loss_nll([0.0, 1e308], 1, 10.0)) == (0.0, 1e308)


@pytest.mark.parametrize(
    "name, loss",
    [
        ("loss_nll", lambda: loss_nll([1.7e308, -1.7e308], 0, 1.0)),
        ("loss_perceptron", lambda: loss_perceptron([1.7e308, -1.7e308], 0)),
        ("loss_hinge", lambda: loss_hinge(1.7e308, -1.7e308, 1.0)),
    ],
)
def test_energy_gap_loss_beyond_the_float_range_is_numerical_error(name, loss):
    # valid inputs whose loss, about 3.4e308, passes the float range: the final
    # sum printed a numpy overflow warning or none, and returned inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=rf"^{name}: loss overflows a float$"):
            loss()


def test_energy_gap_losses_near_the_float_range_keep_their_bits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert loss_nll([8e307, -9e307], 0, 1.0) == 8e307 + 9e307
        assert loss_perceptron([8e307, -9e307], 0) == 8e307 + 9e307
        assert loss_hinge(8e307, -9e307, 0.0) == 8e307 + 9e307


def test_perceptron_loss_values():
    assert loss_perceptron([2.0, 1.0, 3.0], 1) == 0.0
    assert loss_perceptron([0.8, 0.3], 0) == pytest.approx(0.5)
    assert loss_perceptron([0.7], 0) == 0.0
    with pytest.raises(ValidationError):
        loss_perceptron([1.0], 2)


def test_hinge_loss_values():
    assert loss_hinge(0.2, 0.5, 1.0) == pytest.approx(0.7)
    assert loss_hinge(0.2, 2.0, 1.0) == 0.0
    assert loss_hinge(1.0, 1.0, 0.0) == 0.0
    with pytest.raises(ValidationError):
        loss_hinge(0.0, 0.0, -0.5)


def test_nll_loss_values():
    assert loss_nll([0.4, 0.4], 0, beta=1.0) == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(ValidationError):
        loss_nll([0.0, 1.0], 0, beta=0.0)


def test_nll_posterior_identity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        energies = rng.normal(size=5)
        beta = float(rng.uniform(0.1, 4.0))
        post, _ = gibbs_posterior(energies, beta)
        for c in range(5):
            assert loss_nll(energies, c, beta) == pytest.approx(
                -math.log(post.probs[c]) / beta, abs=1e-12
            )


def test_nll_approaches_perceptron_at_low_temperature():
    energies = [0.0, 1.0]
    assert loss_nll(energies, 0, beta=50.0) == pytest.approx(
        loss_perceptron(energies, 0), abs=1e-3
    )


def test_shift_invariance():
    rng = np.random.default_rng(2)
    energies = rng.normal(size=6)
    shifted = energies + 37.5
    assert ebl_infer(shifted) == ebl_infer(energies)
    p0, _ = gibbs_posterior(energies, 1.3)
    p1, _ = gibbs_posterior(shifted, 1.3)
    assert np.allclose(p0.probs, p1.probs, atol=1e-10)
    for c in range(6):
        assert loss_perceptron(shifted, c) == pytest.approx(
            loss_perceptron(energies, c), abs=1e-10
        )
    assert loss_hinge(energies[0] + 5, energies[1] + 5, 1.0) == pytest.approx(
        loss_hinge(energies[0], energies[1], 1.0), abs=1e-10
    )


def test_losses_non_negative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        energies = rng.normal(size=4)
        c = int(rng.integers(0, 4))
        assert loss_perceptron(energies, c) >= 0.0
        assert loss_nll(energies, c, beta=1.0) >= 0.0
        assert loss_hinge(energies[0], energies[1], 0.5) >= 0.0


# --- Boltzmann machine: structure and energy -----------------------------------


def test_machine_validation():
    with pytest.raises(ValidationError):
        BoltzmannMachine(a=np.array([0.0]), b=np.array([0.0]), W=np.array([[1.0, 2.0]]))
    with pytest.raises(ValidationError):
        BoltzmannMachine(a=np.array([np.inf]), b=np.array([0.0]), W=np.array([[1.0]]))


def test_machine_json_roundtrip():
    text = SMALL.to_json()
    back = BoltzmannMachine.from_json(text)
    assert np.allclose(back.a, SMALL.a)
    assert np.allclose(back.b, SMALL.b)
    assert np.allclose(back.W, SMALL.W)


@pytest.mark.parametrize("text", [
    '{"a": [0.5],',
    '{"a": [0.5], "b": [0.0], "W": [["x"]]}',
    '{"a": [0.5], "b": [0.0], "W": [[1.0], [2.0, 3.0]]}',
    '{"a": [0.5], "b": {"x": 1}, "W": [[1.0]]}',
    '{"a": [0.5], "b": [0.0]}',
    '["a", "b", "W"]',
    "3",
])
def test_machine_json_malformed_is_validation_error(text):
    with pytest.raises(ValidationError, match="machine JSON"):
        BoltzmannMachine.from_json(text)


def test_energy_zero_machine():
    m = BoltzmannMachine.zeros(2, 3)
    assert bm_energy(BMState(np.array([1, 0]), np.array([1, 1, 0])), m) == 0.0


def test_energy_hand_value():
    state = BMState(np.array([1]), np.array([1]))
    assert bm_energy(state, SMALL) == pytest.approx(-1.25)


def test_energy_visible_off_leaves_hidden_bias():
    m = BoltzmannMachine(a=np.array([0.3]), b=np.array([0.7]), W=np.array([[2.0]]))
    assert bm_energy(BMState(np.array([0]), np.array([1])), m) == pytest.approx(-0.7)


def test_energy_rejects_non_binary():
    with pytest.raises(ValidationError):
        bm_energy(BMState(np.array([2]), np.array([0])), SMALL)


def test_state_index_roundtrip():
    m = BoltzmannMachine.zeros(2, 2)
    for idx in range(16):
        state = bm_state_from_index(idx, m)
        assert bm_joint_index(state, m) == idx


def test_state_from_index_rejects_out_of_range():
    # 99 used to read as state 3 on three units and -1 as all ones
    m = BoltzmannMachine.zeros(2, 1)
    for idx in (-1, 8, 99):
        with pytest.raises(ValidationError, match="out of range"):
            bm_state_from_index(idx, m)


# --- exact inference ---------------------------------------------------------------


def test_partition_zero_machines():
    z, joint = bm_partition_exact(BoltzmannMachine.zeros(1, 1))
    assert z == pytest.approx(4.0)
    assert np.allclose(joint.probs, 0.25)
    z, _ = bm_partition_exact(BoltzmannMachine.zeros(3, 2))
    assert z == pytest.approx(32.0)


def test_partition_matches_direct_enumeration():
    z, joint = bm_partition_exact(SMALL)
    weights = []
    for idx in range(4):
        state = bm_state_from_index(idx, SMALL)
        weights.append(math.exp(-bm_energy(state, SMALL)))
    assert z == pytest.approx(sum(weights), rel=1e-12)
    assert np.allclose(joint.probs, np.array(weights) / sum(weights), atol=1e-12)


def test_partition_capacity_guard():
    with pytest.raises(CapacityError):
        bm_partition_exact(BoltzmannMachine.zeros(11, 10))


def test_hidden_activation_hand_value():
    p = bm_hidden_activation(SMALL, np.array([1]))
    assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.75)), abs=1e-12)


def test_visible_activation_zero_hidden():
    p = bm_visible_activation(SMALL, np.array([0]))
    assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=1e-12)


def test_activations_of_a_stack_match_per_row_calls():
    # BLAS sums a stack in another order than single rows, so the last bit
    # may differ; the largest relative gap seen on these cases was 1.8e-15
    gen = np.random.default_rng(11)
    for _ in range(300):
        n_v, n_h = gen.integers(1, 9, size=2)
        m = BoltzmannMachine(gen.normal(size=n_v), gen.normal(size=n_h), gen.normal(size=(n_v, n_h)))
        V = (gen.random((gen.integers(1, 40), n_v)) < 0.5).astype(np.uint8)
        H = (gen.random((gen.integers(1, 40), n_h)) < 0.5).astype(np.uint8)
        P_h, P_v = bm_hidden_activation(m, V), bm_visible_activation(m, H)
        assert P_h.shape == (len(V), n_h) and P_v.shape == (len(H), n_v)
        np.testing.assert_allclose(P_h, [bm_hidden_activation(m, v) for v in V], rtol=4e-15, atol=0)
        np.testing.assert_allclose(P_v, [bm_visible_activation(m, h) for h in H], rtol=4e-15, atol=0)


def test_activations_reject_rows_of_the_wrong_width():
    m = BoltzmannMachine.zeros(3, 2)
    for v in ([1, 0], np.zeros((4, 2)), np.zeros((2, 4)), 1.0, ["a", "b", "c"]):
        with pytest.raises(ValidationError, match="3 visible units"):
            bm_hidden_activation(m, v)
    for h in ([1, 0, 1], np.zeros((4, 3)), 0.0):
        with pytest.raises(ValidationError, match="2 hidden units"):
            bm_visible_activation(m, h)
    with pytest.raises(ValidationError, match=r"^bm_hidden_activation: v must be numeric rows of 3 visible units$"):
        bm_hidden_activation(m, [1, 0])
    with pytest.raises(ValidationError, match=r"^bm_visible_activation: h must be numeric rows of 2 hidden units$"):
        bm_visible_activation(m, [1, 0, 1])


def test_gibbs_sample_run_rejects_trajectories_of_unequal_length():
    with pytest.raises(ValidationError, match=r"^GibbsSampleRun: visible and hidden trajectories must have equal length$"):
        GibbsSampleRun(np.zeros((3, 2), dtype=np.uint8), np.zeros((2, 1), dtype=np.uint8))


def test_free_energy_consistent_with_enumeration():
    # e^{-F(v)} = sum_h e^{-E(v,h)}
    rng = np.random.default_rng(4)
    m = BoltzmannMachine(
        a=rng.normal(size=2) * 0.5,
        b=rng.normal(size=3) * 0.5,
        W=rng.normal(size=(2, 3)) * 0.5,
    )
    for v_bits in range(4):
        v = np.array([(v_bits >> i) & 1 for i in range(2)])
        total = 0.0
        for h_bits in range(8):
            h = np.array([(h_bits >> j) & 1 for j in range(3)])
            total += math.exp(-bm_energy(BMState(v, h), m))
        assert bm_free_energy(m, v) == pytest.approx(-math.log(total), abs=1e-10)


def _random_machine(seed, n_visible=4, n_hidden=3, scale=1.0):
    g = np.random.default_rng(seed)
    return BoltzmannMachine(
        *(scale * g.normal(size=shape) for shape in (n_visible, n_hidden, (n_visible, n_hidden)))
    )


def _joint_tables(machine):
    # every joint state's (v, h) rows, in bm_joint_index order
    states = [bm_state_from_index(i, machine) for i in range(1 << (machine.n_visible + machine.n_hidden))]
    return np.array([s.v for s in states], float), np.array([s.h for s in states], float)


def test_log_likelihood_from_joint():
    z, joint = bm_partition_exact(SMALL)
    # marginal of v=[1] over both hidden states
    p_v1 = sum(
        joint.probs[bm_joint_index(BMState(np.array([1]), np.array([h])), SMALL)]
        for h in (0, 1)
    )
    assert bm_log_likelihood(SMALL, [np.array([1])]) == pytest.approx(math.log(p_v1), abs=1e-12)

    machine = _random_machine(6)
    _, joint = bm_partition_exact(machine)
    V, _ = _joint_tables(machine)
    data = (np.random.default_rng(7).random((9, 4)) < 0.5).astype(int)
    marginal = [joint.probs[np.all(V == row, axis=1)].sum() for row in data]
    assert bm_log_likelihood(machine, data) == pytest.approx(float(np.mean(np.log(marginal))), abs=1e-12)


def test_exact_gradient_matches_joint_statistics():
    machine = _random_machine(8)
    _, joint = bm_partition_exact(machine)
    V, H = _joint_tables(machine)
    p = joint.probs
    data = (np.random.default_rng(9).random((11, 4)) < 0.5).astype(float)
    P_h = bm_hidden_activation(machine, data)
    grad = bm_exact_gradient(machine, data)
    assert np.allclose(grad.a, data.mean(axis=0) - p @ V, rtol=0, atol=1e-12)
    assert np.allclose(grad.b, P_h.mean(axis=0) - p @ H, rtol=0, atol=1e-12)
    assert np.allclose(grad.W, data.T @ P_h / 11 - (V * p[:, None]).T @ H, rtol=0, atol=1e-12)


# --- Gibbs sampling -------------------------------------------------------------------


def test_gibbs_run_shapes_and_slicing():
    run = bm_gibbs_sample(SMALL, steps=100, rng=RngStream(0))
    assert len(run) == 100
    assert run.visible.shape == (100, 1)
    assert run.hidden.shape == (100, 1)
    state = run[5]
    assert isinstance(state, BMState)
    assert len(run[10:20]) == 10


def test_gibbs_zero_machine_is_fair_coin():
    run = bm_gibbs_sample(BoltzmannMachine.zeros(1, 1), steps=20000, rng=RngStream(1))
    assert float(run.visible.mean()) == pytest.approx(0.5, abs=0.02)
    assert float(run.hidden.mean()) == pytest.approx(0.5, abs=0.02)


def test_gibbs_long_run_matches_exact_joint():
    steps = 300000
    run = bm_gibbs_sample(SMALL, steps=steps, rng=RngStream(2))
    _, joint = bm_partition_exact(SMALL)
    idx = run.visible[:, 0].astype(int) + 2 * run.hidden[:, 0].astype(int)
    emp = np.bincount(idx, minlength=4) / steps
    tv = 0.5 * float(np.abs(emp - joint.probs).sum())
    assert tv < 0.02


def test_gibbs_reproducible():
    a = bm_gibbs_sample(SMALL, steps=50, rng=RngStream(3))
    b = bm_gibbs_sample(SMALL, steps=50, rng=RngStream(3))
    assert np.array_equal(a.visible, b.visible)
    assert np.array_equal(a.hidden, b.hidden)


def _replay_gibbs(machine, steps, rng, start=None):
    # the per-step loop that recomputes both conditionals every step: the
    # reference the memoised sampler must reproduce bit for bit
    v = np.zeros(machine.n_visible, dtype=np.uint8) if start is None else np.asarray(start.v).astype(np.uint8)
    visible = np.empty((steps, machine.n_visible), dtype=np.uint8)
    hidden = np.empty((steps, machine.n_hidden), dtype=np.uint8)
    u_h = rng.generator.random((steps, machine.n_hidden))
    u_v = rng.generator.random((steps, machine.n_visible))
    for t in range(steps):
        hidden[t], visible[t] = _gibbs_step(machine, v, u_h[t], u_v[t])
        v = visible[t]
    return visible, hidden


# 40x30 visits more than 4096 distinct visible and hidden states, past the memo's cap
@pytest.mark.parametrize("n_v, n_h, steps, scale", [(1, 1, 500, 1.0), (8, 6, 3000, 1.0), (12, 10, 6000, 0.25), (40, 30, 6000, 0.5)])
@pytest.mark.parametrize("start", ["zeros", "float", "bool"])
def test_gibbs_matches_the_per_step_reference_bit_for_bit(n_v, n_h, steps, scale, start):
    seed = n_v + 100 * n_h
    machine = _random_machine(seed, n_v, n_h, scale)
    bits = np.random.default_rng(seed).random(n_v + n_h) < 0.5
    state = {"zeros": None, "float": BMState(bits[:n_v].astype(float), bits[n_v:].astype(float)),
             "bool": BMState(bits[:n_v], bits[n_v:])}[start]
    run = bm_gibbs_sample(machine, steps, RngStream(seed), state)
    visible, hidden = _replay_gibbs(machine, steps, RngStream(seed), state)
    assert run.visible.dtype == visible.dtype and run.hidden.dtype == hidden.dtype
    assert np.array_equal(run.visible, visible)
    assert np.array_equal(run.hidden, hidden)


def _gibbs_peak_bytes(machine, steps):
    tracemalloc.start()
    try:
        bm_gibbs_sample(machine, steps, RngStream(7))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gibbs_memory_grows_only_by_trajectory_and_uniforms():
    # nearly every state of a 40x30 chain is new, so an unbounded memo would
    # grow with steps; 9 bytes per unit per step are the float64 uniforms and
    # the uint8 trajectory
    machine = _random_machine(3, 40, 30, 0.5)
    growth = _gibbs_peak_bytes(machine, 40_000) - _gibbs_peak_bytes(machine, 10_000)
    assert growth <= 9 * 70 * 30_000 + 2**20


@pytest.mark.parametrize("steps", [0, -3, 2.5, True, "5", None])
def test_gibbs_rejects_a_step_count_that_is_not_a_positive_integer(steps):
    with pytest.raises(ValidationError, match="steps must"):
        bm_gibbs_sample(SMALL, steps, RngStream(0))


def test_gibbs_requires_rng():
    with pytest.raises(ValidationError, match="rng"):
        bm_gibbs_sample(SMALL, 10, None)


# --- training ----------------------------------------------------------------------------


def test_zero_learning_rate_is_identity():
    data = [np.array([1, 0]), np.array([0, 1])]
    m = BoltzmannMachine.zeros(2, 2)
    result = bm_train(m, data, method="exact_gradient", learning_rate=0.0, epochs=5)
    assert np.allclose(result.machine.a, 0.0)
    assert np.allclose(result.machine.b, 0.0)
    assert np.allclose(result.machine.W, 0.0)


def test_exact_gradient_fits_single_pattern():
    data = [np.array([1, 1])] * 4
    m = BoltzmannMachine.zeros(2, 1)
    probs = []
    current = m
    for _ in range(10):
        result = bm_train(current, data, method="exact_gradient", learning_rate=0.5, epochs=1)
        current = result.machine
        _, joint = bm_partition_exact(current)
        p_v = 0.0
        for h in (0, 1):
            p_v += joint.probs[bm_joint_index(BMState(np.array([1, 1]), np.array([h])), current)]
        probs.append(p_v)
    assert all(b > a for a, b in zip(probs, probs[1:]))


def test_exact_gradient_loss_curve_decreases():
    data = [np.array([1, 0]), np.array([1, 0]), np.array([0, 1])]
    result = bm_train(
        BoltzmannMachine.zeros(2, 2), data, method="exact_gradient", learning_rate=0.2, epochs=40
    )
    assert len(result.loss_curve) == 40
    assert result.loss_curve[-1] < result.loss_curve[0]


def test_cd_k_improves_likelihood():
    rng = RngStream(5)
    data = [np.array([1, 1, 0]), np.array([1, 1, 0]), np.array([0, 0, 1])] * 3
    m = BoltzmannMachine.zeros(3, 2)
    before = bm_log_likelihood(m, data)
    result = bm_train(m, data, method="cd_k", learning_rate=0.1, epochs=60, k=1, rng=rng)
    assert bm_log_likelihood(result.machine, data) > before
    assert len(result.loss_curve) == 60


@pytest.mark.parametrize("epochs, k, name", [(2.5, 1, "epochs"), (-1, 1, "epochs"), (True, 1, "epochs"),
                                             (3, 1.5, "k"), (3, 0, "k"), (3, True, "k"), (3, "2", "k")])
def test_train_rejects_counts_that_are_not_integers(epochs, k, name):
    with pytest.raises(ValidationError, match=f"{name} must"):
        bm_train(SMALL, [np.array([1])], method="cd_k", epochs=epochs, k=k, rng=RngStream(0))


def test_train_rejects_an_unknown_method():
    with pytest.raises(ValidationError, match="^bm_train: unknown method 'pcd'"):
        bm_train(SMALL, [np.array([1])], method="pcd", epochs=1, rng=RngStream(0))


def test_cd_k_requires_rng():
    with pytest.raises(ValidationError):
        bm_train(BoltzmannMachine.zeros(1, 1), [np.array([1])], method="cd_k", rng=None)


def test_exact_gradient_capacity_guard():
    with pytest.raises(CapacityError):
        bm_train(
            BoltzmannMachine.zeros(12, 12),
            [np.ones(12, dtype=int)],
            method="exact_gradient",
            epochs=1,
        )


def test_visible_data_roundtrip(tmp_path):
    data = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.int8)
    path = tmp_path / "data.txt"
    dump_visible_data(data, path)
    back = load_visible_data(path)
    assert np.array_equal(back, data)
