import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from thermolearn import ebm
from thermolearn.ebm import (
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
    GibbsSampleRun,
    load_visible_data,
)
from thermolearn.errors import CapacityError, NumericalError, ValidationError
from thermolearn.rng import RngStream

SMALL = BoltzmannMachine(a=np.array([0.5]), b=np.array([-0.25]), W=np.array([[1.0]]))


# --- values beyond the float range ------------------------------------------------


def test_training_whose_parameters_overflow_is_numerical_error():
    # W + learning_rate * dW passes the float range: a ValidationError on W after a numpy warning
    machine = BoltzmannMachine(np.array([-1.5e308]), np.zeros(1), np.array([[1.5e308]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method, epoch in (("exact_gradient", 1), ("cd_k", 2)):
            with pytest.raises(NumericalError, match=rf"^bm_train at epoch {epoch}: a parameter overflows a float$"):
                bm_train(machine, [[1]], method=method, learning_rate=1e308, epochs=3, rng=RngStream(0))


@pytest.mark.parametrize(
    "name, call, largest",
    [
        ("bm_log_likelihood", bm_log_likelihood, "inf"),
        ("bm_exact_gradient", bm_exact_gradient, "inf"),
        # -E(v, h) is inf on some states and inf - inf on others
        ("bm_partition_exact", lambda machine, data: bm_partition_exact(machine), "nan"),
    ],
    ids=["bm_log_likelihood", "bm_exact_gradient", "bm_partition_exact"],
)
def test_exact_routines_beyond_the_float_range_are_numerical_error(name, call, largest):
    # a.v and v W h pass the float range: a numpy overflow warning came first
    machine = BoltzmannMachine(np.full(3, 1e308), np.zeros(2), np.full((3, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=rf"^{name}: log-weights overflow a float \(largest {largest}\)$"):
            call(machine, [[1, 0, 1]])


def test_gibbs_sampling_with_saturated_activations_has_no_warning():
    # b + vW overflows to inf, whose activation 1 is the correct float: numpy warned
    machine = BoltzmannMachine(np.zeros(2), np.zeros(2), np.full((2, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = bm_gibbs_sample(machine, 50, RngStream(0), start=BMState(np.ones(2), np.ones(2)))
    assert run.visible.all() and run.hidden.all()


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
    # every log-weight fits a float, and Z = 2 (1 + e^800) does not
    with pytest.raises(NumericalError):
        bm_partition_exact(BoltzmannMachine(a=np.array([800.0]), b=np.zeros(1), W=np.zeros((1, 1))))


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
        hidden[t] = u_h[t] < bm_hidden_activation(machine, v)
        visible[t] = u_v[t] < bm_visible_activation(machine, hidden[t])
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


@pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0, math.nan])
def test_threshold_lanes_decide_u_below_p(p):
    # the lane rule against u < p at k = 0, 1, T - 1, T and 2^53 - 1, where
    # u = k 2^-53; the other two lanes hold the opposite decision at their
    # extremes, so a borrow between lanes would show
    t = 0 if math.isnan(p) else math.ceil(Fraction(p) * 2**53)
    for k in sorted({k for k in (0, 1, t - 1, t, 2**53 - 1) if 0 <= k < 2**53}):
        probs = np.array([1.0, p, 0.0])
        ks = np.array([2**53 - 1, k, 0], dtype=np.uint64)
        thresholds, _ = ebm._conditional({}, 0, lambda machine, row: probs, None, 0)
        decided = (thresholds - next(ebm._uniform_lanes(ks[None, :] * 2.0**-53))) & ebm._lanes(np.full(3, 2**63, np.uint64))
        assert ebm._row(decided, 3).tolist() == [1, int(k * 2.0**-53 < p), 0]


@pytest.mark.parametrize("n_v, n_h", [(0, 3), (3, 0), (5, 4)])
def test_gibbs_keeps_units_with_a_nan_or_saturated_conditional_as_u_below_p_does(monkeypatch, n_v, n_h):
    # units 0, 1 and 2 of each layer get p = nan, 0 and 1 (off, off, on);
    # the rest keep the machine's own conditionals
    def patched(activation):
        def conditional(machine, row):
            p = activation(machine, row).copy()
            p[:3] = [math.nan, 0.0, 1.0][: p.size]
            return p
        return conditional

    test_module = sys.modules[__name__]
    for name in ("bm_hidden_activation", "bm_visible_activation"):
        monkeypatch.setattr(ebm, name, patched(getattr(ebm, name)))
        monkeypatch.setattr(test_module, name, getattr(ebm, name))
    machine = _random_machine(11, n_v, n_h, 0.5)
    rng, reference_rng = RngStream(4), RngStream(4)
    run = bm_gibbs_sample(machine, 2000, rng)
    visible, hidden = _replay_gibbs(machine, 2000, reference_rng)
    assert np.array_equal(run.visible, visible) and np.array_equal(run.hidden, hidden)
    assert rng.generator.bit_generator.state == reference_rng.generator.bit_generator.state
    for layer in (run.visible, run.hidden):
        assert layer[:, :3].tolist() == [[0, 0, 1][: layer.shape[1]]] * 2000


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


def test_cd_k_scores_each_epoch_with_the_public_log_likelihood(monkeypatch):
    # the traced benchmark times bm_log_likelihood per call and divides by its call count
    calls = []

    def counted(machine, data):
        calls.append(1)
        return bm_log_likelihood(machine, data)

    monkeypatch.setattr(ebm, "bm_log_likelihood", counted)
    data = [np.array([1, 1, 0]), np.array([0, 0, 1])]
    result = bm_train(BoltzmannMachine.zeros(3, 2), data, method="cd_k", epochs=7, k=1, rng=RngStream(2))
    assert len(calls) == len(result.loss_curve) == 7


def test_cd_k_past_the_enumeration_limit_trains_with_an_empty_loss_curve():
    # 12 + 10 units pass MAX_EXACT_UNITS, so no epoch can be scored exactly
    data = [np.ones(12), np.zeros(12)]
    result = bm_train(BoltzmannMachine.zeros(12, 10), data, method="cd_k", epochs=2, rng=RngStream(0))
    assert result.loss_curve == []
    assert np.any(result.machine.a != 0) or np.any(result.machine.W != 0)


def test_training_names_the_epoch_of_a_score_or_loss_beyond_the_float_range():
    # v W h passes the float range while no parameter moves (learning_rate = 0)
    machine = BoltzmannMachine(np.zeros(3), np.zeros(2), np.full((3, 2), 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^bm_train at epoch 1: bm_log_likelihood: log-weights overflow"):
            bm_train(machine, [[1, 0, 1]], method="cd_k", learning_rate=0.0, epochs=1, rng=RngStream(0))
        # a.v = -inf on the data row: its likelihood is 0 and its loss inf
        machine = BoltzmannMachine(np.array([-1e308, -1e308]), np.zeros(1), np.zeros((2, 1)))
        with pytest.raises(NumericalError, match="^bm_train at epoch 1: the negative log-likelihood overflows a float$"):
            bm_train(machine, [[1, 1]], epochs=1)


def test_cd_k_requires_rng():
    with pytest.raises(ValidationError):
        bm_train(BoltzmannMachine.zeros(1, 1), [np.array([1])], method="cd_k", rng=None)


def _train_reference(machine, data, method, learning_rate, epochs, k, rng):
    # bm_train's loop as it was, enumerating each exact epoch's machine twice and
    # taking p(h|data) twice per CD-k epoch: the reference for its bits
    bits = np.asarray(data, dtype=bool)
    X = bits.astype(float)

    def row_stats(machine, V):
        P_h = bm_hidden_activation(machine, V)
        return V.mean(axis=0), P_h.mean(axis=0), V.T @ P_h / V.shape[0]

    losses = []
    for _ in range(epochs):
        if method == "exact_gradient":
            states, pre, _, p, _ = ebm._enumerate_visible(machine, "reference")
            act = ebm._logistic(pre)
            model_stats = states @ p, act @ p, (states * p) @ act.T
        else:
            v_neg = X
            for _ in range(k):
                u_h = rng.generator.random((X.shape[0], machine.n_hidden))
                u_v = rng.generator.random(X.shape)
                h = (u_h < bm_hidden_activation(machine, v_neg)).astype(float)
                v_neg = (u_v < bm_visible_activation(machine, h)).astype(float)
            model_stats = row_stats(machine, v_neg)
        grad = [d - m for d, m in zip(row_stats(machine, X), model_stats)]
        machine = BoltzmannMachine(*(p + learning_rate * g for p, g in zip((machine.a, machine.b, machine.W), grad)))
        losses.append(-bm_log_likelihood(machine, bits))
    return machine, losses


@pytest.mark.parametrize("n_v", [1, 5, 8])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("method", ["exact_gradient", "cd_k"])
def test_train_replays_the_two_enumeration_loop_bit_for_bit(method, k, n_v):
    seed = 10 * n_v + k
    machine = _random_machine(seed, n_v, 4, 0.5)
    data = np.random.default_rng(seed).random((24, n_v)) < 0.4
    trained, losses = bm_train(machine, data, method, 0.3, 25, k, RngStream(seed))
    want, want_losses = _train_reference(machine, data, method, 0.3, 25, k, RngStream(seed))
    for got, ref in zip((trained.a, trained.b, trained.W), (want.a, want.b, want.W)):
        assert got.tobytes() == ref.tobytes()
    assert [x.hex() for x in losses] == [x.hex() for x in want_losses]


@pytest.mark.parametrize("epochs", [0, 1, 4])
def test_exact_training_enumerates_each_machine_once(monkeypatch, epochs):
    calls = []
    enumerate_visible = ebm._enumerate_visible
    monkeypatch.setattr(ebm, "_enumerate_visible", lambda machine, name: calls.append(machine) or enumerate_visible(machine, name))
    data = np.random.default_rng(1).random((10, 5)) < 0.5
    result = bm_train(_random_machine(1, 5, 3), data, "exact_gradient", 0.1, epochs)
    assert len(calls) == (epochs + 1 if epochs else 0)
    assert len(result.loss_curve) == epochs


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
