"""The scalar, array and index argument rules shared by the library and the CLI schema, and config-input fuzzing."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolearn import cli
from thermolearn.activeinf import (
    DiscreteMDP,
    FactorizedPosterior,
    GenerativeModel,
    mean_field_kl,
    mean_field_update,
    value_iteration,
)
from thermolearn.anneal import CoolingSchedule
from thermolearn.boost import NoisyThresholdLearner, WeightedDataset, boost_error_bound
from thermolearn.config import _array, _count, _index, _problem, _real, _stochastic, parse_config
from thermolearn.convolution import conv_fft, conv_naive, fft_radix2, ifft_radix2
from thermolearn.digest import DoubleDigestInstance, generate_instance
from thermolearn.distributions import DiscreteDistribution, JointDistribution
from thermolearn.ebm import (
    BoltzmannMachine,
    bm_free_energy,
    bm_gibbs_sample,
    bm_state_from_index,
    bm_train,
)
from thermolearn.errors import ThermolearnError, ValidationError
from thermolearn.info import entropy_shannon, ib_objective
from thermolearn.ising import (
    CouplingGraph,
    chain_graph,
    check_spins,
    complete_graph,
    config_from_index,
    estimate_observables,
    metropolis_chain,
    partition_exact,
    random_spins,
)
from thermolearn.marl import (
    IsingGameEnv,
    NeighborGraph,
    QTable,
    discretize_mean,
    mf_actor_critic_grad,
    mf_q_update,
    run_ising_game,
    torus_graph,
)
from thermolearn.rng import RngStream
from thermolearn.sampling import importance_estimate
from thermolearn.trace import Trace

INF, NAN = math.inf, math.nan


# --- the rule -------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, ok",
    [
        (0.5, True),
        (1, True),
        (np.float32(0.25), True),
        (np.int64(1), True),
        (-0.0, True),
        (True, False),  # a bool is never a number here
        (np.True_, False),
        (NAN, False),
        (INF, False),
        (-INF, False),
        (10**400, False),  # beyond the float range
        ("0.5", False),
        (None, False),
        (np.array(0.5), False),
    ],
)
def test_real_rule_on_types_and_specials(value, ok):
    assert (_problem(value, 0, 1) is None) == ok
    if not ok:
        with pytest.raises(ValidationError, match=r"^f: x must be a finite real in \[0, 1\], got "):
            _real("f: x", value, 0, 1)


def test_real_rule_ends_and_wording():
    assert _problem(0, 0, 1, "[)") is None and _problem(1, 0, 1, "[)") == "must be a finite real in [0, 1), got 1"
    assert _problem(0, 0, 0.5, "(]") == "must be a finite real in (0, 0.5], got 0"
    assert _problem(0.5, 0, 0.5, "(]") is None
    assert _problem(0.0, 0, ends="(]") == "must be a finite real > 0, got 0.0"
    assert _problem(-1, 0) == "must be a finite real >= 0, got -1"
    assert _problem(NAN) == "must be a finite real, got nan"
    assert _real("f: x", np.float32(0.5), 0, 1) == 0.5 and type(_real("f: x", 2, 0)) is float


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(True), "2", None, np.float64(2.0)])
def test_count_rule_rejects_what_is_not_an_integer(value):
    with pytest.raises(ValidationError, match=r"^f: n must be an integer >= 1, got "):
        _count("f: n", value, 1)


def test_count_rule_keeps_integers_exact():
    assert _count("f: n", np.int64(3), 1) == 3 and type(_count("f: n", np.int64(3), 1)) is int
    assert _count("f: n", 10**400, 1) == 10**400
    assert _problem(2**63, 1, 2**63 - 1, integer=True) == "must be an integer in [1, 9223372036854775807], got 9223372036854775808"


# --- every input the rule tightened ------------------------------------------------
# Each raised TypeError, was accepted or was rejected under another name
# before the library's scalar checks went through config's rule. A row marked
# "kept" checks a kept function in the slot of a row whose function was
# deleted, so that every other row keeps its id.

RING = chain_graph(3)
GAME = IsingGameEnv(torus_graph(2, 2))
SCHEDULE = CoolingSchedule("geometric", 1.0, 0.9)
MDP = DiscreteMDP(np.ones((1, 1, 1)), np.zeros((1, 1)), 0.5)
JOINT = np.full((2, 2), 0.25)


def _game(episodes=2, steps_per_episode=2, alpha=0.1, n_bins=3):
    return run_ising_game(GAME, episodes, steps_per_episode, alpha, 0.9, SCHEDULE, RngStream(0), n_bins=n_bins)


TIGHTENED = [
    # raised TypeError
    ("n_sites", lambda: chain_graph(3.0)),
    ("rows", lambda: torus_graph(2.5, 3)),
    ("n_batches", lambda: estimate_observables(np.ones((4, 3)), RING, n_batches=2.5)),
    ("episodes", lambda: _game(episodes=2.5)),
    ("steps_per_episode", lambda: _game(steps_per_episode=3.0)),
    ("alpha", lambda: _game(alpha="x")),
    ("sweeps", lambda: mean_field_update(FactorizedPosterior.uniform((2,)), np.zeros(2), sweeps=2.5)),
    ("n", lambda: DiscreteDistribution.uniform(2.5)),  # kept
    ("n_agents", lambda: NeighborGraph.from_edges(2.5, [])),  # kept
    ("n_a", lambda: generate_instance(2.5, 2, 10, RngStream(0))),
    ("beta", lambda: metropolis_chain(RING, "0.5", 10, 0, RngStream(0))),
    ("beta", lambda: partition_exact(RING, None)),
    ("beta", lambda: ib_objective(JOINT, JOINT, "1")),  # kept
    ("beta", lambda: partition_exact(RING, "1")),  # kept
    # accepted without complaint
    ("n_bins", lambda: discretize_mean([0.5, 0.5], 2.5)),
    ("n_bins", lambda: _game(n_bins=2.5)),
    ("n_b", lambda: generate_instance(2, 2.5, 10, RngStream(0))),  # kept
    ("total_length", lambda: generate_instance(2, 2, 10.5, RngStream(0))),  # kept
    ("steps", lambda: bm_gibbs_sample(BoltzmannMachine.zeros(2, 1), 2.5, RngStream(0))),  # kept
    ("k", lambda: SCHEDULE.temperature(0.5)),
    ("linear decrement", lambda: CoolingSchedule("linear", 1.0, NAN)),
    ("T0", lambda: CoolingSchedule("geometric", True, 0.5)),
    ("beta", lambda: metropolis_chain(RING, True, 10, 0, RngStream(0))),
    ("log_base", lambda: entropy_shannon([0.5, 0.5], log_base=INF)),
    ("beta", lambda: ib_objective(JOINT, JOINT, NAN)),
    ("tolerance", lambda: value_iteration(MDP, tolerance=INF)),
    ("gamma", lambda: boost_error_bound(INF)),  # kept
    ("learning_rate", lambda: bm_train(BoltzmannMachine.zeros(2, 1), [[1, 0]], learning_rate=-1.0, epochs=1)),
    ("threshold", lambda: NoisyThresholdLearner(NAN, 0.1)),
    # rejected as "BoltzmannMachine: a must be finite" after the first epoch
    ("learning_rate", lambda: bm_train(BoltzmannMachine.zeros(2, 1), [[1, 0]], learning_rate=NAN, epochs=1)),
    # raised TypeError
    ("complete_graph: n_sites", lambda: complete_graph(2.5)),
    ("complete_graph: n_sites", lambda: complete_graph("3")),
    ("random_spins: n_sites", lambda: random_spins(2.5, RngStream(0))),
    ("BoltzmannMachine.zeros: n_visible", lambda: BoltzmannMachine.zeros(2.5, 1)),
    ("BoltzmannMachine.zeros: n_hidden", lambda: BoltzmannMachine.zeros(2, 1.5)),
    # raised ValueError
    ("chain_graph: h", lambda: chain_graph(3, h="x")),
    ("complete_graph: h", lambda: complete_graph(3, h="x")),
    # a fragment that is a string, a float or a bool
    ("DoubleDigestInstance: a fragments", lambda: DoubleDigestInstance((1, "2"), (3,), (3,))),
    ("DoubleDigestInstance: a fragments", lambda: DoubleDigestInstance((1, 2.0), (3,), (3,))),
    ("DoubleDigestInstance: a fragments", lambda: DoubleDigestInstance((True,), (1,), (1,))),
    # wrote a JSON key that json.loads rejects
    ("Trace: column names", lambda: Trace({0: [1, 2]}).json_text()),
    # raised TypeError from sorted
    ("Trace: column names", lambda: Trace({0: [1], "a": [2]}).json_text()),
]


@pytest.mark.parametrize("arg, call", TIGHTENED, ids=[f"{i:02d}-{arg}" for i, (arg, _) in enumerate(TIGHTENED)])
def test_tightened_scalar_inputs_raise_validation_error(arg, call):
    with pytest.raises(ValidationError, match=f"{arg} must be "):
        call()


# --- the array and index rules ---------------------------------------------------


def test_array_rule_wording():
    assert _array("f: x", [1, 2]).dtype == np.float64
    with pytest.raises(ValidationError, match=r"^f: x must be a non-empty 1-D sequence of finite reals, got shape \(0,\)$"):
        _array("f: x", [])
    with pytest.raises(ValidationError, match=r"^f: x must be a 2-D sequence of shape \(n, 2\) of finite reals in \[0, 1\), got 1\.0 at \[1, 0\]$"):
        _array("f: x", [[0.0, 0.5], [1.0, 0.0]], (None, 2), 0, 1, "[)")
    with pytest.raises(ValidationError, match=r"^f: x must be a 1-D sequence of shape \(2,\) of integers in \[0, 1\], got 0\.5 at \[1\]$"):
        _array("f: x", [1.0, 0.5], (2,), 0, 1, dtype=bool)
    with pytest.raises(ValidationError, match=r"^f: x must be a non-empty 1-D sequence of finite reals, got a ragged list$"):
        _array("f: x", [[1.0], [1.0, 2.0]])
    # a size of 0 asks for an empty axis; bools are entries of a bool dtype only
    assert _array("f: x", np.zeros((2, 0)), (2, 0)).shape == (2, 0)
    assert _array("f: x", [True, False], (2,), 0, 1, dtype=bool).dtype == np.bool_
    with pytest.raises(ValidationError, match="got entries of dtype bool"):
        _array("f: x", [True, False], (2,), 0, 1, dtype=np.int8)


def test_array_rule_copies_no_float64_input():
    a = np.array([0.25, 0.75])
    assert _array("f: x", a) is a and _array("f: x", a, (2,), 0, 1) is a
    assert np.shares_memory(DiscreteDistribution(a).probs, a)
    assert np.shares_memory(_stochastic("f: x", a), a)


def test_stochastic_and_index_rules():
    with pytest.raises(ValidationError, match=r"^f: x must sum to 1 along its last axis within 1e-09, got a sum of 0\.75$"):
        _stochastic("f: x", [[0.5, 0.5], [0.5, 0.25]], (2, 2))
    assert _index("f: i", np.int64(2), 3) == 2
    for bad in (3, -1, 2.0, True, "1", None):
        with pytest.raises(ValidationError, match=r"^f: i out of range: must be an integer in \[0, 3\), got "):
            _index("f: i", bad, 3)


# Each raised ValueError, TypeError or IndexError, or was accepted, before the
# library's array and index checks went through config's rules ("kept" rows as above).
M21 = BoltzmannMachine.zeros(2, 1)
TIGHTENED_ARRAYS = [
    # raised ValueError, TypeError or IndexError
    ("DiscreteDistribution: probs", lambda: DiscreteDistribution(["a"])),
    ("JointDistribution: table", lambda: JointDistribution([["a"]])),
    ("conv_naive: y", lambda: conv_naive([1.0], ["a"])),  # kept
    ("mf_actor_critic_grad: own_action", lambda: mf_actor_critic_grad([1.0, 2.0], 2, 1.0)),  # kept
    ("mf_actor_critic_grad: policy_params", lambda: mf_actor_critic_grad(["a"], 0, 1.0)),
    ("check_spins: spins", lambda: check_spins(["a", "b"], 2)),
    ("WeightedDataset: xs", lambda: WeightedDataset(["x"], [0], [1.0])),
    ("importance_estimate: h_values", lambda: importance_estimate(["a"], [1.0], [1.0])),
    ("BoltzmannMachine: a", lambda: BoltzmannMachine(["a"], [0.0], [[0.0]])),
    ("bm_free_energy: v", lambda: bm_free_energy(M21, ["a", "b"])),
    ("bm_free_energy: v", lambda: bm_free_energy(M21, [1, 0, 1])),
    ("GenerativeModel: likelihood", lambda: GenerativeModel(DiscreteDistribution([1.0]), [["a"]], [[[1.0]]], [[0.0]])),
    ("DiscreteMDP: transition", lambda: DiscreteMDP([[["a"]]], [[0.0]], 0.5)),
    ("GenerativeModel: reward", lambda: GenerativeModel(DiscreteDistribution([1.0]), [[1.0]], [[[1.0]]], [["a"]])),  # kept
    ("DiscreteMDP: reward", lambda: DiscreteMDP([[[1.0]]], [["a"]], 0.5)),  # kept
    ("mean_field_kl: joint_log_table", lambda: mean_field_kl(FactorizedPosterior.uniform((1,)), ["a"])),
    ("CouplingGraph: fields_h", lambda: CouplingGraph(1, (), ["a"])),
    ("ifft_radix2: x", lambda: ifft_radix2(["a", "b"])),  # kept
    ("discretize_mean: mean", lambda: discretize_mean(["a"])),
    ("discretize_mean: mean", lambda: discretize_mean([NAN])),
    ("DiscreteDistribution.point_mass: index", lambda: DiscreteDistribution.point_mass(5, 2)),
    ("config_from_index: index", lambda: config_from_index(2.5, 3)),
    ("bm_state_from_index: index", lambda: bm_state_from_index(2.5, M21)),
    ("NeighborGraph.from_edges: a site of edge", lambda: NeighborGraph.from_edges(2, [("a", 1)])),
    # accepted without complaint
    ("DiscreteDistribution: probs", lambda: DiscreteDistribution([[0.5, 0.5]])),
    ("DiscreteDistribution: probs", lambda: DiscreteDistribution([True])),
    ("conv_fft: x", lambda: conv_fft([True, False], [1.0])),  # kept
    ("conv_naive: x", lambda: conv_naive([True], [1.0])),
    ("fft_radix2: x", lambda: fft_radix2([True, False])),
    ("importance_estimate: h_values", lambda: importance_estimate([NAN], [1.0], [1.0])),  # returned nan
    ("importance_estimate: p_densities", lambda: importance_estimate([1.0], [NAN], [1.0])),  # returned nan
    ("importance_estimate: q_densities", lambda: importance_estimate([1.0], [1.0], [INF])),  # returned 0.0
    ("bm_free_energy: v", lambda: bm_free_energy(M21, [2, 0])),
    ("GenerativeModel: likelihood", lambda: GenerativeModel(DiscreteDistribution([1.0]), [[NAN]], [[[1.0]]], [[0.0]])),
    ("GenerativeModel: transition", lambda: GenerativeModel(DiscreteDistribution([1.0]), [[1.0]], [[[NAN]]], [[0.0]])),
    ("DiscreteMDP: transition", lambda: DiscreteMDP([[[NAN]]], [[0.0]], 0.5)),
    ("BoltzmannMachine: W", lambda: BoltzmannMachine([0.0], [0.0], [[NAN]])),  # kept
    ("mf_actor_critic_grad: policy_params", lambda: mf_actor_critic_grad([NAN], 0, 1.0)),  # kept
    ("DiscreteDistribution.point_mass: index", lambda: DiscreteDistribution.point_mass(-1, 2)),  # mass on index 1
    ("DiscreteDistribution.point_mass: index", lambda: DiscreteDistribution.point_mass(0.5, 2)),  # kept
    ("mean_field_update: joint_log_table", lambda: mean_field_update(FactorizedPosterior.uniform((1,)), [NAN])),  # kept
    ("WeightedDataset: ys", lambda: WeightedDataset([0.0], [0.5], [1.0])),  # kept
    ("mf_actor_critic_grad: own_action", lambda: mf_actor_critic_grad([1.0, 2.0], 0.5, 1.0)),
    ("NeighborGraph.from_edges: a site of edge (1.5, 0)", lambda: NeighborGraph.from_edges(2, [(1.5, 0)])),  # kept
    ("CouplingGraph: a site of edge", lambda: CouplingGraph(2, ((0.5, 1, 1.0),))),
    ("RngStream: seed", lambda: RngStream(True)),
    # a non-sequence where a constructor iterates the argument: raised TypeError or AttributeError
    ("CouplingGraph: edges must be a sequence, got None", lambda: CouplingGraph(3, None)),
    ("CouplingGraph: edges must be a sequence, got 5", lambda: CouplingGraph(3, 5)),
    ("NeighborGraph.from_edges: edges must be a sequence, got 5", lambda: NeighborGraph.from_edges(2, 5)),  # kept
    ("NeighborGraph.from_edges: edge (i, j) must be a sequence of 2 items, got 0", lambda: NeighborGraph.from_edges(2, [(0, 1), 0])),  # kept
    ("NeighborGraph.from_edges: edges must be a sequence, got None", lambda: NeighborGraph.from_edges(3, None)),
    ("DoubleDigestInstance: a must be a sequence, got 5", lambda: DoubleDigestInstance(5, (1,), (1,))),
    ("Trace: columns must be a mapping, got [1, 2]", lambda: Trace([1, 2])),
    ("FactorizedPosterior: factors must be a sequence, got None", lambda: FactorizedPosterior(None)),
]


@pytest.mark.parametrize("prefix, call", TIGHTENED_ARRAYS, ids=[f"{i:02d}-{p}" for i, (p, _) in enumerate(TIGHTENED_ARRAYS)])
def test_tightened_array_and_index_inputs_raise_validation_error(prefix, call):
    with pytest.raises(ValidationError, match=f"^{re.escape(prefix)}"):
        call()


@pytest.mark.parametrize(
    "subcommand, key, value, library_call, library_name",
    [
        ("marl", "gamma", 1.0, lambda v: mf_q_update(QTable(), (0,), 0.0, 0.0, 0.1, v), "mf_q_update: gamma"),
        ("marl", "alpha", 1.5, lambda v: _game(alpha=v), "run_ising_game: alpha"),
        ("boost", "gamma", 0.75, lambda v: NoisyThresholdLearner(0.5, v), "NoisyThresholdLearner: gamma"),
        ("entropy", "log_base", 1.0, lambda v: entropy_shannon([0.5, 0.5], v), "entropy_shannon: log_base"),
        ("ising", "beta", -0.5, lambda v: partition_exact(RING, v), "partition_exact: beta"),
        ("marl", "episodes", 0, lambda v: _game(episodes=v), "run_ising_game: episodes"),
        ("digest", "total_length", 3, lambda v: generate_instance(5, 2, v, RngStream(0)), "generate_instance: total_length"),
    ],
)
def test_config_diagnostic_and_library_error_state_the_same_bound(subcommand, key, value, library_call, library_name):
    required = {
        "entropy": {"probs": [1.0]}, "ising": {"n_sites": 3, "steps": 10}, "digest": {"n_a": 5, "n_b": 2}
    }.get(subcommand, {})
    (diagnostic,) = cli.validate_config(subcommand, {**required, key: value})
    assert diagnostic.startswith(f"{key}: must be ")
    problem = diagnostic[len(key) + 2 :]
    with pytest.raises(ValidationError) as info:
        library_call(value)
    assert str(info.value) == f"{library_name} {problem}"


# --- fuzzing config input -------------------------------------------------------------

SCHEMA_KEYS = sorted({key for schema in cli.SCHEMAS.values() for key in schema})
SCALAR_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0.0", "true", "false", "0", "1", "-1", "0.5", "2", "9" * 30]),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(['"geometric"', '"cd_k"', "quadratic", '""', '"a"']),
    st.text(alphabet=' 0123456789.,-+eE"[]xyz_#=', max_size=12),
)
VALUE_TOKENS = st.one_of(SCALAR_TOKENS, st.lists(SCALAR_TOKENS, max_size=4).map(lambda xs: f"[{', '.join(xs)}]"))
KEYS = st.one_of(st.sampled_from(SCHEMA_KEYS), st.from_regex(r"[a-z][a-z0-9_]{0,6}(\.[a-z0-9_]{1,4})?", fullmatch=True))
LINES = st.one_of(
    st.tuples(KEYS, VALUE_TOKENS).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=30),
    st.sampled_from(["# comment", "", "   ", "= 1", "key =", "a..b = 1", "x = [1, 2", "x = 1 = 2"]),
)
CONFIG_TEXTS = st.lists(LINES, max_size=10).map("\n".join)
CONFIG_VALUES = st.one_of(
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**64),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=3)), max_size=4),
)
CONFIGS = st.dictionaries(st.one_of(st.sampled_from(SCHEMA_KEYS), st.text(max_size=6)), CONFIG_VALUES, max_size=8)


@settings(max_examples=300, deadline=None)
@given(CONFIG_TEXTS)
def test_parse_config_raises_only_thermolearn_errors(text):
    try:
        config = parse_config(text)
    except ThermolearnError:
        return
    for subcommand in cli.SUBCOMMANDS:
        assert all(isinstance(d, str) for d in cli.validate_config(subcommand, config))


@settings(max_examples=200, deadline=None)
@given(CONFIGS)
def test_validate_config_never_raises(config):
    for subcommand in cli.SUBCOMMANDS:
        assert all(isinstance(d, str) for d in cli.validate_config(subcommand, config))


def _parsed_or_empty(text):
    try:
        return parse_config(text)
    except ThermolearnError:
        return {}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(cli.SUBCOMMANDS), st.one_of(CONFIGS, CONFIG_TEXTS.map(_parsed_or_empty)))
def test_rejected_configs_exit_1_without_a_manifest(subcommand, config):
    if not cli.validate_config(subcommand, config):
        return  # only configs that validation rejects are run
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert cli.run_experiment(subcommand, config, out_dir=str(out)) == 1
        assert not (out / "manifest.json").exists()
