import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from thermolearn.anneal import CoolingSchedule
from thermolearn.distributions import DiscreteDistribution
from thermolearn.errors import DomainError, NumericalError, ValidationError
from thermolearn.ising import CouplingGraph
from thermolearn.marl import (
    IsingGameEnv,
    NeighborGraph,
    QTable,
    boltzmann_policy,
    discretize_mean,
    mean_action,
    mf_actor_critic_grad,
    mf_q_update,
    mf_value,
    run_ising_game,
    torus_graph,
)
from thermolearn.rng import RngStream


# --- graphs ---------------------------------------------------------------


def test_graph_symmetry_and_validation():
    g = NeighborGraph.from_edges(3, [(0, 1), (1, 2)])
    assert g.neighbors[1] == (0, 2)
    with pytest.raises(ValidationError):
        NeighborGraph.from_edges(2, [(0, 0)])
    with pytest.raises(ValidationError):
        NeighborGraph.from_edges(2, [(0, 3)])


@pytest.mark.parametrize("edge", [(0, 1, 2), (0,), 1, None])
def test_from_edges_rejects_edges_of_the_wrong_arity(edge):
    # Python's own unpacking ValueError or TypeError escaped before
    with pytest.raises(ValidationError, match=r"NeighborGraph.from_edges: edge \(i, j\) must be a sequence of 2 items"):
        NeighborGraph.from_edges(3, [edge])


def test_torus_degree_four():
    g = torus_graph(4, 4)
    assert g.n_agents == 16
    assert all(len(row) == 4 for row in g.neighbors)


def test_small_torus_degrees_deduplicate():
    g = torus_graph(2, 2)
    # wrap-around neighbors coincide on a 2x2 lattice
    assert all(len(row) == 2 for row in g.neighbors)


def _per_agent_torus(rows, cols):
    """The up/down/left/right builder that torus_graph replaced, kept as the reference."""
    def idx(r, c):
        return (r % rows) * cols + (c % cols)

    lists = []
    for r in range(rows):
        for c in range(cols):
            seen = []
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                k = idx(nr, nc)
                if k != idx(r, c) and k not in seen:
                    seen.append(k)
            lists.append(seen)
    return lists


@pytest.mark.parametrize("rows", range(1, 8))
def test_torus_has_the_per_agent_builders_neighbour_sets_in_ascending_lists(rows):
    for cols in range(1, 8):
        got = torus_graph(rows, cols).neighbors
        assert [set(row) for row in got] == [set(row) for row in _per_agent_torus(rows, cols)], (rows, cols)
        assert all(list(row) == sorted(row) for row in got), (rows, cols)


@pytest.mark.parametrize("side", range(2, 6))
def test_torus_pairs_read_off_the_lists_give_its_ising_twin(side):
    # the pair list that the Ising tests build by hand for a side x side torus
    edges = set()
    for r in range(side):
        for c in range(side):
            i = r * side + c
            for j in (r * side + (c + 1) % side, ((r + 1) % side) * side + c):
                edges.add((min(i, j), max(i, j)))
    g = torus_graph(side, side)
    pairs = [(i, j) for i, row in enumerate(g.neighbors) for j in row if i < j]
    assert pairs == sorted(edges)
    twin = CouplingGraph(side * side, [(i, j, 1.0) for i, j in pairs])
    assert tuple(tuple(k for k, _ in row) for row in twin.adjacency()) == g.neighbors


# --- mean action --------------------------------------------------------------


def test_mean_action_hand_value():
    m = mean_action([1, 0, 1], 2)
    assert np.allclose(m, [1.0 / 3.0, 2.0 / 3.0])


def test_mean_action_unanimous_is_one_hot():
    m = mean_action([2, 2, 2, 2], 3)
    assert np.allclose(m, [0.0, 0.0, 1.0])


def test_mean_action_empty_neighborhood():
    with pytest.raises(DomainError):
        mean_action([], 2)


def test_mean_action_simplex_invariant():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n_actions = int(rng.integers(2, 5))
        acts = rng.integers(0, n_actions, size=int(rng.integers(1, 9)))
        m = mean_action(list(acts), n_actions)
        assert np.all(m >= 0)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)


def test_discretize_bins():
    assert discretize_mean(np.array([0.0, 1.0]), 11) == (0, 10)
    assert discretize_mean(np.array([0.5]), 11) == (5,)
    assert discretize_mean(np.array([0.09, 0.11]), 10) == (0, 1)
    with pytest.raises(ValidationError):
        discretize_mean(np.array([1.2]), 11)


# --- Q table and update ----------------------------------------------------------


def test_qtable_defaults_and_row():
    q = QTable()
    assert q.get((0, 1, (3,))) == 0.0
    q.set((0, 1, (3,)), 2.5)
    assert q.get((0, 1, (3,))) == 2.5
    row = q.row(0, (3,), n_actions=2)
    assert np.allclose(row, [0.0, 2.5])
    assert len(q) == 1
    with pytest.raises(ValidationError):
        q.set((0, 0, (0,)), float("inf"))


def test_mf_q_update_values():
    key = (0, 1, (5, 5))
    q = QTable()
    q.set(key, 2.0)
    mf_q_update(q, key, reward=1.0, next_value=7.0, alpha=0.0, gamma=0.9)
    assert q.get(key) == 2.0
    mf_q_update(q, key, reward=1.0, next_value=7.0, alpha=1.0, gamma=0.5)
    assert q.get(key) == pytest.approx(1.0 + 0.5 * 7.0)
    q.set(key, 2.0)
    mf_q_update(q, key, reward=1.0, next_value=123.0, alpha=0.5, gamma=0.0)
    assert q.get(key) == pytest.approx(1.5)


def test_mf_q_update_validation():
    q = QTable()
    with pytest.raises(ValidationError):
        mf_q_update(q, (0, 0, (0,)), 1.0, 0.0, alpha=1.5, gamma=0.5)
    with pytest.raises(ValidationError):
        mf_q_update(q, (0, 0, (0,)), 1.0, 0.0, alpha=0.5, gamma=1.0)


def test_mf_q_update_is_convex_combination():
    rng = np.random.default_rng(1)
    q = QTable()
    key = (0, 0, (2,))
    for _ in range(200):
        old = float(rng.normal())
        q.set(key, old)
        r, v = float(rng.normal()), float(rng.normal())
        gamma = float(rng.uniform(0, 0.99))
        alpha = float(rng.uniform(0, 1))
        mf_q_update(q, key, r, v, alpha, gamma)
        target = r + gamma * v
        lo, hi = min(old, target), max(old, target)
        assert lo - 1e-12 <= q.get(key) <= hi + 1e-12


def test_decayed_alpha_converges_to_target_mean():
    rng = np.random.default_rng(2)
    q = QTable()
    key = (0, 0, (0,))
    n = 100000
    rewards = rng.uniform(0.0, 1.0, size=n)
    for t, r in enumerate(rewards, start=1):
        mf_q_update(q, key, float(r), next_value=0.0, alpha=1.0 / t, gamma=0.9)
    assert q.get(key) == pytest.approx(float(rewards.mean()), abs=1e-10)
    assert q.get(key) == pytest.approx(0.5, abs=1e-2)


# --- policy ------------------------------------------------------------------------


def test_boltzmann_equal_q_is_uniform():
    pol = boltzmann_policy(np.array([1.5, 1.5, 1.5]), temperature=2.0)
    assert np.allclose(pol.probs, 1.0 / 3.0)


def test_boltzmann_cold_limit():
    pol = boltzmann_policy(np.array([1.0, 0.0]), temperature=0.01)
    assert pol.probs[0] > 0.999


def test_boltzmann_hot_limit():
    pol = boltzmann_policy(np.array([1.0, -1.0]), temperature=1e3)
    assert np.allclose(pol.probs, 0.5, atol=1e-3)


def test_boltzmann_shift_invariance():
    q_row = np.array([0.3, -0.7, 1.1])
    a = boltzmann_policy(q_row, 0.7)
    b = boltzmann_policy(q_row + 42.0, 0.7)
    assert np.allclose(a.probs, b.probs, atol=1e-12)


def test_boltzmann_temperature_validation():
    with pytest.raises(ValidationError):
        boltzmann_policy(np.array([1.0]), temperature=0.0)


@pytest.mark.parametrize(
    "neighbors, message",
    [
        ((), "NeighborGraph: need at least one agent"),
        (((0,),), "NeighborGraph: self-loop at agent 0"),
        (((1,), ()), "NeighborGraph: edge 0-1 not symmetric"),
    ],
    ids=["empty", "self_loop", "asymmetric"],
)
def test_neighbor_graph_rejects_malformed_lists(neighbors, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        NeighborGraph(neighbors)


def test_run_ising_game_rejects_a_schedule_that_is_neither_a_schedule_nor_callable():
    env = IsingGameEnv(graph=torus_graph(2, 2), coupling=1.0)
    # a temperature attribute that is not callable raised TypeError at episode 0
    for schedule in (1.0, SimpleNamespace(temperature=1.0)):
        with pytest.raises(ValidationError, match="^run_ising_game: temperature_schedule must be a schedule or callable"):
            run_ising_game(env, 2, 3, 0.1, 0.9, schedule, RngStream(9))


def test_temperatures_whose_reciprocal_overflows_are_rejected():
    # 1 / 1e-320 is inf, and q / T would put NaN into the policy and the Q-values
    with pytest.raises(ValidationError, match=r"boltzmann_policy: temperature must have a finite reciprocal 1/T, got 1e-320"):
        boltzmann_policy([0.0, 1.0], 1e-320)
    assert boltzmann_policy([0.0, 1.0], 1e-300).probs.tolist() == [0.0, 1.0]
    # q / T = 1e608 overflows; it printed RuntimeWarnings and raised ValidationError over NaN
    # probabilities, while an overflow to -inf is a weight of 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^boltzmann_policy: log-weights overflow a float \(largest inf\)$"):
            boltzmann_policy([1e308, -1e308], 1e-300)
        assert boltzmann_policy([-1e308, 0.0], 1e-300).probs.tolist() == [0.0, 1.0]
    env = IsingGameEnv(graph=torus_graph(3, 3), coupling=1.0)
    with pytest.raises(ValidationError, match=r"run_ising_game: T at episode 1 must have a finite reciprocal"):
        run_ising_game(env, 2, 3, 0.1, 0.9, lambda k: 1e-320 if k else 1.0, RngStream(9))
    run_ising_game(env, 2, 3, 0.1, 0.9, lambda k: 1e-300 if k else 1.0, RngStream(9))


def test_mf_value_cases():
    q_row = np.array([1.0, 3.0])
    uniform = DiscreteDistribution([0.5, 0.5])
    point = DiscreteDistribution([0.0, 1.0])
    assert mf_value(q_row, uniform) == pytest.approx(2.0)
    assert mf_value(q_row, point) == pytest.approx(3.0)
    assert mf_value(np.array([4.0, 4.0]), uniform) == pytest.approx(4.0)
    with pytest.raises(ValidationError):
        mf_value(np.array([1.0]), uniform)


# --- actor-critic gradient ------------------------------------------------------------


def test_grad_zero_q():
    g = mf_actor_critic_grad(np.array([0.2, 0.2]), 0, 0.0)
    assert np.allclose(g, 0.0)


def test_grad_equal_logits_hand_value():
    g = mf_actor_critic_grad(np.array([1.0, 1.0]), 0, 1.0)
    assert np.allclose(g, [0.5, -0.5])


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        logits = rng.normal(size=4)
        action = int(rng.integers(0, 4))
        q_value = float(rng.normal() + 2.0)
        grad = mf_actor_critic_grad(logits, action, q_value)
        eps = 1e-6
        for i in range(4):
            bumped_up, bumped_dn = logits.copy(), logits.copy()
            bumped_up[i] += eps
            bumped_dn[i] -= eps

            def log_pi(lg):
                z = lg - lg.max()
                return z[action] - np.log(np.exp(z).sum())

            fd = (log_pi(bumped_up) - log_pi(bumped_dn)) / (2 * eps) * q_value
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


# --- Ising game ------------------------------------------------------------------------


def test_env_reward_is_local_alignment():
    g = NeighborGraph.from_edges(3, [(0, 1), (1, 2)])
    env = IsingGameEnv(graph=g, coupling=2.0)
    spins = [1, 1, -1]
    assert env.reward(1, spins) == pytest.approx(2.0 * 1 * (1 - 1))
    assert env.reward(0, spins) == pytest.approx(2.0 * 1 * 1)
    assert env.reward(2, spins) == pytest.approx(2.0 * -1 * 1)


def test_env_rejects_isolated_agents():
    lonely = NeighborGraph.from_edges(3, [(0, 1)])
    with pytest.raises(DomainError):
        IsingGameEnv(graph=lonely, coupling=1.0)


def test_game_reproducible():
    env = IsingGameEnv(graph=torus_graph(3, 3), coupling=1.0)
    kwargs = dict(
        episodes=20,
        steps_per_episode=5,
        alpha=0.1,
        gamma=0.9,
        temperature_schedule=CoolingSchedule("geometric", 10.0, 0.9),
    )
    a = run_ising_game(env, rng=RngStream(5), **kwargs)
    b = run_ising_game(env, rng=RngStream(5), **kwargs)
    assert np.array_equal(a.final_spins, b.final_spins)
    assert np.array_equal(a.trace.column("magnetization"), b.trace.column("magnetization"))


def test_game_trace_shape():
    env = IsingGameEnv(graph=torus_graph(3, 3), coupling=1.0)
    result = run_ising_game(
        env,
        episodes=15,
        steps_per_episode=3,
        alpha=0.2,
        gamma=0.9,
        temperature_schedule=lambda k: 1.0,
        rng=RngStream(6),
    )
    assert len(result.trace) == 15
    assert result.trace.column_names == ["episode", "magnetization"]
    mags = result.trace.column("magnetization")
    assert np.all((mags >= 0) & (mags <= 1))
    assert len(result.q_tables) == 9
    assert len(result.final_spins) == 9


def test_game_alpha_zero_never_learns():
    env = IsingGameEnv(graph=torus_graph(4, 4), coupling=1.0)
    result = run_ising_game(
        env,
        episodes=50,
        steps_per_episode=5,
        alpha=0.0,
        gamma=0.9,
        temperature_schedule=CoolingSchedule("geometric", 10.0, 0.9),
        rng=RngStream(7),
    )
    assert all(len(table) == 0 or all(v == 0.0 for v in table.values.values())
               for table in result.q_tables)
    # frozen uniform policy: spins stay disordered
    assert abs(result.trace.column("magnetization")[-1]) <= 0.8


def test_game_ferromagnetic_ordering_single_seed():
    env = IsingGameEnv(graph=torus_graph(4, 4), coupling=1.0)
    ratio = (0.1 / 10.0) ** (1.0 / 199.0)
    result = run_ising_game(
        env,
        episodes=200,
        steps_per_episode=10,
        alpha=0.1,
        gamma=0.9,
        temperature_schedule=CoolingSchedule("geometric", 10.0, ratio),
        rng=RngStream(0),
    )
    assert result.trace.column("magnetization")[-1] > 0.9


def test_game_schedule_must_stay_positive():
    env = IsingGameEnv(graph=torus_graph(3, 3), coupling=1.0)
    with pytest.raises(ValidationError):
        run_ising_game(
            env,
            episodes=5,
            steps_per_episode=2,
            alpha=0.1,
            gamma=0.9,
            temperature_schedule=lambda k: -1.0,
            rng=RngStream(8),
        )


def test_game_parameter_validation():
    env = IsingGameEnv(graph=torus_graph(3, 3), coupling=1.0)
    with pytest.raises(ValidationError):
        run_ising_game(env, 0, 5, 0.1, 0.9, lambda k: 1.0, RngStream(9))
    with pytest.raises(ValidationError):
        run_ising_game(env, 5, 5, 1.5, 0.9, lambda k: 1.0, RngStream(9))
    with pytest.raises(ValidationError):
        run_ising_game(env, 5, 5, 0.1, 1.0, lambda k: 1.0, RngStream(9))

def _game_peak_bytes(episodes):
    env = IsingGameEnv(graph=torus_graph(4, 4), coupling=1.0)
    tracemalloc.start()
    try:
        run_ising_game(env, episodes, 10, 0.1, 0.9, lambda k: 1.0, RngStream(4))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_game_draws_its_uniforms_an_episode_at_a_time():
    # one float64 uniform per agent-step of the whole run would add 1280 bytes
    # an episode here (16 agents x 10 steps), 2.3 MB over the extra 1800 episodes;
    # the first run also allocates what stays cached for later runs
    _game_peak_bytes(200)
    assert _game_peak_bytes(2000) - _game_peak_bytes(200) <= 200_000


def test_game_rejects_empty_bin_range():
    env = IsingGameEnv(graph=torus_graph(3, 3), coupling=1.0)
    for n_bins in (0, -1):
        with pytest.raises(ValidationError):
            run_ising_game(env, 5, 5, 0.1, 0.9, lambda k: 1.0, RngStream(9), n_bins=n_bins)


def test_game_non_finite_q_raises():
    env = IsingGameEnv(graph=torus_graph(3, 3), coupling=1e308)
    with pytest.raises(ValidationError):
        run_ising_game(env, 5, 5, 1.0, 0.9, lambda k: 1.0, RngStream(9))


# --- replay of the dict-keyed game loop ----------------------------------------
# The game once kept every Q value in QTable dicts keyed by
# (state, action, mean bin) and called mf_q_update on each agent-step. That
# loop is kept here as the oracle; the dense-table loop must reproduce its
# trace, final spins and Q tables (values and key order) bit for bit.


def _dict_keyed_game(env, episodes, steps_per_episode, alpha, gamma, temp_at, rng, n_bins):
    n = env.graph.n_agents
    neighbor_lists = [list(row) for row in env.graph.neighbors]
    inv_deg = [1.0 / len(row) for row in neighbor_lists]
    state = 0
    spins = [int(s) for s in (rng.generator.integers(0, 2, n) * 2 - 1)]
    tables = [QTable() for _ in range(n)]
    mags = np.empty(episodes)
    uniforms = rng.generator.random((episodes, steps_per_episode, n)).tolist()
    for episode in range(episodes):
        inv_t = 1.0 / float(temp_at(episode))
        for step in range(steps_per_episode):
            u_row = uniforms[episode][step]
            for j in range(n):
                up = 0
                for k in neighbor_lists[j]:
                    if spins[k] > 0:
                        up += 1
                frac_up = up * inv_deg[j]
                mean_bin = (
                    min(n_bins - 1, int((1.0 - frac_up) * n_bins)),
                    min(n_bins - 1, int(frac_up * n_bins)),
                )
                table = tables[j]
                q0 = table.get((state, 0, mean_bin))
                q1 = table.get((state, 1, mean_bin))
                z0, z1 = q0 * inv_t, q1 * inv_t
                m = z0 if z0 > z1 else z1
                w0 = math.exp(z0 - m)
                w1 = math.exp(z1 - m)
                p0 = w0 / (w0 + w1)
                action = 0 if u_row[j] < p0 else 1
                spins[j] = 2 * action - 1
                total = 0
                for k in neighbor_lists[j]:
                    total += spins[k]
                reward = spins[j] * env.coupling * total
                next_value = p0 * q0 + (1.0 - p0) * q1
                mf_q_update(table, (state, action, mean_bin), reward, next_value, alpha, gamma)
        mags[episode] = abs(sum(spins)) / n
    return tables, mags, np.array(spins, dtype=np.int8)


REPLAY_GRAPHS = {
    "torus8": torus_graph(8, 8),
    # degrees 1 to 4, and a vertex whose neighbours have mixed degrees
    "irregular": NeighborGraph.from_edges(
        8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 5), (3, 6), (5, 6), (6, 7)]
    ),
}


@pytest.mark.parametrize("graph", sorted(REPLAY_GRAPHS))
@pytest.mark.parametrize("n_bins", [1, 11])
@pytest.mark.parametrize("coupling", [1.0, -0.7])
def test_game_replays_dict_keyed_loop(graph, n_bins, coupling):
    env = IsingGameEnv(graph=REPLAY_GRAPHS[graph], coupling=coupling)
    schedule = CoolingSchedule("geometric", 10.0, (0.05 / 10.0) ** (1.0 / 59.0))
    result = run_ising_game(env, 60, 7, 0.3, 0.9, schedule, RngStream(11), n_bins=n_bins)
    tables, mags, spins = _dict_keyed_game(env, 60, 7, 0.3, 0.9, schedule.temperature, RngStream(11), n_bins)
    assert result.trace.column("magnetization").tobytes() == mags.tobytes()
    assert result.final_spins.tobytes() == spins.tobytes()
    assert len(result.q_tables) == len(tables)
    for got, want in zip(result.q_tables, tables):
        assert list(got.values.items()) == list(want.values.items())
        assert [v.hex() for v in got.values.values()] == [v.hex() for v in want.values.values()]
