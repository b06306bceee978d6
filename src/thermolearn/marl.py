"""Mean-field multi-agent Q-learning on neighbor graphs.

Each agent keys its Q values on (state, own action, discretized mean
neighbor action) instead of the joint action profile, collapsing the
exponential joint-action space to a single averaged coordinate. The
benchmark environment is a stateless alignment game on a spin lattice:
actions are spins, and each agent's reward is its local alignment with
its neighbors, so maximizing reward minimizes the lattice energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .config import _array, _count, _index, _items, _real
from .distributions import DiscreteDistribution, _log_normalize_inplace, log_normalize
from .errors import DomainError, ValidationError
from .rng import RngStream
from .trace import Trace

DEFAULT_MEAN_BINS = 11

__all__ = [
    "NeighborGraph",
    "torus_graph",
    "mean_action",
    "discretize_mean",
    "QTable",
    "mf_q_update",
    "boltzmann_policy",
    "mf_value",
    "mf_actor_critic_grad",
    "IsingGameEnv",
    "run_ising_game",
    "IsingGameResult",
]


@dataclass(frozen=True)
class NeighborGraph:
    """Undirected neighbor structure as per-agent adjacency lists."""

    neighbors: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        rows = _items("NeighborGraph: neighbors", self.neighbors)
        n = len(rows)
        if n == 0:
            raise ValidationError("NeighborGraph: need at least one agent")
        lists = tuple(
            tuple(_index(f"NeighborGraph: a neighbor of agent {j}", k, n) for k in _items(f"NeighborGraph: neighbors of agent {j}", row))
            for j, row in enumerate(rows)
        )
        for j, row in enumerate(lists):
            if len(set(row)) != len(row):
                raise ValidationError(f"NeighborGraph: repeated neighbor in list of agent {j}")
            for k in row:
                if k == j:
                    raise ValidationError(f"NeighborGraph: self-loop at agent {j}")
                if j not in lists[k]:
                    raise ValidationError(f"NeighborGraph: edge {j}-{k} not symmetric")
        object.__setattr__(self, "neighbors", lists)

    @property
    def n_agents(self) -> int:
        return len(self.neighbors)

    @classmethod
    def from_edges(cls, n_agents: int, edges: Sequence[Tuple[int, int]]) -> "NeighborGraph":
        lists = [[] for _ in range(_count("NeighborGraph.from_edges: n_agents", n_agents, 0))]
        for edge in _items("NeighborGraph.from_edges: edges", edges):
            pair = _items("NeighborGraph.from_edges: edge (i, j)", edge, 2)
            i, j = (_index(f"NeighborGraph.from_edges: a site of edge {edge}", k, n_agents) for k in pair)
            lists[i].append(j)
            lists[j].append(i)
        return cls(tuple(tuple(row) for row in lists))


def torus_graph(rows: int, cols: int) -> NeighborGraph:
    """Periodic 2-D lattice with 4-neighbor connectivity, from its edge set: each list is ascending."""
    rows, cols = _count("torus_graph: rows", rows, 1), _count("torus_graph: cols", cols, 1)
    edges = set()
    for i in range(rows * cols):
        r, c = divmod(i, cols)
        for j in ((r + 1) % rows * cols + c, r * cols + (c + 1) % cols):
            if j != i:
                edges.add((min(i, j), max(i, j)))
    return NeighborGraph.from_edges(rows * cols, sorted(edges))


def mean_action(neighbor_actions: Sequence[int], n_actions: int) -> np.ndarray:
    """Average of one-hot encodings; a point in the action simplex."""
    n_actions = _count("mean_action: n_actions", n_actions, 1)
    actions = list(neighbor_actions)
    if not actions:
        raise DomainError("mean_action: empty neighborhood (the average divides by its size)")
    actions = _array("mean_action: neighbor_actions", actions, (None,), 0, n_actions, "[)", dtype=np.intp)
    return np.bincount(actions, minlength=n_actions) / actions.size


def discretize_mean(mean: np.ndarray, n_bins: int = DEFAULT_MEAN_BINS) -> Tuple[int, ...]:
    """Map each simplex coordinate in [0, 1] to one of n_bins equal bins."""
    n_bins = _count("discretize_mean: n_bins", n_bins, 1)
    arr = _array("discretize_mean: mean", mean, (None,), 0, 1)
    return tuple(min(n_bins - 1, int(x * n_bins)) for x in arr)


class QTable:
    """Sparse map (state, own action, mean-action bin) -> value; default 0."""

    def __init__(self):
        self.values: Dict[tuple, float] = {}

    def get(self, key: tuple) -> float:
        return self.values.get(key, 0.0)

    def set(self, key: tuple, value: float) -> None:
        self.values[key] = _real(f"QTable: value for {key}", value)

    def row(self, state, mean_bin, n_actions: int) -> np.ndarray:
        return np.array([self.get((state, a, mean_bin)) for a in range(n_actions)])

    def __len__(self) -> int:
        return len(self.values)


def mf_q_update(
    q: QTable, key: tuple, reward: float, next_value: float, alpha: float, gamma: float
) -> QTable:
    """Q(key) <- (1 - alpha) Q(key) + alpha (reward + gamma * next_value).

    ``next_value`` is the caller's estimate of the next state's value
    (single-sample bootstrap in the game loop). Updates in place and
    returns the same table.
    """
    alpha = _real("mf_q_update: alpha", alpha, 0, 1)
    gamma = _real("mf_q_update: gamma", gamma, 0, 1, "[)")
    target = reward + gamma * next_value
    q.set(key, (1.0 - alpha) * q.get(key) + alpha * target)
    return q


def _temperature(name: str, value) -> float:
    """``value`` as a temperature: a positive real whose reciprocal is finite
    (1/T overflows below about 5.6e-309, and q/T would turn into NaN)."""
    temperature = _real(name, value, 0, ends="(]")
    if not math.isfinite(1.0 / temperature):
        raise ValidationError(f"{name} must have a finite reciprocal 1/T, got {temperature!r}")
    return temperature


def boltzmann_policy(q_row, temperature: float) -> DiscreteDistribution:
    """softmax(q / temperature), max-shifted."""
    row = _array("boltzmann_policy: q_row", q_row)
    temperature = _temperature("boltzmann_policy: temperature", temperature)
    with np.errstate(over="ignore"):  # an overflow to -inf is a weight of 0; to +inf, NumericalError
        log_w = row / temperature
    return DiscreteDistribution(_log_normalize_inplace("boltzmann_policy", log_w)[0])


def mf_value(q_row, policy: DiscreteDistribution) -> float:
    """Expected Q under the policy: V = sum_a pi(a) Q(a)."""
    return float(_array("mf_value: q_row", q_row, policy.probs.shape) @ policy.probs)


def mf_actor_critic_grad(policy_params, own_action: int, q_value: float) -> np.ndarray:
    """Policy-gradient step direction for a softmax policy.

    grad log pi(a) * Q = (onehot(a) - softmax(params)) * Q.
    """
    params = _array("mf_actor_critic_grad: policy_params", policy_params)
    q_value = _real("mf_actor_critic_grad: q_value", q_value)
    a = _index("mf_actor_critic_grad: own_action", own_action, params.size)
    pi, _ = log_normalize(params)
    onehot = np.zeros(params.size)
    onehot[a] = 1.0
    return (onehot - pi) * q_value


@dataclass(frozen=True)
class IsingGameEnv:
    """Stateless alignment game: binary actions are spins (0 -> -1, 1 -> +1);
    agent j's reward is spin_j * J * sum of neighbor spins."""

    graph: NeighborGraph
    coupling: float = 1.0

    n_actions = 2

    def __post_init__(self):
        _real("IsingGameEnv: coupling", self.coupling)
        for j, row in enumerate(self.graph.neighbors):
            if not row:
                raise DomainError(f"IsingGameEnv: agent {j} has no neighbors")

    def reward(self, agent: int, spins: Sequence[int]) -> float:
        total = 0
        for k in self.graph.neighbors[agent]:
            total += spins[k]
        return float(spins[agent] * self.coupling * total)


class IsingGameResult(NamedTuple):
    q_tables: List[QTable]
    trace: Trace
    final_spins: np.ndarray


def run_ising_game(
    env: IsingGameEnv,
    episodes: int,
    steps_per_episode: int,
    alpha: float,
    gamma: float,
    temperature_schedule,
    rng: RngStream,
    n_bins: int = DEFAULT_MEAN_BINS,
) -> IsingGameResult:
    """Independent mean-field Q-learners playing the alignment game.

    One shared dummy state; per step, agents act in id order: observe the
    mean neighbor action from the live spin configuration, sample a spin
    from the Boltzmann policy at the episode's temperature, collect the
    local alignment reward, and apply the mean-field Q update with a
    same-key bootstrap value. Spins persist across episodes; the trace
    logs |mean spin| at the end of each episode.

    ``temperature_schedule`` is a CoolingSchedule or any callable mapping
    the episode index to a positive temperature.
    """
    episodes = _count("run_ising_game: episodes", episodes, 1)
    steps_per_episode = _count("run_ising_game: steps_per_episode", steps_per_episode, 1)
    n_bins = _count("run_ising_game: n_bins", n_bins, 1)
    alpha = _real("run_ising_game: alpha", alpha, 0, 1)
    gamma = _real("run_ising_game: gamma", gamma, 0, 1, "[)")
    temp_at = getattr(temperature_schedule, "temperature", temperature_schedule)
    if not callable(temp_at):
        raise ValidationError("run_ising_game: temperature_schedule must be a schedule or callable")

    neighbor_lists = env.graph.neighbors
    n = len(neighbor_lists)
    coupling = env.coupling
    state = 0

    # With two actions the mean-action bin depends only on the number of up
    # neighbours, so cells[j][up] is agent j's Q row at that bin: [Q(action
    # 0), Q(action 1), bin, action 0 not yet updated, action 1 not yet
    # updated]. Counts in the same bin share one row, as they share QTable keys.
    tables = [QTable() for _ in range(n)]
    cells = []
    for row in neighbor_lists:
        inv_deg = 1.0 / len(row)
        rows_by_bin = {}
        cell_row = []
        for up in range(len(row) + 1):
            mean_bin = discretize_mean([1.0 - up * inv_deg, up * inv_deg], n_bins)
            cell_row.append(rows_by_bin.setdefault(mean_bin, [0.0, 0.0, mean_bin, True, True]))
        cells.append(cell_row)

    spins = [int(s) for s in (rng.generator.integers(0, 2, n) * 2 - 1)]
    up_counts = [sum(spins[k] > 0 for k in row) for row in neighbor_lists]
    degrees = [len(row) for row in neighbor_lists]
    mags = np.empty(episodes)

    exp, isfinite = math.exp, math.isfinite
    keep = 1.0 - alpha
    for episode in range(episodes):
        temperature = _temperature(f"run_ising_game: T at episode {episode}", temp_at(episode))
        inv_t = 1.0 / temperature
        for u_row in rng.generator.random((steps_per_episode, n)).tolist():
            for j, u in enumerate(u_row):
                up = up_counts[j]
                cell = cells[j][up]
                q0, q1 = cell[0], cell[1]
                # softmax over the two actions at the current temperature
                z0, z1 = q0 * inv_t, q1 * inv_t
                m = z0 if z0 > z1 else z1
                w0 = exp(z0 - m)
                w1 = exp(z1 - m)
                p0 = w0 / (w0 + w1)
                action = 0 if u < p0 else 1
                spin = 2 * action - 1
                if spin != spins[j]:
                    spins[j] = spin
                    for k in neighbor_lists[j]:
                        up_counts[k] += spin
                # the neighbours' spin sum: up of them +1, the rest -1
                reward = spin * coupling * (2 * up - degrees[j])
                next_value = p0 * q0 + (1.0 - p0) * q1
                # mf_q_update with a same-key bootstrap value
                value = keep * cell[action] + alpha * (reward + gamma * next_value)
                if not isfinite(value):
                    tables[j].set((state, action, cell[2]), value)  # raises QTable's ValidationError
                cell[action] = value
                if cell[3 + action]:
                    # the first update places the key in the QTable's order
                    cell[3 + action] = False
                    tables[j].values[(state, action, cell[2])] = cell
        mags[episode] = abs(sum(spins)) / n

    for table in tables:
        for key, cell in table.values.items():
            table.set(key, cell[key[1]])

    trace = Trace({"episode": np.arange(episodes), "magnetization": mags})
    return IsingGameResult(tables, trace, np.array(spins, dtype=np.int8))
