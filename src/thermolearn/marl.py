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

from .config import _array, _count, _edges, _index, _real
from .distributions import log_normalize
from .errors import DomainError, NumericalError, ValidationError
from .rng import RngStream
from .trace import Trace

DEFAULT_MEAN_BINS = 11

__all__ = [
    "NeighborGraph",
    "torus_graph",
    "discretize_mean",
    "QTable",
    "mf_q_update",
    "mf_actor_critic_grad",
    "IsingGameEnv",
    "run_ising_game",
    "IsingGameResult",
]


@dataclass(frozen=True, init=False)
class NeighborGraph:
    """Undirected neighbor structure as per-agent adjacency lists, built by :meth:`from_edges`."""

    neighbors: Tuple[Tuple[int, ...], ...]

    @property
    def n_agents(self) -> int:
        return len(self.neighbors)

    @classmethod
    def from_edges(cls, n_agents: int, edges: Sequence[Tuple[int, int]]) -> "NeighborGraph":
        """Agent i's list holds its neighbours in the order of their edges; ``edges`` follow
        ``CouplingGraph``'s edge rule, sites being agents."""
        lists = [[] for _ in range(_count("NeighborGraph.from_edges: n_agents", n_agents, 1))]
        for i, j in _edges("NeighborGraph.from_edges", edges, len(lists)):
            lists[i].append(j)
            lists[j].append(i)
        graph = object.__new__(cls)
        object.__setattr__(graph, "neighbors", tuple(map(tuple, lists)))
        return graph


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

    def __post_init__(self):
        _real("IsingGameEnv: coupling", self.coupling)
        for j, row in enumerate(self.graph.neighbors):
            if not row:
                raise DomainError(f"IsingGameEnv: agent {j} has no neighbors")


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
    the episode index to a positive temperature. A Q value that overflows
    a float raises NumericalError.
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
    # neighbours, so cells[j][up] pairs agent j's Q row at that bin, [Q(action
    # 0), Q(action 1), bin, action 0 not yet updated, action 1 not yet
    # updated], with the reward of spin +1 at that count, coupling times the
    # neighbours' spin sum (up of them +1, the rest -1). Counts in the same
    # bin share one row, as they share QTable keys.
    tables = [QTable() for _ in range(n)]
    cells = []
    for row in neighbor_lists:
        inv_deg = 1.0 / len(row)
        rows_by_bin = {}
        cell_row = []
        for up in range(len(row) + 1):
            mean_bin = discretize_mean([1.0 - up * inv_deg, up * inv_deg], n_bins)
            cell = rows_by_bin.setdefault(mean_bin, [0.0, 0.0, mean_bin, True, True])
            cell_row.append((cell, coupling * (2 * up - len(row))))
        cells.append(cell_row)

    spins = [int(s) for s in (rng.generator.integers(0, 2, n) * 2 - 1)]
    up_counts = [sum(spins[k] > 0 for k in row) for row in neighbor_lists]
    agents = list(zip(range(n), cells, neighbor_lists))
    mags = np.empty(episodes)

    exp, isfinite = math.exp, math.isfinite
    keep = 1.0 - alpha
    for episode in range(episodes):
        temperature = _temperature(f"run_ising_game: T at episode {episode}", temp_at(episode))
        inv_t = 1.0 / temperature
        for u_row in rng.generator.random((steps_per_episode, n)).tolist():
            for (j, cell_row, row), u in zip(agents, u_row):
                cell, up_reward = cell_row[up_counts[j]]
                q0, q1 = cell[0], cell[1]
                # softmax over the two actions at the current temperature; the
                # larger weight is exp(0) = 1
                z0, z1 = q0 * inv_t, q1 * inv_t
                if z0 > z1:
                    p0 = 1.0 / (1.0 + exp(z1 - z0))
                else:
                    w0 = exp(z0 - z1)
                    p0 = w0 / (w0 + 1.0)
                discounted = gamma * (p0 * q0 + (1.0 - p0) * q1)
                # one branch per action: its spin's flip bookkeeping, then
                # mf_q_update with a same-key bootstrap value (action 0's reward
                # is -up_reward, and (-r) + g is g - r bit for bit); the first
                # update of an action places its key in the QTable's order
                if u < p0:
                    if spins[j] > 0:
                        spins[j] = -1
                        for k in row:
                            up_counts[k] -= 1
                    value = keep * q0 + alpha * (discounted - up_reward)
                    if not isfinite(value):
                        raise _q_overflow(j, episode, value)
                    cell[0] = value
                    if cell[3]:
                        cell[3] = False
                        tables[j].values[(state, 0, cell[2])] = cell
                else:
                    if spins[j] < 0:
                        spins[j] = 1
                        for k in row:
                            up_counts[k] += 1
                    value = keep * q1 + alpha * (up_reward + discounted)
                    if not isfinite(value):
                        raise _q_overflow(j, episode, value)
                    cell[1] = value
                    if cell[4]:
                        cell[4] = False
                        tables[j].values[(state, 1, cell[2])] = cell
        mags[episode] = abs(sum(spins)) / n

    for table in tables:
        for key, cell in table.values.items():
            table.set(key, cell[key[1]])

    trace = Trace({"episode": np.arange(episodes), "magnetization": mags})
    return IsingGameResult(tables, trace, np.array(spins, dtype=np.int8))


def _q_overflow(agent: int, episode: int, value: float) -> NumericalError:
    return NumericalError(f"run_ising_game: Q value of agent {agent} overflows a float at episode {episode} ({value!r})")
