"""Energy-based losses over finite label spaces and a bipartite Boltzmann machine.

Label-space side: an energy table assigns one real energy per candidate
label; inference is the argmin, the Gibbs posterior exponentiates and
normalizes, and three training losses (perceptron, hinge, negative log
likelihood) compare the correct label's energy against the competition.

Machine side: binary {0,1} visible and hidden units with biases a, b and
cross weights W, energy E(v,h) = -a.v - b.h - v W h, inverse temperature
fixed at 1 (rescale the parameters for other temperatures). The +-1 spin
convention maps onto this one by v = (s+1)/2 with rescaled parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence

import numpy as np

from .config import _array, _content_lines, _count, _index, _real
from .distributions import DiscreteDistribution, _log_normalize_inplace, _pack_bits, _unpack_bits, log_normalize
from .distributions import partition_value, state_bits
from .errors import CapacityError, NumericalError, ValidationError
from .rng import RngStream

MAX_EXACT_UNITS = 20
_MEMO_ROWS = 4096  # conditional rows a Gibbs chain keeps, so its memory is bounded by the trajectory

__all__ = [
    "ebl_infer",
    "gibbs_posterior",
    "GibbsPosterior",
    "loss_perceptron",
    "loss_hinge",
    "loss_nll",
    "BoltzmannMachine",
    "BMState",
    "bm_energy",
    "bm_partition_exact",
    "bm_joint_index",
    "bm_state_from_index",
    "bm_hidden_activation",
    "bm_visible_activation",
    "bm_gibbs_sample",
    "GibbsSampleRun",
    "bm_free_energy",
    "bm_log_likelihood",
    "bm_exact_gradient",
    "BMGradient",
    "bm_train",
    "TrainResult",
    "load_visible_data",
    "dump_visible_data",
]


def _logistic(z):
    return np.exp(-np.logaddexp(0.0, -np.asarray(z, dtype=float)))


def ebl_infer(energies) -> int:
    """Index of the minimum-energy label; ties go to the lowest index."""
    return int(np.argmin(_array("ebl_infer: energies", energies)))


class GibbsPosterior(NamedTuple):
    posterior: DiscreteDistribution
    z: float


def gibbs_posterior(energies, beta: float) -> GibbsPosterior:
    """Exponentiate-and-normalize over labels, with the partition value.

    P(y) = exp(-beta E_y) / Z, computed with a max shift. beta = 0 gives
    the uniform distribution; a Z or a -beta E_y above the float range
    raises NumericalError.
    """
    table = _array("gibbs_posterior: energies", energies)
    beta = _real("gibbs_posterior: beta", beta, 0)
    with np.errstate(over="ignore"):  # an overflow to -inf is a weight of 0; to +inf, NumericalError
        log_w = -beta * table
    probs, log_z = _log_normalize_inplace("gibbs_posterior", log_w)
    return GibbsPosterior(DiscreteDistribution(probs), partition_value(log_z))


def _finite_loss(name: str, loss: float) -> float:
    """A loss taken in Python floats, or NumericalError when it passes the float range."""
    if not math.isfinite(loss):
        raise NumericalError(f"{name}: loss overflows a float")
    return loss


def loss_perceptron(energies, correct: int) -> float:
    """Energy gap between the correct label and the best label; zero iff
    the correct label attains the minimum."""
    table = _array("loss_perceptron: energies", energies)
    e_correct = float(table[_index("loss_perceptron: correct", correct, table.size)])
    return _finite_loss("loss_perceptron", e_correct - float(table.min()))


def loss_hinge(e_correct: float, e_incorrect: float, margin: float) -> float:
    """max(0, margin + E_correct - E_incorrect)."""
    margin = _real("loss_hinge: margin", margin, 0)
    e_correct = _real("loss_hinge: e_correct", e_correct)
    e_incorrect = _real("loss_hinge: e_incorrect", e_incorrect)
    return _finite_loss("loss_hinge", max(0.0, margin + e_correct - e_incorrect))


def loss_nll(energies, correct: int, beta: float) -> float:
    """E_correct + (1/beta) log sum_y exp(-beta E_y).

    Equals -(1/beta) log of the Gibbs posterior at the correct label;
    the log-sum-exp is max-shifted.
    """
    table = _array("loss_nll: energies", energies)
    correct = _index("loss_nll: correct", correct, table.size)
    beta = _real("loss_nll: beta", beta, 0, ends="(]")
    with np.errstate(over="ignore"):  # as in gibbs_posterior
        log_w = -beta * table
    return _finite_loss("loss_nll", float(table[correct]) + _log_normalize_inplace("loss_nll", log_w)[1] / beta)


@dataclass(frozen=True)
class BoltzmannMachine:
    """Bipartite binary energy model: visible biases a, hidden biases b,
    cross-layer weights W (n_v by n_h). No intra-layer connections."""

    a: np.ndarray
    b: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        a = _layer("BoltzmannMachine: a", self.a)
        b = _layer("BoltzmannMachine: b", self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "W", _array("BoltzmannMachine: W", self.W, (a.size, b.size)))

    @property
    def n_visible(self) -> int:
        return self.a.size

    @property
    def n_hidden(self) -> int:
        return self.b.size

    @classmethod
    def zeros(cls, n_visible: int, n_hidden: int) -> "BoltzmannMachine":
        n_visible = _count("BoltzmannMachine.zeros: n_visible", n_visible, 0)
        n_hidden = _count("BoltzmannMachine.zeros: n_hidden", n_hidden, 0)
        return cls(np.zeros(n_visible), np.zeros(n_hidden), np.zeros((n_visible, n_hidden)))

    def to_json(self) -> str:
        return json.dumps(
            {"a": self.a.tolist(), "b": self.b.tolist(), "W": self.W.tolist()},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BoltzmannMachine":
        try:
            payload = json.loads(text)
            missing = {"a", "b", "W"} - set(payload)
            if missing:
                raise ValidationError(f"missing keys: {sorted(missing)}")
            return cls(payload["a"], payload["b"], payload["W"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"machine JSON: {exc}") from None


def _layer(name: str, value) -> np.ndarray:
    # a layer's biases: a layer may have no units, given as an empty list or vector
    if getattr(value, "shape", None) == (0,) or (isinstance(value, (list, tuple)) and not value):
        return np.zeros(0)
    return _array(name, value)


class BMState(NamedTuple):
    v: np.ndarray
    h: np.ndarray


def _units(name: str, value, shape) -> np.ndarray:
    # 0/1 units, bools included, as bools
    return _array(name, value, shape, 0, 1, dtype=bool)


def bm_energy(state: BMState, machine: BoltzmannMachine) -> float:
    """E(v,h) = -a.v - b.h - v W h."""
    vf = _units("bm_energy: v", state.v, (machine.n_visible,)).astype(float)
    hf = _units("bm_energy: h", state.h, (machine.n_hidden,)).astype(float)
    return float(-machine.a @ vf - machine.b @ hf - vf @ machine.W @ hf)


def bm_joint_index(state: BMState, machine: BoltzmannMachine) -> int:
    """Flat state index: visible bits low (bit i = v_i), hidden bits above."""
    v = _units("bm_joint_index: v", state.v, (machine.n_visible,))
    h = _units("bm_joint_index: h", state.h, (machine.n_hidden,))
    return _pack_bits(np.concatenate([v, h]))


def bm_state_from_index(index: int, machine: BoltzmannMachine) -> BMState:
    n_v, n_units = machine.n_visible, machine.n_visible + machine.n_hidden
    bits = _unpack_bits(_index("bm_state_from_index: index", index, 1 << n_units), n_units)
    return BMState(bits[:n_v], bits[n_v:])


def _check_capacity(machine: BoltzmannMachine) -> None:
    n_units = machine.n_visible + machine.n_hidden
    if n_units > MAX_EXACT_UNITS:
        raise CapacityError(f"exact enumeration limited to {MAX_EXACT_UNITS} units, got {n_units}")


def bm_partition_exact(machine: BoltzmannMachine):
    """Z and the joint distribution over all 2^(n_v+n_h) states.

    States are indexed per :func:`bm_joint_index`. Guarded at
    ``MAX_EXACT_UNITS`` total units; a Z beyond the float range raises
    NumericalError. The reference for the visible-state routines below.
    """
    _check_capacity(machine)
    bits = state_bits(machine.n_visible + machine.n_hidden)
    V, H = bits[: machine.n_visible], bits[machine.n_visible :]
    neg_energy = machine.a @ V + machine.b @ H + ((machine.W.T @ V) * H).sum(axis=0)
    probs, log_z = log_normalize(neg_energy)
    return partition_value(log_z), DiscreteDistribution(probs)


def bm_hidden_activation(machine: BoltzmannMachine, v) -> np.ndarray:
    """p(h_j = 1 | v) = logistic(b_j + sum_i v_i w_ij), for one row v or a stack of rows."""
    try:
        pre = machine.b + np.asarray(v, dtype=float) @ machine.W
    except (TypeError, ValueError):
        raise ValidationError(f"bm_hidden_activation: v must be numeric rows of {machine.n_visible} visible units") from None
    return _logistic(pre)


def bm_visible_activation(machine: BoltzmannMachine, h) -> np.ndarray:
    """p(v_i = 1 | h) = logistic(a_i + sum_j w_ij h_j), for one row h or a stack of rows."""
    try:
        pre = machine.a + np.asarray(h, dtype=float) @ machine.W.T
    except (TypeError, ValueError):
        raise ValidationError(f"bm_visible_activation: h must be numeric rows of {machine.n_hidden} hidden units") from None
    return _logistic(pre)


def _gibbs_step(machine: BoltzmannMachine, v, u_h: np.ndarray, u_v: np.ndarray):
    # h ~ p(h|v), then v ~ p(v|h), for one row v or one row per chain; returns 0/1 floats
    h = (u_h < bm_hidden_activation(machine, v)).astype(float)
    return h, (u_v < bm_visible_activation(machine, h)).astype(float)


class GibbsSampleRun(Sequence):
    """Recorded block-Gibbs trajectory.

    Behaves as a sequence of :class:`BMState` while storing the visible
    and hidden trajectories as compact (steps, n) uint8 arrays, available
    directly as ``.visible`` and ``.hidden``.
    """

    def __init__(self, visible: np.ndarray, hidden: np.ndarray):
        if visible.shape[0] != hidden.shape[0]:
            raise ValidationError("GibbsSampleRun: visible and hidden trajectories must have equal length")
        self.visible = visible
        self.hidden = hidden

    def __len__(self) -> int:
        return self.visible.shape[0]

    def __getitem__(self, item):
        if isinstance(item, slice):
            return GibbsSampleRun(self.visible[item], self.hidden[item])
        return BMState(self.visible[item], self.hidden[item])


def bm_gibbs_sample(
    machine: BoltzmannMachine, steps: int, rng: RngStream, start: BMState = None
) -> GibbsSampleRun:
    """Alternating block updates: resample all hidden units given v, then
    all visible units given the new h; one recorded state per full step.

    The stationary distribution is the machine's exact joint. ``start``
    defaults to all zeros. Draws, all up front: ``rng.random((steps, n_h))``,
    then ``rng.random((steps, n_v))``; step t uses row t of each.
    """
    steps = _count("bm_gibbs_sample: steps", steps, 1)
    if rng is None:
        raise ValidationError("bm_gibbs_sample: requires an rng")
    n_v, n_h = machine.n_visible, machine.n_hidden
    if start is None:
        v = np.zeros(n_v, dtype=np.uint8)
    else:
        v = _units("bm_gibbs_sample: start.v", start.v, (n_v,))
        _units("bm_gibbs_sample: start.h", start.h, (n_h,))
    visible = np.empty((steps, n_v), dtype=np.uint8)
    hidden = np.empty((steps, n_h), dtype=np.uint8)
    u_h = rng.generator.random((steps, n_h))
    u_v = rng.generator.random((steps, n_v))
    p_h, p_v = {}, {}
    for t in range(steps):
        hidden[t] = u_h[t] < _memo_row(p_h, bm_hidden_activation, machine, v)
        visible[t] = u_v[t] < _memo_row(p_v, bm_visible_activation, machine, hidden[t])
        v = visible[t]
    return GibbsSampleRun(visible, hidden)


def _memo_row(memo: dict, activation, machine: BoltzmannMachine, row: np.ndarray) -> np.ndarray:
    # activation(machine, row), looked up by the uint8 row's bytes: a chain
    # revisits few states, and a state stored is the array a fresh call returns
    key = row.tobytes()
    act = memo.get(key)
    if act is None:
        act = activation(machine, row)
        if len(memo) < _MEMO_ROWS:
            memo[key] = act
    return act


def bm_free_energy(machine: BoltzmannMachine, v) -> float:
    """F(v) = -a.v - sum_j softplus(b_j + (vW)_j); p(v) = exp(-F(v))/Z."""
    vf = _units("bm_free_energy: v", v, (machine.n_visible,)).astype(float)
    return float(-machine.a @ vf - np.logaddexp(0.0, machine.b + vf @ machine.W).sum())


def _enumerate_visible(machine: BoltzmannMachine):
    # (bits, b + vW, F(v), p(v), ln Z) over the 2^{n_v} visible states, one
    # row per unit; the hidden layer is summed out in closed form
    _check_capacity(machine)
    bits = state_bits(machine.n_visible)
    pre = machine.b[:, None] + machine.W.T @ bits
    free = -(machine.a @ bits) - np.logaddexp(0.0, pre).sum(axis=0)
    return (bits, pre, free) + log_normalize(-free)


def bm_log_likelihood(machine: BoltzmannMachine, data) -> float:
    """Mean log p(v) over the data rows, by exact enumeration."""
    X = _units("bm_log_likelihood: data", data, (None, machine.n_visible))
    _, _, free, _, log_z = _enumerate_visible(machine)
    return float((-free[_pack_bits(X)] - log_z).mean())


def _exact_model_stats(machine: BoltzmannMachine):
    # E[v], E[h] = sum_v p(v) p(h=1|v) and E[v h^T] under the model
    bits, pre, _, p, _ = _enumerate_visible(machine)
    act = _logistic(pre)
    return bits @ p, act @ p, (bits * p) @ act.T


class BMGradient(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    W: np.ndarray


def _row_stats(machine: BoltzmannMachine, V: np.ndarray):
    # mean v, mean p(h|v) and V^T p(h|V) / m over the m float rows of V
    P_h = bm_hidden_activation(machine, V)
    return V.mean(axis=0), P_h.mean(axis=0), V.T @ P_h / V.shape[0]


def _gradient(machine: BoltzmannMachine, X: np.ndarray, model_stats) -> BMGradient:
    return BMGradient(*(data - model for data, model in zip(_row_stats(machine, X), model_stats)))


def bm_exact_gradient(machine: BoltzmannMachine, data) -> BMGradient:
    """Gradient of the mean log-likelihood in (a, b, W), by enumeration.

    Ascent direction: data statistics minus model statistics, with the
    hidden data statistics taken from the analytic activations p(h|v).
    Capacity-guarded like every other enumeration routine here.
    """
    X = _units("bm_exact_gradient: data", data, (None, machine.n_visible)).astype(float)
    return _gradient(machine, X, _exact_model_stats(machine))


class TrainResult(NamedTuple):
    machine: BoltzmannMachine
    loss_curve: List[float]


def bm_train(
    machine: BoltzmannMachine,
    data,
    method: str = "exact_gradient",
    learning_rate: float = 0.1,
    epochs: int = 100,
    k: int = 1,
    rng: RngStream = None,
) -> TrainResult:
    """Maximum-likelihood training by full-batch gradient ascent.

    ``exact_gradient`` computes the model expectations by enumeration
    (capacity-guarded); ``cd_k`` approximates them with k block-Gibbs
    steps started from each data row. The hidden data statistics use the
    analytic activations p(h|v) in both modes. The loss curve holds the
    mean negative log-likelihood after each epoch (computed exactly;
    requires enumeration capacity, so cd_k on large machines reports an
    empty curve).
    """
    if method not in ("exact_gradient", "cd_k"):
        raise ValidationError(f"bm_train: unknown method {method!r}")
    epochs = _count("bm_train: epochs", epochs, 0)
    learning_rate = _real("bm_train: learning_rate", learning_rate, 0)
    if method == "cd_k":
        k = _count("bm_train: cd_k's k", k, 1)
        if rng is None:
            raise ValidationError("bm_train: cd_k requires an rng")
    bits = _units("bm_train: data", data, (None, machine.n_visible))
    X = bits.astype(float)
    if method == "exact_gradient":
        _check_capacity(machine)
    can_score = machine.n_visible + machine.n_hidden <= MAX_EXACT_UNITS

    losses: List[float] = []
    for _ in range(epochs):
        if method == "exact_gradient":
            model_stats = _exact_model_stats(machine)
        else:
            v_neg = X
            for _ in range(k):
                u_h = rng.generator.random((X.shape[0], machine.n_hidden))
                _, v_neg = _gibbs_step(machine, v_neg, u_h, rng.generator.random(X.shape))
            model_stats = _row_stats(machine, v_neg)
        params = (machine.a, machine.b, machine.W)
        grad = _gradient(machine, X, model_stats)
        machine = BoltzmannMachine(*(p + learning_rate * g for p, g in zip(params, grad)))
        if can_score:
            losses.append(-bm_log_likelihood(machine, bits))
    return TrainResult(machine, losses)


def load_visible_data(path) -> np.ndarray:
    """Read binary rows, one string of 0/1 characters per line."""
    rows = []
    for line_no, text in _content_lines(path):
        if set(text) - {"0", "1"}:
            raise ValidationError(f"{path}:{line_no}: expected only 0/1 characters, got {text!r}")
        rows.append([int(ch) for ch in text])
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValidationError(f"{path}: inconsistent row widths {sorted(widths)}")
    return np.array(rows, dtype=np.uint8)


def dump_visible_data(data, path) -> None:
    arr = np.asarray(data)
    with open(path, "w") as fh:
        for row in arr:
            fh.write("".join(str(int(x)) for x in row) + "\n")
