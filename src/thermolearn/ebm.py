"""A Gibbs posterior and loss over finite label spaces, and a bipartite Boltzmann machine.

Label-space side: an energy table assigns one real energy per candidate
label; the Gibbs posterior exponentiates and normalizes, and the negative
log likelihood compares the correct label's energy against the competition.

Machine side: binary {0,1} visible and hidden units with biases a, b and
cross weights W, energy E(v,h) = -a.v - b.h - v W h, inverse temperature
fixed at 1 (rescale the parameters for other temperatures). The +-1 spin
convention maps onto this one by v = (s+1)/2 with rescaled parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import List, NamedTuple, Sequence

import numpy as np

from .config import _array, _content_lines, _count, _index, _real
from .distributions import DiscreteDistribution, _log_normalize_inplace, _pack_bits, _unpack_bits
from .distributions import partition_value, state_bits
from .errors import CapacityError, NumericalError, ValidationError
from .rng import RngStream

MAX_EXACT_UNITS = 20
_MEMO_ROWS = 4096  # conditional rows a Gibbs chain keeps, so its memory is bounded by the trajectory
_GIBBS_BLOCK = 256  # Gibbs steps whose uniforms become lanes, and whose rows are written, at a time

__all__ = [
    "gibbs_posterior",
    "GibbsPosterior",
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


class GibbsPosterior(NamedTuple):
    posterior: DiscreteDistribution
    z: float


# kept for ROADMAP item 20: Gibbs learning over an enumerated perceptron class
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


# kept for ROADMAP item 19: exact likelihood curves of trained machines
def loss_nll(energies, correct: int, beta: float) -> float:
    """E_correct + (1/beta) log sum_y exp(-beta E_y).

    Equals -(1/beta) log of the Gibbs posterior at the correct label;
    computed as E_correct - E_min + (1/beta) log sum_y exp(-beta (E_y - E_min)),
    so every log-weight is at most 0.
    """
    table = _array("loss_nll: energies", energies)
    correct = _index("loss_nll: correct", correct, table.size)
    beta = _real("loss_nll: beta", beta, 0, ends="(]")
    e_min = float(table.min())
    with np.errstate(over="ignore"):  # an overflow to -inf is a weight of 0
        log_w = -beta * (table - e_min)
    log_z = _log_normalize_inplace("loss_nll", log_w)[1]
    loss = float(table[correct]) - e_min + log_z / beta
    if not math.isfinite(loss):
        raise NumericalError("loss_nll: loss overflows a float")
    return loss


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
    with np.errstate(over="ignore", invalid="ignore"):  # a -E beyond the float range fails the max check
        neg_energy = machine.a @ V + machine.b @ H + ((machine.W.T @ V) * H).sum(axis=0)
    probs, log_z = _log_normalize_inplace("bm_partition_exact", neg_energy)
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
    defaults to all zeros. Draws, all up front:
    ``rng.generator.random((steps, n_h))``, then
    ``rng.generator.random((steps, n_v))``; step t uses row t of each, and
    unit i turns on when its uniform is below its conditional probability.
    """
    steps = _count("bm_gibbs_sample: steps", steps, 1)
    if rng is None:
        raise ValidationError("bm_gibbs_sample: requires an rng")
    n_v, n_h = machine.n_visible, machine.n_hidden
    if start is None:
        v = 0
    else:
        v = _lanes(_units("bm_gibbs_sample: start.v", start.v, (n_v,)).astype(np.uint64) << 63)
        _units("bm_gibbs_sample: start.h", start.h, (n_h,))
    u_h = rng.generator.random((steps, n_h))
    u_v = rng.generator.random((steps, n_v))
    # A layer's state is one int of 64-bit lanes, bit 63 of lane i set when
    # unit i is on. A uniform is k 2^-53 for an integer k, so u < p exactly
    # when k < T = ceil(p 2^53); a memo maps a state to the other layer's
    # lanes 2^63 - 1 + T, whose difference with the lanes k has bit 63 set
    # exactly where k < T, and cannot borrow from the next lane.
    h_flags, v_flags = _lanes(np.full(n_h, 2**63, np.uint64)), _lanes(np.full(n_v, 2**63, np.uint64))
    h_memo, v_memo = {}, {}
    hidden = np.empty((steps, n_h), dtype=np.uint8)
    # row t + 1 holds v_t: a step looks up the bytes of the v it starts from
    visible = np.empty((steps + 1, n_v), dtype=np.uint8)
    with np.errstate(over="ignore", invalid="ignore"):  # a saturated activation, 0 or 1, is the correct float
        for first in range(0, steps, _GIBBS_BLOCK):
            last = min(first + _GIBBS_BLOCK, steps)
            h_rows, v_rows = [], []
            for k_h, k_v in zip(_uniform_lanes(u_h[first:last]), _uniform_lanes(u_v[first:last])):
                thresholds, v_row = h_memo.get(v) or _conditional(h_memo, v, bm_hidden_activation, machine, n_v)
                h = (thresholds - k_h) & h_flags
                thresholds, h_row = v_memo.get(h) or _conditional(v_memo, h, bm_visible_activation, machine, n_h)
                v = (thresholds - k_v) & v_flags
                h_rows.append(h_row)
                v_rows.append(v_row)
            hidden[first:last] = np.frombuffer(b"".join(h_rows), np.uint8).reshape(last - first, n_h)
            visible[first:last] = np.frombuffer(b"".join(v_rows), np.uint8).reshape(last - first, n_v)
    visible[steps] = _row(v, n_v)
    return GibbsSampleRun(visible[1:], hidden)


def _lanes(values: np.ndarray) -> int:
    # unsigned 64-bit values as one int, value i in lane i (bits 64i to 64i + 63)
    return int.from_bytes(values.astype("<u8").tobytes(), "little")


def _row(lanes: int, n: int) -> np.ndarray:
    # the uint8 row of a state held as lanes
    return (np.frombuffer(lanes.to_bytes(8 * n, "little"), "<u8") >> 63).astype(np.uint8)


def _uniform_lanes(u: np.ndarray):
    # row t of the uniforms u = k 2^-53 as one int of lanes k
    k = (u * 2.0**53).astype("<u8")
    return map(int.from_bytes, np.ndarray(len(k), (np.void, 8 * k.shape[1]), k).tolist(), repeat("little"))


def _conditional(memo: dict, lanes: int, activation, machine: BoltzmannMachine, n: int):
    # (the other layer's threshold lanes 2^63 - 1 + T, the state's uint8 row
    # bytes), kept while the memo holds fewer than _MEMO_ROWS states; a NaN
    # probability has T = 0, as u < nan is false
    row = _row(lanes, n)
    p = activation(machine, row)
    t = np.ceil(np.where(np.isnan(p), 0.0, p) * 2.0**53).astype(np.uint64)
    entry = _lanes(t + np.uint64(2**63 - 1)), row.tobytes()
    if len(memo) < _MEMO_ROWS:
        memo[lanes] = entry
    return entry


def bm_free_energy(machine: BoltzmannMachine, v) -> float:
    """F(v) = -a.v - sum_j softplus(b_j + (vW)_j); p(v) = exp(-F(v))/Z."""
    vf = _units("bm_free_energy: v", v, (machine.n_visible,)).astype(float)
    return float(-machine.a @ vf - np.logaddexp(0.0, machine.b + vf @ machine.W).sum())


def _enumerate_visible(machine: BoltzmannMachine, name: str):
    # (bits, b + vW, F(v), p(v), ln Z) over the 2^{n_v} visible states, one row per unit,
    # the hidden layer summed out in closed form; a NumericalError names ``name``
    _check_capacity(machine)
    bits = state_bits(machine.n_visible)
    with np.errstate(over="ignore", invalid="ignore"):  # an F(v) beyond the float range fails the max check
        pre = machine.b[:, None] + machine.W.T @ bits
        free = -(machine.a @ bits) - np.logaddexp(0.0, pre).sum(axis=0)
    return (bits, pre, free) + _log_normalize_inplace(name, -free)


def _mean_log_likelihood(enumeration, index: np.ndarray) -> float:
    # mean log p(v) over the visible states numbered index, from _enumerate_visible
    _, _, free, _, log_z = enumeration
    return float((-free[index] - log_z).mean())


def bm_log_likelihood(machine: BoltzmannMachine, data) -> float:
    """Mean log p(v) over the data rows, by exact enumeration."""
    X = _units("bm_log_likelihood: data", data, (None, machine.n_visible))
    return _mean_log_likelihood(_enumerate_visible(machine, "bm_log_likelihood"), _pack_bits(X))


def _exact_model_stats(enumeration):
    # E[v], E[h] = sum_v p(v) p(h=1|v) and E[v h^T] under the model, from _enumerate_visible
    bits, pre, _, p, _ = enumeration
    act = _logistic(pre)
    return bits @ p, act @ p, (bits * p) @ act.T


class BMGradient(NamedTuple):
    a: np.ndarray
    b: np.ndarray
    W: np.ndarray


def _row_stats(V: np.ndarray, P_h: np.ndarray):
    # mean v, mean p(h|v) and V^T p(h|V) / m over the m float rows of V, given P_h = p(h|V);
    # each mean is the sum and the division that ndarray.mean does, without its wrapper
    m = V.shape[0]
    return np.add.reduce(V, axis=0) / m, np.add.reduce(P_h, axis=0) / m, V.T @ P_h / m


def _gradient(data_stats, model_stats) -> BMGradient:
    return BMGradient(*(data - model for data, model in zip(data_stats, model_stats)))


def bm_exact_gradient(machine: BoltzmannMachine, data) -> BMGradient:
    """Gradient of the mean log-likelihood in (a, b, W), by enumeration.

    Ascent direction: data statistics minus model statistics, with the
    hidden data statistics taken from the analytic activations p(h|v).
    Capacity-guarded like every other enumeration routine here.
    """
    X = _units("bm_exact_gradient: data", data, (None, machine.n_visible)).astype(float)
    model_stats = _exact_model_stats(_enumerate_visible(machine, "bm_exact_gradient"))
    return _gradient(_row_stats(X, bm_hidden_activation(machine, X)), model_stats)


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
    empty curve). ``exact_gradient`` enumerates each machine once: the
    enumeration that scores an epoch gives the next epoch's model
    expectations. A loss, free energy or parameter beyond the float range
    raises NumericalError naming the epoch.
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
    exact = method == "exact_gradient"
    if exact:
        _check_capacity(machine)
        index = _pack_bits(bits)
    can_score = machine.n_visible + machine.n_hidden <= MAX_EXACT_UNITS

    losses: List[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        enumeration = _enumerate_visible(machine, "bm_train at epoch 0") if exact and epochs else None
        for epoch in range(1, epochs + 1):
            p_data = bm_hidden_activation(machine, X)
            if exact:
                model_stats = _exact_model_stats(enumeration)
            else:
                # k block-Gibbs steps from the data rows, whose p(h|v) is p_data
                v_neg, p_neg = X, p_data
                for _ in range(k):
                    h = (rng.generator.random(p_neg.shape) < p_neg).astype(float)
                    v_neg = (rng.generator.random(X.shape) < bm_visible_activation(machine, h)).astype(float)
                    p_neg = bm_hidden_activation(machine, v_neg)
                model_stats = _row_stats(v_neg, p_neg)
            params = (machine.a, machine.b, machine.W)
            grad = _gradient(_row_stats(X, p_data), model_stats)
            machine = _updated_machine([p + learning_rate * g for p, g in zip(params, grad)], epoch)
            if exact:
                enumeration = _enumerate_visible(machine, f"bm_train at epoch {epoch}")
                loss = -_mean_log_likelihood(enumeration, index)
            elif can_score:
                try:
                    loss = -bm_log_likelihood(machine, bits)
                except NumericalError as exc:
                    raise NumericalError(f"bm_train at epoch {epoch}: {exc}") from None
            else:
                continue
            if not math.isfinite(loss):
                raise NumericalError(f"bm_train at epoch {epoch}: the negative log-likelihood overflows a float")
            losses.append(loss)
    return TrainResult(machine, losses)


def _updated_machine(params, epoch: int) -> BoltzmannMachine:
    # the machine of float parameters (a, b, W) of a machine's shapes, checked only for
    # finiteness, which is all the constructor could still find wrong with them
    if not all(np.isfinite(p).all() for p in params):
        raise NumericalError(f"bm_train at epoch {epoch}: a parameter overflows a float")
    machine = object.__new__(BoltzmannMachine)
    for name, value in zip("abW", params):
        object.__setattr__(machine, name, value)
    return machine


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
