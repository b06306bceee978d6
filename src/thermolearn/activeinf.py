"""Free-energy quantities and discrete planning.

Covers the thermodynamic free energy A = U - TS, the variational free
energy of an approximate posterior (a KL divergence to the exact
posterior), standard max-form value iteration, a min-form variant over a
generative model whose per-step cost is the one-step expected free
energy, and mean-field coordinate-ascent variational inference over
small factorized posteriors.

Sign convention: the one-step expected free energy ADDS the expected
reward to the transition-entropy term and is minimized as written, so the
reward table acts as a cost.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .config import _array, _count, _index, _items, _real, _stochastic
from .distributions import DiscreteDistribution, as_distribution, log_normalize
from .errors import CapacityError, ConvergenceError, DomainError, NumericalError, ValidationError
from .info import kl_divergence

MAX_MF_VARIABLES = 3
MAX_MF_VALUES = 16
MAX_SWEEPS = 100_000

__all__ = [
    "helmholtz_free_energy",
    "variational_free_energy",
    "GenerativeModel",
    "DiscreteMDP",
    "mdp_from_json",
    "mdp_to_json",
    "value_iteration",
    "fe_value_iteration",
    "ValueIterationResult",
    "FactorizedPosterior",
    "mean_field_update",
    "mean_field_kl",
]


# kept for ROADMAP item 13: F = U - TS from exact counts
def helmholtz_free_energy(internal_energy: float, temperature: float, entropy: float) -> float:
    """A = U - T S; an A beyond the float range raises NumericalError.

    When T S alone overflows, A is 2 (U/2 - T (S/2)): halving is exact at
    such magnitudes, so A is rounded as U - T S would be with a wider
    exponent range.
    """
    internal_energy = _real("helmholtz_free_energy: U", internal_energy)
    temperature = _real("helmholtz_free_energy: T", temperature, 0)
    entropy = _real("helmholtz_free_energy: S", entropy)
    heat = temperature * entropy
    if math.isfinite(heat):
        free_energy = internal_energy - heat
    else:
        free_energy = 2.0 * (internal_energy / 2.0 - temperature * (entropy / 2.0))
    if not math.isfinite(free_energy):
        raise NumericalError(f"helmholtz_free_energy: T S or A = U - T S is beyond the float range ({free_energy!r})")
    return free_energy


# kept for ROADMAP item 7: the mean-field gap F_q - F = KL(q || p)
def variational_free_energy(q, prior, likelihood, evidence_index=None) -> float:
    """KL from the approximate posterior q(Z) to the exact posterior P(Z|X).

    ``likelihood`` is either the vector P(x_obs | Z) over hidden states,
    or, given ``evidence_index``, a matrix with one row per state whose column
    at that index is the observed one. The exact posterior is prior * likelihood,
    normalized. Zero iff q equals the exact posterior. The likelihood is first
    scaled by the power of two that brings its largest entry into [0.5, 1): the
    scaling cancels in the normalisation, and it keeps tiny likelihoods from
    vanishing in the product.
    """
    q = as_distribution(q)
    prior = as_distribution(prior)
    shape = (len(prior),) if evidence_index is None else (len(prior), None)
    lik = _array("variational_free_energy: likelihood", likelihood, shape, 0)
    if evidence_index is not None:
        lik = lik[:, _index("variational_free_energy: evidence_index", evidence_index, lik.shape[1])]
    if len(q) != len(prior):
        raise DomainError("variational_free_energy: q and prior must share the hidden state space")
    joint = prior.probs * np.ldexp(lik, -math.frexp(lik.max())[1])
    total = joint.sum()
    if total <= 0:
        raise DomainError("variational_free_energy: evidence has zero probability under the model")
    posterior = DiscreteDistribution(joint / total)
    return kl_divergence(q, posterior)


@dataclass(frozen=True)
class GenerativeModel:
    """Discrete generative model for free-energy value iteration.

    prior: P(s) over n_states. likelihood[s, o] = P(o | s), rows
    stochastic. transition[a, s, s'] = Q(s' | s, a), rows stochastic in
    the last axis. reward[o, s] = r(o, s).
    """

    prior: DiscreteDistribution
    likelihood: np.ndarray
    transition: np.ndarray
    reward: np.ndarray

    def __post_init__(self):
        prior = as_distribution(self.prior)
        n = len(prior)
        lik = _stochastic("GenerativeModel: likelihood", self.likelihood, (n, None))
        trans = _stochastic("GenerativeModel: transition", self.transition, (None, n, n))
        reward = _array("GenerativeModel: reward", self.reward, (lik.shape[1], n))
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "likelihood", lik)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "reward", reward)

    @property
    def n_states(self) -> int:
        return len(self.prior)

    @property
    def n_actions(self) -> int:
        return self.transition.shape[0]

    def expected_reward_per_state(self) -> np.ndarray:
        """E[r(o, s) | s] = sum_o P(o|s) r(o, s), one value per state."""
        return np.einsum("so,os->s", self.likelihood, self.reward)

    def transition_entropy(self) -> np.ndarray:
        """H(Q(. | s, a)) in nats, shaped (n_actions, n_states)."""
        t = self.transition
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(t > 0, t * np.log(t), 0.0)
        return -terms.sum(axis=2)


@dataclass(frozen=True)
class DiscreteMDP:
    """Tabular MDP: transition[s, a, s'] = P(s'|s,a), reward[s, a], discount < 1."""

    transition: np.ndarray
    reward: np.ndarray
    gamma: float

    def __post_init__(self):
        name = "DiscreteMDP: transition"
        n_states = len(_array(name, self.transition, (None, None, None)))
        trans = _stochastic(name, self.transition, (n_states, None, n_states))
        reward = _array("DiscreteMDP: reward", self.reward, trans.shape[:2])
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "gamma", _real("DiscreteMDP: gamma", self.gamma, 0, 1, "[)"))

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]


def mdp_from_json(text: str) -> DiscreteMDP:
    try:
        payload = json.loads(text)
        missing = {"n_states", "n_actions", "gamma", "transition", "reward"} - set(payload)
        if missing:
            raise ValidationError(f"missing keys: {sorted(missing)}")
        mdp = DiscreteMDP(payload["transition"], payload["reward"], payload["gamma"])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"MDP JSON: {exc}") from None
    declared = (payload["n_states"], payload["n_actions"])
    if any(type(size) is not int for size in declared) or declared != (mdp.n_states, mdp.n_actions):
        raise ValidationError("MDP JSON: declared sizes must be integers matching the table shapes")
    return mdp


def mdp_to_json(mdp: DiscreteMDP) -> str:
    return json.dumps(
        {
            "n_states": mdp.n_states,
            "n_actions": mdp.n_actions,
            "gamma": mdp.gamma,
            "transition": mdp.transition.tolist(),
            "reward": mdp.reward.tolist(),
        },
        sort_keys=True,
    )


class ValueIterationResult(NamedTuple):
    values: np.ndarray
    policy: np.ndarray
    iterations: int
    residual: float
    sup_diffs: Tuple[float, ...]


def _iterate_values(name: str, q_of_v, n_states: int, tolerance: float, pick) -> ValueIterationResult:
    # q_of_v(V) -> (n_states, n_actions) table; pick = max / min reducer
    values = np.zeros(n_states)
    diffs: List[float] = []
    with np.errstate(over="ignore", invalid="ignore"):  # a value beyond the float range raises below
        for iteration in range(1, MAX_SWEEPS + 1):
            q = q_of_v(values)
            new_values = pick(q, axis=1)
            if not np.isfinite(new_values).all():
                raise NumericalError(f"{name}: values overflow a float at sweep {iteration}")
            diff = float(np.max(np.abs(new_values - values)))
            diffs.append(diff)
            values = new_values
            if diff < tolerance:
                q = q_of_v(values)
                backed_up = pick(q, axis=1)
                residual = float(np.max(np.abs(backed_up - values)))
                argpick = np.argmax if pick is np.max else np.argmin
                policy = argpick(q, axis=1).astype(int)
                return ValueIterationResult(values, policy, iteration, residual, tuple(diffs))
    raise ConvergenceError(f"value iteration did not reach tolerance {tolerance} in {MAX_SWEEPS} sweeps")


def value_iteration(mdp: DiscreteMDP, tolerance: float = 1e-10) -> ValueIterationResult:
    """Max-form dynamic programming: V(s) <- max_a [R(s,a) + gamma E V(s')].

    Stops when the sup-norm change drops below tolerance; the reported
    residual is the Bellman residual of the returned values (one extra
    backup), and sup_diffs records every sweep's change for contraction
    checks. The greedy policy breaks ties toward the lowest action index.
    """
    tolerance = _real("value_iteration: tolerance", tolerance, 0, ends="(]")

    def q_of_v(values):
        return mdp.reward + mdp.gamma * np.einsum("san,n->sa", mdp.transition, values)

    return _iterate_values("value_iteration", q_of_v, mdp.n_states, tolerance, np.max)


def fe_value_iteration(
    model: GenerativeModel,
    tolerance: float = 1e-10,
    discount: float = 0.9,
) -> ValueIterationResult:
    """Min-form dynamic programming on one-step expected free energy.

    The per-step cost is c(s,a) = E[r(o,s)] + H(Q(.|s,a)) (the -ln term
    in expectation), and V(s) <- min_a [c(s,a) + discount * E V(s')].
    The model carries no discount of its own, so it is a parameter here.
    """
    tolerance = _real("fe_value_iteration: tolerance", tolerance, 0, ends="(]")
    discount = _real("fe_value_iteration: discount", discount, 0, 1, "[)")
    cost = model.expected_reward_per_state()[:, None] + model.transition_entropy().T

    def q_of_v(values):
        return cost + discount * np.einsum("asn,n->sa", model.transition, values)

    return _iterate_values("fe_value_iteration", q_of_v, model.n_states, tolerance, np.min)


@dataclass(frozen=True)
class FactorizedPosterior:
    """Fully factorized distribution over hidden variables: q(h) = prod q_i(h_i)."""

    factors: Tuple[DiscreteDistribution, ...]

    def __post_init__(self):
        factors = tuple(as_distribution(f) for f in _items("FactorizedPosterior: factors", self.factors))
        if not factors:
            raise ValidationError("FactorizedPosterior: need at least one factor")
        object.__setattr__(self, "factors", factors)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(f) for f in self.factors)

    def joint_probs(self) -> np.ndarray:
        out = self.factors[0].probs
        for factor in self.factors[1:]:
            out = np.multiply.outer(out, factor.probs)
        return out

    @classmethod
    def uniform(cls, shape: Sequence[int]) -> "FactorizedPosterior":
        return cls(tuple(DiscreteDistribution.uniform(k) for k in shape))


def _check_mf_table(name: str, log_joint, shape: Tuple[int, ...]) -> np.ndarray:
    # a finite log joint (a strictly positive joint) over the factors' values
    if len(shape) > MAX_MF_VARIABLES or any(k > MAX_MF_VALUES for k in shape):
        raise CapacityError(
            f"mean field limited to {MAX_MF_VARIABLES} variables of {MAX_MF_VALUES} values, got {shape}"
        )
    return _array(f"{name}: joint_log_table", log_joint, shape)


def mean_field_update(
    posterior: FactorizedPosterior, joint_log_table, sweeps: int = 1
) -> FactorizedPosterior:
    """Coordinate-ascent sweeps: q_i(h_i) proportional to exp E_{q_-i}[ln p(h, x)].

    One sweep updates every factor once, in order, each update seeing the
    factors already refreshed this sweep. The KL divergence to the exact
    posterior never increases across a sweep. Zero sweeps returns the
    input unchanged.
    """
    sweeps = _count("mean_field_update: sweeps", sweeps, 0)
    table = _check_mf_table("mean_field_update", joint_log_table, posterior.shape)
    factors = list(posterior.factors)
    n = len(factors)
    for _ in range(sweeps):
        for i in range(n):
            moved = np.moveaxis(table, i, 0)
            rest = [factors[j].probs for j in range(n) if j != i]
            expected = moved
            for probs in reversed(rest):
                expected = expected @ probs
            factors[i] = DiscreteDistribution(log_normalize(expected)[0])
    return FactorizedPosterior(tuple(factors))


def mean_field_kl(posterior: FactorizedPosterior, joint_log_table) -> float:
    """KL(q || p(h|x)) for a factorized q against the normalized joint."""
    table = _check_mf_table("mean_field_kl", joint_log_table, posterior.shape)
    p, _ = log_normalize(table)
    q = posterior.joint_probs()
    return kl_divergence(
        DiscreteDistribution(q.ravel()), DiscreteDistribution(p.ravel())
    )
