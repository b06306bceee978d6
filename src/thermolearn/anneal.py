"""Simulated annealing over pluggable energy landscapes.

A landscape supplies four things: an energy, a batch of random moves,
the state a move leads to, and a way to draw a fresh random state. The
annealer runs Metropolis acceptance at a per-sweep temperature from a
cooling schedule and reports the best state ever visited, not the final
one, since the walk may drift uphill after touching the optimum.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import _count, _real
from .errors import ValidationError
from .rng import RngStream
from .trace import Trace

SCHEDULE_KINDS = ("geometric", "linear", "logarithmic", "constant")

__all__ = [
    "EnergyLandscape",
    "CoolingSchedule",
    "anneal",
    "AnnealResult",
]


class EnergyLandscape(ABC):
    """State space with an energy to minimize.

    Implementations must be reentrant: no hidden mutable state, so
    parallel restarts over independent rng streams stay independent.

    ``energy_floor`` states that no state has a lower energy. ``anneal``
    stops once its best energy reaches it, since no later proposal could
    replace the best; the default, -inf, is reached only by an energy of -inf.
    """

    energy_floor = -math.inf

    @abstractmethod
    def energy(self, state) -> float: ...

    @abstractmethod
    def moves(self, rng: RngStream, count: int): ...

    @abstractmethod
    def apply(self, state, move): ...

    @abstractmethod
    def random_state(self, rng: RngStream): ...


@dataclass(frozen=True)
class CoolingSchedule:
    """Temperature as a function of the sweep index k >= 0.

    kinds: geometric T0*r^k (parameter r in (0,1]); linear
    max(T0 - p*k, floor) (parameter p >= 0, floor > 0); logarithmic
    T0/ln(k+2); constant T0. All keep T positive and non-increasing.
    """

    kind: str
    t0: float
    parameter: float = 0.0
    floor: float = 1e-9

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValidationError(f"CoolingSchedule: kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        _real("CoolingSchedule: T0", self.t0, 0, ends="(]")
        if self.kind == "geometric":
            _real("CoolingSchedule: geometric ratio", self.parameter, 0, 1, "(]")
        if self.kind == "linear":
            _real("CoolingSchedule: linear decrement", self.parameter, 0)
            _real("CoolingSchedule: linear floor", self.floor, 0, self.t0, "(]")

    def temperature(self, k: int) -> float:
        """Temperature at sweep k under the schedule; always > 0."""
        k = _count("CoolingSchedule.temperature: k", k, 0)
        if self.kind == "geometric":
            return self.t0 * self.parameter**k
        if self.kind == "linear":
            return max(self.t0 - self.parameter * k, self.floor)
        if self.kind == "logarithmic":
            return self.t0 / math.log(k + 2)
        return self.t0


class AnnealResult(NamedTuple):
    best_state: object
    best_energy: float
    trace: Trace


def anneal(
    problem: EnergyLandscape,
    schedule: CoolingSchedule,
    sweeps: int,
    proposals_per_sweep: int,
    rng: RngStream,
    initial=None,
) -> AnnealResult:
    """Metropolis walk under a cooling schedule; returns the best-ever state.

    Sweep k runs ``proposals_per_sweep`` (P) proposals at T(k): downhill
    or flat moves are accepted, uphill moves with probability
    exp(-dH / T(k)) against a uniform draw in [0, 1). Draws: the initial
    state from ``problem.random_state(rng)`` unless ``initial`` is given,
    then per sweep ``problem.moves(rng, P)`` and then ``rng.generator.random(P)``,
    one uniform per proposal. The walk ends after the first sweep whose
    best energy is at or below ``problem.energy_floor``, so ``sweeps`` is
    the most sweeps it runs. The trace records one row per sweep run:
    temperature, end-of-sweep current energy, best energy so far, and the
    sweep's acceptance rate.
    """
    sweeps = _count("anneal: sweeps", sweeps, 1)
    proposals_per_sweep = _count("anneal: proposals_per_sweep", proposals_per_sweep, 1)
    # every sweep's temperature, so a schedule that underflows fails before any draw
    temps = [_real(f"anneal: T at sweep {k}", schedule.temperature(k), 0, ends="(]") for k in range(sweeps)]
    state = problem.random_state(rng) if initial is None else initial
    energy = _real("anneal: initial energy", float(problem.energy(state)))
    best_state, best_energy = state, energy

    currents, bests, acc_rates = np.empty((3, sweeps))
    exp = math.exp
    apply, energy_of, floor = problem.apply, problem.energy, problem.energy_floor

    for k, temperature in enumerate(temps):
        inv_t = 1.0 / temperature
        accepted = 0
        moves = problem.moves(rng, proposals_per_sweep)
        uniforms = rng.generator.random(proposals_per_sweep).tolist()
        for move, u in zip(moves, uniforms):
            candidate = apply(state, move)
            candidate_energy = float(energy_of(candidate))
            delta = candidate_energy - energy
            if delta <= 0.0 or u < exp(-delta * inv_t):
                state = candidate
                energy = candidate_energy
                accepted += 1
                if energy < best_energy:
                    best_state, best_energy = state, energy
        currents[k] = energy
        bests[k] = best_energy
        acc_rates[k] = accepted / proposals_per_sweep
        if best_energy <= floor:
            sweeps = k + 1
            break

    trace = Trace(
        {
            "sweep": np.arange(sweeps),
            "temperature": np.array(temps[:sweeps]),
            "current_energy": currents[:sweeps],
            "best_energy": bests[:sweeps],
            "acceptance_rate": acc_rates[:sweeps],
        }
    )
    return AnnealResult(best_state, float(best_energy), trace)
