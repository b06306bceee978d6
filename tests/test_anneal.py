import math

import numpy as np
import pytest

from thermolearn.anneal import (
    CoolingSchedule,
    EnergyLandscape,
    anneal,
)
from thermolearn.cli import _QuadraticLine
from thermolearn.digest import DigestLandscape, DigestOrdering, DoubleDigestInstance, generate_instance
from thermolearn.errors import ValidationError
from thermolearn.rng import RngStream


class IntLine(EnergyLandscape):
    """E(x) = (x - 3)^2 over the integers, +/-1 moves."""

    def energy(self, state):
        return float((state - 3) ** 2)

    def moves(self, rng, count):
        return (2 * rng.generator.integers(2, size=count) - 1).tolist()

    def apply(self, state, move):
        return state + move

    def random_state(self, rng):
        return int(rng.generator.integers(-50, 51))


# --- schedules --------------------------------------------------------------


def test_geometric_schedule():
    s = CoolingSchedule("geometric", 10.0, 0.5)
    assert s.temperature(0) == 10.0
    assert s.temperature(3) == pytest.approx(1.25)


def test_linear_schedule_hits_floor():
    s = CoolingSchedule("linear", 10.0, 3.0, floor=0.5)
    assert s.temperature(0) == 10.0
    assert s.temperature(3) == pytest.approx(1.0)
    assert s.temperature(100) == 0.5


def test_logarithmic_schedule():
    s = CoolingSchedule("logarithmic", 2.0)
    assert s.temperature(0) == pytest.approx(2.0 / math.log(2))
    assert s.temperature(8) == pytest.approx(2.0 / math.log(10))


def test_constant_schedule():
    s = CoolingSchedule("constant", 1.5)
    assert s.temperature(0) == s.temperature(10**6) == 1.5


def test_schedules_are_non_increasing_and_positive():
    for s in (
        CoolingSchedule("geometric", 5.0, 0.9),
        CoolingSchedule("linear", 5.0, 0.3, floor=0.01),
        CoolingSchedule("logarithmic", 5.0),
        CoolingSchedule("constant", 5.0),
    ):
        temps = [s.temperature(k) for k in range(200)]
        assert all(t > 0 for t in temps)
        assert all(a >= b for a, b in zip(temps, temps[1:]))


def test_schedule_validation():
    with pytest.raises(ValidationError):
        CoolingSchedule("exotic", 1.0)
    with pytest.raises(ValidationError):
        CoolingSchedule("geometric", 1.0, 0.0)
    with pytest.raises(ValidationError):
        CoolingSchedule("geometric", 1.0, 1.5)
    with pytest.raises(ValidationError):
        CoolingSchedule("geometric", -1.0, 0.5)
    with pytest.raises(ValidationError):
        CoolingSchedule("linear", 1.0, 0.1, floor=0.0)
    with pytest.raises(ValidationError):
        CoolingSchedule("constant", 1.0).temperature(-1)


# --- annealing loop -----------------------------------------------------------


def test_anneal_finds_quadratic_minimum():
    result = anneal(
        IntLine(),
        CoolingSchedule("geometric", 10.0, 0.95),
        sweeps=200,
        proposals_per_sweep=10,
        rng=RngStream(0),
    )
    assert result.best_state == 3
    assert result.best_energy == 0.0


def test_best_energy_column_is_non_increasing():
    result = anneal(
        IntLine(),
        CoolingSchedule("geometric", 5.0, 0.9),
        sweeps=100,
        proposals_per_sweep=5,
        rng=RngStream(1),
    )
    bests = result.trace.column("best_energy")
    assert all(a >= b for a, b in zip(bests, bests[1:]))
    assert result.best_energy == bests[-1]


def test_trace_shape_and_columns():
    result = anneal(
        IntLine(),
        CoolingSchedule("constant", 1.0),
        sweeps=30,
        proposals_per_sweep=4,
        rng=RngStream(2),
    )
    assert len(result.trace) == 30
    assert result.trace.column_names == [
        "sweep",
        "temperature",
        "current_energy",
        "best_energy",
        "acceptance_rate",
    ]
    rates = result.trace.column("acceptance_rate")
    assert np.all((rates >= 0) & (rates <= 1))


def test_anneal_reproducible():
    kwargs = dict(
        problem=IntLine(),
        schedule=CoolingSchedule("geometric", 8.0, 0.93),
        sweeps=60,
        proposals_per_sweep=6,
    )
    a = anneal(rng=RngStream(7), **kwargs)
    b = anneal(rng=RngStream(7), **kwargs)
    assert a.best_state == b.best_state
    assert np.array_equal(a.trace.column("current_energy"), b.trace.column("current_energy"))


def test_initial_state_is_respected():
    result = anneal(
        IntLine(),
        CoolingSchedule("constant", 1e-6),
        sweeps=1,
        proposals_per_sweep=1,
        rng=RngStream(3),
        initial=3,
    )
    # cold chain started at the optimum can never lose it
    assert result.best_energy == 0.0


def test_anneal_validation():
    with pytest.raises(ValidationError):
        anneal(IntLine(), CoolingSchedule("constant", 1.0), 0, 5, RngStream(0))
    with pytest.raises(ValidationError):
        anneal(IntLine(), CoolingSchedule("constant", 1.0), 5, 0, RngStream(0))


@pytest.mark.parametrize("sweeps", [0, 2.5, 2.0, True, "5", None])
def test_anneal_rejects_a_sweep_count_that_is_not_a_positive_integer(sweeps):
    with pytest.raises(ValidationError, match="sweeps must"):
        anneal(IntLine(), CoolingSchedule("constant", 1.0), sweeps, 5, RngStream(0))


@pytest.mark.parametrize("proposals", [0, 2.5, 2.0, True, "5", None])
def test_anneal_rejects_a_proposal_count_that_is_not_a_positive_integer(proposals):
    with pytest.raises(ValidationError, match="proposals_per_sweep must"):
        anneal(IntLine(), CoolingSchedule("constant", 1.0), 5, proposals, RngStream(0))


def test_anneal_takes_numpy_integer_counts():
    a = anneal(IntLine(), CoolingSchedule("constant", 1.0), np.int64(4), np.int32(3), RngStream(0))
    b = anneal(IntLine(), CoolingSchedule("constant", 1.0), 4, 3, RngStream(0))
    assert len(a.trace) == 4 and a.trace.csv_text() == b.trace.csv_text()


def test_schedule_that_reaches_zero_fails_before_any_proposal():
    class CountingLine(IntLine):
        calls = 0

        def moves(self, rng, count):
            CountingLine.calls += 1
            return super().moves(rng, count)

    # T(1075) = 10 * 0.5^1075 underflows to 0.0; T(1074) = 10 * 2^-1074 > 0
    with pytest.raises(ValidationError, match=r"^anneal: T at sweep 1075 must be a finite real > 0, got 0\.0$"):
        anneal(CountingLine(), CoolingSchedule("geometric", 10.0, 0.5), 1200, 5, RngStream(0))
    assert CountingLine.calls == 0




# --- the stop at a landscape's energy floor ----------------------------------


def _with_and_without_floor(landscape_type, arg):
    # the landscape, and the same landscape with no floor, whose walk runs every sweep
    floorless = type(f"Floorless{landscape_type.__name__}", (landscape_type,), {"energy_floor": -math.inf})
    return landscape_type(arg), floorless(arg)


def _instance(n_a, n_b, total, seed):
    return generate_instance(n_a, n_b, total, RngStream(seed))


# landscape type and arguments, schedule, sweeps, proposals per sweep, walk seed
STOP_CASES = {
    "digest-5x4": (DigestLandscape, _instance(5, 4, 60, 123), CoolingSchedule("geometric", 5.0, 0.98), 250, 100, 7),
    "digest-7x8": (DigestLandscape, _instance(7, 8, 90, 1), CoolingSchedule("geometric", 5.0, 0.98), 250, 100, 102),
    # the same instance, on a walk that ends at energy 0.2333 after all 250 sweeps
    "digest-7x8-unsolved": (DigestLandscape, _instance(7, 8, 90, 1), CoolingSchedule("geometric", 5.0, 0.98), 250, 100, 101),
    "digest-6x6": (DigestLandscape, _instance(6, 6, 50, 2), CoolingSchedule("linear", 4.0, 0.02, floor=0.05), 300, 40, 9),
    "quadratic": (_QuadraticLine, 60, CoolingSchedule("geometric", 10.0, 0.95), 200, 10, 0),
    # no ordering gives the observed 1 + 7 from cuts at 4 alone, so the floor is never reached
    "digest-unsolvable": (DigestLandscape, DoubleDigestInstance((4, 4), (4, 4), (1, 7)), CoolingSchedule("constant", 1.0), 60, 5, 3),
}
FLOOR_NOT_REACHED = {"digest-7x8-unsolved", "digest-unsolvable"}


@pytest.mark.parametrize("case", STOP_CASES)
def test_stop_at_the_floor_keeps_the_floorless_walk_up_to_it(case):
    landscape_type, arg, schedule, sweeps, per_sweep, seed = STOP_CASES[case]
    landscape, floorless = _with_and_without_floor(landscape_type, arg)
    stopped = anneal(landscape, schedule, sweeps, per_sweep, RngStream(seed))
    full = anneal(floorless, schedule, sweeps, per_sweep, RngStream(seed))
    assert len(full.trace) == sweeps
    # the walk ends after the first sweep whose best energy reaches the floor, or runs every sweep
    reached = np.flatnonzero(full.trace.column("best_energy") <= landscape.energy_floor)
    rows = int(reached[0]) + 1 if reached.size else sweeps
    assert (rows == sweeps) == (case in FLOOR_NOT_REACHED)
    assert len(stopped.trace) == rows
    assert stopped.trace.csv_text().splitlines() == full.trace.csv_text().splitlines()[: rows + 1]
    assert stopped.best_state == full.best_state
    assert stopped.best_energy.hex() == full.best_energy.hex()


def test_initial_state_at_the_floor_runs_one_sweep():
    inst = _instance(5, 4, 60, 5)
    schedule = CoolingSchedule("geometric", 5.0, 0.98)
    for (landscape_type, arg), initial in (((DigestLandscape, inst), DigestOrdering.identity(inst)), ((_QuadraticLine, 10), 0)):
        landscape, floorless = _with_and_without_floor(landscape_type, arg)
        stopped = anneal(landscape, schedule, 50, 20, RngStream(1), initial=initial)
        full = anneal(floorless, schedule, 50, 20, RngStream(1), initial=initial)
        assert len(stopped.trace) == 1 and len(full.trace) == 50
        assert stopped.trace.csv_text().splitlines() == full.trace.csv_text().splitlines()[:2]
        assert stopped.best_state == full.best_state == initial
        assert stopped.best_energy == 0.0
