import math
import os
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from thermolearn.errors import CapacityError, NumericalError, ValidationError
from thermolearn.ising import (
    CouplingGraph,
    acceptance_probability,
    boltzmann_entropy,
    chain_graph,
    complete_graph,
    config_from_index,
    config_index,
    dump_coupling_graph,
    enumerate_energies,
    estimate_observables,
    ising_energy,
    load_coupling_graph,
    metropolis_chain,
    partition_exact,
    random_spins,
)
from thermolearn import ising
from thermolearn.distributions import _log_normalize_inplace, partition_value, state_bits
from thermolearn.rng import RngStream
from thermolearn.trace import CHUNK_ROWS

# frozen by independent enumeration: Z = 2 e^2 + 4 + 2 e^{-2}
Z_CHAIN3_BETA1 = 19.048782764334526


# --- graphs ---------------------------------------------------------------


def test_chain_graph_edges():
    g = chain_graph(4, coupling=1.0)
    assert g.n_sites == 4
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
    assert np.allclose(g.fields_h, 0.0)


def test_periodic_chain_closes_the_loop():
    g = chain_graph(4, periodic=True)
    assert (0, 3, 1.0) in g.edges
    assert len(g.edges) == 4


def test_complete_graph_edge_count():
    g = complete_graph(5, coupling=0.5)
    assert len(g.edges) == 10
    assert all(j == 0.5 for _, _, j in g.edges)


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValidationError):
        CouplingGraph(2, ((0, 0, 1.0),))
    with pytest.raises(ValidationError):
        CouplingGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(ValidationError):
        CouplingGraph(2, ((0, 5, 1.0),))


@pytest.mark.parametrize("edge", [(0, 1), (5,), 5, (0, 1, 1.0, 2.0), None])
def test_graph_rejects_edges_of_the_wrong_arity(edge):
    # Python's own unpacking ValueError or TypeError escaped before
    with pytest.raises(ValidationError, match=r"CouplingGraph: edge \(i, j, coupling\) must be a sequence of 3 items"):
        CouplingGraph(2, (edge,))


@pytest.mark.parametrize("coupling", [math.nan, math.inf, -math.inf])
def test_graph_rejects_non_finite_couplings(coupling):
    with pytest.raises(ValidationError, match="finite"):
        CouplingGraph(2, ((0, 1, coupling),))


def test_graph_normalizes_edge_orientation():
    g = CouplingGraph(3, ((2, 0, 1.5),))
    assert g.edges == ((0, 2, 1.5),)


def test_adjacency_is_built_once_and_read_only():
    g = CouplingGraph(3, ((0, 1, 1.0), (2, 0, -0.5)))
    adjacency = g.adjacency
    assert g.adjacency is adjacency
    # tuples all the way down: a list never compares equal to a tuple
    assert adjacency == (((1, 1.0), (2, -0.5)), ((0, 1.0),), ((0, -0.5),))


def test_graph_file_roundtrip(tmp_path):
    g = CouplingGraph(3, ((0, 1, 1.0), (1, 2, -0.5)), fields_h=np.array([0.1, 0.0, -0.2]))
    path = tmp_path / "g.txt"
    dump_coupling_graph(g, path)
    g2 = load_coupling_graph(path)
    assert g2.n_sites == 3
    assert g2.edges == g.edges
    assert np.allclose(g2.fields_h, g.fields_h)


@pytest.mark.parametrize(
    "text, line",
    [
        ("3\nh -1 0.5\n", 2),  # not a Python negative index
        ("3\n0 1 1.0\nh 7 0.5\n", 3),
        ("3\n0 1 strong\n", 2),
        ("3\n0 x 1.0\n", 2),
        ("3\n0 5 1.0\n", 2),
        ("3\n0 1 nan\n", 2),
        ("# comment\n-3\n", 2),
        ("3\n0 1\n", 2),
        ("3\n0 1 1.0\nh 0 0.5\nh 0 0.7\n", 4),  # the last field line used to win
        ("3\n0 1 1.0\n1 2 0.5\n0 1 0.5\n", 4),  # these three used to name neither file nor line
        ("3\n0 1 1.0\n\n1 0 0.5\n", 4),
        ("3\n0 0 1.0\n", 2),
    ],
    ids=["negative_site", "field_site_range", "coupling_text", "site_text", "edge_site_range",
         "coupling_nan", "negative_count", "short_line", "repeated_field", "repeated_edge",
         "reversed_edge", "self_loop"],
)
def test_graph_file_malformed_lines(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"bad.txt:{line}:"):
        load_coupling_graph(path)


# --- energies and configurations -------------------------------------------


def test_config_index_roundtrip():
    for idx in range(8):
        spins = config_from_index(idx, 3)
        assert set(np.unique(spins)) <= {-1, 1}
        assert config_index(spins) == idx


def test_config_from_index_rejects_out_of_range():
    # 8 used to read as all -1 on three sites and -1 as all +1
    for idx in (-1, 8, 99):
        with pytest.raises(ValidationError, match="out of range"):
            config_from_index(idx, 3)


def test_chain_energy_hand_values():
    g = chain_graph(3)
    assert ising_energy(np.array([1, 1, 1]), g) == pytest.approx(-2.0)
    assert ising_energy(np.array([1, -1, 1]), g) == pytest.approx(2.0)
    assert ising_energy(np.array([-1, -1, -1]), g) == pytest.approx(-2.0)


def test_field_contribution():
    g = CouplingGraph(2, ((0, 1, 1.0),), fields_h=np.array([0.5, -0.5]))
    # E = -J s0 s1 - h0 s0 - h1 s1
    assert ising_energy(np.array([1, 1]), g) == pytest.approx(-1.0 - 0.5 + 0.5)
    assert ising_energy(np.array([1, -1]), g) == pytest.approx(1.0 - 0.5 - 0.5)


def test_field_term_is_exactly_rounded():
    # a left-to-right sum of 1e16 + 1.0 - 1e16 gives 0.0; the exact sum is 1.0
    g = CouplingGraph(3, (), fields_h=np.array([1e16, 1.0, -1e16]))
    assert ising_energy(np.array([1, 1, 1]), g) == -1.0
    # all-zero fields give an energy of -0.0, as the chain's first trace row shows
    assert math.copysign(1.0, ising_energy(np.array([1, -1]), CouplingGraph(2))) == -1.0


def test_energy_beyond_the_float_range_is_numerical_error():
    # -3e308 on the all-up triangle: it returned -inf, and the field sum raised OverflowError
    message = r"^ising_energy: the energy or a partial sum of it is beyond the float range$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            ising_energy(np.ones(3), complete_graph(3, coupling=1e308))
        with pytest.raises(NumericalError, match=message):
            ising_energy(np.ones(2), chain_graph(2, coupling=0.0, h=1e308))
        assert ising_energy(np.ones(3), complete_graph(3, coupling=5e307)) == -1.5e308


def test_energy_whose_field_partial_sum_overflows_is_summed_exactly():
    # fsum raises OverflowError on 1e308 + 1e308 - 1e308, whose exact sum 1e308 fits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ising_energy(np.ones(3), CouplingGraph(3, (), fields_h=[1e308, 1e308, -1e308])) == -1e308
        # the terms -1e308, -1e308, 1e308: the partial sum passes the range below, and E = 1e308
        assert ising_energy(np.array([1, -1, -1]), CouplingGraph(3, (), fields_h=[-1e308, 1e308, -1e308])) == 1e308


def test_enumerated_energy_beyond_the_float_range_is_numerical_error():
    # three fields of 1e308 give the all-up state an energy of -3e308: the table held -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^enumerate_energies: an energy is beyond the float range$"):
            enumerate_energies(CouplingGraph(3, (), fields_h=[1e308] * 3))
        assert enumerate_energies(CouplingGraph(3, (), fields_h=[5e307] * 3)).min() == -1.5e308


def test_enumerate_matches_pointwise_energy():
    g = complete_graph(4, coupling=0.7)
    energies = enumerate_energies(g)
    assert energies.shape == (16,)
    for idx in range(16):
        assert energies[idx] == pytest.approx(ising_energy(config_from_index(idx, 4), g))


def test_spin_validation():
    g = chain_graph(3)
    with pytest.raises(ValidationError):
        ising_energy(np.array([1, 0, 1]), g)
    with pytest.raises(ValidationError):
        ising_energy(np.array([1, 1]), g)


# --- exact thermodynamics ---------------------------------------------------


def test_partition_frozen_value():
    result = partition_exact(chain_graph(3), beta=1.0)
    assert result.z == pytest.approx(Z_CHAIN3_BETA1, rel=1e-12)
    assert result.gibbs.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_partition_beta_zero_is_uniform():
    result = partition_exact(chain_graph(3), beta=0.0)
    assert result.z == pytest.approx(8.0)
    assert np.allclose(result.gibbs.probs, 1.0 / 8.0)


def test_partition_overflow_is_numerical_error():
    # ln Z = 9000 on a 10-site open chain: finite log-weights, Z beyond float range
    with pytest.raises(NumericalError):
        partition_exact(chain_graph(10), beta=1000.0)
    assert partition_exact(chain_graph(10), beta=70.0).z == pytest.approx(2 * math.exp(630.0), rel=1e-12)


def test_partition_beta_energy_overflow_is_numerical_error():
    # beta * E = -4e308 leaves the float range; it used to give NaN probabilities and warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^partition_exact: beta \\* energy overflows a float at beta = 1e\\+308$"):
            partition_exact(chain_graph(5), beta=1e308)
        # log-weights +-1.6e308: finite, but their max shift leaves the range; ln Z does not fit in Z
        with pytest.raises(NumericalError, match="^partition function exp\\(1.6e\\+308\\) overflows a float$"):
            partition_exact(chain_graph(5), beta=4e307)


def test_partition_capacity_guard():
    with pytest.raises(CapacityError):
        partition_exact(chain_graph(21), beta=1.0)


def test_gibbs_prefers_low_energy_at_high_beta():
    g = chain_graph(3)
    result = partition_exact(g, beta=5.0)
    energies = enumerate_energies(g)
    ground = np.flatnonzero(energies == energies.min())
    assert result.gibbs.probs[ground].sum() > 0.99


def test_boltzmann_entropy_values():
    assert boltzmann_entropy(1) == 0.0
    assert boltzmann_entropy(8) == pytest.approx(math.log(8))
    assert boltzmann_entropy(2, k_B=1.38e-16) == pytest.approx(1.38e-16 * math.log(2))
    with pytest.raises(ValidationError):
        boltzmann_entropy(0)


def test_boltzmann_entropy_beyond_the_float_range_is_numerical_error():
    # k_B ln(Omega) at k_B = 1e308 fits for Omega = 2 and overflows for Omega = 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert boltzmann_entropy(2, k_B=1e308) == 1e308 * math.log(2)
        with pytest.raises(NumericalError, match=r"^boltzmann_entropy: k_B ln\(Omega\) overflows a float \(k_B = 1e\+308\)$"):
            boltzmann_entropy(10, k_B=1e308)


# --- Metropolis dynamics -----------------------------------------------------


def test_acceptance_rule():
    assert acceptance_probability(-1.0, 2.0) == 1.0
    assert acceptance_probability(0.0, 2.0) == 1.0
    assert acceptance_probability(4.0, 0.5) == pytest.approx(math.exp(-2.0))
    assert acceptance_probability(4.0, 0.0) == 1.0


def test_chain_shapes_and_trace():
    g = chain_graph(4)
    res = metropolis_chain(g, beta=1.0, steps=500, burn_in=100, rng=RngStream(2))
    assert res.samples.shape == (400, 4)
    assert res.samples.dtype == np.int8
    assert len(res.trace) == 500
    for name in ("step", "energy", "accepted", "magnetization"):
        assert name in res.trace.column_names
    assert 0.0 <= res.acceptance_rate <= 1.0


def test_chain_default_burn_in_is_tenth():
    g = chain_graph(3)
    res = metropolis_chain(g, beta=0.5, steps=1000, rng=RngStream(3))
    assert res.samples.shape[0] == 900


def test_chain_beta_zero_accepts_everything():
    g = chain_graph(4)
    res = metropolis_chain(g, beta=0.0, steps=300, burn_in=0, rng=RngStream(4))
    assert res.acceptance_rate == 1.0


def test_chain_is_reproducible():
    g = complete_graph(4)
    a = metropolis_chain(g, beta=1.0, steps=400, burn_in=50, rng=RngStream(9))
    b = metropolis_chain(g, beta=1.0, steps=400, burn_in=50, rng=RngStream(9))
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.trace.column("energy"), b.trace.column("energy"))


def assert_energies_match_table(graph, res):
    """Each step's energy against the exact energy of the state after it, within
    1e-9; ``res`` comes from a chain with burn_in 0, so it samples every step."""
    exact = enumerate_energies(graph)[[config_index(row) for row in res.samples]]
    assert np.all(np.abs(res.trace.column("energy") - exact) <= 1e-9)


def test_chain_trace_energy_consistent():
    g = chain_graph(4)
    res = metropolis_chain(g, beta=1.0, steps=300, burn_in=0, rng=RngStream(5))
    assert_energies_match_table(g, res)
    energies = res.trace.column("energy")
    for row, energy in zip(res.samples[-20:], energies[-20:]):
        assert ising_energy(row, g) == pytest.approx(energy)


def test_chain_memory_does_not_follow_acceptance_rate():
    # beta 0 accepts every proposal and beta 5 almost none; the chain's
    # buffers are sized by the step count, so both allocate the same at peak
    import tracemalloc

    g = chain_graph(20, coupling=1.0, periodic=True)
    metropolis_chain(g, beta=1.0, steps=100, rng=RngStream(6))  # the first call pays one-time costs
    peak, rate = {}, {}
    for beta in (0.0, 5.0):
        tracemalloc.start()
        res = metropolis_chain(g, beta=beta, steps=40_000, burn_in=0, rng=RngStream(6))
        peak[beta] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rate[beta] = res.acceptance_rate
    assert rate[0.0] == 1.0 and rate[5.0] < 0.05
    assert abs(peak[0.0] - peak[5.0]) < 100_000, peak


def test_chain_builds_samples_only_when_read():
    # the (steps - burn_in) x n sample matrix is rebuilt from the flip record
    # on first read, so a chain whose samples nobody reads never holds it
    import tracemalloc

    g = chain_graph(64, coupling=0.8, h=0.1, periodic=True)
    steps = 40_000
    metropolis_chain(g, beta=0.5, steps=100, rng=RngStream(6)).samples  # the first call pays one-time costs
    peak = {}
    for read in (False, True):
        tracemalloc.start()
        res = metropolis_chain(g, beta=0.5, steps=steps, rng=RngStream(6))
        if read:
            samples = res.samples
        peak[read] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak[True] - peak[False] >= (steps - steps // 10) * g.n_sites, peak
    assert samples.shape == (steps - steps // 10, g.n_sites)
    assert res.samples is samples  # built once, then kept


def test_chain_table_memory_is_bounded(monkeypatch):
    # one site of degree 11 gives 15 * 2^12 = 61440 entries, just under the
    # cap; over the same chain summing each local field, the table may add
    # 64 bytes an entry (dH, threshold and old spin) at the cap
    import tracemalloc

    hub = tuple((0, j, 0.1 * j) for j in range(1, 12))
    g = CouplingGraph(15, hub + ((12, 13, 0.5), (13, 14, -0.5)), np.full(15, 0.1))
    steps, entries = 1 << 16, ising.TABLE_ENTRIES
    assert g.n_sites << 12 <= min(steps, entries) < g.n_sites << 13
    peak, energies = {}, {}
    for cap in (entries, 0):
        monkeypatch.setattr(ising, "TABLE_ENTRIES", cap)
        metropolis_chain(g, beta=0.5, steps=100, rng=RngStream(6))  # the first call pays one-time costs
        tracemalloc.start()
        res = metropolis_chain(g, beta=0.5, steps=steps, rng=RngStream(6))
        peak[cap] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        energies[cap] = res.trace.column("energy").tobytes()
    assert energies[0] == energies[entries]
    assert 0 < peak[entries] - peak[0] <= 64 * entries, peak


def test_chain_samples_do_not_follow_the_callers_initial_array():
    g = chain_graph(5, periodic=True)
    initial = np.array([1, -1, 1, 1, -1], dtype=np.int8)
    expected = metropolis_chain(g, 0.7, 400, 40, RngStream(2), initial).samples.copy()
    res = metropolis_chain(g, 0.7, 400, 40, RngStream(2), initial)
    initial[:] = 1  # reused before the samples are first read
    assert np.array_equal(res.samples, expected)


def test_chain_requires_rng():
    with pytest.raises(ValidationError):
        metropolis_chain(chain_graph(3), beta=1.0, steps=10, rng=None)


def test_chain_burn_in_must_leave_samples():
    with pytest.raises(ValidationError):
        metropolis_chain(chain_graph(3), beta=1.0, steps=10, burn_in=10, rng=RngStream(0))


@pytest.mark.parametrize("steps", [0, -3, 100.5, 100.0, True, "100", None])
def test_chain_rejects_a_step_count_that_is_not_a_positive_integer(steps):
    with pytest.raises(ValidationError, match="steps must"):
        metropolis_chain(chain_graph(3), 0.4, steps, rng=RngStream(0))


@pytest.mark.parametrize("burn_in", [-1, 10.5, 10.0, False, "10"])
def test_chain_rejects_a_burn_in_that_is_not_a_non_negative_integer(burn_in):
    with pytest.raises(ValidationError, match="burn_in must"):
        metropolis_chain(chain_graph(3), 0.4, 100, burn_in, rng=RngStream(0))


def test_chain_whose_running_energy_passes_the_float_range_is_numerical_error():
    # the start state's energy fits a float, and an ordered ring's -3e308 does not;
    # the running energies reached -inf without a word
    g = chain_graph(30, coupling=1e307, periodic=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^metropolis_chain: a running energy passes the float range \(min -inf, max "):
            metropolis_chain(g, 1.0, 5000, 0, rng=RngStream(0))


# --- observable estimation ----------------------------------------------------


def test_observables_match_exact_at_moderate_beta():
    g = chain_graph(3)
    beta = 0.7
    res = metropolis_chain(g, beta=beta, steps=60000, burn_in=10000, rng=RngStream(11))
    obs = estimate_observables(res.samples, g)
    exact = partition_exact(g, beta)
    energies = enumerate_energies(g)
    exact_e = float(exact.gibbs.probs @ energies)
    assert obs.mean_energy == pytest.approx(exact_e, abs=4 * obs.se_energy + 0.02)
    assert obs.mean_magnetization == pytest.approx(0.0, abs=4 * obs.se_magnetization + 0.02)
    assert obs.n_samples == 50000
    assert obs.se_energy > 0.0


def test_observables_input_validation():
    g = chain_graph(3)
    with pytest.raises(ValidationError):
        estimate_observables(np.zeros((0, 3)), g)
    with pytest.raises(ValidationError):
        estimate_observables(np.ones((10, 4)), g)
    for bad in (np.array([["a", "b", "c"]]), np.array([[None, 1, 1]], dtype=object)):
        with pytest.raises(ValidationError):  # numpy's ValueError or TypeError escaped before
            estimate_observables(bad, g)


@pytest.mark.parametrize("n_batches", [0, -3])
def test_observables_reject_bad_batch_count(n_batches):
    samples = np.ones((50, 3), dtype=np.int8)
    with pytest.raises(ValidationError, match="n_batches"):
        estimate_observables(samples, chain_graph(3), n_batches=n_batches)


@pytest.mark.parametrize("bad", [0, 2, 100, -128, math.nan])
def test_observables_reject_values_other_than_spins(bad):
    # 100 * 100 would wrap around in int8; the bad value sits in the second block
    samples = np.ones((10_000, 3))
    samples[9_000, 1] = bad
    with pytest.raises(ValidationError, match=r"samples must be (-1 or \+1|a 2-D sequence of shape \(n, 3\) of integers in \[-1, 1\])"):
        estimate_observables(samples, chain_graph(3))


def _batch_means_reference(series, n_batches):
    # the mean and the batch-means standard error in exact rational arithmetic
    values = [Fraction(float(x)) for x in series]
    per = len(values) // n_batches
    means = [sum(values[b * per : (b + 1) * per]) / per for b in range(n_batches)]
    centre = sum(means) / n_batches
    variance = sum((x - centre) ** 2 for x in means) / (n_batches - 1) / n_batches
    return sum(values) / len(values), Decimal(variance.numerator).sqrt() / Decimal(variance.denominator).sqrt()


def test_energy_statistics_near_the_float_range_are_finite():
    # energies of about 1e300: the squared deviations of the batch means
    # overflowed, so se_energy was inf after a numpy warning
    g = complete_graph(3, coupling=1e300)
    samples = np.ones((64, 3), dtype=np.int8)
    samples[::3, 1] = -1
    samples[::5, 0] = -1
    energies = [ising_energy(row, g) for row in samples]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obs = estimate_observables(samples, g, n_batches=8)
    mean, se = _batch_means_reference(energies, 8)
    assert obs.mean_energy == pytest.approx(float(mean), rel=1e-15)
    assert obs.se_energy == pytest.approx(float(se), rel=1e-12) and obs.se_energy > 1e299


def test_energies_beyond_the_float_range_are_numerical_errors():
    # every energy of this triangle but the all-up one fits a float; it warned and returned -inf and nan
    samples = np.array([[1, -1, 1], [1, 1, 1]], dtype=np.int8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^estimate_observables: an energy is beyond the float range$"):
            estimate_observables(samples, complete_graph(3, coupling=1e308))


# --- vectorised paths against per-step / whole-array references ---------------


def torus_graph(side, gen):
    edges = set()
    for r in range(side):
        for c in range(side):
            i = r * side + c
            for j in (r * side + (c + 1) % side, ((r + 1) % side) * side + c):
                edges.add((min(i, j), max(i, j)))
    couplings = tuple((i, j, float(gen.uniform(-1.0, 1.0))) for i, j in sorted(edges))
    return CouplingGraph(side * side, couplings, gen.uniform(-0.3, 0.3, side * side))


def reference_chain(graph, beta, steps, burn_in, rng, initial=None):
    """The per-step Metropolis loop that stores every step's trace row and sample."""
    n = graph.n_sites
    spins_arr = random_spins(n, rng) if initial is None else np.array(initial, dtype=np.int8)
    spins = [int(s) for s in spins_arr]
    adjacency = graph.adjacency
    fields = [float(h) for h in graph.fields_h]
    energy = ising_energy(spins_arr, graph)
    mag_sum = float(sum(spins))
    inv_n = 1.0 / n
    sites = rng.generator.integers(0, n, size=steps).tolist()
    uniforms = rng.generator.random(steps).tolist()
    energies = np.empty(steps)
    accepted_col = np.empty(steps, dtype=bool)
    mags = np.empty(steps)
    samples = np.empty((steps - burn_in, n), dtype=np.int8)
    for t in range(steps):
        site = sites[t]
        s = spins[site]
        local = fields[site]
        for j, coupling in adjacency[site]:
            local += coupling * spins[j]
        delta_h = 2.0 * s * local
        accepted = delta_h <= 0.0 or uniforms[t] < math.exp(-beta * delta_h)
        if accepted:
            spins[site] = -s
            energy += delta_h
            mag_sum -= 2.0 * s
        energies[t] = energy
        accepted_col[t] = accepted
        mags[t] = mag_sum * inv_n
        if t >= burn_in:
            samples[t - burn_in] = spins
    columns = {"step": np.arange(steps), "energy": energies, "accepted": accepted_col.astype(np.int8),
               "magnetization": mags}
    return samples, columns


def star_graph(leaves):
    return CouplingGraph(leaves + 1, tuple((0, j, 0.1 * j) for j in range(1, leaves + 1)), np.full(leaves + 1, 0.2))


@pytest.mark.parametrize(
    "graph, beta, steps, burn_in, initial, table",
    [
        (torus_graph(4, np.random.default_rng(1)), 0.6, 20_000, 0, None, True),
        (torus_graph(4, np.random.default_rng(2)), 0.4, 20_000, 3_000, None, True),
        (CouplingGraph(3), 1.0, 500, 50, None, True),  # initial energy -0.0
        # initial energy -(-1.0 + 1.0) = -0.0, kept by the rejected step 0
        (CouplingGraph(2, (), np.array([1.0, 1.0])), 3.0, 200, 0, [-1, 1], True),
        (chain_graph(64, coupling=0.8, h=0.1, periodic=True), 0.5, 40_000, 4_000, None, True),
        # 8 sites of degree 7: a table of 8 * 2^8 = 2048 entries
        (complete_graph(8, coupling=0.3, h=-0.2), 0.7, 2_047, 0, None, False),
        (complete_graph(8, coupling=0.3, h=-0.2), 0.7, 2_048, 0, None, True),
        (complete_graph(8, coupling=0.3, h=-0.2), 0.7, 9_000, 0, None, True),
        # 40 * 2^40 entries, far past the cap
        (star_graph(39), 0.9, 5_000, 500, None, False),
        (CouplingGraph(1, (), np.array([0.7])), 1.5, 300, 0, None, True),  # width 1
        (torus_graph(4, np.random.default_rng(3)), 0.0, 5_000, 0, None, True),  # every step accepted
        (star_graph(39), 0.0, 2_000, 0, None, False),
    ],
    ids=["torus_no_burn_in", "torus_burn_in", "no_edges_zero_fields", "negative_zero_rejections", "ring64",
         "complete8_below_table", "complete8_at_table", "complete8_above_table", "star40", "one_site",
         "torus_beta_zero", "star40_beta_zero"],
)
def test_chain_matches_per_step_reference(graph, beta, steps, burn_in, initial, table, monkeypatch):
    built, flip_table = [], ising._flip_table
    monkeypatch.setattr(ising, "_flip_table", lambda *args: built.append(args) or flip_table(*args))
    res = metropolis_chain(graph, beta, steps, burn_in, RngStream(17), initial)
    assert len(built) == table  # the table is built, once, exactly when it fits the cap and the steps
    samples, columns = reference_chain(graph, beta, steps, burn_in, RngStream(17), initial)
    # the draws do not depend on burn_in, so a chain that samples every step
    # has the same trace and lets every step's energy be checked
    every = res if burn_in == 0 else metropolis_chain(graph, beta, steps, 0, RngStream(17), initial)
    assert every.trace.column("energy").tobytes() == res.trace.column("energy").tobytes()
    if graph.n_sites <= ising.MAX_EXACT_SITES:
        assert_energies_match_table(graph, every)
    if beta == 0.0:
        assert res.acceptance_rate == 1.0
    assert res.samples.dtype == samples.dtype
    assert np.array_equal(res.samples, samples)
    for name, ref in columns.items():
        col = res.trace.column(name)
        assert col.dtype == ref.dtype, name
        assert col.tobytes() == ref.tobytes(), name  # bit for bit, so -0.0 stays -0.0


def _whole_table_energies(g):
    """The Hamiltonian over all 2^n states at once: edges in graph order, then nonzero fields in site order."""
    spin_of = state_bits(g.n_sites).astype(np.int8) * 2 - 1
    expected = np.zeros(1 << g.n_sites)
    for i, j, coupling in g.edges:
        expected -= coupling * (spin_of[i] * spin_of[j])
    for i in range(g.n_sites):
        if g.fields_h[i] != 0.0:
            expected -= g.fields_h[i] * spin_of[i]
    return expected


def _random_graph(n, seed, density=0.3):
    gen = np.random.default_rng(seed)
    edges = tuple((i, j, float(gen.normal())) for i in range(n) for j in range(i + 1, n) if gen.random() < density)
    return CouplingGraph(n, edges, gen.normal(size=n))


def test_enumeration_blocks_match_whole_table():
    top = ising.ENUM_BLOCK_BITS  # the lowest site that is constant within a block
    n = top + 3
    gen = np.random.default_rng(11)
    graphs = {f"random {k} sites": _random_graph(k, k) for k in (1, 13, 14, 15, 17, 20)}
    # the first edge reaches the highest site, so the table doubles all the way at once
    first_high = [(3, n - 1, 0.7), (0, 1, -1.3), (top, top + 1, 0.4), (2, top + 2, -0.9)]
    graphs["first edge at the highest site"] = CouplingGraph(n, tuple(first_high), gen.normal(size=n))
    # both sites at or above the block bits: the term is one scalar per block
    high_pairs = [(top, top + 2, 1.1), (top + 1, top + 2, -0.6), (0, top, 0.3), (top, top + 1, -2.5)]
    graphs["edges above the block bits"] = CouplingGraph(n, tuple(high_pairs), np.r_[gen.normal(size=n - 3), 0.0, 0.8, -0.2])
    # zero couplings of both signs on low, mixed and high pairs reach both the -= and the += branch
    zeros = [(0, 1, 1.0), (1, 2, 0.0), (0, top + 1, -0.0), (top, top + 2, 0.0), (3, top + 2, -1.0), (2, 5, -0.0)]
    graphs["zero couplings"] = CouplingGraph(n, tuple(zeros), np.r_[np.zeros(n - 1), -0.0])
    # site 4 and the top site touch no term: the top half is one last copy
    isolated = [(0, 1, 0.5), (2, 3, -0.25), (5, top + 1, 1.5)]
    graphs["isolated sites with zero field"] = CouplingGraph(n, tuple(isolated), np.r_[gen.normal(size=4), 0.0, gen.normal(size=n - 6), 0.0])
    graphs["fields only"] = CouplingGraph(n, (), gen.normal(size=n))
    graphs["empty"] = CouplingGraph(n)
    graphs["empty, one site"] = CouplingGraph(1)
    for name, g in graphs.items():
        assert enumerate_energies(g).tobytes() == _whole_table_energies(g).tobytes(), name


def test_enumeration_temporaries_do_not_grow_with_the_sites():
    # the table is its own mapping, out of tracemalloc's sight; what remains
    # is a block and a base of 2^ENUM_BLOCK_BITS floats, the terms' rows (at
    # most two blocks together) and a few views
    import tracemalloc

    g = _random_graph(ising.MAX_EXACT_SITES, 7)
    enumerate_energies(g)  # the first call pays one-time costs
    tracemalloc.start()
    try:
        energies = enumerate_energies(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert energies.size == 1 << ising.MAX_EXACT_SITES
    assert peak <= 1_000_000, peak


def _table_partition(energies, beta):
    """partition_exact over a whole table of energies at once: the Gibbs
    probabilities and ln Z from log_normalize, and the same errors."""
    try:
        with np.errstate(over="raise"):
            log_w = energies * -beta
    except FloatingPointError:
        raise NumericalError(f"partition_exact: beta * energy overflows a float at beta = {beta!r}") from None
    return _log_normalize_inplace("partition_exact", log_w)


def _rect_torus(rows, cols, gen):
    edges = {tuple(sorted((r * cols + c, r2 * cols + c2)))
             for r in range(rows) for c in range(cols) for r2, c2 in ((r, (c + 1) % cols), ((r + 1) % rows, c))}
    return CouplingGraph(rows * cols, tuple((i, j, float(gen.uniform(-1.0, 1.0))) for i, j in sorted(edges)),
                         gen.uniform(-0.3, 0.3, rows * cols))


def _partition_graphs():
    """104 graphs of 1 to 20 sites: rings, 4x4 and 4x5 tori, and random graphs
    with couplings of both signs, each kind with and without fields."""
    graphs = []
    gen = np.random.default_rng(5)
    for n in range(1, 21):
        graphs.append(chain_graph(n, 0.8, -0.15 if n % 2 else 0.0, periodic=True))
        for density in (0.15, 0.3):
            g = _random_graph(n, 100 * n + int(100 * density), density)
            graphs += [g, CouplingGraph(n, g.edges)]
    for rows, cols in ((4, 4), (4, 5)):
        g = _rect_torus(rows, cols, gen)
        graphs += [g, CouplingGraph(g.n_sites, g.edges)]
    return graphs


# the last two are the beta values whose messages tests/test_cli.py pins
PARTITION_BETAS = (0.0, 0.1, 0.45, 3.0, 1e308, 4e307)


def _outcome(call):
    try:
        return call(), None
    except NumericalError as err:
        return None, str(err)


def test_block_log_z_matches_the_whole_table():
    # one block (up to ENUM_BLOCK_BITS sites) repeats log_normalize's arithmetic;
    # past it, the blocks' exactly rounded combine may move the last bits
    differ, worst, past, runs = 0, 0.0, 0, 0
    for g in _partition_graphs():
        energies = enumerate_energies(g)
        for beta in PARTITION_BETAS:
            ref, ref_err = _outcome(lambda: _table_partition(energies, beta)[1])
            got, err = _outcome(lambda: ising._log_partition(g, beta))
            assert err == ref_err, (g.n_sites, beta)
            if ref is None:
                continue
            runs += 1
            # Z, or the message that it is beyond the float range
            assert _outcome(lambda: partition_value(got))[1] == _outcome(lambda: partition_value(ref))[1]
            if g.n_sites <= ising.ENUM_BLOCK_BITS:
                assert math.copysign(1.0, got) == math.copysign(1.0, ref) and got == ref, (g.n_sites, beta)
            else:
                past += 1
                if got != ref:
                    differ += 1
                    worst = max(worst, abs(got - ref) / math.ulp(ref))
    assert runs > 400
    # on x86-64 with numpy 2.4, 1 of the 136 runs past one block differs, by 1 ulp
    assert worst <= 2 and differ <= past // 10, (differ, past, worst)


def test_block_log_z_keeps_the_overflow_messages():
    ring = chain_graph(20, 0.1, 0.0, periodic=True)  # 64 blocks, energies within +-2
    with pytest.raises(NumericalError, match=r"^partition_exact: beta \* energy overflows a float at beta = 1e\+308$"):
        partition_exact(ring, 1e308)
    with pytest.raises(NumericalError, match=r"^partition function exp\(8(\.0+2)?e\+307\) overflows a float$"):
        partition_exact(ring, 4e307)


@pytest.mark.parametrize("n, beta", [(3, 1.0), (14, 0.45), (15, 3.0), (20, 0.1)])
def test_gibbs_is_built_from_the_table_on_first_read(n, beta):
    g = _random_graph(n, n)
    result = partition_exact(g, beta)
    assert "gibbs" not in vars(result)  # z alone holds no 2^n table
    probs, _ = _table_partition(enumerate_energies(g), beta)
    assert result.gibbs.probs.tobytes() == probs.tobytes()
    assert result.gibbs is result.gibbs  # built once, then kept
    z, gibbs = result
    assert z == result.z and gibbs is result.gibbs


_RSS_SCRIPT = r"""
import os, sys, tempfile
from thermolearn import cli

def peak_kb():
    # this process's own peak RSS; ru_maxrss would start from the forking test process's
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])

def ising(root, n_sites, steps):
    cfg = os.path.join(root, f"ring{n_sites}.cfg")
    with open(cfg, "w") as fh:
        fh.write(f"n_sites = {n_sites}\nperiodic = true\ncoupling = 0.7\nfield = 0.13\nbeta = 0.45\n"
                 f"steps = {steps}\nburn_in = {steps // 10}\n")
    assert cli.main(["ising", "--config", cfg, "--out", os.path.join(root, f"out{n_sites}")]) == 0

with tempfile.TemporaryDirectory() as root:
    ising(root, 3, 2000)  # the warm-up pays the imports and first-call costs
    before = peak_kb()
    ising(root, int(sys.argv[1]), 20_000)
    print(peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_exact_ising_run_holds_no_table_of_all_states():
    # the peak-RSS growth of a 20-site run over a 12-site one; a 2^20 table of
    # energies is 8 MB, and the Gibbs distribution the run never reads would be another
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    growth = {}
    for n_sites in (12, 20):
        proc = subprocess.run([sys.executable, "-c", _RSS_SCRIPT, str(n_sites)], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        growth[n_sites] = int(proc.stdout)
    assert growth[20] - growth[12] < 4096, growth


@pytest.mark.parametrize("n, dtype", [(1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_chain_sites_take_the_smallest_unsigned_dtype(n, dtype):
    res = metropolis_chain(chain_graph(n, h=0.1), 0.5, 300, rng=RngStream(3))
    assert res.sites.dtype == dtype
    assert res.sites.min() >= 0 and res.sites.max() == n - 1


@pytest.mark.parametrize("extra", [-1, 0, 1, "3 chunks + 5"])
@pytest.mark.parametrize("n", [2, 3, 257, 1000])
def test_chain_sites_in_chunks_are_one_draw(n, extra):
    steps = 3 * CHUNK_ROWS + 5 if extra == "3 chunks + 5" else CHUNK_ROWS + extra
    res_rng, ref_rng = RngStream(n), RngStream(n)
    res = metropolis_chain(chain_graph(n, 0.6, h=0.1), 0.4, steps, rng=res_rng)
    # the draws in the order of one call each: initial spins, all sites, all uniforms
    random_spins(n, ref_rng)
    sites = ref_rng.generator.integers(0, n, size=steps)
    ref_rng.generator.random(steps)
    assert np.array_equal(res.sites, sites)
    assert res_rng.generator.bit_generator.state == ref_rng.generator.bit_generator.state


@pytest.mark.parametrize("rows", [1, 8191, 8192, 20_001])
def test_observables_match_whole_array_formula(rows):
    gen = np.random.default_rng(rows)
    g = torus_graph(4, gen)
    samples = (gen.integers(0, 2, (rows, g.n_sites)) * 2 - 1).astype(np.int8)
    s = samples.astype(np.float64)
    energies = np.zeros(rows)
    for i, j, coupling in g.edges:
        energies -= coupling * s[:, i] * s[:, j]
    for i, hi in enumerate(g.fields_h):  # site by site, in a fixed order
        if hi != 0.0:
            energies -= hi * s[:, i]
    mags = s.mean(axis=1)
    n_batches = max(1, min(100, int(math.sqrt(rows))))
    per = rows // n_batches

    def batch_se(series):
        if n_batches < 2:
            return 0.0
        means = series[: n_batches * per].reshape(n_batches, per).mean(axis=1)
        return float(means.std(ddof=1) / math.sqrt(n_batches))

    obs = estimate_observables(samples, g)
    assert obs.mean_energy == float(energies.mean())
    assert obs.mean_magnetization == float(mags.mean())
    assert obs.se_energy == batch_se(energies)
    assert obs.se_magnetization == batch_se(mags)


def test_observables_do_not_depend_on_the_block_size(monkeypatch):
    gen = np.random.default_rng(3)
    g = torus_graph(4, gen)
    samples = (gen.integers(0, 2, (20_001, g.n_sites)) * 2 - 1).astype(np.int8)
    expected = estimate_observables(samples, g)
    for rows in (1, 7, 4099):
        monkeypatch.setattr(ising, "CHUNK_ROWS", rows)
        assert estimate_observables(samples, g) == expected, rows
