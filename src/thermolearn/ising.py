"""Ising model: energies, exact small-system thermodynamics, Metropolis sampling.

Spins live in {-1, +1}. The Hamiltonian is

    E(s) = - sum_{(i,j) in edges} J_ij s_i s_j  -  sum_i h_i s_i

with every undirected pair counted once. Exact enumeration is guarded at
``MAX_EXACT_SITES`` sites; the sampler has no size limit.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .config import _array, _content_lines, _count, _index, _items, _real
from .distributions import DiscreteDistribution, _log_normalize_inplace, _pack_bits, _unpack_bits
from .distributions import partition_value, state_bits
from .errors import CapacityError, ValidationError
from .rng import RngStream
from .trace import Trace

MAX_EXACT_SITES = 20
# Exact enumeration fills 2^ENUM_BLOCK_BITS states at a time.
ENUM_BLOCK_BITS = 16
# Chain steps drawn, and sample rows rebuilt or scored, per block.
BLOCK_ROWS = 8192

__all__ = [
    "CouplingGraph",
    "chain_graph",
    "complete_graph",
    "load_coupling_graph",
    "dump_coupling_graph",
    "check_spins",
    "random_spins",
    "config_index",
    "config_from_index",
    "ising_energy",
    "enumerate_energies",
    "partition_exact",
    "PartitionResult",
    "boltzmann_entropy",
    "acceptance_probability",
    "metropolis_step",
    "StepResult",
    "metropolis_chain",
    "ChainResult",
    "estimate_observables",
    "Observables",
]


@dataclass(frozen=True)
class CouplingGraph:
    """Interaction structure: pair couplings J_ij and site fields h_i."""

    n_sites: int
    edges: Tuple[Tuple[int, int, float], ...] = ()
    fields_h: np.ndarray = None

    def __post_init__(self):
        n = _count("CouplingGraph: n_sites", self.n_sites, 1)
        seen = set()
        normalized = []
        for edge in self.edges:
            i, j, coupling = _items("CouplingGraph: edge (i, j, coupling)", edge, 3)
            i, j = (_index(f"CouplingGraph: a site of edge ({i}, {j})", k, n) for k in (i, j))
            if i == j:
                raise ValidationError(f"CouplingGraph: self-loop at site {i}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise ValidationError(f"CouplingGraph: duplicate edge ({i},{j})")
            seen.add((i, j))
            normalized.append((i, j, _real(f"CouplingGraph: coupling of edge ({i},{j})", coupling)))
        object.__setattr__(self, "edges", tuple(normalized))
        h = np.zeros(n) if self.fields_h is None else _array("CouplingGraph: fields_h", self.fields_h, (n,))
        object.__setattr__(self, "fields_h", h)

    def adjacency(self) -> List[List[Tuple[int, float]]]:
        """Neighbor list per site as (site, coupling) pairs."""
        adj = [[] for _ in range(self.n_sites)]
        for i, j, coupling in self.edges:
            adj[i].append((j, coupling))
            adj[j].append((i, coupling))
        return adj


def chain_graph(n_sites: int, coupling: float = 1.0, h: float = 0.0, periodic: bool = False) -> CouplingGraph:
    """1-D chain of n sites with uniform coupling and field."""
    n_sites = _count("chain_graph: n_sites", n_sites, 1)
    edges = [(i, i + 1, coupling) for i in range(n_sites - 1)]
    if periodic and n_sites > 2:
        edges.append((0, n_sites - 1, coupling))
    return CouplingGraph(n_sites, tuple(edges), np.full(n_sites, float(h)))


def complete_graph(n_sites: int, coupling: float = 1.0, h: float = 0.0) -> CouplingGraph:
    """All-to-all couplings of equal strength."""
    edges = [(i, j, coupling) for i in range(n_sites) for j in range(i + 1, n_sites)]
    return CouplingGraph(n_sites, tuple(edges), np.full(n_sites, float(h)))


def load_coupling_graph(path) -> CouplingGraph:
    """Read the edge-list text format.

    First non-comment line: number of sites. Then one line per coupling
    "i j J" and one line per field "h i value". Blank lines and lines
    starting with '#' are ignored. Every malformed line raises
    ValidationError naming the file and line number.
    """
    lines = list(_content_lines(path))
    if not lines:
        raise ValidationError(f"{path}: empty graph file")
    first_no, first = lines[0]
    try:
        n_sites = int(first) if first.isdecimal() else 0
        h = np.zeros(n_sites)
    except (ValueError, MemoryError):  # more digits than int() takes, or more sites than numpy or the machine holds
        raise ValidationError(f"{path}:{first_no}: site count {first} is too large to hold") from None
    if n_sites < 1:
        raise ValidationError(f"{path}:{first_no}: first line must be a positive site count, got {first!r}")
    form = f"'i j J' or 'h i value' with sites in 0..{n_sites - 1} and a finite value"
    edges = []
    for line_no, ln in lines[1:]:
        parts = ln.split()
        is_field = parts[0] == "h"
        try:
            sites = [int(p) for p in parts[is_field:2]]
            value = float(parts[2]) if len(parts) == 3 else math.nan
        except ValueError:
            sites, value = [], math.nan
        if not (math.isfinite(value) and all(0 <= i < n_sites for i in sites)):
            raise ValidationError(f"{path}:{line_no}: expected {form}, got {ln!r}")
        if is_field:
            h[sites[0]] = value
        else:
            edges.append((*sites, value))
    return CouplingGraph(n_sites, tuple(edges), h)


def dump_coupling_graph(graph: CouplingGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{graph.n_sites}\n")
        for i, j, coupling in graph.edges:
            fh.write(f"{i} {j} {float(coupling)!r}\n")
        for i, hi in enumerate(graph.fields_h):
            if hi != 0.0:
                fh.write(f"h {i} {float(hi)!r}\n")


def _spins(name: str, value, shape) -> np.ndarray:
    """``value`` as an int8 array of ``shape`` (per :func:`config._array`) whose entries are -1 or +1."""
    spins = _array(name, value, shape, -1, 1, dtype=np.int8)
    if not spins.all():
        at = np.unravel_index(np.argmin(spins != 0), spins.shape)
        raise ValidationError(f"{name} must be -1 or +1, got 0 at [{', '.join(map(str, at))}]")
    return spins


def check_spins(spins, n_sites: int) -> np.ndarray:
    """Validate a spin configuration: entries in {-1,+1}, matching length."""
    return _spins("check_spins: spins", spins, (n_sites,))


def random_spins(n_sites: int, rng: RngStream) -> np.ndarray:
    return (rng.generator.integers(0, 2, n_sites) * 2 - 1).astype(np.int8)


def config_index(spins) -> int:
    """Pack a configuration into an integer: bit i set iff spin i is +1."""
    return _pack_bits(np.asarray(spins) > 0)


def config_from_index(index: int, n_sites: int) -> np.ndarray:
    n_sites = _count("config_from_index: n_sites", n_sites, 0)
    index = _index("config_from_index: index", index, 1 << n_sites)
    return _unpack_bits(index, n_sites).astype(np.int8) * 2 - 1


def ising_energy(spins, graph: CouplingGraph) -> float:
    """Total energy of a configuration under the graph's Hamiltonian."""
    s = check_spins(spins, graph.n_sites)
    energy = -math.fsum(graph.fields_h * s)
    for i, j, coupling in graph.edges:
        energy -= coupling * float(s[i] * s[j])
    return energy


def _subtract_energies(energies: np.ndarray, spin_of: np.ndarray, graph: CouplingGraph) -> None:
    """Subtract each state's energy from ``energies``; ``spin_of[i]`` holds
    site i's spin in every state. The edge terms go in graph order, then the
    nonzero field terms in site order, so no state's energy depends on how
    the states are grouped or on a BLAS kernel."""
    for i, j, coupling in graph.edges:
        energies -= coupling * (spin_of[i] * spin_of[j])
    for i, hi in enumerate(graph.fields_h):
        if hi != 0.0:
            energies -= hi * spin_of[i]


def enumerate_energies(graph: CouplingGraph) -> np.ndarray:
    """Energies of all 2^N configurations, indexed by ``config_index``."""
    n = graph.n_sites
    if n > MAX_EXACT_SITES:
        raise CapacityError(f"exact enumeration limited to {MAX_EXACT_SITES} sites, got {n}")
    low = min(n, ENUM_BLOCK_BITS)
    # spin of site i in each state of a block: the low sites take every
    # pattern, the high sites are constant within an aligned block
    spin_of = np.empty((n, 1 << low), dtype=np.int8)
    spin_of[:low] = state_bits(low)
    spin_of *= 2
    spin_of -= 1
    # The table gets its own zero-filled mapping, whose pages leave the
    # process when the table is dropped. From malloc, a freed 2^20-entry table
    # stays in the heap, and what runs next piles onto its pages, so peak
    # memory would depend on the calls that came before.
    energies = np.frombuffer(mmap.mmap(-1, (1 << n) * 8), dtype=float)
    for start in range(0, 1 << n, 1 << low):
        spin_of[low:] = ((start >> np.arange(low, n)) & 1)[:, None] * 2 - 1
        _subtract_energies(energies[start : start + (1 << low)], spin_of, graph)
    return energies


class PartitionResult(NamedTuple):
    z: float
    gibbs: DiscreteDistribution


def partition_exact(graph: CouplingGraph, beta: float) -> PartitionResult:
    """Exact partition function and Gibbs distribution over all 2^N configs.

    Z = sum_s exp(-beta E(s)); probabilities stay finite at low
    temperature, and a Z beyond the float range raises NumericalError.
    """
    beta = _real("partition_exact: beta", beta, 0)
    log_w = enumerate_energies(graph)
    log_w *= -beta
    probs, log_z = _log_normalize_inplace(log_w)
    return PartitionResult(partition_value(log_z), DiscreteDistribution(probs))


def boltzmann_entropy(multiplicity: int, k_B: float = 1.0) -> float:
    """S = k_B ln(Omega) for a macro-state with the given multiplicity."""
    multiplicity = _count("boltzmann_entropy: multiplicity", multiplicity, 1)
    return _real("boltzmann_entropy: k_B", k_B, 0, ends="(]") * math.log(multiplicity)


def acceptance_probability(delta_h: float, beta: float) -> float:
    """Metropolis acceptance: 1 if the move is downhill, else exp(-beta dH)."""
    if delta_h <= 0:
        return 1.0
    return math.exp(-beta * delta_h)


def _local_field(spins, adjacency, fields, site: int) -> float:
    local = fields[site]
    for j, coupling in adjacency[site]:
        local += coupling * spins[j]
    return local


class StepResult(NamedTuple):
    spins: np.ndarray
    accepted: bool
    delta_h: float


def metropolis_step(spins, graph: CouplingGraph, beta: float, rng: RngStream) -> StepResult:
    """One Metropolis update with a uniform single-spin-flip proposal.

    Flipping site i costs dH = 2 s_i (sum_j J_ij s_j + h_i). Downhill or
    flat moves are always taken; uphill moves are taken iff a uniform
    r in [0, 1) satisfies r < exp(-beta dH). At beta = 0 that check
    accepts with probability exactly 1. On rejection the input array is
    returned unchanged; on acceptance a flipped copy is returned.
    """
    beta = _real("metropolis_step: beta", beta, 0)
    s = check_spins(spins, graph.n_sites)
    site = int(rng.generator.integers(graph.n_sites))
    adjacency = graph.adjacency()
    delta_h = 2.0 * float(s[site]) * _local_field(s, adjacency, graph.fields_h, site)
    # a uniform is drawn for uphill moves only
    if delta_h <= 0 or rng.generator.random() < acceptance_probability(delta_h, beta):
        out = s.copy()
        out[site] = -out[site]
        return StepResult(out, True, delta_h)
    return StepResult(s, False, delta_h)


@dataclass
class ChainResult:
    """The per-step trace of a chain plus its flip record: the initial state,
    each step's proposed site and the burn-in. ``samples``, the states after
    each post-burn-in step (one config per row), is rebuilt from the record
    and the trace's ``accepted`` column on first read, then kept."""

    trace: Trace
    initial: np.ndarray = field(repr=False)
    sites: np.ndarray = field(repr=False)
    burn_in: int

    @cached_property
    def samples(self) -> np.ndarray:
        sites, accepted, start = self.sites, self.trace.column("accepted"), self.burn_in
        state = self.initial.copy()
        flips_before = np.bincount(sites[:start], weights=accepted[:start], minlength=state.size)
        state[flips_before % 2 == 1] *= -1
        samples = np.zeros((len(sites) - start, state.size), dtype=np.int8)
        # an int8 spin s in {-1, +1} has s ^ -2 == -s, so XOR-accumulating the
        # flip marks down a block and applying the row above it gives each row
        for a in range(start, len(sites), BLOCK_ROWS):
            block = samples[a - start : a - start + BLOCK_ROWS]
            rows = np.flatnonzero(accepted[a : a + len(block)])
            block[rows, sites[a + rows]] = -2
            np.bitwise_xor.accumulate(block, axis=0, out=block)
            block ^= state
            state = block[-1]
        return samples

    @property
    def acceptance_rate(self) -> float:
        return float(self.trace.column("accepted").mean())


def metropolis_chain(
    graph: CouplingGraph,
    beta: float,
    steps: int,
    burn_in: Optional[int] = None,
    rng: RngStream = None,
    initial=None,
) -> ChainResult:
    """Run a single-flip Metropolis chain and record every step.

    ``burn_in`` defaults to steps // 10; samples are the states after
    every post-burn-in step. For speed the site indices and acceptance
    uniforms are drawn in blocks (one of each per step, all sites before
    any uniform, after the initial state when it is random), the same
    stream as one call each; the accept rule per step is identical to
    :func:`metropolis_step`. The trace's running energy and magnetization
    are sums of the flips' dH and spin changes; the samples are rebuilt
    from the proposed sites when first read.
    """
    if rng is None:
        raise ValidationError("metropolis_chain: rng is required for reproducibility")
    steps = _count("metropolis_chain: steps", steps, 1)
    burn_in = steps // 10 if burn_in is None else _count("metropolis_chain: burn_in", burn_in, 0)
    if not steps > burn_in:
        raise ValidationError(f"metropolis_chain: need steps > burn_in, got {steps}, {burn_in}")
    beta = _real("metropolis_chain: beta", beta, 0)
    n = graph.n_sites
    if initial is None:
        spins_arr = random_spins(n, rng)
    else:
        spins_arr = check_spins(initial, n)
    spins = [int(s) for s in spins_arr]

    adjacency = graph.adjacency()
    fields = [float(h) for h in graph.fields_h]
    sites_arr = rng.generator.integers(0, n, size=steps)

    # Every buffer is sized by the step count, so a chain's memory does not
    # depend on its acceptance rate. A flip at step t puts its dH in
    # energy_path[t + 1] and its pre-flip spin in flip_old[t]. A rejected
    # step leaves dH at -0.0: adding -0.0 changes no float, not even -0.0.
    energy_path = np.full(steps + 1, -0.0)
    energy_path[0] = ising_energy(spins_arr, graph)
    flip_old = np.zeros(steps, dtype=np.int8)
    dh_at, old_at = memoryview(energy_path)[1:], memoryview(flip_old)

    exp = math.exp
    # The draws become Python lists (about 40 bytes a step) one block at a
    # time, so the loop's speed costs no memory that grows with the steps.
    for a in range(0, steps, BLOCK_ROWS):
        sites = sites_arr[a : a + BLOCK_ROWS].tolist()
        uniforms = rng.generator.random(len(sites)).tolist()
        dh_here, old_here = dh_at[a : a + BLOCK_ROWS], old_at[a : a + BLOCK_ROWS]
        for t in range(len(sites)):
            site = sites[t]
            s = spins[site]
            local = fields[site]
            for j, coupling in adjacency[site]:
                local += coupling * spins[j]
            delta_h = 2.0 * s * local
            if delta_h <= 0.0 or uniforms[t] < exp(-beta * delta_h):
                spins[site] = -s
                dh_here[t] = delta_h
                old_here[t] = s
    del sites, uniforms

    np.cumsum(energy_path, out=energy_path)
    # magnetization sums are whole numbers, exact in float64
    mag_path = np.empty(steps + 1)
    mag_path[0] = spins_arr.sum(dtype=np.int64)
    np.multiply(flip_old, -2.0, out=mag_path[1:])
    np.cumsum(mag_path, out=mag_path)
    mag_path *= 1.0 / n
    accepted = np.abs(flip_old, out=flip_old)

    trace = Trace(
        {
            "step": np.arange(steps),
            "energy": energy_path[1:],
            "accepted": accepted,
            "magnetization": mag_path[1:],
        }
    )
    # a copy: the caller may reuse its initial array before samples is read
    return ChainResult(trace, spins_arr.copy(), sites_arr, burn_in)


@dataclass(frozen=True)
class Observables:
    mean_energy: float
    mean_magnetization: float
    se_energy: float
    se_magnetization: float
    n_samples: int


def estimate_observables(samples, graph: CouplingGraph, n_batches: Optional[int] = None) -> Observables:
    """Mean energy and magnetization with batch-means standard errors.

    ``samples`` is an (m, n_sites) array of configurations with entries
    -1 or +1. With fewer than two batches the standard errors degenerate
    to zero.
    """
    arr = _spins("estimate_observables: samples", samples, (None, graph.n_sites))
    m = arr.shape[0]
    energies = np.zeros(m)
    mags = np.empty(m)
    for start in range(0, m, BLOCK_ROWS):
        s = arr[start : start + BLOCK_ROWS]
        _subtract_energies(energies[start : start + BLOCK_ROWS], s.T, graph)
        mags[start : start + BLOCK_ROWS] = s.mean(axis=1)
    return _observables(energies, mags, n_batches)


def _observables(energies: np.ndarray, mags: np.ndarray, n_batches: Optional[int] = None) -> Observables:
    """Means of per-sample energies and magnetizations, with standard errors
    from ``n_batches`` batch means (default: sqrt of the sample count, 1 to 100)."""
    m = len(energies)
    if n_batches is None:
        n_batches = max(1, min(100, int(math.sqrt(m))))
    n_batches = _count("estimate_observables: n_batches", n_batches, 1)
    per = m // n_batches

    def batch_se(series):
        if n_batches < 2 or per == 0:
            return 0.0
        means = series[: n_batches * per].reshape(n_batches, per).mean(axis=1)
        return float(means.std(ddof=1) / math.sqrt(n_batches))

    return Observables(
        mean_energy=float(energies.mean()),
        mean_magnetization=float(mags.mean()),
        se_energy=batch_se(energies),
        se_magnetization=batch_se(mags),
        n_samples=m,
    )
