"""Ising model: energies, exact small-system thermodynamics, Metropolis sampling.

Spins live in {-1, +1}. The Hamiltonian is

    E(s) = - sum_{(i,j) in edges} J_ij s_i s_j  -  sum_i h_i s_i

with every undirected pair counted once. Exact enumeration is guarded at
``MAX_EXACT_SITES`` sites; the sampler has no size limit.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .config import _array, _content_lines, _count, _edges, _index, _real
from .distributions import DiscreteDistribution, _exp_shifted, _log_normalize_inplace, _pack_bits, _unpack_bits
from .distributions import partition_value, state_bits
from .errors import CapacityError, NumericalError, ValidationError
from .rng import RngStream
from .trace import CHUNK_ROWS, Trace

MAX_EXACT_SITES = 20
# Exact enumeration works out each Hamiltonian term once over the sites
# below ENUM_BLOCK_BITS, as a row of 2^ENUM_BLOCK_BITS +-w entries, and adds
# or subtracts that row from every block of as many states.
ENUM_BLOCK_BITS = 14
# A chain looks its steps up in a table of at most this many entries (and
# no more than it has steps); on a denser graph it sums each local field.
TABLE_ENTRIES = 1 << 16

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
        edges = _edges("CouplingGraph", self.edges, n, "(i, j, coupling)")
        edges = tuple((i, j, _real(f"CouplingGraph: coupling of edge ({i},{j})", c)) for i, j, c in edges)
        object.__setattr__(self, "edges", edges)
        h = np.zeros(n) if self.fields_h is None else _array("CouplingGraph: fields_h", self.fields_h, (n,))
        object.__setattr__(self, "fields_h", h)

    @cached_property
    def adjacency(self) -> Tuple[Tuple[Tuple[int, float], ...], ...]:
        """Neighbor list per site as (site, coupling) pairs, built once per graph."""
        adj = [[] for _ in range(self.n_sites)]
        for i, j, coupling in self.edges:
            adj[i].append((j, coupling))
            adj[j].append((i, coupling))
        return tuple(map(tuple, adj))


def chain_graph(n_sites: int, coupling: float = 1.0, h: float = 0.0, periodic: bool = False) -> CouplingGraph:
    """1-D chain of n sites with uniform coupling and field."""
    n_sites = _count("chain_graph: n_sites", n_sites, 1)
    edges = [(i, i + 1, coupling) for i in range(n_sites - 1)]
    if periodic and n_sites > 2:
        edges.append((0, n_sites - 1, coupling))
    return CouplingGraph(n_sites, tuple(edges), np.full(n_sites, _real("chain_graph: h", h)))


def complete_graph(n_sites: int, coupling: float = 1.0, h: float = 0.0) -> CouplingGraph:
    """All-to-all couplings of equal strength."""
    n_sites = _count("complete_graph: n_sites", n_sites, 1)
    edges = [(i, j, coupling) for i in range(n_sites) for j in range(i + 1, n_sites)]
    return CouplingGraph(n_sites, tuple(edges), np.full(n_sites, _real("complete_graph: h", h)))


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
    edges, field_sites, edge_lines = [], set(), {}
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
            if sites[0] in field_sites:
                raise ValidationError(f"{path}:{line_no}: a second field line for site {sites[0]}")
            field_sites.add(sites[0])
            h[sites[0]] = value
        else:
            pair = (min(sites), max(sites))
            if pair[0] == pair[1]:
                raise ValidationError(f"{path}:{line_no}: self-loop at site {pair[0]}")
            if pair in edge_lines:
                raise ValidationError(f"{path}:{line_no}: duplicate edge {pair}, first on line {edge_lines[pair]}")
            edge_lines[pair] = line_no
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
    n_sites = _count("random_spins: n_sites", n_sites, 0)
    return (rng.generator.integers(0, 2, n_sites) * 2 - 1).astype(np.int8)


def config_index(spins) -> int:
    """Pack a configuration into an integer: bit i set iff spin i is +1."""
    return _pack_bits(np.asarray(spins) > 0)


def config_from_index(index: int, n_sites: int) -> np.ndarray:
    n_sites = _count("config_from_index: n_sites", n_sites, 0)
    index = _index("config_from_index: index", index, 1 << n_sites)
    return _unpack_bits(index, n_sites).astype(np.int8) * 2 - 1


def ising_energy(spins, graph: CouplingGraph) -> float:
    """Total energy of a configuration under the graph's Hamiltonian; an
    energy beyond the float range raises NumericalError."""
    s = check_spins(spins, graph.n_sites)
    terms = graph.fields_h * s
    try:
        energy = -math.fsum(terms)
    except OverflowError:  # a partial sum of the field terms passed the float range
        from fractions import Fraction

        try:  # the exact sum, rounded once, as fsum rounds it
            energy = -float(sum(map(Fraction, terms.tolist())))
        except OverflowError:  # the sum itself is beyond the float range
            energy = math.nan
    for i, j, coupling in graph.edges:
        energy -= coupling * float(s[i] * s[j])
    if not math.isfinite(energy):
        raise NumericalError("ising_energy: the energy or a partial sum of it is beyond the float range")
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


def _bit_parts(a: np.ndarray, bits):
    """Views of ``a``, one per pattern of the ascending index bits ``bits``
    of its first axis, each with its pattern's spin product (-1 for each
    clear bit, +1 for each set one)."""
    shape, rest = [], a.shape[0]
    for bit in reversed(bits):
        shape += [rest >> (bit + 1), 2]
        rest = 1 << bit
    parts = a.reshape(*shape, rest, *a.shape[1:])
    for pattern in itertools.product((0, 1), repeat=len(bits)):
        yield parts[sum(((slice(None), b) for b in pattern), ())], (-1) ** (len(bits) - sum(pattern))


def _term_plan(terms, block: np.ndarray, width: int):
    """Each term as (row, parts, high) for :func:`_subtract_terms` on ``block``,
    a block of 2^width states. A term's sites below r give its row of 2^r
    +-w entries, which is broadcast along the block's rows of 2^r states; its
    sites from r up to width pick ``parts``, views of those rows with their
    spin product; ``high`` has bit k set for its site width + k. r is the
    widest at which the rows of all the terms take at most two blocks."""
    r = width
    while r and sum(sites[0] < r for sites, _ in terms) << r > 2 << width:
        r -= 1
    rows = block.reshape(-1, 1 << r)
    plan = []
    for sites, w in terms:
        row = w
        if sites[0] < r:
            row = np.empty(1 << r)
            for part, sign in _bit_parts(row, [i for i in sites if i < r]):
                part.fill(w * sign)
        parts = list(_bit_parts(rows, [i - r for i in sites if r <= i < width]))
        plan.append((row, parts, sum(1 << (i - width) for i in sites if i >= width)))
    return plan


def _subtract_terms(plan, block_index: int) -> None:
    """Subtract each planned term from the block whose sites above it are
    the bits of ``block_index``. Since x - (-y) is x + y bit for bit, the
    spins of a term's parts and high sites only decide whether a part has
    the term's row subtracted or added. An overflow is left to the caller's check."""
    with np.errstate(over="ignore", invalid="ignore"):
        for row, parts, high in plan:
            flip = (high & ~block_index).bit_count() & 1  # an odd number of the high sites are at -1
            for part, sign in parts:
                if (sign < 0) != flip:
                    part += row
                else:
                    part -= row


def _energy_blocks(graph: CouplingGraph):
    """Energies of states [k 2^b, (k + 1) 2^b) for k = 0, 1, ... in turn,
    with b = min(N, ENUM_BLOCK_BITS), each in the same buffer.

    Each state's energy is 0.0 minus the terms ``J_ij s_i s_j`` in graph
    order, then minus ``h_i s_i`` for the nonzero fields in site order, so
    every state gets the bits :func:`_subtract_energies` gives it. The terms
    before the first one that reaches site b depend on the sites within a
    block only, so they make one base that every block starts from. The
    capacity check and the plans are done at the call, before any block.
    """
    n = graph.n_sites
    if n > MAX_EXACT_SITES:
        raise CapacityError(f"exact enumeration limited to {MAX_EXACT_SITES} sites, got {n}")
    width = min(n, ENUM_BLOCK_BITS)
    terms = [((i, j), coupling) for i, j, coupling in graph.edges]
    terms += [((i,), hi) for i, hi in enumerate(graph.fields_h.tolist()) if hi != 0.0]
    lead = next((t for t, (sites, _) in enumerate(terms) if sites[-1] >= width), len(terms))
    block = np.zeros(1 << width)
    _subtract_terms(_term_plan(terms[:lead], block, width), 0)
    base, plan = block.copy(), _term_plan(terms[lead:], block, width)

    def blocks():
        for k in range(1 << (n - width)):
            if k:
                block[...] = base
            _subtract_terms(plan, k)
            yield block

    return blocks()


def enumerate_energies(graph: CouplingGraph) -> np.ndarray:
    """Energies of all 2^N configurations, indexed by ``config_index``:
    the blocks of :func:`_energy_blocks` one after another. An energy
    beyond the float range raises NumericalError."""
    blocks = _energy_blocks(graph)
    # The table gets its own zero-filled mapping, whose pages leave the
    # process when the table is dropped. From malloc, a freed 2^20-entry table
    # stays in the heap, and what runs next piles onto its pages, so peak
    # memory would depend on the calls that came before.
    energies = np.frombuffer(mmap.mmap(-1, (1 << graph.n_sites) * 8), dtype=float)
    for table_block, block in zip(energies.reshape(-1, 1 << min(graph.n_sites, ENUM_BLOCK_BITS)), blocks):
        if not np.isfinite(block).all():
            raise NumericalError("enumerate_energies: an energy is beyond the float range")
        table_block[...] = block
    return energies


@dataclass
class PartitionResult:
    """Z, and the Gibbs distribution over all 2^N configurations, which is
    built from :func:`enumerate_energies` on first read, then kept. Unpacks
    as ``z, gibbs``."""

    z: float
    graph: CouplingGraph = field(repr=False)
    beta: float = field(repr=False)

    @cached_property
    def gibbs(self) -> DiscreteDistribution:
        log_w = enumerate_energies(self.graph)
        log_w *= -self.beta  # partition_exact found no product beyond the float range
        return DiscreteDistribution(_log_normalize_inplace("partition_exact", log_w)[0])

    def __iter__(self):
        return iter((self.z, self.gibbs))


def partition_exact(graph: CouplingGraph, beta: float) -> PartitionResult:
    """Exact partition function over all 2^N configs, and their Gibbs distribution.

    Z = sum_s exp(-beta E(s)); probabilities stay finite at low
    temperature, and a Z or a beta * E beyond the float range raises
    NumericalError. Z takes O(2^ENUM_BLOCK_BITS) memory; the Gibbs
    distribution, read or unpacked, takes the whole table.
    """
    beta = _real("partition_exact: beta", beta, 0)
    return PartitionResult(partition_value(_log_partition(graph, beta)), graph, beta)


def _log_partition(graph: CouplingGraph, beta: float) -> float:
    """ln Z reduced one block of :func:`_energy_blocks` at a time. Each
    block's log-weights go through :func:`_exp_shifted`, the max shift of
    :func:`log_normalize`, to their max m and sum of exps s; the blocks'
    (m, s) pairs are then combined in block order as one exactly rounded sum
    of s exp(m - max m). With one block this is the arithmetic of
    :func:`log_normalize`, bit for bit; with more, the last bits can differ."""
    maxes, sums = [], []
    for log_w in _energy_blocks(graph):
        try:
            with np.errstate(over="raise", invalid="ignore"):  # inf * 0 is NaN, which the max check rejects
                log_w *= -beta
        except FloatingPointError:  # an infinite log-weight would make the max shift inf - inf
            raise NumericalError(f"partition_exact: beta * energy overflows a float at beta = {beta!r}") from None
        m, s = _exp_shifted("partition_exact", log_w)
        maxes.append(m)
        sums.append(s)
    top = max(maxes)
    return top + math.log(math.fsum(s * math.exp(m - top) for m, s in zip(maxes, sums)))


# kept for ROADMAP item 13: F = U - TS from exact counts
def boltzmann_entropy(multiplicity: int, k_B: float = 1.0) -> float:
    """S = k_B ln(Omega) for a macro-state with the given multiplicity; NumericalError
    when S is beyond the float range."""
    multiplicity = _count("boltzmann_entropy: multiplicity", multiplicity, 1)
    k_B = _real("boltzmann_entropy: k_B", k_B, 0, ends="(]")
    entropy = k_B * math.log(multiplicity)
    if entropy == math.inf:
        raise NumericalError(f"boltzmann_entropy: k_B ln(Omega) overflows a float (k_B = {k_B!r})")
    return entropy


def acceptance_probability(delta_h: float, beta: float) -> float:
    """Metropolis acceptance: 1 if the move is downhill, else exp(-beta dH)."""
    if delta_h <= 0:
        return 1.0
    return math.exp(-beta * delta_h)


def _flip_table(adjacency, fields, spins, beta: float, width: int):
    """Site i's flip as a function of its code ``(i << width) | bits``, where
    bit 0 is set iff the site's spin is +1 and bit k + 1 iff its k-th
    neighbour's is: each code's dH, acceptance probability and pre-flip spin.
    Also the current codes and, per site, the (site, bit) pairs its flip
    toggles. Every field is summed in the direct loop's order, and
    ``math.exp`` rounds as that loop does, so no decision moves."""
    spin_of = state_bits(width).astype(np.int8) * 2 - 1  # row b: bit b's spin in each pattern
    degrees = [len(neighbours) for neighbours in adjacency]
    dh = np.empty((len(adjacency), 1 << width))
    for d in set(degrees):
        # the sites of degree d at once, one row each: their k-th couplings
        # as a column times bit k + 1's spins, added in k order
        rows = [i for i, degree in enumerate(degrees) if degree == d]
        local = np.repeat(np.array([fields[i] for i in rows])[:, None], 1 << width, axis=1)
        for k in range(d):
            local += np.array([adjacency[i][k][1] for i in rows])[:, None] * spin_of[k + 1]
        dh[rows] = 2.0 * spin_of[0] * local
    code, toggles = [], [[] for _ in adjacency]
    for i, neighbours in enumerate(adjacency):
        c = (i << width) | (spins[i] > 0)
        for k, (j, _) in enumerate(neighbours):
            c |= (spins[j] > 0) << (k + 1)
            toggles[j].append((i, 2 << k))
        code.append(c)
    dh = dh.ravel().tolist()
    accept = [acceptance_probability(d, beta) for d in dh]
    return dh, accept, spin_of[0].tolist() * len(adjacency), code, toggles


def _table_block(sites, uniforms, dh_here, old_here, dh_of, accept, old_of, code, toggles):
    """Chain steps by :func:`_flip_table` lookup: a flip's dH and old spin
    go to ``dh_here[t]`` and ``old_here[t]``, and its code bits are toggled."""
    for t in range(len(sites)):
        site = sites[t]
        c = code[site]
        if uniforms[t] < accept[c]:
            dh_here[t] = dh_of[c]
            old_here[t] = old_of[c]
            code[site] = c ^ 1
            for j, bit in toggles[site]:
                code[j] ^= bit


def _direct_block(sites, uniforms, dh_here, old_here, adjacency, fields, spins, beta):
    """The same steps as :func:`_table_block`, each summing the site's local field."""
    exp = math.exp
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
        for a in range(start, len(sites), CHUNK_ROWS):
            block = samples[a - start : a - start + CHUNK_ROWS]
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
    stream as one call each; a step is accepted when its uniform is below
    :func:`acceptance_probability` of its dH. Each step looks up its dH and
    acceptance threshold by the site's and its neighbours' spins, in a table
    worked out once per chain; a graph too dense for one (``n 2^(max degree
    + 1)`` entries above the steps or ``TABLE_ENTRIES``) sums each local
    field. The trace's running energy and magnetization are sums of the
    flips' dH and spin changes, and a running energy beyond the float range
    raises NumericalError; the samples are rebuilt from the proposed sites
    when first read.
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

    adjacency = graph.adjacency
    fields = [float(h) for h in graph.fields_h]
    # The sites are drawn CHUNK_ROWS at a time, all before any uniform, into
    # the smallest unsigned dtype that holds n - 1. A bounded int64 draw keeps
    # no state outside the bit generator (its spare 32-bit half included),
    # so the chunks give the values and the stream of one call.
    sites_arr = np.empty(steps, dtype=np.min_scalar_type(n - 1))
    for a in range(0, steps, CHUNK_ROWS):
        sites_arr[a : a + CHUNK_ROWS] = rng.generator.integers(0, n, size=min(CHUNK_ROWS, steps - a))

    # Every buffer is sized by the step count, so a chain's memory does not
    # depend on its acceptance rate. A flip at step t puts its dH in
    # energy_path[t + 1] and its pre-flip spin in flip_old[t]. A rejected
    # step leaves dH at -0.0: adding -0.0 changes no float, not even -0.0.
    energy_path = np.full(steps + 1, -0.0)
    energy_path[0] = ising_energy(spins_arr, graph)
    flip_old = np.zeros(steps, dtype=np.int8)
    dh_at, old_at = memoryview(energy_path)[1:], memoryview(flip_old)

    # A table has no more entries than the chain has steps, so its build
    # stays in proportion to the loop it replaces, and at most TABLE_ENTRIES.
    width = 1 + max(map(len, adjacency))
    if n << width <= min(steps, TABLE_ENTRIES):
        step_block, state = _table_block, _flip_table(adjacency, fields, spins, beta, width)
    else:
        step_block, state = _direct_block, (adjacency, fields, spins, beta)
    # The draws become Python lists (about 40 bytes a step) one block at a
    # time, so the loop's speed costs no memory that grows with the steps.
    for a in range(0, steps, CHUNK_ROWS):
        sites = sites_arr[a : a + CHUNK_ROWS].tolist()
        uniforms = rng.generator.random(len(sites)).tolist()
        step_block(sites, uniforms, dh_at[a : a + CHUNK_ROWS], old_at[a : a + CHUNK_ROWS], *state)
    del sites, uniforms, state

    with np.errstate(over="ignore", invalid="ignore"):  # a running energy beyond the float range raises below
        np.cumsum(energy_path, out=energy_path)
        low, high = float(energy_path.min()), float(energy_path.max())
    if not (math.isfinite(low) and math.isfinite(high)):
        raise NumericalError(f"metropolis_chain: a running energy passes the float range (min {low!r}, max {high!r})")
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
    with np.errstate(over="ignore", invalid="ignore"):  # an energy beyond the float range raises below
        for start in range(0, m, CHUNK_ROWS):
            s = arr[start : start + CHUNK_ROWS]
            _subtract_energies(energies[start : start + CHUNK_ROWS], s.T, graph)
            mags[start : start + CHUNK_ROWS] = s.mean(axis=1)
    return _observables(energies, mags, n_batches)


def _observables(energies: np.ndarray, mags: np.ndarray, n_batches: Optional[int] = None) -> Observables:
    """Means of per-sample energies and magnetizations, with standard errors
    from ``n_batches`` batch means (default: sqrt of the sample count, 1 to 100).

    The energies' statistics are taken over the energies scaled by 2^-k, then
    scaled back. k is 0 unless a sum of m energies or a sum of squared
    deviations of the batch means could pass the float range; a power of two
    scales a float exactly, so every statistic that fits a float is returned.
    """
    m = len(energies)
    if n_batches is None:
        n_batches = max(1, min(100, int(math.sqrt(m))))
    n_batches = _count("estimate_observables: n_batches", n_batches, 1)
    per = m // n_batches
    peak = max(-float(energies.min()), float(energies.max()))
    if not math.isfinite(peak):
        raise NumericalError("estimate_observables: an energy is beyond the float range")
    # |sum| < 2^(e + bits of m); a squared deviation's sum < 2^(2 e + 2 + bits of n_batches)
    e = math.frexp(peak)[1]
    k = max(0, e + m.bit_length() - 1023, e - (1021 - n_batches.bit_length()) // 2)
    scaled = np.ldexp(energies, -k) if k else energies

    def batch_se(series):
        if n_batches < 2 or per == 0:
            return 0.0
        means = series[: n_batches * per].reshape(n_batches, per).mean(axis=1)
        return float(means.std(ddof=1) / math.sqrt(n_batches))

    return Observables(
        mean_energy=math.ldexp(float(scaled.mean()), k),
        mean_magnetization=float(mags.mean()),
        se_energy=math.ldexp(batch_se(scaled), k),
        se_magnetization=batch_se(mags),
        n_samples=m,
    )
