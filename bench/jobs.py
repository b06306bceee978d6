"""Job lists for the three workloads, generated from a seed.

A job is one experiment: one ``thermolearn`` CLI run or one library call.
Each workload is made of whole rounds; every round holds the same slots
(same kind of job, same size class), and the seed draws only the values
inside a slot (graph sizes, couplings, temperatures, fragment lengths,
signals, data). That keeps the work per run nearly the same for every seed
while the inputs still vary. The program sees only the files and configs
written here; nothing in this module imports thermolearn.

Every job is a JSON-serialisable dict with ``kind`` ("cli" or a library
function name) and ``out`` (where its outputs go). A CLI job has ``argv``
and ``meta`` (what the checks need to know about its input); a library
call has ``params`` and ``inputs``, an ``.npz`` file next to the job.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

WORKLOADS = ("chain", "digest", "learn")

# Wall seconds one round takes on the reference machine, unscaled: the
# median over runs of the current job lists (see README). A run does
# round(seconds / ROUND_SECONDS) whole rounds, so --seconds sets how much
# work a run does; no run is cut off by the clock.
ROUND_SECONDS = {"chain": 3.5, "digest": 2.4, "learn": 3.1}

# chain: one round = five `thermolearn ising` runs, one per slot. The slots'
# costs rise in this order with gaps between them, so the median job is
# always one of the large-ring jobs, whose size does not depend on the seed
# (the 12-19-site rings cost from 0.5 to 0.8 s at 60 000 steps, depending on
# the draw). The sample matrices of the large ring and the 20-site ring (the
# largest the program enumerates exactly) are in every round and are the
# largest, so the peak memory does not depend on the seed either.
CHAIN_SLOTS = (
    # (graph, steps, format)
    ("torus", 20_000, "csv"),
    ("ring", 40_000, "json"),
    ("large_ring", 40_000, "csv"),
    ("ring", 100_000, "csv"),
    ("ring20", 100_000, "csv"),
)
RING_SITES = (12, 19)
LARGE_RING_SITES = 64
TORUS_SIDE = 4

# digest: fragment counts per enzyme, one pair per slot; every pair has
# 15 fragments in all, so each slot costs the same per proposal.
DIGEST_SLOTS = ((6, 9), (7, 8), (8, 7), (9, 6))
DIGEST_LENGTH = (60, 120)
DIGEST_SCHEDULE = {"sweeps": 250, "proposals_per_sweep": 100, "t0": 5.0, "ratio": 0.98}

# learn: one round of library calls, weighted so that no layer dominates
# (convolution about a quarter of a round, boost and marl a fifth each, ebm
# a third over its three calls). Five calls take clearly less time than a
# 2^16 convolution and five clearly more, so the median job is one of the
# five 2^16 convolutions.
CONV_SIZES = (1 << 12, 1 << 13, 1 << 14, 1 << 15) + (1 << 16,) * 5
BOOST_ITEMS = 10_000
BOOST_GAMMA = 0.1
BOOST_TARGET = 0.3  # depth 2 at gamma 0.1: 0.4 -> 0.352 -> 0.2845
BM_SHAPE = (8, 6)
BM_ROWS = 64
BM_EPOCHS = {"exact_gradient": 40, "cd_k": 300}
GIBBS_STEPS = 20_000
MARL_SIDE = 8
MARL_EPISODES = 200
MARL_STEPS = 10


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _config(pairs) -> str:
    lines = []
    for key, value in pairs.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, str):
            value = f'"{value}"'
        else:
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _cli_job(job_dir: str, subcommand: str, cfg: dict, seed: int, fmt: str, meta: dict) -> dict:
    cfg_path = _write(os.path.join(job_dir, "job.cfg"), _config(cfg))
    out = os.path.join(job_dir, "out")
    argv = [subcommand, "--config", cfg_path, "--seed", str(seed), "--out", out, "--format", fmt]
    return {"kind": "cli", "argv": argv, "out": out, "meta": {**meta, "format": fmt}}


def torus_edges(side: int):
    """Edges (i, j) of a side x side periodic square lattice, i < j, no repeats."""
    edges = set()
    for r in range(side):
        for c in range(side):
            i = r * side + c
            for j in (r * side + (c + 1) % side, ((r + 1) % side) * side + c):
                if i != j:
                    edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def _chain_job(job_dir, gen, slot):
    graph, steps, fmt = slot
    beta = float(np.round(gen.uniform(0.2, 0.6), 4))
    cfg = {"beta": beta, "steps": steps, "burn_in": steps // 10}
    if graph == "torus":
        n = TORUS_SIDE * TORUS_SIDE
        edges = [(i, j, float(np.round(gen.uniform(-1.0, 1.0), 4))) for i, j in torus_edges(TORUS_SIDE)]
        fields = [float(np.round(gen.uniform(-0.3, 0.3), 4)) for _ in range(n)]
        lines = [str(n)] + [f"{i} {j} {J!r}" for i, j, J in edges] + [f"h {i} {h!r}" for i, h in enumerate(fields)]
        cfg["graph"] = _write(os.path.join(job_dir, "graph.txt"), "\n".join(lines) + "\n")
        meta = {"graph": "file", "n_sites": n, "edges": edges, "fields": fields}
    else:
        sizes = {"large_ring": LARGE_RING_SITES, "ring20": 20}
        n = sizes.get(graph) or int(gen.integers(RING_SITES[0], RING_SITES[1] + 1))
        coupling = float(np.round(gen.uniform(0.5, 1.0), 4))
        field = float(np.round(gen.uniform(-0.3, 0.3), 4))
        cfg.update(n_sites=n, coupling=coupling, field=field, periodic=True)
        meta = {"graph": "ring", "n_sites": n, "coupling": coupling, "field": field}
    return _cli_job(job_dir, "ising", cfg, int(gen.integers(2**31)), fmt, {**meta, "beta": beta, "steps": steps})


def digest_instance(gen, n_a: int, n_b: int, length: int):
    """A solvable instance: a and b from random distinct cuts, c from their union."""

    def cuts(k):
        return set(int(x) for x in gen.choice(np.arange(1, length), size=k - 1, replace=False))

    def gaps(cut_set):
        pos = sorted(cut_set | {0, length})
        return [b - a for a, b in zip(pos, pos[1:])]

    cuts_a, cuts_b = cuts(n_a), cuts(n_b)
    # store a and b shuffled so the identity ordering is not the answer
    a, b = gaps(cuts_a), gaps(cuts_b)
    return [int(x) for x in gen.permutation(a)], [int(x) for x in gen.permutation(b)], gaps(cuts_a | cuts_b)


def _digest_job(job_dir, gen, slot, schedule=DIGEST_SCHEDULE):
    n_a, n_b = slot
    length = int(gen.integers(DIGEST_LENGTH[0], DIGEST_LENGTH[1] + 1))
    a, b, c = digest_instance(gen, n_a, n_b, length)
    text = "".join(f"{name}: {' '.join(map(str, vals))}\n" for name, vals in (("a", a), ("b", b), ("c", c)))
    cfg = {
        "instance": _write(os.path.join(job_dir, "instance.txt"), text),
        "sweeps": schedule["sweeps"],
        "proposals_per_sweep": schedule["proposals_per_sweep"],
        "schedule.kind": "geometric",
        "schedule.t0": schedule["t0"],
        "schedule.parameter": schedule["ratio"],
    }
    meta = {"a": a, "b": b, "c": c}
    return _cli_job(job_dir, "digest", cfg, int(gen.integers(2**31)), "csv", meta)


def _call_job(job_dir, kind, params, arrays):
    inputs = os.path.join(job_dir, "inputs.npz")
    np.savez(inputs, **arrays)
    return {"kind": kind, "inputs": inputs, "params": params, "out": os.path.join(job_dir, "out.npz")}


def bm_data(gen, n_visible: int, rows: int) -> np.ndarray:
    """Rows drawn from three noisy prototypes, so the data has structure to learn."""
    protos = gen.integers(0, 2, size=(3, n_visible))
    picks = protos[gen.integers(0, 3, size=rows)]
    noise = gen.random((rows, n_visible)) < 0.1
    return (picks ^ noise).astype(np.uint8)


def _learn_round(new_dir, gen, sizes=CONV_SIZES, boost_items=BOOST_ITEMS, epochs=BM_EPOCHS,
                 gibbs_steps=GIBBS_STEPS, marl=(MARL_SIDE, MARL_EPISODES, MARL_STEPS)):
    jobs = []
    for n in sizes:
        half = n // 2
        jobs.append(_call_job(new_dir(), "conv_fft", {"n": n},
                              {"x": gen.uniform(-1, 1, half), "y": gen.uniform(-1, 1, n - half)}))
    for kind in ("boost3", "boost_recursive"):
        xs = gen.random(boost_items)
        params = {"gamma": BOOST_GAMMA, "threshold": 0.5, "target": BOOST_TARGET, "seed": int(gen.integers(2**31))}
        jobs.append(_call_job(new_dir(), kind, params, {"xs": xs, "ys": (xs >= 0.5).astype(np.int8)}))
    n_v, n_h = BM_SHAPE
    for method, n_epochs in epochs.items():
        params = {"method": method, "epochs": n_epochs, "learning_rate": 0.1, "k": 1, "seed": int(gen.integers(2**31))}
        arrays = {"data": bm_data(gen, n_v, BM_ROWS), "a": np.zeros(n_v), "b": np.zeros(n_h),
                  "W": 0.01 * gen.standard_normal((n_v, n_h))}
        jobs.append(_call_job(new_dir(), "bm_train", params, arrays))
    arrays = {"a": gen.normal(0, 0.5, n_v), "b": gen.normal(0, 0.5, n_h), "W": gen.normal(0, 0.5, (n_v, n_h))}
    jobs.append(_call_job(new_dir(), "bm_gibbs_sample", {"steps": gibbs_steps, "seed": int(gen.integers(2**31))}, arrays))
    side, episodes, steps = marl
    params = {"side": side, "episodes": episodes, "steps": steps, "coupling": 1.0, "alpha": 0.1, "gamma": 0.9,
              "t_start": 10.0, "t_end": 0.1, "seed": int(gen.integers(2**31))}
    jobs.append(_call_job(new_dir(), "run_ising_game", params, {}))
    return jobs


def _dir_maker(root: str, prefix: str):
    counter = itertools.count()

    def new_dir():
        path = os.path.join(root, f"{prefix}{next(counter):04d}")
        os.makedirs(path)
        return path

    return new_dir


def make_jobs(workload: str, seed: int, rounds: int, root: str):
    """The workload's job list for this seed, with its input files under root."""
    gen = _rng(seed, workload)
    new_dir = _dir_maker(root, "job")
    jobs = []
    for _ in range(rounds):
        if workload == "chain":
            jobs += [_chain_job(new_dir(), gen, slot) for slot in CHAIN_SLOTS]
        elif workload == "digest":
            jobs += [_digest_job(new_dir(), gen, slot) for slot in DIGEST_SLOTS]
        else:
            jobs += _learn_round(new_dir, gen)
    return jobs


def make_warmup(workload: str, root: str):
    """Small fixed jobs, the same for every seed, so set-up time is comparable.

    One job for the CLI workloads; for ``learn`` one small call of each kind.
    """
    new_dir = _dir_maker(root, "warmup")
    gen = np.random.default_rng(12345)
    if workload == "chain":
        return [_chain_job(new_dir(), gen, ("ring", 2_000, "csv"))]
    if workload == "digest":
        small = {"sweeps": 5, "proposals_per_sweep": 20, "t0": 5.0, "ratio": 0.98}
        return [_digest_job(new_dir(), gen, (6, 6), small)]
    return _learn_round(new_dir, gen, sizes=(256,), boost_items=200, epochs={"exact_gradient": 2, "cd_k": 2},
                        gibbs_steps=100, marl=(4, 2, 2))
