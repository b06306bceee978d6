"""Reproducible experiment runner.

Usage: ``thermolearn SUBCOMMAND --config PATH [--seed U64] [--out DIR]
[--format {csv,json}]``. Every run writes ``manifest.json`` first (so a
crashed run can still be reproduced), then the subcommand's artifacts,
then rewrites the manifest with sha256 checksums of every artifact.
Outputs contain no timestamps or machine state, so the same manifest
always reproduces byte-identical artifacts.

Exit codes: 0 success, 1 validation failure, 2 numerical or convergence
failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List

import numpy as np

from .anneal import SCHEDULE_KINDS, CoolingSchedule, EnergyLandscape, schedule_temperature
from .anneal import anneal as run_anneal
from .config import FieldSpec, _problem, _read_text, _within, parse_config_file, resolved, validate_against
from .errors import NumericalError, ThermolearnError, ValidationError
from .rng import RngStream
from .trace import Trace

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64

__all__ = ["main", "run_experiment", "validate_config", "SUBCOMMANDS"]


# checks shared by many keys, with the library's rule and wording for each domain
_INT_GE_1, _INT_GE_0 = _within(1, integer=True), _within(0, integer=True)
_REAL_GT_0, _REAL_GE_0 = _within(0, ends="(]"), _within(0)


def _schedule_fields(default_t0: float, default_ratio: float) -> Dict[str, FieldSpec]:
    return {
        "schedule.kind": FieldSpec(
            "string",
            default="geometric",
            check=lambda v: None if v in SCHEDULE_KINDS else f"must be one of {SCHEDULE_KINDS}",
        ),
        "schedule.t0": FieldSpec("real", default=default_t0, check=_REAL_GT_0),
        "schedule.parameter": FieldSpec("real", default=default_ratio),
        "schedule.floor": FieldSpec("real", default=1e-9, check=_REAL_GT_0),
    }


SCHEMAS: Dict[str, Dict[str, FieldSpec]] = {
    "entropy": {
        "probs": FieldSpec("list", required=True),
        "log_base": FieldSpec("real", default=2.0, check=_within(1, ends="(]")),
    },
    "ising": {
        "graph": FieldSpec("string"),
        "n_sites": FieldSpec("int", check=_INT_GE_1),
        "coupling": FieldSpec("real", default=1.0),
        "field": FieldSpec("real", default=0.0),
        "periodic": FieldSpec("bool", default=False),
        "beta": FieldSpec("real", required=True, check=_REAL_GE_0),
        "steps": FieldSpec("int", required=True, check=_INT_GE_1),
        "burn_in": FieldSpec("int", default=0, check=_INT_GE_0),
    },
    "anneal": {
        "landscape": FieldSpec(
            "string", default="quadratic", check=lambda v: None if v == "quadratic" else "must be 'quadratic'"
        ),
        "span": FieldSpec("int", default=50, check=_within(1, 2**63 - 1, integer=True)),
        "sweeps": FieldSpec("int", required=True, check=_INT_GE_1),
        "proposals_per_sweep": FieldSpec("int", default=10, check=_INT_GE_1),
        **_schedule_fields(10.0, 0.99),
    },
    "digest": {
        "instance": FieldSpec("string"),
        "n_a": FieldSpec("int", check=_INT_GE_1),
        "n_b": FieldSpec("int", check=_INT_GE_1),
        "total_length": FieldSpec("int", check=_within(1, 2**63, "[)", integer=True)),
        "sweeps": FieldSpec("int", default=1000, check=_INT_GE_1),
        "proposals_per_sweep": FieldSpec("int", default=100, check=_INT_GE_1),
        **_schedule_fields(5.0, 0.995),
    },
    "ebm": {
        "data": FieldSpec("string", required=True),
        "n_hidden": FieldSpec("int", required=True, check=_INT_GE_1),
        "method": FieldSpec(
            "string",
            default="exact_gradient",
            check=lambda v: None if v in ("exact_gradient", "cd_k") else "must be exact_gradient or cd_k",
        ),
        "learning_rate": FieldSpec("real", default=0.1, check=_REAL_GT_0),
        "epochs": FieldSpec("int", default=100, check=_INT_GE_0),
        "k": FieldSpec("int", default=1, check=_INT_GE_1),
        "init_scale": FieldSpec("real", default=0.01, check=_REAL_GE_0),
    },
    "conv": {
        "n": FieldSpec("int", check=_INT_GE_1),
        "x": FieldSpec("list"),
        "y": FieldSpec("list"),
    },
    "boost": {
        "dataset": FieldSpec("string"),
        "n_items": FieldSpec("int", default=10000, check=_INT_GE_1),
        "threshold": FieldSpec("real", default=0.5),
        "gamma": FieldSpec("real", default=0.1, check=_within(0, 0.5, "(]")),
    },
    "activeinf": {
        "mdp": FieldSpec("string", required=True),
        "tolerance": FieldSpec("real", default=1e-10, check=_REAL_GT_0),
    },
    "marl": {
        "rows": FieldSpec("int", default=4, check=_INT_GE_1),
        "cols": FieldSpec("int", default=4, check=_INT_GE_1),
        "coupling": FieldSpec("real", default=1.0),
        "episodes": FieldSpec("int", default=500, check=_INT_GE_1),
        "steps_per_episode": FieldSpec("int", default=10, check=_INT_GE_1),
        "alpha": FieldSpec("real", default=0.1, check=_within(0, 1)),
        "gamma": FieldSpec("real", default=0.9, check=_within(0, 1, "[)")),
        "temp.start": FieldSpec("real", default=10.0, check=_REAL_GT_0),
        "temp.end": FieldSpec("real", default=0.1, check=_REAL_GT_0),
        "n_bins": FieldSpec("int", default=11, check=_INT_GE_1),
    },
}


def validate_config(subcommand: str, config: Dict[str, object]) -> List[str]:
    """Diagnostics for a subcommand config; empty iff run() would accept it."""
    if subcommand not in SCHEMAS:
        return [f"subcommand: unknown subcommand {subcommand!r}"]
    diagnostics = validate_against(SCHEMAS[subcommand], config)
    extra = _SUBCOMMANDS[subcommand][1]
    if extra and not diagnostics:
        diagnostics.extend(extra(resolved(SCHEMAS[subcommand], config)))
    return diagnostics


def _check_ising(cfg) -> List[str]:
    if "graph" not in cfg and "n_sites" not in cfg:
        return ["graph: either graph or n_sites is required"]
    if cfg["steps"] <= cfg.get("burn_in", 0):
        return ["steps: must exceed burn_in"]
    return []


def _check_digest(cfg) -> List[str]:
    missing = [] if "instance" in cfg else [key for key in ("n_a", "n_b", "total_length") if key not in cfg]
    if missing:
        return [f"{key}: required when no instance file is given" for key in missing]
    return _check_schedule(cfg)


def _check_schedule(cfg) -> List[str]:
    # anneal and digest: the schedule the run builds, still above T = 0 at the last sweep,
    # which is the coldest, since every kind is non-increasing
    try:
        schedule = _schedule_from(cfg)
    except ValidationError as exc:  # the schema has checked kind and t0: the ratio, decrement or floor is at fault
        problem = str(exc).removeprefix("CoolingSchedule: ")
        return [f"schedule.{'floor' if 'floor' in problem else 'parameter'}: {problem}"]
    last = cfg["sweeps"] - 1
    if not schedule_temperature(schedule, last) > 0.0:
        key = "schedule.parameter" if cfg["schedule.kind"] == "geometric" else "schedule.t0"
        return [f"{key}: the temperature reaches 0 by the last sweep ({last}); cool more slowly or run fewer sweeps"]
    return []


def _check_entropy(cfg) -> List[str]:
    try:
        _distribution_from(cfg)
    except ValidationError as exc:
        return [f"probs: {str(exc).removeprefix('DiscreteDistribution: probs ')}"]
    return []


def _check_conv(cfg) -> List[str]:
    if "n" in cfg:
        return []
    if "x" in cfg and "y" in cfg:
        return []
    return ["n: give n for random signals, or both x and y"]


def _check_marl(cfg) -> List[str]:
    if cfg["rows"] * cfg["cols"] < 2:
        return ["rows: lattice needs at least 2 agents"]
    if cfg["temp.end"] > cfg["temp.start"]:
        return ["temp.end: must not exceed temp.start"]
    # the coldest temperature the run reaches; past 1/T = inf, q / T in the game's policy is NaN
    coldest = "temp.end" if cfg["episodes"] > 1 else "temp.start"
    if not math.isfinite(1.0 / cfg[coldest]):
        return [f"{coldest}: too small for 1/{coldest} to be finite, got {cfg[coldest]!r}"]
    ratio = _cooling_ratio(cfg)
    if not 0.0 < ratio <= 1.0:  # also NaN
        return [f"temp.end: too far below temp.start to cool over the episodes (ratio per episode {ratio!r})"]
    return []


def _cooling_ratio(cfg) -> float:
    """The geometric ratio per episode that takes marl's temperature from temp.start to temp.end."""
    episodes = cfg["episodes"]
    return 1.0 if episodes == 1 else (float(cfg["temp.end"]) / float(cfg["temp.start"])) ** (1.0 / (episodes - 1))


def _json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _trace_bytes(trace: Trace, fmt: str) -> Iterator[bytes]:
    # a trace's artifact a chunk of rows at a time; JSON ends with a newline
    for piece in trace._text_pieces(fmt):
        yield piece.encode()
    if fmt == "json":
        yield b"\n"


def _write_artifact(path: Path, pieces: Iterable[bytes]) -> str:
    """Write the concatenated pieces to path; returns their sha256 hex digest."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in pieces:
            fh.write(piece)
            digest.update(piece)
    return digest.hexdigest()


def _schedule_from(cfg) -> CoolingSchedule:
    return CoolingSchedule(
        kind=cfg["schedule.kind"],
        t0=float(cfg["schedule.t0"]),
        parameter=float(cfg["schedule.parameter"]),
        floor=float(cfg["schedule.floor"]),
    )


# Each runner imports its own subsystem, so a run loads only what its subcommand
# needs, and calls through module attributes (``ising.metropolis_chain``).
def _distribution_from(cfg):
    from .distributions import DiscreteDistribution
    return DiscreteDistribution(np.asarray(cfg["probs"], dtype=float))


def _run_entropy(cfg, rng):
    from . import info
    dist = _distribution_from(cfg)
    base = float(cfg["log_base"])
    return {
        "entropy": info.entropy_shannon(dist, base),
        "entropy_nats": info.entropy_nats(dist),
        "log_base": base,
        "n_outcomes": len(dist),
    }, {}


def _run_ising(cfg, rng):
    from . import ising
    if "graph" in cfg:
        graph = ising.load_coupling_graph(cfg["graph"])
    else:
        graph = ising.chain_graph(cfg["n_sites"], float(cfg["coupling"]), float(cfg["field"]), cfg["periodic"])
    beta = float(cfg["beta"])
    # The exact enumeration (two 8 MB arrays at 20 sites) is the largest
    # allocation, so it runs first, on a heap that holds neither the chain's
    # record and trace nor the trace text. It draws no random numbers, so
    # the chain's stream is the same either way.
    exact = graph.n_sites <= ising.MAX_EXACT_SITES
    z = ising.partition_exact(graph, beta).z if exact else None
    result = ising.metropolis_chain(graph, beta, cfg["steps"], cfg["burn_in"], rng)
    # the chain's own running energy and magnetization after each post-burn-in step
    trace, start = result.trace, cfg["burn_in"]
    obs = ising._observables(trace.column("energy")[start:], trace.column("magnetization")[start:])
    summary = {
        "n_sites": graph.n_sites,
        "beta": beta,
        "steps": cfg["steps"],
        "burn_in": cfg["burn_in"],
        "acceptance_rate": result.acceptance_rate,
        **vars(obs),
    }
    if exact:
        summary["partition_z"] = z
    return summary, {"trace": result.trace}


class _QuadraticLine(EnergyLandscape):
    """Integer line with E(x) = x^2 and unit-step moves."""

    def __init__(self, span: int):
        self.span = int(span)

    def energy(self, state) -> float:
        return float(state * state)

    def moves(self, rng, count):
        return (2 * rng.generator.integers(2, size=count) - 1).tolist()

    def apply(self, state, move):
        return state + move

    def random_state(self, rng):
        return int(rng.generator.integers(-self.span, self.span + 1))


def _run_anneal(cfg, rng):
    problem = _QuadraticLine(cfg["span"])
    result = run_anneal(
        problem, _schedule_from(cfg), cfg["sweeps"], cfg["proposals_per_sweep"], rng
    )
    return {
        "landscape": "quadratic",
        "best_state": int(result.best_state),
        "best_energy": result.best_energy,
        "sweeps": cfg["sweeps"],
        "proposals_per_sweep": cfg["proposals_per_sweep"],
    }, {"trace": result.trace}


def _run_digest(cfg, rng):
    from . import digest
    if "instance" in cfg:
        instance = digest.load_instance(cfg["instance"])
    else:
        instance = digest.generate_instance(
            cfg["n_a"], cfg["n_b"], cfg["total_length"], rng.substream(1)
        )
    landscape = digest.DigestLandscape(instance)
    result = run_anneal(
        landscape, _schedule_from(cfg), cfg["sweeps"], cfg["proposals_per_sweep"], rng
    )
    ordering = result.best_state
    return {
        "a": list(instance.a),
        "b": list(instance.b),
        "c": list(instance.c),
        "total_length": instance.total_length,
        "best_energy": result.best_energy,
        "best_sigma": list(ordering.sigma),
        "best_mu": list(ordering.mu),
        "implied_fragments": list(digest.double_digest_implied_fragments(ordering, instance)),
    }, {"trace": result.trace}


def _run_ebm(cfg, rng):
    from . import ebm
    data = ebm.load_visible_data(cfg["data"])
    n_visible = data.shape[1]
    n_hidden = cfg["n_hidden"]
    scale = float(cfg["init_scale"])
    init_rng = rng.substream(1)
    machine = ebm.BoltzmannMachine(
        np.zeros(n_visible),
        np.zeros(n_hidden),
        scale * init_rng.generator.standard_normal((n_visible, n_hidden)),
    )
    trained, losses = ebm.bm_train(
        machine,
        data,
        method=cfg["method"],
        learning_rate=float(cfg["learning_rate"]),
        epochs=cfg["epochs"],
        k=cfg["k"],
        rng=rng.substream(2),
    )
    outputs = {"machine.json": trained.to_json().encode() + b"\n"}
    if losses:
        outputs["loss_curve"] = Trace({"epoch": np.arange(1, len(losses) + 1), "nll": np.asarray(losses)})
    return {
        "n_visible": n_visible,
        "n_hidden": n_hidden,
        "method": cfg["method"],
        "epochs": cfg["epochs"],
        "n_rows": int(data.shape[0]),
        "final_nll": losses[-1] if losses else None,
    }, outputs


def _run_conv(cfg, rng):
    from . import convolution
    if "x" in cfg and "y" in cfg:
        x = np.asarray(cfg["x"], dtype=float)
        y = np.asarray(cfg["y"], dtype=float)
    else:
        n = cfg["n"]
        gen = rng.generator
        x = gen.uniform(-1.0, 1.0, n)
        y = gen.uniform(-1.0, 1.0, n)
    fast = convolution.conv_fft(x, y)
    direct = convolution.conv_naive(x, y)
    max_diff = float(np.max(np.abs(fast - direct)))
    if not max_diff <= 1e-9 * max(1.0, float(np.max(np.abs(direct)))):  # relative; NaN fails
        raise NumericalError(f"conv: fast and direct routes disagree by {max_diff:g}")
    return {
        "n_x": int(x.size),
        "n_y": int(y.size),
        "out_length": int(fast.size),
        "max_abs_route_diff": max_diff,
        "result": fast.tolist() if fast.size <= 64 else fast[:64].tolist(),
        "result_truncated": bool(fast.size > 64),
    }, {}


def _run_boost(cfg, rng):
    from . import boost
    threshold = float(cfg["threshold"])
    if "dataset" in cfg:
        dataset = boost.load_dataset(cfg["dataset"])
    else:
        xs = rng.substream(1).generator.random(cfg["n_items"])
        ys = (xs >= threshold).astype(int)
        dataset = boost.WeightedDataset.uniform(xs, ys)
    learner = boost.NoisyThresholdLearner(threshold, float(cfg["gamma"]))
    _, diagnostics = boost.boost3(learner, dataset, rng.substream(2))
    return diagnostics.to_dict(), {}


def _run_activeinf(cfg, rng):
    from . import activeinf
    mdp = activeinf.mdp_from_json(_read_text(cfg["mdp"]))
    result = activeinf.value_iteration(mdp, float(cfg["tolerance"]))
    return {
        "V": result.values.tolist(),
        "policy": result.policy.tolist(),
        "iterations": result.iterations,
        "residual": result.residual,
    }, {}


def _run_marl(cfg, rng):
    from . import marl
    env = marl.IsingGameEnv(marl.torus_graph(cfg["rows"], cfg["cols"]), float(cfg["coupling"]))
    episodes = cfg["episodes"]
    schedule = CoolingSchedule("geometric", float(cfg["temp.start"]), _cooling_ratio(cfg))
    result = marl.run_ising_game(
        env,
        episodes,
        cfg["steps_per_episode"],
        float(cfg["alpha"]),
        float(cfg["gamma"]),
        schedule,
        rng,
        n_bins=cfg["n_bins"],
    )
    mags = result.trace.column("magnetization")
    return {
        "n_agents": env.graph.n_agents,
        "episodes": episodes,
        "steps_per_episode": cfg["steps_per_episode"],
        "final_magnetization": float(mags[-1]),
        "mean_magnetization_last_decile": float(mags[-max(1, episodes // 10):].mean()),
    }, {"trace": result.trace}


# each subcommand: its runner, and the check of its resolved config beyond the schema (or None)
_SUBCOMMANDS = {
    "entropy": (_run_entropy, _check_entropy),
    "ising": (_run_ising, _check_ising),
    "anneal": (_run_anneal, _check_schedule),
    "digest": (_run_digest, _check_digest),
    "ebm": (_run_ebm, None),
    "conv": (_run_conv, _check_conv),
    "boost": (_run_boost, None),
    "activeinf": (_run_activeinf, None),
    "marl": (_run_marl, _check_marl),
}
SUBCOMMANDS = tuple(_SUBCOMMANDS)


def run_experiment(
    subcommand: str,
    config: Dict[str, object],
    seed: int = 0,
    out_dir="out",
    fmt: str = "csv",
) -> int:
    """Validate, run, and write artifacts; returns the process exit code."""
    if subcommand not in SUBCOMMANDS:
        print(f"unknown subcommand: {subcommand}", file=sys.stderr)
        return EXIT_USAGE
    if fmt not in ("csv", "json"):
        print(f"unknown format: {fmt}", file=sys.stderr)
        return EXIT_USAGE
    # a U64, as RngStream takes, checked before the manifest is written
    seed_problem = _problem(seed, 0, 2**64, "[)", integer=True)
    if seed_problem:
        print(f"usage error: seed {seed_problem}", file=sys.stderr)
        return EXIT_USAGE
    diagnostics = validate_config(subcommand, config)
    if diagnostics:
        for item in diagnostics:
            print(f"config error: {item}", file=sys.stderr)
        return EXIT_VALIDATION

    out_path = Path(out_dir)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "seed": int(seed),
        "out_dir": str(out_dir),
        "format": fmt,
        "config": config,
        "artifacts": {},
    }
    try:
        out_path.mkdir(parents=True, exist_ok=True)
        (out_path / "manifest.json").write_bytes(_json_bytes(manifest))
        run, _ = _SUBCOMMANDS[subcommand]
        summary, outputs = run(resolved(SCHEMAS[subcommand], config), RngStream(int(seed)))
        outputs["result.json"] = _json_bytes({"schema_version": SCHEMA_VERSION, "subcommand": subcommand, **summary})
        for name, data in outputs.items():
            pieces = [data]
            if isinstance(data, Trace):
                name, pieces = f"{name}.{fmt}", _trace_bytes(data, fmt)
            manifest["artifacts"][name] = _write_artifact(out_path / name, pieces)
        (out_path / "manifest.json").write_bytes(_json_bytes(manifest))
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ThermolearnError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # e.g. numpy's "Unable to allocate 72.8 TiB for an array ..."
        print(f"capacity failure: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="thermolearn", description="Seeded experiment runner.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a key = value config document")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out", default="out", help="output directory (default ./out)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = parse_config_file(args.config)
    except ThermolearnError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return run_experiment(args.subcommand, config, seed=args.seed, out_dir=args.out, fmt=args.fmt)


if __name__ == "__main__":
    sys.exit(main())
