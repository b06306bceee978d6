"""Golden sha256 digests of every CLI artifact on a fixed matrix of runs.

``cli.run_experiment`` runs in-process for all nine subcommands, from a
file input and from a generated one where the subcommand has both, in
both trace formats and at seeds 1 and 29. Each run's manifest
``artifacts`` map (name -> sha256, in manifest order) must equal the one
recorded in ``golden_artifacts.json``. The manifest itself names the
temporary output directory and input paths, so it is not compared whole.

A byte change in any artifact fails here until the file is updated on
purpose, with the reason recorded in CHANGES.md. Print the current
digests with

    PYTHONPATH=src python3 tests/test_cli_golden.py > tests/golden_artifacts.json

The ``ebm`` entries go through float BLAS products (the activations and
the phase statistics), so, like the Boltzmann-machine digests in
``test_golden.py``, they can differ under another OpenBLAS kernel. So
can the ``conv-generated`` ``result.json``: its ``max_abs_route_diff``
comes from ``np.convolve``, whose dot products are summed in the
kernel's order.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from thermolearn import cli

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
SEEDS = (1, 29)
FORMATS = ("csv", "json")

# input files, written into the run's directory; each keeps a comment and a blank line
INPUTS = {
    "graph.txt": "# 4 sites, a ring with one chord\n4\n\n0 1 1.0\n1 2 -0.5\n2 3 0.75\n3 0 1.0\n0 2 0.25\nh 1 0.3\nh 3 -0.2\n",
    "digest.inst": "# generated, seed 3\na: 12 18 3 7\n\nb: 34 1 5\nc: 12 18 3 1 1 5\n",
    "visible.txt": "# 5 visible units\n10110\n01101\n\n11100\n00111\n10101\n01010\n",
    "dataset.csv": "x,y\n0.05,0\n0.2,0\n0.35,0\n0.45,0\n0.55,1\n0.6,1\n0.8,1\n0.95,1\n",
    "mdp.json": json.dumps(
        {
            "n_states": 2,
            "n_actions": 2,
            "gamma": 0.9,
            "transition": [[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.4, 0.6]]],
            "reward": [[0.0, 1.0], [0.5, 0.2]],
        }
    ),
}

# case name -> (subcommand, config); a config value naming an INPUTS key is a file input
CASES = {
    "entropy": ("entropy", {"probs": [0.125, 0.375, 0.5], "log_base": 3.0}),
    "ising-generated": ("ising", {"n_sites": 24, "field": 0.25, "periodic": True, "beta": 0.7, "steps": 3000, "burn_in": 300}),
    "ising-file": ("ising", {"graph": "graph.txt", "beta": 0.5, "steps": 2000, "burn_in": 100}),
    # 20000 trace rows: three CHUNK_ROWS chunks, where the cases above write one
    "ising-chunked": ("ising", {"n_sites": 20, "field": -0.1, "periodic": True, "beta": 0.4, "steps": 20000, "burn_in": 2000}),
    # the chain benchmark's median-job size: 40000 rows, five CHUNK_ROWS chunks, and the
    # strictly increasing step column runs across every chunk edge
    "ising-bench": (
        "ising",
        {"n_sites": 64, "coupling": 0.8, "field": 0.12, "periodic": True, "beta": 0.41, "steps": 40000, "burn_in": 4000},
    ),
    "anneal": ("anneal", {"span": 20, "sweeps": 80, "proposals_per_sweep": 10}),
    "digest-generated": ("digest", {"n_a": 3, "n_b": 3, "total_length": 30, "sweeps": 60, "proposals_per_sweep": 20}),
    "digest-file": ("digest", {"instance": "digest.inst", "sweeps": 60, "proposals_per_sweep": 20}),
    # the benchmark's size and schedule: 15 fragments, 250 x 100, so the energy's cut caches evict
    "digest-bench": (
        "digest",
        {
            "n_a": 7,
            "n_b": 8,
            "total_length": 90,
            "sweeps": 250,
            "proposals_per_sweep": 100,
            "schedule.t0": 5.0,
            "schedule.parameter": 0.98,
        },
    ),
    "ebm-exact": ("ebm", {"data": "visible.txt", "n_hidden": 3, "epochs": 20}),
    "ebm-cd": ("ebm", {"data": "visible.txt", "n_hidden": 3, "method": "cd_k", "k": 2, "epochs": 20, "init_scale": 0.1}),
    "ebm-untrained": ("ebm", {"data": "visible.txt", "n_hidden": 2, "epochs": 0}),
    "conv-generated": ("conv", {"n": 100}),
    "conv-file": ("conv", {"x": [1, 2.5, -3], "y": [0.5, 1, 0.25, -1]}),
    "boost-generated": ("boost", {"n_items": 2000, "threshold": 0.4, "gamma": 0.2}),
    "boost-file": ("boost", {"dataset": "dataset.csv"}),
    "activeinf": ("activeinf", {"mdp": "mdp.json"}),
    "marl": ("marl", {"rows": 3, "cols": 3, "episodes": 30, "steps_per_episode": 5}),
}


def run_matrix(root: Path) -> dict:
    """``{"case/format/seed": {artifact: sha256}}`` for every run of the matrix."""
    for name, text in INPUTS.items():
        (root / name).write_text(text)
    digests = {}
    for case, (subcommand, config) in CASES.items():
        config = {k: str(root / v) if isinstance(v, str) and v in INPUTS else v for k, v in config.items()}
        for fmt in FORMATS:
            for seed in SEEDS:
                run_id = f"{case}/{fmt}/{seed}"
                out = root / run_id.replace("/", "-")
                code = cli.run_experiment(subcommand, config, seed=seed, out_dir=str(out), fmt=fmt)
                if code != 0:
                    raise AssertionError(f"{run_id}: exit {code}")
                digests[run_id] = json.loads((out / "manifest.json").read_text())["artifacts"]
    return digests


def test_cli_artifacts_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_matrix(tmp_path)
    assert list(got) == list(golden)
    for run_id, artifacts in got.items():
        assert list(artifacts.items()) == list(golden[run_id].items()), run_id


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        print(json.dumps(run_matrix(Path(root)), indent=2))
