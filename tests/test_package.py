"""The package namespace: the names it exports, and the submodules a run loads."""

import importlib
import json
import operator
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thermolearn

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# Every name the package bound when it imported all its subsystems eagerly,
# by the submodule that defines it, less the names deleted since.
EXPORTS = {
    "activeinf": (
        "DiscreteMDP", "FactorizedPosterior", "GenerativeModel", "fe_value_iteration", "mean_field_kl",
        "mean_field_update", "value_iteration",
    ),
    "anneal": ("AnnealResult", "CoolingSchedule", "EnergyLandscape", "anneal"),
    "boost": (
        "NoisyThresholdLearner", "WeightedDataset", "boost3", "boost_error_bound", "boost_recursion_depth",
        "boost_recursive", "empirical_risk", "reweight_d2", "reweight_d3",
    ),
    "convolution": ("conv_fft", "conv_naive", "fft_radix2", "ifft_radix2"),
    "digest": (
        "DigestLandscape", "DigestOrdering", "DoubleDigestInstance", "brute_force_min_energy",
        "double_digest_energy", "double_digest_implied_fragments", "generate_instance",
    ),
    "distributions": ("DiscreteDistribution", "JointDistribution"),
    "ebm": (
        "BMState", "BoltzmannMachine", "bm_energy", "bm_exact_gradient", "bm_gibbs_sample", "bm_log_likelihood",
        "bm_partition_exact", "bm_train",
    ),
    "errors": (
        "CapacityError", "ConvergenceError", "DegenerateSplitError", "DomainError", "NumericalError",
        "ThermolearnError", "ValidationError",
    ),
    "info": ("entropy_nats", "entropy_shannon", "ib_objective", "kl_divergence", "mutual_information"),
    "ising": (
        "CouplingGraph", "chain_graph", "complete_graph", "estimate_observables", "ising_energy", "metropolis_chain",
        "partition_exact",
    ),
    "marl": (
        "IsingGameEnv", "NeighborGraph", "QTable", "mf_actor_critic_grad", "mf_q_update", "run_ising_game", "torus_graph",
    ),
    "rng": ("RngStream",),
    "sampling": ("importance_estimate",),
    "trace": ("Trace",),
}
# the submodules were bound too, except anneal, whose name is the function
SUBMODULES = sorted(set(EXPORTS) - {"anneal"} | {"config"})
PUBLIC = sorted({name for names in EXPORTS.values() for name in names} | set(SUBMODULES))

# the subsystems an eager package used to load on every import
SUBSYSTEMS = (
    "activeinf", "boost", "convolution", "digest", "distributions", "ebm", "info", "ising", "marl", "sampling",
)


def _fresh(code: str):
    """Run ``code`` in a new interpreter that imports thermolearn from this checkout; returns what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = "sorted(m[len('thermolearn.'):] for m in sys.modules if m.startswith('thermolearn.'))"


def _loaded_by_run(argv):
    """(submodules loaded by ``import thermolearn``, submodules loaded after ``cli.main(argv)``, its exit code)."""
    return _fresh(
        "import json, sys\n"
        "import thermolearn\n"
        f"bare = {_LOADED}\n"
        "from thermolearn import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(json.dumps([bare, {_LOADED}, code]))\n"
    )


def test_a_run_loads_only_its_subcommands_modules(tmp_path):
    (tmp_path / "i.cfg").write_text("n_sites = 4\nbeta = 0.5\nsteps = 200\n")
    bare, after, code = _loaded_by_run(["ising", "--config", str(tmp_path / "i.cfg"), "--out", str(tmp_path / "i")])
    assert code == 0
    assert bare == ["anneal", "config", "errors", "rng", "trace"]
    assert set(after) & set(SUBSYSTEMS) == {"ising", "distributions"}
    (tmp_path / "d.cfg").write_text("n_a = 2\nn_b = 2\ntotal_length = 20\nsweeps = 5\nproposals_per_sweep = 5\n")
    _, after, code = _loaded_by_run(["digest", "--config", str(tmp_path / "d.cfg"), "--out", str(tmp_path / "d")])
    assert code == 0
    assert "digest" in after
    assert not set(after) & {"ising", "ebm", "marl", "boost", "activeinf", "info", "sampling", "convolution"}
    # the game validates its graph's edges by config's rule, not by loading ising
    after = _fresh(
        "import json, sys\n"
        "from thermolearn import CoolingSchedule, RngStream, marl\n"
        "env = marl.IsingGameEnv(marl.torus_graph(2, 3))\n"
        "marl.run_ising_game(env, 2, 2, 0.1, 0.9, CoolingSchedule('constant', 1.0), RngStream(0))\n"
        f"print(json.dumps({_LOADED}))\n"
    )
    assert "marl" in after and "ising" not in after


def test_namespace_keeps_every_name():
    assert thermolearn.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(thermolearn))
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(thermolearn, name) is getattr(sys.modules[f"thermolearn.{module}"], name), name
    for module in SUBMODULES:
        assert getattr(thermolearn, module) is sys.modules[f"thermolearn.{module}"]
    star = {}
    exec("from thermolearn import *", star)
    assert {name: star[name] for name in PUBLIC} == {name: getattr(thermolearn, name) for name in PUBLIC}
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        thermolearn.no_such_name
    assert not hasattr(thermolearn, "no_such_name")
    with pytest.raises(ImportError):
        exec("from thermolearn import no_such_name", {})


def test_every_submodule_exports_the_names_its_all_lists():
    # a stale __all__ entry breaks the submodule's star import, and a _LAZY
    # entry that is a string, not a tuple, lists its letters as names
    modules = [info.name for info in pkgutil.iter_modules(thermolearn.__path__) if info.name != "__main__"]
    assert set(SUBMODULES) | {"anneal"} <= set(modules)
    for module in modules:
        namespace = importlib.import_module(f"thermolearn.{module}")
        exported = getattr(namespace, "__all__", None)
        if exported is None:
            continue
        assert isinstance(exported, list) and len(set(exported)) == len(exported), module
        assert [name for name in exported if not hasattr(namespace, name)] == [], module
        star = {}
        exec(f"from thermolearn.{module} import *", star)
        assert set(exported) <= set(star), module
    for module, names in thermolearn._LAZY.items():
        namespace = importlib.import_module(f"thermolearn.{module}")
        assert type(names) is tuple and all(hasattr(namespace, name) for name in names), module


def test_readme_names_resolve():
    # every backticked `module.name` (or `module.Class.name`) in the README whose module is a
    # submodule names one of its attributes; `trace.csv` and `trace.json` are artifact files
    submodules = {info.name for info in pkgutil.iter_modules(thermolearn.__path__)}
    refs = set(re.findall(r"`(\w+)\.(\w+(?:\.\w+)*)`", (ROOT / "README.md").read_text()))
    refs = sorted((module, name) for module, name in refs if module in submodules and name not in ("csv", "json"))
    assert len(refs) > 20  # the pattern still finds the README's references
    missing = []
    for module, name in refs:
        try:
            operator.attrgetter(name)(importlib.import_module(f"thermolearn.{module}"))
        except AttributeError:
            missing.append(f"{module}.{name}")
    assert missing == []


def test_lazy_names_load_on_first_use():
    # in a fresh interpreter, so that no other test has loaded the submodules yet
    after, anneal_is_function, has_conv, module_conv = _fresh(
        "import json, sys\n"
        "import thermolearn\n"
        "import thermolearn.digest\n"
        "from thermolearn import convolution\n"
        "print(json.dumps([" + _LOADED + ", thermolearn.anneal is sys.modules['thermolearn.anneal'].anneal,"
        " hasattr(thermolearn, 'conv_fft'), convolution is sys.modules['thermolearn.convolution']]))\n"
    )
    assert {"digest", "convolution"} <= set(after)
    assert anneal_is_function and has_conv and module_conv
