"""Statistical-physics tools for machine learning experiments.

Entropy and information measures, Monte Carlo estimators, Ising-model
sampling with exact small-system references, simulated annealing, a
small Boltzmann machine, FFT convolution, three-hypothesis boosting,
free-energy planning, mean-field variational inference, mean-field
multi-agent Q-learning, and a seeded CLI runner.

Only the core every run uses (errors, config, random streams, traces and
annealing) is imported with the package; each other subsystem is imported
the first time one of its names is looked up here (PEP 562).
"""

from importlib import import_module as _import_module

from .errors import (
    CapacityError,
    ConvergenceError,
    DegenerateSplitError,
    DomainError,
    NumericalError,
    ThermolearnError,
    ValidationError,
)
from .rng import RngStream
from .trace import Trace

# ``anneal`` is both a submodule and an exported function. This line is the
# submodule's first import, so the import system binds the module here and
# the function then replaces it; later imports of ``thermolearn.anneal`` find
# the module loaded and leave the name alone.
from .anneal import AnnealResult, CoolingSchedule, EnergyLandscape, anneal

__version__ = "0.1.0"

# Every other exported name, by the submodule that defines it.
_LAZY = {
    "activeinf": (
        "DiscreteMDP", "FactorizedPosterior", "GenerativeModel", "fe_value_iteration", "mean_field_kl",
        "mean_field_update", "value_iteration",
    ),
    "boost": (
        "NoisyThresholdLearner", "WeightedDataset", "boost3", "boost_error_bound", "boost_recursion_depth",
        "boost_recursive", "empirical_risk", "reweight_d2", "reweight_d3",
    ),
    "convolution": ("conv_fft", "conv_naive", "fft_radix2", "ifft_radix2"),
    "digest": (
        "DigestLandscape", "DigestOrdering", "DoubleDigestInstance", "brute_force_min_energy", "double_digest_energy",
        "double_digest_implied_fragments", "generate_instance",
    ),
    "distributions": ("DiscreteDistribution", "JointDistribution"),
    "ebm": (
        "BMState", "BoltzmannMachine", "bm_energy", "bm_exact_gradient", "bm_gibbs_sample", "bm_log_likelihood",
        "bm_partition_exact", "bm_train",
    ),
    "info": ("entropy_nats", "entropy_shannon", "ib_objective", "kl_divergence", "mutual_information"),
    "ising": (
        "CouplingGraph", "chain_graph", "complete_graph", "estimate_observables", "ising_energy", "metropolis_chain",
        "partition_exact",
    ),
    "marl": (
        "IsingGameEnv", "NeighborGraph", "QTable", "mf_actor_critic_grad", "mf_q_update", "run_ising_game", "torus_graph",
    ),
    "sampling": ("importance_estimate",),
}
# name -> submodule that binds it; a lazy submodule's own name maps to itself
_SOURCE = {name: module for module, names in _LAZY.items() for name in (module, *names)}

# the eager names above (the core submodules included) and the lazy ones
__all__ = sorted({name for name in globals() if not name.startswith("_")} | set(_SOURCE))


def __getattr__(name):
    """Import the submodule behind a lazy name on first lookup and keep the value here."""
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
