"""Golden sha256 digests of the library's learn paths on fixed seeds.

Each case hashes the exact bytes a library call returns: ``conv_fft`` and
the radix-2 transforms, ``boost3`` diagnostics and predictions,
``boost_recursive`` predictions, ``run_ising_game`` traces, final spins
and Q tables (items in dict order, floats by repr), and the Boltzmann
machine's block-Gibbs trajectories, trained parameters with their loss
curves, and exact gradient, and the Ising model's exact energies and
Gibbs distribution, Metropolis samples and trace columns, and observables. A byte change in any of them fails here
until the digest is updated on purpose, with the reason recorded in
CHANGES.md. Print the current digests with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from thermolearn.anneal import CoolingSchedule
from thermolearn.boost import NoisyThresholdLearner, WeightedDataset, boost3, boost_recursive
from thermolearn.convolution import conv_fft, fft_radix2, ifft_radix2
from thermolearn.ebm import BMState, BoltzmannMachine, bm_exact_gradient, bm_gibbs_sample, bm_train
from thermolearn.ising import CouplingGraph, chain_graph, enumerate_energies, estimate_observables, metropolis_chain, partition_exact
from thermolearn.marl import IsingGameEnv, NeighborGraph, run_ising_game, torus_graph
from thermolearn.rng import RngStream


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _conv(len_x, len_y, seed):
    gen = np.random.default_rng(seed)
    return _sha(conv_fft(gen.normal(size=len_x), gen.normal(size=len_y)).tobytes())


def _transforms(n, seed):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=n) + 1j * gen.normal(size=n)
    return _sha(fft_radix2(x).tobytes(), ifft_radix2(x).tobytes())


def _boost_data(n, seed):
    xs = np.random.default_rng(seed).random(n)
    queries = np.concatenate([xs, np.linspace(-0.5, 1.5, 257)])  # unseen xs reach the fallback
    return WeightedDataset.uniform(xs, (xs >= 0.5).astype(int)), queries


def _boost3(n, seed):
    dataset, queries = _boost_data(n, seed)
    hyp, diag = boost3(NoisyThresholdLearner(0.5, 0.1), dataset, RngStream(seed))
    voters = getattr(hyp, "voters", (hyp,))
    return _sha(np.array(diag).tobytes(), hyp.predict_many(queries).tobytes(),
                *(h.predict_many(queries).tobytes() for h in voters))


def _boost_recursive(n, target, seed):
    dataset, queries = _boost_data(n, seed)
    hyp = boost_recursive(NoisyThresholdLearner(0.5, 0.1), dataset, target, RngStream(seed))
    return _sha(hyp.predict_many(queries).tobytes())


def _game(graph, episodes, n_bins, seed):
    env = IsingGameEnv(graph, coupling=1.0)
    schedule = CoolingSchedule("geometric", 10.0, (0.1 / 10.0) ** (1.0 / (episodes - 1)))
    result = run_ising_game(env, episodes, 10, 0.1, 0.9, schedule, RngStream(seed), n_bins=n_bins)
    return _sha(result.trace.column("magnetization").tobytes(), result.final_spins.tobytes(),
                [list(table.values.items()) for table in result.q_tables])


def _machine(n_v, n_h, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    return BoltzmannMachine(*(scale * gen.normal(size=shape) for shape in (n_v, n_h, (n_v, n_h))))


def _bm_data(n_v, rows, seed):
    return (np.random.default_rng(seed).random((rows, n_v)) < 0.4).astype(np.uint8)


def _params(machine):
    return (machine.a.tobytes(), machine.b.tobytes(), machine.W.tobytes())


def _gibbs(n_v, n_h, steps, seed, start=None, scale=1.0):
    run = bm_gibbs_sample(_machine(n_v, n_h, seed, scale), steps, RngStream(seed), start)
    return _sha(run.visible.tobytes(), run.hidden.tobytes())


def _train(method, k, seed):
    machine = BoltzmannMachine(np.zeros(6), np.zeros(4), 0.01 * np.random.default_rng(seed).normal(size=(6, 4)))
    trained, losses = bm_train(machine, _bm_data(6, 24, seed), method, 0.1, 40, k, RngStream(seed))
    return _sha(*_params(trained), losses)


def _exact_gradient(seed):
    return _sha(*_params(bm_exact_gradient(_machine(7, 5, seed), _bm_data(7, 30, seed))))


def _ising_graph(n, with_fields, seed):
    gen = np.random.default_rng(seed)
    edges = tuple((i, j, float(gen.normal())) for i in range(n) for j in range(i + 1, n) if gen.random() < 0.3)
    return CouplingGraph(n, edges, gen.normal(size=n) if with_fields else None)


def _enumerate(g, beta):
    exact = partition_exact(g, beta)
    return _sha(enumerate_energies(g).tobytes(), exact.z, exact.gibbs.probs.tobytes())


def _chain(n, with_fields, columns, seed):
    g = _ising_graph(n, with_fields, seed)
    res = metropolis_chain(g, 0.8, 30_000, 3_000, RngStream(seed))
    parts = [res.samples.tobytes(), *(res.trace.column(name).tobytes() for name in columns)]
    if not with_fields:
        obs = estimate_observables(res.samples, g)
        parts += [obs.mean_energy, obs.mean_magnetization, obs.se_energy, obs.se_magnetization, obs.n_samples]
    return _sha(*parts)


IRREGULAR = NeighborGraph.from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5), (4, 6), (5, 6), (2, 6)])

CASES = {
    "conv_fft n16": lambda: _conv(5, 9, 1),
    "conv_fft n4096": lambda: _conv(3000, 1097, 29),
    "conv_fft n65536": lambda: _conv(40000, 25537, 1),
    "fft/ifft n1": lambda: _transforms(1, 1),
    "fft/ifft n1024": lambda: _transforms(1024, 29),
    "boost3 seed1": lambda: _boost3(3000, 1),
    "boost3 seed29": lambda: _boost3(3000, 29),
    "boost_recursive depth3 seed1": lambda: _boost_recursive(2000, 0.2, 1),
    "boost_recursive depth2 seed29": lambda: _boost_recursive(2000, 0.3, 29),
    "game torus8 seed1": lambda: _game(torus_graph(8, 8), 60, 11, 1),
    "game torus8 seed29": lambda: _game(torus_graph(8, 8), 60, 11, 29),
    "game irregular bins3": lambda: _game(IRREGULAR, 40, 3, 1),
    "bm_gibbs_sample 8x6": lambda: _gibbs(8, 6, 2000, 1),
    # weak weights: the chain visits about 3.7k of the 4096 visible states
    "bm_gibbs_sample 12x10": lambda: _gibbs(12, 10, 10_000, 1, scale=0.25),
    "bm_gibbs_sample 1x1 from start": lambda: _gibbs(1, 1, 300, 29, BMState(np.ones(1), np.zeros(1))),
    "bm_train exact_gradient": lambda: _train("exact_gradient", 1, 1),
    "bm_train cd_k k1": lambda: _train("cd_k", 1, 29),
    "bm_train cd_k k3": lambda: _train("cd_k", 3, 1),
    "bm_exact_gradient 7x5": lambda: _exact_gradient(29),
    "ising enumerate/partition 12 sites with fields": lambda: _enumerate(_ising_graph(12, True, 1), 0.7),
    "ising enumerate/partition 17 sites with fields": lambda: _enumerate(_ising_graph(17, True, 29), 0.3),
    # the largest enumeration, at the size the benchmark's 20-site ring runs
    "ising enumerate/partition 20 sites with fields": lambda: _enumerate(_ising_graph(20, True, 7), 0.4),
    "ising enumerate/partition 20-site ring with field": lambda: _enumerate(chain_graph(20, 0.8, -0.15, periodic=True), 0.45),
    # with fields the energy column moves with the initial energy's field sum
    "ising chain 12 sites with fields": lambda: _chain(12, True, ("step", "accepted", "magnetization"), 1),
    "ising chain and observables 16 sites": lambda: _chain(16, False, ("step", "energy", "accepted", "magnetization"), 29),
}

GOLDEN = {
    'bm_exact_gradient 7x5': '329e21402ad76d7e343e466d18cddd80b1cbece0dacbfad817e7624ee79e6f65',
    'bm_gibbs_sample 12x10': 'dd4e435ae22a209f3f4784d52fc2fc6272e02f3b4ac7fd6fae0907bbd447de91',
    'bm_gibbs_sample 1x1 from start': 'db2e35cf11fc630063813de0b0fad4c2a0a0fea2a31a0969c7f7da2b8273a3fc',
    'bm_gibbs_sample 8x6': '0e42b7ca698e3cf10f55b8d2bfbc12699867a375b45371665e42cc60ff4c3ea9',
    'bm_train cd_k k1': 'f3835de04b37565556cda88a5930e06a9408cf321e98b987adf84f18dc85719c',
    'bm_train cd_k k3': 'cb1f370b80112fa89263cc2d19790e880e761a1d07db51983dbfbe42be0686b2',
    'bm_train exact_gradient': 'd755a0e48ade0a0240bceeb710c62718aaa35d222a8ef6f70f8493b2d53a81b0',
    'ising chain 12 sites with fields': 'ec406cc0a3790c7c78f2481bfd29b66e599afc9fbfcfeda1f7702c8e62ba2ea1',
    'ising chain and observables 16 sites': '868bfa9e1ad83d7b4b352d0ce1743496c84d48eff102c59e50fd3be92486f375',
    'ising enumerate/partition 12 sites with fields': 'f2b5e508310ee54718187062da1d832a1391870dd15add6f75a8b8cc99dcdb4f',
    'ising enumerate/partition 17 sites with fields': 'ee37a7171ba87434b147432497eac5f439ca78581def1fdd0e5647d67e367da8',
    'ising enumerate/partition 20 sites with fields': '8b74fce4ca77ea68941d5bf42e241912eb2a24d906e44072d83a1b2aa1933915',
    'ising enumerate/partition 20-site ring with field': '2320fa401aecdf16cde983937fe9a6a647079143157b2ec8dff3dbbd8c08818a',
    'boost3 seed1': '13f33b17aefa4fd416d18857774d1ae484c94e42e1ea584aa9c03d80d5e5d9fa',
    'boost3 seed29': '475daec0e6c9cf96a3b3ab0763c2efef0a3f61fae575f43f017d47cff8bef9e3',
    'boost_recursive depth2 seed29': 'ebdaf2fcb705a89c2d1a33fb5320c5661e60173a1d9a2424338bf37f439eda19',
    'boost_recursive depth3 seed1': 'dd8200234c115d21acb24f231f87906ffee06cae174e6a95a451759eac07bdcf',
    'conv_fft n16': '776dc970622af48eb40223c9d705305034079d0d85a7469429f71aa6deb86adc',
    'conv_fft n4096': '7713c60ae9cd75a46a45590f589fc35dfbaae828831389f03ea6f9652acc4baf',
    'conv_fft n65536': '840d317ddc403bee5149e312f44c0096259fdeb7ab25ad30d4fc959415b57f38',
    'fft/ifft n1': '172754589b16e0ae9af7349cdb301926c2ebd9858cb8ff64f65633cc5c3f3b80',
    'fft/ifft n1024': 'edb7eab403ba51482e09dfa2c182087c93b48fb05a88576eb0e40d4174fe6c24',
    'game irregular bins3': '6a9e7c39718fc499a2c8ae75f56972d6ef80798e53a189352f937f84fd93d3d5',
    'game torus8 seed1': 'a7ca62a1f70758fbfb973b5ca26f252263e72717ab6c97990a52e02f85c5c3d0',
    'game torus8 seed29': 'fec422fd76cc3c227f2b2e51412c1c08b9fa7979b07c9efd37c965485b19facd',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {CASES[name]()!r},")
