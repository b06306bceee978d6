import csv
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import thermolearn
from thermolearn import cli
from thermolearn.activeinf import DiscreteMDP, mdp_to_json
from thermolearn.boost import load_dataset
from thermolearn.config import (
    FieldSpec,
    parse_config,
    parse_config_file,
    parse_scalar,
    resolved,
    validate_against,
)
from thermolearn.digest import DoubleDigestInstance, dump_instance, load_instance
from thermolearn.ebm import load_visible_data
from thermolearn.errors import ValidationError
from thermolearn.ising import CouplingGraph, dump_coupling_graph, load_coupling_graph
from thermolearn.marl import torus_graph


# --- config grammar ---------------------------------------------------------


def test_parse_config_grammar():
    text = """
# a comment
probs = [0.25, 0.75]
log_base = 2.0
steps = 1000
periodic = false
verbose = true
label = "two words"
kind = geometric
empty = []
temp.start = 10.0
"""
    cfg = parse_config(text)
    assert cfg["probs"] == [0.25, 0.75]
    assert cfg["log_base"] == 2.0 and isinstance(cfg["log_base"], float)
    assert cfg["steps"] == 1000 and isinstance(cfg["steps"], int)
    assert cfg["periodic"] is False
    assert cfg["verbose"] is True
    assert cfg["label"] == "two words"
    assert cfg["kind"] == "geometric"
    assert cfg["empty"] == []
    assert cfg["temp.start"] == 10.0


def test_parse_scalar_typing():
    assert parse_scalar("3") == 3 and isinstance(parse_scalar("3"), int)
    assert parse_scalar("3.5") == 3.5
    assert parse_scalar("1e-3") == 1e-3
    assert parse_scalar("true") is True
    assert parse_scalar("false") is False
    assert parse_scalar('"true"') == "true"  # quoting forces string
    assert parse_scalar("abc") == "abc"
    with pytest.raises(ValidationError):
        parse_scalar("")


def test_parse_config_rejects_malformed_lines():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ValidationError, match="invalid key"):
        parse_config("Bad = 1\n")
    with pytest.raises(ValidationError, match="invalid key"):
        parse_config("1st = 1\n")
    with pytest.raises(ValidationError, match="expected 'key = value'"):
        parse_config("just some words\n")
    with pytest.raises(ValidationError, match="unterminated list"):
        parse_config("xs = [1, 2\n")


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        parse_config_file(tmp_path / "nope.cfg")


def test_parse_config_file_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("label = caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ValidationError, match="cannot read config .*latin1.cfg"):
        parse_config_file(path)


@pytest.mark.parametrize("load", [load_coupling_graph, load_visible_data, load_instance, load_dataset])
def test_loaders_reject_text_that_is_not_utf8(tmp_path, load):
    # each raised a bare UnicodeDecodeError before
    path = tmp_path / "latin1.txt"
    path.write_bytes("1\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ValidationError, match="latin1.txt: not UTF-8 text"):
        load(path)


def test_inputs_are_read_as_utf8_under_an_ascii_locale(tmp_path):
    # Python decodes open() text as ASCII under this environment; the run
    # exited 1 on the non-ASCII comments before
    graph = tmp_path / "ring.txt"
    graph.write_text("# anneau à trois sites — café\n3\n0 1 1.0\n1 2 -0.5\n2 0 1.0\nh 1 0.25\n", encoding="utf-8")
    cfg = tmp_path / "ring.cfg"
    cfg.write_text(f'# réglage: β = 0.5\ngraph = "{graph}"\nbeta = 0.5\nsteps = 500\n', encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    # PYTHONDONTWRITEBYTECODE passes through, so a run that asks for no bytecode leaves none in src/
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHON")) or k == "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    argv = ["ising", "--config", str(cfg), "--seed", "3", "--out"]
    proc = subprocess.run([sys.executable, "-m", "thermolearn.cli", *argv, str(tmp_path / "c")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert cli.main([*argv, str(tmp_path / "utf8")]) == 0
    for name in ("result.json", "trace.csv"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes()


# --- schema validation -------------------------------------------------------


def test_field_spec_type_checks():
    assert FieldSpec("int").type_ok(3)
    assert not FieldSpec("int").type_ok(True)  # bools are not ints here
    assert not FieldSpec("int").type_ok(3.0)
    assert FieldSpec("real").type_ok(3)  # ints promote to reals
    assert FieldSpec("real").type_ok(3.5)
    assert not FieldSpec("real").type_ok(True)
    assert FieldSpec("bool").type_ok(False)
    assert FieldSpec("string").type_ok("x")
    assert FieldSpec("list").type_ok([1])
    assert FieldSpec("list").type_ok([0.5, 2])
    assert not FieldSpec("list").type_ok("x")
    assert not FieldSpec("list").type_ok([1, "a"])  # list elements are numbers
    assert not FieldSpec("list").type_ok([0.5, True])


def test_validate_against_diagnostics():
    schema = {
        "steps": FieldSpec("int", required=True, check=lambda v: None if v > 0 else "must be > 0"),
        "beta": FieldSpec("real", default=1.0),
    }
    assert validate_against(schema, {"steps": 10}) == []
    diags = validate_against(schema, {"steps": -1, "foo": 1})
    assert any(d.startswith("foo:") for d in diags)
    assert any(d.startswith("steps:") for d in diags)
    assert any(d.startswith("steps:") for d in validate_against(schema, {}))
    assert any("expected int" in d for d in validate_against(schema, {"steps": "ten"}))
    # reals and list elements must be finite floats; an int beyond the float range is not
    lists = {"xs": FieldSpec("list")}
    for value in (float("inf"), float("nan"), 10**400):
        assert validate_against(schema, {"steps": 1, "beta": value}) == ["beta: must be finite"]
        assert validate_against(lists, {"xs": [1.0, value]}) == ["xs: must be finite"]


def test_resolved_fills_defaults():
    schema = {"beta": FieldSpec("real", default=1.0), "steps": FieldSpec("int", required=True)}
    out = resolved(schema, {"steps": 5})
    assert out == {"steps": 5, "beta": 1.0}
    assert resolved(schema, {"steps": 5, "beta": 2.0})["beta"] == 2.0


def test_validate_config_per_subcommand():
    assert cli.validate_config("entropy", {"probs": [0.5, 0.5]}) == []
    diags = cli.validate_config("entropy", {})
    assert diags and "probs" in diags[0]
    diags = cli.validate_config("ising", {"n_sites": 3, "beta": 1.0, "steps": -5})
    assert any(d.startswith("steps:") for d in diags)
    diags = cli.validate_config("entropy", {"probs": [1.0], "foo": 1})
    assert any(d.startswith("foo:") for d in diags)
    assert cli.validate_config("nope", {}) == ["subcommand: unknown subcommand 'nope'"]


def test_anneal_landscape_is_an_unknown_key():
    # the key took one value, "quadratic"; result.json still names that landscape
    assert cli.validate_config("anneal", {"sweeps": 3}) == []
    assert cli.validate_config("anneal", {"sweeps": 3, "landscape": "quadratic"}) == ["landscape: unknown key"]


def test_validate_config_cross_checks():
    # ising needs a graph source and steps > burn_in
    assert any(
        "graph" in d for d in cli.validate_config("ising", {"beta": 1.0, "steps": 10})
    )
    assert any(
        "burn_in" in d
        for d in cli.validate_config(
            "ising", {"n_sites": 3, "beta": 1.0, "steps": 10, "burn_in": 10}
        )
    )
    # digest: instance file or full generator spec
    diags = cli.validate_config("digest", {"n_a": 3})
    assert any(d.startswith("n_b:") for d in diags)
    assert any(d.startswith("total_length:") for d in diags)
    assert cli.validate_config("digest", {"instance": "x.inst"}) == []
    # conv: n or both signals
    assert cli.validate_config("conv", {}) != []
    assert cli.validate_config("conv", {"x": [1.0]}) != []
    assert cli.validate_config("conv", {"x": [1.0], "y": [1.0]}) == []
    assert cli.validate_config("conv", {"n": 8}) == []
    # marl: at least two agents
    assert cli.validate_config("marl", {"rows": 1, "cols": 1}) != []
    assert cli.validate_config("marl", {"rows": 1, "cols": 2}) == []
    # marl: the temperature schedule cools or holds (a rising one ran at a constant temp.start)
    assert cli.validate_config("marl", {"temp.start": 1.0, "temp.end": 2.0}) == ["temp.end: must not exceed temp.start"]
    assert cli.validate_config("marl", {"temp.start": 2.0, "temp.end": 2.0}) == []
    # ... and its ratio per episode must not underflow to 0
    assert cli.validate_config("marl", {"temp.start": 1e300, "temp.end": 1e-300, "episodes": 2}) != []
    assert cli.validate_config("marl", {"temp.start": 1e300, "temp.end": 1e-300, "episodes": 1}) == []
    assert cli.validate_config("marl", {"temp.start": 1.0, "temp.end": 1e-300, "episodes": 2}) == []
    assert cli.validate_config("marl", {"temp.start": 1e-320, "temp.end": 1e-320}) != []
    # one episode runs at temp.start only
    assert cli.validate_config("marl", {"temp.start": 1.0, "temp.end": 1e-320, "episodes": 1}) == []
    assert cli.validate_config("marl", {"temp.start": 1e-320, "temp.end": 1e-320, "episodes": 1}) == [
        "temp.start: too small for 1/temp.start to be finite, got 1e-320"
    ]
    # anneal and digest: the schedule builds and stays above T = 0 to the last sweep (each of
    # these ran, and exited 1 under a library name, after writing its manifest)
    for sub, instance in (("anneal", {}), ("digest", {"n_a": 3, "n_b": 3, "total_length": 30})):
        diags = cli.validate_config(sub, {**instance, "sweeps": 1200, "schedule.parameter": 0.5})
        assert diags == ["schedule.parameter: the temperature reaches 0 by the last sweep (1199); "
                         "cool more slowly or run fewer sweeps"], sub
    assert cli.validate_config("anneal", {"sweeps": 1075, "schedule.parameter": 0.5}) == []
    assert cli.validate_config("anneal", {"sweeps": 10, "schedule.parameter": 1.5}) == [
        "schedule.parameter: geometric ratio must be a finite real in (0, 1], got 1.5"
    ]
    assert cli.validate_config(
        "anneal", {"sweeps": 10, "schedule.kind": "linear", "schedule.t0": 5.0, "schedule.floor": 9.0}
    ) == ["schedule.floor: linear floor must be a finite real in (0, 5.0], got 9.0"]
    # entropy: probs must be a distribution
    assert cli.validate_config("entropy", {"probs": [0.5, 0.6]}) == [
        "probs: must sum to 1 along its last axis within 1e-09, got a sum of 1.1"
    ]
    assert cli.validate_config("entropy", {"probs": [0.5, 0.5]}) == []


# --- exit codes ---------------------------------------------------------------


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_usage_errors_exit_64(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "e.cfg", "probs = [0.5, 0.5]\n")
    assert cli.main(["frobnicate", "--config", cfg]) == 64
    assert cli.main(["entropy"]) == 64  # --config is required
    assert cli.main(["entropy", "--config", cfg, "--format", "xml"]) == 64
    assert cli.run_experiment("frobnicate", {}, out_dir=str(tmp_path / "o")) == 64
    capsys.readouterr()
    assert cli.run_experiment("entropy", {"probs": [0.5, 0.5]}, out_dir=str(tmp_path / "o"), fmt="tsv") == 64
    assert capsys.readouterr().err == "unknown format: tsv\n"
    assert not (tmp_path / "o").exists()


def test_seed_outside_u64_exits_64(tmp_path, capsys):
    # RngStream reduces a seed mod 2^64, so -1 and 2^64 - 1 ran alike under two manifests
    cfg = write_cfg(tmp_path, "e.cfg", "probs = [0.5, 0.5]\n")
    for seed in (-1, 2**64):
        out = tmp_path / f"o{seed}"
        assert cli.main(["entropy", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 64
        assert f"usage error: seed must be an integer in [0, {2**64}), got {seed}" in capsys.readouterr().err
        assert not out.exists()
    assert cli.run_experiment("entropy", {"probs": [0.5, 0.5]}, seed=-1, out_dir=str(tmp_path / "api")) == 64
    for seed in (0, 2**64 - 1):
        out = tmp_path / f"o{seed}"
        assert cli.main(["entropy", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == seed


def test_validation_errors_exit_1(tmp_path, capsys):
    missing = cli.main(["entropy", "--config", str(tmp_path / "absent.cfg")])
    assert missing == 1
    bad_syntax = write_cfg(tmp_path, "bad.cfg", "no equals sign\n")
    assert cli.main(["entropy", "--config", bad_syntax]) == 1
    # missing required key: exit 1 and the diagnostic names the key
    empty = write_cfg(tmp_path, "empty.cfg", "# nothing\n")
    assert cli.main(["entropy", "--config", empty, "--out", str(tmp_path / "o1")]) == 1
    assert "probs" in capsys.readouterr().err
    # probabilities that do not sum to 1 also map to 1
    not_dist = write_cfg(tmp_path, "nd.cfg", "probs = [0.5, 0.2]\n")
    assert cli.main(["entropy", "--config", not_dist, "--out", str(tmp_path / "o2")]) == 1
    # list elements must be numbers: strings and bools are config errors
    for sub, text in (
        ("entropy", 'probs = [0.5, "a"]\n'),
        ("entropy", "probs = [0.5, true]\n"),
        ("conv", 'x = [1, "a"]\ny = [1.0]\n'),
    ):
        cfg = write_cfg(tmp_path, "list.cfg", text)
        assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o3")]) == 1
        assert "expected list of numbers" in capsys.readouterr().err
    # reals and list elements that are not finite: 1e999 parses to inf, and
    # before this check log_base = inf and threshold = nan ran and exited 0
    for sub, text, key in (
        ("entropy", "probs = [0.5, 0.5]\nlog_base = inf\n", "log_base"),
        ("entropy", "probs = [0.5, 0.5]\nlog_base = 1e999\n", "log_base"),
        ("boost", "threshold = nan\nn_items = 100\n", "threshold"),
        ("conv", "x = [1.0, 1e999]\ny = [1.0]\n", "x"),
        ("ising", f"n_sites = 3\nbeta = 1.0\nsteps = 10\ncoupling = {10**400}\n", "coupling"),
    ):
        cfg = write_cfg(tmp_path, "inf.cfg", text)
        assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o10")]) == 1
        assert f"config error: {key}: must be finite" in capsys.readouterr().err
    # a span whose start-state draw does not fit numpy's int64 integers
    cfg = write_cfg(tmp_path, "span.cfg", "span = 100000000000000000000\nsweeps = 5\n")
    assert cli.main(["anneal", "--config", cfg, "--out", str(tmp_path / "o5")]) == 1
    assert "span" in capsys.readouterr().err
    # a total_length beyond numpy's population of 2^63 - 1 cut positions ended in a traceback
    cfg = write_cfg(tmp_path, "long.cfg", f"n_a = 3\nn_b = 3\ntotal_length = {10**19}\n")
    assert cli.main(["digest", "--config", cfg, "--out", str(tmp_path / "o5")]) == 1
    assert capsys.readouterr().err == (
        f"config error: total_length: must be an integer in [1, {2**63}), got {10**19}\n"
    )
    # a dataset row whose x is not finite: the message names the file and line
    for x in ("nan", "inf", "-inf"):
        data = tmp_path / "d.csv"
        data.write_text(f"x,y\n0.25,0\n{x},1\n")
        cfg = write_cfg(tmp_path, "d.cfg", f'dataset = "{data}"\n')
        assert cli.main(["boost", "--config", cfg, "--out", str(tmp_path / "o6")]) == 1
        assert "d.csv:3:" in capsys.readouterr().err
    # malformed MDP files: invalid JSON, a non-numeric table, a non-numeric
    # discount, a bool discount
    for text in (
        '{"n_states": 1,',
        '{"n_states": 1, "n_actions": 1, "gamma": 0.5, "transition": [[["x"]]], "reward": [[0]]}',
        '{"n_states": 1, "n_actions": 1, "gamma": "a", "transition": [[[1.0]]], "reward": [[0]]}',
        '{"n_states": 1, "n_actions": 1, "gamma": false, "transition": [[[1.0]]], "reward": [[0]]}',
        # a NaN transition ran 100 000 sweeps and exited 2 ("did not reach tolerance")
        '{"n_states": 1, "n_actions": 1, "gamma": 0.5, "transition": [[[NaN]]], "reward": [[0]]}',
    ):
        mdp = tmp_path / "m.json"
        mdp.write_text(text)
        cfg = write_cfg(tmp_path, "m.cfg", f'mdp = "{mdp}"\n')
        assert cli.main(["activeinf", "--config", cfg, "--out", str(tmp_path / "o7")]) == 1
        assert "MDP JSON" in capsys.readouterr().err
    # files that are not UTF-8 text: the config itself, then each subcommand's
    # input file; the message names the file
    latin1 = "caf\u00e9\n".encode("latin-1")
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"probs = [0.5, 0.5]\n# " + latin1)
    assert cli.main(["entropy", "--config", str(cfg), "--out", str(tmp_path / "o8")]) == 1
    assert "latin1.cfg" in capsys.readouterr().err
    for sub, key, extra in (
        ("ising", "graph", "beta = 1.0\nsteps = 10\n"),
        ("ebm", "data", "n_hidden = 2\n"),
        ("digest", "instance", ""),
        ("boost", "dataset", ""),
        ("activeinf", "mdp", ""),
    ):
        data = tmp_path / f"{sub}.latin1"
        data.write_bytes(b"1\n" + latin1)
        cfg = write_cfg(tmp_path, "u.cfg", f'{key} = "{data}"\n{extra}')
        assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / "o9")]) == 1
        assert f"{sub}.latin1" in capsys.readouterr().err
    # malformed graph files: the message names the file and line
    # a site count numpy cannot hold escaped as its ValueError (counts of 2^63 and more fail
    # before anything is allocated)
    huge = ((f"{count}\n0 1 1.0\n", 1) for count in (2**63, 10**20))
    for text, line in (("3\nh -1 0.5\n", 2), ("3\nh 7 0.5\n", 2), ("3\n0 1 x\n", 2), ("-3\n", 1), *huge):
        graph = tmp_path / "g.txt"
        graph.write_text(text)
        cfg = write_cfg(tmp_path, "g.cfg", f'graph = "{graph}"\nbeta = 1.0\nsteps = 10\n')
        assert cli.main(["ising", "--config", cfg, "--out", str(tmp_path / "o4")]) == 1
        assert f"g.txt:{line}:" in capsys.readouterr().err


RING_30 = "n_sites = 30\nperiodic = true\nbeta = 0.5\nsteps = 200\n"


def test_numerical_failure_exits_2(tmp_path, capsys, monkeypatch):
    # discount so close to 1 that value iteration stalls out its sweep budget
    mdp = DiscreteMDP(
        transition=np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.4, 0.6]]]),
        reward=np.array([[0.0, 1.0], [0.5, 0.2]]),
        gamma=0.999999,
    )
    mdp_path = tmp_path / "slow.json"
    mdp_path.write_text(mdp_to_json(mdp))
    cfg = write_cfg(tmp_path, "ai.cfg", f'mdp = "{mdp_path}"\ntolerance = 1e-12\n')
    out = tmp_path / "run"
    assert cli.main(["activeinf", "--config", cfg, "--out", str(out)]) == 2
    assert "did not reach tolerance" in capsys.readouterr().err
    # the manifest was written before the computation started
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == {}
    assert not (out / "result.json").exists()
    # exact partition value beyond the float range (ln Z = 9000)
    cfg = write_cfg(tmp_path, "cold.cfg", "n_sites = 10\nbeta = 1000.0\nsteps = 100\n")
    assert cli.main(["ising", "--config", cfg, "--out", str(tmp_path / "cold")]) == 2
    assert "numerical failure" in capsys.readouterr().err
    # a convolution that overflows the float range (it used to write NaN and Infinity)
    cfg = write_cfg(tmp_path, "big.cfg", "x = [1e308]\ny = [1e308]\n")
    assert cli.main(["conv", "--config", cfg, "--out", str(tmp_path / "big")]) == 2
    assert "numerical failure" in capsys.readouterr().err
    # values that pass the float range, V = 2e308: it ran all 100 000 sweeps
    # after two numpy warnings, then blamed the tolerance
    (tmp_path / "big.json").write_text(mdp_to_json(DiscreteMDP(np.ones((1, 1, 1)), np.array([[1e308]]), 0.5)))
    cfg = write_cfg(tmp_path, "big_v.cfg", f'mdp = "{tmp_path / "big.json"}"\n')
    assert cli.main(["activeinf", "--config", cfg, "--out", str(tmp_path / "big_v")]) == 2
    assert capsys.readouterr().err == "numerical failure: value_iteration: values overflow a float at sweep 4\n"
    # a start state's energy beyond the float range: it exited 0 with a NaN mean
    # energy after a numpy warning, and the field's sum raised OverflowError
    for name, key in (("j", "coupling"), ("h", "field")):
        cfg = write_cfg(tmp_path, f"{name}.cfg", RING_30 + f"{key} = 1e308\n")
        assert cli.main(["ising", "--config", cfg, "--out", str(tmp_path / name)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: ising_energy: the energy or a partial sum of it is beyond the float range\n"
        )
    # the route gate catches a NaN difference, which compares false with any bound
    cfg = write_cfg(tmp_path, "c.cfg", "x = [1.0, 2.0]\ny = [1.0]\n")
    monkeypatch.setattr(thermolearn.convolution, "conv_naive", lambda x, y: np.full(2, np.nan))
    assert cli.main(["conv", "--config", cfg, "--out", str(tmp_path / "nan")]) == 2
    assert "disagree by nan" in capsys.readouterr().err


def test_ising_energy_statistics_near_the_float_range_are_finite(tmp_path):
    # the batch means' squared deviations overflowed: se_energy was Infinity after a numpy warning
    cfg = write_cfg(tmp_path, "j.cfg", RING_30 + "coupling = 1e300\n")
    out = tmp_path / "run"
    assert cli.main(["ising", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    with open(out / "trace.csv", newline="") as fh:
        energies = [Fraction(float(row["energy"])) for row in csv.DictReader(fh)]
    per = 200 // 14  # the default 14 batches of int(sqrt(200))
    means = [sum(energies[b * per : (b + 1) * per]) / per for b in range(14)]
    variance = sum((x - sum(means) / 14) ** 2 for x in means) / 13 / 14
    assert result["mean_energy"] == pytest.approx(float(sum(energies) / 200), rel=1e-15)
    # scaled by 2^-1996 so that the square root's argument fits a float
    assert result["se_energy"] == pytest.approx(math.sqrt(variance / 2**1996) * 2**998, rel=1e-12)
    assert result["se_energy"] > 1e299


def test_conv_overflow_prints_only_the_failure_line(tmp_path):
    # numpy's overflow warnings and their source lines came first
    cfg = write_cfg(tmp_path, "big.cfg", "x = [1e308]\ny = [1e308]\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "thermolearn.cli", "conv", "--config", cfg, "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith("numerical failure: conv_fft")


@pytest.mark.parametrize("beta, message", [
    ("1e308", "numerical failure: partition_exact: beta * energy overflows a float at beta = 1e+308"),
    ("4e307", "numerical failure: partition function exp(1.6e+308) overflows a float"),
])
def test_ising_beta_energy_overflow_prints_only_the_failure_line(tmp_path, beta, message):
    # numpy's overflow and invalid-value warnings came first, then a validation failure (exit 1) on NaN probabilities
    cfg = write_cfg(tmp_path, "hot.cfg", f"n_sites = 5\nbeta = {beta}\nsteps = 100\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "thermolearn.cli", "ising", "--config", cfg, "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == message + "\n"


def _cli_process(tmp_path, subcommand, cfg):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "thermolearn.cli", subcommand, "--config", cfg, "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("rows, n_hidden, epochs, method, message", [
    ("0101\n1100\n0011\n", 2, 30, "exact_gradient", "bm_train at epoch 2: the negative log-likelihood overflows a float"),
    ("0101\n1100\n0011\n", 2, 30, "cd_k", "bm_train at epoch 6: the negative log-likelihood overflows a float"),
    ("1111\n1111\n1110\n", 1, 5, "exact_gradient", "bm_train at epoch 1: log-weights overflow a float (largest inf)"),
], ids=["exact_gradient", "cd_k", "free_energy"])
def test_ebm_training_overflow_prints_only_the_failure_line(tmp_path, rows, n_hidden, epochs, method, message):
    # numpy's overflow warnings came first; the first two exited 0 with "final_nll": Infinity
    # in result.json and inf rows in loss_curve.csv, the third named log_normalize
    (tmp_path / "v.txt").write_text(rows)
    cfg = write_cfg(tmp_path, "e.cfg", f'data = "{tmp_path / "v.txt"}"\nn_hidden = {n_hidden}\nlearning_rate = 1e308\n'
                    f'epochs = {epochs}\nmethod = "{method}"\n')
    proc = _cli_process(tmp_path, "ebm", cfg)
    assert (proc.returncode, proc.stderr) == (2, f"numerical failure: {message}\n")
    assert not (tmp_path / "o" / "result.json").exists()


@pytest.mark.parametrize("config, largest", [("field = 1e308\nbeta = 0.5", "inf"), ("field = 6e307\nbeta = 0.0", "nan")],
                         ids=["field_1e308", "field_6e307_beta_0"])
def test_ising_enumeration_overflow_prints_only_the_failure_line(tmp_path, config, largest):
    # numpy's overflow warnings from the energy blocks, and at beta = 0 an invalid-value warning, came first
    cfg = write_cfg(tmp_path, "i.cfg", f"n_sites = 3\nsteps = 100\n{config}\n")
    proc = _cli_process(tmp_path, "ising", cfg)
    assert proc.returncode == 2
    assert proc.stderr == f"numerical failure: partition_exact: log-weights overflow a float (largest {largest})\n"


def test_a_json_value_beyond_the_float_range_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # result.json held a bare NaN, which a strict JSON parser rejects
    _, check = cli._SUBCOMMANDS["entropy"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "entropy", (lambda cfg, rng: ({"h": math.nan}, {}), check))
    cfg = write_cfg(tmp_path, "e.cfg", "probs = [0.5, 0.5]\n")
    assert cli.main(["entropy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: a JSON artifact holds a value beyond the float range (")
    assert not (tmp_path / "o" / "result.json").exists()


def test_every_golden_run_writes_strict_json(tmp_path):
    from test_cli_golden import run_matrix

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    run_matrix(tmp_path)
    paths = sorted(tmp_path.glob("*/*.json"))  # manifests, results and JSON traces
    assert len(paths) > 100
    for path in paths:
        json.loads(path.read_text(), parse_constant=refuse)


def test_marl_q_value_overflow_exits_2(tmp_path, capsys):
    # it was a validation failure (exit 1) under QTable's name
    cfg = write_cfg(tmp_path, "m.cfg", "rows = 3\ncols = 3\ncoupling = 1e308\nepisodes = 5\n")
    assert cli.main(["marl", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: run_ising_game: Q value of agent 2 overflows a float at episode 0 (inf)\n"


def test_marl_rising_temperature_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m.cfg", "rows = 2\ncols = 2\nepisodes = 3\ntemp.start = 0.5\ntemp.end = 5.0\n")
    out = tmp_path / "run"
    assert cli.main(["marl", "--config", cfg, "--out", str(out)]) == 1
    assert "config error: temp.end: must not exceed temp.start" in capsys.readouterr().err
    assert not (out / "result.json").exists()


def test_marl_cooling_ratio_underflow_exits_1(tmp_path, capsys):
    # 1e-300 / 1e300 underflows to a ratio of 0.0, which CoolingSchedule rejects under its own name
    cfg = write_cfg(tmp_path, "m.cfg", "temp.start = 1e300\ntemp.end = 1e-300\nepisodes = 2\n")
    out = tmp_path / "run"
    assert cli.main(["marl", "--config", cfg, "--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "config error: temp.end: too far below temp.start to cool over the episodes (ratio per episode 0.0)\n"
    assert not out.exists()


def test_marl_temperature_whose_reciprocal_overflows_exits_1(tmp_path, capsys):
    # at temp.end = 1e-320, 1/T is inf and the game's Q-values would turn into NaN
    for end, code in (("1e-320", cli.EXIT_VALIDATION), ("1e-300", 0)):
        cfg = write_cfg(tmp_path, "m.cfg", f"rows = 2\ncols = 2\nepisodes = 2\ntemp.start = 1.0\ntemp.end = {end}\n")
        out = tmp_path / f"run{end}"
        assert cli.main(["marl", "--config", cfg, "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == "config error: temp.end: too small for 1/temp.end to be finite, got 1e-320\n"
            assert not out.exists()
        else:
            assert (out / "result.json").exists()


def test_schedule_that_reaches_zero_exits_1_without_manifest(tmp_path, capsys):
    # anneal() would reject it too ("anneal: T at sweep 1075 must be a finite real > 0"), but only
    # after the run had written manifest.json
    cfg = write_cfg(tmp_path, "a.cfg", "sweeps = 1200\nschedule.parameter = 0.5\n")
    out = tmp_path / "run"
    assert cli.main(["anneal", "--config", cfg, "--out", str(out)]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "config error: schedule.parameter: the temperature reaches 0 by the last sweep (1199); "
        "cool more slowly or run fewer sweeps\n"
    )
    assert not out.exists()
    # the last of 1075 sweeps runs at T = 10 * 2^-1074 > 0 (2^-1074 is the least positive float)
    cfg = write_cfg(tmp_path, "b.cfg", "sweeps = 1075\nproposals_per_sweep = 1\nschedule.parameter = 0.5\n")
    assert cli.main(["anneal", "--config", cfg, "--out", str(out)]) == 0


def test_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError for an array the machine cannot hold (n = 10**13 asked for 72.8 TiB)
    def refuse(x, y):
        raise MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)")

    monkeypatch.setattr(thermolearn.convolution, "conv_fft", refuse)
    cfg = write_cfg(tmp_path, "c.cfg", "n = 8\n")
    assert cli.main(["conv", "--config", cfg, "--out", str(tmp_path / "run")]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "capacity failure: Unable to allocate 72.8 TiB for an array with shape (10000000000000,)\n"
    )


@pytest.mark.parametrize("case", ["out is a file", "out under a file", "manifest is a directory"])
def test_unusable_out_is_an_io_failure(tmp_path, capsys, case):
    cfg = write_cfg(tmp_path, "e.cfg", "probs = [0.5, 0.5]\n")
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = {"out is a file": afile, "out under a file": afile / "sub", "manifest is a directory": tmp_path / "run"}[case]
    if case == "manifest is a directory":
        (out / "manifest.json").mkdir(parents=True)
    assert cli.main(["entropy", "--config", cfg, "--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("i/o failure:") and err.count("\n") == 1 and "Traceback" not in err
    assert afile.read_text() == "kept\n"


def test_artifact_write_failure_keeps_the_first_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    (out / "result.json").mkdir(parents=True)
    assert cli.run_experiment("entropy", {"probs": [0.5, 0.5]}, out_dir=str(out)) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("i/o failure:")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "entropy" and manifest["artifacts"] == {}


def test_python_m_thermolearn_matches_main(tmp_path):
    cfg = write_cfg(tmp_path, "i.cfg", ISING_CFG)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "thermolearn", "ising", "--config", cfg, "--seed", "9", "--out", "by_m"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["ising", "--config", cfg, "--seed", "9", "--out", str(tmp_path / "by_main")]) == 0
    digests = {}
    for run in ("by_m", "by_main"):
        artifacts = json.loads((tmp_path / run / "manifest.json").read_text())["artifacts"]
        assert sorted(artifacts) == ["result.json", "trace.csv"]
        for name, hex_digest in artifacts.items():
            assert hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest() == hex_digest
        digests[run] = artifacts
    assert digests["by_m"] == digests["by_main"]


def test_entropy_run_exit_0(tmp_path):
    cfg = write_cfg(tmp_path, "e.cfg", "probs = [0.25, 0.75]\n")
    out = tmp_path / "run"
    assert cli.main(["entropy", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["schema_version"] == 1
    assert result["entropy"] == pytest.approx(0.8112781244591328, abs=1e-12)
    assert result["n_outcomes"] == 2


# --- manifest and artifacts ---------------------------------------------------


ISING_CFG = "n_sites = 3\nbeta = 1.0\nsteps = 2000\nburn_in = 200\n"


def test_manifest_schema_and_checksums(tmp_path):
    cfg = write_cfg(tmp_path, "i.cfg", ISING_CFG)
    out = tmp_path / "run"
    assert cli.main(["ising", "--config", cfg, "--seed", "42", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == [
        "artifacts", "config", "format", "out_dir", "schema_version", "seed", "subcommand",
    ]
    assert manifest["schema_version"] == 1
    assert manifest["subcommand"] == "ising"
    assert manifest["seed"] == 42
    assert manifest["format"] == "csv"
    assert manifest["config"]["steps"] == 2000
    assert sorted(manifest["artifacts"]) == ["result.json", "trace.csv"]
    for name, digest_hex in manifest["artifacts"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest_hex


def test_same_seed_byte_identical(tmp_path, monkeypatch):
    # identical invocation from two working directories: every output file,
    # the manifest included, must match byte for byte
    for sub in ("a", "b"):
        root = tmp_path / sub
        root.mkdir()
        (root / "i.cfg").write_text(ISING_CFG)
        monkeypatch.chdir(root)
        assert cli.main(["ising", "--config", "i.cfg", "--seed", "42", "--out", "run"]) == 0
    for name in ("manifest.json", "result.json", "trace.csv"):
        first = (tmp_path / "a" / "run" / name).read_bytes()
        second = (tmp_path / "b" / "run" / name).read_bytes()
        assert first == second, name


def test_different_seed_changes_samples(tmp_path):
    cfg = write_cfg(tmp_path, "i.cfg", ISING_CFG)
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"run{seed}"
        assert cli.main(["ising", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] != outs[1]


def _blas_kernel_config(tmp_path, subcommand):
    if subcommand == "marl":
        return "rows = 4\ncols = 4\nepisodes = 60\n"
    if subcommand == "digest":
        return "n_a = 5\nn_b = 4\ntotal_length = 40\nsweeps = 80\nproposals_per_sweep = 40\n"
    # a 4x4 torus with random couplings and fields; at seed 4 the old BLAS
    # field sum gave another result.json under OpenBLAS's Prescott kernel
    gen = np.random.default_rng(4)
    pairs = [(i, j) for i, row in enumerate(torus_graph(4, 4).neighbors) for j in row if i < j]
    graph = CouplingGraph(16, tuple((i, j, float(gen.uniform(-1, 1))) for i, j in pairs), gen.uniform(-0.3, 0.3, 16))
    dump_coupling_graph(graph, tmp_path / "torus.txt")
    return f'graph = "{tmp_path / "torus.txt"}"\nbeta = 0.6\nsteps = 20000\nburn_in = 2000\n'


# ebm and conv are left out: their BLAS products still depend on the kernel
@pytest.mark.parametrize("subcommand, seed", [("ising", 4), ("marl", 3), ("digest", 3)], ids=["ising", "marl", "digest"])
def test_artifacts_do_not_depend_on_the_blas_kernel(tmp_path, subcommand, seed):
    cfg = write_cfg(tmp_path, "t.cfg", _blas_kernel_config(tmp_path, subcommand))
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    base["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [base.get("PYTHONPATH")])])
    variants = {"default": {}, "one thread": {"OPENBLAS_NUM_THREADS": "1"}, "two threads": {"OPENBLAS_NUM_THREADS": "2"}}
    if platform.machine().lower() in ("x86_64", "amd64"):
        variants["prescott"] = {"OPENBLAS_CORETYPE": "Prescott"}  # SSE3 kernels run on any x86-64
    artifacts = {}
    for name, extra in variants.items():
        out = tmp_path / name.replace(" ", "_")
        argv = [sys.executable, "-m", "thermolearn.cli", subcommand, "--config", cfg, "--seed", str(seed), "--out", str(out)]
        subprocess.run(argv, env={**base, **extra}, check=True, capture_output=True, timeout=120)
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["out_dir"]
        artifacts[name] = (manifest, (out / "result.json").read_bytes(), (out / "trace.csv").read_bytes())
    for name, got in artifacts.items():
        assert got == artifacts["default"], name


def test_json_format_trace(tmp_path):
    cfg = write_cfg(tmp_path, "i.cfg", ISING_CFG)
    out = tmp_path / "run"
    code = cli.main(
        ["ising", "--config", cfg, "--seed", "7", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    assert not (out / "trace.csv").exists()
    payload = json.loads((out / "trace.json").read_text())
    cols = payload["columns"]
    assert sorted(cols) == ["accepted", "energy", "magnetization", "step"]
    assert len(cols["energy"]) == 2000
    assert cols["step"][:3] == [0, 1, 2]


def test_digest_subcommand_solves_worked_instance(tmp_path):
    inst = DoubleDigestInstance((3, 5), (2, 6), (1, 2, 5))
    inst_path = tmp_path / "bench.inst"
    dump_instance(inst, inst_path)
    cfg = write_cfg(
        tmp_path,
        "d.cfg",
        f'instance = "{inst_path}"\nsweeps = 600\nproposals_per_sweep = 50\n',
    )
    out = tmp_path / "run"
    assert cli.main(["digest", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["best_energy"] == 0.0
    assert sorted(result["implied_fragments"]) == [1, 2, 5]
    assert (out / "trace.csv").exists()


def test_conv_subcommand_explicit_signals(tmp_path):
    cfg = write_cfg(tmp_path, "c.cfg", "x = [1, 2, 3]\ny = [1, 1]\n")
    out = tmp_path / "run"
    assert cli.main(["conv", "--config", cfg, "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["result"] == [1.0, 3.0, 5.0, 3.0]
    assert result["out_length"] == 4
    assert result["max_abs_route_diff"] <= 1e-9



def _large_conv_cfg(tmp_path):
    # 300 x 200 entries up to 1e6: the result reaches about 1e13, where the
    # two routes' rounding alone differs by about 1e-2
    gen = np.random.default_rng(31)
    x, y = gen.uniform(0.0, 1e6, 300).tolist(), gen.uniform(0.0, 1e6, 200).tolist()
    return write_cfg(tmp_path, "large.cfg", f"x = {x}\ny = {y}\n")


def test_conv_route_gate_scales_with_the_result(tmp_path):
    # the gate was an absolute 1e-9, so this correct run exited 2
    out = tmp_path / "run"
    assert cli.main(["conv", "--config", _large_conv_cfg(tmp_path), "--out", str(out)]) == 0
    assert json.loads((out / "result.json").read_text())["max_abs_route_diff"] > 1e-9


def test_conv_route_gate_rejects_a_relative_error_of_1e_6(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(thermolearn.convolution, "conv_naive", lambda x, y: np.convolve(x, y) * (1 + 1e-6))
    assert cli.main(["conv", "--config", _large_conv_cfg(tmp_path), "--out", str(tmp_path / "run")]) == 2
    assert "fast and direct routes disagree by" in capsys.readouterr().err

# --- the ising observables and the entry points a traced benchmark wraps --------


def _record_calls(monkeypatch, owner, attr, calls):
    """Wrap ``owner.attr`` as the benchmark's traced run does (bench/worker.py,
    ``Tracer.install``), appending ``(attr, args, result)`` for each call."""
    inner = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        calls.append((attr, args, result))
        return result

    monkeypatch.setattr(owner, attr, wrapper)


def _ring_cfg(tmp_path, n_sites, steps=3000, burn_in=300):
    return write_cfg(tmp_path, f"ring{n_sites}.cfg", f"n_sites = {n_sites}\nperiodic = true\ncoupling = 0.7\n"
                     f"field = 0.13\nbeta = 0.45\nsteps = {steps}\nburn_in = {burn_in}\n")


OBSERVABLES = ("mean_energy", "se_energy", "mean_magnetization", "se_magnetization", "n_samples")


@pytest.mark.parametrize("n_sites, seed", [(3, 1), (20, 7), (24, 29), (64, 11)])
def test_ising_observables_come_from_the_chain_trace(tmp_path, monkeypatch, n_sites, seed):
    from thermolearn import ising

    calls = []
    _record_calls(monkeypatch, ising, "metropolis_chain", calls)
    burn_in = 500
    out = tmp_path / "run"
    assert cli.main(["ising", "--config", _ring_cfg(tmp_path, n_sites, 20_000, burn_in), "--seed", str(seed),
                     "--out", str(out)]) == 0
    summary = json.loads((out / "result.json").read_text())
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))[burn_in:]
    # JSON and the trace text keep every bit of a float
    from_trace = ising._observables(np.array([float(r["energy"]) for r in rows]),
                                    np.array([float(r["magnetization"]) for r in rows]))
    for key in OBSERVABLES:
        assert summary[key] == getattr(from_trace, key), key
    # the chain's running sums agree with each sample's energy worked out afresh
    ((_, (graph, *_), res),) = calls
    direct = ising.estimate_observables(res.samples, graph)
    for key in OBSERVABLES:
        assert summary[key] == pytest.approx(getattr(direct, key), rel=1e-12, abs=0), key


def test_traced_entry_points_are_reached(tmp_path, monkeypatch):
    """Every name the benchmark's traced run wraps and divides by is still reached:
    the chain, exact enumeration (only up to MAX_EXACT_SITES) and the CSV writer
    on ``ising`` runs, the annealer and the digest energy on a ``digest`` run."""
    from thermolearn import digest, ising, trace

    calls = []
    for owner, attr in ((ising, "metropolis_chain"), (ising, "partition_exact"), (trace.Trace, "csv_text"),
                        (cli, "run_anneal"), (digest.DigestLandscape, "energy")):
        _record_calls(monkeypatch, owner, attr, calls)
    steps, burn_in = 3000, 300
    for n_sites in (20, 64):
        calls.clear()
        out = tmp_path / f"ring{n_sites}"
        assert cli.main(["ising", "--config", _ring_cfg(tmp_path, n_sites, steps, burn_in), "--out", str(out)]) == 0
        reached = {name for name, _, _ in calls}
        exact = {"partition_exact"} if n_sites <= ising.MAX_EXACT_SITES else set()
        assert reached == {"metropolis_chain", "csv_text"} | exact, n_sites
        (res,) = [r for name, _, r in calls if name == "metropolis_chain"]
        assert res.samples.nbytes == (steps - burn_in) * n_sites
    calls.clear()
    cfg = write_cfg(tmp_path, "d.cfg", "n_a = 3\nn_b = 3\ntotal_length = 30\nsweeps = 5\nproposals_per_sweep = 10\n")
    assert cli.main(["digest", "--config", cfg, "--out", str(tmp_path / "digest")]) == 0
    assert {name for name, _, _ in calls} == {"run_anneal", "energy", "csv_text"}


def test_learn_entry_points_are_reached(monkeypatch):
    """Every name the benchmark's traced ``learn`` run wraps, called as its worker calls it
    (bench/worker.py, ``_library_call``), is reached: the per-layer metrics divide by, or take
    the median of, each one's spans. ``bm_log_likelihood`` runs once per epoch inside
    ``bm_train`` with ``cd_k``, which is where ``ebm.bm_log_likelihood.ms`` reads it;
    ``exact_gradient`` scores each epoch from the enumeration that serves its gradient."""
    from thermolearn import boost, convolution, ebm, marl
    from thermolearn.anneal import CoolingSchedule
    from thermolearn.rng import RngStream

    calls = []
    for owner, attr in ((convolution, "conv_fft"), (boost, "boost3"), (boost, "boost_recursive"), (ebm, "bm_train"),
                        (ebm, "bm_log_likelihood"), (ebm, "bm_gibbs_sample"), (marl, "run_ising_game")):
        _record_calls(monkeypatch, owner, attr, calls)

    def reached(call):
        calls.clear()
        result = call()
        return [name for name, _, _ in calls], result

    gen = np.random.default_rng(3)
    names, z = reached(lambda: convolution.conv_fft(gen.uniform(-1, 1, 2048), gen.uniform(-1, 1, 2048)))
    assert names == ["conv_fft"] and 1 << (len(z) - 1).bit_length() == 4096
    xs = gen.random(200)
    dataset = boost.WeightedDataset.uniform(xs, (xs >= 0.5).astype(np.int8))
    learner = boost.NoisyThresholdLearner(0.5, 0.1)
    assert reached(lambda: boost.boost3(learner, dataset, RngStream(1)))[0] == ["boost3"]
    names, _ = reached(lambda: boost.boost_recursive(learner, dataset, 0.3, RngStream(2)))
    assert names[-1] == "boost_recursive" and set(names) <= {"boost3", "boost_recursive"}
    machine = ebm.BoltzmannMachine(np.zeros(8), np.zeros(6), 0.01 * gen.standard_normal((8, 6)))
    data = (gen.random((64, 8)) < 0.5).astype(np.uint8)
    for method, scored in (("exact_gradient", []), ("cd_k", ["bm_log_likelihood"] * 3)):
        names, (_, losses) = reached(lambda: ebm.bm_train(machine, data, method=method, learning_rate=0.1, epochs=3,
                                                          k=1, rng=RngStream(4)))
        assert names == scored + ["bm_train"] and len(losses) == 3, method
    names, run = reached(lambda: ebm.bm_gibbs_sample(machine, 50, RngStream(5)))
    assert names == ["bm_gibbs_sample"] and len(run) == 50
    env = marl.IsingGameEnv(marl.torus_graph(3, 3), 1.0)
    schedule = CoolingSchedule("geometric", 10.0, 0.1 ** 0.25)
    names, _ = reached(lambda: marl.run_ising_game(env, 5, 2, 0.1, 0.9, schedule, RngStream(6)))
    assert names == ["run_ising_game"] and calls[0][1][0].graph.n_agents == 9
