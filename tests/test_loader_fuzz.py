"""Fuzzing the six text loaders: only a ThermolearnError escapes, and a rejected input file
makes the CLI exit 1 without a traceback.

Generated site counts stay at 64 or below, so no example asks the machine for a large
array; the one larger count tested is 2^63 or more, which numpy rejects before allocating.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolearn import cli
from thermolearn.activeinf import mdp_from_json
from thermolearn.boost import load_dataset
from thermolearn.digest import load_instance
from thermolearn.ebm import BoltzmannMachine, load_visible_data
from thermolearn.errors import ThermolearnError, ValidationError
from thermolearn.ising import load_coupling_graph

TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
NUMBER = st.one_of(
    st.integers(-3, 70).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0x1", "1_0", "", "٣", "9" * 5000]),
)
TOKEN = st.one_of(NUMBER, TEXT)


def _lines(line):
    return st.lists(st.one_of(line, TEXT, st.sampled_from(["", "# comment", "   "])), max_size=8).map("\n".join)


def _content(text):
    # the stripped lines a loader reads: universal newlines, no blanks or '#' comments
    lines = (ln.strip() for ln in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
    return [ln for ln in lines if ln and not ln.startswith("#")]


def _small_count(text):
    # whether the graph file's site count, if it reads as one, is at most 64 or at least 2^63
    first = next(iter(_content(text)), "")
    return not first.isdecimal() or len(first) > 4300 or not 64 < int(first) < 2**63


GRAPH_TEXTS = _lines(
    st.one_of(
        st.tuples(TOKEN, TOKEN, TOKEN).map(" ".join),
        st.tuples(TOKEN, TOKEN).map(lambda t: f"h {t[0]} {t[1]}"),
        st.integers(-2, 64).map(str),
    )
).filter(_small_count)
ROWS_TEXTS = _lines(st.one_of(st.text("01", min_size=1, max_size=6), st.text("01x ", max_size=6)))
INSTANCE_TEXTS = _lines(
    st.tuples(st.sampled_from(["a", "b", "c", "A", "d", ""]), st.lists(TOKEN, max_size=4)).map(
        lambda t: f"{t[0]}: {' '.join(t[1])}"
    )
)
DATASET_TEXTS = _lines(st.one_of(st.tuples(TOKEN, TOKEN).map(",".join), st.just("x,y"), st.just('"1,2",0')))
JSON_LEAVES = st.one_of(
    st.floats(), st.integers(-3, 3), st.sampled_from([10**30, True, None, "a"]), st.text(max_size=2)
)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=12)


def _json_texts(keys):
    return st.one_of(
        st.dictionaries(st.sampled_from(keys), JSON_VALUES, max_size=len(keys)).map(json.dumps),
        JSON_VALUES.map(json.dumps),
        TEXT,
    )


MDP_TEXTS = _json_texts(["n_states", "n_actions", "gamma", "transition", "reward"])
MACHINE_TEXTS = _json_texts(["a", "b", "W"])

# (loader, texts, CLI subcommand and config reading the file, or None)
LOADERS = {
    "graph": (load_coupling_graph, GRAPH_TEXTS, ("ising", {"beta": 1.0, "steps": 10})),
    "data": (load_visible_data, ROWS_TEXTS, ("ebm", {"n_hidden": 2})),
    "instance": (load_instance, INSTANCE_TEXTS, ("digest", {})),
    "dataset": (load_dataset, DATASET_TEXTS, ("boost", {})),
    "mdp": (lambda path: mdp_from_json(Path(path).read_text(encoding="utf-8")), MDP_TEXTS, ("activeinf", {})),
    "machine": (lambda path: BoltzmannMachine.from_json(Path(path).read_text(encoding="utf-8")), MACHINE_TEXTS, None),
}


def _check(key, text):
    load, _, run = LOADERS[key]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            load(path)
            return
        except ThermolearnError:
            pass
        if run is None:
            return
        subcommand, config = run
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run_experiment(subcommand, {key: str(path), **config}, out_dir=str(Path(tmp) / "out"))
        assert code == 1, err.getvalue()
        assert "Traceback" not in err.getvalue() and "validation failure" in err.getvalue()


@pytest.mark.parametrize("key", sorted(LOADERS))
def test_loaders_raise_only_thermolearn_errors(key):
    @settings(max_examples=120, deadline=None)
    @given(LOADERS[key][1])
    def check(text):
        _check(key, text)

    check()


@pytest.mark.parametrize("count", [str(2**63), str(10**20), str(10**400), "9" * 5000])
def test_site_counts_numpy_cannot_hold_are_validation_errors(count):
    # numpy's "Maximum allowed dimension exceeded" escaped as a ValueError; these
    # counts fail before anything is allocated
    text = f"# a huge graph\n{count}\n0 1 1.0\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "huge.txt"
        path.write_text(text)
        with pytest.raises(ValidationError, match=r"huge\.txt:2: site count \d+ is too large to hold"):
            load_coupling_graph(path)
    _check("graph", text)
