import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermolearn.errors import ValidationError
from thermolearn.trace import CHUNK_ROWS, Trace


def test_column_order_preserved_in_csv():
    t = Trace({"step": [0, 1], "energy": [1.5, -0.5]})
    text = t.csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "step,energy"
    assert lines[1].startswith("0,")


def test_bools_become_int8():
    t = Trace({"accepted": [True, False, True]})
    col = t.column("accepted")
    assert col.dtype == np.int8
    assert list(col) == [1, 0, 1]


def test_length_and_names():
    t = Trace({"x": [1, 2, 3], "y": [4, 5, 6]})
    assert len(t) == 3
    assert t.column_names == ["x", "y"]


def test_empty_trace_rejected():
    with pytest.raises(ValidationError, match="^Trace: need at least one column"):
        Trace({})


def test_unequal_lengths_rejected():
    with pytest.raises(ValidationError):
        Trace({"x": [1, 2], "y": [1]})


def test_csv_roundtrip_values():
    t = Trace({"m": [0.5, -0.5, 0.0]})
    body = t.csv_text().strip().split("\n")[1:]
    assert [float(v) for v in body] == [0.5, -0.5, 0.0]


def test_missing_column_is_keyerror():
    t = Trace({"x": [1]})
    with pytest.raises(KeyError):
        t.column("y")


def test_non_numeric_or_nested_columns_rejected():
    with pytest.raises(ValidationError):
        Trace({"x": ["a", "b"]})
    with pytest.raises(ValidationError):
        Trace({"x": np.zeros((2, 2))})


# --- oracle: the writers against per-cell csv / json ---------------------------


def reference_csv(trace):
    """One csv.writer row per step from each cell's ``.item()``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(trace.column_names)
    cols = [trace.column(n) for n in trace.column_names]
    for i in range(len(trace)):
        writer.writerow([col[i].item() for col in cols])
    return buf.getvalue()


def reference_json(trace):
    payload = {name: trace.column(name).tolist() for name in trace.column_names}
    return json.dumps({"columns": payload}, indent=2, sort_keys=True)


SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1 / 3]


@pytest.mark.parametrize("length", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_writers_match_per_cell_reference(length):
    gen = np.random.default_rng(length)
    floats = np.where(gen.random(length) < 0.3, gen.normal(size=length), gen.choice(SPECIAL_FLOATS, size=length))
    trace = Trace(
        {
            "step": np.arange(length, dtype=np.int64) - 3,
            "value": floats,
            "accepted": gen.random(length) < 0.5,
            "big": gen.integers(-(2**62), 2**62, size=length),
        }
    )
    assert trace.column("accepted").dtype == np.int8
    assert trace.csv_text() == reference_csv(trace)
    assert trace.json_text() == reference_json(trace)
    assert "".join(trace._text_pieces("csv")) == reference_csv(trace)
    assert "".join(trace._text_pieces("json")) == reference_json(trace)


TRACE_DTYPES = [
    np.dtype(name)
    for name in ("int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64", "float16", "float32", "float64", "bool")
]


def special_bits(dtype):
    """Bit patterns at the edges of ``dtype``: the extreme integers (uint64
    above 2**63 included), and for floats -0.0, +-inf, NaNs with different
    sign and payload, and the smallest and largest subnormals."""
    if dtype == bool:
        return [0, 1]
    bits = 8 * dtype.itemsize
    top = 1 << (bits - 1)
    if dtype.kind != "f":
        return [0, 1, top - 1, top, top + 1, 2 * top - 1]
    mantissa = (1 << np.finfo(dtype).nmant) - 1
    inf = (top - 1) & ~mantissa
    return [0, top, inf, top | inf, inf | 1, inf | (mantissa + 1) >> 1, top | inf | mantissa, 1, mantissa, top | 1]


@st.composite
def trace_columns(draw):
    """1-3 columns of any dtype a Trace accepts, at lengths around the chunk size.

    Each column is either random bytes (nearly every value distinct) or
    draws from a short pool of bit patterns, the dtype's special ones among
    them (long runs of repeats)."""
    length = draw(st.sampled_from([0, 1, 2, 7, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for index, dtype in enumerate(draw(st.lists(st.sampled_from(TRACE_DTYPES), min_size=1, max_size=3))):
        raw = np.dtype(f"u{dtype.itemsize}")
        if dtype != bool and draw(st.booleans()):
            bits = np.frombuffer(gen.bytes(length * dtype.itemsize), dtype=raw)
        else:
            edge = 1 if dtype == bool else (1 << 8 * dtype.itemsize) - 1
            pool = np.array(special_bits(dtype) + draw(st.lists(st.integers(0, edge), max_size=8)), dtype=raw)
            bits = pool[gen.integers(len(pool), size=length)]
        columns[f"c{index}"] = bits.view(dtype)
    return columns


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace_columns())
def test_writers_match_per_cell_reference_on_every_dtype(columns):
    trace = Trace(columns)
    csv_ref, json_ref = reference_csv(trace), reference_json(trace)
    assert trace.csv_text() == csv_ref
    assert trace.json_text() == json_ref
    assert "".join(trace._text_pieces("csv")) == csv_ref
    assert "".join(trace._text_pieces("json")) == json_ref


def test_writers_keep_signed_zero_and_specials_apart():
    trace = Trace({"z": [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, -0.0]})
    assert trace.csv_text().split("\n")[1:-1] == ["0.0", "-0.0", "nan", "inf", "-inf", "5e-324", "1e+300", "-0.0"]
    assert json.loads(trace.json_text())["columns"]["z"][:2] == [0.0, -0.0]
    assert "-Infinity" in trace.json_text()
    assert trace.csv_text() == reference_csv(trace)
    assert trace.json_text() == reference_json(trace)


def test_json_keys_sorted_and_names_escaped():
    trace = Trace({"b": [1], 'a "q"': [2.5], "c,d": [True]})
    assert trace.json_text() == reference_json(trace)
    assert trace.csv_text() == reference_csv(trace)


def test_text_pieces_are_chunks_and_reject_unknown_format():
    trace = Trace({"x": np.arange(2 * CHUNK_ROWS + 5)})
    assert [piece.count("\n") for piece in trace._text_pieces("csv")] == [CHUNK_ROWS + 1, CHUNK_ROWS, 5]
    with pytest.raises(ValidationError):
        trace._text_pieces("tsv")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_writes_a_trace_in_memory_that_does_not_grow_with_its_length(tmp_path, fmt):
    import hashlib
    import tracemalloc

    from thermolearn.cli import _trace_bytes, _write_artifact

    peaks = []
    for chunks in (2, 16):
        gen = np.random.default_rng(chunks)
        n = chunks * CHUNK_ROWS
        trace = Trace({"step": np.arange(n), "energy": gen.normal(size=n), "accepted": gen.random(n) < 0.5})
        data = ((trace.json_text() + "\n") if fmt == "json" else trace.csv_text()).encode()
        tracemalloc.start()
        try:
            digest = _write_artifact(tmp_path / "trace", _trace_bytes(trace, fmt))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (tmp_path / "trace").read_bytes() == data
        assert digest == hashlib.sha256(data).hexdigest()
    # eight times the rows, about the same peak: one chunk's text at a time
    assert peaks[1] < 1.5 * peaks[0]


# --- increasing columns, and the routes of integer columns ------------------------


def assert_writers_match_reference(trace):
    csv_ref, json_ref = reference_csv(trace), reference_json(trace)
    assert trace.csv_text() == csv_ref
    assert trace.json_text() == json_ref
    assert "".join(trace._text_pieces("csv")) == csv_ref
    assert "".join(trace._text_pieces("json")) == json_ref


INCREASING_CASES = {
    "int": np.arange(-5, 300, 3),
    "float": np.cumsum(np.random.default_rng(0).random(300)) - 40.0,
    "tie": np.array([0.5, 1.0, 1.5, 1.5, 2.0, 7.25]),
    "signed zero": np.array([-2.0, -0.0, 0.0, 1.0]),
    "nan": np.array([0.0, 1.0, math.nan, 2.0, 3.0]),
    "one row": np.array([4.5]),
}


@pytest.mark.parametrize("name", list(INCREASING_CASES))
def test_increasing_columns_match_per_cell_reference(name):
    col = INCREASING_CASES[name]
    assert_writers_match_reference(Trace({"x": col, "y": col[::-1].copy(), "n": np.arange(len(col)) % 3}))


@pytest.mark.parametrize("length", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 5])
def test_increasing_columns_across_chunk_edges(length):
    gen = np.random.default_rng(length)
    trace = Trace(
        {
            "step": np.arange(length),
            "time": np.cumsum(gen.random(length)),
            "value": gen.choice([-0.0, 0.0, 0.5, math.nan], size=length),
        }
    )
    assert_writers_match_reference(trace)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_step_column_of_a_chain_never_reaches_unique(monkeypatch, fmt):
    from thermolearn import trace as trace_module
    from thermolearn.ising import chain_graph, metropolis_chain
    from thermolearn.rng import RngStream

    steps = 2 * CHUNK_ROWS + 5
    trace = metropolis_chain(chain_graph(8, h=0.1, periodic=True), 0.4, steps, rng=RngStream(3)).trace
    seen = []
    unique = trace_module.np.unique

    def counting_unique(bits, **kwargs):
        seen.append(bits.copy())
        return unique(bits, **kwargs)

    monkeypatch.setattr(trace_module.np, "unique", counting_unique)
    text = "".join(trace._text_pieces(fmt))
    monkeypatch.undo()
    assert text == (reference_csv(trace) if fmt == "csv" else reference_json(trace))
    # step is a counting column and accepted a small-range one: only the floats are sorted
    names = ["energy", "magnetization"]
    chunks = [trace.column(name)[start : start + CHUNK_ROWS] for start in range(0, steps, CHUNK_ROWS) for name in names]
    if fmt == "json":  # column by column, in key order
        chunks = [trace.column(name)[start : start + CHUNK_ROWS] for name in sorted(names) for start in range(0, steps, CHUNK_ROWS)]
    assert len(seen) == len(chunks) == 2 * 3
    for bits, chunk in zip(seen, chunks):
        assert np.array_equal(bits, chunk.view(f"u{chunk.itemsize}"))


def unique_calls(monkeypatch, trace):
    """How often the writers of ``trace`` reach ``np.unique``: CSV and JSON, in full and in pieces."""
    from thermolearn import trace as trace_module

    calls = []
    unique = trace_module.np.unique

    def counting_unique(bits, **kwargs):
        calls.append(len(bits))
        return unique(bits, **kwargs)

    monkeypatch.setattr(trace_module.np, "unique", counting_unique)
    try:
        assert_writers_match_reference(trace)
    finally:
        monkeypatch.undo()
    return len(calls)


def chunks(length):
    return -(-length // CHUNK_ROWS)


@pytest.mark.parametrize("length", [1, 2, 10, CHUNK_ROWS + 7])
@pytest.mark.parametrize(
    "start",
    [0, 1, 500, 995, 9_995, 99_990, 999_997, 2**40 + 999, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1],
)
def test_counting_columns_match_per_cell_reference(monkeypatch, start, length):
    # across 999/1000, 9 999/10 000, 99 999/100 000 and 999 999/1 000 000, from mid-thousand
    # starts and from the chunk size +- 1; the other column is the chunk's 0/1 flags
    trace = Trace({"step": np.arange(start, start + length), "flag": np.arange(length) % 2 == 0})
    assert unique_calls(monkeypatch, trace) == 0


def test_counting_columns_of_every_integer_dtype(monkeypatch):
    top = np.uint64(2**64 - 1)
    trace = Trace(
        {
            "int8": np.arange(-3, 125, dtype=np.int8) + np.int8(3),
            "uint16": np.arange(65_408, 65_536, dtype=np.uint16),
            "uint64 near 2**64": top - np.arange(128, dtype=np.uint64)[::-1],
            "int64 near 2**63": np.arange(2**63 - 128, 2**63 - 1, dtype=np.int64).tolist() + [2**63 - 1],
        }
    )
    assert trace.column("uint64 near 2**64")[-1] == top
    assert unique_calls(monkeypatch, trace) == 0


SMALL_RANGE_CASES = {
    "descending": np.arange(2000, 0, -1),
    "negative": np.arange(-1500, 1500),
    "flags with a gap": np.array([3, 1, 3, 3]),
    "repeats": np.array([2, 2]),
    # offsets above 127 wrap in int8; with no 127 in the column a wrapped offset indexes a wrong text
    "int8 from -128": np.random.default_rng(1).permutation(np.arange(300) % 229 - 128).astype(np.int8),
    "int8 full range": np.random.default_rng(1).permutation(np.arange(300) % 256 - 128).astype(np.int8),
    "uint64 near 2**64": np.uint64(2**64 - 1) - np.array([0, 5, 2, 5, 4, 1], dtype=np.uint64),
    "int64 at -2**63": np.array([-(2**63), -(2**63) + 2, -(2**63) + 1], dtype=np.int64),
}


@pytest.mark.parametrize("name", list(SMALL_RANGE_CASES))
def test_small_range_integer_columns_match_per_cell_reference(monkeypatch, name):
    col = SMALL_RANGE_CASES[name]
    assert int(col.max()) - int(col.min()) < len(col)
    if name == "int8 from -128":
        assert col.dtype == np.int8 and col.min() == -128 and col.max() == 100
    assert unique_calls(monkeypatch, Trace({"x": col})) == 0


FALLBACK_CASES = {
    "non-consecutive": np.arange(0, 6000, 3),
    "descending by two": np.arange(4000, 0, -2),
    "negative": -np.arange(1, 3001) * 7,
    "two rows with a gap": np.array([5, 3]),
    "uint64 across the range": np.array([0, 2**64 - 1, 2**63, 1], dtype=np.uint64),
    # max - min wraps to -1 in int64; as Python ints it is 2**64 - 1
    "int64 extremes": np.array([-(2**63), 2**63 - 1], dtype=np.int64),
    "int64 extremes and zero": np.array([-(2**63), 0, 2**63 - 1], dtype=np.int64),
    "int8 extremes": np.array([-128, 127], dtype=np.int8),
    "long": np.random.default_rng(2).integers(-(2**40), 2**40, size=2 * CHUNK_ROWS + 3),
}


@pytest.mark.parametrize("name", list(FALLBACK_CASES))
def test_other_integer_columns_fall_back_to_unique(monkeypatch, name):
    col = FALLBACK_CASES[name]
    # once per chunk for CSV and JSON, each in full and in pieces
    assert unique_calls(monkeypatch, Trace({"x": col})) == 4 * chunks(len(col))


@st.composite
def routed_columns(draw):
    """1-3 columns at lengths around the chunk size, each drawn for one writer route:
    counting, small-range or any other integers, or floats with or without repeats."""
    length = draw(st.sampled_from([CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, CHUNK_ROWS + 1000]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for index in range(draw(st.integers(1, 3))):
        route = draw(st.sampled_from(["counting", "small", "any", "float"]))
        if route == "float":
            values = gen.normal(size=length) * 10.0 ** draw(st.integers(-300, 300))
            if draw(st.booleans()):
                values = gen.choice(np.append(values[:5], SPECIAL_FLOATS), size=length)
            columns[f"c{index}"] = values
            continue
        dtype = np.dtype(draw(st.sampled_from(["int8", "int16", "int32", "int64", "uint8", "uint32", "uint64"])))
        info = np.iinfo(dtype)
        if route == "counting" and info.max >= length:
            start = draw(st.one_of(st.integers(0, 3 * CHUNK_ROWS), st.integers(0, int(info.max) - length + 1)))
            columns[f"c{index}"] = np.arange(length, dtype=dtype) + dtype.type(start)
        elif route == "small":
            span = draw(st.integers(0, min(length - 1, int(info.max) - int(info.min))))
            low = draw(st.integers(int(info.min), int(info.max) - span))
            columns[f"c{index}"] = gen.integers(low, low + span, size=length, dtype=dtype, endpoint=True)
        else:
            columns[f"c{index}"] = gen.integers(info.min, info.max, size=length, dtype=dtype, endpoint=True)
    return columns


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(routed_columns())
def test_writers_match_per_cell_reference_on_every_route(columns):
    assert_writers_match_reference(Trace(columns))


@pytest.mark.parametrize("columns", [{0: [1, 2]}, {0: [1], "a": [2]}, {("a",): [1.0]}, {b"a": [1]}])
def test_column_names_must_be_strings(columns):
    name = repr(next(iter(columns)))
    with pytest.raises(ValidationError, match=f"^Trace: column names must be strings, got {re.escape(name)}$"):
        Trace(columns)
