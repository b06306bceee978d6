import csv
import io
import json
import math

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


def test_row_access():
    t = Trace({"a": [1, 2], "b": [10.0, 20.0]})
    assert t.row(1) == {"a": 2, "b": 20.0}


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
