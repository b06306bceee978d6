"""Columnar run traces, written out as CSV or JSON text."""

from __future__ import annotations

import csv
import io
import json
from typing import Callable, Dict, Iterator, List, Sequence

import numpy as np

from .config import _items
from .errors import ValidationError

# Rows per text pass, and steps per ising chain block: bounds the Python objects alive at once.
CHUNK_ROWS = 8192


def _csv_cells(values: list) -> List[str]:
    return list(map(repr, values))


def _json_cells(values: list) -> List[str]:
    # one encoder call for the whole list; a JSON number never contains ", "
    return json.dumps(values)[1:-1].split(", ")


def _formatted(col: np.ndarray, cells: Callable[[list], List[str]]) -> List[str]:
    """The text of every entry of a non-empty column, each distinct value formatted once.

    Entries are keyed on their bit pattern, so -0.0 and 0.0 stay apart. A strictly
    increasing column (such as a step count) has no repeat and no NaN, so it skips the sort.
    """
    if len(col) > 1 and (col[1:] > col[:-1]).all():
        return cells(col.tolist())
    distinct, codes = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    texts = np.array(cells(distinct.view(col.dtype).tolist()), dtype=object)
    return texts[codes].tolist()


class Trace:
    """Step-indexed record of a run: named numeric columns of equal length.

    Booleans are stored and emitted as 0/1 so the CSV stays typable.
    Both text formats are built column-wise, CHUNK_ROWS rows at a time;
    ``_text_pieces`` hands them out a chunk at a time.
    """

    def __init__(self, columns: Dict[str, Sequence]):
        columns = _items("Trace: columns", columns, into=dict)
        if not columns:
            raise ValidationError("Trace: need at least one column")
        arrays = {}
        length = None
        for name, values in columns.items():
            if not isinstance(name, str):
                raise ValidationError(f"Trace: column names must be strings, got {name!r}")
            arr = np.asarray(values)
            if arr.dtype == bool:
                arr = arr.astype(np.int8)
            if arr.ndim != 1 or arr.dtype.kind not in "iuf" or arr.itemsize > 8:
                raise ValidationError(f"Trace: column {name!r} must be a 1-D array of numbers")
            if length is None:
                length = arr.shape[0]
            elif arr.shape[0] != length:
                raise ValidationError("Trace: columns must have equal length")
            arrays[name] = arr
        self._columns = arrays
        self._length = length

    @property
    def column_names(self):
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __len__(self):
        return self._length

    def row(self, i: int) -> dict:
        return {name: arr[i].item() for name, arr in self._columns.items()}

    def _rows(self, start: int, stop: int) -> "Trace":
        # rows start..stop-1 as a trace over views of this one's columns
        return Trace({name: col[start:stop] for name, col in self._columns.items()})

    def _text_pieces(self, fmt: str) -> Iterator[str]:
        """The ``csv_text()`` or ``json_text()`` of the trace in consecutive pieces
        of at most CHUNK_ROWS rows each, so that a writer never holds the whole text."""
        if fmt == "json":
            return self._json_pieces()
        if fmt != "csv":
            raise ValidationError(f"Trace: unknown text format {fmt!r}")
        header = len(self._csv_header())
        return (
            self._rows(start, start + CHUNK_ROWS).csv_text()[header if start else 0 :]
            for start in range(0, self._length or 1, CHUNK_ROWS)
        )

    def _csv_header(self) -> str:
        line = io.StringIO()
        csv.writer(line, lineterminator="\n").writerow(self.column_names)
        return line.getvalue()

    def csv_text(self) -> str:
        pieces = [self._csv_header()]
        cols = list(self._columns.values())
        # per chunk one flat list, this row template once per row; each column fills its slots
        row = [None, ","] * (len(cols) - 1) + [None, "\n"]
        for start in range(0, self._length, CHUNK_ROWS):
            flat = row * min(CHUNK_ROWS, self._length - start)
            for k, col in enumerate(cols):
                flat[2 * k :: len(row)] = _formatted(col[start : start + CHUNK_ROWS], _csv_cells)
            pieces.append("".join(flat))
        return "".join(pieces)

    def _json_pieces(self) -> Iterator[str]:
        sep = ",\n      "
        yield '{\n  "columns": {\n'
        for index, name in enumerate(sorted(self._columns)):
            col = self._columns[name]
            opening = "[\n      " if self._length else "[]"
            yield (",\n" if index else "") + f"    {json.dumps(name)}: {opening}"
            for start in range(0, self._length, CHUNK_ROWS):
                yield (sep if start else "") + sep.join(_formatted(col[start : start + CHUNK_ROWS], _json_cells))
            if self._length:
                yield "\n    ]"
        yield "\n  }\n}"

    def json_text(self) -> str:
        """The text of ``json.dumps({"columns": {name: values}}, indent=2, sort_keys=True)``."""
        return "".join(self._json_pieces())
