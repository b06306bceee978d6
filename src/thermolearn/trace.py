"""Columnar run traces, written out as CSV or JSON text."""

from __future__ import annotations

import csv
import functools
import io
import json
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

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


@functools.lru_cache(maxsize=None)  # keyed by the writers' three separators and two widths
def _last_digits(sep: str, width: int) -> Tuple[str, ...]:
    """The text of 0..999 zero-padded to ``width`` digits, each followed by ``sep``."""
    return tuple(f"{v:0{width}d}{sep}" for v in range(1000))


def _counting(start: int, rows: int, sep: str) -> List[List[str]]:
    """The slots of the column start, start + 1, ...: per row its thousands prefix
    ("" below 1000) and its last three digits with ``sep``, both shared texts."""
    prefixes, suffixes = [], []
    for thousand in range(start // 1000, (start + rows - 1) // 1000 + 1):
        base = 1000 * thousand
        lo, hi = max(start, base) - base, min(start + rows, base + 1000) - base
        prefixes += [str(thousand) if thousand else ""] * (hi - lo)
        suffixes += _last_digits(sep, 3 if thousand else 1)[lo:hi]
    return [prefixes, suffixes]


def _cell_slots(col: np.ndarray, sep: str, cells: Callable[[list], List[str]]) -> List[List[str]]:
    """The text of every entry of a non-empty column, each followed by ``sep``, as one
    or two lists of per-row slots whose row-wise concatenation is the cell.

    A counting integer column (non-negative, up by 1 each row) takes two shared texts
    per row. A small-range integer column (max - min < rows) is looked up in a table of
    its range. Any other column is keyed on its entries' bit patterns, so -0.0 and 0.0
    stay apart, and each distinct value is formatted once.
    """
    if col.dtype.kind != "f":
        low, high = int(col.min()), int(col.max())  # Python ints: no difference wraps
        if low >= 0 and high - low == len(col) - 1 and (col[1:] > col[:-1]).all():
            return _counting(low, len(col), sep)
        if high - low < len(col):
            texts = np.array([f"{v}{sep}" for v in range(low, high + 1)], dtype=object)
            # the difference wraps in the column's own dtype; its unsigned view does not
            offsets = (col - col.min()).view(f"u{col.itemsize}").astype(np.intp)
            return [texts[offsets].tolist()]
    distinct, codes = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    texts = np.array([text + sep for text in cells(distinct.view(col.dtype).tolist())], dtype=object)
    return [texts[codes].tolist()]


def _joined(slots: List[List[str]]) -> str:
    # one flat list, row by row, each slot list filling its stride; joined once
    flat = [None] * (len(slots) * len(slots[0]))
    for k, slot in enumerate(slots):
        flat[k :: len(slots)] = slot
    return "".join(flat)


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
        seps = [","] * (len(cols) - 1) + ["\n"]
        for start in range(0, self._length, CHUNK_ROWS):
            slots = [slot for col, sep in zip(cols, seps) for slot in _cell_slots(col[start : start + CHUNK_ROWS], sep, _csv_cells)]
            pieces.append(_joined(slots))
        return "".join(pieces)

    def _json_pieces(self) -> Iterator[str]:
        sep = ",\n      "
        yield '{\n  "columns": {\n'
        for index, name in enumerate(sorted(self._columns)):
            col = self._columns[name]
            opening = "[\n      " if self._length else "[]"
            yield (",\n" if index else "") + f"    {json.dumps(name)}: {opening}"
            for start in range(0, self._length, CHUNK_ROWS):
                slots = _cell_slots(col[start : start + CHUNK_ROWS], sep, _json_cells)
                if start + CHUNK_ROWS >= self._length:  # the column's last cell closes its list
                    slots[-1][-1] = slots[-1][-1][: -len(sep)]
                yield _joined(slots)
            if self._length:
                yield "\n    ]"
        yield "\n  }\n}"

    def json_text(self) -> str:
        """The text of ``json.dumps({"columns": {name: values}}, indent=2, sort_keys=True)``."""
        return "".join(self._json_pieces())
