"""Columnar run traces, written out as CSV or JSON text."""

from __future__ import annotations

import csv
import io
import json
from typing import Callable, Dict, List, Sequence

import numpy as np

from .errors import ValidationError

# Rows formatted per pass: bounds the Python strings alive at once.
CHUNK_ROWS = 8192


def _csv_cells(values: list) -> List[str]:
    return list(map(repr, values))


def _json_cells(values: list) -> List[str]:
    # one encoder call for the whole list; a JSON number never contains ", "
    return json.dumps(values)[1:-1].split(", ")


def _formatted(col: np.ndarray, cells: Callable[[list], List[str]]) -> List[str]:
    """The text of every entry of a non-empty column, each distinct value formatted once.

    Entries are keyed on their bit pattern, so -0.0 and 0.0 stay apart.
    """
    bits = col.view(f"u{col.itemsize}").tolist()
    distinct = dict(zip(bits, col.tolist()))
    table = dict(zip(distinct, cells(list(distinct.values()))))
    return list(map(table.__getitem__, bits))


class Trace:
    """Step-indexed record of a run: named numeric columns of equal length.

    Booleans are stored and emitted as 0/1 so the CSV stays typable.
    Both text formats are built column-wise, CHUNK_ROWS rows at a time.
    """

    def __init__(self, columns: Dict[str, Sequence]):
        if not columns:
            raise ValidationError("Trace: need at least one column")
        arrays = {}
        length = None
        for name, values in columns.items():
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

    def to_csv(self, target) -> None:
        """Write the trace to a path or file-like object."""
        if hasattr(target, "write"):
            self._write(target)
        else:
            with open(target, "w", newline="") as fh:
                self._write(fh)

    def _csv_pieces(self):
        """The CSV text in pieces: the header line, then CHUNK_ROWS rows at a time."""
        header = io.StringIO()
        csv.writer(header, lineterminator="\n").writerow(self.column_names)
        yield header.getvalue()
        cols = list(self._columns.values())
        for start in range(0, self._length, CHUNK_ROWS):
            cells = [_formatted(col[start : start + CHUNK_ROWS], _csv_cells) for col in cols]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    def _write(self, fh) -> None:
        fh.writelines(self._csv_pieces())

    def csv_text(self) -> str:
        return "".join(self._csv_pieces())

    def json_text(self) -> str:
        """The text of ``json.dumps({"columns": {name: values}}, indent=2, sort_keys=True)``."""
        sep = ",\n      "
        fields = []
        for name in sorted(self._columns):
            col = self._columns[name]
            values = sep.join(
                sep.join(_formatted(col[start : start + CHUNK_ROWS], _json_cells))
                for start in range(0, self._length, CHUNK_ROWS)
            )
            fields.append(f"    {json.dumps(name)}: " + (f"[\n      {values}\n    ]" if values else "[]"))
        return '{\n  "columns": {\n' + ",\n".join(fields) + "\n  }\n}"
