"""Flat key-value config documents for the experiment runner.

Grammar, one entry per line:

    # comment
    key.dotted.path = value

A line is a comment only when its first non-blank character is ``#``; a
``#`` after a value is part of the value (``beta = 1.0 # note`` gives a
string, which a real-valued key rejects).

Keys are lowercase dotted identifiers. Values are typed by shape:
``true``/``false`` -> bool, integer literals -> int, float literals ->
real, ``[v1, v2, ...]`` -> list of scalars, double-quoted text -> string,
any other bare token -> string.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .errors import ValidationError

SUM_TOL = 1e-9
# the dtype kinds of entries that an array of each dtype kind takes
_ENTRY_KINDS = {"c": "iufc", "b": "biuf"}
KEY_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

__all__ = [
    "parse_config",
    "parse_config_file",
    "parse_scalar",
    "FieldSpec",
    "validate_against",
    "resolved",
]


def parse_scalar(token: str):
    token = token.strip()
    if token == "":
        raise ValidationError("empty value")
    if len(token) >= 2 and token[0] == '"' and token[-1] == '"':
        return token[1:-1]
    if token == "true":
        return True
    if token == "false":
        return False
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValidationError(f"unterminated list: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [parse_scalar(tok) for tok in inner.split(",")]
    return parse_scalar(text)


def parse_config(text: str) -> Dict[str, object]:
    """Parse a config document into an ordered key -> typed value map."""
    out: Dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not KEY_RE.match(key):
            raise ValidationError(f"config line {line_no}: invalid key {key!r}")
        if key in out:
            raise ValidationError(f"config line {line_no}: duplicate key {key!r}")
        out[key] = _parse_value(value)
    return out


def parse_config_file(path) -> Dict[str, object]:
    try:
        text = _read_text(path)
    except (OSError, ValidationError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def _read_text(path, newline=None) -> str:
    """Every input file's text, decoded as UTF-8 whatever the locale (other text raises ValidationError)."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None


def _content_lines(path):
    """(line number, stripped text) of each line of an input file that is neither blank nor a '#' comment."""
    for line_no, line in enumerate(_read_text(path).split("\n"), 1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield line_no, text


def _problem(value, low=-math.inf, high=math.inf, ends: str = "[]", integer: bool = False) -> Optional[str]:
    """Why ``value`` is not a scalar argument in its domain, as ``must be ..., got ...``; None if it is.

    The one rule for every scalar argument of the library and every checked key of a CLI config.
    The domain holds the integers (``integer``) or the finite reals, numpy scalars included and
    bools never, from ``low`` to ``high``; ``ends`` marks each end closed (``[``, ``]``) or open
    (``(``, ``)``).
    """
    try:
        ok = (
            isinstance(value, (int, np.integer) if integer else (int, float, np.integer, np.floating))
            and not isinstance(value, bool)
            and (integer or math.isfinite(value))
            and (low < value if ends[0] == "(" else low <= value)
            and (value < high if ends[1] == ")" else value <= high)
        )
    except OverflowError:  # an int beyond the float range
        ok = False
    if ok:
        return None
    return f"must be {'an integer' if integer else 'a finite real'}{_bound(low, high, ends)}, got {value!r}"


def _bound(low, high, ends: str) -> str:
    if high != math.inf:
        return f" in {ends[0]}{low}, {high}{ends[1]}"
    return "" if low == -math.inf else f" {'>' if ends[0] == '(' else '>='} {low}"


def _count(name: str, value, least: int, below=math.inf) -> int:
    """``value`` as an int when it is an integer (not a bool) in [``least``, ``below``); otherwise ValidationError."""
    problem = _problem(value, least, below, "[)", integer=True)
    if problem:
        raise ValidationError(f"{name} {problem}")
    return int(value)


def _real(name: str, value, low=-math.inf, high=math.inf, ends: str = "[]") -> float:
    """``value`` as a float when it is a finite real in the domain of :func:`_problem`; otherwise ValidationError."""
    problem = _problem(value, low, high, ends)
    if problem:
        raise ValidationError(f"{name} {problem}")
    return float(value)


def _index(name: str, value, size: int) -> int:
    """``value`` as an int when it is an integer (not a bool) in [0, ``size``); otherwise ValidationError."""
    problem = _problem(value, 0, size, "[)", integer=True)
    if problem:
        raise ValidationError(f"{name} out of range: {problem}")
    return int(value)


def _items(name: str, value, size: Optional[int] = None, into=tuple):
    """``value`` as a tuple when it is a sequence (of ``size`` items, if given), or as a dict
    (``into=dict``) when it is a mapping or a sequence of pairs; otherwise ValidationError."""
    try:
        items = into(value)
    except (TypeError, ValueError):  # not iterable, or (for a dict) entries that are not pairs
        items = None
    if items is None or size is not None and len(items) != size:
        form = "a mapping" if into is dict else "a sequence" + ("" if size is None else f" of {size} items")
        raise ValidationError(f"{name} must be {form}, got {value!r}")
    return items


def _edges(name: str, value, n: int, form: str = "(i, j)") -> List[tuple]:
    """``value`` as a list of edges (i, j, ...) with i < j when it is a sequence of edges, each a
    sequence of as many items as ``form`` names whose first two are sites in [0, ``n``), with no
    self-loop and no pair given twice; otherwise ValidationError. The one edge rule of both graph types."""
    seen, edges = set(), []
    for edge in _items(f"{name}: edges", value):
        i, j, *rest = _items(f"{name}: edge {form}", edge, form.count(",") + 1)
        i, j = (_index(f"{name}: a site of edge ({i}, {j})", k, n) for k in (i, j))
        if i == j:
            raise ValidationError(f"{name}: self-loop at site {i}")
        i, j = min(i, j), max(i, j)
        if (i, j) in seen:
            raise ValidationError(f"{name}: duplicate edge ({i},{j})")
        seen.add((i, j))
        edges.append((i, j, *rest))
    return edges


def _array(name: str, value, shape=(None,), low=-math.inf, high=math.inf, ends: str = "[]", dtype=float) -> np.ndarray:
    """``value`` as a ``dtype`` array of ``shape`` whose entries each pass :func:`_problem`; otherwise ValidationError.

    The array counterpart of :func:`_real`. ``shape`` holds one size per axis, ``None`` for any
    length >= 1, so the array is empty only where a size is 0. Entries are finite reals, finite
    complex numbers for a complex ``dtype`` (which takes no bounds), or integer values for an
    integer or bool ``dtype`` (whose bounds must lie within its range). Bools are entries only of
    a bool ``dtype``. An array already of ``dtype`` is returned as is.
    """
    dtype = np.dtype(dtype)
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # ragged rows, or objects numpy cannot lay out
        arr = None
    unbounded = low == -math.inf and high == math.inf
    if arr is None or arr.dtype.kind not in _ENTRY_KINDS.get(dtype.kind, "iuf"):
        got = f"a ragged {type(value).__name__}" if arr is None else f"entries of dtype {arr.dtype}"
    elif arr.shape != shape and (arr.ndim != len(shape) or any(n == 0 if s is None else n != s for s, n in zip(shape, arr.shape))):
        got = f"shape {arr.shape}"
    elif arr.dtype.kind == "b":  # only a bool dtype takes bools
        return arr
    else:
        # one pass where finiteness is the only bound; otherwise min and max, which see every
        # entry (a NaN carries through) and make no temporary
        if unbounded:
            ok = np.isfinite(arr).all()
        else:
            ok = not arr.size or not (_problem(arr.min(), low, high, ends) or _problem(arr.max(), low, high, ends))
        if ok:
            out = arr.astype(dtype, copy=False)
            # floats cast to an integer dtype must survive the cast unchanged
            if dtype.kind in "fc" or arr.dtype.kind != "f" or np.array_equal(out, arr):
                return out
            bad = out != arr
        else:
            bad = ~np.isfinite(arr) if unbounded else np.vectorize(lambda x: _problem(x, low, high, ends) is not None)(arr)
        at = np.unravel_index(np.argmax(bad), arr.shape)
        got = f"{arr[at].item()!r} at [{', '.join(map(str, at))}]"
    sizes = ", ".join("n" if s is None else str(s) for s in shape) + ("," if len(shape) == 1 else "")
    form = f"a non-empty {len(shape)}-D sequence" if set(shape) == {None} else f"a {len(shape)}-D sequence of shape ({sizes})"
    entries = {"c": "finite numbers", "f": "finite reals"}.get(dtype.kind, "integers")
    raise ValidationError(f"{name} must be {form} of {entries}{_bound(low, high, ends)}, got {got}")


def _stochastic(name: str, value, shape=(None,)) -> np.ndarray:
    """``value`` as a float array per :func:`_array` whose entries are >= 0 and whose rows along
    the last axis each sum to 1 within ``SUM_TOL``; otherwise ValidationError."""
    arr = _array(name, value, shape, 0)
    sums = arr.sum(axis=-1)
    miss = np.abs(sums - 1.0)
    if miss.max() > SUM_TOL:
        worst = float(np.take(sums, np.argmax(miss)))
        raise ValidationError(f"{name} must sum to 1 along its last axis within {SUM_TOL}, got a sum of {worst!r}")
    return arr


def _within(low=-math.inf, high=math.inf, ends: str = "[]", integer: bool = False):
    """A ``FieldSpec.check`` that applies the rule of :func:`_count` (``integer``) or :func:`_real`."""
    return lambda value: _problem(value, low, high, ends, integer)


@dataclass(frozen=True)
class FieldSpec:
    """Schema entry for one config key."""

    kind: str  # int | real | string | bool | list (of int/real elements)
    required: bool = False
    default: object = None
    check: Optional[Callable[[object], Optional[str]]] = None

    def type_ok(self, value) -> bool:
        if self.kind == "int":
            return isinstance(value, int) and not isinstance(value, bool)
        if self.kind == "real":
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self.kind == "bool":
            return isinstance(value, bool)
        if self.kind == "string":
            return isinstance(value, str)
        if self.kind == "list":
            return isinstance(value, list) and all(FieldSpec("real").type_ok(v) for v in value)
        raise ValidationError(f"unknown schema kind {self.kind!r}")

    def finite_ok(self, value) -> bool:
        """Whether a real, or each element of a list, is a finite float (``1e999`` parses to inf)."""
        values = value if self.kind == "list" else [value] if self.kind == "real" else []
        return not any(map(_problem, values))


def validate_against(schema: Dict[str, FieldSpec], config: Dict[str, object]) -> List[str]:
    """Diagnostics for a config under a schema; empty means valid.

    Flags unknown keys, missing required keys, type mismatches, reals
    that are not finite, and any per-field constraint failures. Each diagnostic names the key.
    """
    diagnostics: List[str] = []
    for key in config:
        if key not in schema:
            diagnostics.append(f"{key}: unknown key")
    for key, spec in schema.items():
        if key not in config:
            if spec.required:
                diagnostics.append(f"{key}: required key missing")
            continue
        value = config[key]
        if not spec.type_ok(value):
            expected = "list of numbers" if spec.kind == "list" else spec.kind
            diagnostics.append(f"{key}: expected {expected}, got {type(value).__name__}")
            continue
        if not spec.finite_ok(value):
            diagnostics.append(f"{key}: must be finite")
            continue
        if spec.check is not None:
            problem = spec.check(value)
            if problem:
                diagnostics.append(f"{key}: {problem}")
    return diagnostics


def resolved(schema: Dict[str, FieldSpec], config: Dict[str, object]) -> Dict[str, object]:
    """Config with schema defaults filled in (validation assumed done)."""
    out = dict(config)
    for key, spec in schema.items():
        if key not in out and spec.default is not None:
            out[key] = spec.default
    return out
