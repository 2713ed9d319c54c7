"""File formats: matrix JSON, plan JSON, and sweep CSV.

Matrices serialize as ``{"rows": R, "cols": C, "entries": [[re, im], ...]}``
with entries flattened row-major.  Plans serialize as
``{"n": ..., "m": ..., "factors": [...], "phases": [...]}`` where each factor
carries ``size``, ``base_row``, 1-based ``columns``, and its ``block`` as a
nested matrix object.  Floats are rendered with 17 significant digits, which
round-trips IEEE doubles exactly; sweep CSVs use 12 significant digits.

Writers emit deterministic text: serializing the same object twice yields
byte-identical output.  Negative zeros are written as ``0``, the value
``json.loads`` reads back, so reading a file and writing it again
reproduces it byte for byte.  Loaders validate shape, finiteness, and
internal consistency and raise ``ValueError`` on malformed input.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .decomposition import DecompositionPlan, _FactorError
from .linalg import as_matrix
from .robustness import SweepResult

__all__ = [
    "save_matrix",
    "load_matrix",
    "plan_to_json",
    "json_to_plan",
    "save_plan",
    "load_plan",
    "save_sweep_results",
]

CSV_HEADER = "n,m,sigma,fq_mean,fq_stderr,fu_mean,fu_stderr,samples"
# json.loads gives exactly these types for JSON numbers; bool is excluded
_JSON_NUMBERS = frozenset((int, float))


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _f12(x: float) -> str:
    return format(float(x), ".12g")


def matrix_to_json(a) -> str:
    """Serialize a matrix to its canonical JSON text."""
    mat = as_matrix(a) + 0.0  # negative zeros become 0
    rows, cols = mat.shape
    entries = ",\n".join(
        "    " + ", ".join(f"[{_f17(v.real)}, {_f17(v.imag)}]" for v in row)
        for row in mat.tolist()
    )
    return (
        "{\n"
        f'  "rows": {rows},\n'
        f'  "cols": {cols},\n'
        f'  "entries": [\n{entries}\n  ]\n'
        "}\n"
    )


# Validation messages are formatted only on failure: a plan holds thousands
# of blocks and nearly all of them are valid.
def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_int(obj) -> bool:
    # json.loads gives plain int for JSON integers and bool for true/false
    return type(obj) is int


def _as_int(obj, name: str) -> int:
    if not _is_int(obj):
        raise ValueError(f"{name} must be an integer")
    return obj


def _as_float(obj, name: str) -> float:
    if type(obj) not in _JSON_NUMBERS:
        raise ValueError(f"{name} must be a number")
    value = float(obj)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _matrix_entries(obj, name: str) -> tuple[int, int, list]:
    """Check a parsed matrix object's keys, shape and entry count.

    Returns ``(rows, cols, entries)``; ``_entry_array`` checks the entries
    themselves.  Error messages start with ``name``.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be an object")
    for key in ("rows", "cols", "entries"):
        if key not in obj:
            raise ValueError(f"{name} is missing key '{key}'")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if not (_is_int(rows) and _is_int(cols) and rows >= 1 and cols >= 1):
        raise ValueError(f"{name} shape must be positive integers, got {rows!r}x{cols!r}")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError(f"{name} entries must be a list of {rows * cols} [re, im] pairs")
    return rows, cols, entries


def _is_pair(pair) -> bool:
    return (
        type(pair) is list
        and len(pair) == 2
        and type(pair[0]) in _JSON_NUMBERS
        and type(pair[1]) in _JSON_NUMBERS
    )


def _entry_array(entries: list, entry_name) -> np.ndarray:
    """Parsed ``[re, im]`` entries as a flat complex128 array.

    Every entry must be a list of two finite JSON numbers (not booleans or
    strings).  The types of all entries are checked at once; the message
    of the first bad entry ``j`` starts with ``entry_name(j)``.
    """
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
        parts = list(itertools.chain.from_iterable(entries))
        if set(map(type, parts)) <= _JSON_NUMBERS:
            parts = np.array(parts, dtype=np.float64).reshape(-1, 2)
            finite = np.isfinite(parts).all(axis=1)
            if not finite.all():
                raise ValueError(f"{entry_name(int(np.argmin(finite)))} must be finite")
            return parts.view(np.complex128)[:, 0]
    j = next(j for j, pair in enumerate(entries) if not _is_pair(pair))
    raise ValueError(f"{entry_name(j)} must be a [re, im] pair of numbers")


def _matrix_from_obj(obj, name: str) -> np.ndarray:
    """Validate a parsed matrix object and return it as a complex128 array."""
    rows, cols, entries = _matrix_entries(obj, name)
    return _entry_array(entries, lambda j: f"{name} entry {j}").reshape(rows, cols)


def json_to_matrix(text: str) -> np.ndarray:
    """Parse canonical matrix JSON back into a complex128 array."""
    return _matrix_from_obj(json.loads(text), "matrix JSON")


def save_matrix(path, a) -> None:
    text = matrix_to_json(a)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return json_to_matrix(fh.read())


def _factor_template(size: int) -> str:
    """The ``%`` template of one plan factor with a ``size x size`` block.

    It takes the base row, the ``size`` 1-based columns and the block's
    ``2 * size**2`` real and imaginary parts, row-major, and lays the block
    out as ``matrix_to_json`` lays out a matrix, six spaces deeper.
    """
    row = "          " + ", ".join(["[%.17g, %.17g]"] * size)
    return (
        "    {\n"
        f'      "size": {size},\n'
        '      "base_row": %d,\n'
        '      "columns": [' + ", ".join(["%d"] * size) + "],\n"
        '      "block": {\n'
        f'        "rows": {size},\n'
        f'        "cols": {size},\n'
        '        "entries": [\n' + ",\n".join([row] * size) + "\n        ]\n"
        "      }\n"
        "    }"
    )


def plan_to_json(plan: DecompositionPlan) -> str:
    """Serialize a decomposition plan to its canonical JSON text."""
    sizes = plan.sizes.tolist()
    templates = {s: _factor_template(s) for s in set(sizes)}
    parts = (plan.blocks.view(np.float64) + 0.0).tolist()  # negative zeros become 0
    factors = []
    start = 0
    for s, row, cols in zip(sizes, plan.base_rows.tolist(), (plan.columns + 1).tolist()):
        stop = start + 2 * s * s
        factors.append(templates[s] % (row, *cols[:s], *parts[start:stop]))
        start = stop
    body = ",\n".join(factors) + "\n" if factors else ""
    phases = ", ".join(_f17(p) for p in plan.phases + 0.0)
    return (
        "{\n"
        f'  "n": {plan.n},\n'
        f'  "m": {plan.m},\n'
        '  "factors": [\n'
        + body
        + "  ],\n"
        f'  "phases": [{phases}]\n'
        "}\n"
    )


_COLUMNS_MESSAGE = "columns must be a list of integers"


def _factor_fields(obj) -> tuple[int, int, list, list]:
    """Check one parsed plan factor; messages are relative to the factor.

    Returns its size, base row, 1-based columns and block entries, with the
    block's shape and the number of columns matching the size.  The types
    of the columns and entries are left to one check over all factors.
    """
    _require(isinstance(obj, dict), "must be an object")
    for key in ("size", "base_row", "columns", "block"):
        if key not in obj:
            raise ValueError(f"is missing key '{key}'")
    size = _as_int(obj["size"], "size")
    base_row = _as_int(obj["base_row"], "base_row")
    columns = obj["columns"]
    _require(isinstance(columns, list), _COLUMNS_MESSAGE)  # json_to_plan checks the items
    rows, cols, entries = _matrix_entries(obj["block"], "block")
    if (rows, cols) != (size, size):
        raise ValueError(f"block shape {(rows, cols)} does not match size {size}")
    if len(columns) != size:
        raise ValueError(f"expected {size} columns, got {len(columns)}")
    return size, base_row, columns, entries


def json_to_plan(text: str) -> DecompositionPlan:
    """Parse canonical plan JSON, re-validating every structural invariant."""
    obj = json.loads(text)
    _require(isinstance(obj, dict), "plan JSON must be an object")
    for key in ("n", "m", "factors", "phases"):
        _require(key in obj, f"plan JSON is missing key '{key}'")
    n = _as_int(obj["n"], "n")
    m = _as_int(obj["m"], "m")
    raw_factors = obj["factors"]
    _require(isinstance(raw_factors, list), "factors must be a list")
    sizes, base_rows, columns, entries = [], [], [], []
    for k, rf in enumerate(raw_factors):
        try:
            size, base_row, cols, pairs = _factor_fields(rf)
        except ValueError as exc:
            raise ValueError(f"factors[{k}]: {exc}") from None
        sizes.append(size)
        base_rows.append(base_row)
        columns.extend(cols)
        entries.extend(pairs)
    if not set(map(type, columns)) <= {int}:
        k = next(k for k, rf in enumerate(raw_factors) if not all(map(_is_int, rf["columns"])))
        raise ValueError(f"factors[{k}]: {_COLUMNS_MESSAGE}")
    sizes = np.array(sizes, dtype=np.intp)
    ends = np.cumsum(sizes * sizes)

    def entry_name(j):
        k = int(np.searchsorted(ends, j, side="right"))
        return f"factors[{k}]: block entry {j - ends[k] + sizes[k] ** 2}"

    blocks = _entry_array(entries, entry_name)
    try:
        base_rows = np.array(base_rows, dtype=np.intp)
        columns = np.array(columns, dtype=np.intp) - 1
    except OverflowError:
        raise ValueError("invalid plan: a base row or column is out of range") from None
    raw_phases = obj["phases"]
    _require(isinstance(raw_phases, list), "phases must be a list")
    # The plan takes the columns padded with -1 to width m.  m is checked
    # there; a valid m is at most n = len(phases), so the clamp only keeps an
    # invalid m from sizing the array, and a factor wider than m is rejected
    # by its size before the columns' width is looked at.
    width = max(min(m, len(raw_phases)), int(sizes.max(initial=0)))
    padded = np.full((len(sizes), width), -1, dtype=np.intp)
    padded[np.arange(width) < sizes[:, np.newaxis]] = columns
    phases = np.array(
        [_as_float(p, f"phases[{k}]") for k, p in enumerate(raw_phases)],
        dtype=np.float64,
    )
    try:
        return DecompositionPlan(
            n=n, m=m, sizes=sizes, base_rows=base_rows, columns=padded,
            blocks=blocks, phases=phases,
        )
    except _FactorError:
        raise
    except ValueError as exc:
        raise ValueError(f"invalid plan: {exc}") from None


def save_plan(path, plan: DecompositionPlan) -> None:
    text = plan_to_json(plan)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_plan(path) -> DecompositionPlan:
    with open(path, "r", encoding="ascii") as fh:
        return json_to_plan(fh.read())


def sweep_results_to_csv(results, config=None) -> str:
    """Render sweep results as CSV text.

    ``config`` is an optional mapping echoed as ``# key = value`` comment
    lines above the header so a result file records the run that made it.
    The text contains nothing run-dependent beyond ``results`` and
    ``config``: rerunning an identical sweep yields byte-identical output.
    """
    results = list(results)
    if not results:
        raise ValueError("results must not be empty")
    lines = []
    if config:
        for key, value in config.items():
            lines.append(f"# {key} = {value}")
    lines.append(CSV_HEADER)
    for r in results:
        if not isinstance(r, SweepResult):
            raise TypeError(f"expected SweepResult, got {type(r).__name__}")
        lines.append(
            ",".join(
                (
                    str(r.n),
                    str(r.m),
                    _f12(r.sigma),
                    _f12(r.fq.mean),
                    _f12(r.fq.std_error),
                    _f12(r.fu.mean),
                    _f12(r.fu.std_error),
                    str(r.fu.samples),
                )
            )
        )
    return "\n".join(lines) + "\n"


def save_sweep_results(path, results, config=None) -> None:
    text = sweep_results_to_csv(results, config)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
