"""File formats: matrix JSON, plan JSON, and sweep CSV.

Matrices serialize as ``{"rows": R, "cols": C, "entries": [[re, im], ...]}``
with entries flattened row-major.  Plans serialize as
``{"n": ..., "m": ..., "factors": [...], "phases": [...]}`` where each factor
carries ``size``, ``base_row``, 1-based ``columns``, and its ``block`` as a
nested matrix object.  Floats are rendered with 17 significant digits, which
round-trips IEEE doubles exactly; sweep CSVs use 12 significant digits.

Writers emit deterministic text: serializing the same object twice yields
byte-identical output.  Loaders validate shape, finiteness, and internal
consistency and raise ``ValueError`` on malformed input.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .decomposition import DecompositionPlan, Factor
from .linalg import as_matrix
from .robustness import SweepResult

__all__ = [
    "matrix_to_json",
    "json_to_matrix",
    "save_matrix",
    "load_matrix",
    "plan_to_json",
    "json_to_plan",
    "save_plan",
    "load_plan",
    "sweep_results_to_csv",
    "save_sweep_results",
]

CSV_HEADER = "n,m,sigma,fq_mean,fq_stderr,fu_mean,fu_stderr,samples"
# json.loads gives exactly these types for JSON numbers; bool is excluded
_JSON_NUMBERS = (int, float)


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def _f12(x: float) -> str:
    return format(float(x), ".12g")


def matrix_to_json(a) -> str:
    """Serialize a matrix to its canonical JSON text."""
    mat = as_matrix(a)
    rows, cols = mat.shape
    body_rows = []
    for r in range(rows):
        pairs = ", ".join(
            f"[{_f17(v.real)}, {_f17(v.imag)}]" for v in mat[r]
        )
        body_rows.append("    " + pairs)
    entries = ",\n".join(body_rows)
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


def _matrix_from_obj(obj, name: str) -> np.ndarray:
    """Validate a parsed matrix object and return it as a complex128 array.

    Every entry must be a ``[re, im]`` list of two finite JSON numbers (not
    booleans or strings).  Error messages start with ``name``.
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
    for k, pair in enumerate(entries):
        if not (
            type(pair) is list
            and len(pair) == 2
            and type(pair[0]) in _JSON_NUMBERS
            and type(pair[1]) in _JSON_NUMBERS
        ):
            raise ValueError(f"{name} entry {k} must be a [re, im] pair of numbers")
    parts = np.array(entries, dtype=np.float64)
    if not np.isfinite(parts).all():
        k = int(np.argmin(np.isfinite(parts).all(axis=1)))
        raise ValueError(f"{name} entry {k} must be finite")
    return parts.view(np.complex128).reshape(rows, cols)


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


def plan_to_json(plan: DecompositionPlan) -> str:
    """Serialize a decomposition plan to its canonical JSON text."""
    parts = ["{\n", f'  "n": {plan.n},\n', f'  "m": {plan.m},\n', '  "factors": [\n']
    factor_chunks = []
    for f in plan.factors:
        cols = ", ".join(str(c) for c in f.columns)
        block_rows = []
        for r in range(f.size):
            pairs = ", ".join(
                f"[{_f17(v.real)}, {_f17(v.imag)}]" for v in f.block[r]
            )
            block_rows.append("          " + pairs)
        block_entries = ",\n".join(block_rows)
        factor_chunks.append(
            "    {\n"
            f'      "size": {f.size},\n'
            f'      "base_row": {f.base_row},\n'
            f'      "columns": [{cols}],\n'
            '      "block": {\n'
            f'        "rows": {f.size},\n'
            f'        "cols": {f.size},\n'
            f'        "entries": [\n{block_entries}\n        ]\n'
            "      }\n"
            "    }"
        )
    parts.append(",\n".join(factor_chunks))
    if factor_chunks:
        parts.append("\n")
    phases = ", ".join(_f17(p) for p in plan.phases)
    parts.append("  ],\n")
    parts.append(f'  "phases": [{phases}]\n')
    parts.append("}\n")
    return "".join(parts)


def _factor_from_obj(obj) -> Factor:
    """Validate one parsed plan factor; messages are relative to the factor."""
    _require(isinstance(obj, dict), "must be an object")
    for key in ("size", "base_row", "columns", "block"):
        if key not in obj:
            raise ValueError(f"is missing key '{key}'")
    size = _as_int(obj["size"], "size")
    base_row = _as_int(obj["base_row"], "base_row")
    columns = obj["columns"]
    _require(
        isinstance(columns, list) and all(map(_is_int, columns)),
        "columns must be a list of integers",
    )
    block = _matrix_from_obj(obj["block"], "block")
    if block.shape != (size, size):
        raise ValueError(f"block shape {block.shape} does not match size {size}")
    return Factor(size=size, base_row=base_row, columns=tuple(columns), block=block)


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
    factors = []
    for k, rf in enumerate(raw_factors):
        try:
            factors.append(_factor_from_obj(rf))
        except ValueError as exc:
            raise ValueError(f"factors[{k}]: {exc}") from None
    raw_phases = obj["phases"]
    _require(isinstance(raw_phases, list), "phases must be a list")
    phases = np.array(
        [_as_float(p, f"phases[{k}]") for k, p in enumerate(raw_phases)],
        dtype=np.float64,
    )
    try:
        return DecompositionPlan(n=n, m=m, factors=tuple(factors), phases=phases)
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
