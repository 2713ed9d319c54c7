"""File formats: matrix JSON, plan JSON, and sweep CSV.

Matrices serialize as ``{"rows": R, "cols": C, "entries": [[re, im], ...]}``
with entries flattened row-major.  Plans serialize as the flat arrays a
``DecompositionPlan`` holds, in plan format 2; the plan of a cyclic
permutation of three modes reads::

    {
      "format": 2,
      "n": 3,
      "m": 2,
      "sizes": [2, 2],
      "base_rows": [3, 2],
      "columns": [
        2, 3,
        1, 2
      ],
      "blocks": [
        0, 0, 1, 0, -1, 0, 0, 0,
        0, 0, 1, 0, -1, 0, 0, 0
      ],
      "phases": [0, 0, 0]
    }

``sizes`` and ``base_rows`` hold one entry per factor; ``columns`` holds
each factor's 1-based modes and ``blocks`` the real and imaginary parts of
each block's entries, row-major, one factor per line.  Format-1 plans, which
held a list of ``factors`` objects, are not read: decompose the matrix again
to rewrite them.  Floats are rendered with 17 significant digits, which
round-trips IEEE doubles exactly; sweep CSVs use 12 significant digits.

Writers emit deterministic text: serializing the same object twice yields
byte-identical output.  Negative zeros are written as ``0``, the value
``json.loads`` reads back, so reading a file and writing it again
reproduces it byte for byte.  Loaders check the types and shapes of the
top-level values, each over its whole list, and raise ``ValueError`` on
malformed input.  A plan file's JSON faults (its types, the length of
``blocks``, a non-finite block entry or phase) are reported as they are;
every value is then checked by the ``DecompositionPlan`` constructor, and
each fault it finds is reported as ``invalid plan: <its message>``.
"""

from __future__ import annotations

import itertools
import json
import operator

import numpy as np

from .decomposition import DecompositionPlan
from .linalg import _to_float, as_matrix
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
_FORMAT_1 = (
    'plan JSON is not in plan format 2 ("format": 2); format-1 plans, with a '
    '"factors" list, are no longer read: re-run `multiport decompose` to write '
    "the plan again"
)


def _f12(x: float) -> str:
    return format(float(x), ".12g")


def _matrix_template(rows: int, cols: int) -> str:
    """The ``%`` template of a ``rows x cols`` matrix object.

    It takes the ``2 * rows * cols`` real and imaginary parts of the
    entries, row-major, and renders each with 17 significant digits.
    """
    row = "    " + ", ".join(["[%.17g, %.17g]"] * cols)
    return (
        "{\n"
        f'  "rows": {rows},\n'
        f'  "cols": {cols},\n'
        '  "entries": [\n' + ",\n".join([row] * rows) + "\n  ]\n"
        "}"
    )


def matrix_to_json(a) -> str:
    """Serialize a matrix to its canonical JSON text."""
    mat = as_matrix(a) + 0.0  # negative zeros become 0
    return _matrix_template(*mat.shape) % tuple(mat.ravel().view(np.float64).tolist()) + "\n"


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


def _finite_floats(values: list, name) -> np.ndarray:
    """Parsed JSON numbers as a float64 array, all of them finite.

    An integer too large for a float counts as infinite.  The message of
    the first non-finite value ``j`` starts with ``name(j)``.
    """
    try:
        out = np.array(values, dtype=np.float64)
    except OverflowError:
        out = np.array(list(map(_to_float, values)), dtype=np.float64)
    finite = np.isfinite(out)
    if not finite.all():
        raise ValueError(f"{name(int(np.argmin(finite)))} must be finite")
    return out


def _is_pair(pair) -> bool:
    return (
        type(pair) is list
        and len(pair) == 2
        and type(pair[0]) in _JSON_NUMBERS
        and type(pair[1]) in _JSON_NUMBERS
    )


def json_to_matrix(text: str) -> np.ndarray:
    """Parse canonical matrix JSON back into a complex128 array.

    Every entry must be a list of two finite JSON numbers (not booleans or
    strings); the types of all entries are checked at once.
    """
    obj = json.loads(text)
    name = "matrix JSON"
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
    if set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}:
        parts = list(itertools.chain.from_iterable(entries))
        if set(map(type, parts)) <= _JSON_NUMBERS:
            parts = _finite_floats(parts, lambda p: f"{name} entry {p // 2}")
            return parts.view(np.complex128).reshape(rows, cols)
    j = next(j for j, pair in enumerate(entries) if not _is_pair(pair))
    raise ValueError(f"{name} entry {j} must be a [re, im] pair of numbers")


def save_matrix(path, a) -> None:
    text = matrix_to_json(a)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        return json_to_matrix(fh.read())


def _one_per_line(rows: list[str]) -> str:
    """A JSON list laid out one row per line, two spaces deep, or ``[]``."""
    return "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"


def plan_to_json(plan: DecompositionPlan) -> str:
    """Serialize a decomposition plan to its canonical (format 2) JSON text."""
    sizes = plan.sizes.tolist()
    pieces = {
        s: (", ".join(["%d"] * s), ", ".join(["%.17g"] * (2 * s * s))) for s in set(sizes)
    }
    template = (
        "{\n"
        '  "format": 2,\n'
        f'  "n": {plan.n},\n'
        f'  "m": {plan.m},\n'
        f'  "sizes": {sizes},\n'
        f'  "base_rows": {plan.base_rows.tolist()},\n'
        '  "columns": ' + _one_per_line([pieces[s][0] for s in sizes]) + ",\n"
        '  "blocks": ' + _one_per_line([pieces[s][1] for s in sizes]) + ",\n"
        '  "phases": [' + ", ".join(["%.17g"] * plan.n) + "]\n"
        "}\n"
    )
    parts = (plan.blocks.view(np.float64) + 0.0).tolist()  # negative zeros become 0
    phases = (plan.phases + 0.0).tolist()
    return template % tuple(plan.columns.tolist() + parts + phases)


def _list_of(obj: dict, key: str, types, what: str) -> list:
    """``obj[key]``, which must be a list of values of ``types``."""
    value = obj[key]
    if type(value) is not list or not set(map(type, value)) <= types:
        raise ValueError(f"{key} must be a list of {what}")
    return value


def json_to_plan(text: str) -> DecompositionPlan:
    """Parse canonical (format 2) plan JSON back into a validated plan.

    The JSON types are checked here, each over its whole list, with the
    length of ``blocks`` and the finiteness of block entries and phases;
    their faults are reported as they are.  The ``DecompositionPlan``
    constructor checks every value, and each fault it finds is reported as
    ``invalid plan: <its message>``.
    """
    obj = json.loads(text)
    _require(isinstance(obj, dict), "plan JSON must be an object")
    version = obj.get("format")
    _require("factors" not in obj and _is_int(version) and version == 2, _FORMAT_1)
    for key in ("n", "m", "sizes", "base_rows", "columns", "blocks", "phases"):
        _require(key in obj, f"plan JSON is missing key '{key}'")
    n = _as_int(obj["n"], "n")
    m = _as_int(obj["m"], "m")
    sizes, base_rows, columns = (
        _list_of(obj, key, {int}, "integers") for key in ("sizes", "base_rows", "columns")
    )
    blocks, phases = (
        _list_of(obj, key, _JSON_NUMBERS, "numbers") for key in ("blocks", "phases")
    )
    # An exact Python int.  Once it matches the length of ``blocks``, every
    # size fits a machine integer and every block entry lies in some factor.
    count = 2 * sum(map(operator.mul, sizes, sizes))
    _require(
        len(blocks) == count,
        f"blocks must hold 2 * sum(sizes**2) = {count} numbers, got {len(blocks)}",
    )
    sizes = np.array(sizes, dtype=np.intp)
    ends = np.cumsum(sizes * sizes)

    def entry_name(p):
        j = p // 2
        k = int(np.searchsorted(ends, j, side="right"))
        return f"factors[{k}]: block entry {j - ends[k] + sizes[k] ** 2}"

    blocks = _finite_floats(blocks, entry_name).view(np.complex128)
    phases = _finite_floats(phases, lambda k: f"phases[{k}]")
    try:
        return DecompositionPlan(
            n=n, m=m, sizes=sizes, base_rows=base_rows, columns=columns,
            blocks=blocks, phases=phases,
        )
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
