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
round-trips IEEE doubles exactly; sweep CSVs use 12 significant digits, in
their rows and in the ``# key = value`` header lines alike, -0 as 0.
Matrix and plan files share one float writer, and every float's text is
exactly ``'%.17g' % value``.  Most block entries, those with
1e-4 <= |v| < 1, get that text from their exact 17-digit integer, computed
in numpy and written with ``%d``; the other values are written with
``%.17g`` itself.  The files are byte for byte what a ``%.17g`` writer
produces.

Writers emit deterministic text: serializing the same object twice yields
byte-identical output.  Negative zeros are written as ``0``, the value
``json.loads`` reads back, so reading a file and writing it again
reproduces it byte for byte.  Loaders check the types and shapes of the
top-level values, each over its whole list, and raise ``ValueError`` on
malformed input, JSON nested deeper than the decoder recurses included.
A plan file's JSON faults (its types, the length of ``blocks``, a
non-finite block entry or phase) are reported as they are; every value is
then checked by the ``DecompositionPlan`` constructor, and each fault it
finds is reported as ``invalid plan: <its message>``.
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
    return format(float(x) + 0.0, ".12g")  # -0.0 + 0.0 is +0.0


# Every float of a matrix or plan file is written as ``'%.17g' % v`` renders
# it, through pieces of one ``%`` template.  A value with 1e-4 <= |v| < 1,
# most of a plan's block entries, is written as ``%d`` of its exact
# 17-significant-digit integer D = round-half-even(|v| * 10**(16 - k)),
# k = floor(log10|v|), trailing zeros stripped, behind its sign, ``0.`` and
# -k - 1 zeros: ``%d`` costs a fifth of the 17-digit dtoa of ``%.17g``.
# 10**p is exact in binary64 for p <= 22, and Dekker's product (Numer. Math.
# 18, 1971), with Veltkamp's split in place of a fused multiply-add, gives
# |v| * 10**p = hi + lo exactly.  In [1e16, 1e17) hi is an even integer, so
# D = hi + rint(lo).  Zeros are written as ``%d`` of 0 (``-%d`` for -0.0),
# and every other value keeps its own ``%.17g``.
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_POW10 = np.array([float(10**p) for p in range(16, 21)])  # 10**(16 - k) at index -k


def _halves(a):
    """Veltkamp's split: ``hi + lo == a`` exactly, each with at most 26 bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _scaled(a: np.ndarray, k: np.ndarray):
    """``hi, lo`` with ``hi + lo == a * 10**(16 - k)`` exactly (Dekker)."""
    hi = a * _POW10[-k]
    ah, al = _halves(a)
    bh, bl = _POW10_HI[-k], _POW10_LO[-k]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _inside(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Whether the exact ``hi + lo`` lies in [1e16, 1e17)."""
    from_1e16 = (hi > 1e16) | ((hi == 1e16) & (lo >= 0))
    below_1e17 = (hi < 1e17) | ((hi == 1e17) & (lo < 0))
    return from_1e16 & below_1e17


# The separators a float of a file can be followed by: within a list, at the
# end of a plan's block line, at the end of a list, and after the imaginary
# part of a matrix entry pair (within a row, at its end, at the last pair).
_COMMA, _LINE, _END, _PAIR, _PAIR_LINE, _PAIR_END = range(6)
_SEPARATORS = (", ", ",\n    ", "", "], [", "],\n    [", "]")
# Heads: ``%.17g``; ``%d`` of 0 and of -0.0; then ``%d`` of the digits of
# 1e-4 <= |v| < 1 behind their ``0.`` and -k - 1 zeros, positive then negative.
_HEADS = ("%.17g", "%d", "-%d") + tuple(
    sign + "0." + "0" * zeros + "%d" for sign in ("", "-") for zeros in range(4)
)
_PIECES = np.array([head + sep for head in _HEADS for sep in _SEPARATORS], dtype=object)


def _floats(values: np.ndarray, seps: np.ndarray) -> tuple[str, list]:
    """The ``%`` template and arguments that render float64 ``values``.

    Value ``i`` is rendered as ``'%.17g' % values[i]`` renders it, followed by
    ``_SEPARATORS[seps[i]]``.
    """
    a = np.abs(values)
    near = (a >= 1e-4) & (a < 1.0)
    a = np.where(near, a, 0.5)  # the other values take no part
    k = np.clip(np.floor(np.log10(a)), -4, -1).astype(np.intp)
    hi, lo = _scaled(a, k)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # Where log10 rounds across a power of ten, k is off by one and hi + lo
    # falls outside [1e16, 1e17); where it rounds up to 1e17, the 17 digits
    # carry into an 18th.  Those values keep their ``%.17g``.
    near &= _inside(hi, lo) & (digits < 10**17)
    digits[~near] = 0
    # strip trailing zeros: D can end in 16 of them (0.5 is 5 * 10**16)
    tens = np.flatnonzero(digits % 10 == 0)
    if tens.size:
        d = digits[tens]
        for step in (16, 8, 4, 2, 1):
            q, r = np.divmod(d, 10**step)
            d = np.where(r == 0, q, d)
        digits[tens] = d
    sign = np.signbit(values)
    heads = np.where(near, 2 - k + 4 * sign, np.where(values == 0, 1 + sign, 0))
    args = digits.astype(object)
    slow = np.flatnonzero(heads == 0)
    args[slow] = values[slow]
    return "".join(_PIECES[heads * len(_SEPARATORS) + seps].tolist()), args.tolist()


def matrix_to_json(a) -> str:
    """Serialize a matrix to its canonical JSON text."""
    mat = as_matrix(a) + 0.0  # negative zeros become 0
    rows, cols = mat.shape
    seps = np.tile(np.array([_COMMA, _PAIR]), rows * cols)
    seps[2 * cols - 1 :: 2 * cols] = _PAIR_LINE
    seps[-1] = _PAIR_END
    entries, args = _floats(mat.ravel().view(np.float64), seps)
    template = (
        "{\n"
        f'  "rows": {rows},\n'
        f'  "cols": {cols},\n'
        '  "entries": [\n    [' + entries + "\n  ]\n"
        "}\n"
    )
    return template % tuple(args)


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


def _loads(text: str):
    """``json.loads(text)``, with JSON that nests deeper than the decoder
    recurses reported as a ``ValueError``, like every other malformed input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None


def json_to_matrix(text: str) -> np.ndarray:
    """Parse canonical matrix JSON back into a complex128 array.

    Every entry must be a list of two finite JSON numbers (not booleans or
    strings); the types of all entries are checked at once.
    """
    obj = _loads(text)
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


def _separators(count: int, line_ends) -> np.ndarray:
    """The separator codes of a list of ``count`` floats, with a line break
    after each index of ``line_ends``."""
    seps = np.full(count, _COMMA)
    seps[line_ends] = _LINE
    seps[-1:] = _END
    return seps


def plan_to_json(plan: DecompositionPlan) -> str:
    """Serialize a decomposition plan to its canonical (format 2) JSON text."""
    sizes = plan.sizes.tolist()
    column_pieces = {s: ", ".join(["%d"] * s) for s in set(sizes)}
    parts = plan.blocks.view(np.float64) + 0.0  # negative zeros become 0
    line_ends = np.cumsum(2 * plan.sizes**2)[:-1] - 1
    blocks, block_args = _floats(parts, _separators(len(parts), line_ends))
    phases, phase_args = _floats(plan.phases + 0.0, _separators(plan.n, []))
    template = (
        "{\n"
        '  "format": 2,\n'
        f'  "n": {plan.n},\n'
        f'  "m": {plan.m},\n'
        f'  "sizes": {sizes},\n'
        f'  "base_rows": {plan.base_rows.tolist()},\n'
        '  "columns": ' + _one_per_line([column_pieces[s] for s in sizes]) + ",\n"
        '  "blocks": ' + ("[\n    " + blocks + "\n  ]" if sizes else "[]") + ",\n"
        '  "phases": [' + phases + "]\n"
        "}\n"
    )
    return template % tuple(plan.columns.tolist() + block_args + phase_args)


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
    obj = _loads(text)
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
    lines above the header so a result file records the run that made it;
    a float value prints as the rows' numbers do, a list comma-joined item
    by item, anything else with ``str``.  The text contains nothing
    run-dependent beyond ``results`` and ``config``: rerunning an identical
    sweep yields byte-identical output.
    """
    results = list(results)
    if not results:
        raise ValueError("results must not be empty")
    lines = []
    if config:
        for key, value in config.items():
            items = value if isinstance(value, list) else [value]
            text = ",".join(_f12(v) if isinstance(v, float) else str(v) for v in items)
            lines.append(f"# {key} = {text}")
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
